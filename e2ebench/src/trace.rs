//! In-memory spans around calls into the program, written out as Chrome
//! trace-event JSON when the run ends, and the per-layer table (with self
//! times) derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    /// Request id; the spans of one request share it.
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// Span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span and returns its index (0 when off).
    pub fn span(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span { name, req, start, end, parent });
        self.spans.len() - 1
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Per span: its duration minus the part its children cover (µs),
    /// subtracted in whole nanoseconds so contiguous children leave 0.
    pub fn self_us(&self) -> Vec<f64> {
        let ns = |s: &Span| s.end.duration_since(s.start).as_nanos() as i128;
        let mut own: Vec<i128> = self.spans.iter().map(ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= ns(s);
            }
        }
        own.into_iter().map(|v| v as f64 / 1e3).collect()
    }

    /// Share of the `parent`-named spans' time that their children cover.
    pub fn coverage(&self, parent: &str) -> f64 {
        let (mut total, mut covered) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == parent {
                total += s.us();
                covered +=
                    self.spans.iter().filter(|c| c.parent == Some(i)).map(Span::us).sum::<f64>();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The per-layer table: per span name, calls, total and self time per
    /// request, and self time as a share of the named root's total.
    pub fn layer_table(&self, requests: u64, loop_us: f64) -> String {
        let own = self.self_us();
        let mut rows: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(&own) {
            let r = rows.entry(s.name).or_default();
            r.0 += 1;
            r.1 += s.us();
            r.2 += o;
        }
        let n = requests.max(1) as f64;
        let mut out = String::from(
            "| span | calls/req | total µs/req | self µs/req | self % of request loop |\n|---|---|---|---|---|\n",
        );
        for (name, (calls, total, own)) in rows {
            let share = if name.starts_with("probe") || self.is_probe_child(name) {
                "(replay)".to_string()
            } else {
                format!("{:.1}", own / loop_us.max(1e-9) * 100.0)
            };
            let _ = writeln!(
                out,
                "| {name} | {:.2} | {:.1} | {:.1} | {share} |",
                calls as f64 / n,
                total / n,
                own / n
            );
        }
        out
    }

    fn is_probe_child(&self, name: &str) -> bool {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.parent)
            .is_some_and(|p| self.spans[p].name.starts_with("probe"))
    }

    /// Chrome trace-event JSON (complete events, µs since the tracer's
    /// creation).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let ts = s.start.duration_since(self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.us(),
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
