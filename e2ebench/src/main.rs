//! End-to-end request benchmark for Murmuration.
//!
//! Every request runs the real request path through public calls:
//! `SharedRuntime::tick`, then `serve_decide` and `deploy`, then
//! `SubnetSpec::lower` and `Genome::plan` (plus the scheduler's dispatch
//! table), and last `Executor::execute_with`, which runs the decided plan
//! over `AsyncTcpTransport` to an in-process `SwarmWorkerHost` fleet on
//! loopback with `ConvStackCompute` as the unit compute.
//!
//! ```text
//! e2ebench --workload <lan-steady|fdsp-fanout|wan-drift> --seed <n> \
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans,
//! runs the replay probes and prints the per-layer metrics. The last line
//! of standard output is one JSON object. The process pins itself to one
//! CPU before it starts a thread, so the client, the fleet's drivers and
//! its compute share that CPU. See README.md.

mod checks;
mod stats;
mod trace;
mod workload;

use murmuration_core::executor::{
    ConvStackCompute, ExecError, ExecOptions, ExecReport, Executor, UnitCompute, UnitWire,
};
use murmuration_core::scheduler::dispatch_table;
use murmuration_core::{DeployReport, RuntimeConfig, ServeDecision, SharedRuntime};
use murmuration_partition::compliance::Slo;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_rl::LstmPolicy;
use murmuration_supernet::SubnetSpec;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::Tensor;
use murmuration_transport::{
    AsyncTcpTransport, AsyncTcpTransportConfig, SwarmHostConfig, SwarmWorkerHost,
    TcpTransportConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{mean, median, tail_percentile};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Workload, WARM_TICKS};

/// Units of a lowered subnet (stem, five stages, head).
const UNITS: usize = 7;
/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Requests served at the end of each set-up, untimed.
const WARM_REQUESTS: u64 = 3;
/// Length of the timed phase's windows (measured seconds). The timing
/// metrics are medians over windows, so a few seconds in which the VM
/// stalls do not move them.
const WINDOW_S: f64 = 1.0;
/// A traced run's timed phase also lasts until this many requests were
/// attempted: the fewest that leave ten samples beyond p99.
const MIN_REQUESTS: u64 = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = v.clone(),
            "--seed" => args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?,
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One set-up: the runtime, the fleet behind its executor, and (traced
/// runs only) an in-process executor over the same compute for replays.
struct Fleet {
    runtime: SharedRuntime,
    compute: Arc<ConvStackCompute>,
    exec: Executor,
    host: SwarmWorkerHost,
    inproc: Option<Executor>,
    tick_rng: StdRng,
    n_devices: usize,
}

impl Fleet {
    fn setup(w: &Workload, traced: bool) -> Result<Fleet, String> {
        let sc = w.scenario.clone();
        let n_devices = sc.devices.len();
        let policy =
            LstmPolicy::new(sc.input_dim(), workload::POLICY_HIDDEN, sc.arities(), w.policy_seed);
        let runtime = SharedRuntime::new(
            sc,
            policy,
            RuntimeConfig::default(),
            Slo::LatencyMs(w.global_slo_ms),
        );
        let mut tick_rng = StdRng::seed_from_u64(w.monitor_seed());
        for i in 0..WARM_TICKS {
            let t = i as f64 * w.dt_ms;
            runtime.tick(&w.network(t), t, &mut tick_rng);
        }
        // The units the decided plan computes at 8 bits run int8 kernels.
        let int8: Vec<bool> = if w.int8_from_plan {
            let d = runtime
                .serve_decide(Slo::LatencyMs(w.global_slo_ms))
                .ok_or("monitor not ready after warm-up ticks")?;
            let spec = SubnetSpec::lower(&d.genome.config);
            spec.units.iter().map(|u| u.compute_bits() == BitWidth::B8).collect()
        } else {
            Vec::new()
        };
        let compute = Arc::new(ConvStackCompute::random_quantized(
            UNITS,
            w.layers_per_unit,
            w.shape.0,
            w.weight_seed(),
            &int8,
        ));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host_cfg =
            SwarmHostConfig { compute_threads: cores, n_drivers: cores, ..Default::default() };
        let shared = Arc::clone(&compute);
        let host = SwarmWorkerHost::bind(
            n_devices,
            &move |_| Arc::clone(&shared) as Arc<dyn UnitCompute>,
            host_cfg,
        )
        .map_err(|e| format!("bind worker host: {e}"))?;
        let transport = AsyncTcpTransport::connect(
            &host.addrs(),
            AsyncTcpTransportConfig {
                base: TcpTransportConfig { seed: w.weight_seed(), ..Default::default() },
                n_drivers: cores,
                ..Default::default()
            },
        );
        if !transport.wait_connected(Duration::from_secs(10)) {
            return Err("transport did not connect to every worker within 10 s".into());
        }
        let exec = Executor::with_transport(Box::new(transport));
        let inproc =
            traced.then(|| Executor::new(n_devices, Arc::clone(&compute) as Arc<dyn UnitCompute>));
        let mut fleet = Fleet { runtime, compute, exec, host, inproc, tick_rng, n_devices };
        for i in 0..WARM_REQUESTS {
            let req = w.request(i);
            let served = fleet.serve(w, req.t_ms, req.slo_ms, req.input)?;
            served.result.map_err(|e| format!("warm-up request {i}: {e}"))?;
        }
        Ok(fleet)
    }

    /// Runs one request through the program: tick, then decide, deploy,
    /// lower + plan, execute. Returns the outputs and the boundaries
    /// between the calls.
    fn serve(
        &mut self,
        w: &Workload,
        t_ms: f64,
        slo_ms: f64,
        input: Tensor,
    ) -> Result<Served, String> {
        let net = w.network(t_ms);
        let s0 = Instant::now();
        self.runtime.tick(&net, t_ms, &mut self.tick_rng);
        let s1 = Instant::now();
        let decision =
            self.runtime.serve_decide(Slo::LatencyMs(slo_ms)).ok_or("monitor not ready")?;
        let s2 = Instant::now();
        let deploy = self.runtime.deploy(&decision, &net);
        let s3 = Instant::now();
        let spec = SubnetSpec::lower(&decision.genome.config);
        let plan = decision.genome.plan(&spec, self.n_devices);
        let wire = dispatch_table(&spec, &plan, self.n_devices).map_err(|e| e.to_string())?;
        let s4 = Instant::now();
        let opts = ExecOptions::for_budget_ms(deploy.latency_ms);
        let result = self.exec.execute_with(&plan, &wire, input, opts);
        let s5 = Instant::now();
        Ok(Served { stamps: [s0, s1, s2, s3, s4, s5], decision, deploy, spec, plan, wire, result })
    }

    fn teardown(mut self) {
        self.exec.shutdown();
        if let Some(mut e) = self.inproc.take() {
            e.shutdown();
        }
        self.host.stop();
    }
}

/// One served request: the program's outputs and the instants between
/// tick | decide | deploy | lower+plan | execute | done.
struct Served {
    stamps: [Instant; 6],
    decision: ServeDecision,
    deploy: DeployReport,
    spec: SubnetSpec,
    plan: ExecutionPlan,
    wire: Vec<UnitWire>,
    result: Result<(Tensor, ExecReport), ExecError>,
}

/// One window of the timed phase.
#[derive(Default)]
struct Window {
    request_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

/// What the timed phase collected.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    measured_s: f64,
    cpu_s: f64,
    windows: Vec<Window>,
    request_ms: Vec<f64>,
    accuracy: Vec<f64>,
    cached: Vec<bool>,
    switch_us: Vec<f64>,
    devices: Vec<f64>,
    tiled: Vec<f64>,
    int8: Vec<f64>,
    jobs: Vec<f64>,
    macs: Vec<f64>,
    wire_bytes: Vec<f64>,
    transport_gap_ms: Vec<f64>,
    inproc_cpu_ms: f64,
    report: ExecReport,
    first_error: Option<String>,
}

/// Work a plan implies, computed from shapes: job submissions (units and
/// tiles), kernel MACs, and the payload bytes the transport carries (job
/// inputs at their wire precision — B32 when the job stays on the device
/// holding its input — plus B32 replies).
fn plan_work(
    plan: &ExecutionPlan,
    wire: &[UnitWire],
    shape: (usize, usize, usize),
    layers: usize,
) -> (f64, f64, f64) {
    let (c, h, w) = shape;
    let (mut jobs, mut macs, mut bytes) = (0usize, 0usize, 0usize);
    let mut loc = 0usize;
    for (p, uw) in plan.placements.iter().zip(wire) {
        let (devs, parts) = match p {
            UnitPlacement::Single(d) => (vec![*d], vec![(h, w)]),
            UnitPlacement::Tiled(devs) => {
                let b = murmuration_tensor::tile::tile_bounds(h, w, uw.grid);
                (devs.clone(), b.into_iter().map(|(_, _, th, tw)| (th, tw)).collect())
            }
        };
        for (&dev, &(th, tw)) in devs.iter().zip(&parts) {
            let numel = c * th * tw;
            let bits = if dev != loc { uw.in_quant } else { BitWidth::B32 };
            jobs += 1;
            macs += layers * c * c * 9 * th * tw;
            bytes += bits.wire_bytes(numel) + BitWidth::B32.wire_bytes(numel);
        }
        loc = devs[0];
    }
    (jobs as f64, macs as f64, bytes as f64)
}

fn run(args: &Args) -> Result<(), String> {
    let w = Workload::new(&args.workload, args.seed).ok_or_else(|| {
        format!("unknown workload {:?}; expected one of {:?}", args.workload, workload::NAMES)
    })?;
    let cpu = stats::pin_to_one_cpu()?;
    checks::self_test().map_err(|e| format!("self-test: {e}"))?;

    // Set-up, several times; the last fleet serves the timed phase.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut fleet = None;
    for _ in 0..reps {
        if let Some(old) = fleet.take() {
            Fleet::teardown(old);
        }
        let t0 = Instant::now();
        fleet = Some(Fleet::setup(&w, args.trace)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one set-up");

    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# seeds: weights {:#x}, monitor {:#x}, requests mix(seed, 1000 + i); policy seed {}",
        w.weight_seed(),
        w.monitor_seed(),
        w.policy_seed
    );
    let int8_units: Vec<usize> = (0..UNITS).filter(|&u| fleet.compute.is_int8_unit(u)).collect();
    println!("# int8 units: {int8_units:?}");
    println!("# pinned to cpu {cpu}: the client, the fleet's drivers and its compute share it");
    let kernel_lines =
        checks::kernel_check(&fleet.compute, w.layers_per_unit, w.shape, w.weight_seed());
    let kernels_ok = match &kernel_lines {
        Ok(lines) => {
            for l in lines {
                println!("# kernel check: {l}");
            }
            true
        }
        Err(e) => {
            println!("# kernel check FAILED: {e}");
            false
        }
    };

    let mut tracer = Tracer::new(args.trace);
    let mut ph = Phase::default();
    let mut i = WARM_REQUESTS;
    while ph.measured_s < args.seconds || (args.trace && ph.attempted < MIN_REQUESTS) {
        let req = w.request(i);
        let input = req.input.clone();
        let cpu0 = stats::process_cpu_s();
        let t0 = Instant::now();
        let served = fleet.serve(&w, req.t_ms, req.slo_ms, req.input);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), stats::process_cpu_s() - cpu0);
        let win = (ph.measured_s / WINDOW_S) as usize;
        if ph.windows.len() <= win {
            ph.windows.resize_with(win + 1, Window::default);
        }
        ph.windows[win].wall_s += wall;
        ph.windows[win].cpu_s += cpu;
        ph.measured_s += wall;
        ph.cpu_s += cpu;
        ph.attempted += 1;
        let s = match served {
            Ok(s) => s,
            Err(e) => {
                ph.failed += 1;
                ph.first_error.get_or_insert(format!("request {i}: {e}"));
                i += 1;
                continue;
            }
        };
        let st = s.stamps;
        tracer.span("core::runtime.tick", i, st[0], st[1], None);
        let root = tracer.span("request", i, st[1], st[5], None);
        for (k, name) in [
            "core::runtime.decide",
            "core::runtime.deploy",
            "supernet+partition.lower_plan",
            "core::executor.execute",
        ]
        .iter()
        .enumerate()
        {
            tracer.span(name, i, st[k + 1], st[k + 2], Some(root));
        }
        ph.cached.push(s.decision.cached);

        // Checks, outside the timed spans.
        let placeable = fleet.runtime.placeable_mask();
        let mut verdict = checks::plan_properties(&s.spec, &s.plan, &placeable);
        if verdict.is_ok() && s.deploy.degradation.forced_local {
            verdict = Err("deploy fell back to an all-local plan".into());
        }
        let verdict = verdict.and_then(|()| match &s.result {
            Err(e) => Err(format!("execute: {e}")),
            Ok((out, _)) => {
                let t0 = Instant::now();
                let probe = tracer.span("probe.reference", i, t0, t0, None);
                let reference = checks::reference(
                    &fleet.compute,
                    &s.plan,
                    &s.wire,
                    &input,
                    &mut tracer,
                    i,
                    probe,
                );
                if tracer.on() {
                    tracer.spans[probe].end = Instant::now();
                }
                checks::bit_exact(out, &reference)
            }
        });
        match verdict {
            Ok(()) => {}
            Err(e) => {
                ph.failed += 1;
                if s.result.is_ok() {
                    ph.mismatches += 1;
                }
                ph.first_error.get_or_insert(format!("request {i}: {e}"));
                i += 1;
                continue;
            }
        }
        let (out_report, exec_ms) = match &s.result {
            Ok((_, r)) => (*r, st[5].duration_since(st[4]).as_secs_f64() * 1e3),
            Err(_) => unreachable!("failed executions were counted above"),
        };
        if let Some(inproc) = &fleet.inproc {
            let opts = ExecOptions::for_budget_ms(s.deploy.latency_ms);
            let cpu0 = stats::process_cpu_s();
            let t0 = Instant::now();
            let r = inproc.execute_with(&s.plan, &s.wire, input.clone(), opts);
            let t1 = Instant::now();
            ph.inproc_cpu_ms += (stats::process_cpu_s() - cpu0) * 1e3;
            r.map_err(|e| format!("in-process replay of request {i}: {e}"))?;
            tracer.span("probe.inproc_execute", i, t0, t1, None);
            ph.transport_gap_ms.push(exec_ms - t1.duration_since(t0).as_secs_f64() * 1e3);
        }

        ph.request_ms.push(st[5].duration_since(st[1]).as_secs_f64() * 1e3);
        ph.windows[win].request_ms.push(st[5].duration_since(st[1]).as_secs_f64() * 1e3);
        ph.accuracy.push(f64::from(s.deploy.accuracy_pct));
        ph.switch_us.push(s.deploy.switch_time.as_secs_f64() * 1e6);
        ph.devices.push(s.plan.devices_used().len() as f64);
        ph.tiled.push(
            s.plan.placements.iter().filter(|p| matches!(p, UnitPlacement::Tiled(_))).count()
                as f64,
        );
        ph.int8
            .push(s.spec.units.iter().filter(|u| u.compute_bits() == BitWidth::B8).count() as f64);
        let (jobs, macs, bytes) = plan_work(&s.plan, &s.wire, w.shape, w.layers_per_unit);
        ph.jobs.push(jobs);
        ph.macs.push(macs);
        ph.wire_bytes.push(bytes);
        let r = &mut ph.report;
        r.retries += out_report.retries;
        r.failovers += out_report.failovers;
        r.deadline_misses += out_report.deadline_misses;
        r.reconnects += out_report.reconnects;
        r.resends_deduped += out_report.resends_deduped;
        i += 1;
    }
    let peak_rss = stats::peak_rss_mb();
    fleet.teardown();

    let completed = ph.request_ms.len() as u64;
    if completed == 0 {
        return Err(format!("no request completed; first error: {:?}", ph.first_error));
    }
    if let Some(e) = &ph.first_error {
        println!("# first failure: {e}");
    }
    let hits = ph.cached.iter().filter(|&&c| c).count();
    println!(
        "# requests: attempted {} failed {} (mismatches {}), completed {completed}, cache hits {hits}, measured {:.3} s",
        ph.attempted, ph.failed, ph.mismatches, ph.measured_s
    );
    let r = &ph.report;
    println!(
        "# executor: retries {} failovers {} deadline misses {}; transport: reconnects {} resends deduped {}",
        r.retries, r.failovers, r.deadline_misses, r.reconnects, r.resends_deduped
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        // Informative only: too steal-sensitive on a shared VM to bound.
        match tail_percentile(&ph.request_ms, 0.99) {
            Some(p99) => println!("# request_p99_ms (unbounded) = {p99:.6} ms"),
            None => println!(
                "# request_p99_ms refused: {completed} samples leave fewer than ten beyond it"
            ),
        }
        metrics.push(("setup_s", median(&setup_s), "s"));
        println!(
            "# pooled over the phase: request p50 {:.6} ms, {:.6} req/s, {:.6} cpu ms/request",
            median(&ph.request_ms),
            completed as f64 / ph.measured_s,
            ph.cpu_s * 1e3 / completed as f64
        );
        let per_window = |f: &dyn Fn(&Window) -> f64| {
            // The last window is cut short by the end of the run.
            let full = |w: &&Window| !w.request_ms.is_empty() && w.wall_s >= WINDOW_S / 2.0;
            let v: Vec<f64> = if ph.windows.iter().any(|w| full(&w)) {
                ph.windows.iter().filter(full).map(f).collect()
            } else {
                ph.windows.iter().filter(|w| !w.request_ms.is_empty()).map(f).collect()
            };
            median(&v)
        };
        metrics.push(("request_p50_ms", per_window(&|w| median(&w.request_ms)), "ms"));
        metrics.push((
            "requests_per_s",
            per_window(&|w| w.request_ms.len() as f64 / w.wall_s),
            "req/s",
        ));
        metrics.push((
            "cpu_ms_per_request",
            per_window(&|w| w.cpu_s * 1e3 / w.request_ms.len() as f64),
            "ms",
        ));
        metrics.push(("peak_rss_mb", peak_rss, "MB"));
        metrics.push(("accuracy_pct", mean(&ph.accuracy), "%"));
    } else {
        layer_metrics(&tracer, &ph, completed, &mut metrics)?;
        let loop_us: f64 = tracer.durations_us("request").iter().sum::<f64>()
            + tracer.durations_us("core::runtime.tick").iter().sum::<f64>();
        println!("# per-layer table ({} requests):", completed);
        for line in tracer.layer_table(completed, loop_us).lines() {
            println!("# {line}");
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let path = format!("{dir}/trace-{}-seed{}.json", w.name, args.seed);
        std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("# chrome trace: {path}");
    }
    for (name, v, unit) in &metrics {
        println!("# {name} = {v:.6} {unit}");
    }

    let correct = kernels_ok && ph.mismatches == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ph.attempted, ph.failed
    );
    for (k, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// The per-layer metrics of a traced run, from its spans and replays.
fn layer_metrics(
    tracer: &Tracer,
    ph: &Phase,
    completed: u64,
    m: &mut Vec<(&'static str, f64, &'static str)>,
) -> Result<(), String> {
    let n = completed as f64;
    let decide = tracer.durations_us("core::runtime.decide");
    let misses: Vec<f64> =
        decide.iter().zip(&ph.cached).filter(|(_, &c)| !c).map(|(&d, _)| d).collect();
    let total = |name: &str| tracer.durations_us(name).iter().fold(0.0, |a, b| a + b);
    let execute_ms: Vec<f64> =
        tracer.durations_us("core::executor.execute").iter().map(|us| us / 1e3).collect();
    let kernel_ms = total("tensor.run_unit") / 1e3;
    let codec_us = total("core::wire.codec");
    let split_merge_us = total("tensor.fdsp_split_merge");
    m.push(("tick.p50_us", median(&tracer.durations_us("core::runtime.tick")), "us"));
    m.push(("decide.p50_us", median(&decide), "us"));
    m.push(("decide.miss_p50_us", if misses.is_empty() { 0.0 } else { median(&misses) }, "us"));
    let hits = ph.cached.iter().filter(|&&c| c).count();
    m.push(("decide.cache_hit_ratio", hits as f64 / ph.cached.len() as f64, "ratio"));
    m.push(("deploy.p50_us", median(&tracer.durations_us("core::runtime.deploy")), "us"));
    m.push(("deploy.switch_p50_us", median(&ph.switch_us), "us"));
    m.push((
        "lower_plan.p50_us",
        median(&tracer.durations_us("supernet+partition.lower_plan")),
        "us",
    ));
    m.push(("plan.devices_per_req", mean(&ph.devices), "count"));
    m.push(("plan.tiled_units_per_req", mean(&ph.tiled), "count"));
    m.push(("plan.int8_units_per_req", mean(&ph.int8), "count"));
    m.push(("execute.p50_ms", median(&execute_ms), "ms"));
    m.push((
        "execute.p99_ms",
        tail_percentile(&execute_ms, 0.99).ok_or("too few executions for execute.p99_ms")?,
        "ms",
    ));
    m.push(("execute.jobs_per_req", mean(&ph.jobs), "count"));
    m.push(("execute.retries", f64::from(ph.report.retries), "count"));
    m.push(("execute.failovers", f64::from(ph.report.failovers), "count"));
    m.push(("execute.deadline_misses", f64::from(ph.report.deadline_misses), "count"));
    m.push((
        "executor.self_ms_per_req",
        (ph.inproc_cpu_ms - kernel_ms - (codec_us + split_merge_us) / 1e3) / n,
        "ms",
    ));
    m.push(("transport.overhead_p50_ms", median(&ph.transport_gap_ms), "ms"));
    m.push(("transport.reconnects", ph.report.reconnects as f64, "count"));
    m.push(("transport.resends_deduped", ph.report.resends_deduped as f64, "count"));
    m.push(("wire.bytes_per_req", mean(&ph.wire_bytes), "bytes"));
    m.push(("wire.codec_us_per_req", codec_us / n, "us"));
    m.push(("kernel.ms_per_req", kernel_ms / n, "ms"));
    m.push(("kernel.gmac_per_s", ph.macs.iter().sum::<f64>() / (kernel_ms / 1e3) / 1e9, "GMAC/s"));
    m.push(("fdsp.split_merge_us_per_req", split_merge_us / n, "us"));
    m.push(("traced.request_p50_ms", median(&ph.request_ms), "ms"));
    m.push((
        "traced.request_p99_ms",
        tail_percentile(&ph.request_ms, 0.99).ok_or("too few requests for request p99")?,
        "ms",
    ));
    m.push(("trace.coverage_pct", tracer.coverage("request") * 100.0, "%"));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
