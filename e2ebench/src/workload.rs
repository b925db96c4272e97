//! The three workloads, one per paper scenario, and the seeded request
//! stream each one feeds the program.
//!
//! Everything a request carries — its virtual time, the ground-truth
//! network at that time, its SLO and its input tensor — is a pure function
//! of the workload, the `--seed` and the request index.

use murmuration_edgesim::trace::NetworkTrace;
use murmuration_edgesim::{LinkState, NetworkState};
use murmuration_rl::{Scenario, SloKind};
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the ground-truth network evolves.
pub enum Net {
    /// One constant link state per remote device.
    Constant(NetworkState),
    /// One seeded random walk per remote link.
    Walk(Vec<NetworkTrace>),
}

/// How each request's latency SLO (ms) is chosen.
pub enum SloMix {
    /// Every request carries this SLO.
    Fixed(f64),
    /// Each request draws one of these uniformly.
    Levels(Vec<f64>),
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub scenario: Scenario,
    /// Seed of the untrained `LstmPolicy` (fixed: decisions are part of
    /// the workload's make-up, not of its seeded inputs).
    pub policy_seed: u64,
    /// The runtime-global SLO the tick's precompute targets.
    pub global_slo_ms: f64,
    pub net: Net,
    pub slo: SloMix,
    /// Virtual time between two requests.
    pub dt_ms: f64,
    /// Input activation shape `(c, h, w)`; every unit keeps it.
    pub shape: (usize, usize, usize),
    /// Convs per `ConvStackCompute` unit.
    pub layers_per_unit: usize,
    /// Units whose decided `compute_bits()` is B8 run the int8 path.
    pub int8_from_plan: bool,
    seed: u64,
}

/// The workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["lan-steady", "fdsp-fanout", "wan-drift"];

/// Hidden size of the seeded untrained policy.
pub const POLICY_HIDDEN: usize = 16;

impl Workload {
    /// Builds workload `name` for `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            // Augmented computing (Pi + GPU): a constant 252 Mbps / 15.6 ms
            // link and one SLO, both on the scenario's grid so the cache
            // key never flickers under monitor noise.
            "lan-steady" => {
                let sc = Scenario::augmented_computing(SloKind::Latency);
                let cond = sc.condition_from_indices(2, &[7], &[1]);
                Workload {
                    name: "lan-steady",
                    global_slo_ms: cond.slo,
                    net: Net::Constant(sc.network(&cond)),
                    slo: SloMix::Fixed(cond.slo),
                    scenario: sc,
                    policy_seed: 0,
                    dt_ms: 50.0,
                    shape: (16, 56, 56),
                    layers_per_unit: 2,
                    int8_from_plan: false,
                    seed,
                }
            }
            // Device swarm (5 Pis): 500 Mbps / 5 ms LAN and the tightest
            // SLO of the scenario's range.
            "fdsp-fanout" => {
                let sc = Scenario::device_swarm(5, SloKind::Latency);
                let cond = sc.condition_from_indices(0, &[9; 4], &[0; 4]);
                Workload {
                    name: "fdsp-fanout",
                    global_slo_ms: cond.slo,
                    net: Net::Constant(sc.network(&cond)),
                    slo: SloMix::Fixed(cond.slo),
                    scenario: sc,
                    policy_seed: 0,
                    dt_ms: 50.0,
                    shape: (16, 32, 32),
                    layers_per_unit: 2,
                    int8_from_plan: true,
                    seed,
                }
            }
            // Heterogeneous edge (Pi + two Jetsons + GPU): every link walks
            // around 88 Mbps / 35 ms, and SLOs mix across the range.
            "wan-drift" => {
                let sc = Scenario::heterogeneous_edge(SloKind::Latency);
                let base = sc.condition_from_indices(5, &[5; 3], &[3; 3]);
                let walks = (0..sc.n_remote())
                    .map(|link| {
                        let l = LinkState {
                            bandwidth_mbps: base.bw_mbps[link],
                            delay_ms: base.delay_ms[link],
                        };
                        NetworkTrace::random_walk(
                            l,
                            WAN_PERIOD_MS,
                            WAN_STEPS,
                            4.0,
                            mix(seed, 100 + link as u64),
                        )
                    })
                    .collect();
                let levels = (0..sc.grid_points)
                    .map(|i| sc.condition_from_indices(i, &[0; 3], &[0; 3]).slo)
                    .collect();
                Workload {
                    name: "wan-drift",
                    global_slo_ms: base.slo,
                    net: Net::Walk(walks),
                    slo: SloMix::Levels(levels),
                    scenario: sc,
                    policy_seed: 0,
                    dt_ms: WAN_PERIOD_MS,
                    shape: (8, 16, 16),
                    layers_per_unit: 2,
                    int8_from_plan: false,
                    seed,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// Seed of the `ConvStackCompute` weights.
    pub fn weight_seed(&self) -> u64 {
        mix(self.seed, 1)
    }

    /// Seed of the monitor's observation noise (the tick's RNG).
    pub fn monitor_seed(&self) -> u64 {
        mix(self.seed, 2)
    }

    /// Ground-truth network at virtual time `t_ms`.
    pub fn network(&self, t_ms: f64) -> NetworkState {
        match &self.net {
            Net::Constant(n) => n.clone(),
            Net::Walk(walks) => {
                NetworkState::from_links(walks.iter().map(|w| w.sample(t_ms)).collect())
            }
        }
    }

    /// Request `i`: virtual time, SLO and input tensor.
    pub fn request(&self, i: u64) -> Request {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 1_000 + i));
        let slo_ms = match &self.slo {
            SloMix::Fixed(v) => *v,
            SloMix::Levels(l) => l[rng.gen_range(0..l.len())],
        };
        let (c, h, w) = self.shape;
        let input = Tensor::rand_uniform(Shape::nchw(1, c, h, w), 1.0, &mut rng);
        // Requests start after the set-up's virtual time window.
        let t_ms = (WARM_TICKS as f64 + i as f64) * self.dt_ms;
        Request { t_ms, slo_ms, input }
    }
}

/// One generated request.
pub struct Request {
    pub t_ms: f64,
    pub slo_ms: f64,
    pub input: Tensor,
}

/// Monitor ticks during set-up, before the first decision (the
/// predictor's history window).
pub const WARM_TICKS: usize = 8;
/// Walk re-sampling period of `wan-drift` (one new link state per request).
const WAN_PERIOD_MS: f64 = 100.0;
/// Walk length; requests past the end hold the last state.
const WAN_STEPS: usize = 200_000;

/// SplitMix64 of `seed` and a stream id: independent seeded streams.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
