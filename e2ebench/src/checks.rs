//! Output checks that do not trust the code they check.
//!
//! * [`reference`] recomputes a request's result by calling the lower
//!   layers directly — `UnitCompute::run_unit`, `split_fdsp`/`merge_fdsp`
//!   and a `wire::encode`/`decode` round trip wherever the plan moves an
//!   activation between devices — with no executor or transport in the
//!   loop. [`bit_exact`] compares the executed result against it.
//! * [`plan_properties`] checks a decided plan against the fleet.
//! * [`kernel_check`] compares every unit's `run_unit` against a naive
//!   direct convolution + ReLU written here, so the reference does not
//!   merely share the kernels' mistakes.

use crate::trace::Tracer;
use murmuration_core::executor::{ConvStackCompute, UnitCompute, UnitWire};
use murmuration_core::wire;
use murmuration_partition::{ExecutionPlan, UnitPlacement};
use murmuration_supernet::SubnetSpec;
use murmuration_tensor::quant::BitWidth;
use murmuration_tensor::tile::{merge_fdsp, split_fdsp};
use murmuration_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Relative-L2 bound between an int8 unit's output and the f32 naive
/// result (two quantized convs; see README).
pub const INT8_REL_L2_BOUND: f64 = 0.05;

/// What crossing a device boundary does to an activation: encode at the
/// wire precision and decode back.
fn ship(t: &Tensor, bits: BitWidth) -> Tensor {
    wire::decode(&wire::encode(t, bits)).expect("a frame that was just encoded decodes")
}

/// The executor's data movement, replayed without executor or transport.
/// Data starts on device 0; a job whose device differs from the device
/// holding its input receives it through a wire round trip at the unit's
/// input precision; tiled units gather on their first tile's device. With
/// `tracer` on, each kernel call, codec round trip and split/merge is
/// recorded as a span under `parent` (the replay probes).
pub fn reference(
    compute: &ConvStackCompute,
    plan: &ExecutionPlan,
    wire_table: &[UnitWire],
    input: &Tensor,
    tracer: &mut Tracer,
    req: u64,
    parent: usize,
) -> Tensor {
    let span = |tracer: &mut Tracer, name, t0| {
        tracer.span(name, req, t0, Instant::now(), Some(parent));
    };
    let mut data = input.clone();
    let mut loc = 0usize;
    for (unit, (placement, w)) in plan.placements.iter().zip(wire_table).enumerate() {
        let (devs, grid) = match placement {
            UnitPlacement::Single(dev) => (std::slice::from_ref(dev), None),
            UnitPlacement::Tiled(devs) => (devs.as_slice(), Some(w.grid)),
        };
        let t0 = Instant::now();
        let parts = match grid {
            None => vec![data],
            Some(g) => {
                let tiles = split_fdsp(&data, g);
                span(tracer, "tensor.fdsp_split_merge", t0);
                tiles
            }
        };
        let mut outs = Vec::with_capacity(parts.len());
        for (part, &dev) in parts.iter().zip(devs) {
            let shipped;
            let x = if dev != loc {
                let t0 = Instant::now();
                shipped = ship(part, w.in_quant);
                span(tracer, "core::wire.codec", t0);
                &shipped
            } else {
                part
            };
            let t0 = Instant::now();
            outs.push(compute.run_unit(unit, x));
            span(tracer, "tensor.run_unit", t0);
        }
        let t0 = Instant::now();
        data = match grid {
            None => outs.remove(0),
            Some(g) => {
                let merged = merge_fdsp(&outs, g);
                span(tracer, "tensor.fdsp_split_merge", t0);
                merged
            }
        };
        loc = devs[0];
    }
    data
}

/// Bit-for-bit equality of an executed result and its reference.
pub fn bit_exact(out: &Tensor, reference: &Tensor) -> Result<(), String> {
    if out.shape() != reference.shape() {
        return Err(format!("shape {:?} vs reference {:?}", out.shape(), reference.shape()));
    }
    match out.data().iter().zip(reference.data()).position(|(a, b)| a.to_bits() != b.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "element {i} differs: {} vs reference {}",
            out.data()[i],
            reference.data()[i]
        )),
    }
}

/// Decision properties: the plan validates against the spec (one
/// placement per unit, and every tiled placement has as many devices as
/// its unit's grid has tiles) and places work only on placeable devices.
pub fn plan_properties(
    spec: &SubnetSpec,
    plan: &ExecutionPlan,
    placeable: &[bool],
) -> Result<(), String> {
    plan.validate(spec, placeable.len())?;
    match plan.devices_used().into_iter().find(|&d| !placeable[d]) {
        Some(d) => Err(format!("device {d} is not placeable")),
        None => Ok(()),
    }
}

/// The weights `ConvStackCompute::random_quantized` draws for `seed`,
/// re-derived here from its documented construction: per unit, per layer,
/// a Kaiming-uniform `c×c×3×3` weight (zero bias, same padding).
fn conv_stack_weights(n_units: usize, layers: usize, c: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_units)
        .map(|_| {
            (0..layers).map(|_| Tensor::kaiming(Shape::nchw(c, c, 3, 3), c * 9, &mut rng)).collect()
        })
        .collect()
}

/// Naive same-padded k3 convolution + ReLU in f64. Returns the output and
/// its magnitude bound `Σ|w|·|x|` per element (the f32 rounding-error
/// scale, propagated through the layers).
fn naive_conv_relu(
    x: &[f64],
    mag: &[f64],
    w: &Tensor,
    c: usize,
    h: usize,
    wd: usize,
) -> (Vec<f64>, Vec<f64>) {
    let wt = w.data();
    let mut out = vec![0.0; c * h * wd];
    let mut out_mag = vec![0.0; c * h * wd];
    for co in 0..c {
        for y in 0..h {
            for xx in 0..wd {
                let (mut acc, mut m) = (0.0f64, 0.0f64);
                for ci in 0..c {
                    for ky in 0..3 {
                        for kx in 0..3 {
                            let (iy, ix) =
                                (y as isize + ky as isize - 1, xx as isize + kx as isize - 1);
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= wd as isize {
                                continue;
                            }
                            let i = (ci * h + iy as usize) * wd + ix as usize;
                            let wv = f64::from(wt[((co * c + ci) * 3 + ky) * 3 + kx]);
                            acc += wv * x[i];
                            m += wv.abs() * mag[i];
                        }
                    }
                }
                out[(co * h + y) * wd + xx] = acc.max(0.0);
                out_mag[(co * h + y) * wd + xx] = m;
            }
        }
    }
    (out, out_mag)
}

/// Compares every unit's `run_unit` on a seeded input of `shape` against
/// the naive convolution. f32 units must match element-wise within
/// `layers·k·ε·Σ|w||x|` (k = the reduction length `c·9`, the DESIGN §8.3
/// contract); int8 units must stay within [`INT8_REL_L2_BOUND`] of the f32
/// naive result in relative L2. Returns one line per unit.
pub fn kernel_check(
    compute: &ConvStackCompute,
    layers: usize,
    shape: (usize, usize, usize),
    weight_seed: u64,
) -> Result<Vec<String>, String> {
    let (c, h, w) = shape;
    let weights = conv_stack_weights(compute.n_units(), layers, c, weight_seed);
    let mut rng = StdRng::seed_from_u64(weight_seed ^ 0x5EED);
    let input = Tensor::rand_uniform(Shape::nchw(1, c, h, w), 1.0, &mut rng);
    let k = (c * 9) as f64;
    let eps = f64::from(f32::EPSILON);
    let mut lines = Vec::new();
    for (unit, unit_w) in weights.iter().enumerate() {
        let got = compute.run_unit(unit, &input);
        let mut x: Vec<f64> = input.data().iter().map(|&v| f64::from(v)).collect();
        let mut mag: Vec<f64> = x.iter().map(|v| v.abs()).collect();
        for wt in unit_w {
            (x, mag) = naive_conv_relu(&x, &mag, wt, c, h, w);
        }
        if got.numel() != x.len() {
            return Err(format!("unit {unit}: {} elements vs naive {}", got.numel(), x.len()));
        }
        if compute.is_int8_unit(unit) {
            let num: f64 =
                got.data().iter().zip(&x).map(|(&g, &r)| (f64::from(g) - r).powi(2)).sum();
            let den: f64 = x.iter().map(|r| r * r).sum();
            let rel = (num / den.max(f64::MIN_POSITIVE)).sqrt();
            if rel > INT8_REL_L2_BOUND {
                return Err(format!(
                    "unit {unit} (int8): relative L2 {rel:.4} > {INT8_REL_L2_BOUND}"
                ));
            }
            lines.push(format!("unit {unit} int8: relative L2 {rel:.5} <= {INT8_REL_L2_BOUND}"));
        } else {
            let mut worst = 0.0f64;
            for (i, (&g, &r)) in got.data().iter().zip(&x).enumerate() {
                let tol = layers as f64 * k * eps * mag[i] + f64::from(f32::MIN_POSITIVE);
                let err = (f64::from(g) - r).abs();
                if err > tol {
                    return Err(format!("unit {unit} (f32): element {i} off by {err:e} > {tol:e}"));
                }
                worst = worst.max(err / tol);
            }
            lines.push(format!("unit {unit} f32: worst error {worst:.4} of tolerance"));
        }
    }
    Ok(lines)
}

/// Proves that each check can fail: a one-byte flip, an infeasible plan,
/// a wrong tile count and a p99 without ten samples beyond it must all be
/// rejected, and their unmodified counterparts accepted.
pub fn self_test() -> Result<(), String> {
    use murmuration_supernet::SearchSpace;
    use murmuration_tensor::tile::GridSpec;

    let mut rng = StdRng::seed_from_u64(7);
    let t = Tensor::rand_uniform(Shape::nchw(1, 2, 4, 4), 1.0, &mut rng);
    bit_exact(&t, &t.clone()).map_err(|e| format!("bit_exact rejected equal tensors: {e}"))?;
    let mut flipped = t.clone();
    let bits = flipped.data()[5].to_bits() ^ (0xFF << 16); // byte 2 of element 5
    flipped.data_mut()[5] = f32::from_bits(bits);
    if bit_exact(&flipped, &t).is_ok() {
        return Err("bit_exact accepted an output with one byte flipped".into());
    }

    let mut cfg = SearchSpace::default().min_config();
    cfg.stages[1].partition = GridSpec::new(2, 2);
    let spec = SubnetSpec::lower(&cfg);
    let mut plan = ExecutionPlan::all_on(&spec, 0);
    plan.placements[2] = UnitPlacement::Tiled(vec![0, 1, 0, 1]);
    plan_properties(&spec, &plan, &[true, true])
        .map_err(|e| format!("plan check rejected a feasible plan: {e}"))?;
    if plan_properties(&spec, &plan, &[true, false]).is_ok() {
        return Err("plan check accepted a plan on an unplaceable device".into());
    }
    plan.placements[2] = UnitPlacement::Tiled(vec![0, 1]);
    if plan_properties(&spec, &plan, &[true, true]).is_ok() {
        return Err("plan check accepted a tiled placement with the wrong device count".into());
    }

    let samples: Vec<f64> = (0..999).map(f64::from).collect();
    if crate::stats::tail_percentile(&samples, 0.99).is_some() {
        return Err("p99 reported with fewer than ten samples beyond it".into());
    }
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    if crate::stats::tail_percentile(&samples, 0.99).is_none() {
        return Err("p99 refused with ten samples beyond it".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_check_can_fail() {
        self_test().unwrap();
    }

    #[test]
    fn naive_convolution_matches_f32_and_int8_units() {
        let seed = 11;
        let compute = ConvStackCompute::random_quantized(2, 2, 4, seed, &[false, true]);
        let lines = kernel_check(&compute, 2, (4, 9, 7), seed).unwrap();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn kernel_check_rejects_other_weights() {
        let compute = ConvStackCompute::random(1, 2, 4, 11);
        assert!(kernel_check(&compute, 2, (4, 8, 8), 12).is_err());
    }

    #[test]
    fn reference_replays_a_remote_tiled_plan() {
        use murmuration_tensor::tile::GridSpec;
        let compute = ConvStackCompute::random(2, 1, 4, 3);
        let plan = ExecutionPlan {
            placements: vec![UnitPlacement::Single(1), UnitPlacement::Tiled(vec![0, 1, 2, 3])],
        };
        let table = vec![
            UnitWire { grid: GridSpec::new(1, 1), in_quant: BitWidth::B32 },
            UnitWire { grid: GridSpec::new(2, 2), in_quant: BitWidth::B8 },
        ];
        let exec = murmuration_core::executor::Executor::new(4, std::sync::Arc::new(compute));
        let compute = ConvStackCompute::random(2, 1, 4, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let input = Tensor::rand_uniform(Shape::nchw(1, 4, 8, 8), 1.0, &mut rng);
        let (out, _) = exec.execute(&plan, &table, input.clone()).unwrap();
        let mut tracer = Tracer::new(false);
        let reference = reference(&compute, &plan, &table, &input, &mut tracer, 0, 0);
        bit_exact(&out, &reference).unwrap();
    }
}
