//! The untraced timed pass: end-to-end metrics of one workload, measured in
//! a closed loop (one client; the next solve or sweep point starts when the
//! previous one returns) with every probe off. Timings are reported in
//! seconds at reference speed (see `calibrate.rs`): the raw seconds divided
//! by the machine slowdown measured around the timed operations.

use std::time::Instant;

use quatrex_core::ScbaSolver;
use quatrex_device::Device;
use quatrex_dist::DistScbaSolver;
use quatrex_serve::{PointReport, SweepEngine};

use crate::calibrate::Calibrator;
use crate::report::{Metric, Outcome};
use crate::trace::{highest_percentile, median, percentile};
use crate::workloads::{bias_ramp, rel_err, Kind, Observed, SplitMix64, Workload, EQUIVALENCE_TOL};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;
/// Units of work measured at least, however short `--seconds` is: the
/// exact-repeat gate needs two.
const MIN_UNITS: usize = 2;
/// Points of the sweep workload's bias ramp.
pub const SWEEP_POINTS: usize = 9;

/// One timed unit of work: a solve, or a whole sweep.
struct Unit {
    wall_s: f64,
    iterations: usize,
    flops: f64,
    /// Seconds per sweep point (one entry, `wall_s`, for a single solve).
    point_s: Vec<f64>,
    /// Operations attempted and failed in this unit (a solve or a sweep
    /// point is one operation).
    attempted: u64,
    failed: u64,
}

/// The machine slowdowns sampled around the timed operations of one run.
struct Speed {
    calibrator: Calibrator,
    seen: Vec<f64>,
}

impl Speed {
    fn new() -> Self {
        Self {
            calibrator: Calibrator::new(),
            seen: Vec::new(),
        }
    }

    /// Calibrate after an operation that took `operation_s`: once (0.12 s) per
    /// 0.8 s of the operation, at least once and at most eight times, so the
    /// run spends about an eighth of its time looking at the machine and long
    /// solves are not judged by one glance.
    fn sample(&mut self, operation_s: f64) {
        for _ in 0..((operation_s / 0.8).round() as usize).clamp(1, 8) {
            self.seen.push(self.calibrator.slowdown());
        }
    }

    /// Mean slowdown over the samples since the last call.
    fn mean_and_reset(&mut self) -> f64 {
        let mean = self.seen.iter().sum::<f64>() / self.seen.len() as f64;
        self.seen.clear();
        mean
    }
}

/// Median seconds (at reference speed: a calibration before and one after)
/// of `SETUP_REPEATS` runs of `setup`, and the last product.
///
/// Set-up is a millisecond of small allocations and copies, and its speed
/// depends on where the heap happens to put them: with an undisturbed heap
/// every repeat of a process lands on the same addresses, and otherwise
/// identical processes measured 0.72 ms or 1.06 ms. A randomly sized block
/// allocated (outside the timing) before each repeat moves the addresses, so
/// one run samples many layouts and its median stops depending on the draw.
fn time_setup<T>(seed: u64, speed: &mut Speed, mut setup: impl FnMut() -> T) -> (f64, T) {
    speed.sample(0.0);
    let mut rng = SplitMix64::new(seed ^ 0x0005_E70B);
    let mut padding: Vec<Vec<u8>> = Vec::with_capacity(SETUP_REPEATS);
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        padding.push(vec![1u8; 1 + (rng.next_u64() % (64 << 10)) as usize]);
        let t = Instant::now();
        let product = std::hint::black_box(setup());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(product);
    }
    std::hint::black_box(&padding);
    speed.sample(0.0);
    (
        median(&samples) / speed.mean_and_reset(),
        last.expect("SETUP_REPEATS > 0"),
    )
}

/// Run `unit` in a closed loop for `seconds`, at least [`MIN_UNITS`] times.
/// A calibration opens the loop; `unit` adds one after each operation it times.
fn measure(
    seconds: f64,
    speed: &mut Speed,
    mut unit: impl FnMut(usize, &mut Speed) -> Unit,
) -> Vec<Unit> {
    speed.sample(0.0);
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        units.push(unit(units.len(), speed));
    }
    units
}

/// The gates of one timed solve: finite, equal to the sequential `reference`
/// within `tol` where there is one, and a bit-for-bit repeat of the run's
/// first solve.
fn judge_solve(
    out: &mut Outcome,
    i: usize,
    got: &Observed,
    first: &mut Option<Observed>,
    reference: Option<(&Observed, f64)>,
) -> bool {
    let mut ok = out.check(got.is_finite(), || {
        format!("unit {i}: non-finite observables")
    });
    if let Some((reference, tol)) = reference {
        let dev = got.deviation_from(reference);
        ok &= out.check(dev <= tol && got.iterations == reference.iterations, || {
            format!("unit {i}: deviates from ScbaSolver::run by {dev:.2e} (> {tol:e})")
        });
    }
    let earlier = first.get_or_insert_with(|| got.clone());
    ok & out.check(got.repeats_exactly(earlier), || {
        format!("unit {i}: observables, iterations or FLOPs differ from unit 0")
    })
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let scba = w.scba(seed);
    let mut speed = Speed::new();
    let mut first: Option<Observed> = None;
    let (setup_s, units) = match w.kind {
        Kind::Sequential => {
            let (setup_s, solver) = time_setup(seed, &mut speed, || {
                ScbaSolver::new(w.builder().build(), scba.clone())
            });
            let units = measure(seconds, &mut speed, |i, speed| {
                let t = Instant::now();
                let result = solver.run();
                let wall_s = t.elapsed().as_secs_f64();
                speed.sample(wall_s);
                let got = Observed::of_sequential(&result);
                // The 1e-10 gate of this workload is the traced replay; the
                // timed pass pins that every repeat is the same computation.
                let ok = judge_solve(&mut out, i, &got, &mut first, None);
                Unit::solve(wall_s, &got, ok)
            });
            (setup_s, units)
        }
        Kind::DistEnergy | Kind::DistSpatial => {
            let dist = w.dist(scba.clone(), false);
            let (setup_s, solver) = time_setup(seed, &mut speed, || {
                let solver = DistScbaSolver::new(w.builder().build(), dist.clone());
                std::hint::black_box(solver.plan());
                solver
            });
            // Reference outside timing: the sequential solver on the same
            // device and configuration.
            let reference =
                Observed::of_sequential(&ScbaSolver::new(w.builder().build(), scba).run());
            let units = measure(seconds, &mut speed, |i, speed| {
                let t = Instant::now();
                let result = solver.run();
                let wall_s = t.elapsed().as_secs_f64();
                speed.sample(wall_s);
                let got =
                    Observed::new(&result.observables, result.flops.total(), result.iterations);
                let gate = Some((&reference, w.dist_tolerance()));
                let ok = judge_solve(&mut out, i, &got, &mut first, gate);
                Unit::solve(wall_s, &got, ok)
            });
            (setup_s, units)
        }
        Kind::Sweep => {
            let biases = bias_ramp(seed, SWEEP_POINTS);
            let config = w.sweep(seed, true, false);
            let (setup_s, device) = time_setup(seed, &mut speed, || {
                let device = w.builder().build();
                std::hint::black_box(SweepEngine::new(device.clone(), config.clone()));
                device
            });
            let reference = first_point_reference(&device, &config.scba, biases[0]);
            let flops_per_iteration = reference.flops as f64 / reference.iterations as f64;
            let mut first: Option<Vec<PointReport>> = None;
            let units = measure(seconds, &mut speed, |i, speed| {
                let mut engine = SweepEngine::new(device.clone(), config.clone());
                engine.enqueue_bias_ramp(&biases);
                let mut points = Vec::with_capacity(biases.len());
                let mut point_s = Vec::with_capacity(biases.len());
                loop {
                    let t = Instant::now();
                    let Some(point) = engine.run_next() else {
                        break;
                    };
                    point_s.push(t.elapsed().as_secs_f64());
                    speed.sample(point_s[points.len()]);
                    points.push(point);
                }
                // The sweep without the calibrations between its points.
                let wall_s: f64 = point_s.iter().sum();
                let mut failed = 0;
                for (k, p) in points.iter().enumerate() {
                    let mut ok = out.check(p.converged, || {
                        format!(
                            "sweep {i} point {k} ({:.4} V): not converged after {} iterations",
                            p.point.bias_v, p.iterations
                        )
                    });
                    ok &= out.check(
                        p.current.is_finite() && p.electron_charge.is_finite(),
                        || format!("sweep {i} point {k}: non-finite observables"),
                    );
                    let earlier = &first.get_or_insert_with(|| points.clone())[k];
                    ok &= out.check(
                        p.iterations == earlier.iterations
                            && p.current.to_bits() == earlier.current.to_bits(),
                        || {
                            format!(
                                "sweep {i} point {k}: iterations or current differ from sweep 0"
                            )
                        },
                    );
                    failed += u64::from(!ok);
                }
                // The cold first point must be the sequential solver's answer.
                let p0 = &points[0];
                let dev =
                    (p0.current - reference.current).abs() / reference.current_scale.max(1e-300);
                let dev = dev.max(rel_err(p0.electron_charge, reference.density.iter().sum()));
                if !out.check(dev <= EQUIVALENCE_TOL, || {
                    format!("sweep {i} point 0 deviates from ScbaSolver::run by {dev:.2e}")
                }) {
                    failed = failed.max(1);
                }
                let iterations: usize = points.iter().map(|p| p.iterations).sum();
                Unit {
                    wall_s,
                    iterations,
                    // PointReport carries no FLOP counter: the sweep's FLOPs
                    // are modelled as the cold sequential reference's FLOPs
                    // per iteration times the iterations the sweep performed.
                    flops: flops_per_iteration * iterations as f64,
                    point_s,
                    attempted: points.len() as u64,
                    failed,
                }
            });
            (setup_s, units)
        }
    };

    let iterations = units[0].iterations;
    out.check(units.iter().all(|u| u.iterations == iterations), || {
        "iterations differ between repeats".to_string()
    });
    out.attempted = units.iter().map(|u| u.attempted).sum();
    out.failed = units.iter().map(|u| u.failed).sum();

    // One slowdown for the run: phases of the machine last minutes, a run
    // half a minute, and a mean over every sample is its steadiest estimate.
    let slowdown = speed.mean_and_reset();
    println!("machine slowdown during the timed operations: {slowdown:.4} (1 = undisturbed reference box)");
    let timing = |name: &'static str, unit: &'static str, raw: Vec<f64>, per_second: bool| {
        let raw_median = median(&raw);
        let value = if per_second {
            raw_median * slowdown
        } else {
            raw_median / slowdown
        };
        let mut m = Metric::timing(name, value, unit, &raw);
        m.note = format!("raw median {raw_median:.6} {}", m.note);
        m
    };
    out.push(timing(
        "wall_s",
        "s",
        units.iter().map(|u| u.wall_s).collect(),
        false,
    ));
    out.push(timing(
        "iter_s",
        "s",
        units
            .iter()
            .map(|u| u.wall_s / u.iterations as f64)
            .collect(),
        false,
    ));
    out.push(timing(
        "gflops",
        "GFLOP/s",
        units.iter().map(|u| u.flops / u.wall_s / 1e9).collect(),
        true,
    ));
    let point_s: Vec<f64> = units
        .iter()
        .flat_map(|u| u.point_s.iter().copied())
        .collect();
    let tail = highest_percentile(point_s.len())
        .map(|p| format!(" raw p{p}={:.6}", percentile(&point_s, p)));
    let mut point = timing("point_s", "s", point_s, false);
    point.note.push_str(&tail.unwrap_or_default());
    out.push(point);
    out.push(Metric::exact("iterations", iterations as f64, "count"));
    out.push(Metric::exact("setup_s", setup_s, "s").with_note(format!("n={SETUP_REPEATS}")));
    out
}

impl Unit {
    fn solve(wall_s: f64, got: &Observed, ok: bool) -> Self {
        Self {
            wall_s,
            iterations: got.iterations,
            flops: got.flops as f64,
            point_s: vec![wall_s],
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

/// The sequential solver's converged answer for the sweep's first (cold)
/// point: same device, same grid, `mu_right = mu_left − bias` as the engine
/// sets it in flat-band mode.
pub fn first_point_reference(
    device: &Device,
    scba: &quatrex_core::ScbaConfig,
    bias_v: f64,
) -> Observed {
    let mut scba = scba.clone();
    scba.mu_right = scba.mu_left - bias_v;
    scba.temperature_k = quatrex_device::ROOM_TEMPERATURE_K;
    Observed::of_sequential(&ScbaSolver::new(device.clone(), scba).run())
}
