//! Cold-vs-warm convergence regression: the sweep engine's warm start must
//! change *how fast* the SCBA loop converges, never *where* it converges.
//!
//! The same short bias sweep runs twice — warm start off, then on — and the
//! suite pins (a) identical converged observables within the repo's ≤1e-10
//! equivalence band and (b) strictly fewer total SCBA iterations warm than
//! cold, with the measured ratio recorded (it is the same quantity the bench
//! gate envelopes in `BENCH_reference.json` via `SWEEP_report.json`).
//!
//! The memoizer is off and the tolerance tight (1e-12) so both runs converge
//! to the same fixed point to well below the comparison band: the memoizer's
//! 1e-7 OBC refinement tolerance would otherwise dominate the comparison.
//! Bias enters in flat-band mode (`with_potential_ramp(false)`) because the
//! toy device's SCBA iteration is only contractive without the ramp — the
//! test needs every point converged to 1e-12, not merely solved.
//!
//! The second test is the iteration budget of the sweep benchmark's ramp:
//! time to a converged sweep is seconds per iteration times iterations, and
//! the kernel-rate envelopes of the bench gate see only the first factor.

use quatrex_core::ScbaConfig;
use quatrex_device::{DeviceBuilder, DeviceCatalog};
use quatrex_serve::{SweepConfig, SweepEngine, SweepReport};

const BIASES: [f64; 3] = [0.0, 0.02, 0.04];

fn scba() -> ScbaConfig {
    ScbaConfig {
        n_energies: 8,
        max_iterations: 120,
        tolerance: 1e-12,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    }
}

fn run_sweep(warm: bool) -> SweepReport {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = SweepConfig::new(scba(), 2)
        .with_warm_start(warm)
        .with_potential_ramp(false);
    let mut engine = SweepEngine::new(device, config);
    engine.enqueue_bias_ramp(&BIASES);
    engine.run_all()
}

fn rel(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() / scale
}

#[test]
fn warm_start_converges_to_identical_observables_in_fewer_iterations() {
    let cold = run_sweep(false);
    let warm = run_sweep(true);
    assert_eq!(cold.points.len(), BIASES.len());
    assert_eq!(warm.points.len(), BIASES.len());

    // (a) identical converged observables, point for point, within the
    // repo's equivalence band.
    for (c, w) in cold.sorted_points().iter().zip(warm.sorted_points()) {
        assert_eq!(c.point.bias_v, w.point.bias_v);
        assert!(c.converged, "cold point at {} V converged", c.point.bias_v);
        assert!(w.converged, "warm point at {} V converged", w.point.bias_v);
        assert!(
            rel(c.current, w.current) <= 1e-10,
            "current diverged at {} V: cold {:e} vs warm {:e}",
            c.point.bias_v,
            c.current,
            w.current,
        );
        assert!(
            rel(c.electron_charge, w.electron_charge) <= 1e-10,
            "charge diverged at {} V: cold {:e} vs warm {:e}",
            c.point.bias_v,
            c.electron_charge,
            w.electron_charge,
        );
        assert!(
            rel(c.peak_spectral_current, w.peak_spectral_current) <= 1e-10,
            "spectral peak diverged at {} V",
            c.point.bias_v,
        );
    }

    // (b) strictly fewer total iterations warm than cold. The first point is
    // cold in both sweeps; every later warm point starts at its neighbor's
    // fixed point and skips the slow early contraction.
    let (cold_total, warm_total) = (cold.total_iterations(), warm.total_iterations());
    assert!(
        warm_total < cold_total,
        "warm sweep took {warm_total} total iterations, cold took {cold_total}",
    );
    let ratio = warm
        .iteration_ratio_vs(&cold)
        .expect("both sweeps non-empty");
    assert!(
        ratio < 1.0,
        "warm-start iteration ratio {ratio} must be < 1"
    );
    eprintln!(
        "warm-start iteration ratio: {warm_total}/{cold_total} = {ratio:.3} \
         (the quantity BENCH_reference.json envelopes)"
    );

    // The sweep-level accounting matches what actually happened.
    assert_eq!(cold.warm_points(), 0);
    assert_eq!(warm.warm_points(), BIASES.len() - 1);
    assert!(warm.bytes_restored() > 0);
    for p in &warm.points[1..] {
        assert!(p.warm_started);
        assert!(p.bytes_restored > 0);
        assert!(p.warm_source.is_some());
    }
}

/// Iterations the warm-started sweep of the benchmark's `sweep_iv` ramp may
/// take in total: 41 with the extrapolated step taken undamped, 51 with it
/// damped by `mixing` (a history of three pairs, `mixing::DEPTH`, both).
const RAMP_ITERATION_BUDGET: usize = 43;

#[test]
fn the_sweep_ramp_converges_within_its_iteration_budget() {
    // The `sweep_iv` workload without its seeded jitter: NR-16 reduced to
    // N_BS = 8, 12 energies, 2 ranks, flat-band bias 0 … 0.2 V in 25 mV
    // steps, converged to 1e-9 with the memoizer off.
    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), 426).build();
    let scba = ScbaConfig {
        n_energies: 12,
        max_iterations: 80,
        tolerance: 1e-9,
        mixing: 0.4,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    };
    let config = SweepConfig::new(scba, 2)
        .with_warm_start(true)
        .with_potential_ramp(false);
    let biases: Vec<f64> = (0..9).map(|i| 0.025 * i as f64).collect();
    let mut engine = SweepEngine::new(device, config);
    engine.enqueue_bias_ramp(&biases);
    let report = engine.run_all();

    let iterations: Vec<usize> = report
        .sorted_points()
        .iter()
        .map(|p| p.iterations)
        .collect();
    for p in report.sorted_points() {
        assert!(p.converged, "the point at {} V converged", p.point.bias_v);
    }
    let total = report.total_iterations();
    eprintln!("sweep ramp: {total} iterations (per point {iterations:?})");
    assert!(
        total <= RAMP_ITERATION_BUDGET,
        "the ramp took {total} iterations (per point {iterations:?})"
    );
}
