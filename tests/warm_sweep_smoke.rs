//! Tier-1 guard of the warm-started sweep: `cargo test -q` at the root runs
//! none of the `quatrex-serve` suites, so a kernel change whose rounding costs
//! the sweep its convergence would pass it unnoticed. A 3-point flat-band
//! ramp on the small device, cold and warm: every point converges, the warm
//! sweep needs no more iterations than the cold one, and the cold first point
//! is the sequential solver's answer.

use quatrex::prelude::*;

const BIASES: [f64; 3] = [0.0, 0.02, 0.04];

fn device() -> Device {
    DeviceBuilder::test_device(2, 2, 6).build()
}

/// Memoizer off: its 1e-7 OBC refinement tolerance would dominate the 1e-10
/// comparison against the sequential solver.
fn scba() -> ScbaConfig {
    ScbaConfig {
        n_energies: 8,
        max_iterations: 120,
        tolerance: 1e-11,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    }
}

/// Flat-band bias: the toy device's SCBA map is only contractive without the
/// potential ramp.
fn sweep(warm: bool) -> SweepReport {
    let config = SweepConfig::new(scba(), 2)
        .with_warm_start(warm)
        .with_potential_ramp(false);
    let mut engine = SweepEngine::new(device(), config);
    engine.enqueue_bias_ramp(&BIASES);
    engine.run_all()
}

#[test]
fn warm_sweep_converges_in_no_more_iterations_and_starts_at_the_sequential_answer() {
    let (cold, warm) = (sweep(false), sweep(true));
    for report in [&cold, &warm] {
        assert_eq!(report.points.len(), BIASES.len());
        for p in &report.points {
            assert!(
                p.converged,
                "point at {} V stopped at residual {:e} after {} iterations",
                p.point.bias_v, p.residual, p.iterations
            );
        }
    }
    assert!(
        warm.total_iterations() <= cold.total_iterations(),
        "warm sweep took {} iterations, cold {}",
        warm.total_iterations(),
        cold.total_iterations()
    );

    // Point 0 is cold in both sweeps: the engine's distributed solve of it
    // must be `ScbaSolver::run` at `mu_right = mu_left − bias`.
    let p0 = &cold.points[0];
    let mut config = scba();
    config.mu_right = config.mu_left - p0.point.bias_v;
    config.temperature_k = p0.point.temperature_k;
    let want = ScbaSolver::new(device(), config).run().observables;
    // Near equilibrium the current is a difference of large numbers: compare
    // it on the scale of the non-cancelled spectrum integral.
    let spectral = &want.spectral;
    let de = spectral.energies[1] - spectral.energies[0];
    let integral = spectral
        .current_spectrum
        .iter()
        .map(|x| x.abs())
        .sum::<f64>()
        * de
        / (2.0 * std::f64::consts::PI);
    let current_err = (p0.current - want.current).abs() / want.current.abs().max(integral);
    assert!(current_err <= 1e-10, "current off by {current_err:e}");
    let charge: f64 = want.electron_density.iter().sum();
    let charge_err = (p0.electron_charge - charge).abs() / charge.abs();
    assert!(charge_err <= 1e-10, "charge off by {charge_err:e}");
}
