//! Distributed equivalence under the collective verifier: running the full
//! SCBA pipeline with `quatrex_check::CollectiveChecker` installed must (a)
//! pass every cross-rank invariant — identical collective sequences,
//! byte-matrix consistency, exactly-once handle completion — and (b) produce
//! **bit-identical** observables to the unchecked run, proving the checker
//! observes without perturbing.
//!
//! The factory installed by `install_collective_checker` is process-global,
//! so every test in this binary runs with it installed; the bit-equality
//! test takes its unchecked baseline before installing.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaSolver};

fn gw_config(n_energies: usize, iterations: usize) -> ScbaConfig {
    ScbaConfig {
        n_energies,
        max_iterations: iterations,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    }
}

/// The CI verification layout from the issue: 8 ranks as 4 energy groups ×
/// P_S = 2 spatial partitions, with B = 2 energy batches per transposition.
fn verified_layout() -> DistScbaConfig {
    DistScbaConfig::new(gw_config(16, 3), 8)
        .with_spatial_partitions(2)
        .with_energy_batches(2)
}

#[test]
fn checked_run_is_bit_identical_to_unchecked() {
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = verified_layout();

    let baseline = DistScbaSolver::new(device.clone(), config.clone()).run();

    quatrex_check::install_collective_checker();
    let checked = DistScbaSolver::new(device, config).run();
    quatrex_check::uninstall_collective_checker();

    // Bit-for-bit, not within-tolerance: the checker must be a pure observer.
    assert_eq!(baseline.iterations, checked.iterations);
    assert_eq!(baseline.residual_history, checked.residual_history);
    assert_eq!(
        baseline.observables.current.to_bits(),
        checked.observables.current.to_bits()
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&baseline.observables.electron_density),
        bits(&checked.observables.electron_density)
    );
    assert_eq!(
        bits(&baseline.observables.spectral.dos),
        bits(&checked.observables.spectral.dos)
    );
    assert_eq!(
        bits(&baseline.observables.spectral.current_spectrum),
        bits(&checked.observables.spectral.current_spectrum)
    );
    // The run really did communicate (and was therefore really verified).
    assert!(checked.report.measured_alltoall_bytes > 0);
}

#[test]
fn checked_run_verifies_uneven_batches() {
    // The least regular layout available: a batch count that does not
    // divide the per-rank energy count.
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = DistScbaConfig::new(gw_config(12, 3), 4)
        .with_spatial_partitions(2)
        .with_energy_batches(3);

    quatrex_check::install_collective_checker();
    let result = DistScbaSolver::new(device, config).run();
    quatrex_check::uninstall_collective_checker();

    assert!(result.observables.current.is_finite());
    assert!(result.report.measured_alltoall_bytes > 0);
}
