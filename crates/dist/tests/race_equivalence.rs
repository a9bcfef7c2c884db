//! Race-detector equivalence on the full distributed grid: running the SCBA
//! pipeline with the happens-before detector enabled must (a) report **zero**
//! races on the unmutated tree — the acceptance grid is 4 energy groups ×
//! P_S = 2 spatial partitions with B = 2 batches, so every annotated path
//! (slab/wire buffers, handle completion, batch accumulators) is exercised —
//! and (b) produce
//! bit-identical observables to the detector-off baseline, proving the
//! instrumentation is a pure observer.

use quatrex_check::race;
use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaSolver};

/// Detector state is process-global; serialise the tests in this binary.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

#[test]
fn full_grid_is_race_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    // The acceptance layout: 8 ranks = 4 energy groups × 2 spatial
    // partitions, 2 batches per transposition — so the slab/wire,
    // handle-completion and batch-accumulator annotations all fire.
    let config = DistScbaConfig::new(gw_config(16, 3), 8)
        .with_spatial_partitions(2)
        .with_energy_batches(2);

    race::reset();
    race::enable();
    let traced = DistScbaSolver::new(device, config).run();
    race::disable();
    let reports = race::take_reports();
    race::reset();

    assert!(
        reports.is_empty(),
        "unmutated pipeline must be race-free, got {} report(s):\n{}",
        reports.len(),
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(traced.observables.current.is_finite());
    assert!(traced.report.measured_alltoall_bytes > 0);
}

#[test]
fn detector_is_a_pure_observer_bit_identical_observables() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    // Ownership is a constant of the run, so two runs are bit-comparable.
    let config = DistScbaConfig::new(gw_config(16, 3), 8)
        .with_spatial_partitions(2)
        .with_energy_batches(2);

    let baseline = DistScbaSolver::new(device.clone(), config.clone()).run();

    race::reset();
    race::enable();
    let traced = DistScbaSolver::new(device, config).run();
    race::disable();
    let reports = race::take_reports();
    race::reset();
    assert!(reports.is_empty(), "fixed-partition grid must be race-free");

    // Bit-for-bit: vector clocks ride alongside the data, never reorder it.
    assert_eq!(baseline.iterations, traced.iterations);
    assert_eq!(baseline.residual_history, traced.residual_history);
    assert_eq!(
        baseline.observables.current.to_bits(),
        traced.observables.current.to_bits()
    );
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&baseline.observables.electron_density),
        bits(&traced.observables.electron_density)
    );
    assert_eq!(
        bits(&baseline.observables.spectral.dos),
        bits(&traced.observables.spectral.dos)
    );
    assert_eq!(
        bits(&baseline.observables.spectral.current_spectrum),
        bits(&traced.observables.spectral.current_spectrum)
    );
    assert!(traced.report.measured_alltoall_bytes > 0);
}

#[test]
fn uneven_batches_under_detector_stay_race_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // The least regular layout: a batch count that does not divide the
    // per-rank energy count.
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = DistScbaConfig::new(gw_config(12, 3), 4)
        .with_spatial_partitions(2)
        .with_energy_batches(3);

    race::reset();
    race::enable();
    let result = DistScbaSolver::new(device, config).run();
    race::disable();
    let reports = race::take_reports();
    race::reset();

    assert!(
        reports.is_empty(),
        "got {} report(s):\n{}",
        reports.len(),
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(result.observables.current.is_finite());
}
