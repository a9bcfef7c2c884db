//! Schedule exploration over the distributed SCBA pipeline: a small but
//! complete configuration (2 energy groups × P_S = 2 spatial partitions,
//! B = 2 batches, 6 energies, no observer) is run under the loom-lite
//! scheduler and every explored interleaving must produce bit-identical
//! observables.
//!
//! The sampled-schedule count defaults small for local runs;
//! `QUATREX_SCHED_SCHEDULES` raises it in CI (the acceptance target is ≥500
//! distinct schedules).

use quatrex_check::{race, sched};
use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaResult, DistScbaSolver};
use sched::Explorer;

/// Detector/scheduler state is process-global; serialise the tests.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn small_layout() -> (quatrex_device::Device, DistScbaConfig) {
    let device = DeviceBuilder::test_device(2, 2, 4).build();
    let gw = ScbaConfig {
        n_energies: 6,
        max_iterations: 2,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    let config = DistScbaConfig::new(gw, 4)
        .with_spatial_partitions(2)
        .with_energy_batches(2);
    (device, config)
}

fn observable_bits(result: &DistScbaResult) -> Vec<u64> {
    let mut bits = vec![result.observables.current.to_bits()];
    bits.extend(
        result
            .observables
            .electron_density
            .iter()
            .map(|x| x.to_bits()),
    );
    bits.extend(result.observables.spectral.dos.iter().map(|x| x.to_bits()));
    bits
}

#[test]
fn random_schedules_produce_bit_identical_observables() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (device, config) = small_layout();
    let baseline = observable_bits(&DistScbaSolver::new(device.clone(), config.clone()).run());

    let schedules: usize = std::env::var("QUATREX_SCHED_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let explored = Explorer::random(0xab1e_5eed, schedules)
        .explore(|| {
            let got = observable_bits(&DistScbaSolver::new(device.clone(), config.clone()).run());
            assert_eq!(got, baseline, "schedule changed the observables");
        })
        .unwrap_or_else(|f| panic!("{f}"));

    assert_eq!(explored.schedules, schedules);
    // The pipeline has thousands of decision points per run: seeded sampling
    // should essentially never collide. Allow 5% slack so the assertion is
    // about coverage, not hash luck.
    assert!(
        explored.distinct * 20 >= explored.schedules * 19,
        "only {} distinct schedules out of {}",
        explored.distinct,
        explored.schedules
    );
}

#[test]
fn exhaustive_prefix_exploration_is_race_clean_and_bit_identical() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (device, config) = small_layout();
    let baseline = observable_bits(&DistScbaSolver::new(device.clone(), config.clone()).run());

    race::reset();
    race::enable();
    let explored = Explorer::exhaustive(8)
        .explore(|| {
            race::reset();
            let got = observable_bits(&DistScbaSolver::new(device.clone(), config.clone()).run());
            assert_eq!(got, baseline, "schedule changed the observables");
            assert_eq!(race::report_count(), 0, "schedule exposed a race");
        })
        .unwrap_or_else(|f| panic!("{f}"));
    race::disable();
    race::reset();

    assert!(
        explored.schedules >= 2,
        "DFS explored only one interleaving"
    );
    assert_eq!(explored.distinct, explored.schedules);
}
