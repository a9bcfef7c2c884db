//! Only converged, finite points seed a warm start, and a point's trajectory
//! survives the checkpoint: a sweep whose middle point stops at the iteration
//! cap (the engine resumed, for that one point, under a two-iteration
//! configuration) must warm-start the points around it from the next-nearest
//! converged neighbour, and say so in `warm_source`.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_serve::{SweepConfig, SweepEngine, SweepPoint};

fn config(max_iterations: usize) -> SweepConfig {
    let scba = ScbaConfig {
        n_energies: 8,
        max_iterations,
        tolerance: 1e-10,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    };
    SweepConfig::new(scba, 2).with_potential_ramp(false)
}

/// Checkpoint `engine` and resume it under `config`.
fn resumed_under(engine: &SweepEngine, config: SweepConfig, tag: &str) -> SweepEngine {
    let path = std::env::temp_dir().join(format!(
        "quatrex_warm_source_{tag}_{}.ckpt",
        std::process::id()
    ));
    engine.checkpoint_to(&path).expect("checkpoint written");
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let resumed = SweepEngine::resume_from(device, config, &path).expect("checkpoint readable");
    std::fs::remove_file(&path).ok();
    resumed
}

#[test]
fn a_capped_point_seeds_no_neighbour_and_trajectories_survive_the_checkpoint() {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let mut engine = SweepEngine::new(device, config(80));
    engine.enqueue(SweepPoint::bias(0.0));
    let first = engine.run_next().expect("point 0");
    assert!(first.converged && !first.warm_started);
    assert_eq!(first.residual_history.len(), first.iterations);
    assert_eq!(first.residual_history.last(), Some(&first.residual));

    // The middle point, capped at two iterations: warm-started from point 0,
    // it still cannot reach 1e-10.
    let mut engine = resumed_under(&engine, config(2), "capped");
    let carried = &engine.report().points[0];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&carried.residual_history),
        bits(&first.residual_history),
        "the trajectory survives the checkpoint"
    );
    assert!(!first.contraction_history.is_empty());
    assert_eq!(
        bits(&carried.contraction_history),
        bits(&first.contraction_history),
        "the contraction record survives the checkpoint"
    );
    assert_eq!(carried.mixing_restarts, first.mixing_restarts);
    engine.enqueue(SweepPoint::bias(0.04));
    let capped = engine.run_next().expect("point 1");
    assert_eq!(capped.warm_source, Some(0));
    assert!(!capped.converged, "two iterations do not reach 1e-10");
    assert_eq!(capped.iterations, 2);
    assert!(capped.contraction_history.is_empty(), "no pair completes");

    // Both neighbours are nearest to the capped point and skip it: 0.03 V
    // starts from point 0, 0.05 V from the 0.03 V point that then exists.
    let mut engine = resumed_under(&engine, config(80), "neighbours");
    engine.enqueue_bias_ramp(&[0.03, 0.05]);
    let report = engine.run_all();
    for (neighbour, source) in report.points[2..].iter().zip([0, 2]) {
        assert_eq!(
            neighbour.warm_source,
            Some(source),
            "{} V must skip the capped point at 0.04 V",
            neighbour.point.bias_v
        );
        assert!(neighbour.warm_started && neighbour.converged);
    }
}
