//! Tier-1 guard of the one kernel path: `cargo test -q` at the root runs none
//! of the `quatrex-core` / `quatrex-dist` suites, so this drives the step
//! functions through both drivers on the small test device — the sequential
//! solver at two chunk lengths (identical bits), and the distributed solver
//! on both of its step routes (`P_S = 1` step functions, `P_S = 2` and
//! `P_S = 3` spatial solves) against the sequential one, each spatial grid run
//! twice for identical bits.

use quatrex::prelude::*;

fn device() -> Device {
    DeviceBuilder::test_device(3, 2, 4).build()
}

/// Bias window deep in the band, so the current is a well-conditioned O(1e-2)
/// observable a 1e-10 relative comparison means something against; iterate to
/// the cap so the count cannot sit on a convergence knife edge.
fn config(kernel_batch: usize) -> ScbaConfig {
    ScbaConfig {
        n_energies: 8,
        max_iterations: 3,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        mu_left: 0.6,
        mu_right: -0.6,
        kernel_batch,
        ..ScbaConfig::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len());
    let scale = want.iter().fold(1e-30f64, |m, x| m.max(x.abs()));
    got.iter()
        .zip(want)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs() / scale))
}

fn assert_matches_sequential(label: &str, dist: &DistScbaResult, seq: &ScbaResult) {
    const TOL: f64 = 1e-10;
    assert_eq!(dist.iterations, seq.iterations, "{label}: iterations");
    let current_err =
        (dist.observables.current - seq.observables.current).abs() / seq.observables.current.abs();
    assert!(current_err < TOL, "{label}: current err {current_err:.2e}");
    for (what, got, want) in [
        (
            "density",
            &dist.observables.electron_density,
            &seq.observables.electron_density,
        ),
        (
            "DOS",
            &dist.observables.spectral.dos,
            &seq.observables.spectral.dos,
        ),
        (
            "current spectrum",
            &dist.observables.spectral.current_spectrum,
            &seq.observables.spectral.current_spectrum,
        ),
    ] {
        let err = max_rel_err(got, want);
        assert!(err < TOL, "{label}: {what} err {err:.2e}");
    }
}

#[test]
fn sequential_solver_is_bitwise_independent_of_the_chunk_length() {
    let one = ScbaSolver::new(device(), config(1)).run();
    let eight = ScbaSolver::new(device(), config(8)).run();
    assert_eq!(one.iterations, 3);
    assert_eq!(eight.iterations, one.iterations);
    assert_eq!(
        bits(&eight.residual_history),
        bits(&one.residual_history),
        "residual history"
    );
    assert_eq!(
        bits(&eight.current_history),
        bits(&one.current_history),
        "current history"
    );
    assert_eq!(
        bits(&eight.observables.electron_density),
        bits(&one.observables.electron_density),
        "density"
    );
    assert_eq!(
        bits(&eight.observables.spectral.dos),
        bits(&one.observables.spectral.dos),
        "DOS"
    );
    assert_eq!(eight.flops.total(), one.flops.total(), "FLOP total");
}

#[test]
fn distributed_step_routes_match_the_sequential_solver() {
    let seq = ScbaSolver::new(device(), config(8)).run();
    let energy_groups = DistScbaConfig::new(config(8), 2).with_energy_batches(2);
    let dist = DistScbaSolver::new(device(), energy_groups).run();
    assert_matches_sequential("2 groups x P_S=1, B=2", &dist, &seq);

    let spatial = DistScbaConfig::new(config(8), 2).with_spatial_partitions(2);
    let dist = DistScbaSolver::new(device(), spatial).run();
    assert_matches_sequential("1 group x P_S=2", &dist, &seq);

    // One convolution path: the whole grid arriving as one batch runs the
    // sequential drivers' arithmetic, bit for bit.
    let one_batch = DistScbaConfig::new(config(8), 2);
    let dist = DistScbaSolver::new(device(), one_batch).run();
    assert_eq!(
        dist.observables.current.to_bits(),
        seq.observables.current.to_bits(),
        "2 groups x P_S=1, B=1: current"
    );
    assert_eq!(
        bits(&dist.observables.electron_density),
        bits(&seq.observables.electron_density),
        "2 groups x P_S=1, B=1: density"
    );
}

#[test]
fn spatial_group_solves_match_the_sequential_solver_and_repeat_bit_for_bit() {
    // The cooperative route at both pinned grids: `P_S = 2` on the 4-block
    // wire (one interior block per partition) and `P_S = 3` on the 6-block
    // ribbon at 16 energies (the grid `crates/dist/tests/equivalence.rs`
    // pins; balanced layout, a pure-separator middle partition). Each within
    // 1e-10 of the sequential solver, and deterministic run to run: equal
    // bits in every observable and an equal FLOP total.
    let ribbon = || DeviceBuilder::test_device(2, 2, 6).build();
    let ribbon_config = ScbaConfig {
        n_energies: 16,
        ..config(8)
    };
    let grids: [(&str, fn() -> Device, ScbaConfig, usize); 2] = [
        ("1 group x P_S=2", device, config(8), 2),
        ("1 group x P_S=3", ribbon, ribbon_config, 3),
    ];
    for (label, build, scba, p_s) in grids {
        let seq = ScbaSolver::new(build(), scba.clone()).run();
        let run = || {
            let spatial = DistScbaConfig::new(scba.clone(), p_s).with_spatial_partitions(p_s);
            DistScbaSolver::new(build(), spatial).run()
        };
        let (first, second) = (run(), run());
        assert_matches_sequential(label, &first, &seq);
        assert_eq!(
            first.observables.current.to_bits(),
            second.observables.current.to_bits(),
            "{label}: current repeats"
        );
        for (what, a, b) in [
            (
                "density",
                &first.observables.electron_density,
                &second.observables.electron_density,
            ),
            (
                "DOS",
                &first.observables.spectral.dos,
                &second.observables.spectral.dos,
            ),
            (
                "residual history",
                &first.residual_history,
                &second.residual_history,
            ),
        ] {
            assert_eq!(bits(a), bits(b), "{label}: {what} repeats");
        }
        assert_eq!(
            first.flops.total(),
            second.flops.total(),
            "{label}: FLOP total repeats"
        );
    }
}

#[test]
fn distributed_kernel_batch_zero_is_a_batch_of_one() {
    // The chunk helper clamps once for both drivers: a zero chunk length must
    // terminate and be the batch of one, bit for bit.
    let run = |kernel_batch: usize| {
        DistScbaSolver::new(device(), DistScbaConfig::new(config(kernel_batch), 2)).run()
    };
    let (zero, one) = (run(0), run(1));
    assert_eq!(zero.iterations, one.iterations);
    assert_eq!(bits(&zero.residual_history), bits(&one.residual_history));
    assert_eq!(bits(&zero.current_history), bits(&one.current_history));
    assert_eq!(
        bits(&zero.observables.electron_density),
        bits(&one.observables.electron_density)
    );
    assert_eq!(zero.flops.total(), one.flops.total());
}
