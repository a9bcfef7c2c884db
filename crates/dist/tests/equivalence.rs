//! Distributed-vs-sequential equivalence: `DistScbaSolver` must reproduce the
//! single-process `ScbaSolver` observables at every rank count, and every
//! transposition must ship exactly the bytes its `TranspositionPlan` counts
//! (acceptance criteria of the subsystem).

use quatrex_core::mixing::ROW_LEN;
use quatrex_core::{ScbaConfig, ScbaResult, ScbaSolver};
use quatrex_device::{Device, DeviceBuilder};
use quatrex_dist::{DistScbaConfig, DistScbaResult, DistScbaSolver, BYTES_PER_VALUE};
use quatrex_runtime::CommPhase;

/// Relative tolerance of the equivalence checks.
const TOL: f64 = 1e-10;

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-30)
}

fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-30);
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs() / scale))
}

/// The catalogue of small test devices the equivalence is checked on.
fn devices() -> Vec<(&'static str, Device)> {
    vec![
        ("tiny-nanowire", DeviceBuilder::test_device(3, 2, 4).build()),
        ("narrow-ribbon", DeviceBuilder::test_device(2, 2, 6).build()),
    ]
}

fn gw_config(n_energies: usize, iterations: usize) -> ScbaConfig {
    ScbaConfig {
        n_energies,
        max_iterations: iterations,
        mixing: 0.4,
        // Keep iterating to the cap: the distributed residual differs from
        // the sequential one only at machine precision, but an exact-count
        // comparison must not sit on a convergence knife edge.
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    }
}

/// [`gw_config`] with a bias window deep in the band: at the default ±0.1 V
/// the toy devices carry a current of ~1e-14–1e-10 produced by a 4-orders
/// cancellation, so "1e-10 relative to the current" compares noise against
/// noise. The larger bias makes the current an O(1e-2) well-conditioned
/// observable the spatial-equivalence pins can be measured against.
fn biased_gw_config(n_energies: usize, iterations: usize) -> ScbaConfig {
    ScbaConfig {
        mu_left: 0.6,
        mu_right: -0.6,
        ..gw_config(n_energies, iterations)
    }
}

/// The bytes the run's communicator tallied under `phase`.
fn phase_bytes(dist: &DistScbaResult, phase: CommPhase) -> u64 {
    dist.report
        .alltoall_bytes_per_phase
        .iter()
        .find(|(name, _)| *name == phase.label())
        .map(|&(_, bytes)| bytes)
        .expect("every phase is reported")
}

/// Every transposition phase of the run shipped exactly its plan's count per
/// full iteration, and `measured_transposition_bytes` is their sum.
fn assert_planned_bytes(label: &str, solver: &DistScbaSolver, dist: &DistScbaResult) {
    let (plan, report) = (solver.plan(), &dist.report);
    let mut total = 0;
    for phase in [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
    ] {
        let measured = phase_bytes(dist, phase);
        let predicted = plan.transposition_bytes(phase) * report.full_iterations as u64;
        assert_eq!(measured, predicted, "{label}: {} bytes", phase.label());
        total += measured;
    }
    assert_eq!(report.measured_transposition_bytes, total, "{label}");
}

/// Off-rank bytes of the loop's ordered gathers: per full iteration every
/// rank sends its mix rows (`ROW_LEN` sums and the current spectrum per
/// owned energy) and its truncation maximum to every other rank, and the
/// run ends with one gather of the spectral data (current spectrum, then DOS
/// and `G^<` trace per block, per energy).
fn gathers_bytes(
    n_ranks: usize,
    full_iterations: usize,
    n_energies: usize,
    n_blocks: usize,
) -> u64 {
    let per_iteration = (ROW_LEN + 1) * n_energies + n_ranks;
    let values =
        (n_ranks - 1) * (full_iterations * per_iteration + (1 + 2 * n_blocks) * n_energies);
    (values * BYTES_PER_VALUE) as u64
}

fn assert_equivalent(label: &str, seq: &ScbaResult, dist: &DistScbaResult) {
    assert_eq!(seq.iterations, dist.iterations, "{label}: iteration counts");
    // The terminal current is an integral with near-perfect cancellation close
    // to equilibrium, so "relative to itself" is no scale at all; compare
    // against the absolute (non-cancelled) spectrum integral instead, at the
    // same 1e-10 tolerance.
    let energies = &seq.observables.spectral.energies;
    let de = if energies.len() > 1 {
        energies[1] - energies[0]
    } else {
        1.0
    };
    let abs_integral = seq
        .observables
        .spectral
        .current_spectrum
        .iter()
        .map(|x| x.abs())
        .sum::<f64>()
        * de
        / (2.0 * std::f64::consts::PI);
    let current_scale = seq.observables.current.abs().max(abs_integral).max(1e-30);
    assert!(
        (dist.observables.current - seq.observables.current).abs() / current_scale < TOL,
        "{label}: current {} vs {}",
        dist.observables.current,
        seq.observables.current,
    );
    let density_err = max_rel_err(
        &dist.observables.electron_density,
        &seq.observables.electron_density,
    );
    assert!(density_err < TOL, "{label}: density err {density_err}");
    let dos_err = max_rel_err(
        &dist.observables.spectral.dos,
        &seq.observables.spectral.dos,
    );
    assert!(dos_err < TOL, "{label}: DOS err {dos_err}");
    let spectrum_err = max_rel_err(
        &dist.observables.spectral.current_spectrum,
        &seq.observables.spectral.current_spectrum,
    );
    assert!(
        spectrum_err < TOL,
        "{label}: current spectrum err {spectrum_err}"
    );
    for (h_dist, h_seq) in dist
        .residual_history
        .iter()
        .zip(seq.residual_history.iter())
    {
        assert!(
            rel_err(*h_dist, *h_seq) < 1e-8,
            "{label}: residuals {h_dist} vs {h_seq}"
        );
    }
}

#[test]
fn distributed_gw_matches_sequential_on_the_device_catalog() {
    for (name, device) in devices() {
        let config = gw_config(16, 4);
        let seq = ScbaSolver::new(device.clone(), config.clone()).run();
        assert!(
            seq.iterations >= 2,
            "{name}: sequential reference must iterate"
        );
        for n_ranks in [1usize, 2, 4] {
            let dist =
                DistScbaSolver::new(device.clone(), DistScbaConfig::new(config.clone(), n_ranks))
                    .run();
            assert_equivalent(&format!("{name}/ranks={n_ranks}"), &seq, &dist);
        }
    }
}

#[test]
fn distributed_ballistic_matches_sequential() {
    for (name, device) in devices() {
        let config = gw_config(24, 1);
        let seq = ScbaSolver::new(device.clone(), config.clone()).ballistic();
        for n_ranks in [2usize, 4] {
            let dist =
                DistScbaSolver::new(device.clone(), DistScbaConfig::new(config.clone(), n_ranks))
                    .ballistic();
            assert_equivalent(&format!("{name}/ballistic/ranks={n_ranks}"), &seq, &dist);
            // No P/W/Σ phases ran: nothing was transposed.
            assert_eq!(dist.report.full_iterations, 0);
            assert_eq!(dist.report.measured_transposition_bytes, 0);
        }
    }
}

#[test]
fn canonical_wire_format_is_bit_identical_to_sequential() {
    // Only canonical elements of the lesser/greater quantities travel; the
    // mirrors rebuilt from X_ji = -X*_ij are the ones the sequential solver's
    // symmetrisation produces, so the distributed trajectory matches the
    // sequential one exactly (not just to TOL).
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(12, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist = DistScbaSolver::new(device, DistScbaConfig::new(config, 3)).run();
    assert_eq!(seq.iterations, dist.iterations);
    assert_eq!(dist.observables.current, seq.observables.current);
    assert_eq!(
        dist.observables.electron_density,
        seq.observables.electron_density
    );
    assert_eq!(
        dist.observables.spectral.current_spectrum,
        seq.observables.spectral.current_spectrum
    );
}

#[test]
#[should_panic(expected = "requires enforce_symmetry")]
fn unsymmetrised_physics_is_rejected_before_the_ranks_launch() {
    // The mirrors a receiver rebuilds are only right for symmetrised data.
    let config = ScbaConfig {
        enforce_symmetry: false,
        ..gw_config(4, 1)
    };
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let _ = DistScbaSolver::new(device, DistScbaConfig::new(config, 2)).plan();
}

#[test]
#[should_panic(expected = "at least one rank")]
fn zero_ranks_are_rejected_where_the_config_is_built() {
    // 0 is a multiple of every P_S: without its own check it reached
    // `partition_even` as a bare assertion.
    let _ = DistScbaConfig::new(gw_config(4, 1), 0);
}

#[test]
#[should_panic(expected = "at least one rank")]
fn zero_ranks_set_on_the_field_are_rejected_before_the_ranks_launch() {
    let mut config = DistScbaConfig::new(gw_config(4, 1), 2);
    config.n_ranks = 0;
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let _ = DistScbaSolver::new(device, config).plan();
}

#[test]
#[should_panic(expected = "at least one spatial partition")]
fn zero_spatial_partitions_are_rejected_where_the_config_is_built() {
    let _ = DistScbaConfig::new(gw_config(4, 1), 2).with_spatial_partitions(0);
}

#[test]
fn energy_decomposition_is_bit_identical_to_sequential_at_any_rank_count() {
    // At `P_S = 1` every per-energy kernel is the sequential driver's and
    // every sum over the grid — the update rule's rows, the current — is
    // taken in ascending energy order on every rank: residuals, currents,
    // observables and the Σ trajectory itself carry the sequential solver's
    // bits, whatever the rank count (3 ranks split 8 energies 3 + 3 + 2).
    // The sweep benchmark's device, where the accelerated rule is at work.
    let device = DeviceBuilder::from_params(&quatrex_device::DeviceCatalog::nr16(), 426).build();
    let config = ScbaConfig {
        n_energies: 8,
        max_iterations: 7,
        tolerance: 0.0,
        mixing: 0.4,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    assert_eq!(seq.iterations, 7);
    // Plain damping would stand at 0.6⁶ ≈ 5e-2 here.
    assert!(
        seq.residual_history[6] < 1e-2,
        "the history is in use: {:?}",
        seq.residual_history
    );
    let run = |n_ranks: usize| {
        let dist = DistScbaConfig::new(config.clone(), n_ranks).with_state_capture(true);
        DistScbaSolver::new(device.clone(), dist).run()
    };
    let one = run(1);
    let sigma_bits = |r: &DistScbaResult| -> Vec<u64> {
        let state = r.final_state.as_ref().expect("state capture was on");
        state
            .to_wire()
            .iter()
            .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
            .collect()
    };
    for dist in [&one, &run(2), &run(3)] {
        let label = format!("{} ranks", dist.report.n_ranks);
        assert_eq!(
            bits(&dist.residual_history),
            bits(&seq.residual_history),
            "{label}: residual history"
        );
        assert_eq!(
            bits(&dist.current_history),
            bits(&seq.current_history),
            "{label}: current history"
        );
        assert_eq!(
            bits(&dist.observables.electron_density),
            bits(&seq.observables.electron_density),
            "{label}: density"
        );
        assert_eq!(
            dist.mixing_restarts, seq.mixing_restarts,
            "{label}: restarts"
        );
        assert_eq!(sigma_bits(dist), sigma_bits(&one), "{label}: captured Σ");
    }
}

#[test]
fn every_transposition_ships_exactly_the_planned_bytes() {
    // Ownership is static, so every entry of the byte split is a closed
    // form: per transposition, the plan's count times the full iterations;
    // the gathers, the formula of `gathers_bytes`; nothing untagged — at
    // every rank count, spatial split and batch count. (The spatial entry's
    // layout-determined form is `tests/spatial_wire.rs`.)
    let mut grids = Vec::new();
    for n_ranks in [1usize, 2, 3, 4] {
        for p_s in [1usize, 2] {
            if n_ranks % p_s == 0 {
                grids.extend([1usize, 2, 5].map(|b| (n_ranks, p_s, b, 8)));
            }
        }
    }
    // More ranks than energies: a rank owns none and still transposes.
    grids.extend([(4, 1, 2, 3), (4, 2, 1, 3)]);
    for (name, device) in devices() {
        for &(n_ranks, p_s, b, n_energies) in &grids {
            let label =
                format!("{name}/(ranks, P_S, B, N_E)=({n_ranks}, {p_s}, {b}, {n_energies})");
            let config = DistScbaConfig::new(gw_config(n_energies, 2), n_ranks)
                .with_spatial_partitions(p_s)
                .with_energy_batches(b);
            let solver = DistScbaSolver::new(device.clone(), config);
            let dist = solver.run();
            assert!(
                dist.report.full_iterations >= 1,
                "{label}: no full iteration ran"
            );
            assert_planned_bytes(&label, &solver, &dist);
            if n_energies < n_ranks {
                let plan = solver.plan();
                assert!(plan.energy_ranges.iter().any(|r| r.is_empty()), "{label}");
            }
            let report = &dist.report;
            assert_eq!(
                phase_bytes(&dist, CommPhase::Gathers),
                gathers_bytes(n_ranks, report.full_iterations, n_energies, device.n_blocks),
                "{label}: gathers"
            );
            assert_eq!(phase_bytes(&dist, CommPhase::Other), 0, "{label}: other");
            assert_eq!(
                phase_bytes(&dist, CommPhase::Spatial) > 0,
                p_s > 1,
                "{label}: spatial"
            );
            let split: u64 = report
                .alltoall_bytes_per_phase
                .iter()
                .map(|&(_, b)| b)
                .sum();
            assert_eq!(split, report.measured_alltoall_bytes, "{label}: split");
            assert_eq!(
                report.measured_bytes_per_rank_per_iteration() > 0,
                n_ranks > 1,
                "{label}"
            );
        }
    }
}

#[test]
fn spatial_partitions_reproduce_sequential_observables() {
    // The acceptance case of the two-level decomposition: 4 ranks arranged as
    // 2 energy groups x P_S = 2 spatial partitions must reproduce the
    // sequential observables to <= 1e-10 relative.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(16, 4);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    assert!(seq.iterations >= 2, "sequential reference must iterate");
    let dist_config = DistScbaConfig::new(config, 4).with_spatial_partitions(2);
    let solver = DistScbaSolver::new(device, dist_config);
    let dist = solver.run();
    assert_equivalent("spatial/(n_ranks, P_S)=(4, 2)", &seq, &dist);
    // The report exposes the grid and the boundary-system traffic.
    assert_eq!(dist.report.n_ranks, 4);
    assert_eq!(dist.report.energy_groups, 2);
    assert_eq!(dist.report.spatial_partitions, 2);
    // Every flat rank owns energies, and together they own the grid.
    let owned: Vec<usize> = solver
        .plan()
        .energy_ranges
        .iter()
        .map(|r| r.len())
        .collect();
    assert_eq!(owned, vec![4; 4]);
    assert!(phase_bytes(&dist, CommPhase::Spatial) > 0);
    // The plan sees the flat ranks: all four transpose.
    assert_planned_bytes("spatial/(4, 2)", &solver, &dist);
}

#[test]
fn three_spatial_partitions_reproduce_sequential_observables() {
    // The second pinned grid: 6 ranks as 2 energy groups x P_S = 3 on the
    // 6-block ribbon.
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = biased_gw_config(16, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    assert!(seq.iterations >= 2, "sequential reference must iterate");
    let dist_config = DistScbaConfig::new(config, 6).with_spatial_partitions(3);
    let dist = DistScbaSolver::new(device, dist_config).run();
    assert_equivalent("spatial/(n_ranks, P_S)=(6, 3)", &seq, &dist);
    assert_eq!(dist.report.energy_groups, 2);
    assert_eq!(dist.report.spatial_partitions, 3);
}

#[test]
fn balanced_partitions_reproduce_sequential_observables() {
    // FLOP-balanced uneven partitions compose with everything else: the
    // layout changes, the observables must not. The 8-block device at
    // P_S = 3 genuinely moves a block between partitions.
    let device = DeviceBuilder::test_device(2, 2, 8).build();
    let config = biased_gw_config(12, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist_config = DistScbaConfig::new(config, 3).with_spatial_partitions(3);
    let dist = DistScbaSolver::new(device, dist_config).run();
    assert_equivalent("balanced/(n_ranks, P_S)=(3, 3)", &seq, &dist);
    assert!(dist.report.balanced_partitions);
    assert!(phase_bytes(&dist, CommPhase::Spatial) > 0);
}

#[test]
fn empty_energy_groups_are_handled() {
    // Regression for the empty-group edge: more energy groups than energy
    // points (8 ranks = 4 groups x P_S = 2 over only 3 energies) leaves the
    // trailing group with no energies, yet its spatial ranks still join every
    // per-iteration collective.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(3, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist_config = DistScbaConfig::new(config, 8).with_spatial_partitions(2);
    let solver = DistScbaSolver::new(device, dist_config);
    let dist = solver.run();
    assert_equivalent("empty-group/(n_ranks, P_S)=(8, 2)", &seq, &dist);
    assert_eq!(dist.report.energy_groups, 4);
    let plan = solver.plan();
    assert!(
        plan.energy_ranges.iter().any(|r| r.is_empty()),
        "the configuration must actually produce an empty group: {:?}",
        plan.energy_ranges
    );
}

#[test]
fn pure_spatial_decomposition_reproduces_sequential_observables() {
    // A single energy group whose two ranks share every energy point: the
    // second decomposition level alone, no energy parallelism.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(12, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist_config = DistScbaConfig::new(config, 2).with_spatial_partitions(2);
    let solver = DistScbaSolver::new(device, dist_config);
    let dist = solver.run();
    assert_equivalent("spatial/(n_ranks, P_S)=(2, 2)", &seq, &dist);
    assert_eq!(dist.report.energy_groups, 1);
    // One group, two owners: the transpositions cross the two ranks like any
    // 2-rank run's, exactly as the flat-rank plan counts…
    assert!(dist.report.measured_transposition_bytes > 0);
    assert_planned_bytes("spatial/(2, 2)", &solver, &dist);
    // …and no rank carries the traffic alone.
    assert!(
        dist.report.measured_max_bytes_per_rank as f64
            <= 0.6 * dist.report.measured_alltoall_bytes as f64,
        "busiest rank sent {} of {} bytes",
        dist.report.measured_max_bytes_per_rank,
        dist.report.measured_alltoall_bytes
    );
    assert!(phase_bytes(&dist, CommPhase::Spatial) > 0);
}

#[test]
fn captured_state_covers_the_grid_once_and_warm_starts_the_same_grid() {
    // Every rank of the (4, 2) grid owns energies, so every rank contributes
    // to the captured state: the Σ matrices tile the grid exactly once (the
    // capture panics on a gap or a duplicate) and every energy's OBC cache
    // entries come along from its owner's memoizer.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let grid = |config: ScbaConfig| {
        DistScbaConfig::new(config, 4)
            .with_spatial_partitions(2)
            .with_state_capture(true)
    };
    let solver = DistScbaSolver::new(device, grid(gw_config(16, 2)));
    let owned: Vec<usize> = solver
        .plan()
        .energy_ranges
        .iter()
        .map(|r| r.len())
        .collect();
    assert_eq!(owned, vec![4; 4]);
    let cold = solver.run();
    assert_eq!(cold.iterations, 2);
    let state = cold.final_state.as_ref().expect("state capture was on");
    assert_eq!(state.n_energies, 16);
    for sigma in [
        &state.sigma_lesser,
        &state.sigma_greater,
        &state.sigma_retarded,
    ] {
        assert_eq!(sigma.len(), 16);
        assert!(sigma.iter().all(|s| s.norm_fro() > 0.0), "Σ of every owner");
    }
    let cached: std::collections::BTreeSet<usize> =
        state.obc.iter().map(|(key, _)| key.energy_index).collect();
    assert!(cached.into_iter().eq(0..16), "OBC entries of every energy");

    // What the sweep engine relies on (crates/serve/tests/convergence.rs): a
    // run warm-started on the same grid from a converged captured state
    // converges in fewer iterations to the same observables. The loop state
    // is Σ *and* the update rule's history, which starts empty on a warm
    // start, so the warm run is a new trajectory to the same fixed point, not
    // a continuation of the cold one. Flat-band ribbon, memoizer off: the
    // contractive configuration of the serve suites.
    let ribbon = DeviceBuilder::test_device(2, 2, 6).build();
    let to_convergence = ScbaConfig {
        n_energies: 8,
        max_iterations: 200,
        tolerance: 1e-12,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    };
    let solver = DistScbaSolver::new(ribbon, grid(to_convergence));
    let cold = solver.run();
    assert!(cold.converged, "residuals {:?}", cold.residual_history);
    let state = cold.final_state.as_ref().expect("state capture was on");
    let warm = solver.run_warm(Some(state));
    assert!(warm.converged);
    assert!(
        warm.iterations < cold.iterations,
        "warm {} vs cold {} iterations",
        warm.iterations,
        cold.iterations
    );
    assert!(
        rel_err(warm.observables.current, cold.observables.current) < TOL,
        "current {} vs {}",
        warm.observables.current,
        cold.observables.current
    );
    let density_err = max_rel_err(
        &warm.observables.electron_density,
        &cold.observables.electron_density,
    );
    assert!(density_err < TOL, "density err {density_err}");
    // …and the warm run captures a full state again.
    assert_eq!(warm.final_state.expect("capture").n_energies, 8);
}

#[test]
fn spatial_ballistic_matches_sequential() {
    let device = DeviceBuilder::test_device(2, 2, 6).build();
    let config = gw_config(12, 1);
    let seq = ScbaSolver::new(device.clone(), config.clone()).ballistic();
    for p_s in [2usize, 3] {
        let dist_config = DistScbaConfig::new(config.clone(), p_s).with_spatial_partitions(p_s);
        let dist = DistScbaSolver::new(device.clone(), dist_config).ballistic();
        assert_equivalent(&format!("spatial/ballistic/P_S={p_s}"), &seq, &dist);
        // Ballistic runs ship the spatial boundary systems of the G step and
        // run no W step: no full iteration. `tests/spatial_wire.rs` pins the
        // spatial entry of a ballistic run to exactly one G group solve.
        assert_eq!((dist.iterations, dist.report.full_iterations), (1, 0));
        assert!(phase_bytes(&dist, CommPhase::Spatial) > 0);
    }
}

#[test]
fn energy_batched_transpositions_reproduce_sequential_observables() {
    // Tentpole acceptance: the double-buffered, energy-batched transposition
    // pipeline must reproduce the sequential observables at B ∈ {1, 2, 5}.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(16, 4);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    assert!(seq.iterations >= 2, "sequential reference must iterate");
    for b in [1usize, 2, 5] {
        let dist_config = DistScbaConfig::new(config.clone(), 4).with_energy_batches(b);
        let solver = DistScbaSolver::new(device.clone(), dist_config);
        let dist = solver.run();
        assert_equivalent(&format!("batched/B={b}"), &seq, &dist);
        assert_eq!(dist.report.batch_count, b);
        assert!(dist.report.peak_slab_bytes > 0);
        // Batching repartitions the same values over more messages: every
        // phase still ships exactly the plan's count.
        assert_planned_bytes(&format!("batched/B={b}"), &solver, &dist);
    }
}

#[test]
fn single_batch_is_bit_identical_to_sequential() {
    // The pre-batch path is pinned through the sequential solver: B = 1 must
    // stay *bit-exact*, proving the pipeline machinery degenerates to the
    // original arithmetic.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(12, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist_config = DistScbaConfig::new(config, 3).with_energy_batches(1);
    let dist = DistScbaSolver::new(device, dist_config).run();
    assert_eq!(dist.observables.current, seq.observables.current);
    assert_eq!(
        dist.observables.electron_density,
        seq.observables.electron_density
    );
    assert_eq!(
        dist.observables.spectral.current_spectrum,
        seq.observables.spectral.current_spectrum
    );
}

#[test]
fn energy_batches_compose_with_spatial_partitions() {
    // The batched pipeline composed with P_S = 2 must still reproduce the
    // sequential observables.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(16, 4);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    for b in [2usize, 5] {
        let dist_config = DistScbaConfig::new(config.clone(), 4)
            .with_spatial_partitions(2)
            .with_energy_batches(b);
        let dist = DistScbaSolver::new(device.clone(), dist_config).run();
        assert_equivalent(&format!("batched/(4, 2)/B={b}"), &seq, &dist);
    }
}

#[test]
fn more_batches_than_energies_per_group_degenerates_gracefully() {
    // B > n_energies_per_group leaves surplus batches empty: the degenerate
    // collectives must ship nothing and change nothing. 4 groups over 8
    // energies own ≤ 2 energies each; B = 7 is far past that.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(8, 3);
    let seq = ScbaSolver::new(device.clone(), config.clone()).run();
    let dist_config = DistScbaConfig::new(config, 4).with_energy_batches(7);
    let dist = DistScbaSolver::new(device, dist_config).run();
    assert_equivalent("degenerate/B=7>n_e_per_group=2", &seq, &dist);
    assert_eq!(dist.report.batch_count, 7);
}

#[test]
fn peak_slab_bytes_shrinks_monotonically_with_the_batch_count() {
    // The measured memory win of the batching (acceptance criterion): the
    // peak in-flight transposition buffer must shrink monotonically with B
    // on the bench device — roughly B/2-fold while the batches stay
    // non-degenerate (double buffering keeps ~2 batches in flight). The byte
    // accounting is deterministic, so strict comparisons are safe.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = gw_config(16, 3);
    let mut peaks = Vec::new();
    for b in [1usize, 2, 4, 8] {
        let dist_config = DistScbaConfig::new(config.clone(), 4).with_energy_batches(b);
        let dist = DistScbaSolver::new(device.clone(), dist_config).run();
        assert!(dist.report.full_iterations >= 2);
        peaks.push((b, dist.report.peak_slab_bytes));
    }
    for pair in peaks.windows(2) {
        let ((b0, p0), (b1, p1)) = (pair[0], pair[1]);
        // Strictly smaller while the batches are non-degenerate (each group
        // owns 4 energies here, so B = 8 saturates at the B = 4 schedule);
        // never larger in any case.
        if b1 <= 4 {
            assert!(
                p1 < p0,
                "peak must shrink: B={b0} -> {p0} bytes, B={b1} -> {p1} bytes"
            );
        } else {
            assert!(
                p1 <= p0,
                "degenerate B={b1} must not grow the peak: {p0} -> {p1} bytes"
            );
        }
    }
    // Double buffering keeps ~2 batches in flight, so the drop from B=1 to
    // B=4 must be at least ~2x (it is ~B/2 in the even-split regime).
    let p1 = peaks[0].1 as f64;
    let p4 = peaks[2].1 as f64;
    assert!(
        p4 * 2.0 <= p1,
        "B=4 peak {p4} not at least 2x below B=1 peak {p1}"
    );
}

#[test]
fn memoizer_works_across_ranks() {
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let dist = DistScbaSolver::new(device, DistScbaConfig::new(gw_config(8, 3), 2)).run();
    assert!(dist.iterations >= 2);
    assert!(
        dist.memoizer_hit_rate > 0.2,
        "hit rate {}",
        dist.memoizer_hit_rate
    );
}
