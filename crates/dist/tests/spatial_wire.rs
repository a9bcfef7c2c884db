//! Exact wire accounting of the spatial group solve. Every group message runs
//! between an energy's owner and another member and has a shape the partition
//! layout alone determines — block ranges and `nbd × nbd` block grids, no
//! headers, no indices — so the `spatial` entry of a run's byte split equals
//! a closed form of `(layout, energies per owner, N_BS)`: `==`, not a
//! tolerance.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaSolver, SpatialLayout, BYTES_PER_VALUE};
use quatrex_runtime::CommPhase;

/// Matrices of one per-energy system: `A`, `B^<`, `B^>`.
const N_MATRICES: usize = 3;

/// Stored blocks of an `n`-block block-tridiagonal quantity.
fn bt_blocks(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        3 * n - 2
    }
}

/// Bytes the ranks of one group ship in one group solve for the `n_energies`
/// energies spatial rank `owner` owns: every message runs between the owner
/// and each other member.
fn owner_solve_bytes(layout: &SpatialLayout, owner: usize, n_energies: usize) -> u64 {
    let p_s = layout.grid.spatial_partitions;
    let block_bytes = layout.block_size * layout.block_size * BYTES_PER_VALUE;
    let per_energy = |blocks: usize| (n_energies * N_MATRICES * blocks * block_bytes) as u64;
    let others = || {
        (layout.parts.iter().enumerate())
            .filter(move |&(p, _)| p != owner)
            .map(|(_, part)| part)
    };
    // Owner → member: blocks lo..=hi of every matrix (nothing for an empty
    // interior); member → owner: the same range of the selected solution.
    let ranges: u64 = others()
        .map(|part| per_energy(bt_blocks(part.range().len())))
        .sum();
    // Member → owner: one nbd × nbd update grid per matrix.
    let updates: u64 = others()
        .filter(|part| !part.range().is_empty())
        .map(|part| per_energy(part.n_separators().pow(2)))
        .sum();
    // Owner → every other member: the reduced selected solution,
    // 2·(P_S − 1) separator blocks.
    let reduced = (p_s - 1) as u64 * per_energy(bt_blocks(2 * (p_s - 1)));
    2 * ranges + updates + reduced
}

/// Runs `n_ranks` ranks as groups of `p_s` on `test_device(2, 2, n_blocks)`,
/// for 3 SCBA iterations or, with `ballistic`, for the one G step of a
/// ballistic run. Checks the `(iterations, full_iterations)` the run reports
/// against `expected_iterations`, and asserts the `spatial`
/// entry is exactly one layout-determined group solve per G step (every
/// iteration) and per W step (every full iteration).
fn assert_exact_accounting(
    n_ranks: usize,
    p_s: usize,
    n_blocks: usize,
    ballistic: bool,
    expected_iterations: (usize, usize),
) {
    let device = DeviceBuilder::test_device(2, 2, n_blocks).build();
    let scba = ScbaConfig {
        n_energies: 16,
        max_iterations: 3,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    let layout = SpatialLayout::new(n_ranks, p_s, n_blocks, device.transport_cell_size());
    let config = DistScbaConfig::new(scba, n_ranks).with_spatial_partitions(p_s);
    let solver = DistScbaSolver::new(device, config);
    let result = if ballistic {
        solver.ballistic()
    } else {
        solver.run()
    };
    let report = &result.report;
    let label = format!("({n_ranks} ranks, P_S = {p_s}, ballistic: {ballistic})");
    assert_eq!(
        (result.iterations, report.full_iterations),
        expected_iterations,
        "{label}"
    );

    let per_solve: u64 = (solver.plan().energy_ranges.iter().enumerate())
        .map(|(rank, owned)| owner_solve_bytes(&layout, layout.grid.spatial_of(rank), owned.len()))
        .sum();
    let solves = (result.iterations + report.full_iterations) as u64;
    let tagged = report
        .alltoall_bytes_per_phase
        .iter()
        .find(|(phase, _)| *phase == CommPhase::Spatial.label())
        .map(|&(_, bytes)| bytes);
    assert_eq!(tagged, Some(solves * per_solve), "{label}: spatial tag");
}

#[test]
fn two_partitions_ship_exactly_the_layout_determined_bytes() {
    // 2 energy groups × P_S = 2 on 8 blocks: 3-block interiors.
    assert_exact_accounting(4, 2, 8, false, (3, 3));
}

#[test]
fn three_partitions_ship_exactly_the_layout_determined_bytes() {
    // 2 energy groups × P_S = 3 on 6 blocks: the middle partition is all
    // separators, so as a member it receives nothing but the reduced
    // solutions — and as an owner it ships ranges to both its neighbours.
    assert_exact_accounting(6, 3, 6, false, (3, 3));
    // …and on 9 blocks every partition has an interior.
    assert_exact_accounting(6, 3, 9, false, (3, 3));
}

#[test]
fn a_ballistic_run_ships_one_g_solve_and_no_w_solve() {
    // No full iteration: the spatial entry is exactly the one G group solve,
    // so a W group solve whose result were discarded would show up here.
    assert_exact_accounting(2, 2, 6, true, (1, 0));
    assert_exact_accounting(3, 3, 6, true, (1, 0));
    assert_exact_accounting(4, 2, 8, true, (1, 0));
}
