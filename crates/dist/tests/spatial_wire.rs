//! Exact wire accounting of the spatial group solve. Every group message runs
//! between an energy's owner and another member and has a shape the partition
//! layout alone determines — block ranges and `nbd × nbd` block grids, no
//! headers, no indices — so the measured boundary-system and
//! range-distribution bytes of a run equal a closed form of
//! `(layout, energies per owner, N_BS)`: `==`, not a tolerance.

use quatrex_core::ScbaConfig;
use quatrex_device::DeviceBuilder;
use quatrex_dist::{DistScbaConfig, DistScbaSolver, SpatialLayout, BYTES_PER_VALUE};

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

/// `(boundary bytes, range-distribution bytes)` the ranks of one group ship in
/// one group solve for the `n_energies` energies spatial rank `owner` owns:
/// every message runs between the owner and each other member.
fn owner_solve_bytes(layout: &SpatialLayout, owner: usize, n_energies: usize) -> (u64, u64) {
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
    (2 * ranges + updates + reduced, ranges)
}

fn assert_exact_accounting(n_ranks: usize, p_s: usize, n_blocks: usize) {
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
    let result = DistScbaSolver::new(device, config).run();
    let report = &result.report;
    assert_eq!(report.energies_per_rank.len(), n_ranks);
    assert_eq!((result.iterations, report.full_iterations), (3, 3));

    let per_solve = report
        .energies_per_rank
        .iter()
        .enumerate()
        .map(|(rank, &n)| owner_solve_bytes(&layout, layout.grid.spatial_of(rank), n))
        .fold((0, 0), |acc, b| (acc.0 + b.0, acc.1 + b.1));
    // One G solve per iteration, one W solve per full iteration.
    let label = format!("({n_ranks} ranks, P_S = {p_s})");
    for (phase, solves, boundary, ranges) in [
        (
            "G",
            result.iterations as u64,
            report.measured_boundary_bytes_g,
            report.measured_slice_bytes_g,
        ),
        (
            "W",
            report.full_iterations as u64,
            report.measured_boundary_bytes_w,
            report.measured_slice_bytes_w,
        ),
    ] {
        assert_eq!(boundary, solves * per_solve.0, "{label} {phase}: boundary");
        assert_eq!(ranges, solves * per_solve.1, "{label} {phase}: ranges");
    }
    // The distribution counter is the `slices` phase tag, byte for byte.
    let tagged = report
        .alltoall_bytes_per_phase
        .iter()
        .find(|(phase, _)| *phase == "slices")
        .map(|&(_, bytes)| bytes);
    assert_eq!(
        tagged,
        Some(report.measured_slice_bytes_g + report.measured_slice_bytes_w),
        "{label}: slices tag"
    );
}

#[test]
fn two_partitions_ship_exactly_the_layout_determined_bytes() {
    // 2 energy groups × P_S = 2 on 8 blocks: 3-block interiors.
    assert_exact_accounting(4, 2, 8);
}

#[test]
fn three_partitions_ship_exactly_the_layout_determined_bytes() {
    // 2 energy groups × P_S = 3 on 6 blocks: the middle partition is all
    // separators, so as a member it receives nothing but the reduced
    // solutions — and as an owner it ships ranges to both its neighbours.
    assert_exact_accounting(6, 3, 6);
    // …and on 9 blocks every partition has an interior.
    assert_exact_accounting(6, 3, 9);
}
