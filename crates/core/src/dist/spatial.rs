//! The second decomposition level: `P_S` spatial ranks sharing one energy
//! point (paper Section 5.4).
//!
//! [`RankGrid`] arranges the flat `ThreadComm` ranks as a two-level grid of
//! `n_energy_groups × P_S`:
//! rank `g·P_S + s` is spatial rank `s` of energy group `g` and holds
//! partition `s` of every system its group solves. There is no distinguished
//! member: every rank owns energies (`TranspositionPlan::energy_ranges`),
//! assembles and finishes them itself, and the group's energies are the union
//! of its members'.
//!
//! `spatial_phase_solve` is the *group solve* — stage 2 of a step, between
//! `quatrex_core`'s per-energy assemble and finish stages. In a one-member
//! group it **is** the local batched solve (`crate::scba::solve_stage`
//! against the rank's scratch); otherwise it executes the per-energy selected
//! solves of one phase (`G` or `W`) cooperatively, every message keyed by the
//! **owner of the energy** and of a shape the layout and the members' energy
//! counts alone determine — block ranges and block grids, no headers, no
//! indices:
//!
//! 1. every member ships member `p` **partition `p`'s block range** of the
//!    systems it assembled (blocks `lo..=hi` of `A`, `B^<`, `B^>` as
//!    `push_bt_range` streams, `~1/P_S` of the full system instead of the
//!    pre-slice full broadcast), posted non-blocking: it eliminates its own
//!    energies while the others' ranges fly;
//! 2. every member eliminates its partition for **all** the group's energies
//!    — its own from the systems it assembled
//!    ([`quatrex_rgf::eliminate_partition_into`]), the others' from the
//!    ranges it received ([`quatrex_rgf::eliminate_loaded`]) —
//!    energy-batched against the rank's warm [`RgfBatchScratch`], cut into
//!    `kernel_batch` chunks like the local solves; an end partition's
//!    elimination is the forward RGF sweep over its range, stopped before its
//!    separator's inversion;
//! 3. each energy's `nbd × nbd` Schur and quadratic right-hand-side update
//!    grids go to **that energy's owner**, who assembles the reduced boundary
//!    systems of its energies and solves them batched on its own scratch
//!    ([`quatrex_rgf::solve_systems_into`]) — `P_S` reduced solves run side
//!    by side;
//! 4. the owner sends the reduced selected solutions to the other members,
//!    every member recovers its range of every energy per kernel chunk
//!    ([`quatrex_rgf::recover_partition_into`]: an end partition's is the
//!    backward RGF sweep seeded at its separator) and returns it to the
//!    owner, who copies the ranges into place
//!    ([`quatrex_rgf::assemble_solution_into`], the tail it shares with the
//!    single-process driver of `quatrex-rgf`).
//!
//! All group traffic rides the same byte-accounted `Alltoallv` as the
//! transpositions (out-of-group destinations receive empty messages), every
//! exchange tagged [`CommPhase::Spatial`], so the communicator's entry for
//! that tag is the group solves' whole volume.

use std::ops::Range;

use crate::assembly::GAssembly;
use crate::scba::{kernel_chunks, solve_accounting, solve_stage};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::Subsystem;
use quatrex_rgf::{
    assemble_reduced_system_into, assemble_solution_into, eliminate_loaded,
    eliminate_partition_into, partition_layout_balanced, recover_partition_into, separator_blocks,
    solve_systems_into, PartitionSolveState, RgfBatchScratch, SelectedSolution, SpatialPartition,
    Systems,
};
use quatrex_runtime::{CommPhase, RankContext};
use quatrex_sparse::BlockTridiagonal;

use crate::dist::pipeline::MessagePool;
use crate::dist::slab::{
    push_bt, push_bt_range, push_matrix, read_bt_into, read_matrix_into, BYTES_PER_VALUE,
};

/// Number of lesser/greater right-hand sides of every per-energy solve
/// (`X^<` and `X^>`).
const N_RHS: usize = 2;

/// Two-level arrangement of the communicator ranks:
/// `n_groups × spatial_partitions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankGrid {
    /// Number of energy groups (the first decomposition level).
    pub n_groups: usize,
    /// Spatial partitions per energy group (`P_S`, the second level).
    pub spatial_partitions: usize,
}

impl RankGrid {
    /// Factor `n_ranks` into `n_ranks / spatial_partitions` energy groups of
    /// `spatial_partitions` ranks each. Panics when the factorisation does
    /// not work out.
    pub(crate) fn new(n_ranks: usize, spatial_partitions: usize) -> Self {
        assert!(spatial_partitions >= 1, "P_S must be at least 1");
        assert!(
            n_ranks >= spatial_partitions && n_ranks.is_multiple_of(spatial_partitions),
            "rank count {n_ranks} must factor into energy groups x {spatial_partitions} spatial partitions",
        );
        Self {
            n_groups: n_ranks / spatial_partitions,
            spatial_partitions,
        }
    }

    /// Total number of ranks.
    pub(crate) fn n_ranks(&self) -> usize {
        self.n_groups * self.spatial_partitions
    }

    /// Energy group of a flat rank.
    pub(crate) fn group_of(&self, rank: usize) -> usize {
        rank / self.spatial_partitions
    }

    /// Spatial index of a flat rank within its group.
    pub fn spatial_of(&self, rank: usize) -> usize {
        rank % self.spatial_partitions
    }

    /// The flat ranks of a group, in spatial order.
    pub(crate) fn members_of(&self, group: usize) -> Range<usize> {
        group * self.spatial_partitions..(group + 1) * self.spatial_partitions
    }
}

/// The spatial side of a run, fixed for its whole duration and shared by
/// every rank: the rank grid and the partition layout of the transport
/// blocks.
#[derive(Debug, Clone)]
pub struct SpatialLayout {
    /// The `n_groups × P_S` arrangement of the ranks.
    pub grid: RankGrid,
    /// One partition per spatial rank; empty at `P_S = 1`.
    pub parts: Vec<SpatialPartition>,
    /// The partitions' separator blocks, ascending
    /// (`quatrex_rgf::separator_blocks`).
    pub separators: Vec<usize>,
    /// Transport blocks of every per-energy system (`N_B`).
    pub n_blocks: usize,
    /// Transport-cell block size.
    pub block_size: usize,
}

impl SpatialLayout {
    /// Lay `n_blocks` transport blocks out over `p_s` spatial partitions per
    /// energy group: for every `P_S ≥ 2` the FLOP-balanced layout
    /// (`quatrex_rgf::partition_layout_balanced`: the least busy busiest
    /// partition of any whole-block layout, paper Section 5.4), computed from
    /// the partition kernels' shape-only FLOP counters (scalar blocks:
    /// under a millisecond, whatever `block_size`) so every rank derives the
    /// identical layout. At `P_S = 2` it is the uniform split. Panics when
    /// the device has fewer than `2·P_S` blocks.
    pub fn new(n_ranks: usize, p_s: usize, n_blocks: usize, block_size: usize) -> Self {
        let grid = RankGrid::new(n_ranks, p_s);
        let parts = match p_s {
            1 => Ok(Vec::new()),
            _ => partition_layout_balanced(n_blocks, p_s, N_RHS),
        }
        // lint:allow(no-unwrap): the block count was validated against P_S before the layout is built
        .expect("spatial partition layout rejected (too few blocks for P_S)");
        Self {
            grid,
            separators: separator_blocks(&parts),
            parts,
            n_blocks,
            block_size,
        }
    }

    /// Whether the balanced layout had a middle partition to balance
    /// against (`P_S ≥ 3`); at `P_S = 2` it is the uniform split.
    pub(crate) fn balanced(&self) -> bool {
        self.grid.spatial_partitions > 2
    }
}

// ---------------------------------------------------------------------------
// Wire format of the group-level payloads: complex128 streams like the
// transposition messages, built from `push_bt` / `push_matrix` alone — every
// length follows from the layout and the members' energy counts.

fn push_selected(buf: &mut Vec<c64>, sol: &SelectedSolution) {
    push_bt(buf, &sol.retarded);
    for l in &sol.lesser {
        push_bt(buf, l);
    }
}

/// Read a selected solution of `N_RHS` right-hand sides over `nb` blocks of
/// `bs` written by [`push_selected`] into `sol`.
fn read_selected_into<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    sol: &mut SelectedSolution,
    nb: usize,
    bs: usize,
) {
    sol.fit(nb, bs, N_RHS);
    sol.flops = 0;
    read_bt_into(it, &mut sol.retarded, nb, bs);
    for l in &mut sol.lesser {
        read_bt_into(it, l, nb, bs);
    }
}

/// Blocks of the update grids one partition sends up per energy: `nbd × nbd`
/// per matrix of the system — nothing from an empty interior.
fn update_blocks(part: &SpatialPartition) -> usize {
    if part.range().is_empty() {
        0
    } else {
        (1 + N_RHS) * part.n_separators().pow(2)
    }
}

/// The kept buffers of a rank's group solves: the RGF scratch of every solve,
/// and for a cooperative solve (`P_S ≥ 2`) the elimination states (the other
/// members' block ranges are read straight into them), reduced systems and
/// solutions, and recovered ranges of the group's energies and the wire
/// buffers they are read into. Sized by the first solve, rewritten
/// in place by every later one.
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// The RGF scratch of every solve, local or cooperative (there: the
    /// partition interiors of the group's energies and the reduced systems
    /// of the rank's own): the shapes repeat every iteration, so the staged
    /// operand batches and the batch arena stay warm.
    pub rgf: RgfBatchScratch,
    /// Elimination states of the group's energies, in member order.
    states: Vec<PartitionSolveState>,
    /// Per partition: the update grid of the energy at hand.
    updates: Vec<Vec<CMatrix>>,
    /// The reduced systems of this rank's energies.
    reduced_systems: Vec<[BlockTridiagonal; 1 + N_RHS]>,
    /// The reduced solutions and this partition's recovered ranges of the
    /// group's energies, in member order.
    reduced: Vec<SelectedSolution>,
    recovered: Vec<SelectedSolution>,
    /// Per partition: the recovered range of the energy at hand.
    part_ranges: Vec<SelectedSolution>,
    /// Per member: how far its message has been read.
    cursors: Vec<usize>,
}

/// Read from `msg` at `*at` with `read`, and advance `*at` past what it
/// consumed.
fn read_at<'m>(msg: &'m [c64], at: &mut usize, read: impl FnOnce(&mut std::slice::Iter<'m, c64>)) {
    let mut it = msg[*at..].iter();
    read(&mut it);
    *at = msg.len() - it.as_slice().len();
}

/// The group solve of one phase: the per-energy selected solves of the
/// assembled systems, by the whole energy group.
///
/// `slots` holds one assembled `[A, B^<, B^>]` system per energy **this
/// rank** owns, read where it was assembled; `member_energies[m]` is the
/// number of energies spatial rank `m` of this rank's group brings to the
/// solve (`slots.len()` at this rank's own index). With one member per group
/// (`P_S = 1`) this is `crate::scba::solve_stage` against the RGF scratch —
/// one energy-batched RGF solve, no communication. Otherwise the group's
/// ranks cooperate: block-range distribution, concurrent interior
/// eliminations of every energy of the group, the reduced boundary systems
/// on each energy's owner, concurrent recoveries — every RGF solve among
/// them energy-batched against the RGF scratch in chunks of at most
/// `kernel_batch` energies, every message from `pool`. Writes the
/// [`SelectedSolution`]s of this rank's energies into `sols` (one per
/// system); FLOPs are accounted to `subsystem` either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spatial_phase_solve(
    ctx: &RankContext<Vec<c64>>,
    layout: &SpatialLayout,
    subsystem: Subsystem,
    slots: &[GAssembly],
    member_energies: &[usize],
    kernel_batch: usize,
    scratch: &mut GroupScratch,
    pool: &mut MessagePool,
    flops: &FlopCounter,
    sols: &mut [SelectedSolution],
) {
    let (grid, parts) = (&layout.grid, &layout.parts);
    let (nb, bs) = (layout.n_blocks, layout.block_size);
    let p_s = grid.spatial_partitions;
    assert_eq!(sols.len(), slots.len(), "one solution per system");
    let matrix = |e: usize, m: usize| slots[e].matrix(m);
    let systems = Systems::new(slots.len(), N_RHS, &matrix);
    if p_s == 1 {
        return solve_stage(subsystem, systems, sols, &mut scratch.rgf, flops)
            .expect("RGF solve failed: the system matrix became singular"); // lint:allow(no-unwrap): a singular system matrix is a fatal numeric error
    }
    let (_, kind) = solve_accounting(subsystem);
    let rank = ctx.rank();
    let s = grid.spatial_of(rank);
    // Flat rank of spatial rank 0: member `m` is rank `first + m`.
    let first = grid.members_of(grid.group_of(rank)).start;
    assert_eq!(member_energies.len(), p_s, "one energy count per member");
    assert_eq!(slots.len(), member_energies[s], "own systems");
    let others = || (0..p_s).filter(move |&m| m != s);
    // The group's energies in member order: member `m`'s sit at `of(m)`.
    let of = |m: usize| {
        let start: usize = member_energies[..m].iter().sum();
        start..start + member_energies[m]
    };
    let n_group: usize = member_energies.iter().sum();
    let n_ranks = grid.n_ranks();
    let my_part = &parts[s];
    let (n_range, n_sep) = (my_part.range().len(), 2 * (p_s - 1));
    let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;
    let GroupScratch {
        rgf,
        states,
        updates,
        reduced_systems,
        reduced,
        recovered,
        part_ranges,
        cursors,
    } = scratch;
    states.resize_with(n_group, Default::default);
    reduced.resize_with(n_group, Default::default);
    recovered.resize_with(n_group, Default::default);
    updates.resize_with(p_s, Vec::new);
    part_ranges.resize_with(p_s, Default::default);

    // ------------------------------------------ distribute the block ranges
    // Every member cuts each other member's block range out of the systems
    // it assembled instead of broadcasting the full triple: member `p`
    // receives blocks `lo..=hi` of partition `p` — nothing when its interior
    // is empty.
    let mut send = pool.messages(n_ranks);
    for p in others() {
        for asm in slots {
            for m in 0..=N_RHS {
                push_bt_range(&mut send[first + p], asm.matrix(m), parts[p].range());
            }
        }
    }
    // Post the ranges non-blocking: a rank holds its own energies' ranges
    // already, so it eliminates those while the other members' ranges are in
    // flight — the same communication/computation overlap the batched
    // transpositions use, applied to the system distribution.
    let handle = ctx.alltoallv_start_tagged(send, wire, CommPhase::Spatial);
    // Eliminate one member's energies: this rank's own from the systems it
    // assembled, the others' from the ranges read into their states.
    let mut eliminate = |states: &mut [PartitionSolveState], slots: Option<&[GAssembly]>| {
        quatrex_probe::span("spatial.eliminate", "rgf.partition", || {
            for chunk in kernel_chunks(0..states.len(), kernel_batch) {
                let states = &mut states[chunk.clone()];
                match slots {
                    Some(slots) => {
                        let matrix = |e: usize, m: usize| slots[chunk.start + e].matrix(m);
                        let systems = Systems::new(chunk.len(), N_RHS, &matrix);
                        eliminate_partition_into(states, systems, my_part.lo, my_part, s, rgf)
                    }
                    None => eliminate_loaded(states, my_part, s, rgf),
                }
                // lint:allow(no-unwrap): a singular interior is a fatal numeric error
                .expect("spatial elimination failed: the interior became singular");
            }
            flops.add(kind, states.iter().map(|st| st.workload.flops).sum());
        })
    };
    eliminate(&mut states[of(s)], Some(slots));
    let recv = handle.wait(ctx);
    for m in others() {
        let mut it = recv[first + m].iter();
        for st in &mut states[of(m)] {
            for matrix in st.range_mut(my_part, 1 + N_RHS) {
                read_bt_into(&mut it, matrix, n_range, bs);
            }
        }
        eliminate(&mut states[of(m)], None);
    }
    pool.recycle(recv);

    // ------------------------------ send the reduced updates to the owners
    let mut send = pool.messages(n_ranks);
    for m in others() {
        for update in states[of(m)].iter().flat_map(|st| &st.updates) {
            push_matrix(&mut send[first + m], update);
        }
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);

    // ---------------- assemble + solve the reduced systems of own energies
    quatrex_probe::span("spatial.reduced", "rgf.reduced", || {
        cursors.clear();
        cursors.resize(p_s, 0);
        reduced_systems.resize_with(slots.len(), Default::default);
        let own_states = &states[of(s)];
        for (e, (red, own)) in reduced_systems.iter_mut().zip(own_states).enumerate() {
            // One update grid per partition, in layout order.
            for p in others() {
                updates[p].resize_with(update_blocks(&parts[p]), CMatrix::default);
                read_at(&recv[first + p], &mut cursors[p], |it| {
                    for update in &mut updates[p] {
                        read_matrix_into(it, update, bs);
                    }
                });
            }
            let grid = |p: usize| if p == s { &own.updates } else { &updates[p] };
            let separators = &layout.separators;
            assemble_reduced_system_into(red, systems, e, parts, separators, |p| grid(p));
        }
        let own_reduced = &mut reduced[of(s)];
        for chunk in kernel_chunks(0..slots.len(), kernel_batch) {
            let own = &reduced_systems[chunk.clone()];
            let matrix = |e: usize, m: usize| &own[e][m];
            let systems = Systems::new(own.len(), N_RHS, &matrix);
            let sols = &mut own_reduced[chunk];
            // lint:allow(no-unwrap): a singular reduced boundary system is a fatal numeric error
            solve_systems_into(systems, sols, rgf).expect("reduced boundary system solve failed");
        }
        flops.add(kind, own_reduced.iter().map(|sol| sol.flops).sum());
    });
    pool.recycle(recv);

    // ------------------- send the reduced selected blocks to the members
    let mut send = pool.messages(n_ranks);
    for m in others() {
        for sol in &reduced[of(s)] {
            push_selected(&mut send[first + m], sol);
        }
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);
    for m in others() {
        let mut it = recv[first + m].iter();
        for sol in &mut reduced[of(m)] {
            read_selected_into(&mut it, sol, n_sep, bs);
        }
    }
    pool.recycle(recv);

    // ------------------------------------------------ recover the block ranges
    quatrex_probe::span("spatial.recover", "rgf.partition", || {
        for chunk in kernel_chunks(0..n_group, kernel_batch) {
            let (states, reduced) = (&states[chunk.clone()], &reduced[chunk.clone()]);
            recover_partition_into(my_part, states, reduced, &mut recovered[chunk], rgf);
        }
        flops.add(kind, recovered.iter().map(|rec| rec.flops).sum());
    });

    // -------------------------- return the recovered ranges to the owners
    let mut send = pool.messages(n_ranks);
    for m in others() {
        for rec in &recovered[of(m)] {
            push_selected(&mut send[first + m], rec);
        }
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);

    // ------------------ assemble the full selected solutions of own energies
    cursors.clear();
    cursors.resize(p_s, 0);
    let own = recovered[of(s)].iter().zip(&reduced[of(s)]);
    for (sol, (own, red)) in sols.iter_mut().zip(own) {
        // One recovered range per partition, in layout order.
        for p in others() {
            let (n_part, range) = (parts[p].range().len(), &mut part_ranges[p]);
            read_at(&recv[first + p], &mut cursors[p], |it| {
                read_selected_into(it, range, n_part, bs)
            });
        }
        let range = |p: usize| if p == s { own } else { &part_ranges[p] };
        assemble_solution_into(sol, nb, parts, &layout.separators, red, range);
    }
    pool.recycle(recv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::slab::read_bt;
    use quatrex_linalg::cplx;
    use quatrex_rgf::{nested_dissection_solve_with_layout, rgf_solve, spatial_partition_layout};
    use quatrex_runtime::{CommStats, ThreadComm};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn test_system(nb: usize, bs: usize) -> BlockTridiagonal {
        let mut a = BlockTridiagonal::zeros(nb, bs);
        for i in 0..nb {
            let d = CMatrix::from_fn(bs, bs, |r, c| {
                if r == c {
                    cplx(2.4 + 0.07 * i as f64, 0.3)
                } else {
                    cplx(-0.2, 0.04 * (r as f64 - c as f64))
                }
            });
            a.set_block(i, i, d);
        }
        for i in 0..nb - 1 {
            let u = CMatrix::from_fn(bs, bs, |r, c| cplx(-0.4 + 0.02 * r as f64, 0.03 * c as f64));
            let l = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(-0.35 - 0.01 * c as f64, -0.02 * r as f64)
            });
            a.set_block(i, i + 1, u);
            a.set_block(i + 1, i, l);
        }
        a
    }

    fn test_rhs(nb: usize, bs: usize, seed: f64) -> BlockTridiagonal {
        let mut b = BlockTridiagonal::zeros(nb, bs);
        for i in 0..nb {
            let raw = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(seed * (0.1 * (r + i) as f64 - 0.2 * c as f64), 0.3)
            });
            b.set_block(i, i, raw.negf_antihermitian_part());
        }
        for i in 0..nb - 1 {
            let bu = CMatrix::from_fn(bs, bs, |r, c| cplx(0.04 * (r + c) as f64 * seed, 0.1));
            b.set_block(i, i + 1, bu.clone());
            b.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
        }
        b
    }

    #[test]
    fn rank_grid_factors_and_addresses() {
        let grid = RankGrid::new(6, 2);
        assert_eq!(grid.n_groups, 3);
        assert_eq!(grid.n_ranks(), 6);
        assert_eq!(grid.group_of(5), 2);
        assert_eq!(grid.spatial_of(5), 1);
        assert_eq!(grid.members_of(2), 4..6);
    }

    #[test]
    fn serialisation_round_trips_exactly() {
        let bt = test_system(4, 3);
        let mut buf = Vec::new();
        push_bt(&mut buf, &bt);
        let mut it = buf.iter();
        let back = read_bt(&mut it, 4, 3);
        assert!(it.next().is_none());
        assert!(back.to_dense().approx_eq(&bt.to_dense(), 0.0));
    }

    #[test]
    fn block_ranges_round_trip_exactly_and_beat_the_broadcast() {
        // The range form of the system distribution: a partition's message is
        // `push_bt` of blocks lo..=hi of every matrix — a layout-determined
        // length, no header — and an empty interior ships nothing.
        let (nb, bs) = (9, 3);
        let system = [
            &test_system(nb, bs),
            &test_rhs(nb, bs, 1.3),
            &test_rhs(nb, bs, -0.4),
        ];
        // The full triple, as a broadcast would ship it.
        let full = 3 * (3 * nb - 2) * bs * bs;
        for part in &spatial_partition_layout(nb, 3).unwrap() {
            let ranges: Vec<BlockTridiagonal> =
                system.iter().map(|m| m.sub_range(part.range())).collect();
            let mut buf = Vec::new();
            ranges.iter().for_each(|m| push_bt(&mut buf, m));
            let n = part.hi - part.lo + 1;
            assert_eq!(buf.len(), 3 * (3 * n - 2) * bs * bs);
            assert!(buf.len() * 2 < full, "range {} of full {full}", buf.len());
            let mut it = buf.iter();
            for (m, full_matrix) in ranges.iter().zip(system) {
                let back = read_bt(&mut it, part.range().len(), bs);
                assert!(back.to_dense().approx_eq(&m.to_dense(), 0.0));
                for k in 0..n {
                    assert!(back.diag(k).approx_eq(full_matrix.diag(part.lo + k), 0.0));
                }
            }
            assert!(it.next().is_none(), "the reads consume the full message");
        }

        let (nb, bs) = (6, 2);
        let system = [&test_system(nb, bs), &test_rhs(nb, bs, 2.1)];
        let middle = &spatial_partition_layout(nb, 3).unwrap()[1];
        assert_eq!(middle.interior().len(), 0);
        let mut buf = Vec::new();
        for m in system {
            push_bt(&mut buf, &m.sub_range(middle.range()));
        }
        assert!(buf.is_empty(), "an empty interior ships nothing");
        assert_eq!(update_blocks(middle), 0);
    }

    /// `n` distinct test problems `(A, B^<, B^>)`.
    fn test_problems(nb: usize, bs: usize, n: usize) -> Vec<[BlockTridiagonal; 3]> {
        (0..n)
            .map(|e| {
                [
                    test_system(nb, bs),
                    test_rhs(nb, bs, 1.0 + e as f64),
                    test_rhs(nb, bs, -0.5 - e as f64),
                ]
            })
            .collect()
    }

    /// The assembly slots of `problems`.
    fn slots(problems: &[[BlockTridiagonal; 3]]) -> Vec<GAssembly> {
        let slot = |[system, rhs_lesser, rhs_greater]: [BlockTridiagonal; 3]| GAssembly {
            system,
            rhs_lesser,
            rhs_greater,
            sigma_obc_left_lesser: CMatrix::default(),
            sigma_obc_left_greater: CMatrix::default(),
        };
        problems.iter().cloned().map(slot).collect()
    }

    /// One group solve of `problems` by one group of `member_energies.len()`
    /// ranks, member `m` owning the next `member_energies[m]` problems. Per
    /// member: its solutions.
    fn group_solve(
        problems: &[[BlockTridiagonal; 3]],
        member_energies: &[usize],
    ) -> (Vec<Vec<SelectedSolution>>, Arc<CommStats>) {
        let p_s = member_energies.len();
        let (nb, bs) = (problems[0][0].n_blocks(), problems[0][0].block_size());
        let layout = SpatialLayout::new(p_s, p_s, nb, bs);
        let (problems, member_energies) = (problems.to_vec(), member_energies.to_vec());
        assert_eq!(problems.len(), member_energies.iter().sum::<usize>());
        ThreadComm::run(p_s, move |ctx: RankContext<Vec<c64>>| {
            let start: usize = member_energies[..ctx.rank()].iter().sum();
            let own = &problems[start..start + member_energies[ctx.rank()]];
            let mut sols = vec![SelectedSolution::default(); own.len()];
            spatial_phase_solve(
                &ctx,
                &layout,
                Subsystem::Electron,
                &slots(own),
                &member_energies,
                2, // kernel chunks of at most 2 energies
                &mut GroupScratch::default(),
                &mut MessagePool::default(),
                &FlopCounter::new(),
                &mut sols,
            );
            sols
        })
    }

    fn assert_bits_equal(got: &SelectedSolution, want: &SelectedSolution, label: &str) {
        let dense = |m: &BlockTridiagonal| m.to_dense();
        assert!(
            dense(&got.retarded).approx_eq(&dense(&want.retarded), 0.0),
            "{label}: retarded"
        );
        for (g, w) in got.lesser.iter().zip(&want.lesser) {
            assert!(dense(g).approx_eq(&dense(w), 0.0), "{label}: lesser");
        }
    }

    #[test]
    fn one_member_group_is_the_local_batched_solve() {
        // Bit for bit, and no byte leaves the rank.
        let (nb, bs, n) = (6usize, 2usize, 3usize);
        let problems = test_problems(nb, bs, n);
        let (single, stats) = group_solve(&problems, &[n]);
        let lhs: Vec<&BlockTridiagonal> = problems.iter().map(|p| &p[0]).collect();
        let rhs: Vec<[&BlockTridiagonal; 2]> = problems.iter().map(|p| [&p[1], &p[2]]).collect();
        let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
        let mut want = vec![SelectedSolution::zeros(nb, bs, 2); n];
        quatrex_rgf::rgf_solve_batch_into(&lhs, &rhs, &mut want, &mut RgfBatchScratch::new())
            .unwrap();
        let sols = &single[0];
        assert_eq!(sols.len(), n);
        for (got, want) in sols.iter().zip(&want) {
            assert_bits_equal(got, want, "P_S = 1");
            assert_eq!(got.flops, want.flops);
        }
        assert_eq!(stats.phase_bytes(CommPhase::Spatial), 0);
        assert_eq!(stats.alltoall_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn owner_keyed_group_solve_matches_rgf_solve_under_any_ownership() {
        // Uneven and empty ownership at P_S = 2 and 3: every member gets back
        // exactly its own energies' solutions, each within rounding of the
        // sequential RGF solve and bit-identical to the same group solve with
        // every energy on member 0 and to the single-process driver on the
        // same layout — who owns an energy decides where its reduced system
        // is solved, never what comes out.
        for (nb, ownership) in [
            (6usize, vec![3usize, 0]),
            (6, vec![2, 5]),
            (9, vec![1, 2, 3]),
        ] {
            let (bs, p_s) = (2usize, ownership.len());
            let n: usize = ownership.iter().sum();
            let problems = test_problems(nb, bs, n);
            let label = format!("ownership {ownership:?}");
            let (results, stats) = group_solve(&problems, &ownership);
            let mut on_member_0 = vec![0; p_s];
            on_member_0[0] = n;
            let (reference, _) = group_solve(&problems, &on_member_0);
            assert_eq!(reference[0].len(), n);
            let layout = SpatialLayout::new(p_s, p_s, nb, bs);

            for (m, sols) in results.iter().enumerate() {
                assert_eq!(sols.len(), ownership[m], "{label}: member {m} count");
            }
            let sols: Vec<&SelectedSolution> = results.iter().flatten().collect();
            for (e, (got, [a, rl, rg])) in sols.iter().zip(&problems).enumerate() {
                assert_bits_equal(got, &reference[0][e], &format!("{label}, energy {e}"));
                let (driver, _) =
                    nested_dissection_solve_with_layout(a, &[rl, rg], &layout.parts).unwrap();
                assert_bits_equal(got, &driver, &format!("{label}, energy {e}: driver"));
                let seq = rgf_solve(a, &[rl, rg]).unwrap();
                let scale = seq.retarded.norm_fro().max(1e-300);
                for i in 0..nb {
                    assert!(
                        got.retarded.diag(i).distance(seq.retarded.diag(i)) / scale < 1e-12,
                        "{label}: energy {e} retarded diag {i}"
                    );
                }
                for r in 0..2 {
                    let scale = seq.lesser[r].norm_fro().max(1e-300);
                    for i in 0..nb {
                        assert!(
                            got.lesser[r].diag(i).distance(seq.lesser[r].diag(i)) / scale < 1e-12,
                            "{label}: energy {e} lesser[{r}] diag {i}"
                        );
                        if i + 1 < nb {
                            assert!(
                                got.lesser[r].upper(i).distance(seq.lesser[r].upper(i)) / scale
                                    < 1e-12,
                                "{label}: energy {e} lesser[{r}] upper {i}"
                            );
                        }
                    }
                }
            }

            // Every byte of group traffic carries the spatial tag.
            let spatial = stats.phase_bytes(CommPhase::Spatial);
            assert!(spatial > 0, "{label}: the group shipped boundary systems");
            assert_eq!(stats.alltoall_bytes.load(Ordering::Relaxed), spatial);
        }
    }

    #[test]
    fn group_solves_run_on_the_rank_scratch_and_keep_it_warm() {
        // Every RGF solve of a spatial group solve — the interiors of all the
        // group's energies and the reduced systems of the rank's own — draws
        // from the rank's scratch: the first iteration's solve warms it on
        // every rank, and later iterations (same shapes, kernel chunks of
        // 2 + 1 energies) allocate nothing more.
        let (nb, bs, p_s, n_owned) = (8usize, 2usize, 2usize, 3usize);
        let layout = SpatialLayout::new(p_s, p_s, nb, bs);
        let (allocations, _) = ThreadComm::run(p_s, move |ctx: RankContext<Vec<c64>>| {
            let problems: Vec<[BlockTridiagonal; 3]> = (0..n_owned)
                .map(|e| {
                    let seed = 1.0 + e as f64;
                    [
                        test_system(nb, bs),
                        test_rhs(nb, bs, seed),
                        test_rhs(nb, bs, -seed),
                    ]
                })
                .collect();
            let systems = slots(&problems);
            let (mut scratch, mut pool) = (GroupScratch::default(), MessagePool::default());
            let flops = FlopCounter::new();
            let mut sols = vec![SelectedSolution::default(); n_owned];
            (0..3)
                .map(|_| {
                    for subsystem in [Subsystem::Electron, Subsystem::ScreenedCoulomb] {
                        spatial_phase_solve(
                            &ctx,
                            &layout,
                            subsystem,
                            &systems,
                            &[n_owned; 2],
                            2,
                            &mut scratch,
                            &mut pool,
                            &flops,
                            &mut sols,
                        );
                    }
                    scratch.rgf.fresh_allocations()
                })
                .collect::<Vec<usize>>()
        });
        for (rank, per_iteration) in allocations.iter().enumerate() {
            assert!(per_iteration[0] > 0, "rank {rank} solves on its scratch");
            assert_eq!(
                per_iteration[1..],
                [per_iteration[0]; 2],
                "rank {rank}: no fresh allocations after the first iteration"
            );
        }
    }
}
