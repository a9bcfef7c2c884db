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
//! [`spatial_phase_solve`] is the *group solve* — stage 2 of a step, between
//! `quatrex_core`'s per-energy assemble and finish stages. In a one-member
//! group it **is** the local batched solve (`crate::scba::solve_stage`
//! against the rank's scratch); otherwise it executes the per-energy selected
//! solves of one phase (`G` or `W`) cooperatively, every message keyed by the
//! **owner of the energy** and of a shape the layout and the members' energy
//! counts alone determine — block ranges and block grids, no headers, no
//! indices:
//!
//! 1. every member ships member `p` **partition `p`'s block range** of the
//!    systems it assembled (`quatrex_rgf::partition_ranges`: blocks `lo..=hi`
//!    of `A`, `B^<`, `B^>` as `push_bt` streams, `~1/P_S` of the full system
//!    instead of the pre-slice full broadcast), posted non-blocking: it
//!    eliminates its own energies while the others' ranges fly;
//! 2. every member eliminates its partition for **all** the group's energies
//!    through the one entry point [`quatrex_rgf::eliminate_partition`] —
//!    energy-batched against the rank's warm [`RgfBatchScratch`], cut into
//!    `kernel_batch` chunks like the local solves; an end partition's
//!    elimination is the forward RGF sweep over its range, stopped before its
//!    separator's inversion;
//! 3. each energy's `nbd × nbd` Schur and quadratic right-hand-side update
//!    grids go to **that energy's owner**, who assembles the reduced boundary
//!    systems of its energies and solves them batched on its own scratch
//!    ([`quatrex_rgf::solve_systems`]) — `P_S` reduced solves run side by
//!    side;
//! 4. the owner sends the reduced selected solutions to the other members,
//!    every member recovers its range of every energy per kernel chunk
//!    ([`quatrex_rgf::recover_partition`]: an end partition's is the backward
//!    RGF sweep seeded at its separator) and returns it to the owner, who
//!    copies the ranges into place ([`quatrex_rgf::assemble_solution`], the
//!    tail it shares with the single-process driver of `quatrex-rgf`).
//!
//! All group traffic rides the same byte-accounted `Alltoallv` as the
//! transpositions (out-of-group destinations receive empty messages), every
//! exchange tagged [`CommPhase::Spatial`], so the communicator's entry for
//! that tag is the group solves' whole volume.

use std::ops::Range;

use crate::scba::{kernel_chunks, solve_accounting, solve_stage};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::Subsystem;
use quatrex_rgf::{
    assemble_reduced_system, assemble_solution, eliminate_partition, partition_layout_balanced,
    partition_ranges, recover_partition, solve_systems, PartitionSolveState, RgfBatchScratch,
    SelectedSolution, SpatialPartition,
};
use quatrex_runtime::{CommPhase, RankContext};
use quatrex_sparse::BlockTridiagonal;

use crate::dist::slab::{push_bt, push_matrix, read_bt, read_matrix, BYTES_PER_VALUE};

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
    pub fn new(n_ranks: usize, spatial_partitions: usize) -> Self {
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
    pub fn n_ranks(&self) -> usize {
        self.n_groups * self.spatial_partitions
    }

    /// Energy group of a flat rank.
    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.spatial_partitions
    }

    /// Spatial index of a flat rank within its group.
    pub fn spatial_of(&self, rank: usize) -> usize {
        rank % self.spatial_partitions
    }

    /// The flat ranks of a group, in spatial order.
    pub fn members_of(&self, group: usize) -> Range<usize> {
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
            parts,
            n_blocks,
            block_size,
        }
    }

    /// Whether the balanced layout had a middle partition to balance
    /// against (`P_S ≥ 3`); at `P_S = 2` it is the uniform split.
    pub fn balanced(&self) -> bool {
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

fn read_selected<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    nb: usize,
    bs: usize,
    n_rhs: usize,
) -> SelectedSolution {
    SelectedSolution {
        retarded: read_bt(it, nb, bs),
        lesser: (0..n_rhs).map(|_| read_bt(it, nb, bs)).collect(),
        flops: 0,
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

/// The group solve of one phase: the per-energy selected solves of the
/// assembled systems, by the whole energy group.
///
/// `systems` holds one `[A, B^<, B^>]` triple per energy **this rank** owns
/// and assembled; `member_energies[m]` is the number of energies spatial rank
/// `m` of this rank's group brings to the solve (`systems.len()` at this
/// rank's own index). With one member per group (`P_S = 1`) this is
/// `crate::scba::solve_stage` against `scratch` — one energy-batched
/// RGF solve, no communication. Otherwise the group's ranks cooperate:
/// block-range distribution, concurrent interior eliminations of every
/// energy of the group, the reduced boundary systems on each energy's owner,
/// concurrent recoveries — every RGF solve among them energy-batched against
/// `scratch` in chunks of at most `kernel_batch` energies. Returns the
/// [`SelectedSolution`]s of this rank's energies; FLOPs are accounted to
/// `subsystem` either way.
#[allow(clippy::too_many_arguments)]
pub fn spatial_phase_solve(
    ctx: &RankContext<Vec<c64>>,
    layout: &SpatialLayout,
    subsystem: Subsystem,
    systems: &[[&BlockTridiagonal; 3]],
    member_energies: &[usize],
    kernel_batch: usize,
    scratch: &mut RgfBatchScratch,
    flops: &FlopCounter,
) -> Vec<SelectedSolution> {
    let (grid, parts) = (&layout.grid, &layout.parts);
    let (nb, bs) = (layout.n_blocks, layout.block_size);
    let p_s = grid.spatial_partitions;
    if p_s == 1 {
        return solve_stage(subsystem, systems, scratch, flops)
            .expect("RGF solve failed: the system matrix became singular"); // lint:allow(no-unwrap): a singular system matrix is a fatal numeric error
    }
    let (_, kind) = solve_accounting(subsystem);
    let rank = ctx.rank();
    let s = grid.spatial_of(rank);
    // Flat rank of spatial rank 0: member `m` is rank `first + m`.
    let first = grid.members_of(grid.group_of(rank)).start;
    assert_eq!(member_energies.len(), p_s, "one energy count per member");
    assert_eq!(systems.len(), member_energies[s], "own systems");
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

    // ------------------------------------------ distribute the block ranges
    // Every member cuts each other member's block range out of the systems
    // it assembled instead of broadcasting the full triple: member `p`
    // receives blocks `lo..=hi` of partition `p` — nothing when its interior
    // is empty.
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    for p in others() {
        for system in systems {
            for range in partition_ranges(system, &parts[p]) {
                push_bt(&mut send[first + p], &range);
            }
        }
    }
    // Post the ranges non-blocking: a rank holds its own energies' ranges
    // already, so it eliminates those while the other members' ranges are in
    // flight — the same communication/computation overlap the batched
    // transpositions use, applied to the system distribution.
    let handle = ctx.alltoallv_start_tagged(send, wire, CommPhase::Spatial);
    let mut eliminate = |ranges: &[Vec<BlockTridiagonal>]| -> Vec<PartitionSolveState> {
        quatrex_probe::span("spatial.eliminate", "rgf.partition", || {
            let mut states = Vec::with_capacity(ranges.len());
            for chunk in kernel_chunks(0..ranges.len(), kernel_batch) {
                states.extend(
                    eliminate_partition(&ranges[chunk], my_part, s, scratch)
                        // lint:allow(no-unwrap): a singular interior is a fatal numeric error
                        .expect("spatial elimination failed: the interior became singular"),
                );
            }
            flops.add(kind, states.iter().map(|st| st.workload.flops).sum());
            states
        })
    };
    let own: Vec<_> = systems
        .iter()
        .map(|system| partition_ranges(system, my_part))
        .collect();
    let mut own_states = eliminate(&own);
    let recv = handle.wait(ctx);
    let mut states: Vec<PartitionSolveState> = Vec::with_capacity(n_group);
    for m in 0..p_s {
        if m == s {
            states.append(&mut own_states);
            continue;
        }
        let mut it = recv[first + m].iter();
        let theirs: Vec<Vec<BlockTridiagonal>> = (0..member_energies[m])
            .map(|_| (0..=N_RHS).map(|_| read_bt(&mut it, n_range, bs)).collect())
            .collect();
        states.extend(eliminate(&theirs));
    }

    // ------------------------------ send the reduced updates to the owners
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    for m in others() {
        for update in states[of(m)].iter().flat_map(|st| &st.updates) {
            push_matrix(&mut send[first + m], update);
        }
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);

    // ---------------- assemble + solve the reduced systems of own energies
    let mut own_reduced: Vec<SelectedSolution> =
        quatrex_probe::span("spatial.reduced", "rgf.reduced", || {
            let mut streams: Vec<_> = (0..p_s).map(|p| recv[first + p].iter()).collect();
            let reduced_systems: Vec<Vec<BlockTridiagonal>> = systems
                .iter()
                .zip(&states[of(s)])
                .map(|(system, own)| {
                    // One update grid per partition, in layout order.
                    let gathered: Vec<Vec<CMatrix>> = others()
                        .map(|p| {
                            (0..update_blocks(&parts[p]))
                                .map(|_| read_matrix(&mut streams[p], bs))
                                .collect()
                        })
                        .collect();
                    let mut updates: Vec<&[CMatrix]> = gathered.iter().map(Vec::as_slice).collect();
                    updates.insert(s, &own.updates);
                    assemble_reduced_system(system, parts, &updates)
                })
                .collect();
            let mut sols = Vec::with_capacity(systems.len());
            for chunk in kernel_chunks(0..systems.len(), kernel_batch) {
                sols.extend(
                    solve_systems(&reduced_systems[chunk], scratch)
                        .expect("reduced boundary system solve failed"), // lint:allow(no-unwrap): a singular reduced boundary system is a fatal numeric error
                );
            }
            flops.add(kind, sols.iter().map(|sol| sol.flops).sum());
            sols
        });

    // ------------------- send the reduced selected blocks to the members
    let mut buf = Vec::new();
    for sol in &own_reduced {
        push_selected(&mut buf, sol);
    }
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    for m in others() {
        send[first + m] = buf.clone();
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);
    let mut reduced: Vec<SelectedSolution> = Vec::with_capacity(n_group);
    for m in 0..p_s {
        if m == s {
            reduced.append(&mut own_reduced);
            continue;
        }
        let mut it = recv[first + m].iter();
        reduced.extend((0..member_energies[m]).map(|_| read_selected(&mut it, n_sep, bs, N_RHS)));
    }

    // ------------------------------------------------ recover the block ranges
    let mut recovered: Vec<SelectedSolution> =
        quatrex_probe::span("spatial.recover", "rgf.partition", || {
            let mut recovered = Vec::with_capacity(n_group);
            for chunk in kernel_chunks(0..n_group, kernel_batch) {
                let (states, reduced) = (&states[chunk.clone()], &reduced[chunk]);
                recovered.extend(recover_partition(my_part, states, reduced, scratch));
            }
            flops.add(kind, recovered.iter().map(|rec| rec.flops).sum());
            recovered
        });

    // -------------------------- return the recovered ranges to the owners
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    for m in others() {
        for rec in &recovered[of(m)] {
            push_selected(&mut send[first + m], rec);
        }
    }
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Spatial);

    // ------------------ assemble the full selected solutions of own energies
    let mut streams: Vec<_> = (0..p_s).map(|p| recv[first + p].iter()).collect();
    recovered
        .drain(of(s))
        .zip(&reduced[of(s)])
        .map(|(own, red)| {
            // One recovered range per partition, in layout order.
            let mut ranges: Vec<SelectedSolution> = others()
                .map(|p| read_selected(&mut streams[p], parts[p].range().len(), bs, N_RHS))
                .collect();
            ranges.insert(s, own);
            assemble_solution(nb, parts, red, &ranges)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;
    use quatrex_rgf::{rgf_solve, spatial_partition_layout};
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
            let ranges = partition_ranges(&system, part);
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
        for m in partition_ranges(&system, middle) {
            push_bt(&mut buf, &m);
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
            let systems: Vec<[&BlockTridiagonal; 3]> = problems[start..]
                .iter()
                .take(member_energies[ctx.rank()])
                .map(|p| p.each_ref())
                .collect();
            spatial_phase_solve(
                &ctx,
                &layout,
                Subsystem::Electron,
                &systems,
                &member_energies,
                2, // kernel chunks of at most 2 energies
                &mut RgfBatchScratch::new(),
                &FlopCounter::new(),
            )
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
        // every energy on member 0 — who owns an energy decides where its
        // reduced system is solved, never what comes out.
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

            for (m, sols) in results.iter().enumerate() {
                assert_eq!(sols.len(), ownership[m], "{label}: member {m} count");
            }
            let sols: Vec<&SelectedSolution> = results.iter().flatten().collect();
            for (e, (got, [a, rl, rg])) in sols.iter().zip(&problems).enumerate() {
                assert_bits_equal(got, &reference[0][e], &format!("{label}, energy {e}"));
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
            let systems: Vec<[&BlockTridiagonal; 3]> =
                problems.iter().map(|p| p.each_ref()).collect();
            let mut scratch = RgfBatchScratch::new();
            let flops = FlopCounter::new();
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
                            &flops,
                        );
                    }
                    scratch.fresh_allocations()
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
