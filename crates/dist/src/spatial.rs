//! The second decomposition level: `P_S` spatial ranks sharing one energy
//! point (paper Section 5.4).
//!
//! [`RankGrid`] arranges the flat `ThreadComm` ranks as a two-level grid of
//! `n_energy_groups × P_S`, mirroring `quatrex_runtime::DecompositionPlan`:
//! rank `g·P_S + s` is spatial rank `s` of energy group `g`, and spatial rank
//! 0 is the *group leader* — it owns the group's energies for the
//! energy↔element transpositions, assembles the per-energy systems and solves
//! the reduced boundary systems.
//!
//! [`spatial_phase_solve`] is the *group solve* — stage 2 of a step, between
//! `quatrex_core`'s per-energy assemble and finish stages. In a one-member
//! group it **is** the local batched solve (`quatrex_core::scba::solve_stage`
//! against the rank's scratch); otherwise it executes the per-energy selected
//! solves of one phase (`G` or `W`) cooperatively: the leader ships every
//! spatial rank **its partition's slice** of the assembled systems (a
//! [`PartitionSlice`] wire message: interior blocks plus separator couplings,
//! `~1/P_S` of the full system instead of the pre-slice full broadcast),
//! every spatial rank eliminates its own partition interior
//! ([`quatrex_rgf::eliminate_partition_slice`]), the Schur and quadratic
//! right-hand-side updates are **gathered within the group** to assemble the
//! reduced boundary system on the leader, the reduced selected solution is
//! broadcast back, and every rank recovers its interior blocks
//! ([`quatrex_rgf::recover_partition_solve`]). All group traffic rides the
//! same byte-accounted `Alltoallv` as the transpositions (out-of-group
//! destinations receive empty messages), so `DistReport` can report the
//! boundary-system volume per phase — and the measured slice-distribution
//! saving against the broadcast-equivalent volume ([`SpatialTraffic`]).

use quatrex_probe::clock::Instant;

use quatrex_core::scba::{solve_accounting, solve_stage, KernelTimings};
use quatrex_linalg::flops::FlopCounter;
use quatrex_linalg::{c64, CMatrix};
use quatrex_obc::Subsystem;
use quatrex_rgf::{
    assemble_reduced_system, eliminate_partition_slice, partition_layout_balanced,
    probe_partition_flops, recover_partition_solve, rgf_solve, scatter_separator_blocks,
    separator_blocks, spatial_partition_layout, BoundaryCouplings, PartitionSolveState,
    PartitionSystemSlice, PartitionUpdates, RecoveredBlocks, RgfBatchScratch, SelectedSolution,
    SpatialPartition,
};
use quatrex_runtime::{CommPhase, RankContext};
use quatrex_sparse::BlockTridiagonal;

use crate::slab::{
    off_rank_payload_bytes, push_bt, push_matrix, read_bt, read_matrix, read_value, BYTES_PER_VALUE,
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

    /// Flat rank of a group's leader (spatial rank 0).
    pub fn leader_of(&self, group: usize) -> usize {
        group * self.spatial_partitions
    }

    /// Whether the flat rank is its group's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.spatial_of(rank) == 0
    }
}

/// The spatial side of a run, fixed for its whole duration and shared by
/// every rank: the rank grid, the partition layout of the transport blocks
/// and the separator blocks between the partitions.
#[derive(Debug, Clone)]
pub struct SpatialLayout {
    /// The `n_groups × P_S` arrangement of the ranks.
    pub grid: RankGrid,
    /// One partition per spatial rank; empty at `P_S = 1`.
    pub parts: Vec<SpatialPartition>,
    /// Separator blocks between the partitions (the reduced system's blocks).
    pub separators: Vec<usize>,
    /// Transport blocks of every per-energy system (`N_B`).
    pub n_blocks: usize,
    /// Transport-cell block size.
    pub block_size: usize,
}

impl SpatialLayout {
    /// Lay `n_blocks` transport blocks out over `p_s` spatial partitions per
    /// energy group. Whenever a middle partition exists (`P_S ≥ 3`) the
    /// layout is the FLOP-balanced uneven one
    /// (`quatrex_rgf::partition_layout_balanced`: the end partitions grow
    /// until the per-partition elimination + recovery FLOPs equalise, paper
    /// Section 5.4), computed from the shape-only FLOP probe so every rank
    /// derives the identical layout; at `P_S = 2` there is nothing to balance
    /// against and the split is uniform. Panics when the device has fewer
    /// than `2·P_S` blocks.
    pub fn new(n_ranks: usize, p_s: usize, n_blocks: usize, block_size: usize) -> Self {
        let grid = RankGrid::new(n_ranks, p_s);
        let parts = match p_s {
            1 => Ok(Vec::new()),
            2 => spatial_partition_layout(n_blocks, p_s),
            _ => probe_partition_flops(n_blocks, block_size, p_s, 2)
                .and_then(|probe| partition_layout_balanced(n_blocks, p_s, &probe)),
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

    /// Whether the layout is the FLOP-balanced one (a middle partition
    /// exists) rather than the uniform split.
    pub fn balanced(&self) -> bool {
        self.grid.spatial_partitions > 2
    }
}

// ---------------------------------------------------------------------------
// Wire format of the group-level payloads (complex128 streams, like the
// transposition messages).

fn push_index_pair(buf: &mut Vec<c64>, i: usize, j: usize) {
    buf.push(c64::new(i as f64, j as f64));
}

fn push_len(buf: &mut Vec<c64>, len: usize) {
    buf.push(c64::new(len as f64, 0.0));
}

fn push_triples(buf: &mut Vec<c64>, triples: &[(usize, usize, CMatrix)]) {
    push_len(buf, triples.len());
    for (i, j, m) in triples {
        push_index_pair(buf, *i, *j);
        push_matrix(buf, m);
    }
}

fn read_triples<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    bs: usize,
) -> Vec<(usize, usize, CMatrix)> {
    let len = read_value(it).re as usize;
    (0..len)
        .map(|_| {
            let ij = read_value(it);
            let (i, j) = (ij.re as usize, ij.im as usize);
            (i, j, read_matrix(it, bs))
        })
        .collect()
}

fn push_updates(buf: &mut Vec<c64>, u: &PartitionUpdates) {
    push_triples(buf, &u.schur);
    for list in &u.rhs {
        push_triples(buf, list);
    }
}

fn read_updates<'a>(
    it: &mut impl Iterator<Item = &'a c64>,
    bs: usize,
    n_rhs: usize,
) -> PartitionUpdates {
    let schur = read_triples(it, bs);
    let rhs = (0..n_rhs).map(|_| read_triples(it, bs)).collect();
    PartitionUpdates { schur, rhs }
}

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

fn push_recovered(buf: &mut Vec<c64>, rec: &RecoveredBlocks) {
    push_triples(buf, &rec.retarded);
    for list in &rec.lesser {
        push_triples(buf, list);
    }
}

/// Wire type of the slice-wise system distribution: everything one spatial
/// rank needs to eliminate its partition of one per-energy system — the
/// partition's interior blocks of `A`, `B^<`, `B^>` plus the separator
/// coupling blocks ([`quatrex_rgf::PartitionSystemSlice`]) — instead of the
/// full `3·(3·N_B − 2)`-block broadcast the pre-slice path shipped. Cutting
/// the distribution payload to each rank's own slice reduces the per-phase
/// boundary-system bytes by `~1/P_S`; `DistReport` tracks the measured saving
/// against the broadcast-equivalent volume.
#[derive(Debug, Clone)]
pub struct PartitionSlice {
    /// Index of the partition (spatial rank) this slice feeds.
    pub partition: usize,
    /// The sliced system: interior blocks + separator couplings of `A` and of
    /// every right-hand side.
    pub system: PartitionSystemSlice,
}

impl PartitionSlice {
    /// Cut the slice of `part` out of a full per-energy system.
    pub fn extract(
        a: &BlockTridiagonal,
        rhs: &[&BlockTridiagonal],
        part: &SpatialPartition,
        partition: usize,
    ) -> Self {
        Self {
            partition,
            system: PartitionSystemSlice::extract(a, rhs, part),
        }
    }

    /// Complex values of the wire encoding (headers included).
    pub fn wire_values(&self) -> usize {
        2 + self.system.boundaries.len() + self.system.stored_values()
    }

    /// Complex values the pre-slice broadcast path shipped per destination
    /// for the same distribution: the full block-tridiagonal system and
    /// `n_rhs` right-hand sides.
    pub fn full_broadcast_values(nb: usize, bs: usize, n_rhs: usize) -> usize {
        (1 + n_rhs) * (nb + 2 * nb.saturating_sub(1)) * bs * bs
    }

    /// Serialise into a complex128 stream.
    pub fn encode(&self, buf: &mut Vec<c64>) {
        let sys = &self.system;
        buf.push(c64::new(self.partition as f64, sys.n_rhs() as f64));
        buf.push(c64::new(
            sys.a_int.n_blocks() as f64,
            sys.boundaries.len() as f64,
        ));
        for b in &sys.boundaries {
            buf.push(c64::new(b.sep as f64, f64::from(u8::from(b.left))));
        }
        push_bt(buf, &sys.a_int);
        for b in &sys.rhs_int {
            push_bt(buf, b);
        }
        for b in &sys.boundaries {
            push_matrix(buf, &b.a_sep_to_int);
            push_matrix(buf, &b.a_int_to_sep);
            for r in 0..sys.n_rhs() {
                push_matrix(buf, &b.rhs_sep_to_int[r]);
                push_matrix(buf, &b.rhs_int_to_sep[r]);
            }
        }
    }

    /// Deserialise one slice written by [`Self::encode`].
    pub fn decode<'a>(it: &mut impl Iterator<Item = &'a c64>, bs: usize) -> Self {
        let head = read_value(it);
        let (partition, n_rhs) = (head.re as usize, head.im as usize);
        let head = read_value(it);
        let (n_int, n_boundaries) = (head.re as usize, head.im as usize);
        let specs: Vec<(usize, bool)> = (0..n_boundaries)
            .map(|_| {
                let b = read_value(it);
                (b.re as usize, b.im != 0.0)
            })
            .collect();
        let a_int = read_bt(it, n_int, bs);
        let rhs_int: Vec<BlockTridiagonal> = (0..n_rhs).map(|_| read_bt(it, n_int, bs)).collect();
        let boundaries = specs
            .into_iter()
            .map(|(sep, left)| {
                let a_sep_to_int = read_matrix(it, bs);
                let a_int_to_sep = read_matrix(it, bs);
                let mut rhs_sep_to_int = Vec::with_capacity(n_rhs);
                let mut rhs_int_to_sep = Vec::with_capacity(n_rhs);
                for _ in 0..n_rhs {
                    rhs_sep_to_int.push(read_matrix(it, bs));
                    rhs_int_to_sep.push(read_matrix(it, bs));
                }
                BoundaryCouplings {
                    sep,
                    left,
                    a_sep_to_int,
                    a_int_to_sep,
                    rhs_sep_to_int,
                    rhs_int_to_sep,
                }
            })
            .collect();
        Self {
            partition,
            system: PartitionSystemSlice {
                a_int,
                rhs_int,
                boundaries,
            },
        }
    }
}

/// Byte accounting of one [`spatial_phase_solve`] call on one rank.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpatialTraffic {
    /// All off-rank boundary-system bytes this rank shipped: the
    /// [`PartitionSlice`] distribution, the reduced-update gather, the
    /// reduced-solution broadcast and the recovered-block gather.
    pub boundary_bytes: u64,
    /// The system-distribution share of `boundary_bytes` (the
    /// [`PartitionSlice`] messages alone).
    pub slice_bytes: u64,
    /// What the pre-slice broadcast path would have shipped for the same
    /// distribution: the full `(A, B^<, B^>)` triple per energy to every
    /// group member.
    pub broadcast_equivalent_bytes: u64,
}

impl SpatialTraffic {
    /// Accumulate another rank's traffic.
    pub fn merge(&mut self, other: &SpatialTraffic) {
        self.boundary_bytes += other.boundary_bytes;
        self.slice_bytes += other.slice_bytes;
        self.broadcast_equivalent_bytes += other.broadcast_equivalent_bytes;
    }
}

/// The group solve of one phase: the per-energy selected solves of the
/// assembled systems, by the whole energy group.
///
/// `systems` holds, **on group leaders only**, one `[A, B^<, B^>]` triple per
/// energy of this solve (`n_owned` on every rank of the group); non-leader
/// ranks pass an empty slice. With one member per group (`P_S = 1`) this is
/// `quatrex_core::scba::solve_stage` against `scratch` — one energy-batched
/// RGF solve, no communication. Otherwise the group's ranks cooperate:
/// slice distribution, concurrent interior eliminations, the reduced boundary
/// system on the leader, concurrent recoveries. Returns the per-energy
/// [`SelectedSolution`]s on the leader (empty elsewhere) and the off-rank
/// boundary-system byte accounting of this rank ([`SpatialTraffic`]); FLOPs
/// and wall time are accounted to `subsystem` either way.
#[allow(clippy::too_many_arguments)]
pub fn spatial_phase_solve(
    ctx: &RankContext<Vec<c64>>,
    layout: &SpatialLayout,
    subsystem: Subsystem,
    systems: &[[&BlockTridiagonal; 3]],
    n_owned: usize,
    scratch: &mut RgfBatchScratch,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> (Vec<SelectedSolution>, SpatialTraffic) {
    let (grid, parts, separators) = (&layout.grid, &layout.parts, &layout.separators);
    let (nb, bs) = (layout.n_blocks, layout.block_size);
    let p_s = grid.spatial_partitions;
    if p_s == 1 {
        let (sols, _) = solve_stage(subsystem, systems, scratch, flops, timings)
            .expect("RGF solve failed: the system matrix became singular"); // lint:allow(no-unwrap): a singular system matrix is a fatal numeric error
        return (sols, SpatialTraffic::default());
    }
    let (_, kind, slot) = solve_accounting(subsystem, timings);
    let rank = ctx.rank();
    let group = grid.group_of(rank);
    let s = grid.spatial_of(rank);
    let leader = grid.leader_of(group);
    let is_leader = rank == leader;
    let n_ranks = grid.n_ranks();
    let wire = |m: &Vec<c64>| m.len() * BYTES_PER_VALUE;
    let mut traffic = SpatialTraffic::default();

    // --------------------------------------------- distribute the A, B slices
    // The leader cuts each member's PartitionSlice out of the assembled
    // systems instead of broadcasting the full triple: member `m` receives
    // only partition `m`'s interior blocks plus its separator couplings.
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    if is_leader {
        for member in 1..p_s {
            let buf = &mut send[leader + member];
            for [a, rl, rg] in systems {
                PartitionSlice::extract(a, &[rl, rg], &parts[member], member).encode(buf);
            }
        }
        traffic.broadcast_equivalent_bytes = ((p_s - 1)
            * systems.len()
            * PartitionSlice::full_broadcast_values(nb, bs, N_RHS)
            * BYTES_PER_VALUE) as u64;
    }
    traffic.slice_bytes = off_rank_payload_bytes(rank, &send);
    traffic.boundary_bytes += traffic.slice_bytes;
    // Post the slices non-blocking: the leader needs nothing from this
    // exchange (the messages addressed to it are empty), so it extracts and
    // eliminates its own partition while the members' slices are in flight —
    // the same communication/computation overlap the batched transpositions
    // use, applied to the system distribution.
    let handle = ctx.alltoallv_start_tagged(send, wire, CommPhase::Slices);
    let my_part = &parts[s];
    let eliminate = |slices: &[PartitionSystemSlice]| -> Vec<PartitionSolveState> {
        quatrex_probe::span("spatial.eliminate", "rgf.partition", || {
            let t = Instant::now();
            let states: Vec<PartitionSolveState> = slices
                .iter()
                .map(|slice| {
                    eliminate_partition_slice(slice, my_part, s)
                        // lint:allow(no-unwrap): a singular interior is a fatal numeric error
                        .expect("spatial elimination failed: the interior became singular")
                })
                .collect();
            flops.add(kind, states.iter().map(|st| st.workload.flops).sum());
            timings.add(slot, t);
            states
        })
    };
    let states: Vec<PartitionSolveState> = if is_leader {
        let local_slices: Vec<PartitionSystemSlice> = systems
            .iter()
            .map(|[a, rl, rg]| PartitionSystemSlice::extract(a, &[rl, rg], &parts[0]))
            .collect();
        let states = eliminate(&local_slices);
        let _ = handle.wait(ctx); // empty messages; drain to stay in sync
        states
    } else {
        let recv = handle.wait(ctx);
        let mut it = recv[leader].iter();
        let local_slices: Vec<PartitionSystemSlice> = (0..n_owned)
            .map(|_| {
                let slice = PartitionSlice::decode(&mut it, bs);
                debug_assert_eq!(slice.partition, s, "slice addressed to this rank");
                slice.system
            })
            .collect();
        eliminate(&local_slices)
    };

    // -------------------------------- gather the reduced updates to the leader
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    if !is_leader {
        let mut buf = Vec::new();
        for st in &states {
            push_updates(&mut buf, &st.updates);
        }
        send[leader] = buf;
    }
    traffic.boundary_bytes += off_rank_payload_bytes(rank, &send);
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Gathers);

    // ------------------------- leader: assemble + solve the reduced systems
    let reduced_local: Vec<SelectedSolution> = if is_leader {
        quatrex_probe::span("spatial.reduced", "rgf.reduced", || {
            let t = Instant::now();
            let mut member_updates: Vec<Vec<PartitionUpdates>> = Vec::with_capacity(p_s - 1);
            for member in 1..p_s {
                let mut it = recv[leader + member].iter();
                member_updates.push(
                    (0..n_owned)
                        .map(|_| read_updates(&mut it, bs, N_RHS))
                        .collect(),
                );
            }
            let sols = systems
                .iter()
                .zip(states.iter())
                .enumerate()
                .map(|(e, ([a, rl, rg], own))| {
                    let mut refs: Vec<&PartitionUpdates> = vec![&own.updates];
                    for mu in &member_updates {
                        refs.push(&mu[e]);
                    }
                    let (reduced_a, reduced_rhs, _) =
                        assemble_reduced_system(a, &[rl, rg], separators, &refs);
                    let reduced_refs: Vec<&BlockTridiagonal> = reduced_rhs.iter().collect();
                    let sol = rgf_solve(&reduced_a, &reduced_refs)
                        .expect("reduced boundary system solve failed"); // lint:allow(no-unwrap): a singular reduced boundary system is a fatal numeric error
                    flops.add(kind, sol.flops);
                    sol
                })
                .collect();
            timings.add(slot, t);
            sols
        })
    } else {
        Vec::new()
    };

    // --------------------------------- broadcast the reduced selected blocks
    let n_sep = separators.len();
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    if is_leader {
        let mut buf = Vec::new();
        for sol in &reduced_local {
            push_selected(&mut buf, sol);
        }
        for member in 1..p_s {
            send[leader + member] = buf.clone();
        }
    }
    traffic.boundary_bytes += off_rank_payload_bytes(rank, &send);
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Gathers);
    let reduced_local: Vec<SelectedSolution> = if is_leader {
        reduced_local
    } else {
        let mut it = recv[leader].iter();
        (0..n_owned)
            .map(|_| read_selected(&mut it, n_sep, bs, N_RHS))
            .collect()
    };

    // ----------------------------------------------- recover interior blocks
    let recoveries: Vec<RecoveredBlocks> =
        quatrex_probe::span("spatial.recover", "rgf.partition", || {
            let t = Instant::now();
            let recoveries: Vec<RecoveredBlocks> = states
                .iter()
                .zip(reduced_local.iter())
                .map(|(st, red)| recover_partition_solve(my_part, st, separators, red))
                .collect();
            flops.add(kind, recoveries.iter().map(|r| r.flops).sum());
            timings.add(slot, t);
            recoveries
        });

    // --------------------------------- gather recovered blocks to the leader
    let mut send: Vec<Vec<c64>> = vec![Vec::new(); n_ranks];
    if !is_leader {
        let mut buf = Vec::new();
        for rec in &recoveries {
            push_recovered(&mut buf, rec);
        }
        send[leader] = buf;
    }
    traffic.boundary_bytes += off_rank_payload_bytes(rank, &send);
    let recv = ctx.alltoallv_tagged(send, wire, CommPhase::Gathers);
    if !is_leader {
        return (Vec::new(), traffic);
    }

    // -------------------------- leader: assemble the full selected solutions
    let mut member_ret: Vec<Vec<(usize, usize, CMatrix)>> = vec![Vec::new(); n_owned];
    let mut member_les: Vec<Vec<Vec<(usize, usize, CMatrix)>>> =
        vec![vec![Vec::new(); N_RHS]; n_owned];
    for member in 1..p_s {
        let mut it = recv[leader + member].iter();
        for e in 0..n_owned {
            member_ret[e].extend(read_triples(&mut it, bs));
            for r in 0..N_RHS {
                member_les[e][r].extend(read_triples(&mut it, bs));
            }
        }
    }
    let sols = recoveries
        .into_iter()
        .zip(reduced_local.iter())
        .enumerate()
        .map(|(e, (own, reduced))| {
            let mut x = BlockTridiagonal::zeros(nb, bs);
            let mut xl: Vec<BlockTridiagonal> = vec![BlockTridiagonal::zeros(nb, bs); N_RHS];
            scatter_separator_blocks(&mut x, &reduced.retarded, separators);
            for (r, m) in xl.iter_mut().enumerate() {
                scatter_separator_blocks(m, &reduced.lesser[r], separators);
            }
            for (i, j, blk) in own.retarded.into_iter().chain(member_ret[e].drain(..)) {
                x.set_block(i, j, blk);
            }
            for (r, own_list) in own.lesser.into_iter().enumerate() {
                for (i, j, blk) in own_list.into_iter().chain(member_les[e][r].drain(..)) {
                    xl[r].set_block(i, j, blk);
                }
            }
            SelectedSolution {
                retarded: x,
                lesser: xl,
                flops: 0,
            }
        })
        .collect();
    (sols, traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;
    use quatrex_runtime::ThreadComm;

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
        assert_eq!(grid.leader_of(2), 4);
        assert!(grid.is_leader(4));
        assert!(!grid.is_leader(5));
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

        let triples = vec![
            (
                0usize,
                1usize,
                CMatrix::from_fn(2, 2, |r, c| cplx(r as f64, c as f64)),
            ),
            (3, 3, CMatrix::identity(2)),
        ];
        let mut buf = Vec::new();
        push_triples(&mut buf, &triples);
        let mut it = buf.iter();
        let back = read_triples(&mut it, 2);
        assert_eq!(back.len(), 2);
        assert_eq!((back[0].0, back[0].1), (0, 1));
        assert_eq!((back[1].0, back[1].1), (3, 3));
        assert!(back[0].2.approx_eq(&triples[0].2, 0.0));
    }

    #[test]
    fn partition_slice_round_trips_exactly_and_beats_the_broadcast() {
        let (nb, bs) = (9, 3);
        let a = test_system(nb, bs);
        let b1 = test_rhs(nb, bs, 1.3);
        let b2 = test_rhs(nb, bs, -0.4);
        let parts = spatial_partition_layout(nb, 3).unwrap();
        let full = PartitionSlice::full_broadcast_values(nb, bs, 2);
        for (p, part) in parts.iter().enumerate() {
            let slice = PartitionSlice::extract(&a, &[&b1, &b2], part, p);
            assert!(
                slice.wire_values() * 2 < full,
                "slice {} of full {full}",
                slice.wire_values()
            );
            let mut buf = Vec::new();
            slice.encode(&mut buf);
            assert_eq!(buf.len(), slice.wire_values());
            let mut it = buf.iter();
            let back = PartitionSlice::decode(&mut it, bs);
            assert!(it.next().is_none(), "decode consumes the full message");
            assert_eq!(back.partition, p);
            assert_eq!(back.system.n_rhs(), 2);
            assert!(back
                .system
                .a_int
                .to_dense()
                .approx_eq(&slice.system.a_int.to_dense(), 0.0));
            for (x, y) in back.system.rhs_int.iter().zip(&slice.system.rhs_int) {
                assert!(x.to_dense().approx_eq(&y.to_dense(), 0.0));
            }
            assert_eq!(back.system.boundaries.len(), slice.system.boundaries.len());
            for (x, y) in back.system.boundaries.iter().zip(&slice.system.boundaries) {
                assert_eq!((x.sep, x.left), (y.sep, y.left));
                assert!(x.a_sep_to_int.approx_eq(&y.a_sep_to_int, 0.0));
                assert!(x.a_int_to_sep.approx_eq(&y.a_int_to_sep, 0.0));
                for r in 0..2 {
                    assert!(x.rhs_sep_to_int[r].approx_eq(&y.rhs_sep_to_int[r], 0.0));
                    assert!(x.rhs_int_to_sep[r].approx_eq(&y.rhs_int_to_sep[r], 0.0));
                }
            }
        }
    }

    #[test]
    fn empty_interior_partition_slice_is_header_only() {
        let (nb, bs) = (6, 2);
        let a = test_system(nb, bs);
        let b = test_rhs(nb, bs, 2.1);
        let parts = spatial_partition_layout(nb, 3).unwrap();
        assert_eq!(parts[1].interior().len(), 0);
        let slice = PartitionSlice::extract(&a, &[&b], &parts[1], 1);
        assert_eq!(slice.wire_values(), 2, "empty interior ships headers only");
        let mut buf = Vec::new();
        slice.encode(&mut buf);
        let mut it = buf.iter();
        let back = PartitionSlice::decode(&mut it, bs);
        assert_eq!(back.system.a_int.n_blocks(), 0);
        assert!(back.system.boundaries.is_empty());
    }

    #[test]
    fn spatial_phase_solve_matches_rgf_solve_within_one_group() {
        // One energy group of P_S = 2 ranks cooperating on 3 energy points.
        let (nb, bs, p_s, n_owned) = (6usize, 2usize, 2usize, 3usize);
        let problems: Vec<(BlockTridiagonal, BlockTridiagonal, BlockTridiagonal)> = (0..n_owned)
            .map(|e| {
                (
                    test_system(nb, bs),
                    test_rhs(nb, bs, 1.0 + e as f64),
                    test_rhs(nb, bs, -0.5 - e as f64),
                )
            })
            .collect();
        let group_solve = |p_s: usize| {
            let layout = SpatialLayout::new(p_s, p_s, nb, bs);
            let problems = problems.clone();
            ThreadComm::run(p_s, move |ctx: RankContext<Vec<c64>>| {
                let systems: Vec<[&BlockTridiagonal; 3]> = if layout.grid.is_leader(ctx.rank()) {
                    problems.iter().map(|(a, rl, rg)| [a, rl, rg]).collect()
                } else {
                    Vec::new()
                };
                spatial_phase_solve(
                    &ctx,
                    &layout,
                    Subsystem::Electron,
                    &systems,
                    n_owned,
                    &mut RgfBatchScratch::new(),
                    &FlopCounter::new(),
                    &KernelTimings::default(),
                )
            })
        };

        // A one-member group IS the local batched solve: bit for bit, and no
        // byte leaves the rank.
        let (single, single_stats) = group_solve(1);
        let lhs: Vec<&BlockTridiagonal> = problems.iter().map(|p| &p.0).collect();
        let rhs: Vec<[&BlockTridiagonal; 2]> = problems.iter().map(|p| [&p.1, &p.2]).collect();
        let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
        let mut want = vec![SelectedSolution::zeros(nb, bs, 2); n_owned];
        quatrex_rgf::rgf_solve_batch_into(&lhs, &rhs, &mut want, &mut RgfBatchScratch::new())
            .unwrap();
        let (single_sols, single_traffic) = &single[0];
        assert_eq!(single_sols.len(), n_owned);
        for (got, want) in single_sols.iter().zip(&want) {
            assert!(got
                .retarded
                .to_dense()
                .approx_eq(&want.retarded.to_dense(), 0.0));
            for r in 0..2 {
                assert!(got.lesser[r]
                    .to_dense()
                    .approx_eq(&want.lesser[r].to_dense(), 0.0));
            }
            assert_eq!(got.flops, want.flops);
        }
        assert_eq!(*single_traffic, SpatialTraffic::default());
        assert_eq!(
            single_stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );

        let (results, stats) = group_solve(p_s);

        let (leader_sols, leader_traffic) = &results[0];
        assert_eq!(leader_sols.len(), n_owned);
        assert!(
            leader_traffic.boundary_bytes > 0,
            "the leader must ship boundary data"
        );
        // The slice-wise distribution ships strictly less than the pre-slice
        // full-system broadcast would have (the criterion is asserted with
        // slack at the solver level; here the raw counters must line up).
        assert!(leader_traffic.slice_bytes > 0);
        assert!(leader_traffic.slice_bytes < leader_traffic.broadcast_equivalent_bytes);
        assert!(
            leader_traffic.slice_bytes <= leader_traffic.boundary_bytes,
            "slices are part of the boundary traffic"
        );
        assert_eq!(
            results[1].1.broadcast_equivalent_bytes, 0,
            "only leaders account the broadcast equivalent"
        );
        assert!(results[1].0.is_empty(), "non-leaders return nothing");
        for (e, (a, rl, rg)) in problems.iter().enumerate() {
            let seq = rgf_solve(a, &[rl, rg]).unwrap();
            let got = &leader_sols[e];
            let scale = seq.retarded.norm_fro().max(1e-300);
            for i in 0..nb {
                assert!(
                    got.retarded.diag(i).distance(seq.retarded.diag(i)) / scale < 1e-12,
                    "energy {e} retarded diag {i}"
                );
            }
            for r in 0..2 {
                let scale = seq.lesser[r].norm_fro().max(1e-300);
                for i in 0..nb {
                    assert!(
                        got.lesser[r].diag(i).distance(seq.lesser[r].diag(i)) / scale < 1e-12,
                        "energy {e} lesser[{r}] diag {i}"
                    );
                    if i + 1 < nb {
                        assert!(
                            got.lesser[r].upper(i).distance(seq.lesser[r].upper(i)) / scale < 1e-12,
                            "energy {e} lesser[{r}] upper {i}"
                        );
                    }
                }
            }
        }
        // Every byte of group traffic is visible to the communicator stats.
        let measured: u64 = results.iter().map(|(_, t)| t.boundary_bytes).sum();
        assert_eq!(
            stats
                .alltoall_bytes
                .load(std::sync::atomic::Ordering::Relaxed),
            measured
        );
    }
}
