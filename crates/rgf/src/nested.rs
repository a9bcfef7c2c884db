//! Spatial domain decomposition of the selected solvers (paper Section 5.4).
//!
//! The recursive Green's function algorithm is inherently sequential along the
//! transport axis. To simulate devices whose block count exceeds a single
//! memory domain, the paper permutes the block-tridiagonal system with a
//! nested-dissection ("arrow") scheme: the block range is split into `P_S`
//! partitions ([`crate::layout`]) whose interiors are eliminated
//! **independently** (each on its own rank), a *reduced system* over the
//! partition boundary blocks is formed and solved, and the interior selected
//! blocks are recovered independently again. Every partition runs the
//! batched RGF recursion of [`crate::batch`] over its own block range; none
//! builds fill-in.
//!
//! Two entry points are provided:
//!
//! * [`nested_dissection_invert`] — the retarded selected inverse only;
//! * [`nested_dissection_solve`] — the full quadratic problem: the retarded
//!   selected inverse *plus* the lesser/greater selected blocks
//!   `X≶ = A⁻¹·B≶·A⁻†` for any number of right-hand sides. Eliminating the
//!   partition interiors `I` leaves the reduced system over the separators
//!   `S`,
//!
//!   ```text
//!   S = A_SS − A_SI·A_I⁻¹·A_IS
//!   B̃ = B_SS − A_SI·A_I⁻¹·B_IS − B_SI·A_I⁻†·A_SI† + A_SI·A_I⁻¹·B_II·A_I⁻†·A_SI†
//!   ```
//!
//!   whose solution `X_SS = S⁻¹`, `X≶_SS = S⁻¹·B̃·S⁻†` is the full solution's
//!   at the separators. The partitions' terms of `S` and `B̃` are gathered
//!   like any block, and the reduced problem is itself a selected RGF solve.
//!
//! **One shape in and out.** A system is the list `[A, B_1, …, B_n]`. A
//! partition reads blocks `lo..=hi` of it as plain [`BlockTridiagonal`]
//! sub-ranges in local indices ([`partition_ranges`]; the separator↔interior
//! couplings are the sub-range's own first/last off-diagonals), sends up the
//! `nbd × nbd` grid of reduced-system updates per matrix (`nbd ∈ {1, 2}`
//! separators, fixed by the layout — no indices travel), and returns a
//! [`SelectedSolution`] over the same `lo..=hi` range that
//! [`assemble_solution_into`] copies into place. A pure-separator partition (empty
//! interior) reads, sends and returns nothing.
//!
//! **End partitions are the RGF sweeps.** A partition with one separator —
//! both at `P_S = 2`, the two ends at `P_S ≥ 3` — runs the batched RGF
//! recursion of [`crate::batch`] itself, in separator-last order (the
//! right-hand end block-reversed, [`BlockTridiagonal::reversed`]): the forward
//! half over its range stops before the separator's inversion, and that
//! step's Schur term `−A_{s,e}·g_e·A_{e,s}` and `inner` terms
//! `A_{s,e}·g≶_e·A_{s,e}† − A_{s,e}·g_e·B_{e,s} − B_{s,e}·g_e†·A_{s,e}†` are
//! its `1 × 1` update grid; recovery is the backward half seeded at the
//! separator with the reduced solution's diagonal blocks. Its cost is one RGF
//! solve of its range; at `P_S = 2` the partitions plus the reduced system
//! cost exactly one sequential solve.
//!
//! **Middle partitions are closed ranges.** A partition with two separators,
//! `t` (its first block) and `b` (its last), around the interior `1..=n`,
//! runs the same stopped forward half twice: over `[1..=n, b]`, which gives
//! the grid entry `u_bb` and the left-connected `g^L_k`, and block-reversed
//! over `[t, 1..=n]`, which gives `u_tt` and the right-connected `g^R_k`. The
//! cross entries `u_tb`, `u_bt` need the first and last rows of the interior
//! inverse, `F_1 = g^R_1`, `F_j = −F_{j−1}·A_{j−1,j}·g^R_j` and
//! `L_n = g^L_n`, `L_k = −L_{k+1}·A_{k+1,k}·g^L_k` (`cross_update`).
//!
//! Recovery *closes* the range. Outside it the device couples only to `t`
//! and `b`, and the two outside pieces are disconnected from each other, so
//! their whole effect on the range is a self-energy on the diagonal blocks
//! `t` and `b`, retarded and lesser/greater. The range with those four
//! blocks replaced (`A'`, `B'`) has the whole device's selected solution on
//! `lo..=hi`, and eliminating its interior gives back the reduced solution:
//! `X_SS⁻¹ = A'_SS + u_SS` and `X≶_SS = X_SS·(B'_SS + u≶_SS)·X_SS†`. With
//! `Y = X_SS⁻¹` (one `2·N_BS` inversion) the closure is
//!
//! ```text
//! A'_tt = Y_tt − u_tt        B'_tt = (Y·X≶_SS·Y†)_tt − u≶_tt        (same at b)
//! ```
//!
//! and one batched RGF solve of the closed range returns every selected block
//! of it. At two right-hand sides a middle partition of `n` interior blocks
//! costs `185·n + 176` units of `8·N_BS³`, an end partition `127·n`.
//!
//! **One elimination entry point.** [`eliminate_partition_into`] takes the
//! ranges of a whole batch of same-shape systems (the energies a rank owns)
//! and runs their RGF work as batched solves against the caller's scratch,
//! and [`recover_partition_into`] recovers such a batch;
//! [`solve_systems_into`] does the same for the reduced systems. Each writes
//! into kept states or solutions. The single-process driver
//! ([`nested_dissection_solve_with_layout`]) is the batch of one; a
//! distributed driver (`quatrex_core::dist`) runs the same phase functions
//! ([`eliminate_partition_into`], [`assemble_reduced_system_into`],
//! [`recover_partition_into`], [`assemble_solution_into`]) on different ranks and
//! gathers only the reduced-system updates — the `O(P_S·N_BS²)` boundary
//! traffic of the paper.

use quatrex_linalg::lu::LuScratch;
use quatrex_linalg::CMatrix;
use quatrex_sparse::BlockTridiagonal;

use crate::batch::{
    eliminate_to_last, recover_to_first, rgf_solve_batch_into, ForwardSweep, RgfBatchScratch,
};
use crate::layout::{
    separator_blocks, spatial_partition_layout, validate_partition_layout, SpatialPartition,
};
use crate::sequential::{rgf_solve, RgfError, SelectedSolution};

#[path = "nested_middle.rs"]
mod middle;
use middle::{close_range, cross_update, inverse_row};

/// Configuration of the nested-dissection solvers.
#[derive(Debug, Clone)]
pub struct NestedConfig {
    /// Number of spatial partitions `P_S` (the paper uses 2 or 4).
    pub n_partitions: usize,
}

impl NestedConfig {
    /// Convenience constructor.
    pub fn new(n_partitions: usize) -> Self {
        Self { n_partitions }
    }
}

/// Workload attributed to one partition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionWorkload {
    /// Partition index (0 = top / source side).
    pub partition: usize,
    /// Number of blocks owned by the partition.
    pub blocks: usize,
    /// Real FLOPs spent in the partition's parallel phases.
    pub flops: u64,
}

/// Workload report of one distributed selected inversion / solve.
#[derive(Debug, Clone)]
pub struct NestedReport {
    /// Per-partition workloads (parallel phases only).
    pub partitions: Vec<PartitionWorkload>,
    /// FLOPs of the sequentially solved reduced system.
    pub reduced_system_flops: u64,
    /// Number of boundary blocks in the reduced system.
    pub reduced_system_blocks: usize,
    /// Blocks communicated to assemble the reduced system (the `O(P_S·N_BS²)`
    /// gather cost of the paper).
    pub communicated_blocks: usize,
}

impl NestedReport {
    /// Total FLOPs over all phases.
    pub fn total_flops(&self) -> u64 {
        self.partitions.iter().map(|p| p.flops).sum::<u64>() + self.reduced_system_flops
    }

    /// FLOPs of the busiest partition (the critical path of the parallel phase).
    pub fn critical_path_flops(&self) -> u64 {
        self.partitions.iter().map(|p| p.flops).max().unwrap_or(0) + self.reduced_system_flops
    }

    /// Ratio of boundary-partition to middle-partition workload (the paper
    /// reports ~60% without load balancing). `None` without a middle
    /// partition (`P_S < 3`) or when every middle partition is a pure
    /// separator, which does no work to compare against.
    pub fn boundary_to_middle_ratio(&self) -> Option<f64> {
        let [first, middle @ .., last] = self.partitions.as_slice() else {
            return None;
        };
        let mid_total: u64 = middle.iter().map(|p| p.flops).sum();
        if mid_total == 0 {
            return None;
        }
        let mid_avg = mid_total as f64 / middle.len() as f64;
        Some(0.5 * (first.flops + last.flops) as f64 / mid_avg)
    }

    /// Workload of the average *middle* partition relative to an even
    /// `1/P_S` share of the given sequential solve (the extra elimination and
    /// recovery work of the decomposition). `None` when there is no middle
    /// partition (`P_S < 3`) or no sequential reference.
    pub fn middle_partition_factor(&self, sequential_flops: u64) -> Option<f64> {
        if self.partitions.len() < 3 || sequential_flops == 0 {
            return None;
        }
        let middle = &self.partitions[1..self.partitions.len() - 1];
        let mid_avg = middle.iter().map(|p| p.flops as f64).sum::<f64>() / middle.len() as f64;
        let share = sequential_flops as f64 / self.partitions.len() as f64;
        Some(mid_avg / share)
    }
}

/// Index, in the reduced system, of the first separator of partition `p`
/// (the separators ascend `p0.hi, p1.lo, p1.hi, p2.lo, …`).
fn first_separator(p: usize) -> usize {
    (2 * p).saturating_sub(1)
}

/// What one partition reads of a system `[A, B_1, …]`: every matrix cut to
/// [`SpatialPartition::range`] — nothing for a pure-separator partition.
pub fn partition_ranges(
    system: &[&BlockTridiagonal],
    part: &SpatialPartition,
) -> Vec<BlockTridiagonal> {
    system.iter().map(|m| m.sub_range(part.range())).collect()
}

/// [`solve_systems_into`] into fresh solutions.
pub(crate) fn solve_systems(
    systems: &[Vec<BlockTridiagonal>],
    scratch: &mut RgfBatchScratch,
) -> Result<Vec<SelectedSolution>, RgfError> {
    let mut sols = vec![SelectedSolution::zeros(0, 0, 0); systems.len()];
    solve_systems_into(systems, &mut sols, scratch)?;
    Ok(sols)
}

/// One batched selected solve of same-shape systems `[A, B_1, …]`
/// ([`rgf_solve_batch_into`]) against `scratch`, into kept solutions (one
/// per system).
pub fn solve_systems_into<S: AsRef<[BlockTridiagonal]>>(
    systems: &[S],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    let ops = split_systems(systems.iter().map(AsRef::as_ref));
    rgf_solve_batch_into(&ops.lhs, &ops.rhs_lists(), sols, scratch).map_err(|e| e.error)
}

/// The operand lists of a batch of same-shape systems `[A, B_1, …]`: the
/// system matrices, and every system's right-hand sides in one flat list.
struct Operands<'a> {
    lhs: Vec<&'a BlockTridiagonal>,
    rhs: Vec<&'a BlockTridiagonal>,
    n_rhs: usize,
}

impl<'a> Operands<'a> {
    /// The right-hand-side list of every system.
    fn rhs_lists(&self) -> Vec<&[&'a BlockTridiagonal]> {
        if self.n_rhs == 0 {
            return vec![&[]; self.lhs.len()];
        }
        self.rhs.chunks_exact(self.n_rhs).collect()
    }
}

/// The operand lists of `systems`.
fn split_systems<'a>(
    systems: impl ExactSizeIterator<Item = &'a [BlockTridiagonal]>,
) -> Operands<'a> {
    let mut lhs = Vec::with_capacity(systems.len());
    let (mut rhs, mut n_rhs) = (Vec::new(), None);
    for system in systems {
        let (a, b) = system.split_first().expect("a system holds its matrix"); // lint:allow(no-unwrap): every system is `[A, B_1, …]`
        if n_rhs.is_none() {
            rhs.reserve(lhs.capacity() * b.len());
        }
        assert_eq!(*n_rhs.get_or_insert(b.len()), b.len(), "same-shape systems");
        lhs.push(a);
        rhs.extend(b);
    }
    let n_rhs = n_rhs.unwrap_or(0);
    Operands { lhs, rhs, n_rhs }
}

/// A loaded state's range (a one-separator state's in separator-last order
/// once eliminated).
fn loaded_range(st: &PartitionSolveState) -> &[BlockTridiagonal] {
    match &st.recovery {
        Recovery::Sweep { range, .. } | Recovery::Range(range) => range,
        Recovery::Nothing => unreachable!("a state with an interior"),
    }
}

/// Recovery state a partition keeps between the elimination and recovery
/// phases (never communicated); kept states are rewritten in place. Both range-carrying states are owned copies:
/// the caller's ranges are borrowed, and until this partition recovers, the
/// scratch's block store serves the other chunks' eliminations and the
/// reduced solves. A copy is `O(N_BS²)` per block; the sweeps are `O(N_BS³)`.
#[derive(Default)]
enum Recovery {
    /// A pure-separator partition recovers nothing.
    #[default]
    Nothing,
    /// One separator: the range in separator-last order (block-reversed
    /// when the separator is its first block) and the forward sweep over it,
    /// for the backward sweep seeded at the separator.
    Sweep {
        range: Vec<BlockTridiagonal>,
        forward: ForwardSweep,
    },
    /// Two separators: the range, to be closed by the reduced solution.
    Range(Vec<BlockTridiagonal>),
}

/// Per-partition, per-system result of the elimination phase. The `updates`
/// must be gathered wherever the reduced system is assembled; the recovery
/// state stays local. The `Default` is an empty state for
/// [`eliminate_partition_into`] to fill.
#[derive(Default)]
pub struct PartitionSolveState {
    /// Reduced-system updates to gather: for every matrix of the system (`A`,
    /// then each right-hand side) the `nbd × nbd` grid of updates between the
    /// partition's separators — the Schur-complement terms of `S` and the
    /// quadratic terms of `B̃` (module docs) — row-major, left separator
    /// first: entry `(m·nbd + i)·nbd + j`. Empty for an empty interior.
    pub updates: Vec<CMatrix>,
    /// Workload bookkeeping of the elimination phase.
    pub workload: PartitionWorkload,
    recovery: Recovery,
}

/// [`eliminate_partition_into`] of systems given as their
/// [`partition_ranges`], into fresh states.
pub(crate) fn eliminate_partition(
    ranges: &[Vec<BlockTridiagonal>],
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<Vec<PartitionSolveState>, RgfError> {
    let mut states: Vec<PartitionSolveState> = ranges.iter().map(|_| Default::default()).collect();
    let systems: Vec<Vec<&BlockTridiagonal>> = ranges.iter().map(|r| r.iter().collect()).collect();
    eliminate_partition_into(&mut states, &systems, 0, part, index, scratch)?;
    Ok(states)
}

/// Eliminate the interior of one partition for a batch of same-shape systems
/// (typically the energies a rank owns) against `scratch`, into kept
/// `states` (one per system). Each system `[A, B_1, …]` is read from block
/// `offset` on: `0` for its [`partition_ranges`], the partition's `lo` for
/// the full system. The range is copied into the state
/// ([`PartitionSolveState::range_mut`]), then eliminated there
/// ([`eliminate_loaded`]). A partition with **one** separator runs the
/// batched forward RGF sweep over its range towards the separator and stops
/// before the separator's inversion: that step's Schur and `inner` terms are
/// its update grid. A partition with two separators runs that stopped sweep
/// towards each separator and adds the cross entries between them from two
/// rows of its interior inverse (module docs). A system's result does not
/// depend on the batch it is eliminated in.
pub fn eliminate_partition_into<'a, S: AsRef<[&'a BlockTridiagonal]>>(
    states: &mut [PartitionSolveState],
    systems: &[S],
    offset: usize,
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    assert_eq!(states.len(), systems.len(), "one state per system");
    let range = offset..offset + part.range().len();
    for (st, system) in states.iter_mut().zip(systems) {
        let system = system.as_ref();
        for (dst, src) in st.range_mut(part, system.len()).iter_mut().zip(system) {
            dst.copy_range_from(src, range.clone());
        }
    }
    eliminate_loaded(states, part, index, scratch)
}

impl PartitionSolveState {
    /// The `n_matrices` buffers `[A, B_1, …]` this state keeps partition
    /// `part`'s block range of its system in (none for an empty interior):
    /// fill every block with blocks `lo..=hi` of the system, as
    /// [`partition_ranges`] cuts them, then eliminate with
    /// [`eliminate_loaded`].
    pub fn range_mut(
        &mut self,
        part: &SpatialPartition,
        n_matrices: usize,
    ) -> &mut [BlockTridiagonal] {
        if part.interior().is_empty() {
            self.recovery = Recovery::Nothing;
            return &mut [];
        }
        let one = part.n_separators() == 1;
        match (&self.recovery, one) {
            (Recovery::Sweep { .. }, true) | (Recovery::Range(_), false) => {}
            (_, true) => {
                self.recovery = Recovery::Sweep {
                    range: Vec::new(),
                    forward: ForwardSweep::default(),
                }
            }
            (_, false) => self.recovery = Recovery::Range(Vec::new()),
        }
        let (Recovery::Sweep { range, .. } | Recovery::Range(range)) = &mut self.recovery else {
            unreachable!("shaped just above")
        };
        range.resize_with(n_matrices, BlockTridiagonal::default);
        range
    }
}

/// [`eliminate_partition_into`] of states whose ranges are loaded
/// ([`PartitionSolveState::range_mut`]). A one-separator partition
/// eliminates in place: once warmed at a shape it allocates only the
/// batch's operand lists.
pub fn eliminate_loaded(
    states: &mut [PartitionSolveState],
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    quatrex_probe::span("rgf.eliminate_partition", "rgf.partition", || {
        let n = part.interior().len();
        let workload = |flops| PartitionWorkload {
            partition: index,
            blocks: part.hi - part.lo + 1,
            flops,
        };
        if n == 0 {
            // Pure-separator partition: nothing to eliminate, nothing to update
            // (its separator blocks enter the reduced system unmodified).
            for st in states.iter_mut() {
                st.updates.clear();
                st.workload = workload(0);
                st.recovery = Recovery::Nothing;
            }
            return Ok(());
        }
        if part.n_separators() == 1 {
            // The range in separator-last order: block-reversed when the
            // separator is its first block.
            if part.left_boundary.is_some() {
                for st in states.iter_mut() {
                    if let Recovery::Sweep { range, .. } = &mut st.recovery {
                        range.iter_mut().for_each(BlockTridiagonal::reverse);
                    }
                }
            }
            let flops = sweep_states(states, scratch)?;
            for st in states.iter_mut() {
                st.workload = workload(flops);
            }
            return Ok(());
        }
        // Two separators, t = 0 and b = n + 1: stopped sweeps towards b over
        // [1..=n, b] and towards t over the reversed [t, 1..=n].
        // Blocks `range` of every system, block-reversed when `reverse`.
        let cut = |range: std::ops::Range<usize>, reverse: bool| -> Vec<Vec<BlockTridiagonal>> {
            let cut_one = |m: &BlockTridiagonal| {
                let sub = m.sub_range(range.clone());
                if reverse {
                    sub.reversed()
                } else {
                    sub
                }
            };
            let sub = |st| loaded_range(st).iter().map(cut_one).collect();
            states.iter().map(sub).collect()
        };
        let (to_b, left, flops_b) = sweep_to_separator(&cut(1..n + 2, false), scratch)?;
        let (to_t, right, flops_t) = sweep_to_separator(&cut(0..n + 1, true), scratch)?;
        let grids = to_t.into_iter().zip(to_b);
        let sweeps = right.iter().zip(&left);
        for (st, ((u_tt, u_bb), (right, left))) in states.iter_mut().zip(grids.zip(sweeps)) {
            let sub = loaded_range(st);
            let (first_row, flops_f) = inverse_row(right, |w| sub[0].upper(w));
            let (mut last_row, flops_l) = inverse_row(left, |w| sub[0].lower(n - w));
            last_row.reverse();
            let (u_tb, flops_tb) = cross_update(sub, &first_row, &last_row, (0, 1), (n + 1, n));
            let (u_bt, flops_bt) = cross_update(sub, &last_row, &first_row, (n + 1, n), (0, 1));
            let grid = u_tt.into_iter().zip(u_tb).zip(u_bt).zip(u_bb);
            st.updates = grid
                .flat_map(|(((tt, tb), bt), bb)| [tt, tb, bt, bb])
                .collect();
            let flops = flops_t + flops_b + flops_f + flops_l + flops_tb + flops_bt;
            st.workload = workload(flops);
        }
        Ok(())
    })
}

/// The batched forward RGF half over the ranges of one-separator states
/// ([`eliminate_to_last`]), into the states' update grids and forward
/// sweeps. Returns the per-system FLOPs.
fn sweep_states(
    states: &mut [PartitionSolveState],
    scratch: &mut RgfBatchScratch,
) -> Result<u64, RgfError> {
    let sweep = |st: &mut PartitionSolveState| match &mut st.recovery {
        Recovery::Sweep { forward, .. } => std::mem::take(forward),
        _ => unreachable!("a one-separator state"),
    };
    let mut sweeps: Vec<ForwardSweep> = states.iter_mut().map(sweep).collect();
    let mut updates: Vec<Vec<CMatrix>> = states
        .iter_mut()
        .map(|st| std::mem::take(&mut st.updates))
        .collect();
    let ops = split_systems(states.iter().map(loaded_range));
    let (lhs, rhs, n_rhs) = (&ops.lhs, ops.rhs_lists(), ops.n_rhs);
    let bs = lhs[0].block_size();
    for grid in &mut updates {
        grid.resize_with(1 + n_rhs, CMatrix::default);
        grid.iter_mut().for_each(|u| {
            u.fit(bs, bs);
        });
    }
    let flops = eliminate_to_last(lhs, &rhs, &mut updates, &mut sweeps, scratch);
    for ((st, grid), sweep) in states.iter_mut().zip(updates).zip(sweeps) {
        st.updates = grid;
        if let Recovery::Sweep { forward, .. } = &mut st.recovery {
            *forward = sweep;
        }
    }
    flops.map_err(|e| e.error)
}

/// The batched forward RGF half over systems `[A, B_1, …]` whose last block
/// is a separator ([`eliminate_to_last`]): per system the separator's
/// updates (`1 + n_rhs` blocks) and the forward sweep, and the per-system
/// FLOPs.
#[allow(clippy::type_complexity)]
fn sweep_to_separator(
    systems: &[Vec<BlockTridiagonal>],
    scratch: &mut RgfBatchScratch,
) -> Result<(Vec<Vec<CMatrix>>, Vec<ForwardSweep>, u64), RgfError> {
    let ops = split_systems(systems.iter().map(Vec::as_slice));
    let (lhs, rhs, n_rhs) = (&ops.lhs, ops.rhs_lists(), ops.n_rhs);
    let bs = lhs[0].block_size();
    let mut updates = vec![vec![CMatrix::zeros(bs, bs); 1 + n_rhs]; systems.len()];
    let mut sweeps = vec![ForwardSweep::default(); systems.len()];
    let flops =
        eliminate_to_last(lhs, &rhs, &mut updates, &mut sweeps, scratch).map_err(|e| e.error)?;
    Ok((updates, sweeps, flops))
}

/// Assemble the reduced boundary system `[S, B̃_1, …]` of one system
/// `[A, B_1, …]`: its separator blocks plus the gathered per-partition
/// `updates` (one [`PartitionSolveState::updates`] per partition, in layout
/// order).
pub(crate) fn assemble_reduced_system(
    system: &[&BlockTridiagonal],
    parts: &[SpatialPartition],
    updates: &[&[CMatrix]],
) -> Vec<BlockTridiagonal> {
    let mut reduced = vec![BlockTridiagonal::default(); system.len()];
    let separators = separator_blocks(parts);
    assemble_reduced_system_into(&mut reduced, system, parts, &separators, |p| updates[p]);
    reduced
}

/// `assemble_reduced_system` into kept matrices (one per matrix of the
/// system), `separators` the layout's [`separator_blocks`] and `updates(p)`
/// partition `p`'s update grid.
pub fn assemble_reduced_system_into<'u>(
    reduced: &mut [BlockTridiagonal],
    system: &[&BlockTridiagonal],
    parts: &[SpatialPartition],
    separators: &[usize],
    updates: impl Fn(usize) -> &'u [CMatrix],
) {
    let n_sep = separators.len();
    for (red, m) in reduced.iter_mut().zip(system) {
        red.fit(n_sep, m.block_size());
        red.set_zero();
        for (k, &s) in separators.iter().enumerate() {
            red.diag_mut(k).copy_from(m.diag(s));
            if k + 1 < n_sep && separators[k + 1] == s + 1 {
                // Physically adjacent separators keep their original
                // coupling; separators of the same partition start
                // uncoupled (their coupling comes from the eliminated
                // interior alone).
                red.upper_mut(k).copy_from(m.upper(s));
                red.lower_mut(k).copy_from(m.lower(s));
            }
        }
    }
    for (p, part) in parts.iter().enumerate() {
        let upd = updates(p);
        if upd.is_empty() {
            continue;
        }
        let (nbd, first) = (part.n_separators(), first_separator(p));
        for (m, red) in reduced.iter_mut().enumerate() {
            for i in 0..nbd {
                for j in 0..nbd {
                    let target = match i.cmp(&j) {
                        std::cmp::Ordering::Equal => red.diag_mut(first + i),
                        std::cmp::Ordering::Less => red.upper_mut(first + i),
                        std::cmp::Ordering::Greater => red.lower_mut(first + j),
                    };
                    *target += &upd[(m * nbd + i) * nbd + j];
                }
            }
        }
    }
}

/// [`recover_partition_into`] into fresh solutions.
pub(crate) fn recover_partition(
    part: &SpatialPartition,
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Vec<SelectedSolution> {
    let mut sols = vec![SelectedSolution::default(); states.len()];
    recover_partition_into(part, states, reduced, &mut sols, scratch);
    sols
}

/// Recover the selected blocks of one partition for a batch of systems —
/// interior, separator diagonals and the couplings between them — from their
/// [`eliminate_partition_into`] states and the selected solutions of their
/// reduced boundary systems (one each, same order), against `scratch`. A
/// one-separator partition runs the batched backward RGF sweep over its
/// range, seeded at the separator with the reduced solution's diagonal
/// blocks; a two-separator partition closes its range with the reduced
/// solution at its separators and runs one batched RGF solve of it (module
/// docs). Writes one [`SelectedSolution`] over [`SpatialPartition::range`]
/// per system into the kept `sols` (its `flops` are the recovery's); a
/// system's result does not depend on the batch. A one-separator partition
/// recovers in place: once warmed at a shape it allocates only the batch's
/// operand lists.
pub fn recover_partition_into(
    part: &SpatialPartition,
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) {
    assert_eq!(states.len(), reduced.len(), "one reduced solution each");
    assert_eq!(states.len(), sols.len(), "one solution each");
    quatrex_probe::span("rgf.recover_partition", "rgf.partition", || {
        let Some(first) = states.first() else {
            return;
        };
        // The partition's first separator in the reduced system.
        let sep = first_separator(first.workload.partition);
        match &first.recovery {
            Recovery::Nothing => {
                for (sol, red) in sols.iter_mut().zip(reduced) {
                    *sol = SelectedSolution::zeros(0, red.retarded.block_size(), red.lesser.len());
                }
            }
            Recovery::Sweep { .. } => recover_end(part, states, reduced, sep, sols, scratch),
            Recovery::Range(_) => {
                let recovered = recover_middle(states, reduced, sep, scratch);
                for (sol, rec) in sols.iter_mut().zip(recovered) {
                    *sol = rec;
                }
            }
        }
    })
}

/// [`recover_partition_into`] of a one-separator partition whose separator
/// is block `sep` of the reduced systems.
fn recover_end(
    part: &SpatialPartition,
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    sep: usize,
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) {
    let forward: Vec<&ForwardSweep> = states
        .iter()
        .map(|st| match &st.recovery {
            Recovery::Sweep { forward, .. } => forward,
            _ => panic!("not an end partition's state"),
        })
        .collect();
    let ops = split_systems(states.iter().map(loaded_range));
    let (lhs, rhs, n_rhs) = (&ops.lhs, ops.rhs_lists(), ops.n_rhs);
    let (n, bs) = (lhs[0].n_blocks(), lhs[0].block_size());
    // The seed: the reduced solution at the partition's one separator.
    for (sol, red) in sols.iter_mut().zip(reduced) {
        sol.fit(n, bs, n_rhs);
        sol.set_zero();
        sol.retarded
            .diag_mut(n - 1)
            .copy_from(red.retarded.diag(sep));
        for (x, xr) in sol.lesser.iter_mut().zip(&red.lesser) {
            x.diag_mut(n - 1).copy_from(xr.diag(sep));
        }
    }
    let flops = recover_to_first(lhs, &rhs, &forward, sols, scratch);
    for sol in sols.iter_mut() {
        if part.left_boundary.is_some() {
            sol.retarded.reverse();
            sol.lesser.iter_mut().for_each(BlockTridiagonal::reverse);
        }
        sol.flops = flops;
    }
}

/// [`recover_partition_into`] of a two-separator partition whose separators are
/// blocks `sep` and `sep + 1` of the reduced systems: every range closed
/// ([`close_range`]), then one batched RGF solve of them all.
fn recover_middle(
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    sep: usize,
    scratch: &mut RgfBatchScratch,
) -> Vec<SelectedSolution> {
    let mut lu = LuScratch::new();
    let (closed, flops): (Vec<_>, Vec<_>) = states
        .iter()
        .zip(reduced)
        .map(|(st, red)| match &st.recovery {
            Recovery::Range(range) => close_range(range, &st.updates, red, sep, &mut lu),
            _ => panic!("not a middle partition's state"),
        })
        .unzip();
    let mut sols = solve_systems(&closed, scratch)
        .expect("a closed range is as regular as the device it is cut from");
    for (sol, closure) in sols.iter_mut().zip(flops) {
        sol.flops += closure;
    }
    sols
}

/// Write the separator diagonal blocks and the couplings between physically
/// adjacent separators of a reduced selected solution back into the global
/// block pattern.
fn scatter_separator_blocks(
    x: &mut BlockTridiagonal,
    reduced: &BlockTridiagonal,
    separators: &[usize],
) {
    for (k, &s) in separators.iter().enumerate() {
        x.diag_mut(s).copy_from(reduced.diag(k));
        if k + 1 < separators.len() && separators[k + 1] == s + 1 {
            x.upper_mut(s).copy_from(reduced.upper(k));
            x.lower_mut(s).copy_from(reduced.lower(k));
        }
    }
}

/// [`assemble_solution_into`] of a whole recovered layout into a fresh
/// solution.
pub(crate) fn assemble_solution(
    n_blocks: usize,
    parts: &[SpatialPartition],
    reduced: &SelectedSolution,
    recovered: &[SelectedSolution],
) -> SelectedSolution {
    let mut sol = SelectedSolution::default();
    let separators = separator_blocks(parts);
    assemble_solution_into(&mut sol, n_blocks, parts, &separators, reduced, |p| {
        &recovered[p]
    });
    sol
}

/// The shared tail of every driver: the selected solution of the full
/// `n_blocks` system, written into the kept `sol`, from the reduced solution
/// (separator blocks, scattered first; `separators` the layout's
/// [`separator_blocks`]) and every partition's [`recover_partition_into`]
/// result in layout order (`recovered(p)`, one range copy each). FLOPs are
/// left at zero for the caller.
pub fn assemble_solution_into<'r>(
    sol: &mut SelectedSolution,
    n_blocks: usize,
    parts: &[SpatialPartition],
    separators: &[usize],
    reduced: &SelectedSolution,
    recovered: impl Fn(usize) -> &'r SelectedSolution,
) {
    let bs = reduced.retarded.block_size();
    sol.fit(n_blocks, bs, reduced.lesser.len());
    sol.set_zero();
    sol.flops = 0;
    scatter_separator_blocks(&mut sol.retarded, &reduced.retarded, separators);
    for (x, red) in sol.lesser.iter_mut().zip(&reduced.lesser) {
        scatter_separator_blocks(x, red, separators);
    }
    for (p, part) in parts.iter().enumerate() {
        let rec = recovered(p);
        sol.retarded.write_range(part.lo, &rec.retarded);
        for (x, sub) in sol.lesser.iter_mut().zip(&rec.lesser) {
            x.write_range(part.lo, sub);
        }
    }
}

/// Distributed selected solve of the quadratic block-tridiagonal problem.
///
/// Returns the same selected blocks as the sequential [`rgf_solve`] — the
/// retarded inverse plus one lesser/greater solution per right-hand side —
/// together with the per-partition workload report. With
/// `config.n_partitions == 1` this *is* [`rgf_solve`] (bit-for-bit); for
/// `P_S ≥ 2` the partition interiors are eliminated one partition at a time,
/// the reduced boundary system (and its quadratic right-hand sides) is
/// assembled from the gathered updates and solved with the sequential RGF,
/// and the interior blocks are recovered partition by partition — on the
/// calling thread; the distributed driver runs the same phases on its ranks.
pub fn nested_dissection_solve(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
    config: &NestedConfig,
) -> Result<(SelectedSolution, NestedReport), RgfError> {
    let nb = a.n_blocks();
    match config.n_partitions {
        0 => Err(RgfError::ShapeMismatch),
        1 => {
            let sol = rgf_solve(a, rhs)?;
            let report = NestedReport {
                partitions: vec![PartitionWorkload {
                    partition: 0,
                    blocks: nb,
                    flops: sol.flops,
                }],
                reduced_system_flops: 0,
                reduced_system_blocks: 0,
                communicated_blocks: 0,
            };
            Ok((sol, report))
        }
        p_s => nested_dissection_solve_with_layout(a, rhs, &spatial_partition_layout(nb, p_s)?),
    }
}

/// [`nested_dissection_solve`] with an explicit partition layout (`P_S ≥ 2`),
/// e.g. the FLOP-balanced one produced by
/// [`crate::layout::partition_layout_balanced`]. The layout must satisfy the
/// [`spatial_partition_layout`] invariants (contiguous cover, consistent
/// separators, ≥ 2 blocks per partition).
pub fn nested_dissection_solve_with_layout(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
    parts: &[SpatialPartition],
) -> Result<(SelectedSolution, NestedReport), RgfError> {
    let nb = a.n_blocks();
    if rhs
        .iter()
        .any(|b| b.n_blocks() != nb || b.block_size() != a.block_size())
    {
        return Err(RgfError::ShapeMismatch);
    }
    validate_partition_layout(parts, nb)?;
    let system: Vec<&BlockTridiagonal> = std::iter::once(a).chain(rhs.iter().copied()).collect();

    // One scratch serves every phase: a partition's state keeps owned copies
    // of what its recovery needs, as on the distributed driver's ranks.
    let mut scratch = RgfBatchScratch::new();

    // Phase 1: eliminate the partition interiors, each a batch of one system.
    let states: Vec<PartitionSolveState> = parts
        .iter()
        .enumerate()
        .map(|(idx, p)| {
            let ranges = [partition_ranges(&system, p)];
            Ok(eliminate_partition(&ranges, p, idx, &mut scratch)?.remove(0))
        })
        .collect::<Result<_, RgfError>>()?;

    // Phase 2: assemble and solve the reduced system over the separators.
    let updates: Vec<&[CMatrix]> = states.iter().map(|s| s.updates.as_slice()).collect();
    let reduced_system = assemble_reduced_system(&system, parts, &updates);
    let reduced = solve_systems(&[reduced_system], &mut scratch)?.remove(0);

    // Phase 3: recover the interior selected blocks.
    let recovered: Vec<SelectedSolution> = parts
        .iter()
        .zip(&states)
        .map(|(part, state)| {
            let (state, reduced) = (std::slice::from_ref(state), std::slice::from_ref(&reduced));
            recover_partition(part, state, reduced, &mut scratch).remove(0)
        })
        .collect();

    let mut sol = assemble_solution(nb, parts, &reduced, &recovered);
    let partitions: Vec<PartitionWorkload> = states
        .iter()
        .zip(&recovered)
        .map(|(state, rec)| PartitionWorkload {
            flops: state.workload.flops + rec.flops,
            ..state.workload.clone()
        })
        .collect();
    let report = NestedReport {
        partitions,
        reduced_system_flops: reduced.flops,
        reduced_system_blocks: reduced.retarded.n_blocks(),
        communicated_blocks: updates.iter().map(|u| u.len()).sum(),
    };
    sol.flops = report.total_flops();
    Ok((sol, report))
}

/// Distributed selected inversion of a block-tridiagonal matrix.
///
/// Returns the same selected blocks (diagonal + first off-diagonals) as the
/// sequential [`crate::rgf_selected_inverse`], plus the per-partition
/// workload report used by the Table 5 reproduction. Requires `P_S ≥ 2`; use
/// [`nested_dissection_solve`] for the degenerate single-partition case.
pub fn nested_dissection_invert(
    a: &BlockTridiagonal,
    config: &NestedConfig,
) -> Result<(BlockTridiagonal, NestedReport), RgfError> {
    if config.n_partitions < 2 {
        return Err(RgfError::ShapeMismatch);
    }
    let (sol, report) = nested_dissection_solve(a, &[], config)?;
    Ok((sol.retarded, report))
}

#[cfg(test)]
#[path = "nested_tests.rs"]
pub(crate) mod tests;
