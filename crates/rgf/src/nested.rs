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
//! sub-ranges in local indices ([`BlockTridiagonal::sub_range`] of
//! [`SpatialPartition::range`]; the separator↔interior couplings are the
//! sub-range's own first/last off-diagonals), sends up the
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
//! runs the same stopped forward half twice, through the end partitions'
//! batched call: over `[1..=n, b]`, which gives
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
//! **One form per phase.** Every phase writes into kept states or solutions
//! and takes a whole batch of same-shape systems (the energies a rank owns)
//! as one [`Systems`] view, running their RGF work as batched solves against
//! the caller's scratch:
//! [`eliminate_partition_into`] loads each system's range into its state and
//! eliminates it, [`eliminate_loaded`] eliminates states loaded otherwise
//! (ranges received over the wire), [`assemble_reduced_system_into`] and
//! [`solve_systems_into`] form and solve the reduced systems,
//! [`recover_partition_into`] recovers a batch and [`assemble_solution_into`]
//! copies the ranges into place. A phase's temporaries live on the kept
//! states (a middle partition's inverse rows and work blocks; its range is
//! closed in place) and on the scratch (the closure's LU), so once warmed
//! at a shape no phase allocates, at any `P_S`. The single-process driver
//! ([`nested_dissection_solve_with_layout`]) runs these calls with every
//! partition a batch of one; the distributed driver (`quatrex_core::dist`)
//! runs the same calls on different ranks and gathers only the
//! reduced-system updates — the `O(P_S·N_BS²)` boundary traffic of the
//! paper.

use quatrex_linalg::CMatrix;
use quatrex_sparse::BlockTridiagonal;

use crate::batch::{
    eliminate_to_last, recover_to_first, solve_systems_into, ForwardSweep, RgfBatchScratch, Systems,
};
use crate::layout::{
    separator_blocks, spatial_partition_layout, validate_partition_layout, SpatialPartition,
};
use crate::sequential::{rgf_solve, RgfError, SelectedSolution};

#[path = "nested_middle.rs"]
mod middle;
use middle::{close_range, cross_update, inverse_row, Work};

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

/// A stopped forward sweep: a range `[A, B_1, …]` whose last block is a
/// separator, and the forward RGF half over it ([`eliminate_to_last`]).
#[derive(Default)]
struct Sweep {
    range: Vec<BlockTridiagonal>,
    forward: ForwardSweep,
}

/// What a two-separator partition keeps: its range, to be closed by the
/// reduced solution, the stopped sweeps towards `b` over `[1..=n, b]` and
/// towards `t` over the reversed `[t, 1..=n]`, the update grids they stop
/// at, `[u_bb, u_tt]` (`1 + n_rhs` blocks each, the diagonal entries of the
/// partition's grid), the first and last rows of its interior inverse, and
/// the work blocks of its algebra (boxed: they are most of its size).
#[derive(Default)]
struct Middle {
    range: Vec<BlockTridiagonal>,
    sweeps: [Sweep; 2],
    grids: [Vec<CMatrix>; 2],
    rows: [Vec<CMatrix>; 2],
    work: Box<Work>,
}

/// Recovery state a partition keeps between the elimination and recovery
/// phases (never communicated); kept states are rewritten in place, so a
/// state warmed at a shape allocates nothing in either phase. Every range is
/// a copy the state keeps: the caller's ranges are borrowed, and until this
/// partition recovers, the scratch's block store serves the other chunks'
/// eliminations and the reduced solves. A copy is `O(N_BS²)` per block; the
/// sweeps are `O(N_BS³)`. A two-separator partition's recovery closes its
/// kept range in place: it overwrites the two separator diagonals, so a
/// repeated recovery reads the same closed range, and the next elimination
/// reloads the whole range.
#[derive(Default)]
enum Recovery {
    /// A pure-separator partition recovers nothing.
    #[default]
    Nothing,
    /// One separator: the stopped sweep over the range in separator-last
    /// order (block-reversed when the separator is its first block), for the
    /// backward sweep seeded at the separator.
    End(Sweep),
    /// Two separators.
    Middle(Middle),
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

/// Eliminate the interior of one partition for a batch of same-shape systems
/// (typically the energies a rank owns) against `scratch`, into kept
/// `states` (one per system). Each system `[A, B_1, …]` is read from block
/// `offset` on: the partition's `lo` for the full system, `0` for one
/// already cut to blocks `lo..=hi`. The range is copied into the state
/// ([`PartitionSolveState::range_mut`]), then eliminated there
/// ([`eliminate_loaded`]). A partition with **one** separator runs the
/// batched forward RGF sweep over its range towards the separator and stops
/// before the separator's inversion: that step's Schur and `inner` terms are
/// its update grid. A partition with two separators runs that stopped sweep
/// towards each separator and adds the cross entries between them from two
/// rows of its interior inverse (module docs). A system's result does not
/// depend on the batch it is eliminated in.
pub fn eliminate_partition_into(
    states: &mut [PartitionSolveState],
    systems: Systems<'_>,
    offset: usize,
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    assert_eq!(states.len(), systems.len(), "one state per system");
    let range = offset..offset + part.range().len();
    for (e, st) in states.iter_mut().enumerate() {
        let loaded = st.range_mut(part, 1 + systems.n_rhs());
        for (m, dst) in loaded.iter_mut().enumerate() {
            dst.copy_range_from(systems.matrix(e, m), range.clone());
        }
    }
    eliminate_loaded(states, part, index, scratch)
}

impl PartitionSolveState {
    /// The `n_matrices` buffers `[A, B_1, …]` this state keeps partition
    /// `part`'s block range of its system in (none for an empty interior):
    /// fill every block with blocks `lo..=hi` of the system
    /// ([`BlockTridiagonal::sub_range`] of [`SpatialPartition::range`]), then
    /// eliminate with [`eliminate_loaded`].
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
            (Recovery::End(_), true) | (Recovery::Middle(_), false) => {}
            (_, true) => self.recovery = Recovery::End(Sweep::default()),
            (_, false) => self.recovery = Recovery::Middle(Middle::default()),
        }
        let range = match &mut self.recovery {
            Recovery::End(sweep) => &mut sweep.range,
            Recovery::Middle(middle) => &mut middle.range,
            Recovery::Nothing => unreachable!("shaped just above"),
        };
        range.resize_with(n_matrices, BlockTridiagonal::default);
        range
    }
}

/// [`eliminate_partition_into`] of states whose ranges are loaded
/// ([`PartitionSolveState::range_mut`]). A one-separator partition
/// eliminates in place: once warmed at a shape it allocates nothing.
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
                    if let Recovery::End(sweep) = &mut st.recovery {
                        sweep.range.iter_mut().for_each(BlockTridiagonal::reverse);
                    }
                }
            }
            let flops = sweep_states(states, 0, scratch)?;
            for st in states.iter_mut() {
                st.workload = workload(flops);
            }
            return Ok(());
        }
        // Two separators, t = 0 and b = n + 1: stopped sweeps towards b over
        // [1..=n, b] and towards t over the reversed [t, 1..=n].
        for st in states.iter_mut() {
            let Recovery::Middle(Middle {
                range,
                sweeps: [to_b, to_t],
                ..
            }) = &mut st.recovery
            else {
                unreachable!("a two-separator state")
            };
            to_b.range.resize_with(range.len(), Default::default);
            to_t.range.resize_with(range.len(), Default::default);
            for ((m, b), t) in range.iter().zip(&mut to_b.range).zip(&mut to_t.range) {
                b.copy_range_from(m, 1..n + 2);
                t.copy_range_from(m, 0..n + 1);
                t.reverse();
            }
        }
        let flops_b = sweep_states(states, 0, scratch)?;
        let flops_t = sweep_states(states, 1, scratch)?;
        for st in states.iter_mut() {
            let PartitionSolveState {
                updates,
                workload: done,
                recovery: Recovery::Middle(middle),
            } = st
            else {
                unreachable!("a two-separator state")
            };
            let Middle {
                range: sub,
                sweeps: [to_b, to_t],
                grids: [u_bb, u_tt],
                rows: [first_row, last_row],
                work,
            } = middle;
            let flops_f = inverse_row(first_row, work, &to_t.forward, |w| sub[0].upper(w));
            let flops_l = inverse_row(last_row, work, &to_b.forward, |w| sub[0].lower(n - w));
            last_row.reverse();
            // Row-major 2 × 2 grids, one per matrix: [u_tt, u_tb, u_bt, u_bb].
            updates.resize_with(4 * sub.len(), CMatrix::default);
            let (t, b) = ((0, 1), (n + 1, n));
            let u_tb = updates.iter_mut().skip(1).step_by(4);
            let flops_tb = cross_update(u_tb, work, sub, first_row, last_row, t, b);
            let u_bt = updates.iter_mut().skip(2).step_by(4);
            let flops_bt = cross_update(u_bt, work, sub, last_row, first_row, b, t);
            for (grid, (tt, bb)) in updates.chunks_exact_mut(4).zip(u_tt.iter().zip(&*u_bb)) {
                grid[0].clone_from(tt);
                grid[3].clone_from(bb);
            }
            let flops = flops_t + flops_b + flops_f + flops_l + flops_tb + flops_bt;
            *done = workload(flops);
        }
        Ok(())
    })
}

impl PartitionSolveState {
    /// Stopped sweep `k`: a one-separator state's one (`k = 0`), or a
    /// two-separator state's towards `b` (`k = 0`) or `t` (`k = 1`).
    fn sweep(&self, k: usize) -> &Sweep {
        match &self.recovery {
            Recovery::End(sweep) => sweep,
            Recovery::Middle(middle) => &middle.sweeps[k],
            Recovery::Nothing => unreachable!("a state with an interior"),
        }
    }

    /// Stopped sweep `k` and the update grid it stops at.
    fn sweep_mut(&mut self, k: usize) -> (&mut Sweep, &mut Vec<CMatrix>) {
        match &mut self.recovery {
            Recovery::End(sweep) => (sweep, &mut self.updates),
            Recovery::Middle(middle) => (&mut middle.sweeps[k], &mut middle.grids[k]),
            Recovery::Nothing => unreachable!("a state with an interior"),
        }
    }
}

/// The batched forward RGF half ([`eliminate_to_last`]) over the loaded
/// stopped sweep `k` of every state, into the sweep and its update grid.
/// Returns the per-system FLOPs.
fn sweep_states(
    states: &mut [PartitionSolveState],
    k: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<u64, RgfError> {
    let loaded = &*states;
    let matrix = |e: usize, m: usize| &loaded[e].sweep(k).range[m];
    let n_rhs = loaded[0].sweep(k).range.len() - 1;
    let systems = Systems::new(loaded.len(), n_rhs, &matrix);
    let done = eliminate_to_last(systems, scratch).map_err(|e| e.error)?;
    for (e, st) in states.iter_mut().enumerate() {
        let (sweep, grid) = st.sweep_mut(k);
        done.copy_out(scratch, e, &mut sweep.forward, grid);
    }
    Ok(done.flops)
}

/// Assemble the reduced boundary system `[S, B̃_1, …]` of member `e` of
/// `systems` into kept matrices (one per matrix of the system): its
/// separator blocks (`separators`, the layout's [`separator_blocks`]) plus
/// the gathered per-partition update grids (`updates(p)`, partition `p`'s
/// [`PartitionSolveState::updates`]).
pub fn assemble_reduced_system_into<'u>(
    reduced: &mut [BlockTridiagonal],
    systems: Systems<'_>,
    e: usize,
    parts: &[SpatialPartition],
    separators: &[usize],
    updates: impl Fn(usize) -> &'u [CMatrix],
) {
    let n_sep = separators.len();
    for (i, red) in reduced.iter_mut().enumerate() {
        let m = systems.matrix(e, i);
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

/// Recover the selected blocks of one partition for a batch of systems —
/// interior, separator diagonals and the couplings between them — from their
/// [`eliminate_partition_into`] states and the selected solutions of their
/// reduced boundary systems (one each, same order), against `scratch`. A
/// one-separator partition runs the batched backward RGF sweep over its
/// range, seeded at the separator with the reduced solution's diagonal
/// blocks; a two-separator partition closes its range with the reduced
/// solution at its separators and runs one batched RGF solve of it (module
/// docs; the kept range is closed in place). Writes one [`SelectedSolution`]
/// over [`SpatialPartition::range`] per system into the kept `sols` (its
/// `flops` are the recovery's); a system's result does not depend on the
/// batch. Once warmed at a shape it allocates nothing.
pub fn recover_partition_into(
    part: &SpatialPartition,
    states: &mut [PartitionSolveState],
    reduced: &[SelectedSolution],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    assert_eq!(states.len(), reduced.len(), "one reduced solution each");
    assert_eq!(states.len(), sols.len(), "one solution each");
    quatrex_probe::span("rgf.recover_partition", "rgf.partition", || {
        let Some(first) = states.first() else {
            return Ok(());
        };
        // The partition's first separator in the reduced system.
        let sep = first_separator(first.workload.partition);
        match &first.recovery {
            Recovery::Nothing => {
                for (sol, red) in sols.iter_mut().zip(reduced) {
                    *sol = SelectedSolution::zeros(0, red.retarded.block_size(), red.lesser.len());
                }
                Ok(())
            }
            Recovery::End(_) => {
                recover_end(part, states, reduced, sep, sols, scratch);
                Ok(())
            }
            Recovery::Middle(_) => recover_middle(states, reduced, sep, sols, scratch),
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
    let sweep = |e: usize| states[e].sweep(0);
    let matrix = |e: usize, m: usize| &sweep(e).range[m];
    let range = &sweep(0).range;
    let (n, bs, n_rhs) = (range[0].n_blocks(), range[0].block_size(), range.len() - 1);
    let systems = Systems::new(states.len(), n_rhs, &matrix);
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
    let flops = recover_to_first(systems, |e| &sweep(e).forward, sols, scratch);
    for sol in sols.iter_mut() {
        if part.left_boundary.is_some() {
            sol.retarded.reverse();
            sol.lesser.iter_mut().for_each(BlockTridiagonal::reverse);
        }
        sol.flops = flops;
    }
}

/// [`recover_partition_into`] of a two-separator partition whose separators are
/// blocks `sep` and `sep + 1` of the reduced systems: every kept range closed
/// in place ([`close_range`]), then one batched RGF solve of them all into
/// `sols`.
fn recover_middle(
    states: &mut [PartitionSolveState],
    reduced: &[SelectedSolution],
    sep: usize,
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    let mut closure = 0;
    for (st, red) in states.iter_mut().zip(reduced) {
        let Recovery::Middle(middle) = &mut st.recovery else {
            panic!("not a middle partition's state")
        };
        let (range, work) = (&mut middle.range, &mut middle.work);
        closure = close_range(range, &st.updates, red, sep, &mut scratch.lu, work);
    }
    let closed = |e: usize| match &states[e].recovery {
        Recovery::Middle(middle) => &middle.range,
        _ => unreachable!("closed just above"),
    };
    let matrix = |e: usize, m: usize| &closed(e)[m];
    let systems = Systems::new(states.len(), closed(0).len() - 1, &matrix);
    solve_systems_into(systems, sols, scratch)?;
    for sol in sols.iter_mut() {
        sol.flops += closure;
    }
    Ok(())
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
/// calling thread. The driver runs the group solve's phases (module docs),
/// each partition a batch of one system; the distributed driver runs the
/// same calls on its ranks.
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
    let matrix = |_: usize, m: usize| if m == 0 { a } else { rhs[m - 1] };
    let system = Systems::new(1, rhs.len(), &matrix);

    // One scratch serves every phase: a partition's state keeps owned copies
    // of what its recovery needs, as on the distributed driver's ranks. The
    // phases are the group solve's, each partition a batch of one system.
    let mut scratch = RgfBatchScratch::new();

    // Phase 1: eliminate the partition interiors.
    let mut states: Vec<PartitionSolveState> = parts.iter().map(|_| Default::default()).collect();
    for (idx, (part, st)) in parts.iter().zip(&mut states).enumerate() {
        let st = std::slice::from_mut(st);
        eliminate_partition_into(st, system, part.lo, part, idx, &mut scratch)?;
    }

    // Phase 2: assemble and solve the reduced system over the separators.
    let separators = separator_blocks(parts);
    let mut reduced_system = vec![BlockTridiagonal::default(); 1 + rhs.len()];
    let updates = |p: usize| states[p].updates.as_slice();
    assemble_reduced_system_into(&mut reduced_system, system, 0, parts, &separators, updates);
    let mut reduced = [SelectedSolution::default()];
    let matrix = |_: usize, m: usize| &reduced_system[m];
    let reduced_batch = Systems::new(1, rhs.len(), &matrix);
    solve_systems_into(reduced_batch, &mut reduced, &mut scratch)?;

    // Phase 3: recover the interior selected blocks.
    let mut recovered = vec![SelectedSolution::default(); parts.len()];
    for ((part, st), rec) in parts.iter().zip(&mut states).zip(&mut recovered) {
        let (st, rec) = (std::slice::from_mut(st), std::slice::from_mut(rec));
        recover_partition_into(part, st, &reduced, rec, &mut scratch)?;
    }

    let [reduced] = reduced;
    let mut sol = SelectedSolution::default();
    assemble_solution_into(&mut sol, nb, parts, &separators, &reduced, |p| {
        &recovered[p]
    });
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
        communicated_blocks: states.iter().map(|st| st.updates.len()).sum(),
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
