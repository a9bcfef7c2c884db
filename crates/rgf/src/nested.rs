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
//! [`assemble_solution`] copies into place. A pure-separator partition (empty
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
//! **One elimination entry point.** [`eliminate_partition`] takes the
//! sub-ranges of a whole batch of same-shape systems (the energies a rank
//! owns) and runs their RGF work as batched solves against the caller's
//! scratch, and [`recover_partition`] recovers such a batch; [`solve_systems`]
//! does the same for the reduced systems. The single-process driver
//! ([`nested_dissection_solve_with_layout`]) is the batch of one; a
//! distributed driver (`quatrex_core::dist`) runs the same phase functions
//! ([`eliminate_partition`], [`assemble_reduced_system`],
//! [`recover_partition`], [`assemble_solution`]) on different ranks and
//! gathers only the reduced-system updates — the `O(P_S·N_BS²)` boundary
//! traffic of the paper.

use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm_flops, matmul, matmul_acc};
use quatrex_linalg::{CMatrix, ONE};
use quatrex_sparse::BlockTridiagonal;

use crate::batch::{
    eliminate_to_last, recover_to_first, rgf_solve_batch_into, ForwardSweep, RgfBatchScratch,
};
use crate::layout::{
    separator_blocks, spatial_partition_layout, validate_partition_layout, SpatialPartition,
};
use crate::sequential::{rgf_solve, RgfError, SelectedSolution};

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
#[derive(Debug, Clone, PartialEq)]
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

/// Block `(i, j)` of a block-tridiagonal quantity, for `|i − j| ≤ 1` in range.
fn band_block(m: &BlockTridiagonal, i: usize, j: usize) -> &CMatrix {
    m.block(i, j).expect("block inside the tridiagonal band")
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

/// One batched selected solve of same-shape systems `[A, B_1, …]`
/// ([`rgf_solve_batch_into`]) against `scratch`.
pub fn solve_systems(
    systems: &[Vec<BlockTridiagonal>],
    scratch: &mut RgfBatchScratch,
) -> Result<Vec<SelectedSolution>, RgfError> {
    let (lhs, rhs) = split_systems(systems);
    let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(Vec::as_slice).collect();
    let mut sols = vec![SelectedSolution::zeros(0, 0, 0); systems.len()];
    rgf_solve_batch_into(&lhs, &rhs, &mut sols, scratch).map_err(|e| e.error)?;
    Ok(sols)
}

/// The system matrices `A` and the right-hand-side lists `[B_1, …]` of a
/// batch of systems `[A, B_1, …]`.
#[allow(clippy::type_complexity)]
fn split_systems<S: AsRef<[BlockTridiagonal]>>(
    systems: &[S],
) -> (Vec<&BlockTridiagonal>, Vec<Vec<&BlockTridiagonal>>) {
    let lhs = systems.iter().map(|s| &s.as_ref()[0]).collect();
    let rhs = systems.iter().map(|s| s.as_ref()[1..].iter().collect());
    (lhs, rhs.collect())
}

/// Recovery state a partition keeps between the elimination and recovery
/// phases (never communicated). Both range-carrying states are owned copies:
/// the caller's ranges are borrowed, and until this partition recovers, the
/// scratch's block store serves the other chunks' eliminations and the
/// reduced solves. A copy is `O(N_BS²)` per block; the sweeps are `O(N_BS³)`.
enum Recovery {
    /// A pure-separator partition recovers nothing.
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
/// state stays local.
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
/// (typically the energies a rank owns), each given as its
/// [`partition_ranges`], against `scratch`. A partition with **one**
/// separator runs the batched forward RGF sweep over its range towards the
/// separator and stops before the separator's inversion: that step's Schur
/// and `inner` terms are its update grid. A partition with two separators
/// runs that stopped sweep towards each separator and adds the cross entries
/// between them from two rows of its interior inverse (module docs). A
/// system's result does not depend on the batch it is eliminated in.
pub fn eliminate_partition(
    ranges: &[Vec<BlockTridiagonal>],
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<Vec<PartitionSolveState>, RgfError> {
    quatrex_probe::span("rgf.eliminate_partition", "rgf.partition", || {
        let n = part.interior().len();
        let workload = |flops| PartitionWorkload {
            partition: index,
            blocks: part.hi - part.lo + 1,
            flops,
        };
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
            ranges
                .iter()
                .map(|sub| sub.iter().map(cut_one).collect())
                .collect()
        };
        if n == 0 {
            // Pure-separator partition: nothing to eliminate, nothing to update
            // (its separator blocks enter the reduced system unmodified).
            let empty = |_| PartitionSolveState {
                updates: Vec::new(),
                workload: workload(0),
                recovery: Recovery::Nothing,
            };
            return Ok(ranges.iter().map(empty).collect());
        }
        if part.n_separators() == 1 {
            // The range in separator-last order, copied once.
            let oriented = cut(0..n + 1, part.left_boundary.is_some());
            let (updates, sweeps, flops) = sweep_to_separator(&oriented, scratch)?;
            let states = oriented.into_iter().zip(sweeps).zip(updates);
            return Ok(states
                .map(|((range, forward), updates)| PartitionSolveState {
                    updates,
                    workload: workload(flops),
                    recovery: Recovery::Sweep { range, forward },
                })
                .collect());
        }
        // Two separators, t = 0 and b = n + 1: stopped sweeps towards b over
        // [1..=n, b] and towards t over the reversed [t, 1..=n].
        let (to_b, left, flops_b) = sweep_to_separator(&cut(1..n + 2, false), scratch)?;
        let (to_t, right, flops_t) = sweep_to_separator(&cut(0..n + 1, true), scratch)?;
        let states = ranges.iter().zip(to_t.into_iter().zip(to_b));
        let sweeps = right.iter().zip(&left);
        Ok(states
            .zip(sweeps)
            .map(|((sub, (u_tt, u_bb)), (right, left))| {
                let (first_row, flops_f) = inverse_row(right, |w| sub[0].upper(w));
                let (mut last_row, flops_l) = inverse_row(left, |w| sub[0].lower(n - w));
                last_row.reverse();
                let (u_tb, flops_tb) = cross_update(sub, &first_row, &last_row, (0, 1), (n + 1, n));
                let (u_bt, flops_bt) = cross_update(sub, &last_row, &first_row, (n + 1, n), (0, 1));
                let grid = u_tt.into_iter().zip(u_tb).zip(u_bt).zip(u_bb);
                let updates = grid
                    .flat_map(|(((tt, tb), bt), bb)| [tt, tb, bt, bb])
                    .collect();
                let flops = flops_t + flops_b + flops_f + flops_l + flops_tb + flops_bt;
                PartitionSolveState {
                    updates,
                    workload: workload(flops),
                    recovery: Recovery::Range(sub.clone()),
                }
            })
            .collect())
    })
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
    let (lhs, rhs) = split_systems(systems);
    let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(Vec::as_slice).collect();
    let (bs, n_rhs) = (lhs[0].block_size(), rhs[0].len());
    let mut updates = vec![vec![CMatrix::zeros(bs, bs); 1 + n_rhs]; systems.len()];
    let mut sweeps = vec![ForwardSweep::default(); systems.len()];
    let flops =
        eliminate_to_last(&lhs, &rhs, &mut updates, &mut sweeps, scratch).map_err(|e| e.error)?;
    Ok((updates, sweeps, flops))
}

/// One row of a middle partition's interior inverse `A_I⁻¹`, from the
/// stopped sweep that ends next to the row's block: `row[0] = g_n`,
/// `row[w] = −row[w−1]·coupling(w)·g_{n−w}`, where `g_1 … g_n` are the sweep's
/// retarded blocks (the last one next to the row's block) and `coupling(w)`
/// is the block of `A` from walk position `w − 1` to `w`. With the reversed
/// sweep towards `t` and `A_{w,w+1}` this is the first row `F`, in interior
/// order; with the sweep towards `b` and `A_{n−w+1,n−w}`, the last row `L`
/// from block `n` down. Returns the row and its FLOPs.
fn inverse_row<'a>(
    sweep: &ForwardSweep,
    coupling: impl Fn(usize) -> &'a CMatrix,
) -> (Vec<CMatrix>, u64) {
    let g = sweep.retarded();
    let (n, bs) = (g.len(), g[0].nrows());
    let mut row = vec![g[n - 1].clone()];
    for w in 1..n {
        let mut next = CMatrix::zeros(bs, bs);
        matmul_acc(
            &mut next,
            -ONE,
            &matmul(&row[w - 1], coupling(w)),
            &g[n - 1 - w],
        );
        row.push(next);
    }
    (row, 2 * (n as u64 - 1) * gemm_flops(bs, bs, bs))
}

/// Entry `(s, o)` of a middle partition's update grid, between its two
/// separators, for every matrix of its range `sub = [A, B_1, …]`: `s`, `o`
/// are the separators' range indices, `e_s`, `e_o` those of the interior
/// blocks next to them, and `p`, `q` the rows of the interior inverse at
/// `e_s`, `e_o` (`p[j] = P_{j+1} = [A_I⁻¹]_{e_s, j+1}`):
///
/// ```text
/// u_so  = −A_{s,e_s}·P_{e_o}·A_{e_o,o}
/// u≶_so =  A_{s,e_s}·(Σ_{j,k} P_j·B_{jk}·Q_k†)·A_{o,e_o}†
///        − A_{s,e_s}·P_{e_o}·B_{e_o,o} − B_{s,e_s}·Q_{e_s}†·A_{o,e_o}†
/// ```
///
/// with the double sum formed as `Σ_k T_k·Q_k†`, `T_k = Σ_j P_j·B_{jk}`.
/// Returns the entries and their FLOPs.
fn cross_update(
    sub: &[BlockTridiagonal],
    p: &[CMatrix],
    q: &[CMatrix],
    (s, e_s): (usize, usize),
    (o, e_o): (usize, usize),
) -> (Vec<CMatrix>, u64) {
    let (a, n, bs) = (&sub[0], p.len(), sub[0].block_size());
    let a_s = band_block(a, s, e_s);
    let a_o_dag = band_block(a, o, e_o).dagger();
    let a_s_p = matmul(a_s, &p[e_o - 1]);
    let q_dag: Vec<CMatrix> = q.iter().map(CMatrix::dagger).collect();
    let mut u_so = CMatrix::zeros(bs, bs);
    matmul_acc(&mut u_so, -ONE, &a_s_p, band_block(a, e_o, o));
    let mut updates = vec![u_so];
    for b in &sub[1..] {
        let mut sum = CMatrix::zeros(bs, bs);
        for (k, q_k) in q_dag.iter().enumerate() {
            let mut t = CMatrix::zeros(bs, bs);
            for (j, p_j) in p.iter().enumerate().take(k + 2).skip(k.saturating_sub(1)) {
                matmul_acc(&mut t, ONE, p_j, band_block(b, j + 1, k + 1));
            }
            matmul_acc(&mut sum, ONE, &t, q_k);
        }
        let mut u = matmul(&matmul(a_s, &sum), &a_o_dag);
        matmul_acc(&mut u, -ONE, &a_s_p, band_block(b, e_o, o));
        let b_q = matmul(band_block(b, s, e_s), &q_dag[e_s - 1]);
        matmul_acc(&mut u, -ONE, &b_q, &a_o_dag);
        updates.push(u);
    }
    // 3n − 2 products T, n for the sum, 5 around it, per right-hand side.
    let per_rhs = 4 * n as u64 + 3;
    let n_rhs = sub.len() as u64 - 1;
    (updates, (2 + n_rhs * per_rhs) * gemm_flops(bs, bs, bs))
}

/// Assemble the reduced boundary system `[S, B̃_1, …]` of one system
/// `[A, B_1, …]`: its separator blocks plus the gathered per-partition
/// `updates` (one [`PartitionSolveState::updates`] per partition, in layout
/// order).
pub fn assemble_reduced_system(
    system: &[&BlockTridiagonal],
    parts: &[SpatialPartition],
    updates: &[&[CMatrix]],
) -> Vec<BlockTridiagonal> {
    let separators = separator_blocks(parts);
    let n_sep = separators.len();
    let mut reduced: Vec<BlockTridiagonal> = system
        .iter()
        .map(|m| {
            let mut red = BlockTridiagonal::zeros(n_sep, m.block_size());
            for (k, &s) in separators.iter().enumerate() {
                red.set_block(k, k, m.diag(s).clone());
                if k + 1 < n_sep && separators[k + 1] == s + 1 {
                    // Physically adjacent separators keep their original
                    // coupling; separators of the same partition start
                    // uncoupled (their coupling comes from the eliminated
                    // interior alone).
                    red.set_block(k, k + 1, m.upper(s).clone());
                    red.set_block(k + 1, k, m.lower(s).clone());
                }
            }
            red
        })
        .collect();
    for (p, (part, upd)) in parts.iter().zip(updates).enumerate() {
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
    reduced
}

/// Recover the selected blocks of one partition for a batch of systems —
/// interior, separator diagonals and the couplings between them — from their
/// [`eliminate_partition`] states and the selected solutions of their reduced
/// boundary systems (one each, same order), against `scratch`. A
/// one-separator partition runs the batched backward RGF sweep over its
/// range, seeded at the separator with the reduced solution's diagonal
/// blocks; a two-separator partition closes its range with the reduced
/// solution at its separators and runs one batched RGF solve of it (module
/// docs). Returns one [`SelectedSolution`] over [`SpatialPartition::range`]
/// per system (its `flops` are the recovery's); a system's result does not
/// depend on the batch.
pub fn recover_partition(
    part: &SpatialPartition,
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Vec<SelectedSolution> {
    assert_eq!(states.len(), reduced.len(), "one reduced solution each");
    quatrex_probe::span("rgf.recover_partition", "rgf.partition", || {
        let Some(first) = states.first() else {
            return Vec::new();
        };
        // The partition's first separator in the reduced system.
        let sep = first_separator(first.workload.partition);
        match &first.recovery {
            Recovery::Nothing => reduced
                .iter()
                .map(|red| SelectedSolution::zeros(0, red.retarded.block_size(), red.lesser.len()))
                .collect(),
            Recovery::Sweep { .. } => recover_end(part, states, reduced, sep, scratch),
            Recovery::Range(_) => recover_middle(states, reduced, sep, scratch),
        }
    })
}

/// [`recover_partition`] of a one-separator partition whose separator is
/// block `sep` of the reduced systems.
fn recover_end(
    part: &SpatialPartition,
    states: &[PartitionSolveState],
    reduced: &[SelectedSolution],
    sep: usize,
    scratch: &mut RgfBatchScratch,
) -> Vec<SelectedSolution> {
    let (ranges, forward): (Vec<_>, Vec<_>) = states
        .iter()
        .map(|st| match &st.recovery {
            Recovery::Sweep { range, forward } => (range, forward),
            _ => panic!("not an end partition's state"),
        })
        .unzip();
    let (lhs, rhs) = split_systems(&ranges);
    let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(Vec::as_slice).collect();
    let (n, bs, n_rhs) = (lhs[0].n_blocks(), lhs[0].block_size(), rhs[0].len());
    // The seed: the reduced solution at the partition's one separator.
    let mut sols: Vec<SelectedSolution> = reduced
        .iter()
        .map(|red| {
            let mut sol = SelectedSolution::zeros(n, bs, n_rhs);
            *sol.retarded.diag_mut(n - 1) = red.retarded.diag(sep).clone();
            for (x, xr) in sol.lesser.iter_mut().zip(&red.lesser) {
                *x.diag_mut(n - 1) = xr.diag(sep).clone();
            }
            sol
        })
        .collect();
    let flops = recover_to_first(&lhs, &rhs, &forward, &mut sols, scratch);
    for sol in &mut sols {
        if part.left_boundary.is_some() {
            sol.retarded = sol.retarded.reversed();
            sol.lesser = sol.lesser.iter().map(BlockTridiagonal::reversed).collect();
        }
        sol.flops = flops;
    }
    sols
}

/// [`recover_partition`] of a two-separator partition whose separators are
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

/// A middle partition's range `[A, B_1, …]` with its separator diagonals
/// `t` (first block) and `b` (last) closed by the reduced solution `reduced`
/// at blocks `sep`, `sep + 1`: `Y = X_SS⁻¹`, `A'_tt = Y_tt − u_tt` and
/// `B'_tt = (Y·X≶_SS·Y†)_tt − u≶_tt`, the same at `b`, with `u` the
/// partition's own update grid (module docs). Returns the closed range and
/// the closure's FLOPs.
fn close_range(
    range: &[BlockTridiagonal],
    updates: &[CMatrix],
    reduced: &SelectedSolution,
    sep: usize,
    lu: &mut LuScratch,
) -> (Vec<BlockTridiagonal>, u64) {
    let bs = range[0].block_size();
    let ends = [0, range[0].n_blocks() - 1];
    // The 2 × 2 blocks of a reduced solution at the two separators.
    let pair = |x: &BlockTridiagonal| {
        let mut m = CMatrix::zeros(2 * bs, 2 * bs);
        for i in 0..2 {
            for j in 0..2 {
                m.set_submatrix(i * bs, j * bs, band_block(x, sep + i, sep + j));
            }
        }
        m
    };
    let mut y = CMatrix::zeros(2 * bs, 2 * bs);
    lu.invert_into(&pair(&reduced.retarded), &mut y)
        .expect("the reduced solution at two separators is invertible");
    let rows = |m: &CMatrix, i: usize| m.submatrix(i * bs, 0, bs, 2 * bs);
    // The diagonal entry at separator i of matrix m's update grid.
    let own = |m: usize, i: usize| &updates[(m * 2 + i) * 2 + i];
    let mut closed = range.to_vec();
    for (i, &k) in ends.iter().enumerate() {
        let mut a = y.submatrix(i * bs, i * bs, bs, bs);
        a -= own(0, i);
        *closed[0].diag_mut(k) = a;
    }
    for (r, x) in reduced.lesser.iter().enumerate() {
        let y_x = matmul(&y, &pair(x));
        for (i, &k) in ends.iter().enumerate() {
            let mut b = matmul(&rows(&y_x, i), &rows(&y, i).dagger());
            b -= own(1 + r, i);
            *closed[1 + r].diag_mut(k) = b;
        }
    }
    let per_rhs = gemm_flops(2 * bs, 2 * bs, 2 * bs) + 2 * gemm_flops(bs, 2 * bs, bs);
    let flops = inverse_flops(2 * bs) + reduced.lesser.len() as u64 * per_rhs;
    (closed, flops)
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
        x.set_block(s, s, reduced.diag(k).clone());
        if k + 1 < separators.len() && separators[k + 1] == s + 1 {
            x.set_block(s, s + 1, reduced.upper(k).clone());
            x.set_block(s + 1, s, reduced.lower(k).clone());
        }
    }
}

/// The shared tail of every driver: the selected solution of the full
/// `n_blocks` system from the reduced solution (separator blocks, scattered
/// first) and the [`recover_partition`] result of every partition in layout
/// order (one range copy each). FLOPs are left at zero for the caller.
pub fn assemble_solution(
    n_blocks: usize,
    parts: &[SpatialPartition],
    reduced: &SelectedSolution,
    recovered: &[SelectedSolution],
) -> SelectedSolution {
    let separators = separator_blocks(parts);
    let bs = reduced.retarded.block_size();
    let mut sol = SelectedSolution::zeros(n_blocks, bs, reduced.lesser.len());
    scatter_separator_blocks(&mut sol.retarded, &reduced.retarded, &separators);
    for (x, red) in sol.lesser.iter_mut().zip(&reduced.lesser) {
        scatter_separator_blocks(x, red, &separators);
    }
    for (part, rec) in parts.iter().zip(recovered) {
        sol.retarded.write_range(part.lo, &rec.retarded);
        for (x, sub) in sol.lesser.iter_mut().zip(&rec.lesser) {
            x.write_range(part.lo, sub);
        }
    }
    sol
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
