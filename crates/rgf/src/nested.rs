//! Spatial domain decomposition of the selected solvers (paper Section 5.4).
//!
//! The recursive Green's function algorithm is inherently sequential along the
//! transport axis. To simulate devices whose block count exceeds a single
//! memory domain, the paper permutes the block-tridiagonal system with a
//! nested-dissection ("arrow") scheme: the block range is split into `P_S`
//! partitions ([`crate::layout`]) whose interiors are eliminated
//! **concurrently**, a *reduced system* over the partition boundary blocks is
//! formed and solved, and the interior selected blocks are recovered in
//! parallel. The extra block-column solves performed by each partition are
//! the *fill-in* the paper quantifies (`O(N_B/P_S)` additional blocks per
//! middle partition), and the boundary partitions perform roughly 60% of a
//! middle partition's workload because they own a single separator instead of
//! two.
//!
//! Two entry points are provided:
//!
//! * [`nested_dissection_invert`] — the retarded selected inverse only;
//! * [`nested_dissection_solve`] — the full quadratic problem: the retarded
//!   selected inverse *plus* the lesser/greater selected blocks
//!   `X≶ = A⁻¹·B≶·A⁻†` for any number of right-hand sides. The lesser/greater
//!   recovery across the separators is the quadratic part: with
//!   `A⁻¹ = D + U·S⁻¹·Vᵗ` (interior inverse `D`, fill-in factors `U`, `Vᵗ`,
//!   reduced Schur complement `S`), the solution splits into
//!
//!   ```text
//!   X≶ = D·B·D† + (D·B·Vᵗ†)·S⁻†·U† + U·S⁻¹·(Vᵗ·B·D†) + U·X≶_BB·U†
//!   ```
//!
//!   where `X≶_BB = S⁻¹·(Vᵗ·B·Vᵗ†)·S⁻†` is the reduced *quadratic* boundary
//!   system: its right-hand side `B̃ = Vᵗ·B·Vᵗ†` is gathered from the
//!   partitions exactly like the Schur complement of `A`, and the reduced
//!   problem is itself a selected RGF solve.
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
//! **One factorisation.** Besides the interior RGF solve, the forward Schur
//! sweep of a partition's interior runs once per system
//! ([`InteriorFactor`]); every fill-in block-column solve — plain or adjoint —
//! reads that one factor.
//!
//! **One elimination entry point.** [`eliminate_partition`] takes the
//! sub-ranges of a whole batch of same-shape systems (the energies a rank
//! owns) and solves their interiors with one
//! [`rgf_solve_batch_into`] against the caller's scratch; [`solve_systems`]
//! does the same for the reduced systems. The thread driver
//! ([`nested_dissection_solve_with_layout`]) is the batch of one; a
//! distributed driver (`quatrex-dist`) runs the same phase functions
//! ([`eliminate_partition`], [`assemble_reduced_system`],
//! [`recover_partition`], [`assemble_solution`]) on different ranks and
//! gathers only the reduced-system updates — the `O(P_S·N_BS²)` boundary
//! traffic of the paper.

// lint:allow-file(per-energy-gemm): the fill-in solves and Schur updates of
// ONE system's partition are short dependent chains of distinct operands per
// separator, not an energy loop over shared operands; the energy-batched
// part — the interior and reduced RGF solves — goes through
// `rgf_solve_batch_into`.
use rayon::prelude::*;

use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm, gemm_flops, matmul, Op};
use quatrex_linalg::{CMatrix, ONE, ZERO};
use quatrex_sparse::BlockTridiagonal;

use crate::batch::{rgf_solve_batch_into, RgfBatchScratch};
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
    /// Number of additional fill-in blocks computed (block-column solves).
    pub fill_in_blocks: usize,
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
    /// reports ~60% without load balancing).
    pub fn boundary_to_middle_ratio(&self) -> Option<f64> {
        if self.partitions.len() < 3 {
            return None;
        }
        let first = self.partitions.first()?.flops as f64;
        let last = self.partitions.last()?.flops as f64;
        let middle: Vec<f64> = self.partitions[1..self.partitions.len() - 1]
            .iter()
            .map(|p| p.flops as f64)
            .collect();
        let mid_avg = middle.iter().sum::<f64>() / middle.len() as f64;
        Some(0.5 * (first + last) / mid_avg)
    }

    /// Workload of the average *middle* partition relative to an even
    /// `1/P_S` share of the given sequential solve (the fill-in and recovery
    /// overhead of the decomposition). `None` when there is no middle
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

/// `(separator, adjacent interior block)` of each side of a partition with a
/// non-empty interior, as indices into its `lo..=hi` sub-range, left first.
fn boundary_pairs(part: &SpatialPartition) -> Vec<(usize, usize)> {
    let last = part.hi - part.lo;
    let left = part.left_boundary.map(|_| (0, 1));
    let right = part.right_boundary.map(|_| (last, last - 1));
    left.into_iter().chain(right).collect()
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
    let lhs: Vec<&BlockTridiagonal> = systems.iter().map(|s| &s[0]).collect();
    let rhs: Vec<Vec<&BlockTridiagonal>> =
        systems.iter().map(|s| s[1..].iter().collect()).collect();
    let rhs: Vec<&[&BlockTridiagonal]> = rhs.iter().map(Vec::as_slice).collect();
    let mut sols = vec![SelectedSolution::zeros(0, 0, 0); systems.len()];
    rgf_solve_batch_into(&lhs, &rhs, &mut sols, scratch).map_err(|e| e.error)?;
    Ok(sols)
}

/// The forward Schur sweep of a block-tridiagonal matrix `A`, run **once** and
/// read by every block-column solve against `A` or `A†`: the inverse pivots
/// `D_k⁻¹` (`D_k = A_kk − A_{k,k−1}·D_{k−1}⁻¹·A_{k−1,k}`) and the eliminators
/// `E_k = A_{k+1,k}·D_k⁻¹`. The adjoint system needs no factorisation (nor a
/// conjugate-transposed copy of `A`) of its own: `D_k(A†) = D_k(A)†`, so its
/// solves read the same factor through `Op::Dagger`.
pub struct InteriorFactor<'a> {
    a: &'a BlockTridiagonal,
    d_inv: Vec<CMatrix>,
    elim: Vec<CMatrix>,
    /// FLOPs of the sweep: `n` inversions and `2(n − 1)` products.
    pub flops: u64,
}

impl<'a> InteriorFactor<'a> {
    /// Factorise `a` (at least one block).
    pub fn new(a: &'a BlockTridiagonal) -> Result<Self, RgfError> {
        let (n, bs) = (a.n_blocks(), a.block_size());
        let mut d_inv: Vec<CMatrix> = Vec::with_capacity(n);
        let mut elim: Vec<CMatrix> = Vec::with_capacity(n.saturating_sub(1));
        let mut lu = LuScratch::new();
        for k in 0..n {
            let mut dk = a.diag(k).clone();
            if k > 0 {
                let e = matmul(a.lower(k - 1), &d_inv[k - 1]);
                dk -= &matmul(&e, a.upper(k - 1));
                elim.push(e);
            }
            let mut inv = CMatrix::zeros(bs, bs);
            lu.invert_into(&dk, &mut inv)
                .map_err(|_| RgfError::SingularBlock(k))?;
            d_inv.push(inv);
        }
        let flops = n as u64 * inverse_flops(bs) + 2 * elim.len() as u64 * gemm_flops(bs, bs, bs);
        Ok(Self {
            a,
            d_inv,
            elim,
            flops,
        })
    }

    /// Solve `A·X = C` — or `A†·X = C` when `adjoint` — for one block column
    /// `C` (consumed; one block per block row). `3n − 2` products either way,
    /// added to `flops`.
    pub fn solve(&self, mut x: Vec<CMatrix>, adjoint: bool, flops: &mut u64) -> Vec<CMatrix> {
        let n = self.d_inv.len();
        let bs = self.a.block_size();
        debug_assert_eq!(x.len(), n);
        if adjoint {
            // z_k = D_k⁻†·(c_k − A_{k−1,k}†·z_{k−1}), then x_k = z_k − E_k†·x_{k+1}.
            for k in 0..n {
                if k > 0 {
                    let (done, rest) = x.split_at_mut(k);
                    let a_up = Op::Dagger(self.a.upper(k - 1));
                    gemm(&mut rest[0], -ONE, a_up, Op::None(&done[k - 1]), ONE);
                }
                let mut z = CMatrix::zeros(bs, bs);
                gemm(
                    &mut z,
                    ONE,
                    Op::Dagger(&self.d_inv[k]),
                    Op::None(&x[k]),
                    ZERO,
                );
                x[k] = z;
            }
            for k in (0..n - 1).rev() {
                let (head, tail) = x.split_at_mut(k + 1);
                gemm(
                    &mut head[k],
                    -ONE,
                    Op::Dagger(&self.elim[k]),
                    Op::None(&tail[0]),
                    ONE,
                );
            }
        } else {
            // y_k = c_k − E_{k−1}·y_{k−1}, then x_k = D_k⁻¹·(y_k − A_{k,k+1}·x_{k+1}).
            for k in 1..n {
                let update = matmul(&self.elim[k - 1], &x[k - 1]);
                x[k] -= &update;
            }
            for k in (0..n).rev() {
                if k + 1 < n {
                    let update = matmul(self.a.upper(k), &x[k + 1]);
                    x[k] -= &update;
                }
                x[k] = matmul(&self.d_inv[k], &x[k]);
            }
        }
        *flops += (3 * n as u64 - 2) * gemm_flops(bs, bs, bs);
        x
    }

    /// The unit block column `E_j` of this factor's shape.
    fn unit_column(&self, j: usize) -> Vec<CMatrix> {
        let bs = self.a.block_size();
        let mut col = vec![CMatrix::zeros(bs, bs); self.d_inv.len()];
        col[j] = CMatrix::identity(bs);
        col
    }
}

/// Fill-in factors of one separator of a partition, for the elimination and
/// recovery phases.
struct BoundaryFactors {
    /// Sub-range index of the separator.
    sep: usize,
    /// Sub-range index of the interior block adjacent to it.
    nbr: usize,
    /// `L[k] = [A_I⁻¹·A_{I,b}]_k` — the left fill-in factor.
    left_f: Vec<CMatrix>,
    /// `R[k] = [A_{b,I}·A_I⁻¹]_k` — the right fill-in factor.
    right_f: Vec<CMatrix>,
    /// Per right-hand side: `q[k] = [A_I⁻¹·(B·Vᵗ†)_{I,b}]_k`.
    q: Vec<Vec<CMatrix>>,
    /// Per right-hand side: `s[k] = [(Vᵗ·B)_{b,I}·A_I⁻†]_k`.
    s: Vec<Vec<CMatrix>>,
}

/// Recovery state a partition keeps between the elimination and recovery
/// phases (never communicated).
struct PartitionFactors {
    /// Selected solve of the isolated interior (`D·B·D†` restricted to it).
    interior: SelectedSolution,
    boundaries: Vec<BoundaryFactors>,
}

/// Per-partition, per-system result of the elimination phase. The `updates`
/// must be gathered wherever the reduced system is assembled; the recovery
/// factors stay local.
pub struct PartitionSolveState {
    /// Reduced-system updates to gather: for every matrix of the system (`A`,
    /// then each right-hand side) the `nbd × nbd` grid of updates between the
    /// partition's separators — the Schur-complement updates of `A` and the
    /// quadratic updates of `B̃ = Vᵗ·B·Vᵗ†` — row-major, left separator first:
    /// entry `(m·nbd + i)·nbd + j`. Empty for an empty interior.
    pub updates: Vec<CMatrix>,
    /// Workload bookkeeping of the elimination phase.
    pub workload: PartitionWorkload,
    factors: Option<PartitionFactors>,
}

/// Eliminate the interior of one partition for a batch of same-shape systems
/// (typically the energies a rank owns), each given as its
/// [`partition_ranges`]: solve the isolated interiors with **one** batched RGF
/// solve against `scratch`, then per system factorise the interior once,
/// compute the fill-in factors towards both separators and produce the
/// Schur-complement / reduced-RHS updates. A system's result does not depend
/// on the batch it is eliminated in.
pub fn eliminate_partition(
    ranges: &[Vec<BlockTridiagonal>],
    part: &SpatialPartition,
    index: usize,
    scratch: &mut RgfBatchScratch,
) -> Result<Vec<PartitionSolveState>, RgfError> {
    quatrex_probe::span("rgf.eliminate_partition", "rgf.partition", || {
        let interior = part.interior();
        let local = interior.start - part.lo..interior.end - part.lo;
        if local.is_empty() {
            // Pure-separator partition: nothing to eliminate, nothing to update
            // (its separator blocks enter the reduced system unmodified).
            let workload = PartitionWorkload {
                partition: index,
                blocks: part.hi - part.lo + 1,
                fill_in_blocks: 0,
                flops: 0,
            };
            let empty = |_| PartitionSolveState {
                updates: Vec::new(),
                workload: workload.clone(),
                factors: None,
            };
            return Ok(ranges.iter().map(empty).collect());
        }
        let interiors: Vec<Vec<BlockTridiagonal>> = ranges
            .iter()
            .map(|sub| sub.iter().map(|m| m.sub_range(local.clone())).collect())
            .collect();
        // Selected solves of the isolated interiors (the `D·B·D†` term).
        let solved = solve_systems(&interiors, scratch)?;
        ranges
            .iter()
            .zip(&interiors)
            .zip(solved)
            .map(|((sub, int), sol)| eliminate_interior(sub, int, sol, part, index))
            .collect()
    })
}

/// The per-system part of [`eliminate_partition`]: `sub` is the partition's
/// sub-range of the system, `interior_system` its interior cut and `interior`
/// the selected solution of that cut.
fn eliminate_interior(
    sub: &[BlockTridiagonal],
    interior_system: &[BlockTridiagonal],
    interior: SelectedSolution,
    part: &SpatialPartition,
    index: usize,
) -> Result<PartitionSolveState, RgfError> {
    let (a_int, rhs_int) = (&interior_system[0], &interior_system[1..]);
    let (n_int, bs, n_rhs) = (a_int.n_blocks(), a_int.block_size(), rhs_int.len());
    let gemm_c = gemm_flops(bs, bs, bs);
    let offset = part.interior().start - part.lo;
    let factor = InteriorFactor::new(a_int)?;
    let mut flops = interior.flops + factor.flops;
    let mut fill_in_blocks = 0usize;
    let dagger_all = |col: Vec<CMatrix>| col.iter().map(CMatrix::dagger).collect::<Vec<_>>();

    // Fill-in factors per separator: interior inverse columns/rows towards the
    // adjacent edge, contracted with the separator couplings, plus (per RHS)
    // the quadratic factors q and s.
    let mut cols_per_boundary: Vec<Vec<CMatrix>> = Vec::new();
    let mut boundaries: Vec<BoundaryFactors> = Vec::new();
    for (sep, nbr) in boundary_pairs(part) {
        let edge = nbr - offset;
        let cols = factor.solve(factor.unit_column(edge), false, &mut flops);
        // [A_I⁻¹]_{edge,k} = (W_k)† with A_I†·W = E_edge.
        let rows = dagger_all(factor.solve(factor.unit_column(edge), true, &mut flops));
        fill_in_blocks += 2 * n_int;
        let a_int_to_sep = band_block(&sub[0], nbr, sep);
        let a_sep_to_int = band_block(&sub[0], sep, nbr);
        let left_f: Vec<CMatrix> = cols.iter().map(|c| matmul(c, a_int_to_sep)).collect();
        let right_f: Vec<CMatrix> = rows.iter().map(|r| matmul(a_sep_to_int, r)).collect();
        flops += 2 * n_int as u64 * gemm_c;

        let mut q: Vec<Vec<CMatrix>> = Vec::with_capacity(n_rhs);
        let mut s: Vec<Vec<CMatrix>> = Vec::with_capacity(n_rhs);
        for (bint, bsub) in rhs_int.iter().zip(&sub[1..]) {
            // Column c[j] = (B·Vᵗ†)_{j,b} = B_{j,sep}·δ_{j,edge} − Σ_{j'} B_{j,j'}·R[j']†.
            let mut c = vec![CMatrix::zeros(bs, bs); n_int];
            c[edge] += band_block(bsub, nbr, sep);
            // Row r[j] = (Vᵗ·B)_{b,j} = B_{sep,j}·δ_{j,edge} − Σ_{j'} R[j']·B_{j',j};
            // assembled daggered so it can run through the column solver.
            let mut row_dag = vec![CMatrix::zeros(bs, bs); n_int];
            row_dag[edge].axpy_dagger(ONE, band_block(bsub, sep, nbr));
            for j in 0..n_int {
                for j2 in j.saturating_sub(1)..=(j + 1).min(n_int - 1) {
                    let r_dag = Op::Dagger(&right_f[j2]);
                    gemm(
                        &mut c[j],
                        -ONE,
                        Op::None(band_block(bint, j, j2)),
                        r_dag,
                        ONE,
                    );
                    // −(R·B)† accumulated dagger-fused as −B†·R†.
                    let b_dag = Op::Dagger(band_block(bint, j2, j));
                    gemm(&mut row_dag[j], -ONE, b_dag, r_dag, ONE);
                    flops += 2 * gemm_c;
                }
            }
            q.push(factor.solve(c, false, &mut flops));
            s.push(dagger_all(factor.solve(row_dag, false, &mut flops)));
            fill_in_blocks += 2 * n_int;
        }
        cols_per_boundary.push(cols);
        boundaries.push(BoundaryFactors {
            sep,
            nbr,
            left_f,
            right_f,
            q,
            s,
        });
    }

    // Schur-complement updates onto the separators:
    //   S_{b1,b2} −= A_{b1,e1}·[A_I⁻¹]_{e1,e2}·A_{e2,b2}
    // and the quadratic reduced-RHS updates:
    //   B̃_{b1,b2} += −R1[e2]·B_{e2,b2} − B_{b1,e1}·R2[e1]†
    //              + Σ_{j,j'} R1[j]·B_{j,j'}·R2[j']†.
    let nbd = boundaries.len();
    let mut updates = vec![CMatrix::zeros(bs, bs); (1 + n_rhs) * nbd * nbd];
    for (i1, b1) in boundaries.iter().enumerate() {
        for (i2, b2) in boundaries.iter().enumerate() {
            let (e1, e2) = (b1.nbr - offset, b2.nbr - offset);
            // [A_I⁻¹]_{e1,e2} is entry e1 of the block column towards e2.
            let inv_e1_e2 = &cols_per_boundary[i2][e1];
            let a_b1_e1 = band_block(&sub[0], b1.sep, b1.nbr);
            let a_e2_b2 = band_block(&sub[0], b2.nbr, b2.sep);
            updates[i1 * nbd + i2] = matmul(&matmul(a_b1_e1, inv_e1_e2), a_e2_b2).scaled(-ONE);
            flops += 2 * gemm_c;

            for (r, (bint, bsub)) in rhs_int.iter().zip(&sub[1..]).enumerate() {
                let b_e2_b2 = band_block(bsub, b2.nbr, b2.sep);
                let mut upd = matmul(&b1.right_f[e2], b_e2_b2).scaled(-ONE);
                let b_b1_e1 = Op::None(band_block(bsub, b1.sep, b1.nbr));
                gemm(&mut upd, -ONE, b_b1_e1, Op::Dagger(&b2.right_f[e1]), ONE);
                flops += 2 * gemm_c;
                for j in 0..n_int {
                    for j2 in j.saturating_sub(1)..=(j + 1).min(n_int - 1) {
                        let t = matmul(&b1.right_f[j], band_block(bint, j, j2));
                        gemm(
                            &mut upd,
                            ONE,
                            Op::None(&t),
                            Op::Dagger(&b2.right_f[j2]),
                            ONE,
                        );
                        flops += 2 * gemm_c;
                    }
                }
                updates[((1 + r) * nbd + i1) * nbd + i2] = upd;
            }
        }
    }

    Ok(PartitionSolveState {
        updates,
        workload: PartitionWorkload {
            partition: index,
            blocks: part.hi - part.lo + 1,
            fill_in_blocks,
            flops,
        },
        factors: Some(PartitionFactors {
            interior,
            boundaries,
        }),
    })
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
                    // uncoupled (their coupling is pure fill-in).
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

/// Recover the selected blocks of one partition — interior, separator
/// diagonals and the couplings between them — from its local factors and the
/// selected solution of the reduced boundary system, as a
/// [`SelectedSolution`] over [`SpatialPartition::range`] (its `flops` are the
/// recovery's).
pub fn recover_partition(
    part: &SpatialPartition,
    state: &PartitionSolveState,
    reduced: &SelectedSolution,
) -> SelectedSolution {
    quatrex_probe::span("rgf.recover_partition", "rgf.partition", || {
        recover_partition_impl(part, state, reduced)
    })
}

fn recover_partition_impl(
    part: &SpatialPartition,
    state: &PartitionSolveState,
    reduced: &SelectedSolution,
) -> SelectedSolution {
    let n_rhs = reduced.lesser.len();
    let bs = reduced.retarded.block_size();
    let mut out = SelectedSolution::zeros(part.range().len(), bs, n_rhs);
    let Some(factors) = &state.factors else {
        return out;
    };
    let n_int = part.interior().len();
    let offset = part.interior().start - part.lo;
    let gemm_c = gemm_flops(bs, bs, bs);
    let bd = &factors.boundaries;
    let nbd = bd.len();
    // Reduced blocks between this partition's separators.
    let first = first_separator(state.workload.partition);
    let xr = |i: usize, j: usize| band_block(&reduced.retarded, first + i, first + j);
    let xl = |r: usize, i: usize, j: usize| band_block(&reduced.lesser[r], first + i, first + j);
    let mut flops = 0u64;

    // Interior blocks:
    //   X^R_{k,k'} = D_{k,k'} + Σ L_i[k]·X_BB[i,j]·R_j[k']
    //   X^≶_{k,k'} = T1_{k,k'} + Σ [ L_i[k]·X≶_BB[i,j]·L_j[k']†
    //                               − q_j[k]·X_BB[i,j]†·L_i[k']†
    //                               − L_i[k]·X_BB[i,j]·s_j[k'] ].
    // Two scratch blocks shared by every recovered block (the nbd² inner loop
    // must not allocate per term).
    let mut t = CMatrix::zeros(bs, bs);
    let mut t2 = CMatrix::zeros(bs, bs);
    for k in 0..n_int {
        for (k1, k2) in [(k, k), (k, k + 1), (k + 1, k)] {
            if k1.max(k2) == n_int {
                continue;
            }
            let mut x = band_block(&factors.interior.retarded, k1, k2).clone();
            for i in 0..nbd {
                for j in 0..nbd {
                    x += &matmul(&matmul(&bd[i].left_f[k1], xr(i, j)), &bd[j].right_f[k2]);
                    flops += 2 * gemm_c;
                }
            }
            out.retarded.set_block(offset + k1, offset + k2, x);
            for r in 0..n_rhs {
                let mut v = band_block(&factors.interior.lesser[r], k1, k2).clone();
                for i in 0..nbd {
                    for j in 0..nbd {
                        let (li, lj) = (&bd[i].left_f, &bd[j].left_f);
                        gemm(&mut t, ONE, Op::None(&li[k1]), Op::None(xl(r, i, j)), ZERO);
                        gemm(&mut v, ONE, Op::None(&t), Op::Dagger(&lj[k2]), ONE);
                        gemm(
                            &mut t,
                            ONE,
                            Op::None(&bd[j].q[r][k1]),
                            Op::Dagger(xr(i, j)),
                            ZERO,
                        );
                        gemm(&mut v, -ONE, Op::None(&t), Op::Dagger(&li[k2]), ONE);
                        gemm(&mut t, ONE, Op::None(&li[k1]), Op::None(xr(i, j)), ZERO);
                        gemm(&mut t2, ONE, Op::None(&t), Op::None(&bd[j].s[r][k2]), ZERO);
                        v -= &t2;
                        flops += 6 * gemm_c;
                    }
                }
                out.lesser[r].set_block(offset + k1, offset + k2, v);
            }
        }
    }

    // Separator diagonals (the reduced solution's own) and the
    // separator ↔ interior-edge couplings:
    //   X^R_{b,e}  = −Σ_j X_BB[b,j]·R_j[e]        X^R_{e,b} = −Σ_j L_j[e]·X_BB[j,b]
    //   X^≶_{b,e}  = Σ_j X_BB[b,j]·s_j[e] − Σ_j X≶_BB[b,j]·L_j[e]†
    //   X^≶_{e,b}  = Σ_j q_j[e]·X_BB[b,j]† − Σ_j L_j[e]·X≶_BB[j,b].
    for (bi, b) in bd.iter().enumerate() {
        let e = b.nbr - offset;
        let mut r_se = CMatrix::zeros(bs, bs);
        let mut r_es = CMatrix::zeros(bs, bs);
        for j in 0..nbd {
            r_se -= &matmul(xr(bi, j), &bd[j].right_f[e]);
            r_es -= &matmul(&bd[j].left_f[e], xr(j, bi));
            flops += 2 * gemm_c;
        }
        out.retarded.set_block(b.sep, b.sep, xr(bi, bi).clone());
        out.retarded.set_block(b.sep, b.nbr, r_se);
        out.retarded.set_block(b.nbr, b.sep, r_es);
        for r in 0..n_rhs {
            let mut v_se = CMatrix::zeros(bs, bs);
            let mut v_es = CMatrix::zeros(bs, bs);
            for j in 0..nbd {
                let l_dag = Op::Dagger(&bd[j].left_f[e]);
                v_se += &matmul(xr(bi, j), &bd[j].s[r][e]);
                gemm(&mut v_se, -ONE, Op::None(xl(r, bi, j)), l_dag, ONE);
                gemm(
                    &mut v_es,
                    ONE,
                    Op::None(&bd[j].q[r][e]),
                    Op::Dagger(xr(bi, j)),
                    ONE,
                );
                v_es -= &matmul(&bd[j].left_f[e], xl(r, j, bi));
                flops += 4 * gemm_c;
            }
            out.lesser[r].set_block(b.sep, b.sep, xl(r, bi, bi).clone());
            out.lesser[r].set_block(b.sep, b.nbr, v_se);
            out.lesser[r].set_block(b.nbr, b.sep, v_es);
        }
    }
    out.flops = flops;
    out
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
/// `P_S ≥ 2` the partition interiors are eliminated concurrently, the reduced
/// boundary system (and its quadratic right-hand sides) is assembled from the
/// gathered updates and solved with the sequential RGF, and the interior
/// blocks are recovered in parallel.
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
                    fill_in_blocks: 0,
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

    // Phase 1: parallel elimination of the partition interiors, each a batch
    // of one system.
    let states: Vec<PartitionSolveState> = parts
        .par_iter()
        .enumerate()
        .map(|(idx, p)| {
            let ranges = [partition_ranges(&system, p)];
            let mut states = eliminate_partition(&ranges, p, idx, &mut RgfBatchScratch::new())?;
            Ok(states.remove(0))
        })
        .collect::<Result<Vec<_>, RgfError>>()?;

    // Phase 2: assemble and solve the reduced system over the separators.
    let updates: Vec<&[CMatrix]> = states.iter().map(|s| s.updates.as_slice()).collect();
    let reduced_system = assemble_reduced_system(&system, parts, &updates);
    let reduced = solve_systems(&[reduced_system], &mut RgfBatchScratch::new())?.remove(0);

    // Phase 3: recover the interior selected blocks in parallel.
    let recovered: Vec<SelectedSolution> = parts
        .par_iter()
        .zip(states.par_iter())
        .map(|(part, state)| recover_partition(part, state, &reduced))
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
