//! Selected recursive Green's function (RGF) solve of one system.
//!
//! The solver follows the paper's Section 4.3.2: a forward pass builds the
//! "left-connected" retarded and lesser/greater functions by recursive Schur
//! complementation (Eqs. (9)–(10)), a backward pass then assembles the
//! selected blocks of the full solution (Eqs. (11)–(12)), including the first
//! off-diagonal blocks needed by the polarisation/self-energy convolutions and
//! the current observable.
//!
//! The lesser/greater recursions are derived from the exact block-partitioned
//! identities for `X≶ = Ã⁻¹·B≶·Ã⁻†` with a block-tridiagonal `B≶` (i.e.
//! including the off-diagonal self-energy blocks that plain ballistic RGF
//! formulations drop); every block is validated against the dense reference
//! in the tests.
//!
//! The recursion itself lives in [`crate::batch`]: a single system is a batch
//! of one through [`rgf_solve_batch_into`], so the entry points here share
//! its arithmetic, FLOP accounting and zero-allocation steady state (pinned
//! by `tests/alloc_free.rs`). This module owns the per-system types and the
//! convenience wrappers that allocate the solution and/or the scratch.

use quatrex_sparse::BlockTridiagonal;

use crate::batch::{rgf_solve_batch_into, RgfBatchScratch};

/// Errors produced by the RGF solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum RgfError {
    /// A diagonal Schur complement was numerically singular at the given block.
    SingularBlock(usize),
    /// The system and right-hand side have inconsistent block structure.
    ShapeMismatch,
}

impl std::fmt::Display for RgfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RgfError::SingularBlock(i) => write!(f, "singular Schur complement at block {i}"),
            RgfError::ShapeMismatch => write!(f, "system/RHS block structure mismatch"),
        }
    }
}

impl std::error::Error for RgfError {}

/// Selected solution of the quadratic matrix problem: the diagonal and first
/// off-diagonal blocks of `X^R` and of one `X≶` per provided right-hand side.
#[derive(Debug, Clone, Default)]
pub struct SelectedSolution {
    /// Selected blocks of the retarded solution `X^R = Ã⁻¹`.
    pub retarded: BlockTridiagonal,
    /// Selected blocks of `X≶ = Ã⁻¹·B≶·Ã⁻†`, one entry per right-hand side.
    pub lesser: Vec<BlockTridiagonal>,
    /// Real FLOPs spent (GEMM + LU counting as in the paper's workload model).
    pub flops: u64,
}

impl SelectedSolution {
    /// A zero-filled solution of the given shape, ready for
    /// [`rgf_solve_into`].
    pub fn zeros(n_blocks: usize, block_size: usize, n_rhs: usize) -> Self {
        Self {
            retarded: BlockTridiagonal::zeros(n_blocks, block_size),
            lesser: vec![BlockTridiagonal::zeros(n_blocks, block_size); n_rhs],
            flops: 0,
        }
    }

    /// Shape `self` as `n_rhs` right-hand sides over `n_blocks` blocks of
    /// `block_size` ([`BlockTridiagonal::fit`]: kept matrices keep their
    /// entries, reshaped ones are zero).
    pub fn fit(&mut self, n_blocks: usize, block_size: usize, n_rhs: usize) {
        self.retarded.fit(n_blocks, block_size);
        self.lesser.truncate(n_rhs);
        self.lesser.resize_with(n_rhs, BlockTridiagonal::default);
        for l in &mut self.lesser {
            l.fit(n_blocks, block_size);
        }
    }

    /// Zero every selected block, in place.
    pub fn set_zero(&mut self) {
        self.retarded.set_zero();
        self.lesser.iter_mut().for_each(BlockTridiagonal::set_zero);
    }
}

/// Scratch of a single-system solve: the batch scratch, used at batch
/// length one. Hold one per worker and reuse it across solves — after the
/// first solve at a given shape, every later solve allocates nothing.
pub type RgfScratch = RgfBatchScratch;

/// Selected inverse only (no lesser/greater right-hand sides).
pub fn rgf_selected_inverse(a: &BlockTridiagonal) -> Result<SelectedSolution, RgfError> {
    rgf_solve(a, &[])
}

/// Full selected RGF solve with an arbitrary number of lesser/greater
/// right-hand sides sharing the same system matrix.
///
/// Allocates a fresh solution and scratch; loops should prefer
/// [`rgf_solve_scratch`] (or [`rgf_solve_into`]) to amortise both.
pub fn rgf_solve(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
) -> Result<SelectedSolution, RgfError> {
    let mut scratch = RgfScratch::new();
    rgf_solve_scratch(a, rhs, &mut scratch)
}

/// Selected RGF solve reusing a caller-held [`RgfScratch`]. Only the returned
/// solution is allocated.
pub fn rgf_solve_scratch(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
    scratch: &mut RgfScratch,
) -> Result<SelectedSolution, RgfError> {
    let mut sol = SelectedSolution::zeros(a.n_blocks(), a.block_size(), rhs.len());
    rgf_solve_into(a, rhs, &mut sol, scratch)?;
    Ok(sol)
}

/// Selected RGF solve writing into a caller-owned solution, with all
/// temporaries drawn from `scratch`: a batch of one through
/// [`rgf_solve_batch_into`]. In the steady state (solution and scratch warmed
/// at this shape) the call performs zero heap allocations.
pub fn rgf_solve_into(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
    sol: &mut SelectedSolution,
    scratch: &mut RgfScratch,
) -> Result<(), RgfError> {
    rgf_solve_batch_into(&[a], &[rhs], std::slice::from_mut(sol), scratch).map_err(|e| e.error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{dense_block, dense_lesser, dense_retarded};
    use quatrex_linalg::{cplx, CMatrix};

    /// A well-conditioned non-Hermitian system matrix (like E·S − H − Σ^R with
    /// a finite broadening) and a block-tridiagonal anti-Hermitian RHS.
    fn test_system(nb: usize, bs: usize) -> (BlockTridiagonal, BlockTridiagonal) {
        let mut a = BlockTridiagonal::zeros(nb, bs);
        let mut b = BlockTridiagonal::zeros(nb, bs);
        for i in 0..nb {
            let d = CMatrix::from_fn(bs, bs, |r, c| {
                if r == c {
                    cplx(2.5 + 0.1 * i as f64, 0.3)
                } else {
                    cplx(
                        -0.3 / (1.0 + (r as f64 - c as f64).abs()),
                        0.07 * (r as f64 - c as f64),
                    )
                }
            });
            a.set_block(i, i, d);
            let braw = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(
                    0.2 * (r + i) as f64 - 0.1 * c as f64,
                    0.4 - 0.05 * (r + c) as f64,
                )
            });
            b.set_block(i, i, braw.negf_antihermitian_part());
        }
        for i in 0..nb - 1 {
            let u = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(-0.4 + 0.03 * r as f64, 0.05 * c as f64 + 0.01 * i as f64)
            });
            let l = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(-0.35 - 0.02 * c as f64, -0.04 * r as f64)
            });
            a.set_block(i, i + 1, u);
            a.set_block(i + 1, i, l);
            let bu = CMatrix::from_fn(bs, bs, |r, c| {
                cplx(0.05 * (r as f64 - c as f64), 0.12 + 0.01 * i as f64)
            });
            b.set_block(i, i + 1, bu.clone());
            b.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
        }
        (a, b)
    }

    #[test]
    fn retarded_diagonal_matches_dense_inverse() {
        for (nb, bs) in [(3, 2), (5, 3), (8, 2)] {
            let (a, _) = test_system(nb, bs);
            let sol = rgf_selected_inverse(&a).unwrap();
            let dense = dense_retarded(&a);
            for i in 0..nb {
                let want = dense_block(&dense, i, i, bs);
                assert!(
                    sol.retarded.diag(i).approx_eq(&want, 1e-9),
                    "diag block {i} mismatch ({nb},{bs})"
                );
            }
        }
    }

    #[test]
    fn retarded_off_diagonals_match_dense_inverse() {
        let (a, _) = test_system(6, 3);
        let sol = rgf_selected_inverse(&a).unwrap();
        let dense = dense_retarded(&a);
        for i in 0..5 {
            let up = dense_block(&dense, i, i + 1, 3);
            let lo = dense_block(&dense, i + 1, i, 3);
            assert!(sol.retarded.upper(i).approx_eq(&up, 1e-9), "upper {i}");
            assert!(sol.retarded.lower(i).approx_eq(&lo, 1e-9), "lower {i}");
        }
    }

    #[test]
    fn lesser_diagonal_matches_dense_reference() {
        for (nb, bs) in [(3, 2), (6, 3)] {
            let (a, b) = test_system(nb, bs);
            let sol = rgf_solve(&a, &[&b]).unwrap();
            let dense = dense_lesser(&a, &b);
            for i in 0..nb {
                let want = dense_block(&dense, i, i, bs);
                assert!(
                    sol.lesser[0].diag(i).approx_eq(&want, 1e-8),
                    "lesser diag {i} mismatch ({nb},{bs}), err {}",
                    sol.lesser[0].diag(i).distance(&want)
                );
            }
        }
    }

    #[test]
    fn lesser_off_diagonals_match_dense_reference() {
        let (a, b) = test_system(5, 3);
        let sol = rgf_solve(&a, &[&b]).unwrap();
        let dense = dense_lesser(&a, &b);
        for i in 0..4 {
            let up = dense_block(&dense, i, i + 1, 3);
            let lo = dense_block(&dense, i + 1, i, 3);
            assert!(
                sol.lesser[0].upper(i).approx_eq(&up, 1e-8),
                "lesser upper {i}, err {}",
                sol.lesser[0].upper(i).distance(&up)
            );
            assert!(
                sol.lesser[0].lower(i).approx_eq(&lo, 1e-8),
                "lesser lower {i}, err {}",
                sol.lesser[0].lower(i).distance(&lo)
            );
        }
    }

    #[test]
    fn multiple_rhs_are_solved_consistently() {
        let (a, b) = test_system(4, 2);
        // Second RHS: the "greater" partner with flipped sign structure.
        let mut b2 = b.clone();
        b2.scale_mut(cplx(-0.5, 0.0));
        let sol = rgf_solve(&a, &[&b, &b2]).unwrap();
        assert_eq!(sol.lesser.len(), 2);
        // Linearity: X2 = -0.5 X1.
        for i in 0..4 {
            let scaled = sol.lesser[0].diag(i).scaled(cplx(-0.5, 0.0));
            assert!(sol.lesser[1].diag(i).approx_eq(&scaled, 1e-10));
        }
    }

    #[test]
    fn lesser_solution_preserves_negf_symmetry() {
        let (a, b) = test_system(6, 2);
        let sol = rgf_solve(&a, &[&b]).unwrap();
        assert!(sol.lesser[0].negf_symmetry_error() < 1e-9);
    }

    #[test]
    fn flops_scale_linearly_with_block_count() {
        let (a4, b4) = test_system(4, 3);
        let (a8, b8) = test_system(8, 3);
        let f4 = rgf_solve(&a4, &[&b4]).unwrap().flops;
        let f8 = rgf_solve(&a8, &[&b8]).unwrap().flops;
        let ratio = f8 as f64 / f4 as f64;
        // O(N_B·N_BS³): doubling N_B roughly doubles the work (the first block
        // of the forward pass is cheaper, so the ratio is slightly above 2).
        assert!(ratio > 1.8 && ratio < 2.6, "ratio = {ratio}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (a, _) = test_system(4, 2);
        let (_, b_wrong) = test_system(5, 2);
        assert_eq!(
            rgf_solve(&a, &[&b_wrong]).unwrap_err(),
            RgfError::ShapeMismatch
        );
    }

    #[test]
    fn singular_block_is_reported() {
        let (mut a, _) = test_system(3, 2);
        a.set_block(1, 1, CMatrix::zeros(2, 2));
        a.set_block(0, 1, CMatrix::zeros(2, 2));
        a.set_block(1, 0, CMatrix::zeros(2, 2));
        match rgf_selected_inverse(&a).unwrap_err() {
            RgfError::SingularBlock(i) => assert_eq!(i, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn single_block_system_degenerates_to_plain_inverse() {
        let d = CMatrix::from_fn(3, 3, |r, c| {
            if r == c {
                cplx(2.0, 0.5)
            } else {
                cplx(0.1, 0.0)
            }
        });
        let a = BlockTridiagonal::from_parts(vec![d.clone()], vec![], vec![]);
        let sol = rgf_selected_inverse(&a).unwrap();
        let want = quatrex_linalg::lu::inverse(&d).unwrap();
        assert!(sol.retarded.diag(0).approx_eq(&want, 1e-12));
    }

    #[test]
    fn scratch_reuse_is_exact_across_shapes_and_solves() {
        // One scratch driven across different shapes and repeated solves must
        // reproduce the fresh-scratch result bit for bit.
        let mut scratch = RgfScratch::new();
        for (nb, bs) in [(4, 3), (6, 2), (4, 3)] {
            let (a, b) = test_system(nb, bs);
            let fresh = rgf_solve(&a, &[&b]).unwrap();
            let reused = rgf_solve_scratch(&a, &[&b], &mut scratch).unwrap();
            assert!(reused
                .retarded
                .to_dense()
                .approx_eq(&fresh.retarded.to_dense(), 0.0));
            assert!(reused.lesser[0]
                .to_dense()
                .approx_eq(&fresh.lesser[0].to_dense(), 0.0));
            assert_eq!(reused.flops, fresh.flops);
        }
    }

    #[test]
    fn solve_into_reuses_the_solution_storage() {
        let (a, b) = test_system(5, 2);
        let mut scratch = RgfScratch::new();
        let mut sol = SelectedSolution::zeros(5, 2, 1);
        rgf_solve_into(&a, &[&b], &mut sol, &mut scratch).unwrap();
        let first = sol.retarded.to_dense();
        // Overwrite with garbage, solve again into the same storage.
        for i in 0..5 {
            sol.retarded.set_block(
                i,
                i,
                CMatrix::from_fn(2, 2, |r, c| cplx(9.0 + r as f64, c as f64)),
            );
        }
        rgf_solve_into(&a, &[&b], &mut sol, &mut scratch).unwrap();
        assert!(sol.retarded.to_dense().approx_eq(&first, 0.0));
        // Steady state: the second solve performed no fresh arena allocations.
        let warm = scratch.fresh_allocations();
        rgf_solve_into(&a, &[&b], &mut sol, &mut scratch).unwrap();
        assert_eq!(scratch.fresh_allocations(), warm);
    }
}
