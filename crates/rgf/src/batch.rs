//! The selected RGF recursion, batched over energies.
//!
//! [`rgf_solve_batch_into`] is the one implementation of the forward/backward
//! recursions (paper Section 4.3.2, Eqs. (9)–(12); the derivation is in
//! [`crate::sequential`]'s module docs). It runs them for a whole batch of
//! same-structure systems at once: at every block position the per-energy
//! blocks are staged into energy-major [`MatrixBatch`] operands and each
//! block product runs as **one** [`gemm_batch`] call over all energies.
//! Conjugate transposes (`g_i†`, `Θ†`, `A_{i,i+1}†`, …) are fused into the
//! kernel loads through the operand flags instead of being materialised. A
//! single system is a batch of one ([`crate::sequential::rgf_solve_into`]).
//!
//! Planes of a `gemm_batch` call are independent and each runs the same
//! packing + micro-kernel code whatever the batch length, so a member's
//! selected blocks do not depend on which batch it is solved in — **batch-size
//! independence, bit for bit** (`tests/batch_equivalence.rs`), anchored to the
//! allocating pre-engine recursion [`crate::reference`] at ≤ 1e-13
//! (`tests/reference_equivalence.rs`). The per-energy FLOP count is
//! structural (it depends only on the block counts), so every member reports
//! the same [`SelectedSolution::flops`] and a batch totals `B ×` that value.
//!
//! All temporaries come from a [`BatchWorkspace`] arena held in
//! [`RgfBatchScratch`]; once scratch and solutions are warmed at a shape, the
//! steady-state solve performs **zero heap allocations** at any batch length
//! (pinned by the counting-allocator tests in `tests/alloc_free.rs`).

use quatrex_linalg::batch::{gemm_batch, invert_batch_into, BatchOp, BatchWorkspace, MatrixBatch};
use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm_flops, OpKind};
use quatrex_linalg::{c64, ONE, ZERO};
use quatrex_sparse::BlockTridiagonal;

use crate::sequential::{RgfError, SelectedSolution};

/// A batched-solve failure: the per-energy [`RgfError`] tagged with the batch
/// member (energy index within the batch) it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct RgfBatchError {
    /// Index within the batch of the energy whose solve failed.
    pub energy: usize,
    /// The per-energy error.
    pub error: RgfError,
}

impl std::fmt::Display for RgfBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch energy {}: {}", self.energy, self.error)
    }
}

impl std::error::Error for RgfBatchError {}

/// Reusable scratch state of the batched RGF solver: the batch arena, one LU
/// scratch (plane-sequential inversions), and the left-connected
/// forward-pass quantities as energy-major batches. Hold one per worker and
/// reuse it across batches — after the first solve at a given shape, every
/// later solve allocates nothing.
#[derive(Debug, Default)]
pub struct RgfBatchScratch {
    bws: BatchWorkspace,
    lu: LuScratch,
    /// Left-connected retarded batches `g[i]`: plane `e` is `g_i` of energy `e`.
    g: Vec<MatrixBatch>,
    /// Left-connected lesser/greater batches `gl[r][i]`, one row per RHS.
    gl: Vec<Vec<MatrixBatch>>,
}

impl RgfBatchScratch {
    /// Create an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fresh buffer allocations the arena has performed; constant
    /// once the solver has reached its steady state.
    pub fn fresh_allocations(&self) -> usize {
        self.bws.fresh_allocations()
    }
}

/// Stage per-energy blocks into an energy-major batch operand.
#[inline]
fn stage<'a>(dst: &mut MatrixBatch, mut block: impl FnMut(usize) -> &'a quatrex_linalg::CMatrix) {
    for e in 0..dst.batch_len() {
        dst.copy_plane_from(e, block(e));
    }
}

/// Per-energy operand, plane `e` entered as stored.
#[inline(always)]
fn each(mb: &MatrixBatch) -> BatchOp<'_> {
    BatchOp::Each(OpKind::None, mb)
}

/// Per-energy operand, plane `e` entered conjugate-transposed.
#[inline(always)]
fn each_dag(mb: &MatrixBatch) -> BatchOp<'_> {
    BatchOp::Each(OpKind::Dagger, mb)
}

/// Batched selected RGF solve allocating fresh solutions and scratch.
/// Loops should prefer [`rgf_solve_batch_into`] to amortise both.
pub fn rgf_solve_batch(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
) -> Result<Vec<SelectedSolution>, RgfBatchError> {
    let n_rhs = rhs.first().map_or(0, |r| r.len());
    let (nb, bs) = systems
        .first()
        .map_or((0, 0), |a| (a.n_blocks(), a.block_size()));
    let mut sols = vec![SelectedSolution::zeros(nb, bs, n_rhs); systems.len()];
    let mut scratch = RgfBatchScratch::new();
    rgf_solve_batch_into(systems, rhs, &mut sols, &mut scratch)?;
    Ok(sols)
}

/// Batched selected RGF solve writing into caller-owned solutions, with all
/// temporaries drawn from `scratch`.
///
/// `systems[e]` and `rhs[e]` are the system matrix and right-hand sides of
/// batch member `e`; every member must share the block structure and RHS
/// count. `sols[e]` depends on `(systems[e], rhs[e])` only — not on the batch
/// length or on the other members — bit for bit, including the FLOP count.
pub fn rgf_solve_batch_into(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfBatchError> {
    let bsz = systems.len();
    assert_eq!(rhs.len(), bsz, "one RHS set per batch member");
    assert_eq!(sols.len(), bsz, "one solution per batch member");
    if bsz == 0 {
        return Ok(());
    }
    let nb = systems[0].n_blocks();
    let bs = systems[0].block_size();
    let n_rhs = rhs[0].len();
    let shape_err = |e: usize| RgfBatchError {
        energy: e,
        error: RgfError::ShapeMismatch,
    };
    for (e, a) in systems.iter().enumerate() {
        if a.n_blocks() != nb || a.block_size() != bs {
            return Err(shape_err(e));
        }
        if rhs[e].len() != n_rhs {
            return Err(shape_err(e));
        }
        for b in rhs[e] {
            if b.n_blocks() != nb || b.block_size() != bs {
                return Err(shape_err(e));
            }
        }
    }

    let mut flops = 0u64; // per energy — structural, identical for every member
    let gemm_c = gemm_flops(bs, bs, bs);
    let inv_cost = inverse_flops(bs);

    // Shape the outputs and scratch (no-ops in the steady state).
    let fits = |bt: &BlockTridiagonal| bt.n_blocks() == nb && bt.block_size() == bs;
    for sol in sols.iter_mut() {
        if !fits(&sol.retarded) {
            sol.retarded = BlockTridiagonal::zeros(nb, bs);
        }
        sol.lesser.truncate(n_rhs);
        for l in sol.lesser.iter_mut() {
            if !fits(l) {
                *l = BlockTridiagonal::zeros(nb, bs);
            }
        }
        while sol.lesser.len() < n_rhs {
            sol.lesser.push(BlockTridiagonal::zeros(nb, bs));
        }
    }
    let RgfBatchScratch { bws, lu, g, gl } = scratch;
    let batch_fits =
        |mb: &MatrixBatch| mb.batch_len() == bsz && mb.nrows() == bs && mb.ncols() == bs;
    // The slot lists only grow: a scratch that alternates between block
    // counts (a rank of a spatial group solves partition interiors and
    // reduced boundary systems on one scratch) keeps the longer list warm.
    if g.len() < nb {
        g.resize_with(nb, || MatrixBatch::zeros(0, 0, 0));
    }
    for slot in g[..nb].iter_mut() {
        if !batch_fits(slot) {
            *slot = MatrixBatch::zeros(bsz, bs, bs);
        }
    }
    while gl.len() < n_rhs {
        gl.push(Vec::new());
    }
    for row in gl[..n_rhs].iter_mut() {
        if row.len() < nb {
            row.resize_with(nb, || MatrixBatch::zeros(0, 0, 0));
        }
        for slot in row[..nb].iter_mut() {
            if !batch_fits(slot) {
                *slot = MatrixBatch::zeros(bsz, bs, bs);
            }
        }
    }

    // ------------------------------------------------------------------ forward
    // Left-connected retarded g[i] and lesser gl[r][i], batched per block
    // position: stage the per-energy blocks once, then one batched product
    // per GEMM of the recursion.
    let mut sd = bws.take(bsz, bs, bs);
    stage(&mut sd, |e| systems[e].diag(0));
    invert_batch_into(lu, &sd, &mut g[0]).map_err(|(e, _)| RgfBatchError {
        energy: e,
        error: RgfError::SingularBlock(0),
    })?;
    flops += inv_cost;
    for r in 0..n_rhs {
        // gl_0 = g_0 · B_00 · g_0†
        let mut bd = bws.take(bsz, bs, bs);
        stage(&mut bd, |e| rhs[e][r].diag(0));
        let mut t = bws.take(bsz, bs, bs);
        gemm_batch(&mut t, ONE, each(&g[0]), each(&bd), ZERO);
        gemm_batch(&mut gl[r][0], ONE, each(&t), each_dag(&g[0]), ZERO);
        flops += 2 * gemm_c;
        bws.give(bd);
        bws.give(t);
    }

    for i in 1..nb {
        let mut slo = bws.take(bsz, bs, bs); // A_{i, i-1}
        stage(&mut slo, |e| systems[e].lower(i - 1));
        let mut sup = bws.take(bsz, bs, bs); // A_{i-1, i}
        stage(&mut sup, |e| systems[e].upper(i - 1));

        // Schur complement d = A_ii − A_{i,i-1} g_{i-1} A_{i-1,i}.
        let mut t1 = bws.take(bsz, bs, bs);
        gemm_batch(&mut t1, ONE, each(&slo), each(&g[i - 1]), ZERO);
        let mut t2 = bws.take(bsz, bs, bs);
        gemm_batch(&mut t2, ONE, each(&t1), each(&sup), ZERO);
        flops += 2 * gemm_c;
        let mut d = bws.take(bsz, bs, bs);
        stage(&mut d, |e| systems[e].diag(i));
        d.sub_assign_batch(&t2);
        invert_batch_into(lu, &d, &mut g[i]).map_err(|(e, _)| RgfBatchError {
            energy: e,
            error: RgfError::SingularBlock(i),
        })?;
        flops += inv_cost;

        for r in 0..n_rhs {
            // inner = B_ii + A_{i,i-1} gl_{i-1} A_{i,i-1}†
            //       − A_{i,i-1} g_{i-1} B_{i-1,i} − B_{i,i-1} g_{i-1}† A_{i,i-1}†
            let mut inner = bws.take(bsz, bs, bs);
            stage(&mut inner, |e| rhs[e][r].diag(i));
            let mut bup = bws.take(bsz, bs, bs);
            stage(&mut bup, |e| rhs[e][r].upper(i - 1));
            let mut blo = bws.take(bsz, bs, bs);
            stage(&mut blo, |e| rhs[e][r].lower(i - 1));
            let mut u = bws.take(bsz, bs, bs);
            gemm_batch(&mut u, ONE, each(&slo), each(&gl[r][i - 1]), ZERO);
            gemm_batch(&mut inner, ONE, each(&u), each_dag(&slo), ONE);
            gemm_batch(&mut u, ONE, each(&slo), each(&g[i - 1]), ZERO);
            gemm_batch(&mut inner, -ONE, each(&u), each(&bup), ONE);
            gemm_batch(&mut u, ONE, each(&blo), each_dag(&g[i - 1]), ZERO);
            gemm_batch(&mut inner, -ONE, each(&u), each_dag(&slo), ONE);
            flops += 6 * gemm_c;
            // gl_i = g_i · inner · g_i†
            gemm_batch(&mut u, ONE, each(&g[i]), each(&inner), ZERO);
            gemm_batch(&mut gl[r][i], ONE, each(&u), each_dag(&g[i]), ZERO);
            flops += 2 * gemm_c;
            bws.give(inner);
            bws.give(bup);
            bws.give(blo);
            bws.give(u);
        }
        bws.give(t1);
        bws.give(t2);
        bws.give(d);
        bws.give(slo);
        bws.give(sup);
    }
    bws.give(sd);

    // ----------------------------------------------------------------- backward
    for (e, sol) in sols.iter_mut().enumerate() {
        g[nb - 1].copy_plane_to(e, sol.retarded.diag_mut(nb - 1));
        for r in 0..n_rhs {
            gl[r][nb - 1].copy_plane_to(e, sol.lesser[r].diag_mut(nb - 1));
        }
    }

    for i in (0..nb.saturating_sub(1)).rev() {
        let mut sup = bws.take(bsz, bs, bs); // A_{i, i+1}
        stage(&mut sup, |e| systems[e].upper(i));
        let mut slo = bws.take(bsz, bs, bs); // A_{i+1, i}
        stage(&mut slo, |e| systems[e].lower(i));
        let gi = &g[i];
        let mut x_next = bws.take(bsz, bs, bs);
        stage(&mut x_next, |e| sols[e].retarded.diag(i + 1));

        // Θ_i = I + g_i A_{i,i+1} X_{i+1,i+1} A_{i+1,i}
        let mut g_aup = bws.take(bsz, bs, bs);
        gemm_batch(&mut g_aup, ONE, each(gi), each(&sup), ZERO);
        let mut g_aup_x = bws.take(bsz, bs, bs);
        gemm_batch(&mut g_aup_x, ONE, each(&g_aup), each(&x_next), ZERO);
        let mut theta = bws.take(bsz, bs, bs);
        gemm_batch(&mut theta, ONE, each(&g_aup_x), each(&slo), ZERO);
        flops += 3 * gemm_c;
        theta.add_scaled_identity(c64::new(1.0, 0.0));

        // Retarded selected blocks.
        let mut acc = bws.take(bsz, bs, bs);
        gemm_batch(&mut acc, ONE, each(&theta), each(gi), ZERO);
        for (e, sol) in sols.iter_mut().enumerate() {
            acc.copy_plane_to(e, sol.retarded.diag_mut(i));
            // X^R_{i,i+1} = −g_i A_{i,i+1} X_{i+1,i+1}
            let xu = sol.retarded.upper_mut(i);
            g_aup_x.copy_plane_to(e, xu);
            xu.scale_mut(c64::new(-1.0, 0.0));
        }
        let mut x_alo = bws.take(bsz, bs, bs);
        gemm_batch(&mut x_alo, ONE, each(&x_next), each(&slo), ZERO);
        gemm_batch(&mut acc, -ONE, each(&x_alo), each(gi), ZERO);
        for (e, sol) in sols.iter_mut().enumerate() {
            acc.copy_plane_to(e, sol.retarded.lower_mut(i));
        }
        flops += 3 * gemm_c;
        bws.give(x_alo);

        for r in 0..n_rhs {
            let gli = &gl[r][i];
            let mut xl_next = bws.take(bsz, bs, bs);
            stage(&mut xl_next, |e| sols[e].lesser[r].diag(i + 1));
            let mut bup = bws.take(bsz, bs, bs); // B_{i, i+1}
            stage(&mut bup, |e| rhs[e][r].upper(i));
            let mut blo = bws.take(bsz, bs, bs); // B_{i+1, i}
            stage(&mut blo, |e| rhs[e][r].lower(i));

            let mut ta = bws.take(bsz, bs, bs);
            let mut tb = bws.take(bsz, bs, bs);
            let mut tc = bws.take(bsz, bs, bs);

            // W_{i+1} = Xl_{i+1} − X_{i+1} A_{i+1,i} gl_i A_{i+1,i}† X_{i+1}†
            //          + X_{i+1} A_{i+1,i} g_i B_{i,i+1} X_{i+1}†
            //          + X_{i+1} B_{i+1,i} g_i† A_{i+1,i}† X_{i+1}†
            let mut x_alo = bws.take(bsz, bs, bs);
            gemm_batch(&mut x_alo, ONE, each(&x_next), each(&slo), ZERO);
            let mut w = bws.take_copy(&xl_next);
            gemm_batch(&mut ta, ONE, each(&x_alo), each(gli), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            gemm_batch(&mut w, -ONE, each(&ta), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&x_alo), each(gi), ZERO);
            gemm_batch(&mut tb, ONE, each(&bup), each_dag(&x_next), ZERO);
            gemm_batch(&mut w, ONE, each(&ta), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&x_next), each(&blo), ZERO);
            gemm_batch(&mut tc, ONE, each(&ta), each_dag(gi), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            gemm_batch(&mut w, ONE, each(&tc), each(&tb), ONE);
            flops += 12 * gemm_c;

            // Xl_{ii} = Θ gl Θ† + g A_up W A_up† g†
            //          − Θ g B_{i,i+1} X_{i+1}† A_up† g†
            //          − g A_up X_{i+1} B_{i+1,i} g† Θ†
            gemm_batch(&mut ta, ONE, each(&theta), each(gli), ZERO);
            gemm_batch(&mut acc, ONE, each(&ta), each_dag(&theta), ZERO);
            gemm_batch(&mut ta, ONE, each(&g_aup), each(&w), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&sup), each_dag(gi), ZERO);
            gemm_batch(&mut acc, ONE, each(&ta), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&theta), each(gi), ZERO);
            gemm_batch(&mut tc, ONE, each(&ta), each(&bup), ZERO);
            gemm_batch(&mut ta, ONE, each_dag(&sup), each_dag(gi), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&x_next), each(&ta), ZERO);
            gemm_batch(&mut acc, -ONE, each(&tc), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&g_aup_x), each(&blo), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(gi), each_dag(&theta), ZERO);
            gemm_batch(&mut acc, -ONE, each(&ta), each(&tb), ONE);
            flops += 14 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].diag_mut(i));
            }

            // Xl_{i+1,i} = −X_{i+1} A_{i+1,i} gl_i Θ†
            //             + X_{i+1} A_{i+1,i} g_i B_{i,i+1} X_{i+1}† A_{i,i+1}† g_i†
            //             + X_{i+1} B_{i+1,i} g_i† Θ†
            //             − W A_{i,i+1}† g_i†
            gemm_batch(&mut ta, ONE, each(&x_alo), each(gli), ZERO);
            gemm_batch(&mut acc, -ONE, each(&ta), each_dag(&theta), ZERO);
            gemm_batch(&mut ta, ONE, each(&x_alo), each(gi), ZERO);
            gemm_batch(&mut tc, ONE, each(&ta), each(&bup), ZERO);
            gemm_batch(&mut ta, ONE, each_dag(&sup), each_dag(gi), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&x_next), each(&ta), ZERO);
            gemm_batch(&mut acc, ONE, each(&tc), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&x_next), each(&blo), ZERO);
            gemm_batch(&mut tc, ONE, each(&ta), each_dag(gi), ZERO);
            gemm_batch(&mut acc, ONE, each(&tc), each_dag(&theta), ONE);
            gemm_batch(&mut ta, ONE, each_dag(&sup), each_dag(gi), ZERO);
            gemm_batch(&mut acc, -ONE, each(&w), each(&ta), ONE);
            flops += 13 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].lower_mut(i));
            }

            // Xl_{i,i+1} = −Θ gl_i A_{i+1,i}† X_{i+1}†
            //             + Θ g_i B_{i,i+1} X_{i+1}†
            //             + g_i A_{i,i+1} X_{i+1} B_{i+1,i} g_i† A_{i+1,i}† X_{i+1}†
            //             − g_i A_{i,i+1} W
            gemm_batch(&mut ta, ONE, each(&theta), each(gli), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            gemm_batch(&mut acc, -ONE, each(&ta), each(&tb), ZERO);
            gemm_batch(&mut ta, ONE, each(&theta), each(gi), ZERO);
            gemm_batch(&mut tb, ONE, each(&bup), each_dag(&x_next), ZERO);
            gemm_batch(&mut acc, ONE, each(&ta), each(&tb), ONE);
            gemm_batch(&mut ta, ONE, each(&g_aup_x), each(&blo), ZERO);
            gemm_batch(&mut tb, ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            gemm_batch(&mut tc, ONE, each_dag(gi), each(&tb), ZERO);
            gemm_batch(&mut acc, ONE, each(&ta), each(&tc), ONE);
            gemm_batch(&mut acc, -ONE, each(&g_aup), each(&w), ONE);
            flops += 12 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].upper_mut(i));
            }

            bws.give(ta);
            bws.give(tb);
            bws.give(tc);
            bws.give(x_alo);
            bws.give(w);
            bws.give(xl_next);
            bws.give(bup);
            bws.give(blo);
        }
        bws.give(acc);
        bws.give(x_next);
        bws.give(g_aup);
        bws.give(g_aup_x);
        bws.give(theta);
        bws.give(sup);
        bws.give(slo);
    }

    for sol in sols.iter_mut() {
        sol.flops = flops;
    }
    Ok(())
}
