//! The **pre-refactor** sequential RGF solver, frozen verbatim.
//!
//! This is the implementation that shipped before the operand-flag GEMM
//! engine: every product allocates a fresh matrix through the scalar
//! reference kernel ([`quatrex_linalg::ops::reference`]), and every conjugate
//! transpose is materialized with `dagger()`. It is a fixture of the
//! equivalence suite (`tests/reference_equivalence.rs`), which pins the
//! refactored solver against it at ≤1e-13 relative error.
//!
//! Do not "improve" this module — its value is being the fixed baseline.

use quatrex_linalg::lu::{inverse, inverse_flops};
use quatrex_linalg::ops::gemm_flops;
use quatrex_linalg::ops::reference::matmul_ref as matmul;
use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

use quatrex_rgf::{RgfError, SelectedSolution};

/// Pre-refactor [`quatrex_rgf::rgf_solve`]: same algorithm, same FLOP accounting,
/// scalar kernels and materialized daggers.
pub fn rgf_solve_reference(
    a: &BlockTridiagonal,
    rhs: &[&BlockTridiagonal],
) -> Result<SelectedSolution, RgfError> {
    let nb = a.n_blocks();
    let bs = a.block_size();
    for b in rhs {
        if b.n_blocks() != nb || b.block_size() != bs {
            return Err(RgfError::ShapeMismatch);
        }
    }
    let mut flops = 0u64;
    let gemm = gemm_flops(bs, bs, bs);
    let inv_cost = inverse_flops(bs);

    // ------------------------------------------------------------------ forward
    let mut g: Vec<CMatrix> = Vec::with_capacity(nb);
    let mut gl: Vec<Vec<CMatrix>> = vec![Vec::with_capacity(nb); rhs.len()];

    let g0 = inverse(a.diag(0)).map_err(|_| RgfError::SingularBlock(0))?;
    flops += inv_cost;
    for (r, b) in rhs.iter().enumerate() {
        let v = matmul(&matmul(&g0, b.diag(0)), &g0.dagger());
        flops += 2 * gemm;
        gl[r].push(v);
    }
    g.push(g0);

    for i in 1..nb {
        let a_lo = a.lower(i - 1);
        let a_up = a.upper(i - 1);
        let prev = &g[i - 1];
        let schur = matmul(&matmul(a_lo, prev), a_up);
        flops += 2 * gemm;
        let gi = inverse(&(a.diag(i) - &schur)).map_err(|_| RgfError::SingularBlock(i))?;
        flops += inv_cost;

        for (r, b) in rhs.iter().enumerate() {
            let a_lo_dag = a_lo.dagger();
            let mut inner = b.diag(i).clone();
            inner += &matmul(&matmul(a_lo, &gl[r][i - 1]), &a_lo_dag);
            inner -= &matmul(&matmul(a_lo, prev), b.upper(i - 1));
            inner -= &matmul(&matmul(b.lower(i - 1), &prev.dagger()), &a_lo_dag);
            flops += 6 * gemm;
            let v = matmul(&matmul(&gi, &inner), &gi.dagger());
            flops += 2 * gemm;
            gl[r].push(v);
        }
        g.push(gi);
    }

    // ----------------------------------------------------------------- backward
    let mut x = BlockTridiagonal::zeros(nb, bs);
    let mut xl: Vec<BlockTridiagonal> = vec![BlockTridiagonal::zeros(nb, bs); rhs.len()];

    x.set_block(nb - 1, nb - 1, g[nb - 1].clone());
    for (r, _) in rhs.iter().enumerate() {
        xl[r].set_block(nb - 1, nb - 1, gl[r][nb - 1].clone());
    }

    for i in (0..nb - 1).rev() {
        let a_up = a.upper(i);
        let a_lo = a.lower(i);
        let gi = &g[i];
        let x_next = x.diag(i + 1).clone();

        let g_aup = matmul(gi, a_up);
        let g_aup_x = matmul(&g_aup, &x_next);
        let mut theta = matmul(&g_aup_x, a_lo);
        flops += 3 * gemm;
        for k in 0..bs {
            theta[(k, k)] += c64::new(1.0, 0.0);
        }

        let x_ii = matmul(&theta, gi);
        let x_up = g_aup_x.scaled(c64::new(-1.0, 0.0));
        let x_lo = matmul(&matmul(&x_next, a_lo), gi).scaled(c64::new(-1.0, 0.0));
        flops += 3 * gemm;
        x.set_block(i, i, x_ii);
        x.set_block(i, i + 1, x_up);
        x.set_block(i + 1, i, x_lo);

        for (r, b) in rhs.iter().enumerate() {
            let gli = &gl[r][i];
            let xl_next = xl[r].diag(i + 1).clone();
            let b_up = b.upper(i);
            let b_lo = b.lower(i);

            let gi_dag = gi.dagger();
            let theta_dag = theta.dagger();
            let a_up_dag = a_up.dagger();
            let a_lo_dag = a_lo.dagger();
            let x_next_dag = x_next.dagger();

            let x_alo = matmul(&x_next, a_lo);
            let mut w = xl_next.clone();
            w -= &matmul(&matmul(&x_alo, gli), &matmul(&a_lo_dag, &x_next_dag));
            w += &matmul(&matmul(&x_alo, gi), &matmul(b_up, &x_next_dag));
            w += &matmul(
                &matmul(&matmul(&x_next, b_lo), &gi_dag),
                &matmul(&a_lo_dag, &x_next_dag),
            );
            flops += 12 * gemm;

            let mut xl_ii = matmul(&matmul(&theta, gli), &theta_dag);
            xl_ii += &matmul(&matmul(&g_aup, &w), &matmul(&a_up_dag, &gi_dag));
            xl_ii -= &matmul(
                &matmul(&matmul(&theta, gi), b_up),
                &matmul(&x_next_dag, &matmul(&a_up_dag, &gi_dag)),
            );
            xl_ii -= &matmul(&matmul(&g_aup_x, b_lo), &matmul(&gi_dag, &theta_dag));
            flops += 14 * gemm;

            let mut xl_lo = matmul(&matmul(&x_alo, gli), &theta_dag).scaled(c64::new(-1.0, 0.0));
            xl_lo += &matmul(
                &matmul(&matmul(&x_alo, gi), b_up),
                &matmul(&x_next_dag, &matmul(&a_up_dag, &gi_dag)),
            );
            xl_lo += &matmul(&matmul(&matmul(&x_next, b_lo), &gi_dag), &theta_dag);
            xl_lo -= &matmul(&w, &matmul(&a_up_dag, &gi_dag));
            flops += 13 * gemm;

            let mut xl_up = matmul(&matmul(&theta, gli), &matmul(&a_lo_dag, &x_next_dag))
                .scaled(c64::new(-1.0, 0.0));
            xl_up += &matmul(&matmul(&theta, gi), &matmul(b_up, &x_next_dag));
            xl_up += &matmul(
                &matmul(&g_aup_x, b_lo),
                &matmul(&gi_dag, &matmul(&a_lo_dag, &x_next_dag)),
            );
            xl_up -= &matmul(&g_aup, &w);
            flops += 12 * gemm;

            xl[r].set_block(i, i, xl_ii);
            xl[r].set_block(i + 1, i, xl_lo);
            xl[r].set_block(i, i + 1, xl_up);
        }
    }

    Ok(SelectedSolution {
        retarded: x,
        lesser: xl,
        flops,
    })
}
