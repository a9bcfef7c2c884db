//! The middle partitions' algebra (module docs of [`crate::nested`]): the
//! cross entries of a two-separator partition's update grid from two rows of
//! its interior inverse, and the closure of its range by the reduced
//! solution at its separators.

use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm_flops, matmul, matmul_acc};
use quatrex_linalg::{CMatrix, ONE};
use quatrex_sparse::BlockTridiagonal;

use crate::batch::ForwardSweep;
use crate::sequential::SelectedSolution;

/// Block `(i, j)` of a block-tridiagonal quantity, for `|i − j| ≤ 1` in range.
fn band_block(m: &BlockTridiagonal, i: usize, j: usize) -> &CMatrix {
    m.block(i, j).expect("block inside the tridiagonal band")
}

/// One row of a middle partition's interior inverse `A_I⁻¹`, from the
/// stopped sweep that ends next to the row's block: `row[0] = g_n`,
/// `row[w] = −row[w−1]·coupling(w)·g_{n−w}`, where `g_1 … g_n` are the sweep's
/// retarded blocks (the last one next to the row's block) and `coupling(w)`
/// is the block of `A` from walk position `w − 1` to `w`. With the reversed
/// sweep towards `t` and `A_{w,w+1}` this is the first row `F`, in interior
/// order; with the sweep towards `b` and `A_{n−w+1,n−w}`, the last row `L`
/// from block `n` down. Returns the row and its FLOPs.
pub(super) fn inverse_row<'a>(
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
pub(super) fn cross_update(
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

/// A middle partition's range `[A, B_1, …]` with its separator diagonals
/// `t` (first block) and `b` (last) closed by the reduced solution `reduced`
/// at blocks `sep`, `sep + 1`: `Y = X_SS⁻¹`, `A'_tt = Y_tt − u_tt` and
/// `B'_tt = (Y·X≶_SS·Y†)_tt − u≶_tt`, the same at `b`, with `u` the
/// partition's own update grid (module docs). Returns the closed range and
/// the closure's FLOPs.
pub(super) fn close_range(
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
