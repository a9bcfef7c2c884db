//! The middle partitions' algebra (module docs of [`crate::nested`]): the
//! cross entries of a two-separator partition's update grid from two rows of
//! its interior inverse, and the closure of its range by the reduced
//! solution at its separators. Every product writes into blocks the
//! partition's state keeps, so a warmed partition allocates nothing.

use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{congruence_into, gemm, gemm_flops, Op};
use quatrex_linalg::{c64, CMatrix, ONE, ZERO};
use quatrex_sparse::BlockTridiagonal;

use crate::batch::ForwardSweep;
use crate::sequential::SelectedSolution;

/// Work blocks of one middle partition's algebra, kept on its state.
#[derive(Default)]
pub(super) struct Work {
    a_s_p: CMatrix,
    sum: CMatrix,
    t: CMatrix,
    tmp: CMatrix,
    pair: CMatrix,
    y: CMatrix,
    rows: CMatrix,
}

/// Block `(i, j)` of a block-tridiagonal quantity, for `|i − j| ≤ 1` in range.
fn band_block(m: &BlockTridiagonal, i: usize, j: usize) -> &CMatrix {
    m.block(i, j).expect("block inside the tridiagonal band")
}

/// `c = α·a·op(b) + β·c`, with `c` fitted to the product's shape first. A
/// dagger enters the product as a flag, never as a copy.
fn product(c: &mut CMatrix, alpha: c64, a: &CMatrix, b: Op<'_>, beta: c64) {
    let c = c.fit(a.nrows(), b.ncols());
    // lint:allow(per-energy-gemm): one system's partition algebra; its RGF sweeps and solves run batched
    gemm(c, alpha, Op::None(a), b, beta);
}

/// Copy the sub-matrix of `m` at `(r0, c0)` with `out`'s shape into `out`.
fn copy_sub(out: &mut CMatrix, m: &CMatrix, r0: usize, c0: usize) {
    for c in 0..out.ncols() {
        for r in 0..out.nrows() {
            out[(r, c)] = m[(r0 + r, c0 + c)];
        }
    }
}

/// One row of a middle partition's interior inverse `A_I⁻¹`, from the
/// stopped sweep that ends next to the row's block, into the kept `row`:
/// `row[0] = g_n`, `row[w] = −row[w−1]·coupling(w)·g_{n−w}`, where
/// `g_1 … g_n` are the sweep's retarded blocks (the last one next to the
/// row's block) and `coupling(w)` is the block of `A` from walk position
/// `w − 1` to `w`. With the reversed sweep towards `t` and `A_{w,w+1}` this
/// is the first row `F`, in interior order; with the sweep towards `b` and
/// `A_{n−w+1,n−w}`, the last row `L` from block `n` down. Returns its FLOPs.
pub(super) fn inverse_row<'a>(
    row: &mut Vec<CMatrix>,
    work: &mut Work,
    sweep: &ForwardSweep,
    coupling: impl Fn(usize) -> &'a CMatrix,
) -> u64 {
    let g = &sweep[0];
    let (n, bs) = (g.len(), g[0].nrows());
    let tmp = &mut work.tmp;
    row.resize_with(n, CMatrix::default);
    row[0].clone_from(&g[n - 1]);
    for w in 1..n {
        product(tmp, ONE, &row[w - 1], Op::None(coupling(w)), ZERO);
        product(&mut row[w], -ONE, tmp, Op::None(&g[n - 1 - w]), ZERO);
    }
    2 * (n as u64 - 1) * gemm_flops(bs, bs, bs)
}

/// Entry `(s, o)` of a middle partition's update grid, between its two
/// separators, for every matrix of its range `sub = [A, B_1, …]`, written
/// into `out` in matrix order: `s`, `o` are the separators' range indices,
/// `e_s`, `e_o` those of the interior blocks next to them, and `p`, `q` the
/// rows of the interior inverse at `e_s`, `e_o`
/// (`p[j] = P_{j+1} = [A_I⁻¹]_{e_s, j+1}`):
///
/// ```text
/// u_so  = −A_{s,e_s}·P_{e_o}·A_{e_o,o}
/// u≶_so =  A_{s,e_s}·(Σ_{j,k} P_j·B_{jk}·Q_k†)·A_{o,e_o}†
///        − A_{s,e_s}·P_{e_o}·B_{e_o,o} − B_{s,e_s}·Q_{e_s}†·A_{o,e_o}†
/// ```
///
/// with the double sum formed as `Σ_k T_k·Q_k†`, `T_k = Σ_j P_j·B_{jk}`.
/// Returns the entries' FLOPs.
pub(super) fn cross_update<'u>(
    mut out: impl Iterator<Item = &'u mut CMatrix>,
    work: &mut Work,
    sub: &[BlockTridiagonal],
    p: &[CMatrix],
    q: &[CMatrix],
    (s, e_s): (usize, usize),
    (o, e_o): (usize, usize),
) -> u64 {
    let (a, n, bs) = (&sub[0], p.len(), sub[0].block_size());
    let Work {
        a_s_p, sum, t, tmp, ..
    } = work;
    let (a_s, a_o) = (band_block(a, s, e_s), band_block(a, o, e_o));
    product(a_s_p, ONE, a_s, Op::None(&p[e_o - 1]), ZERO);
    if let Some(u) = out.next() {
        product(u, -ONE, a_s_p, Op::None(band_block(a, e_o, o)), ZERO);
    }
    for (u, b) in out.zip(&sub[1..]) {
        for (k, q_k) in q.iter().enumerate() {
            let js = k.saturating_sub(1)..(k + 2).min(n);
            for j in js.clone() {
                let beta = if j == js.start { ZERO } else { ONE };
                product(t, ONE, &p[j], Op::None(band_block(b, j + 1, k + 1)), beta);
            }
            let beta = if k == 0 { ZERO } else { ONE };
            product(sum, ONE, t, Op::Dagger(q_k), beta);
        }
        product(tmp, ONE, a_s, Op::None(sum), ZERO);
        product(u, ONE, tmp, Op::Dagger(a_o), ZERO);
        product(u, -ONE, a_s_p, Op::None(band_block(b, e_o, o)), ONE);
        let b_s = band_block(b, s, e_s);
        product(tmp, ONE, b_s, Op::Dagger(&q[e_s - 1]), ZERO);
        product(u, -ONE, tmp, Op::Dagger(a_o), ONE);
    }
    // 3n − 2 products T, n for the sum, 5 around it, per right-hand side.
    let per_rhs = 4 * n as u64 + 3;
    let n_rhs = sub.len() as u64 - 1;
    (2 + n_rhs * per_rhs) * gemm_flops(bs, bs, bs)
}

/// Close a middle partition's range `[A, B_1, …]` in place: replace its
/// separator diagonals `t` (first block) and `b` (last) using the reduced
/// solution `reduced` at blocks `sep`, `sep + 1`: `Y = X_SS⁻¹`, `A'_tt = Y_tt − u_tt`
/// and `B'_tt = (Y·X≶_SS·Y†)_tt − u≶_tt`, the same at `b`, with `u` the
/// partition's own update grid (module docs). Returns the closure's FLOPs.
pub(super) fn close_range(
    range: &mut [BlockTridiagonal],
    updates: &[CMatrix],
    reduced: &SelectedSolution,
    sep: usize,
    lu: &mut LuScratch,
    work: &mut Work,
) -> u64 {
    let bs = range[0].block_size();
    let ends = [0, range[0].n_blocks() - 1];
    let Work {
        tmp, pair, y, rows, ..
    } = work;
    // The 2 × 2 blocks of a reduced solution at the two separators.
    let pair_of = |m: &mut CMatrix, x: &BlockTridiagonal| {
        m.fit(2 * bs, 2 * bs);
        for i in 0..2 {
            for j in 0..2 {
                m.set_submatrix(i * bs, j * bs, band_block(x, sep + i, sep + j));
            }
        }
    };
    pair_of(pair, &reduced.retarded);
    lu.invert_into(pair, y)
        .expect("the reduced solution at two separators is invertible");
    // The diagonal entry at separator i of matrix m's update grid.
    let own = |m: usize, i: usize| &updates[(m * 2 + i) * 2 + i];
    for (i, &k) in ends.iter().enumerate() {
        let a = range[0].diag_mut(k);
        copy_sub(a, y, i * bs, i * bs);
        *a -= own(0, i);
    }
    for (r, x) in reduced.lesser.iter().enumerate() {
        pair_of(pair, x);
        for (i, &k) in ends.iter().enumerate() {
            copy_sub(rows.fit(bs, 2 * bs), y, i * bs, 0);
            let b = range[1 + r].diag_mut(k);
            congruence_into(b, tmp, rows, pair);
            *b -= own(1 + r, i);
        }
    }
    let per_rhs = gemm_flops(2 * bs, 2 * bs, 2 * bs) + 2 * gemm_flops(bs, 2 * bs, bs);
    inverse_flops(2 * bs) + reduced.lesser.len() as u64 * per_rhs
}
