//! Dense matrix products: the operand-flag GEMM engine.
//!
//! The RGF recursions (paper Eqs. (9)–(12)) and the W-assembly (`V P^R`,
//! `V P≶ V†`) are dominated by general complex matrix-matrix multiplications
//! of transport-cell-sized blocks. These are exactly the BLAS-3 `zgemm` calls
//! that dominate the paper's FLOP counts, and the paper's sustained-exascale
//! result rests on never letting them stall on memory traffic.
//!
//! The engine here follows the same playbook at laptop scale:
//!
//! * [`gemm`] takes *operand flags* ([`Op::None`], [`Op::Trans`],
//!   [`Op::Dagger`]): conjugate transposes are folded into the kernel's load
//!   instructions instead of being materialized as temporary matrices — the
//!   87 `dagger()` call sites of the pre-refactor hot loops each paid an
//!   `O(N_BS²)` allocation + copy per block per energy per SCBA iteration;
//! * the inner loop is one register-tiled micro-kernel (`MR × NR` complex
//!   accumulators, `8 × 4` where the build target has 32 vector
//!   registers, `8 × 2` elsewhere) on split real/imaginary planes: both
//!   operands are packed — flag applied — into structure-of-arrays panels
//!   (`A` in `MR`-row tiles, `B` in `NR`-column panels, both step-major), so
//!   the kernel is pure `f64` lane arithmetic of fused multiply-adds the
//!   compiler vectorises;
//! * callers recycle output and temporary buffers (the batched solvers
//!   through [`crate::batch::BatchWorkspace`]), so the steady-state RGF
//!   inner loop performs zero heap allocations.
//!
//! # Determinism
//!
//! Every element of a product is formed by the same operation sequence —
//! ascending inner index `k`, per step `re ← fma(ar, br, re)`,
//! `re ← fma(−ai, bi, re)`, `im ← fma(ar, bi, im)`, `im ← fma(ai, br, im)`,
//! then one `c += alpha · (re, im)` — whatever tile, edge remainder, operand
//! shape, batch plane or thread it lands in. Results are therefore
//! bit-identical from run to run and independent of batch size, rank count
//! and thread count *within a build*. `fma` is the hardware instruction where
//! the build target has one and `a·b + c` with two roundings where it does
//! not (a build-time selection, like `NR`); builds for different targets
//! agree to rounding.
//!
//! The scalar kernel in [`mod@reference`] is an independent implementation
//! the engine must match to rounding (`≤ 4·k·ε·‖A‖‖B‖` per element, see the
//! tests); the before/after numbers of `BENCH_kernels.json` (see
//! `quatrex-bench`, `--bin bench_kernels`) are measured against it.

use crate::matrix::CMatrix;
use crate::{c64, ONE, ZERO};

/// The transposition flag alone, detached from any particular matrix. The
/// batched layer ([`crate::batch`]) uses this to describe how every plane of
/// a [`crate::batch::MatrixBatch`] enters a product.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Use the matrix as stored.
    None,
    /// Use the (unconjugated) transpose `Aᵀ`.
    Trans,
    /// Use the conjugate transpose `A†` ("dagger").
    Dagger,
}

/// One operand of a [`gemm`] call: the matrix together with the transposition
/// flag that is applied *inside* the kernel loops — nothing is materialized.
#[derive(Clone, Copy)]
pub enum Op<'a> {
    /// Use the matrix as stored.
    None(&'a CMatrix),
    /// Use the (unconjugated) transpose `Aᵀ`.
    Trans(&'a CMatrix),
    /// Use the conjugate transpose `A†` ("dagger").
    Dagger(&'a CMatrix),
}

impl<'a> Op<'a> {
    /// The underlying matrix, ignoring the flag.
    #[inline(always)]
    pub fn matrix(&self) -> &'a CMatrix {
        match self {
            Op::None(m) | Op::Trans(m) | Op::Dagger(m) => m,
        }
    }

    /// The flag alone.
    #[inline(always)]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::None(_) => OpKind::None,
            Op::Trans(_) => OpKind::Trans,
            Op::Dagger(_) => OpKind::Dagger,
        }
    }

    /// Number of rows of the *effective* (flag-applied) operand.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        match self {
            Op::None(m) => m.nrows(),
            Op::Trans(m) | Op::Dagger(m) => m.ncols(),
        }
    }

    /// Number of columns of the *effective* (flag-applied) operand.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        match self {
            Op::None(m) => m.ncols(),
            Op::Trans(m) | Op::Dagger(m) => m.nrows(),
        }
    }
}

/// Full operand-flag GEMM: `C = alpha · op(A) · op(B) + beta · C`.
///
/// Both operands are packed — flag applied — into thread-local split
/// real/imaginary planes (structure-of-arrays), an `O(m·k + k·n)` copy
/// amortised over the `O(m·k·n)` multiply; the packing buffers are reused
/// across calls, so the steady state allocates nothing. The product proper
/// runs in `MR × NR` register tiles of fused multiply-adds
/// (`packed_kernel`, shared verbatim with [`crate::batch::gemm_batch`]).
///
/// `C` is first scaled by `beta`; the product sum of each element is then
/// formed in registers, in ascending inner index, and added once as
/// `c += alpha · sum`. That sequence is the same for every element of every
/// call (see the module docs), which is what the bit-identity of the batched,
/// distributed and nested solvers rests on. Against the scalar
/// [`mod@reference`] kernel — which rounds every product and sum separately
/// and folds `alpha` into each term — results agree to rounding, not to the
/// bit.
pub fn gemm(c: &mut CMatrix, alpha: c64, a: Op<'_>, b: Op<'_>, beta: c64) {
    let (m, k) = (a.nrows(), a.ncols());
    let (k2, n) = (b.nrows(), b.ncols());
    assert_eq!(k, k2, "gemm inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");

    if beta != ONE {
        if beta == ZERO {
            c.as_mut_slice().fill(ZERO);
        } else {
            c.scale_mut(beta);
        }
    }
    if alpha == ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK.with(|pack| {
        let pack = &mut *pack.borrow_mut();
        pack.pack_a(a, m, k);
        pack.pack_b(b, k, n);
        packed_kernel(c.as_mut_slice(), alpha, pack, m, k, n);
    });
}

thread_local! {
    /// Per-thread packing planes for both operands (reused across calls: zero
    /// allocations once warmed at the largest shape seen).
    pub(crate) static PACK: std::cell::RefCell<PackBuf> = std::cell::RefCell::new(PackBuf::default());
}

#[derive(Default)]
pub(crate) struct PackBuf {
    re: Vec<f64>,
    im: Vec<f64>,
    bre: Vec<f64>,
    bim: Vec<f64>,
}

impl PackBuf {
    /// Pack the effective `m × k` operand `op(A)` into tile-major split
    /// planes: rows are grouped into [`MR`]-lane tiles (zero-padded at the
    /// edge), and within a tile the `k` sweep is contiguous — the micro-kernel
    /// streams the panel strictly sequentially. The flag is applied during
    /// the copy.
    fn pack_a(&mut self, a: Op<'_>, m: usize, k: usize) {
        self.pack_a_raw(a.kind(), a.matrix().as_slice(), m, k);
    }

    /// Raw-slice form of [`Self::pack_a`]: the stored matrix is a column-major
    /// slice (`m × k` for [`OpKind::None`], `k × m` for the transposed
    /// flags). This is the entry point the batched layer uses on
    /// [`crate::batch::MatrixBatch`] planes.
    pub(crate) fn pack_a_raw(&mut self, kind: OpKind, data: &[c64], m: usize, k: usize) {
        debug_assert_eq!(data.len(), m * k, "pack_a operand length");
        if m == 0 || k == 0 {
            return;
        }
        let len = m.div_ceil(MR) * MR * k;
        let tiles = grown(&mut self.re, len)
            .chunks_exact_mut(MR * k)
            .zip(grown(&mut self.im, len).chunks_exact_mut(MR * k));
        let conj = kind == OpKind::Dagger;
        for (t, planes) in tiles.enumerate() {
            // Lane r of step l of tile t is op(A)[t·MR + r, l].
            let i = t * MR;
            let rows = (m - i).min(MR);
            match kind {
                OpKind::None => split_steps(planes, MR, rows, conj, &data[i..], m),
                _ => split_lanes(planes, MR, rows, conj, &data[i * k..], k),
            }
        }
    }

    /// Pack the effective `k × n` operand `op(B)` into split planes of
    /// column panels: panel `p` holds columns `p·NR ..` ([`NR`] of them, fewer
    /// in the last panel) step-major, `panel[l·nc + c] = op(B)[l, p·NR + c]`,
    /// so the micro-kernel reads the `nc` broadcast scalars of one inner step
    /// from adjacent addresses. The flag is applied during the copy.
    fn pack_b(&mut self, b: Op<'_>, k: usize, n: usize) {
        self.pack_b_raw(b.kind(), b.matrix().as_slice(), k, n);
    }

    /// Raw-slice form of [`Self::pack_b`] (stored `k × n` for
    /// [`OpKind::None`], `n × k` for the transposed flags).
    pub(crate) fn pack_b_raw(&mut self, kind: OpKind, data: &[c64], k: usize, n: usize) {
        debug_assert_eq!(data.len(), k * n, "pack_b operand length");
        if k == 0 || n == 0 {
            return;
        }
        let panels = grown(&mut self.bre, k * n)
            .chunks_mut(NR * k)
            .zip(grown(&mut self.bim, k * n).chunks_mut(NR * k));
        let conj = kind == OpKind::Dagger;
        for (p, planes) in panels.enumerate() {
            // Lane c of step l of panel p is op(B)[l, p·NR + c]; the panel is
            // as wide as it has columns (no padding lanes).
            let j = p * NR;
            let nc = (n - j).min(NR);
            match kind {
                OpKind::None => split_lanes(planes, nc, nc, conj, &data[j * k..], k),
                _ => split_steps(planes, nc, nc, conj, &data[j..], n),
            }
        }
    }
}

/// Fill a packed panel of `width`-lane steps whose steps are contiguous in
/// the source: lane `r < live` of step `l` is `src[l · stride + r]`,
/// conjugated if `conj`. The padding lanes are zeroed explicitly: the planes
/// only grow and may hold what an earlier shape left there.
#[inline(always)]
fn split_steps(
    (pre, pim): (&mut [f64], &mut [f64]),
    width: usize,
    live: usize,
    conj: bool,
    src: &[c64],
    stride: usize,
) {
    let sign = if conj { -1.0 } else { 1.0 };
    let steps = pre.chunks_exact_mut(width).zip(pim.chunks_exact_mut(width));
    for ((dre, dim), row) in steps.zip(src.chunks(stride)) {
        for r in 0..width {
            let v = if r < live { row[r] } else { ZERO };
            dre[r] = v.re;
            dim[r] = sign * v.im;
        }
    }
}

/// Fill a packed panel of `width`-lane steps whose lanes are contiguous in
/// the source: lane `r < live` of step `l` is `src[r · stride + l]`,
/// conjugated if `conj`; padding lanes are zeroed as in [`split_steps`].
#[inline(always)]
fn split_lanes(
    (pre, pim): (&mut [f64], &mut [f64]),
    width: usize,
    live: usize,
    conj: bool,
    src: &[c64],
    stride: usize,
) {
    let sign = if conj { -1.0 } else { 1.0 };
    let steps = pre.chunks_exact_mut(width).zip(pim.chunks_exact_mut(width));
    for (l, (dre, dim)) in steps.enumerate() {
        for r in 0..width {
            let v = if r < live { src[r * stride + l] } else { ZERO };
            dre[r] = v.re;
            dim[r] = sign * v.im;
        }
    }
}

/// The first `len` elements of the packing plane `v`, grown (never shrunk or
/// cleared) to hold them: the packing loops overwrite every live element, so
/// alternating operand shapes cost no memset.
fn grown(v: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if v.len() < len {
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Rows of the micro-kernel's register tile: two 4-lane (or one 8-lane)
/// `f64` vectors each for the real and the imaginary accumulator of a column.
pub(crate) const MR: usize = 8;

/// Columns of the register tile, from the platform the build targets: four
/// where there are 32 vector registers (`4·MR/4` accumulators for the real
/// and as many for the imaginary parts, next to the `A` lanes and `B`
/// broadcasts), two where there are 16.
pub(crate) const NR: usize = if cfg!(any(target_feature = "avx512vl", target_arch = "aarch64")) {
    4
} else {
    2
};
// The kernel dispatches on a live column count of 1..=4.
const _: () = assert!(NR <= 4);

/// `a · b + c`: fused where the build target has the instruction, two
/// roundings elsewhere. Selected at build time, so no target falls back to
/// libm's software `fma`.
#[inline(always)]
pub(crate) fn mul_add(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(any(target_feature = "fma", target_arch = "aarch64")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The register-tiled micro-kernel, the one every [`gemm`] and
/// [`crate::batch::gemm_batch`] plane runs: `C += alpha · op(A) · op(B)` from
/// the packed panels, in [`MR`]` × `[`NR`] tiles of `C` that stay in registers
/// over the full `k` sweep.
///
/// Every element of the product is formed by the same operation sequence,
/// wherever it lands (full tile, row or column remainder, any shape, plane or
/// thread): `k` ascending, and per step
/// `re ← fma(ar, br, re)`, `re ← fma(−ai, bi, re)`, `im ← fma(ar, bi, im)`,
/// `im ← fma(ai, br, im)`; then one `c += alpha · (re, im)`.
#[inline(always)]
pub(crate) fn packed_kernel(
    cs: &mut [c64],
    alpha: c64,
    pack: &PackBuf,
    m: usize,
    k: usize,
    n: usize,
) {
    let a_len = m.div_ceil(MR) * MR * k;
    let (are, aim) = (&pack.re[..a_len], &pack.im[..a_len]);
    let mut j = 0;
    while j < n {
        let nc = (n - j).min(NR);
        let cols = &mut cs[j * m..(j + nc) * m];
        let bre = &pack.bre[j * k..(j + nc) * k];
        let bim = &pack.bim[j * k..(j + nc) * k];
        match nc {
            1 => tile_columns::<1>(cols, alpha, (are, aim), (bre, bim), m, k),
            2 => tile_columns::<2>(cols, alpha, (are, aim), (bre, bim), m, k),
            3 => tile_columns::<3>(cols, alpha, (are, aim), (bre, bim), m, k),
            _ => tile_columns::<4>(cols, alpha, (are, aim), (bre, bim), m, k),
        }
        j += nc;
    }
}

/// One column panel (`NC ≤ NR` adjacent columns of `C`, `bre`/`bim` its packed
/// `B` panel) against every row tile of the packed `A`: the body of
/// [`packed_kernel`], generic over the live column count so the column
/// remainder runs the same lane code as a full tile.
#[inline(always)]
fn tile_columns<const NC: usize>(
    cols: &mut [c64],
    alpha: c64,
    (are, aim): (&[f64], &[f64]),
    (bre, bim): (&[f64], &[f64]),
    m: usize,
    k: usize,
) {
    let tiles = are.chunks_exact(MR * k).zip(aim.chunks_exact(MR * k));
    for (t, (tre, tim)) in tiles.enumerate() {
        let (re, im) = tile_product::<NC>((tre, tim), (bre, bim));
        let i = t * MR;
        let rows = (m - i).min(MR);
        for c in 0..NC {
            // Scale all MR lanes at fixed width, then add the live ones.
            let scaled: [c64; MR] = std::array::from_fn(|r| alpha * c64::new(re[c][r], im[c][r]));
            let col = &mut cols[c * m + i..c * m + i + rows];
            for (dst, v) in col.iter_mut().zip(scaled) {
                *dst += v;
            }
        }
    }
}

/// The `k` sweep of one register tile: real and imaginary parts of
/// `Σ_l a[·, l] · b[l, ·]` for one `MR`-row tile of `A` and one `NC`-column
/// panel of `B`, accumulated in ascending `l`.
///
/// Out of line on purpose: inlined next to the store loop, the compiler
/// writes half the accumulators back to the stack on every step.
#[inline(never)]
fn tile_product<const NC: usize>(
    (tre, tim): (&[f64], &[f64]),
    (bre, bim): (&[f64], &[f64]),
) -> ([[f64; MR]; NC], [[f64; MR]; NC]) {
    let mut re = [[0f64; MR]; NC];
    let mut im = [[0f64; MR]; NC];
    let a_steps = tre.chunks_exact(MR).zip(tim.chunks_exact(MR));
    let b_steps = bre.chunks_exact(NC).zip(bim.chunks_exact(NC));
    for ((ar, ai), (br, bi)) in a_steps.zip(b_steps) {
        for c in 0..NC {
            for r in 0..MR {
                re[c][r] = mul_add(ar[r], br[c], re[c][r]);
                re[c][r] = mul_add(-ai[r], bi[c], re[c][r]);
                im[c][r] = mul_add(ar[r], bi[c], im[c][r]);
                im[c][r] = mul_add(ai[r], br[c], im[c][r]);
            }
        }
    }
    (re, im)
}

/// `C = A · B`.
pub fn matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
    let mut c = CMatrix::zeros(a.nrows(), b.ncols());
    gemm(&mut c, ONE, Op::None(a), Op::None(b), ZERO);
    c
}

/// `C += alpha · A · B` (general accumulate form).
pub fn matmul_acc(c: &mut CMatrix, alpha: c64, a: &CMatrix, b: &CMatrix) {
    gemm(c, alpha, Op::None(a), Op::None(b), ONE);
}

/// Complex multiply-add count of the cheaper association order of
/// `A · B · C`, given the operand shapes.
fn triple_product_madds(
    (m, k1): (usize, usize),
    (_, n1): (usize, usize),
    (_, n2): (usize, usize),
) -> (u64, u64) {
    let left = (m * k1 * n1 + m * n1 * n2) as u64; // (A·B)·C
    let right = (k1 * n1 * n2 + m * k1 * n2) as u64; // A·(B·C)
    (left, right)
}

/// `A · B · C`, evaluated in the cheaper association order — `(A·B)·C` or
/// `A·(B·C)` — chosen from the operand shapes. For transport-cell-square
/// blocks both orders cost the same and the left-to-right order of the
/// pre-refactor implementation is kept.
pub fn triple_product(a: &CMatrix, b: &CMatrix, c: &CMatrix) -> CMatrix {
    let (left, right) = triple_product_madds(a.shape(), b.shape(), c.shape());
    if left <= right {
        matmul(&matmul(a, b), c)
    } else {
        matmul(a, &matmul(b, c))
    }
}

/// Real FLOPs actually spent by [`triple_product`] on these shapes (the
/// cheaper association order), in the same 8-FLOPs-per-complex-madd terms as
/// [`gemm_flops`]. Callers that account a chain's work must use this instead
/// of summing two square [`gemm_flops`] so the saved FLOPs are counted.
pub fn triple_product_flops(
    a_shape: (usize, usize),
    b_shape: (usize, usize),
    c_shape: (usize, usize),
) -> u64 {
    let (left, right) = triple_product_madds(a_shape, b_shape, c_shape);
    8 * left.min(right)
}

/// `A · B · A†`, the congruence transform that appears in the lesser/greater
/// RGF recursion (`x^R B x^{R†}`) and in the boundary self-energies. The
/// dagger is fused into the second product.
pub fn congruence(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let ab = matmul(a, b);
    let mut out = CMatrix::zeros(ab.nrows(), a.nrows());
    gemm(&mut out, ONE, Op::None(&ab), Op::Dagger(a), ZERO);
    out
}

/// Number of real FLOPs of a complex GEMM `m×k · k×n` (paper counting:
/// one complex multiply-add = 8 real FLOPs).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    8 * (m as u64) * (k as u64) * (n as u64)
}

/// The pre-refactor scalar kernels, preserved verbatim.
///
/// These are the tolerance reference of the equivalence tests and the
/// "before" side of the `BENCH_kernels.json` before/after numbers: a cache-friendly but scalar
/// `jki` loop that allocates a fresh output per product and streams every
/// output element through memory once per inner-dimension step.
pub mod reference {
    use crate::matrix::CMatrix;
    use crate::{c64, ZERO};

    /// Pre-refactor `C = A · B` (allocates the output).
    pub fn matmul_ref(a: &CMatrix, b: &CMatrix) -> CMatrix {
        assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
        let mut c = CMatrix::zeros(a.nrows(), b.ncols());
        gemm_into_ref(&mut c, c64::new(1.0, 0.0), a, b, ZERO);
        c
    }

    /// Pre-refactor scalar GEMM: `C = alpha · A · B + beta · C`.
    pub fn gemm_into_ref(c: &mut CMatrix, alpha: c64, a: &CMatrix, b: &CMatrix, beta: c64) {
        let (m, k) = a.shape();
        let (k2, n) = b.shape();
        assert_eq!(k, k2, "gemm inner dimension mismatch");
        assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");

        if beta != c64::new(1.0, 0.0) {
            if beta == ZERO {
                c.as_mut_slice().fill(ZERO);
            } else {
                c.scale_mut(beta);
            }
        }
        if alpha == ZERO || m == 0 || n == 0 || k == 0 {
            return;
        }

        // Column-major friendly loop order: for each output column j,
        // accumulate contributions of every column l of A scaled by
        // alpha * B[l, j].
        const KB: usize = 64;
        for j in 0..n {
            for l0 in (0..k).step_by(KB) {
                let l1 = (l0 + KB).min(k);
                for l in l0..l1 {
                    let blj = alpha * b[(l, j)];
                    if blj == ZERO {
                        continue;
                    }
                    let acol = a.col(l);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
        }
    }

    /// Pre-refactor congruence `A · B · A†` (materializes the dagger).
    pub fn congruence_ref(a: &CMatrix, b: &CMatrix) -> CMatrix {
        let ab = matmul_ref(a, b);
        matmul_ref(&ab, &a.dagger())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;

    fn a22() -> CMatrix {
        CMatrix::from_rows(
            2,
            2,
            &[
                cplx(1.0, 1.0),
                cplx(2.0, 0.0),
                cplx(0.0, -1.0),
                cplx(3.0, 2.0),
            ],
        )
    }

    #[test]
    fn identity_is_neutral() {
        let a = a22();
        let id = CMatrix::identity(2);
        assert!(matmul(&a, &id).approx_eq(&a, 1e-15));
        assert!(matmul(&id, &a).approx_eq(&a, 1e-15));
    }

    #[test]
    fn hand_checked_2x2_product() {
        let a = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(1.0, 0.0),
                cplx(2.0, 0.0),
                cplx(3.0, 0.0),
                cplx(4.0, 0.0),
            ],
        );
        let b = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(0.0, 1.0),
                cplx(1.0, 0.0),
                cplx(0.0, 0.0),
                cplx(1.0, 0.0),
            ],
        );
        let c = matmul(&a, &b);
        assert!(c[(0, 0)] == cplx(0.0, 1.0));
        assert!(c[(0, 1)] == cplx(3.0, 0.0));
        assert!(c[(1, 0)] == cplx(0.0, 3.0));
        assert!(c[(1, 1)] == cplx(7.0, 0.0));
    }

    #[test]
    fn rectangular_shapes() {
        let a = CMatrix::from_fn(3, 2, |i, j| cplx((i + j) as f64, 0.0));
        let b = CMatrix::from_fn(2, 4, |i, j| cplx((i * 4 + j) as f64, 1.0));
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (3, 4));
        // spot check c[2,3] = a[2,0]*b[0,3] + a[2,1]*b[1,3]
        let expect = cplx(2.0, 0.0) * cplx(3.0, 1.0) + cplx(3.0, 0.0) * cplx(7.0, 1.0);
        assert!((c[(2, 3)] - expect).norm() < 1e-14);
    }

    #[test]
    fn gemm_accumulates_with_alpha_beta() {
        let a = a22();
        let b = CMatrix::identity(2);
        let mut c = CMatrix::identity(2);
        gemm(
            &mut c,
            cplx(2.0, 0.0),
            Op::None(&a),
            Op::None(&b),
            cplx(-1.0, 0.0),
        );
        // c = 2a - I
        let expect = &a.scaled(cplx(2.0, 0.0)) - &CMatrix::identity(2);
        assert!(c.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn matmul_acc_adds() {
        let a = a22();
        let mut c = a.clone();
        matmul_acc(&mut c, cplx(1.0, 0.0), &a, &CMatrix::identity(2));
        assert!(c.approx_eq(&a.scaled(cplx(2.0, 0.0)), 1e-14));
    }

    #[test]
    fn associativity_of_triple_product() {
        let a = a22();
        let b = a.dagger();
        let c = CMatrix::from_fn(2, 2, |i, j| cplx(j as f64, i as f64));
        let left = triple_product(&a, &b, &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.approx_eq(&right, 1e-12));
    }

    #[test]
    fn triple_product_picks_the_cheaper_association_order() {
        // A: 1×8, B: 8×8, C: 8×8 — left order costs 64 + 64 = 128 madds,
        // right order 512 + 64 = 576: the thin first operand must propagate.
        let a = CMatrix::from_fn(1, 8, |_, j| cplx(j as f64, 1.0));
        let b = CMatrix::from_fn(8, 8, |i, j| cplx(i as f64, j as f64));
        let c = CMatrix::from_fn(8, 8, |i, j| cplx((i + j) as f64, -1.0));
        assert_eq!(
            triple_product_flops(a.shape(), b.shape(), c.shape()),
            8 * 128
        );
        let got = triple_product(&a, &b, &c);
        let want = matmul(&matmul(&a, &b), &c);
        assert!(got.approx_eq(&want, 1e-10));

        // Mirrored skew: A: 8×8, B: 8×8, C: 8×1 — right order wins.
        let a = CMatrix::from_fn(8, 8, |i, j| cplx(i as f64, j as f64));
        let c1 = CMatrix::from_fn(8, 1, |i, _| cplx(i as f64, 0.5));
        assert_eq!(
            triple_product_flops(a.shape(), b.shape(), c1.shape()),
            8 * 128
        );
        let got = triple_product(&a, &b, &c1);
        let want = matmul(&matmul(&a, &b), &c1);
        assert!(got.approx_eq(&want, 1e-10));
    }

    #[test]
    fn congruence_of_hermitian_stays_hermitian() {
        let a = a22();
        let h = a.hermitian_part();
        let out = congruence(&a, &h);
        assert!(out.is_hermitian(1e-12));
    }

    #[test]
    fn congruence_preserves_negf_antihermiticity() {
        // If B obeys B = -B† then A B A† also obeys it; this is the structural
        // reason the RGF lesser/greater recursion preserves the NEGF symmetry.
        let a = a22();
        let b = a.negf_antihermitian_part();
        let out = congruence(&a, &b);
        assert!(out.is_negf_antihermitian(1e-12));
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 8 * 24);
    }

    fn flagged(kind: OpKind, m: &CMatrix) -> Op<'_> {
        match kind {
            OpKind::None => Op::None(m),
            OpKind::Trans => Op::Trans(m),
            OpKind::Dagger => Op::Dagger(m),
        }
    }

    /// Deterministic, sign-mixed test entries in `[-0.6, 0.6]`.
    fn entry(salt: usize) -> impl Fn(usize, usize) -> c64 {
        move |i, j| {
            cplx(
                ((i * 7 + j * 3 + salt) % 11) as f64 * 0.1 - 0.5,
                ((i * 5 + j * 2 + salt) % 13) as f64 * 0.1 - 0.6,
            )
        }
    }

    #[test]
    fn gemm_matches_reference_kernel_to_rounding() {
        // The fused tile rounds each multiply-add once and applies alpha to
        // the finished sum; the reference rounds twice and folds alpha into
        // every term. Per element the two stay within the dot-product bound
        // 4·k·ε·‖A‖‖B‖ — over every tile remainder (sizes around MR, NR and
        // their multiples), flag pair and alpha/beta class.
        const SIZES: [usize; 9] = [1, 3, 7, 8, 9, 17, 33, 64, 65];
        const FLAGS: [OpKind; 3] = [OpKind::None, OpKind::Trans, OpKind::Dagger];
        let alphas = [ONE, cplx(-1.0, 0.0), cplx(0.3, -0.7)];
        let betas = [ZERO, ONE, cplx(0.0, 2.0)];
        let stored = |kind, rows, cols, salt| match kind {
            OpKind::None => CMatrix::from_fn(rows, cols, entry(salt)),
            _ => CMatrix::from_fn(cols, rows, entry(salt)),
        };
        let effective = |kind, m: &CMatrix| match kind {
            OpKind::None => m.clone(),
            OpKind::Trans => m.transpose(),
            OpKind::Dagger => m.dagger(),
        };
        for (m, k, n) in SIZES
            .iter()
            .flat_map(|&m| SIZES.iter().flat_map(move |&k| SIZES.map(|n| (m, k, n))))
        {
            let c0 = CMatrix::from_fn(m, n, entry(3));
            for (fa, fb) in FLAGS.iter().flat_map(|&fa| FLAGS.map(|fb| (fa, fb))) {
                let (a, b) = (stored(fa, m, k, 1), stored(fb, k, n, 2));
                let product = reference::matmul_ref(&effective(fa, &a), &effective(fb, &b));
                let bound = 4.0 * k as f64 * f64::EPSILON * a.norm_fro() * b.norm_fro();
                for (alpha, beta) in alphas.iter().flat_map(|&al| betas.map(|be| (al, be))) {
                    let mut c = c0.clone();
                    gemm(&mut c, alpha, flagged(fa, &a), flagged(fb, &b), beta);
                    let mut want = product.scaled(alpha);
                    want.axpy(beta, &c0);
                    let tol = alpha.norm() * bound + 4.0 * f64::EPSILON * want.norm_max();
                    assert!(
                        c.approx_eq(&want, tol),
                        "({m},{k},{n}) {fa:?}/{fb:?} alpha {alpha} beta {beta}"
                    );
                }
            }
        }
    }

    #[test]
    fn product_element_is_independent_of_its_tile_position() {
        // One row of A times one column of B, embedded at every (i, j) of
        // shapes that put it in a full tile, in the row remainder and in each
        // width of the column remainder, through every flag: the element
        // comes out of the same operation sequence, bit for bit.
        let k = 19;
        let (row, col) = (
            CMatrix::from_fn(1, k, entry(4)),
            CMatrix::from_fn(k, 1, entry(5)),
        );
        let mut expected = None;
        for (m, n) in [1, MR - 1, MR, MR + 1, 2 * MR + 3]
            .iter()
            .flat_map(|&m| [1, 2, 3, 4, 5, 2 * NR + 1].map(|n| (m, n)))
        {
            for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let a = CMatrix::from_fn(
                    m,
                    k,
                    |r, l| {
                        if r == i {
                            row[(0, l)]
                        } else {
                            entry(6)(r, l)
                        }
                    },
                );
                let b = CMatrix::from_fn(
                    k,
                    n,
                    |l, c| {
                        if c == j {
                            col[(l, 0)]
                        } else {
                            entry(7)(l, c)
                        }
                    },
                );
                let (at, bd) = (a.transpose(), b.dagger());
                for (op_a, op_b) in [
                    (Op::None(&a), Op::None(&b)),
                    (Op::Trans(&at), Op::Dagger(&bd)),
                ] {
                    let mut c = CMatrix::zeros(m, n);
                    gemm(&mut c, ONE, op_a, op_b, ZERO);
                    let got = (c[(i, j)].re.to_bits(), c[(i, j)].im.to_bits());
                    assert_eq!(*expected.get_or_insert(got), got, "{m}×{n} at ({i},{j})");
                }
            }
        }
    }
}
