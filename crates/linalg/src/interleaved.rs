//! Small blocks across the energy batch: the lane-interleaved layout.
//!
//! An `8 × 8` complex block cannot fill a register tile of the packed engine
//! ([`crate::ops`]): [`crate::batch::gemm_batch`] packs both operands of every
//! plane into split panels and then runs one short tile over eight inner
//! steps. Eight *energies* of the same block fill a lane vector exactly. A
//! [`LaneBatch`] stores element `(i, j)` of up to [`LANES`] energies as one
//! vector of real parts and one of imaginary parts — lane `e` is energy `e` of
//! the lane group — and [`gemm_lanes`] multiplies straight out of that layout:
//! no packing, the operand flags applied as index maps, every multiply-add a
//! full vector of independent energies. A batch longer than [`LANES`] is
//! several lane groups; the last one's unused lanes are padding, computed
//! along but never read back.
//!
//! ```text
//! LaneBatch, one lane group (energies g·8 .. g·8+7), column-major elements
//! ┌──────── element (0,0) ────────┬──── element (1,0) ────┬─ ... ─┐
//! │ re: [e0 e1 e2 e3 e4 e5 e6 e7] │ re: [e0 … e7]         │       │
//! │ im: [e0 e1 e2 e3 e4 e5 e6 e7] │ im: [e0 … e7]         │       │
//! └───────────────────────────────┴───────────────────────┴───────┘
//! ```
//!
//! Every element of a product comes out of the operation sequence of
//! `ops::packed_kernel` — `k` ascending; per step `re ← fma(ar, br, re)`,
//! `re ← fnma(ai, bi, re)`, `im ← fma(ar, bi, im)`, `im ← fma(ai, br, im)`;
//! then `c += α·(re, im)` — with the conjugate flag, which the packer applies
//! as a sign flip of the loaded imaginary part, applied here by exchanging
//! `fma` and `fnma` (the same rounded value: negation is exact). So lane `e`
//! of a [`gemm_lanes`] result is **bit-identical** to plane `e` of the
//! [`crate::batch::gemm_batch`] call on the same operands, and to the
//! per-energy [`crate::ops::gemm`]. Inversions stay per plane
//! ([`invert_lanes_into`] runs `LuScratch::invert_slice_into` on each
//! energy), so they are bit-identical too.

use std::cell::RefCell;

use crate::lanes::{Lanes, Native};
use crate::lu::{LuError, LuScratch};
use crate::matrix::CMatrix;
use crate::ops::OpKind;
use crate::{c64, ONE, ZERO};

pub use crate::lanes::LANES;

/// One element of a lane group: `[re, im]`, lane `e` of each is energy `e`.
type Element = [[f64; LANES]; 2];

/// `batch` same-shaped complex matrices, interleaved across energies: element
/// `(i, j)` of the energies of lane group `g` is `data[g · nrows · ncols +
/// j · nrows + i]`, one lane vector of real parts and one of imaginary parts.
///
/// The padding lanes of the last group hold no energy. They are zero on
/// creation and after a shape change; [`LaneBatch::copy_planes_from`] fills
/// them with a copy of the group's first energy, so they only ever hold the
/// values a live lane could hold, and nothing reads them back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LaneBatch {
    batch: usize,
    nrows: usize,
    ncols: usize,
    data: Vec<Element>,
}

impl LaneBatch {
    /// A zero-filled batch of `batch` matrices of shape `nrows × ncols`.
    pub fn zeros(batch: usize, nrows: usize, ncols: usize) -> Self {
        let mut lb = Self::default();
        lb.reshape(batch, nrows, ncols);
        lb
    }

    /// Reshape to `batch` matrices of `nrows × ncols`, reusing the buffer:
    /// zero-filled if the shape changed, left as it is otherwise.
    pub fn reshape(&mut self, batch: usize, nrows: usize, ncols: usize) {
        if (batch, nrows, ncols) != (self.batch, self.nrows, self.ncols) {
            (self.batch, self.nrows, self.ncols) = (batch, nrows, ncols);
            self.data.clear();
            self.data
                .resize(batch.div_ceil(LANES) * nrows * ncols, [[0.0; LANES]; 2]);
        }
    }

    /// Number of matrices (energies) in the batch.
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Rows of every matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of every matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)` of every matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Elements of one matrix (`nrows · ncols`), the length of a lane group.
    fn plane_len(&self) -> usize {
        self.nrows * self.ncols
    }

    /// Lane group and lane of energy `e`.
    fn lane_of(&self, e: usize) -> (std::ops::Range<usize>, usize) {
        assert!(
            e < self.batch,
            "energy {e} outside a batch of {}",
            self.batch
        );
        let (g, lane) = (e / LANES, e % LANES);
        (g * self.plane_len()..(g + 1) * self.plane_len(), lane)
    }

    /// Write the column-major matrix `src` (`nrows · ncols` elements) into
    /// energy `e`.
    fn scatter(&mut self, e: usize, src: &[c64]) {
        let (group, lane) = self.lane_of(e);
        for (dst, v) in self.data[group].iter_mut().zip(src) {
            (dst[0][lane], dst[1][lane]) = (v.re, v.im);
        }
    }

    /// Read energy `e` into the column-major `dst` (`nrows · ncols` elements).
    fn gather(&self, e: usize, dst: &mut [c64]) {
        let (group, lane) = self.lane_of(e);
        for (v, src) in dst.iter_mut().zip(&self.data[group]) {
            *v = c64::new(src[0][lane], src[1][lane]);
        }
    }

    /// Stage a per-energy matrix into energy `e` (shapes must match).
    pub fn copy_plane_from(&mut self, e: usize, src: &CMatrix) {
        assert_eq!(src.shape(), self.shape(), "plane shape");
        self.scatter(e, src.as_slice());
    }

    /// Stage `block(e)` into every energy `e` (shapes must match), a lane
    /// group per pass: each element is written as two whole lane vectors,
    /// where energy-by-energy staging stores every `f64` on its own.
    pub fn copy_planes_from<'a>(&mut self, mut block: impl FnMut(usize) -> &'a CMatrix) {
        let (shape, pl) = (self.shape(), self.plane_len());
        for (g, group) in self.data.chunks_exact_mut(pl.max(1)).enumerate() {
            let live = (self.batch - g * LANES).min(LANES);
            let mut src = [&[][..]; LANES];
            for (lane, s) in src[..live].iter_mut().enumerate() {
                let m = block(g * LANES + lane);
                assert_eq!(m.shape(), shape, "plane shape");
                *s = m.as_slice();
            }
            // Padding lanes get a copy of lane 0: a whole-vector store costs
            // nothing extra, and they are never read back.
            let src: [&[c64]; LANES] = std::array::from_fn(|l| src[if l < live { l } else { 0 }]);
            interleave(group, &src);
        }
    }

    /// Copy energy `e` out into a per-energy matrix (reshaped if needed).
    pub fn copy_plane_to(&self, e: usize, dst: &mut CMatrix) {
        if dst.shape() != self.shape() {
            dst.resize_zeroed(self.nrows, self.ncols);
        }
        self.gather(e, dst.as_mut_slice());
    }

    /// Energy `e` as a freshly allocated matrix (test/diagnostic convenience).
    pub fn plane_matrix(&self, e: usize) -> CMatrix {
        let mut m = CMatrix::zeros(self.nrows, self.ncols);
        self.copy_plane_to(e, &mut m);
        m
    }

    /// `self -= x` in every energy — the complex subtraction of
    /// [`crate::batch::MatrixBatch::sub_assign_batch`], lane by lane.
    pub fn sub_assign_batch(&mut self, x: &LaneBatch) {
        assert_eq!(
            (x.batch, x.nrows, x.ncols),
            (self.batch, self.nrows, self.ncols),
            "batch shape"
        );
        for (d, s) in self.data.iter_mut().zip(&x.data) {
            for p in 0..2 {
                Native::load(&d[p])
                    .sub(Native::load(&s[p]))
                    .store(&mut d[p]);
            }
        }
    }

    /// Add `alpha` to the diagonal of every energy (square matrices only).
    pub fn add_scaled_identity(&mut self, alpha: c64) {
        assert_eq!(self.nrows, self.ncols, "square planes required");
        let n = self.nrows;
        for e in 0..self.batch {
            let (group, lane) = self.lane_of(e);
            for d in self.data[group].iter_mut().step_by(n + 1) {
                d[0][lane] += alpha.re;
                d[1][lane] += alpha.im;
            }
        }
    }
}

/// Fill one lane group from `LANES` column-major planes of its length. The
/// copy is a transposition, so it goes through `BLOCK`-element blocks — a run
/// of `BLOCK` values read from each plane and written as `BLOCK` whole
/// elements — which the compiler turns into register shuffles where an
/// element-at-a-time loop loads every value on its own.
#[inline(never)]
fn interleave(group: &mut [Element], src: &[&[c64]; LANES]) {
    const BLOCK: usize = 4;
    let (blocks, tail) = group.as_chunks_mut::<BLOCK>();
    for (b, dst) in blocks.iter_mut().enumerate() {
        let runs: [&[c64; BLOCK]; LANES] =
            std::array::from_fn(|l| src[l][b * BLOCK..].first_chunk().expect("a whole block"));
        for (t, d) in dst.iter_mut().enumerate() {
            d[0] = std::array::from_fn(|l| runs[l][t].re);
            d[1] = std::array::from_fn(|l| runs[l][t].im);
        }
    }
    let base = blocks.len() * BLOCK;
    for (t, d) in tail.iter_mut().enumerate() {
        d[0] = std::array::from_fn(|l| src[l][base + t].re);
        d[1] = std::array::from_fn(|l| src[l][base + t].im);
    }
}

/// Lane-interleaved operand-flag GEMM:
/// `C_e = alpha · op(A_e) · op(B_e) + beta · C_e` for every energy `e`.
///
/// `a` and `b` carry their [`OpKind`] flags, which become index maps into the
/// interleaved elements; nothing is packed. Every element of every energy is
/// formed by the operation sequence of [`crate::ops::gemm`] (module docs), so
/// the result is bit-identical to [`crate::batch::gemm_batch`] on planes
/// holding the same matrices. A `beta = 0` call stores `0 + α·Σ` without
/// reading `C`; `alpha = 0` (or an empty dimension) only scales `C` by `beta`.
pub fn gemm_lanes(
    c: &mut LaneBatch,
    alpha: c64,
    a: (OpKind, &LaneBatch),
    b: (OpKind, &LaneBatch),
    beta: c64,
) {
    let (m, k) = effective(a);
    let (k2, n) = effective(b);
    assert_eq!(k, k2, "gemm_lanes inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_lanes output shape mismatch");
    assert!(
        a.1.batch == c.batch && b.1.batch == c.batch,
        "gemm_lanes batch length mismatch"
    );
    if c.data.is_empty() {
        return;
    }
    if alpha == ZERO || k == 0 {
        for x in c.data.iter_mut() {
            *x = scaled::<Native>(beta, x);
        }
        return;
    }

    let kernel = group_kernel::<Native>(a.0, b.0);
    let pl = (m * k, k * n, m * n);
    quatrex_probe::span("gemm_lanes", "gemm_lanes", || {
        let groups = c.data.chunks_exact_mut(pl.2);
        let groups = groups.zip(a.1.data.chunks_exact(pl.0).zip(b.1.data.chunks_exact(pl.1)));
        for (cg, (ag, bg)) in groups {
            kernel(cg, ag, bg, (m, k, n), (alpha, beta));
        }
    });
}

/// Rows and columns of the flag-applied operand.
fn effective((kind, x): (OpKind, &LaneBatch)) -> (usize, usize) {
    match kind {
        OpKind::None => x.shape(),
        _ => (x.ncols, x.nrows),
    }
}

/// `beta · x`, elementwise in the lanes: the complex product of `c64`'s `*`
/// (`MatrixBatch::scale_mut`), with `beta = 1` the identity and `beta = 0`
/// zero as `gemm` treats them.
#[inline(always)]
fn scaled<L: Lanes>(beta: c64, x: &Element) -> Element {
    if beta == ONE {
        return *x;
    }
    if beta == ZERO {
        return [[0.0; LANES]; 2];
    }
    let (re, im) = (L::load(&x[0]), L::load(&x[1]));
    let (br, bi) = (L::splat(beta.re), L::splat(beta.im));
    let mut out = [[0.0; LANES]; 2];
    re.mul(br).sub(im.mul(bi)).store(&mut out[0]);
    re.mul(bi).add(im.mul(br)).store(&mut out[1]);
    out
}

/// Rows of the register tile of [`group_product`] (one lane vector each for
/// the real and imaginary accumulator of a row).
const TILE_ROWS: usize = 4;
/// Columns of the register tile: `2 · TILE_ROWS · TILE_COLS` accumulators and
/// `2 · (TILE_ROWS + TILE_COLS)` operand vectors fit in 32 registers.
const TILE_COLS: usize = 2;

/// The product of one lane group: `(C, A, B)` groups, `(m, k, n)`,
/// `(alpha, beta)`.
type GroupKernel = fn(&mut [Element], &[Element], &[Element], (usize, usize, usize), (c64, c64));

/// [`group_product`] on the lane type `L` for the flags of `op(A)` and
/// `op(B)`: each flag is a transposition (`T*`, an index map fixed at compile
/// time) and a conjugation (`C*`).
fn group_kernel<L: Lanes>(a: OpKind, b: OpKind) -> GroupKernel {
    use OpKind::{Dagger as D, None as N, Trans as T};
    match (a, b) {
        (N, N) => group_product::<L, false, false, false, false>,
        (N, T) => group_product::<L, false, false, true, false>,
        (N, D) => group_product::<L, false, false, true, true>,
        (T, N) => group_product::<L, true, false, false, false>,
        (T, T) => group_product::<L, true, false, true, false>,
        (T, D) => group_product::<L, true, false, true, true>,
        (D, N) => group_product::<L, true, true, false, false>,
        (D, T) => group_product::<L, true, true, true, false>,
        (D, D) => group_product::<L, true, true, true, true>,
    }
}

/// The product of one lane group, tile by tile. `TA` / `CA` and `TB` / `CB`
/// are the transposition and conjugation flags of `A` and `B`.
fn group_product<L: Lanes, const TA: bool, const CA: bool, const TB: bool, const CB: bool>(
    c: &mut [Element],
    a: &[Element],
    b: &[Element],
    (m, k, n): (usize, usize, usize),
    scalars: (c64, c64),
) {
    let mut j = 0;
    while j < n {
        let cols = (n - j).min(TILE_COLS);
        let mut i = 0;
        while i < m {
            let rows = (m - i).min(TILE_ROWS);
            let at = (i, j, m, k, n);
            match (rows, cols) {
                (1, 1) => tile::<L, TA, CA, TB, CB, 1, 1>(c, a, b, at, scalars),
                (2, 1) => tile::<L, TA, CA, TB, CB, 2, 1>(c, a, b, at, scalars),
                (3, 1) => tile::<L, TA, CA, TB, CB, 3, 1>(c, a, b, at, scalars),
                (_, 1) => tile::<L, TA, CA, TB, CB, 4, 1>(c, a, b, at, scalars),
                (1, _) => tile::<L, TA, CA, TB, CB, 1, 2>(c, a, b, at, scalars),
                (2, _) => tile::<L, TA, CA, TB, CB, 2, 2>(c, a, b, at, scalars),
                (3, _) => tile::<L, TA, CA, TB, CB, 3, 2>(c, a, b, at, scalars),
                (_, _) => tile::<L, TA, CA, TB, CB, 4, 2>(c, a, b, at, scalars),
            }
            i += rows;
        }
        j += cols;
    }
}
const _: () = assert!(TILE_ROWS == 4 && TILE_COLS == 2);

/// One `R × C` register tile of `C` at `(i0, j0)`: the `k` sweep in
/// registers, then `c = beta·c + alpha·(re, im)` per element.
///
/// The index maps: `op(A)[i, l]` is `A[l·m + i]` as stored (the `R` rows of a
/// step are adjacent) or, transposed, `A[i·k + l]` (each row a run of `k`);
/// `op(B)[l, j]` is `B[j·k + l]` (each column a run) or, transposed,
/// `B[l·n + j]` (the `C` columns of a step adjacent). Runs are sliced once,
/// adjacent elements once per step, so the `k` sweep indexes within known
/// bounds.
#[inline(always)]
fn tile<
    L: Lanes,
    const TA: bool,
    const CA: bool,
    const TB: bool,
    const CB: bool,
    const R: usize,
    const C: usize,
>(
    c: &mut [Element],
    a: &[Element],
    b: &[Element],
    (i0, j0, m, k, n): (usize, usize, usize, usize, usize),
    (alpha, beta): (c64, c64),
) {
    let a_runs: [&[Element]; R] =
        std::array::from_fn(|r| if TA { &a[(i0 + r) * k..][..k] } else { &[] });
    let b_runs: [&[Element]; C] =
        std::array::from_fn(|cc| if TB { &[] } else { &b[(j0 + cc) * k..][..k] });
    let mut re = [[L::splat(0.0); R]; C];
    let mut im = [[L::splat(0.0); R]; C];
    for l in 0..k {
        let ea: [&Element; R] = if TA {
            std::array::from_fn(|r| &a_runs[r][l])
        } else {
            let step: &[Element; R] = a[l * m + i0..].first_chunk().expect("R rows of a step");
            std::array::from_fn(|r| &step[r])
        };
        let eb: [&Element; C] = if TB {
            let step: &[Element; C] = b[l * n + j0..].first_chunk().expect("C columns of a step");
            std::array::from_fn(|cc| &step[cc])
        } else {
            std::array::from_fn(|cc| &b_runs[cc][l])
        };
        let (ar, ai): ([L; R], [L; R]) = (
            std::array::from_fn(|r| L::load(&ea[r][0])),
            std::array::from_fn(|r| L::load(&ea[r][1])),
        );
        for cc in 0..C {
            let (br, bi) = (L::load(&eb[cc][0]), L::load(&eb[cc][1]));
            for r in 0..R {
                // `ops::tile_product`'s four steps, the packer's sign flip of
                // a conjugated imaginary part folded into fma ↔ fnma.
                let (x, y) = (&mut re[cc][r], &mut im[cc][r]);
                *x = ar[r].fma(br, *x);
                *x = if CA == CB {
                    ai[r].fnma(bi, *x)
                } else {
                    ai[r].fma(bi, *x)
                };
                *y = if CB {
                    ar[r].fnma(bi, *y)
                } else {
                    ar[r].fma(bi, *y)
                };
                *y = if CA {
                    ai[r].fnma(br, *y)
                } else {
                    ai[r].fma(br, *y)
                };
            }
        }
    }
    let (alr, ali) = (L::splat(alpha.re), L::splat(alpha.im));
    for cc in 0..C {
        for r in 0..R {
            let dst = &mut c[(j0 + cc) * m + i0 + r];
            let old = scaled::<L>(beta, dst);
            // `alpha * c64::new(re, im)`, then `c += ·` — as `ops::tile`.
            let (x, y) = (re[cc][r], im[cc][r]);
            let sre = alr.mul(x).sub(ali.mul(y));
            let sim = alr.mul(y).add(ali.mul(x));
            L::load(&old[0]).add(sre).store(&mut dst[0]);
            L::load(&old[1]).add(sim).store(&mut dst[1]);
        }
    }
}

thread_local! {
    /// Per-thread input and output plane of [`invert_lanes_into`] (reused
    /// across calls: zero allocations once warmed at the largest block).
    static PLANES: RefCell<(Vec<c64>, Vec<c64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Energy-wise LU inversion `out_e = a_e⁻¹`: each energy is gathered into a
/// plane and inverted by `LuScratch::invert_slice_into` — the routine under
/// [`crate::batch::invert_batch_into`], so bit-identical to it — then
/// scattered back. On a singular energy the error carries its index.
pub fn invert_lanes_into(
    lu: &mut LuScratch,
    a: &LaneBatch,
    out: &mut LaneBatch,
) -> Result<(), (usize, LuError)> {
    assert_eq!(a.nrows, a.ncols, "square planes required");
    assert_eq!(
        (a.batch, a.shape()),
        (out.batch, out.shape()),
        "inverse output shape mismatch"
    );
    let n = a.nrows;
    PLANES.with(|planes| {
        let (src, dst) = &mut *planes.borrow_mut();
        src.resize(n * n, ZERO);
        dst.resize(n * n, ZERO);
        for e in 0..a.batch {
            a.gather(e, src);
            lu.invert_slice_into(src, n, dst).map_err(|err| (e, err))?;
            out.scatter(e, dst);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{gemm_batch, invert_batch_into, BatchOp, MatrixBatch};
    use crate::cplx;
    use crate::lanes::Portable;
    use crate::ops::{gemm, Op};

    const KINDS: [OpKind; 3] = [OpKind::None, OpKind::Trans, OpKind::Dagger];

    /// Deterministic, sign-mixed, full-mantissa test entries: a fused and an
    /// unfused multiply-add round them differently.
    fn matrix(rows: usize, cols: usize, salt: u64) -> CMatrix {
        let unit = |z: u64| {
            let z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (z >> 11) as f64 / (1u64 << 52) as f64 - 0.5
        };
        CMatrix::from_fn(rows, cols, |i, j| {
            let key = salt << 32 | (i as u64) << 16 | j as u64;
            cplx(unit(2 * key + 1), unit(2 * key + 2))
        })
    }

    /// `batch` matrices of `rows × cols` as a lane batch and as planes.
    fn both(batch: usize, rows: usize, cols: usize, salt: u64) -> (LaneBatch, MatrixBatch) {
        let mut lanes = LaneBatch::zeros(batch, rows, cols);
        let mut planes = MatrixBatch::zeros(batch, rows, cols);
        for e in 0..batch {
            let m = matrix(rows, cols, salt * 64 + e as u64);
            lanes.copy_plane_from(e, &m);
            planes.copy_plane_from(e, &m);
        }
        (lanes, planes)
    }

    /// Stored shape that yields an effective `m × k` operand under `kind`.
    fn stored(kind: OpKind, m: usize, k: usize) -> (usize, usize) {
        match kind {
            OpKind::None => (m, k),
            _ => (k, m),
        }
    }

    fn bits(m: &CMatrix) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect()
    }

    #[test]
    fn lane_product_equals_gemm_bit_for_bit() {
        // Every flag pair, alpha and beta in {0, ±1, general}, 1…8 live lanes
        // (and a second, ragged group), shapes at and off the tile edges:
        // each energy equals its per-energy `gemm` and its `gemm_batch` plane.
        let scalars = [ZERO, ONE, -ONE, cplx(0.3, -0.7)];
        for (batch, (m, k, n)) in (1..=9).zip([(8, 8, 8), (5, 3, 7), (12, 12, 12)].repeat(3)) {
            for (ka, kb) in KINDS.iter().flat_map(|&ka| KINDS.map(|kb| (ka, kb))) {
                let (sa, sb) = (stored(ka, m, k), stored(kb, k, n));
                let (a, a_planes) = both(batch, sa.0, sa.1, 1);
                let (b, b_planes) = both(batch, sb.0, sb.1, 2);
                for (alpha, beta) in scalars.iter().flat_map(|&al| scalars.map(|be| (al, be))) {
                    let (mut c, mut c_planes) = both(batch, m, n, 3);
                    let c0 = c.clone();
                    gemm_lanes(&mut c, alpha, (ka, &a), (kb, &b), beta);
                    let (ea, eb) = (BatchOp::Each(ka, &a_planes), BatchOp::Each(kb, &b_planes));
                    gemm_batch(&mut c_planes, alpha, ea, eb, beta);
                    for e in 0..batch {
                        let tag =
                            format!("B={batch} {m}×{k}×{n} {ka:?}/{kb:?} α={alpha} β={beta} e={e}");
                        let mut want = c0.plane_matrix(e);
                        let (pa, pb) = (a.plane_matrix(e), b.plane_matrix(e));
                        gemm(&mut want, alpha, op(ka, &pa), op(kb, &pb), beta);
                        assert_eq!(bits(&c.plane_matrix(e)), bits(&want), "gemm, {tag}");
                        assert_eq!(
                            bits(&c_planes.plane_matrix(e)),
                            bits(&want),
                            "planes, {tag}"
                        );
                    }
                }
            }
        }
    }

    fn op(kind: OpKind, m: &CMatrix) -> Op<'_> {
        match kind {
            OpKind::None => Op::None(m),
            OpKind::Trans => Op::Trans(m),
            OpKind::Dagger => Op::Dagger(m),
        }
    }

    #[test]
    fn portable_and_native_lanes_give_equal_bits() {
        let (m, k, n) = (7, 9, 6);
        let alpha = cplx(-0.4, 1.3);
        for (ka, kb) in KINDS.iter().flat_map(|&ka| KINDS.map(|kb| (ka, kb))) {
            let (sa, sb) = (stored(ka, m, k), stored(kb, k, n));
            let (a, _) = both(5, sa.0, sa.1, 4);
            let (b, _) = both(5, sb.0, sb.1, 5);
            let run = |kernel: GroupKernel| {
                let mut c = LaneBatch::zeros(5, m, n);
                kernel(&mut c.data, &a.data, &b.data, (m, k, n), (alpha, ONE));
                c
            };
            let portable = run(group_kernel::<Portable>(ka, kb));
            let native = run(group_kernel::<Native>(ka, kb));
            for e in 0..5 {
                let (p, q) = (portable.plane_matrix(e), native.plane_matrix(e));
                assert_eq!(bits(&p), bits(&q), "{ka:?}/{kb:?} energy {e}");
            }
        }
    }

    #[test]
    fn a_nan_in_one_energy_stays_in_its_lane() {
        let (mut a, _) = both(8, 8, 8, 6);
        let (b, _) = both(8, 8, 8, 7);
        let mut poisoned = a.plane_matrix(3);
        poisoned[(2, 5)] = cplx(f64::NAN, 0.0);
        a.copy_plane_from(3, &poisoned);
        let mut c = LaneBatch::zeros(8, 8, 8);
        gemm_lanes(&mut c, ONE, (OpKind::None, &a), (OpKind::Dagger, &b), ZERO);
        for e in 0..8 {
            let finite = c.plane_matrix(e).as_slice().iter().all(|v| v.is_finite());
            assert_eq!(finite, e != 3, "energy {e}");
        }
    }

    #[test]
    fn lane_inverse_equals_the_plane_inverse_and_names_the_singular_energy() {
        let n = 6;
        let (mut a, _) = both(11, n, n, 8);
        a.add_scaled_identity(cplx(3.0, 0.5));
        let mut planes = MatrixBatch::zeros(11, n, n);
        for e in 0..11 {
            planes.copy_plane_from(e, &a.plane_matrix(e));
        }
        let (mut out, mut out_planes) = (LaneBatch::zeros(11, n, n), MatrixBatch::zeros(11, n, n));
        let mut lu = LuScratch::new();
        invert_lanes_into(&mut lu, &a, &mut out).unwrap();
        invert_batch_into(&mut lu, &planes, &mut out_planes).unwrap();
        for e in 0..11 {
            assert_eq!(
                bits(&out.plane_matrix(e)),
                bits(&out_planes.plane_matrix(e))
            );
        }
        a.copy_plane_from(9, &CMatrix::zeros(n, n));
        assert_eq!(invert_lanes_into(&mut lu, &a, &mut out).unwrap_err().0, 9);
    }

    #[test]
    fn staging_round_trips_and_the_elementwise_helpers_match_the_planes() {
        // 10 energies: a full lane group and a ragged one; 4 × 4 and 3 × 3
        // blocks: whole transposition blocks and a tail.
        for n in [4, 3] {
            let mats: Vec<CMatrix> = (0..10).map(|e| matrix(n, n, 11 + e)).collect();
            let mut a = LaneBatch::zeros(10, n, n);
            a.copy_planes_from(|e| &mats[e]);
            let mut planes = MatrixBatch::zeros(10, n, n);
            for (e, m) in mats.iter().enumerate() {
                assert_eq!(bits(&a.plane_matrix(e)), bits(m), "staged energy {e}");
                planes.copy_plane_from(e, m);
            }
            let (x, x_planes) = both(10, n, n, 12);
            a.sub_assign_batch(&x);
            planes.sub_assign_batch(&x_planes);
            a.add_scaled_identity(ONE);
            planes.add_scaled_identity(ONE);
            for e in 0..10 {
                assert_eq!(bits(&a.plane_matrix(e)), bits(&planes.plane_matrix(e)));
            }
        }
    }
}
