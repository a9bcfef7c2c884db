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
//! * the inner loop is one register-tiled micro-kernel (`TALL × NR` complex
//!   accumulators: `16 × 4` in 512-bit registers where the build target has
//!   AVX-512, `8 × 4` on aarch64, `8 × 2` elsewhere; the last eight or fewer
//!   rows of an operand always run an `8 × NR` tile) on split real/imaginary
//!   planes: both operands are packed — flag applied — into
//!   structure-of-arrays panels (`A` in row tiles, `B` in `NR`-column panels,
//!   both step-major), so the kernel is pure lane arithmetic of fused
//!   multiply-adds on the 8-lane vector of `lanes`;
//! * callers recycle output and temporary buffers (the OBC surface
//!   iterations on the work blocks of their scratch, the RGF solve through a
//!   free list of its own), so the steady-state inner loops perform zero heap
//!   allocations.
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
//! not (a build-time selection, like `NR` and the lane type); builds for
//! different targets agree to rounding. The width of the lanes is invisible:
//! the 512-bit and the compiler-vectorised lane type perform the same IEEE
//! operation per lane, and the tests hold them to equal bits in one build.
//!
//! The scalar kernel in [`mod@reference`] is an independent implementation
//! the engine must match to rounding (`≤ 4·k·ε·‖A‖‖B‖` per element, see the
//! tests); `bench_kernels` (in `quatrex-bench`) checks the products it times
//! against it, untimed.

use crate::lanes::{Lanes, Native, LANES, WIDE};
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
    pub(crate) fn matrix(&self) -> &'a CMatrix {
        match self {
            Op::None(m) | Op::Trans(m) | Op::Dagger(m) => m,
        }
    }

    /// The flag alone.
    #[inline(always)]
    pub(crate) fn kind(&self) -> OpKind {
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
/// runs in `TALL × NR` register tiles of fused multiply-adds
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
    /// Height of the row tiles the `A` planes hold, [`MR`] or [`TALL`]: what
    /// [`Self::pack_a_raw`] laid out is what [`packed_kernel`] walks.
    tile_rows: usize,
}

/// Rows of the tile that starts with `rows_left` rows of the operand below
/// it, in a packing of `tile_rows`-row tiles: the full height while more than
/// one short tile is left, [`MR`] for the last rows. An operand of `m ≤ MR`
/// rows is therefore one short tile whatever the target, and the packed `A`
/// planes hold `m` rounded up to whole [`MR`]-lane vectors at any height.
#[inline(always)]
fn tile_height(tile_rows: usize, rows_left: usize) -> usize {
    if rows_left > MR {
        tile_rows
    } else {
        MR
    }
}

/// Call `$split::<W>` with `W` the width of a packed panel, one of `$w`: the
/// copy loops are fixed-size vector code at every width they run at.
macro_rules! at_width {
    ($width:expr, [$($w:literal),*], $split:ident $args:tt) => {
        match $width {
            $($w => $split::<$w> $args,)*
            width => unreachable!("no packed panel is {width} lanes wide"),
        }
    };
}
// The widths dispatched on: a row tile of `A`, a column panel of `B`.
const _: () = assert!(MR == 8 && (TALL == 8 || TALL == 16) && NR <= 4);

impl PackBuf {
    /// Pack the effective `m × k` operand `op(A)` into tile-major split
    /// planes: rows are grouped into tiles of [`TALL`] rows, the last
    /// [`MR`] or fewer into a short one (zero-padded at the edge), and within
    /// a tile the `k` sweep is contiguous — the micro-kernel streams the
    /// panel strictly sequentially. The flag is applied during the copy.
    fn pack_a(&mut self, a: Op<'_>, m: usize, k: usize) {
        self.pack_a_raw(a.kind(), a.matrix().as_slice(), m, k);
    }

    /// Raw-slice form of [`Self::pack_a`]: the stored matrix is a column-major
    /// slice (`m × k` for [`OpKind::None`], `k × m` for the transposed
    /// flags). This is the entry point the batched layer uses on
    /// [`crate::batch::MatrixBatch`] planes.
    pub(crate) fn pack_a_raw(&mut self, kind: OpKind, data: &[c64], m: usize, k: usize) {
        self.pack_a_tiled(kind, data, m, k, TALL);
    }

    /// [`Self::pack_a_raw`] in tiles of `tile_rows` rows (the tests pack at
    /// both heights on one target).
    fn pack_a_tiled(&mut self, kind: OpKind, data: &[c64], m: usize, k: usize, tile_rows: usize) {
        debug_assert_eq!(data.len(), m * k, "pack_a operand length");
        self.tile_rows = tile_rows;
        if m == 0 || k == 0 {
            return;
        }
        let len = m.next_multiple_of(MR) * k;
        let (re, im) = (grown(&mut self.re, len), grown(&mut self.im, len));
        let conj = kind == OpKind::Dagger;
        let mut i = 0;
        while i < m {
            // Lane r of step l of the tile at row i is op(A)[i + r, l]; the
            // tiles before it are full, so it starts at plane offset i·k.
            let height = tile_height(tile_rows, m - i);
            let tile = i * k..(i + height) * k;
            let (tre, tim) = (&mut re[tile.clone()], &mut im[tile]);
            let rows = (m - i).min(height);
            match kind {
                OpKind::None => {
                    at_width!(
                        height,
                        [8, 16],
                        split_steps(tre, tim, rows, conj, &data[i..], m)
                    )
                }
                _ => at_width!(
                    height,
                    [8, 16],
                    split_lanes(tre, tim, rows, conj, &data[i * k..], k)
                ),
            }
            i += height;
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
        for (p, (pre, pim)) in panels.enumerate() {
            // Lane c of step l of panel p is op(B)[l, p·NR + c]; the panel is
            // as wide as it has columns (no padding lanes).
            let j = p * NR;
            let nc = (n - j).min(NR);
            match kind {
                OpKind::None => {
                    at_width!(
                        nc,
                        [1, 2, 3, 4],
                        split_lanes(pre, pim, nc, conj, &data[j * k..], k)
                    )
                }
                _ => at_width!(
                    nc,
                    [1, 2, 3, 4],
                    split_steps(pre, pim, nc, conj, &data[j..], n)
                ),
            }
        }
    }
}

/// Fill a packed panel of `W`-lane steps whose steps are contiguous in the
/// source: lane `r < live` of step `l` is `src[l · stride + r]`, conjugated
/// if `conj`. The padding lanes are zeroed explicitly: the planes only grow
/// and may hold what an earlier shape left there.
///
/// Out of line, one `&mut` parameter per plane: that is what tells the
/// compiler the planes do not overlap the source or each other, and without
/// it the de-interleaving stays scalar.
#[inline(never)]
fn split_steps<const W: usize>(
    pre: &mut [f64],
    pim: &mut [f64],
    live: usize,
    conj: bool,
    src: &[c64],
    stride: usize,
) {
    let sign = if conj { -1.0 } else { 1.0 };
    let steps = pre.as_chunks_mut::<W>().0.iter_mut();
    let steps = steps
        .zip(pim.as_chunks_mut::<W>().0)
        .zip(src.chunks(stride));
    if live == W {
        for ((dre, dim), row) in steps {
            let row: &[c64; W] = row.first_chunk().expect("a whole step");
            for r in 0..W {
                (dre[r], dim[r]) = (row[r].re, sign * row[r].im);
            }
        }
    } else {
        for ((dre, dim), row) in steps {
            (*dre, *dim) = ([0.0; W], [0.0; W]);
            for (r, v) in row[..live].iter().enumerate() {
                (dre[r], dim[r]) = (v.re, sign * v.im);
            }
        }
    }
}

/// Fill a packed panel of `W`-lane steps whose lanes are contiguous in the
/// source: lane `r < live` of step `l` is `src[r · stride + l]`, conjugated
/// if `conj`; padding lanes are zeroed as in [`split_steps`], which also says
/// why this is out of line. The copy is a transposition, so a full panel goes
/// through `W × 4` blocks — four consecutive steps read from each lane's run
/// and written as four whole steps — which the compiler turns into register
/// shuffles where a step-at-a-time loop stores every `f64` on its own.
#[inline(never)]
fn split_lanes<const W: usize>(
    pre: &mut [f64],
    pim: &mut [f64],
    live: usize,
    conj: bool,
    src: &[c64],
    stride: usize,
) {
    const BLOCK: usize = 4;
    let sign = if conj { -1.0 } else { 1.0 };
    let (pre, pim) = (pre.as_chunks_mut::<W>().0, pim.as_chunks_mut::<W>().0);
    let steps = pre.len();
    let whole = if live == W { steps / BLOCK * BLOCK } else { 0 };
    let blocks = pre[..whole].as_chunks_mut::<BLOCK>().0.iter_mut();
    let blocks = blocks.zip(pim[..whole].as_chunks_mut::<BLOCK>().0);
    for (b, (dre, dim)) in blocks.enumerate() {
        let runs: [&[c64; BLOCK]; W] = std::array::from_fn(|r| {
            src[r * stride + b * BLOCK..]
                .first_chunk()
                .expect("a whole block")
        });
        for l in 0..BLOCK {
            for r in 0..W {
                (dre[l][r], dim[l][r]) = (runs[r][l].re, sign * runs[r][l].im);
            }
        }
    }
    let tail = pre[whole..].iter_mut().zip(&mut pim[whole..]);
    for (l, (dre, dim)) in (whole..steps).zip(tail) {
        (*dre, *dim) = ([0.0; W], [0.0; W]);
        for r in 0..live {
            let v = src[r * stride + l];
            (dre[r], dim[r]) = (v.re, sign * v.im);
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

/// Rows of the short register tile: one lane vector each for the real and the
/// imaginary accumulator of a column.
pub(crate) const MR: usize = LANES;

/// Rows of the tall register tile, the one every operand of more than [`MR`]
/// rows is packed in: two lane vectors per accumulator where a vector is one
/// register ([`WIDE`]: `2·NR` real and as many imaginary accumulators, four
/// `A` vectors and the `B` broadcasts in 32 registers, and twice the
/// multiply-adds per `B` broadcast and per call), one elsewhere.
pub(crate) const TALL: usize = Native::TALL_VECTORS * MR;

/// Columns of the register tile, from the platform the build targets: four
/// where there are 32 vector registers (the accumulators of [`TALL`]` × 4`
/// next to the `A` lanes and `B` broadcasts), two where there are 16.
pub(crate) const NR: usize = if WIDE || cfg!(target_arch = "aarch64") {
    4
} else {
    2
};

/// Width, in bits, of the vector registers the register tile and the LU
/// rank-k update compute in on this build target (what `BENCH_kernels.json`
/// reports as `lane_bits`).
pub const LANE_BITS: usize = Native::BITS;

/// `steps` multiply-adds on each of a register tile's accumulators —
/// independent chains of the kernels' own lane type, no loads, no stores:
/// timed, the roof a `gflops` row of `BENCH_kernels.json` is read against.
/// Returns the FLOPs performed and a checksum that keeps them alive.
pub fn fma_chain(steps: u64) -> (u64, f64) {
    const ACCUMULATORS: usize = 2 * NR * (TALL / MR);
    let factor = |x: f64| Native::splat(std::hint::black_box(x));
    let (a, b) = (factor(1.0 + f64::EPSILON), factor(1.0 - f64::EPSILON));
    let mut acc = [Native::splat(0.0); ACCUMULATORS];
    for _ in 0..steps {
        for x in &mut acc {
            *x = a.fma(b, *x);
        }
    }
    let mut checksum = 0.0;
    for x in acc {
        let mut lanes = [0.0; MR];
        x.store(&mut lanes);
        checksum += lanes.iter().sum::<f64>();
    }
    (steps * (2 * ACCUMULATORS * MR) as u64, checksum)
}

/// The register-tiled micro-kernel, the one every [`gemm`] and
/// [`crate::batch::gemm_batch`] plane runs: `C += alpha · op(A) · op(B)` from
/// the packed panels, in [`TALL`]` × `[`NR`] (at the last rows [`MR`]` × `[`NR`])
/// tiles of `C` that stay in registers over the full `k` sweep.
///
/// Every element of the product is formed by the same operation sequence,
/// wherever it lands (tall or short tile, row or column remainder, any shape,
/// plane or thread): `k` ascending, and per step
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
    packed_kernel_on::<Native>(cs, alpha, pack, m, k, n);
}

/// [`packed_kernel`] on the lane type `L`. Row tiles outermost: a tile of `A`
/// (`TALL·k` of each plane, 16 KiB at `k = 64`) stays in the first-level
/// cache while the panels of `B` stream past it.
#[inline(always)]
fn packed_kernel_on<L: Lanes>(
    cs: &mut [c64],
    alpha: c64,
    pack: &PackBuf,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i < m {
        let height = tile_height(pack.tile_rows, m - i);
        let a = (
            &pack.re[i * k..(i + height) * k],
            &pack.im[i * k..(i + height) * k],
        );
        let rows = (m - i).min(height);
        let mut j = 0;
        while j < n {
            let nc = (n - j).min(NR);
            let cols = &mut cs[j * m + i..];
            let b = (
                &pack.bre[j * k..(j + nc) * k],
                &pack.bim[j * k..(j + nc) * k],
            );
            match (height / MR, nc) {
                (1, 1) => tile::<L, 1, 1>(cols, alpha, a, b, m, rows),
                (1, 2) => tile::<L, 1, 2>(cols, alpha, a, b, m, rows),
                (1, 3) => tile::<L, 1, 3>(cols, alpha, a, b, m, rows),
                (1, _) => tile::<L, 1, 4>(cols, alpha, a, b, m, rows),
                (_, 1) => tile::<L, 2, 1>(cols, alpha, a, b, m, rows),
                (_, 2) => tile::<L, 2, 2>(cols, alpha, a, b, m, rows),
                (_, 3) => tile::<L, 2, 3>(cols, alpha, a, b, m, rows),
                (_, _) => tile::<L, 2, 4>(cols, alpha, a, b, m, rows),
            }
            j += nc;
        }
        i += height;
    }
}

/// The lanes of one register tile: `[c][v][r]` is row `v·MR + r` of column
/// `c`.
type Tile<const V: usize, const NC: usize> = [[[f64; MR]; V]; NC];

/// One register tile of `C` — `V` lane vectors of rows by `NC ≤ NR` columns,
/// `cols` starting at its first element and `ld` apart — from one row tile of
/// the packed `A` and one column panel of the packed `B`: generic over both
/// extents so the remainders run the same lane code as a full tile. Only the
/// first `rows` rows are live.
#[inline(always)]
fn tile<L: Lanes, const V: usize, const NC: usize>(
    cols: &mut [c64],
    alpha: c64,
    a: (&[f64], &[f64]),
    b: (&[f64], &[f64]),
    ld: usize,
    rows: usize,
) {
    let (mut re, mut im) = ([[[0.0; MR]; V]; NC], [[[0.0; MR]; V]; NC]);
    tile_product::<L, V, NC>(a, b, &mut re, &mut im);
    let scaled = |c: usize, v: usize, r: usize| alpha * c64::new(re[c][v][r], im[c][v][r]);
    for c in 0..NC {
        // Whole lane vectors at fixed width, then the live rows of the last.
        let (whole, last) = cols[c * ld..c * ld + rows].as_chunks_mut::<MR>();
        for (v, col) in whole.iter_mut().enumerate() {
            for r in 0..MR {
                col[r] += scaled(c, v, r);
            }
        }
        for (r, dst) in last.iter_mut().enumerate() {
            *dst += scaled(c, whole.len(), r);
        }
    }
}

/// The `k` sweep of one register tile: real and imaginary parts of
/// `Σ_l a[·, l] · b[l, ·]` for one `V·MR`-row tile of `A` and one `NC`-column
/// panel of `B`, accumulated in ascending `l` and stored to `re_out` /
/// `im_out`.
///
/// Out of line on purpose: inlined next to the store loop, the compiler
/// writes half the accumulators back to the stack on every step. (And the
/// sums leave through `&mut` parameters because a returned pair of tiles is
/// copied once more on the caller's side, by two `memcpy` calls per tile.)
#[inline(never)]
fn tile_product<L: Lanes, const V: usize, const NC: usize>(
    (tre, tim): (&[f64], &[f64]),
    (bre, bim): (&[f64], &[f64]),
    re_out: &mut Tile<V, NC>,
    im_out: &mut Tile<V, NC>,
) {
    let mut re = [[L::splat(0.0); V]; NC];
    let mut im = [[L::splat(0.0); V]; NC];
    let a_steps = tre.as_chunks::<MR>().0.chunks_exact(V);
    let a_steps = a_steps.zip(tim.as_chunks::<MR>().0.chunks_exact(V));
    let b_steps = bre.chunks_exact(NC).zip(bim.chunks_exact(NC));
    for ((ar, ai), (br, bi)) in a_steps.zip(b_steps) {
        let ar: [L; V] = std::array::from_fn(|v| L::load(&ar[v]));
        let ai: [L; V] = std::array::from_fn(|v| L::load(&ai[v]));
        for c in 0..NC {
            let (br, bi) = (L::splat(br[c]), L::splat(bi[c]));
            for v in 0..V {
                re[c][v] = ar[v].fma(br, re[c][v]);
                re[c][v] = ai[v].fnma(bi, re[c][v]);
                im[c][v] = ar[v].fma(bi, im[c][v]);
                im[c][v] = ai[v].fma(br, im[c][v]);
            }
        }
    }
    for c in 0..NC {
        for v in 0..V {
            re[c][v].store(&mut re_out[c][v]);
            im[c][v].store(&mut im_out[c][v]);
        }
    }
}

/// `C = A · B`.
pub fn matmul(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut c = CMatrix::zeros(a.nrows(), b.ncols());
    matmul_into(&mut c, a, b);
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

/// [`triple_product_into`] into a fresh matrix.
#[cfg(test)]
pub(crate) fn triple_product(a: &CMatrix, b: &CMatrix, c: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(0, 0);
    triple_product_into(&mut out, &mut CMatrix::zeros(0, 0), a, b, c);
    out
}

/// `A · B · C` into `out`, evaluated in the cheaper association order —
/// `(A·B)·C` or `A·(B·C)` — chosen from the operand shapes, the
/// intermediate product in `tmp` (both reshaped as needed; allocation-free
/// once warmed at the shapes). For transport-cell-square blocks both orders
/// cost the same and the left-to-right order of the pre-refactor
/// implementation is kept.
pub fn triple_product_into(
    out: &mut CMatrix,
    tmp: &mut CMatrix,
    a: &CMatrix,
    b: &CMatrix,
    c: &CMatrix,
) {
    let (left, right) = triple_product_madds(a.shape(), b.shape(), c.shape());
    if left <= right {
        matmul_into(tmp, a, b);
        matmul_into(out, tmp, c);
    } else {
        matmul_into(tmp, b, c);
        matmul_into(out, a, tmp);
    }
}

/// [`matmul`] into `out` (reshaped as needed).
pub fn matmul_into(out: &mut CMatrix, a: &CMatrix, b: &CMatrix) {
    assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
    gemm(
        out.fit(a.nrows(), b.ncols()),
        ONE,
        Op::None(a),
        Op::None(b),
        ZERO,
    );
}

/// Real FLOPs actually spent by [`triple_product_into`] on these shapes (the
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
    let mut out = CMatrix::zeros(0, 0);
    congruence_into(&mut out, &mut CMatrix::zeros(0, 0), a, b);
    out
}

/// [`congruence`] into `out`, `A · B` in `tmp` (both reshaped as needed;
/// allocation-free once warmed at the shapes).
pub fn congruence_into(out: &mut CMatrix, tmp: &mut CMatrix, a: &CMatrix, b: &CMatrix) {
    matmul_into(tmp, a, b);
    let out = out.fit(tmp.nrows(), a.nrows());
    gemm(out, ONE, Op::None(tmp), Op::Dagger(a), ZERO);
}

/// Number of real FLOPs of a complex GEMM `m×k · k×n` (paper counting:
/// one complex multiply-add = 8 real FLOPs).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    8 * (m as u64) * (k as u64) * (n as u64)
}

/// The pre-refactor scalar kernels, preserved verbatim.
///
/// These are the tolerance reference of the equivalence tests and the
/// untimed correctness oracle of `bench_kernels`: a cache-friendly but scalar
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
    pub(crate) fn gemm_into_ref(c: &mut CMatrix, alpha: c64, a: &CMatrix, b: &CMatrix, beta: c64) {
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
    use crate::lanes::Portable;

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

    /// `alpha · op(A) · op(B)` through the packed kernel on the lane type `L`,
    /// `op(A)` packed in tiles of `tile_rows` rows.
    fn product_on<L: Lanes>(tile_rows: usize, alpha: c64, a: Op<'_>, b: Op<'_>) -> CMatrix {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let mut pack = PackBuf::default();
        pack.pack_a_tiled(a.kind(), a.matrix().as_slice(), m, k, tile_rows);
        pack.pack_b_raw(b.kind(), b.matrix().as_slice(), k, n);
        let mut c = CMatrix::zeros(m, n);
        packed_kernel_on::<L>(c.as_mut_slice(), alpha, &pack, m, k, n);
        c
    }

    fn bits(c: &CMatrix) -> Vec<(u64, u64)> {
        let bits = |v: &c64| (v.re.to_bits(), v.im.to_bits());
        c.as_slice().iter().map(bits).collect()
    }

    #[test]
    fn lane_width_and_tile_height_are_invisible_in_the_bits() {
        // The same product through the portable and the build target's lane
        // type, packed in short and in tall tiles — four runs of the generic
        // tile in one build, the one `gemm` makes among them — over every
        // tile remainder and flag pair: equal in every bit. (Where the
        // target's lanes are the portable ones this compares tile heights
        // only.)
        const SIZES: [usize; 11] = [1, 3, 7, 8, 9, 15, 16, 17, 33, 64, 65];
        const FLAGS: [OpKind; 3] = [OpKind::None, OpKind::Trans, OpKind::Dagger];
        let alpha = cplx(0.3, -0.7);
        for (m, k, n) in SIZES
            .iter()
            .flat_map(|&m| SIZES.iter().flat_map(move |&k| SIZES.map(|n| (m, k, n))))
        {
            for (fa, fb) in FLAGS.iter().flat_map(|&fa| FLAGS.map(|fb| (fa, fb))) {
                let stored = |kind, rows, cols, salt| match kind {
                    OpKind::None => CMatrix::from_fn(rows, cols, entry(salt)),
                    _ => CMatrix::from_fn(cols, rows, entry(salt)),
                };
                let (a, b) = (stored(fa, m, k, 1), stored(fb, k, n, 2));
                let (a, b) = (flagged(fa, &a), flagged(fb, &b));
                let mut want = CMatrix::zeros(m, n);
                gemm(&mut want, alpha, a, b, ZERO);
                let want = bits(&want);
                for tile_rows in [MR, 2 * MR] {
                    let tag = format!("({m},{k},{n}) {fa:?}/{fb:?} in {tile_rows}-row tiles");
                    let got = product_on::<Portable>(tile_rows, alpha, a, b);
                    assert_eq!(bits(&got), want, "portable lanes, {tag}");
                    let got = product_on::<Native>(tile_rows, alpha, a, b);
                    assert_eq!(bits(&got), want, "native lanes, {tag}");
                }
            }
        }
    }

    #[test]
    fn product_element_is_independent_of_its_tile_position() {
        // One row of A times one column of B, embedded at every (i, j) of
        // shapes that put it in either vector of a tall tile, in a short tile
        // below tall ones, in the row remainder and in each width of the
        // column remainder, through every flag and at both tile heights: the
        // element comes out of the same operation sequence, bit for bit.
        let k = 19;
        let (row, col) = (
            CMatrix::from_fn(1, k, entry(4)),
            CMatrix::from_fn(k, 1, entry(5)),
        );
        let mut expected = None;
        for (m, n) in [1, MR - 1, MR, MR + 1, 2 * MR, 2 * MR + 3, 3 * MR + 1]
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
                    for tile_rows in [MR, 2 * MR] {
                        let c = product_on::<Native>(tile_rows, ONE, op_a, op_b);
                        let got = (c[(i, j)].re.to_bits(), c[(i, j)].im.to_bits());
                        assert_eq!(
                            *expected.get_or_insert(got),
                            got,
                            "{m}×{n} at ({i},{j}) in {tile_rows}-row tiles"
                        );
                    }
                }
            }
        }
    }
}
