//! The selected RGF recursion, batched over energies.
//!
//! [`solve_systems_into`] is the one implementation of the forward/backward
//! recursions (paper Section 4.3.2, Eqs. (9)–(12); the derivation is in
//! [`crate::sequential`]'s module docs). It runs them for a whole batch of
//! same-structure systems at once: at every block position the per-energy
//! blocks are staged into one energy-batched operand and each block product
//! runs as **one** batched call over all energies. Conjugate transposes
//! (`g_i†`, `Θ†`, `A_{i,i+1}†`, …) are fused into the kernel loads through the
//! operand flags instead of being materialised. A single system is a batch of
//! one ([`crate::sequential::rgf_solve_into`]).
//!
//! Every entry point takes its batch in one form, the `Copy` view
//! [`Systems`], which reads each member's matrices by index where the caller
//! keeps them; [`rgf_solve_batch_into`] and [`rgf_solve_batch_on`] adapt a
//! pair of reference slices onto it.
//!
//! The recursion is written once, as a forward and a backward half. A full
//! solve runs both, seeding the backward half with the last block's
//! left-connected blocks; a one-separator partition of the spatial solve
//! ([`crate::nested`]) stops the forward half before its separator's
//! inversion and seeds the backward half with the reduced system's solution
//! there. It is written over a small storage trait (`Blocks`), and
//! runs on one of two layouts, picked once per solve from
//! `(N_BS, batch length)` by [`BlockLayout::for_solve`]:
//!
//! * [`BlockLayout::Planes`] — energy-major [`MatrixBatch`] planes under
//!   [`gemm_batch`], which packs each plane's operands into the register
//!   tiles of the packed engine: the layout for blocks that fill a tile;
//! * [`BlockLayout::Lanes`] — the lane-interleaved [`LaneBatch`] under
//!   [`gemm_lanes`], one vector lane per energy and no packing: the layout
//!   for blocks of `N_BS ≤ 12` once the batch fills enough lanes, on builds
//!   that compute in 512-bit lanes, where one block alone cannot fill a
//!   vector (the size class and its measurements are at
//!   [`BlockLayout::for_solve`]).
//!
//! Both layouts form every element of every product by the same operation
//! sequence and invert every block through the same per-plane LU, so a
//! member's selected blocks depend neither on the layout nor on which batch it
//! is solved in — **batch-size and layout independence, bit for bit**
//! (`tests/batch_equivalence.rs`), anchored to the allocating pre-engine
//! recursion (the `tests/fixtures/reference.rs` fixture) at ≤ 1e-13
//! (`tests/reference_equivalence.rs`). The per-energy FLOP count is
//! structural (it depends only on the block counts), so every member reports
//! the same [`SelectedSolution::flops`] and a batch totals `B ×` that value.
//!
//! All temporaries come from a free list held, per layout, in
//! [`RgfBatchScratch`], and every output is written in place; once scratch
//! and solutions are warmed at a shape, the steady-state solve performs
//! **zero heap allocations** at any batch length and on either layout
//! (pinned by the counting-allocator tests in `tests/alloc_free.rs`).

use quatrex_linalg::batch::{gemm_batch, invert_batch_into, BatchOp, MatrixBatch};
use quatrex_linalg::interleaved::{gemm_lanes, invert_lanes_into, LaneBatch};
use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm_flops, OpKind, LANE_BITS};
use quatrex_linalg::{c64, CMatrix, ONE, ZERO};
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

/// The storage a batched solve keeps its blocks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLayout {
    /// Energy-major planes ([`MatrixBatch`]) under the packed engine.
    Planes,
    /// One vector lane per energy ([`LaneBatch`]), no packing.
    Lanes,
}

/// Whether this build computes in 512-bit lanes, where one vector holds a
/// whole lane group: the width the size class below was measured at. On the
/// portable lane type (`[f64; 8]`, two 256-bit operations per vector, timed
/// on the same AVX-512 box) the lane product ran 6.6× slower than on 512-bit
/// lanes and the lane solve lost to planes at every batch length, so builds
/// without 512-bit lanes solve on planes.
const WIDE_LANES: bool = LANE_BITS == 512;

/// Largest block the lane layout takes. From the `small_blocks` rows of
/// `BENCH_kernels.json`: at `N_BS = 8` and `12` the lane product runs ×2.3
/// the plane product at `B = 6` and ×2.3–3.2 at `B = 8`, the full solve ×1.7
/// and ×2.2; at `N_BS = 16` a plane nearly fills the packed tile, and the
/// lane solve runs ×0.8 at `B = 4` and ×1.2 at `B = 6`.
const LANE_BLOCK_MAX: usize = 12;

/// Fewest energies the lane layout takes: the crossover batch length of the
/// `small_blocks` rows. A lane product costs the same at any fill of its lane
/// group, so at `B = 1` the product runs ×0.4 and the solve ×0.3 the planes';
/// at `B = 4` the solve is ×1.2 faster on lanes at `N_BS = 8` and `12`.
const LANE_BATCH_MIN: usize = 4;

impl BlockLayout {
    /// The layout [`rgf_solve_batch_into`] runs `batch` energies of
    /// `block_size × block_size` blocks on: [`BlockLayout::Lanes`] on a
    /// 512-bit build for blocks of at most 12 rows in batches of at least 4
    /// energies (the measured size class above), [`BlockLayout::Planes`]
    /// otherwise.
    pub fn for_solve(block_size: usize, batch: usize) -> Self {
        if WIDE_LANES && block_size <= LANE_BLOCK_MAX && batch >= LANE_BATCH_MIN {
            BlockLayout::Lanes
        } else {
            BlockLayout::Planes
        }
    }
}

/// Energy-batched square blocks and the operations the recursion is written
/// in. The two instances form every product element and every inverse the
/// same way, so the recursion's results do not depend on which one it runs.
/// The `Default` is an empty batch (no energies, `0 × 0` blocks), to be
/// [`Blocks::fit`].
trait Blocks: Default {
    /// Reshape to `batch` blocks of `n × n`, reusing the buffer.
    fn fit(&mut self, batch: usize, n: usize);
    /// Stage `block(e)` into every energy `e`.
    fn stage<'a>(&mut self, block: impl FnMut(usize) -> &'a CMatrix);
    /// Unstage energy `e` into a per-energy block.
    fn copy_plane_to(&self, e: usize, dst: &mut CMatrix);
    /// `self = alpha · op(a) · op(b) + beta · self` for every energy.
    fn product(&mut self, alpha: c64, a: (OpKind, &Self), b: (OpKind, &Self), beta: c64);
    /// `out = a⁻¹` for every energy; on a singular block, its energy.
    fn invert(lu: &mut LuScratch, a: &Self, out: &mut Self) -> Result<(), usize>;
    /// `self -= x` for every energy.
    fn sub_assign_batch(&mut self, x: &Self);
    /// `self += alpha · I` for every energy.
    fn add_scaled_identity(&mut self, alpha: c64);
}

impl Blocks for MatrixBatch {
    fn fit(&mut self, batch: usize, n: usize) {
        self.reshape(batch, n, n);
    }
    fn stage<'a>(&mut self, mut block: impl FnMut(usize) -> &'a CMatrix) {
        for e in 0..self.batch_len() {
            self.copy_plane_from(e, block(e));
        }
    }
    fn copy_plane_to(&self, e: usize, dst: &mut CMatrix) {
        self.copy_plane_to(e, dst);
    }
    fn product(
        &mut self,
        alpha: c64,
        (ka, a): (OpKind, &Self),
        (kb, b): (OpKind, &Self),
        beta: c64,
    ) {
        gemm_batch(
            self,
            alpha,
            BatchOp::Each(ka, a),
            BatchOp::Each(kb, b),
            beta,
        );
    }
    fn invert(lu: &mut LuScratch, a: &Self, out: &mut Self) -> Result<(), usize> {
        invert_batch_into(lu, a, out).map_err(|(e, _)| e)
    }
    fn sub_assign_batch(&mut self, x: &Self) {
        self.sub_assign_batch(x);
    }
    fn add_scaled_identity(&mut self, alpha: c64) {
        self.add_scaled_identity(alpha);
    }
}

impl Blocks for LaneBatch {
    fn fit(&mut self, batch: usize, n: usize) {
        self.reshape(batch, n, n);
    }
    fn stage<'a>(&mut self, block: impl FnMut(usize) -> &'a CMatrix) {
        self.copy_planes_from(block);
    }
    fn copy_plane_to(&self, e: usize, dst: &mut CMatrix) {
        self.copy_plane_to(e, dst);
    }
    fn product(&mut self, alpha: c64, a: (OpKind, &Self), b: (OpKind, &Self), beta: c64) {
        gemm_lanes(self, alpha, a, b, beta);
    }
    fn invert(lu: &mut LuScratch, a: &Self, out: &mut Self) -> Result<(), usize> {
        invert_lanes_into(lu, a, out).map_err(|(e, _)| e)
    }
    fn sub_assign_batch(&mut self, x: &Self) {
        self.sub_assign_batch(x);
    }
    fn add_scaled_identity(&mut self, alpha: c64) {
        self.add_scaled_identity(alpha);
    }
}

/// A free list of block batches: take/give recycling, so the steady state
/// allocates nothing.
#[derive(Debug, Default)]
struct Arena<S> {
    free: Vec<S>,
    /// Batches created because the list was empty.
    fresh: usize,
}

impl<S: Blocks> Arena<S> {
    /// Check out a batch of `batch` blocks of `n × n` (contents unspecified:
    /// every checkout is staged or written by a `beta = 0` product first).
    fn take(&mut self, batch: usize, n: usize) -> S {
        let mut s = self.free.pop().unwrap_or_else(|| {
            self.fresh += 1;
            S::default()
        });
        s.fit(batch, n);
        s
    }

    /// Return a batch to the free list.
    fn give(&mut self, s: S) {
        self.free.push(s);
    }
}

/// The warm state of one layout: its free list and the left-connected
/// forward-pass quantities, one row per matrix of the system like
/// [`Systems`] — the retarded `g_i` in `rows[0][i]` (energy `e` is `g_i` of
/// energy `e`), then the lesser `g≶_i` of each right-hand side.
#[derive(Debug, Default)]
struct Store<S> {
    bws: Arena<S>,
    rows: Vec<Vec<S>>,
}

/// Reusable scratch state of the batched RGF solver: one LU scratch
/// (plane-sequential inversions) and the warm state of each layout. Hold one
/// per worker and reuse it across batches — after the first solve at a given
/// shape, every later solve allocates nothing.
#[derive(Debug, Default)]
pub struct RgfBatchScratch {
    lu: LuScratch,
    planes: Store<MatrixBatch>,
    lanes: Store<LaneBatch>,
}

impl RgfBatchScratch {
    /// Create an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fresh block batches the free lists have created; constant
    /// once the solver has reached its steady state.
    pub fn fresh_allocations(&self) -> usize {
        self.planes.bws.fresh + self.lanes.bws.fresh
    }
}

/// Per-energy operand, entered as stored.
#[inline(always)]
fn each<S>(x: &S) -> (OpKind, &S) {
    (OpKind::None, x)
}

/// Per-energy operand, entered conjugate-transposed.
#[inline(always)]
fn each_dag<S>(x: &S) -> (OpKind, &S) {
    (OpKind::Dagger, x)
}

/// A batch of same-shape systems `[A, B_1, …, B_n]`, read where the caller
/// keeps them: [`Systems::matrix`]`(e, m)` is member `e`'s system matrix `A`
/// at `m = 0` and its right-hand side `B_m` after it. This is the one operand
/// form of the recursion; a copy is a view, never a list of references.
#[derive(Clone, Copy)]
pub struct Systems<'a> {
    len: usize,
    n_rhs: usize,
    matrix: &'a dyn Fn(usize, usize) -> &'a BlockTridiagonal,
}

impl<'a> Systems<'a> {
    /// `len` systems of `n_rhs` right-hand sides each, matrix `m` of member
    /// `e` read as `matrix(e, m)`.
    pub fn new(
        len: usize,
        n_rhs: usize,
        matrix: &'a dyn Fn(usize, usize) -> &'a BlockTridiagonal,
    ) -> Self {
        Self { len, n_rhs, matrix }
    }

    /// Number of systems.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Right-hand sides per system.
    pub(crate) fn n_rhs(&self) -> usize {
        self.n_rhs
    }

    /// Matrix `m` of member `e`: `A` at `m = 0`, then `B_1, …, B_n`.
    pub fn matrix(&self, e: usize, m: usize) -> &'a BlockTridiagonal {
        assert!(e < self.len && m <= self.n_rhs, "matrix {m} of member {e}");
        (self.matrix)(e, m)
    }

    /// `(N_B, N_BS, right-hand sides)` of a non-empty batch.
    fn shape(&self) -> (usize, usize, usize) {
        let a = self.matrix(0, 0);
        (a.n_blocks(), a.block_size(), self.n_rhs)
    }

    /// [`BlockLayout::for_solve`] of this batch.
    fn layout(&self) -> BlockLayout {
        match self.len {
            0 => BlockLayout::Planes,
            len => BlockLayout::for_solve(self.matrix(0, 0).block_size(), len),
        }
    }
}

/// Batched selected RGF solve of `systems` into the kept `sols` (one per
/// system), with all temporaries drawn from `scratch`. Every member must
/// share the block structure. `sols[e]` depends on member `e` only — not on
/// the batch length, the layout or the other members — bit for bit,
/// including the FLOP count. The layout is [`BlockLayout::for_solve`] of the
/// block size and the batch length.
pub fn solve_systems_into(
    systems: Systems<'_>,
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfError> {
    solve_on(systems.layout(), systems, sols, scratch).map_err(|e| e.error)
}

/// [`solve_systems_into`] of `systems[e]` with right-hand sides `rhs[e]`,
/// reporting a failure with the member it occurred at.
pub fn rgf_solve_batch_into(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfBatchError> {
    let block_size = systems.first().map_or(0, |a| a.block_size());
    let layout = BlockLayout::for_solve(block_size, systems.len());
    rgf_solve_batch_on(layout, systems, rhs, sols, scratch)
}

/// [`rgf_solve_batch_into`] on the given layout. Both layouts give the same
/// bits; this entry point exists to compare and time them.
pub fn rgf_solve_batch_on(
    layout: BlockLayout,
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfBatchError> {
    assert_eq!(rhs.len(), systems.len(), "one RHS set per batch member");
    let n_rhs = rhs.first().map_or(0, |b| b.len());
    if let Some(e) = rhs.iter().position(|b| b.len() != n_rhs) {
        return Err(shape_err(e));
    }
    let matrix = |e: usize, m: usize| if m == 0 { systems[e] } else { rhs[e][m - 1] };
    let batch = Systems::new(systems.len(), n_rhs, &matrix);
    solve_on(layout, batch, sols, scratch)
}

/// A shape mismatch at member `e`.
fn shape_err(e: usize) -> RgfBatchError {
    RgfBatchError {
        energy: e,
        error: RgfError::ShapeMismatch,
    }
}

/// The full solve of `systems` on `layout`: every matrix checked against
/// the first system's block structure, the outputs shaped, then the
/// recursion.
fn solve_on(
    layout: BlockLayout,
    systems: Systems<'_>,
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfBatchError> {
    assert_eq!(sols.len(), systems.len(), "one solution per batch member");
    if systems.len == 0 {
        return Ok(());
    }
    let (nb, bs, n_rhs) = systems.shape();
    let fits = |x: &BlockTridiagonal| x.n_blocks() == nb && x.block_size() == bs;
    if let Some(e) = (0..systems.len).find(|&e| !(0..=n_rhs).all(|m| fits(systems.matrix(e, m)))) {
        return Err(shape_err(e));
    }

    // Shape the outputs (no-ops in the steady state).
    for sol in sols.iter_mut() {
        sol.fit(nb, bs, n_rhs);
    }

    let RgfBatchScratch { lu, planes, lanes } = scratch;
    let flops = match layout {
        BlockLayout::Planes => solve(planes, lu, systems, sols),
        BlockLayout::Lanes => solve(lanes, lu, systems, sols),
    }?;
    for sol in sols.iter_mut() {
        sol.flops = flops;
    }
    Ok(())
}

/// What the forward half leaves behind for a later backward half, per
/// system: the rows of a [`Store`] — the left-connected `g_i`, then `g≶_i`
/// per right-hand side — for every block before the last.
pub(crate) type ForwardSweep = Vec<Vec<CMatrix>>;

/// The forward half over a batch whose **last block is a separator**: the
/// recursion runs up to it and stops before its inversion. What it computes
/// stays in `scratch` until the scratch's next solve, for
/// [`Eliminated::copy_out`] to copy out member by member.
pub(crate) fn eliminate_to_last(
    systems: Systems<'_>,
    scratch: &mut RgfBatchScratch,
) -> Result<Eliminated, RgfBatchError> {
    let RgfBatchScratch { lu, planes, lanes } = scratch;
    let layout = systems.layout();
    let flops = match layout {
        BlockLayout::Planes => forward(planes, lu, systems, true),
        BlockLayout::Lanes => forward(lanes, lu, systems, true),
    }?;
    let (n_blocks, _, n_rhs) = systems.shape();
    Ok(Eliminated {
        layout,
        n_blocks,
        n_rhs,
        flops,
    })
}

/// A stopped forward half ([`eliminate_to_last`]) held in a scratch.
pub(crate) struct Eliminated {
    layout: BlockLayout,
    n_blocks: usize,
    n_rhs: usize,
    /// The per-system FLOP count.
    pub(crate) flops: u64,
}

impl Eliminated {
    /// Copy member `e` out of `scratch`: into `sweep` the left-connected
    /// blocks the backward half ([`recover_to_first`]) starts from, into
    /// `grid` what the stopped step computes — the Schur term
    /// `−A_{s,e} g_e A_{e,s}`, then per right-hand side the coupling terms
    /// of `inner` without `B_ss`.
    pub(crate) fn copy_out(
        &self,
        scratch: &RgfBatchScratch,
        e: usize,
        sweep: &mut ForwardSweep,
        grid: &mut Vec<CMatrix>,
    ) {
        match self.layout {
            BlockLayout::Planes => self.copy_from(&scratch.planes, e, sweep, grid),
            BlockLayout::Lanes => self.copy_from(&scratch.lanes, e, sweep, grid),
        }
    }

    /// [`Eliminated::copy_out`] from the storage `S`.
    fn copy_from<S: Blocks>(
        &self,
        store: &Store<S>,
        e: usize,
        sweep: &mut ForwardSweep,
        grid: &mut Vec<CMatrix>,
    ) {
        let last = self.n_blocks - 1;
        sweep.resize_with(1 + self.n_rhs, Vec::new);
        grid.resize_with(1 + self.n_rhs, CMatrix::default);
        for ((kept, u), row) in sweep.iter_mut().zip(grid.iter_mut()).zip(&store.rows) {
            kept.resize_with(last, CMatrix::default);
            for (g, slot) in kept.iter_mut().zip(row) {
                slot.copy_plane_to(e, g);
            }
            row[last].copy_plane_to(e, u);
        }
        grid[0].scale_mut(c64::new(-1.0, 0.0));
    }
}

/// The backward half over a batch from the last block down: `sols[e]` must
/// be shaped and hold the seed — the selected diagonal blocks of the last
/// block, retarded and per right-hand side — and `sweep(e)` the forward
/// half's output for member `e` ([`Eliminated::copy_out`]). Returns the
/// per-system FLOP count.
pub(crate) fn recover_to_first<'s>(
    systems: Systems<'_>,
    sweep: impl Fn(usize) -> &'s ForwardSweep,
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> u64 {
    let RgfBatchScratch { planes, lanes, .. } = scratch;
    match systems.layout() {
        BlockLayout::Planes => recover(planes, systems, sweep, sols),
        BlockLayout::Lanes => recover(lanes, systems, sweep, sols),
    }
}

/// The full solve on the storage `S`, over validated inputs and shaped
/// outputs: the forward half over every block, the last block's
/// left-connected blocks as the seed (they are its solution), and the
/// backward half. Returns the per-energy FLOP count.
fn solve<S: Blocks>(
    store: &mut Store<S>,
    lu: &mut LuScratch,
    systems: Systems<'_>,
    sols: &mut [SelectedSolution],
) -> Result<u64, RgfBatchError> {
    let flops = forward(store, lu, systems, false)?;
    let last = systems.shape().0 - 1;
    for (e, sol) in sols.iter_mut().enumerate() {
        let x = std::iter::once(&mut sol.retarded).chain(&mut sol.lesser);
        for (x, row) in x.zip(&store.rows) {
            row[last].copy_plane_to(e, x.diag_mut(last));
        }
    }
    Ok(flops + backward(store, systems, sols))
}

/// [`recover_to_first`] on the storage `S`.
fn recover<'s, S: Blocks>(
    store: &mut Store<S>,
    systems: Systems<'_>,
    sweep: impl Fn(usize) -> &'s ForwardSweep,
    sols: &mut [SelectedSolution],
) -> u64 {
    let (nb, bs, n_rhs) = systems.shape();
    fit_slots(store, systems.len(), bs, nb, n_rhs);
    for (m, row) in store.rows[..1 + n_rhs].iter_mut().enumerate() {
        for (i, slot) in row[..nb - 1].iter_mut().enumerate() {
            slot.stage(|e| &sweep(e)[m][i]);
        }
    }
    backward(store, systems, sols)
}

/// Shape the forward-pass rows of `store` to the retarded row and `n_rhs`
/// more, of `nb` block positions of `batch` blocks of `bs × bs`. The lists
/// only grow: a scratch that alternates between block counts (a rank of a
/// spatial group solves partition ranges and reduced boundary systems on one
/// scratch) keeps the longer list warm.
fn fit_slots<S: Blocks>(store: &mut Store<S>, batch: usize, bs: usize, nb: usize, n_rhs: usize) {
    let rows = &mut store.rows;
    if rows.len() < 1 + n_rhs {
        rows.resize_with(1 + n_rhs, Vec::new);
    }
    for row in rows[..1 + n_rhs].iter_mut() {
        if row.len() < nb {
            row.resize_with(nb, S::default);
        }
        for slot in row[..nb].iter_mut() {
            slot.fit(batch, bs);
        }
    }
}

/// The forward half on the storage `S`: the left-connected `g[i]` and
/// `gl[r][i]` of every block. With `stop`, the last block is a separator of
/// a spatial partition: its step stops before the inversion and leaves the
/// Schur term `A_{s,e} g_e A_{e,s}` in `g[last]` and the `inner` coupling
/// terms (without `B_ss`) in `gl[r][last]` instead. Returns the per-energy
/// FLOP count.
fn forward<S: Blocks>(
    store: &mut Store<S>,
    lu: &mut LuScratch,
    systems: Systems<'_>,
    stop: bool,
) -> Result<u64, RgfBatchError> {
    let bsz = systems.len();
    let (nb, bs, n_rhs) = systems.shape();
    let mut flops = 0u64; // per energy — structural, identical for every member
    let gemm_c = gemm_flops(bs, bs, bs);
    let inv_cost = inverse_flops(bs);

    fit_slots(store, bsz, bs, nb, n_rhs);
    let Store { bws, rows } = store;
    let (g, gl) = rows
        .split_first_mut()
        .expect("fit_slots shapes the retarded row");

    // Left-connected retarded g[i] and lesser gl[r][i], batched per block
    // position: stage the per-energy blocks once, then one batched product
    // per GEMM of the recursion.
    let mut sd = bws.take(bsz, bs);
    sd.stage(|e| systems.matrix(e, 0).diag(0));
    S::invert(lu, &sd, &mut g[0]).map_err(|e| RgfBatchError {
        energy: e,
        error: RgfError::SingularBlock(0),
    })?;
    flops += inv_cost;
    for r in 0..n_rhs {
        // gl_0 = g_0 · B_00 · g_0†
        let mut bd = bws.take(bsz, bs);
        bd.stage(|e| systems.matrix(e, 1 + r).diag(0));
        let mut t = bws.take(bsz, bs);
        t.product(ONE, each(&g[0]), each(&bd), ZERO);
        gl[r][0].product(ONE, each(&t), each_dag(&g[0]), ZERO);
        flops += 2 * gemm_c;
        bws.give(bd);
        bws.give(t);
    }

    for i in 1..nb {
        // The separator's step stops before its inversion.
        let at_separator = stop && i == nb - 1;
        let mut slo = bws.take(bsz, bs); // A_{i, i-1}
        slo.stage(|e| systems.matrix(e, 0).lower(i - 1));
        let mut sup = bws.take(bsz, bs); // A_{i-1, i}
        sup.stage(|e| systems.matrix(e, 0).upper(i - 1));

        // Schur complement d = A_ii − A_{i,i-1} g_{i-1} A_{i-1,i}.
        let mut t1 = bws.take(bsz, bs);
        t1.product(ONE, each(&slo), each(&g[i - 1]), ZERO);
        let mut t2 = bws.take(bsz, bs);
        t2.product(ONE, each(&t1), each(&sup), ZERO);
        flops += 2 * gemm_c;
        if at_separator {
            // The separator's terms take the slots its inversion would fill.
            std::mem::swap(&mut t2, &mut g[i]);
        } else {
            let mut d = bws.take(bsz, bs);
            d.stage(|e| systems.matrix(e, 0).diag(i));
            d.sub_assign_batch(&t2);
            S::invert(lu, &d, &mut g[i]).map_err(|e| RgfBatchError {
                energy: e,
                error: RgfError::SingularBlock(i),
            })?;
            flops += inv_cost;
            bws.give(d);
        }

        for r in 0..n_rhs {
            // inner = B_ii + A_{i,i-1} gl_{i-1} A_{i,i-1}†
            //       − A_{i,i-1} g_{i-1} B_{i-1,i} − B_{i,i-1} g_{i-1}† A_{i,i-1}†
            let mut inner = bws.take(bsz, bs);
            let beta = if at_separator {
                ZERO
            } else {
                inner.stage(|e| systems.matrix(e, 1 + r).diag(i));
                ONE
            };
            let mut bup = bws.take(bsz, bs);
            bup.stage(|e| systems.matrix(e, 1 + r).upper(i - 1));
            let mut blo = bws.take(bsz, bs);
            blo.stage(|e| systems.matrix(e, 1 + r).lower(i - 1));
            let mut u = bws.take(bsz, bs);
            u.product(ONE, each(&slo), each(&gl[r][i - 1]), ZERO);
            inner.product(ONE, each(&u), each_dag(&slo), beta);
            u.product(ONE, each(&slo), each(&g[i - 1]), ZERO);
            inner.product(-ONE, each(&u), each(&bup), ONE);
            u.product(ONE, each(&blo), each_dag(&g[i - 1]), ZERO);
            inner.product(-ONE, each(&u), each_dag(&slo), ONE);
            flops += 6 * gemm_c;
            if at_separator {
                std::mem::swap(&mut inner, &mut gl[r][i]);
            } else {
                // gl_i = g_i · inner · g_i†
                u.product(ONE, each(&g[i]), each(&inner), ZERO);
                gl[r][i].product(ONE, each(&u), each_dag(&g[i]), ZERO);
                flops += 2 * gemm_c;
            }
            bws.give(inner);
            bws.give(bup);
            bws.give(blo);
            bws.give(u);
        }
        bws.give(t1);
        bws.give(t2);
        bws.give(slo);
        bws.give(sup);
    }
    bws.give(sd);
    Ok(flops)
}

/// The backward half on the storage `S`, over the forward half's `g[i]` and
/// `gl[r][i]` and seeded by the last diagonal blocks already in `sols`.
/// Returns the per-energy FLOP count.
fn backward<S: Blocks>(
    store: &mut Store<S>,
    systems: Systems<'_>,
    sols: &mut [SelectedSolution],
) -> u64 {
    let bsz = systems.len();
    let (nb, bs, n_rhs) = systems.shape();
    let mut flops = 0u64;
    let gemm_c = gemm_flops(bs, bs, bs);
    let Store { bws, rows } = store;
    let (g, gl) = rows
        .split_first()
        .expect("the forward half fills the retarded row");

    for i in (0..nb.saturating_sub(1)).rev() {
        let mut sup = bws.take(bsz, bs); // A_{i, i+1}
        sup.stage(|e| systems.matrix(e, 0).upper(i));
        let mut slo = bws.take(bsz, bs); // A_{i+1, i}
        slo.stage(|e| systems.matrix(e, 0).lower(i));
        let gi = &g[i];
        let mut x_next = bws.take(bsz, bs);
        x_next.stage(|e| sols[e].retarded.diag(i + 1));

        // Θ_i = I + g_i A_{i,i+1} X_{i+1,i+1} A_{i+1,i}
        let mut g_aup = bws.take(bsz, bs);
        g_aup.product(ONE, each(gi), each(&sup), ZERO);
        let mut g_aup_x = bws.take(bsz, bs);
        g_aup_x.product(ONE, each(&g_aup), each(&x_next), ZERO);
        let mut theta = bws.take(bsz, bs);
        theta.product(ONE, each(&g_aup_x), each(&slo), ZERO);
        flops += 3 * gemm_c;
        theta.add_scaled_identity(ONE);

        // Retarded selected blocks.
        let mut acc = bws.take(bsz, bs);
        acc.product(ONE, each(&theta), each(gi), ZERO);
        for (e, sol) in sols.iter_mut().enumerate() {
            acc.copy_plane_to(e, sol.retarded.diag_mut(i));
            // X^R_{i,i+1} = −g_i A_{i,i+1} X_{i+1,i+1}
            let xu = sol.retarded.upper_mut(i);
            g_aup_x.copy_plane_to(e, xu);
            xu.scale_mut(c64::new(-1.0, 0.0));
        }
        let mut x_alo = bws.take(bsz, bs);
        x_alo.product(ONE, each(&x_next), each(&slo), ZERO);
        acc.product(-ONE, each(&x_alo), each(gi), ZERO);
        for (e, sol) in sols.iter_mut().enumerate() {
            acc.copy_plane_to(e, sol.retarded.lower_mut(i));
        }
        flops += 3 * gemm_c;
        bws.give(x_alo);

        for r in 0..n_rhs {
            let gli = &gl[r][i];
            let mut bup = bws.take(bsz, bs); // B_{i, i+1}
            bup.stage(|e| systems.matrix(e, 1 + r).upper(i));
            let mut blo = bws.take(bsz, bs); // B_{i+1, i}
            blo.stage(|e| systems.matrix(e, 1 + r).lower(i));

            let mut ta = bws.take(bsz, bs);
            let mut tb = bws.take(bsz, bs);
            let mut tc = bws.take(bsz, bs);

            // W_{i+1} = Xl_{i+1} − X_{i+1} A_{i+1,i} gl_i A_{i+1,i}† X_{i+1}†
            //          + X_{i+1} A_{i+1,i} g_i B_{i,i+1} X_{i+1}†
            //          + X_{i+1} B_{i+1,i} g_i† A_{i+1,i}† X_{i+1}†
            let mut x_alo = bws.take(bsz, bs);
            x_alo.product(ONE, each(&x_next), each(&slo), ZERO);
            let mut w = bws.take(bsz, bs);
            w.stage(|e| sols[e].lesser[r].diag(i + 1));
            ta.product(ONE, each(&x_alo), each(gli), ZERO);
            tb.product(ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            w.product(-ONE, each(&ta), each(&tb), ONE);
            ta.product(ONE, each(&x_alo), each(gi), ZERO);
            tb.product(ONE, each(&bup), each_dag(&x_next), ZERO);
            w.product(ONE, each(&ta), each(&tb), ONE);
            ta.product(ONE, each(&x_next), each(&blo), ZERO);
            tc.product(ONE, each(&ta), each_dag(gi), ZERO);
            tb.product(ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            w.product(ONE, each(&tc), each(&tb), ONE);
            flops += 12 * gemm_c;

            // Xl_{ii} = Θ gl Θ† + g A_up W A_up† g†
            //          − Θ g B_{i,i+1} X_{i+1}† A_up† g†
            //          − g A_up X_{i+1} B_{i+1,i} g† Θ†
            ta.product(ONE, each(&theta), each(gli), ZERO);
            acc.product(ONE, each(&ta), each_dag(&theta), ZERO);
            ta.product(ONE, each(&g_aup), each(&w), ZERO);
            tb.product(ONE, each_dag(&sup), each_dag(gi), ZERO);
            acc.product(ONE, each(&ta), each(&tb), ONE);
            ta.product(ONE, each(&theta), each(gi), ZERO);
            tc.product(ONE, each(&ta), each(&bup), ZERO);
            ta.product(ONE, each_dag(&sup), each_dag(gi), ZERO);
            tb.product(ONE, each_dag(&x_next), each(&ta), ZERO);
            acc.product(-ONE, each(&tc), each(&tb), ONE);
            ta.product(ONE, each(&g_aup_x), each(&blo), ZERO);
            tb.product(ONE, each_dag(gi), each_dag(&theta), ZERO);
            acc.product(-ONE, each(&ta), each(&tb), ONE);
            flops += 14 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].diag_mut(i));
            }

            // Xl_{i+1,i} = −X_{i+1} A_{i+1,i} gl_i Θ†
            //             + X_{i+1} A_{i+1,i} g_i B_{i,i+1} X_{i+1}† A_{i,i+1}† g_i†
            //             + X_{i+1} B_{i+1,i} g_i† Θ†
            //             − W A_{i,i+1}† g_i†
            ta.product(ONE, each(&x_alo), each(gli), ZERO);
            acc.product(-ONE, each(&ta), each_dag(&theta), ZERO);
            ta.product(ONE, each(&x_alo), each(gi), ZERO);
            tc.product(ONE, each(&ta), each(&bup), ZERO);
            ta.product(ONE, each_dag(&sup), each_dag(gi), ZERO);
            tb.product(ONE, each_dag(&x_next), each(&ta), ZERO);
            acc.product(ONE, each(&tc), each(&tb), ONE);
            ta.product(ONE, each(&x_next), each(&blo), ZERO);
            tc.product(ONE, each(&ta), each_dag(gi), ZERO);
            acc.product(ONE, each(&tc), each_dag(&theta), ONE);
            ta.product(ONE, each_dag(&sup), each_dag(gi), ZERO);
            acc.product(-ONE, each(&w), each(&ta), ONE);
            flops += 13 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].lower_mut(i));
            }

            // Xl_{i,i+1} = −Θ gl_i A_{i+1,i}† X_{i+1}†
            //             + Θ g_i B_{i,i+1} X_{i+1}†
            //             + g_i A_{i,i+1} X_{i+1} B_{i+1,i} g_i† A_{i+1,i}† X_{i+1}†
            //             − g_i A_{i,i+1} W
            ta.product(ONE, each(&theta), each(gli), ZERO);
            tb.product(ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            acc.product(-ONE, each(&ta), each(&tb), ZERO);
            ta.product(ONE, each(&theta), each(gi), ZERO);
            tb.product(ONE, each(&bup), each_dag(&x_next), ZERO);
            acc.product(ONE, each(&ta), each(&tb), ONE);
            ta.product(ONE, each(&g_aup_x), each(&blo), ZERO);
            tb.product(ONE, each_dag(&slo), each_dag(&x_next), ZERO);
            tc.product(ONE, each_dag(gi), each(&tb), ZERO);
            acc.product(ONE, each(&ta), each(&tc), ONE);
            acc.product(-ONE, each(&g_aup), each(&w), ONE);
            flops += 12 * gemm_c;
            for (e, sol) in sols.iter_mut().enumerate() {
                acc.copy_plane_to(e, sol.lesser[r].upper_mut(i));
            }

            bws.give(ta);
            bws.give(tb);
            bws.give(tc);
            bws.give(x_alo);
            bws.give(w);
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
    flops
}
