//! The selected RGF recursion, batched over energies.
//!
//! [`rgf_solve_batch_into`] is the one implementation of the forward/backward
//! recursions (paper Section 4.3.2, Eqs. (9)–(12); the derivation is in
//! [`crate::sequential`]'s module docs). It runs them for a whole batch of
//! same-structure systems at once: at every block position the per-energy
//! blocks are staged into one energy-batched operand and each block product
//! runs as **one** batched call over all energies. Conjugate transposes
//! (`g_i†`, `Θ†`, `A_{i,i+1}†`, …) are fused into the kernel loads through the
//! operand flags instead of being materialised. A single system is a batch of
//! one ([`crate::sequential::rgf_solve_into`]).
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
//! [`RgfBatchScratch`]; once scratch and solutions are warmed at a shape, the
//! steady-state solve performs **zero heap allocations** at any batch length
//! and on either layout (pinned by the counting-allocator tests in
//! `tests/alloc_free.rs`).

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
trait Blocks: Sized {
    /// An empty batch (no energies, `0 × 0` blocks), to be [`Blocks::fit`].
    fn empty() -> Self;
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
    fn empty() -> Self {
        MatrixBatch::zeros(0, 0, 0)
    }
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
    fn empty() -> Self {
        LaneBatch::zeros(0, 0, 0)
    }
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
#[derive(Debug)]
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
            S::empty()
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
/// forward-pass quantities — `g[i]` (energy `e` is `g_i` of energy `e`) and
/// one row `gl[r][i]` per right-hand side.
#[derive(Debug)]
struct Store<S> {
    bws: Arena<S>,
    g: Vec<S>,
    gl: Vec<Vec<S>>,
}

impl<S> Default for Store<S> {
    fn default() -> Self {
        Self {
            bws: Arena {
                free: Vec::new(),
                fresh: 0,
            },
            g: Vec::new(),
            gl: Vec::new(),
        }
    }
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

/// Batched selected RGF solve writing into caller-owned solutions, with all
/// temporaries drawn from `scratch`.
///
/// `systems[e]` and `rhs[e]` are the system matrix and right-hand sides of
/// batch member `e`; every member must share the block structure and RHS
/// count. `sols[e]` depends on `(systems[e], rhs[e])` only — not on the batch
/// length, the layout or the other members — bit for bit, including the FLOP
/// count. The layout is [`BlockLayout::for_solve`] of the block size and the
/// batch length.
pub fn rgf_solve_batch_into(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> Result<(), RgfBatchError> {
    rgf_solve_batch_on(layout_of(systems), systems, rhs, sols, scratch)
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

    // Shape the outputs (no-ops in the steady state).
    for sol in sols.iter_mut() {
        sol.fit(nb, bs, n_rhs);
    }

    let RgfBatchScratch { lu, planes, lanes } = scratch;
    let flops = match layout {
        BlockLayout::Planes => solve(planes, lu, systems, rhs, sols),
        BlockLayout::Lanes => solve(lanes, lu, systems, rhs, sols),
    }?;
    for sol in sols.iter_mut() {
        sol.flops = flops;
    }
    Ok(())
}

/// What the forward half leaves behind for a later backward half, per
/// system: the left-connected `g_i` and one row `g≶_i` per right-hand side,
/// for every block before the last.
#[derive(Debug, Clone, Default)]
pub(crate) struct ForwardSweep {
    g: Vec<CMatrix>,
    gl: Vec<Vec<CMatrix>>,
}

impl ForwardSweep {
    /// The left-connected retarded blocks `g_i`, one per block before the
    /// last.
    pub(crate) fn retarded(&self) -> &[CMatrix] {
        &self.g
    }
}

/// The forward half over a batch whose **last block is a separator**: the
/// recursion runs up to it and stops before its inversion. `updates[e]`
/// receives what that stopped step computes — the Schur term
/// `−A_{s,e} g_e A_{e,s}`, then per right-hand side the coupling terms of
/// `inner` without `B_ss` — and `sweeps[e]` the left-connected blocks the
/// backward half ([`recover_to_first`]) starts from. Returns the
/// per-system FLOP count.
pub(crate) fn eliminate_to_last(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    updates: &mut [Vec<CMatrix>],
    sweeps: &mut [ForwardSweep],
    scratch: &mut RgfBatchScratch,
) -> Result<u64, RgfBatchError> {
    let RgfBatchScratch { lu, planes, lanes } = scratch;
    match layout_of(systems) {
        BlockLayout::Planes => eliminate(planes, lu, systems, rhs, updates, sweeps),
        BlockLayout::Lanes => eliminate(lanes, lu, systems, rhs, updates, sweeps),
    }
}

/// The backward half over a batch from the last block down: `sols[e]` must
/// be shaped and hold the seed — the selected diagonal blocks of the last
/// block, retarded and per right-hand side — and `sweeps[e]` the forward
/// half's output for the same system ([`eliminate_to_last`]). Returns the
/// per-system FLOP count.
pub(crate) fn recover_to_first(
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sweeps: &[&ForwardSweep],
    sols: &mut [SelectedSolution],
    scratch: &mut RgfBatchScratch,
) -> u64 {
    let RgfBatchScratch { planes, lanes, .. } = scratch;
    match layout_of(systems) {
        BlockLayout::Planes => recover(planes, systems, rhs, sweeps, sols),
        BlockLayout::Lanes => recover(lanes, systems, rhs, sweeps, sols),
    }
}

/// [`BlockLayout::for_solve`] of a batch.
fn layout_of(systems: &[&BlockTridiagonal]) -> BlockLayout {
    let block_size = systems.first().map_or(0, |a| a.block_size());
    BlockLayout::for_solve(block_size, systems.len())
}

/// The full solve on the storage `S`, over validated inputs and shaped
/// outputs: the forward half over every block, the last block's
/// left-connected blocks as the seed (they are its solution), and the
/// backward half. Returns the per-energy FLOP count.
fn solve<S: Blocks>(
    store: &mut Store<S>,
    lu: &mut LuScratch,
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
) -> Result<u64, RgfBatchError> {
    let flops = forward(store, lu, systems, rhs, None)?;
    let last = systems[0].n_blocks() - 1;
    for (e, sol) in sols.iter_mut().enumerate() {
        store.g[last].copy_plane_to(e, sol.retarded.diag_mut(last));
        for (r, l) in sol.lesser.iter_mut().enumerate() {
            store.gl[r][last].copy_plane_to(e, l.diag_mut(last));
        }
    }
    Ok(flops + backward(store, systems, rhs, sols))
}

/// [`eliminate_to_last`] on the storage `S`.
fn eliminate<S: Blocks>(
    store: &mut Store<S>,
    lu: &mut LuScratch,
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    updates: &mut [Vec<CMatrix>],
    sweeps: &mut [ForwardSweep],
) -> Result<u64, RgfBatchError> {
    let flops = forward(store, lu, systems, rhs, Some(updates))?;
    let (nb, bs) = (systems[0].n_blocks(), systems[0].block_size());
    for (e, sweep) in sweeps.iter_mut().enumerate() {
        sweep.g.resize_with(nb - 1, || CMatrix::zeros(bs, bs));
        for (i, g) in sweep.g.iter_mut().enumerate() {
            store.g[i].copy_plane_to(e, g);
        }
        sweep.gl.resize_with(rhs[e].len(), Vec::new);
        for (row, gl) in store.gl.iter().zip(sweep.gl.iter_mut()) {
            gl.resize_with(nb - 1, || CMatrix::zeros(bs, bs));
            for (i, g) in gl.iter_mut().enumerate() {
                row[i].copy_plane_to(e, g);
            }
        }
    }
    Ok(flops)
}

/// [`recover_to_first`] on the storage `S`.
fn recover<S: Blocks>(
    store: &mut Store<S>,
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sweeps: &[&ForwardSweep],
    sols: &mut [SelectedSolution],
) -> u64 {
    let (nb, bs, n_rhs) = (systems[0].n_blocks(), systems[0].block_size(), rhs[0].len());
    fit_slots(store, systems.len(), bs, nb, n_rhs);
    for i in 0..nb - 1 {
        store.g[i].stage(|e| &sweeps[e].g[i]);
        for (r, row) in store.gl[..n_rhs].iter_mut().enumerate() {
            row[i].stage(|e| &sweeps[e].gl[r][i]);
        }
    }
    backward(store, systems, rhs, sols)
}

/// Shape the forward-pass slots of `store` to `nb` block positions of
/// `batch` blocks of `bs × bs` and `n_rhs` rows. The slot lists only grow: a
/// scratch that alternates between block counts (a rank of a spatial group
/// solves partition ranges and reduced boundary systems on one scratch) keeps
/// the longer list warm.
fn fit_slots<S: Blocks>(store: &mut Store<S>, batch: usize, bs: usize, nb: usize, n_rhs: usize) {
    let Store { g, gl, .. } = store;
    if g.len() < nb {
        g.resize_with(nb, S::empty);
    }
    for slot in g[..nb].iter_mut() {
        slot.fit(batch, bs);
    }
    while gl.len() < n_rhs {
        gl.push(Vec::new());
    }
    for row in gl[..n_rhs].iter_mut() {
        if row.len() < nb {
            row.resize_with(nb, S::empty);
        }
        for slot in row[..nb].iter_mut() {
            slot.fit(batch, bs);
        }
    }
}

/// The forward half on the storage `S`: the left-connected `g[i]` and
/// `gl[r][i]` of every block. With `separator`, the last block is a
/// separator of a spatial partition: its step stops before the inversion
/// and writes the Schur term (negated) and the `inner` coupling terms
/// (without `B_ss`) of every energy `e` into `separator[e]` instead.
/// Returns the per-energy FLOP count.
fn forward<S: Blocks>(
    store: &mut Store<S>,
    lu: &mut LuScratch,
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    mut separator: Option<&mut [Vec<CMatrix>]>,
) -> Result<u64, RgfBatchError> {
    let bsz = systems.len();
    let (nb, bs, n_rhs) = (systems[0].n_blocks(), systems[0].block_size(), rhs[0].len());
    let mut flops = 0u64; // per energy — structural, identical for every member
    let gemm_c = gemm_flops(bs, bs, bs);
    let inv_cost = inverse_flops(bs);

    fit_slots(store, bsz, bs, nb, n_rhs);
    let Store { bws, g, gl } = store;

    // Left-connected retarded g[i] and lesser gl[r][i], batched per block
    // position: stage the per-energy blocks once, then one batched product
    // per GEMM of the recursion.
    let mut sd = bws.take(bsz, bs);
    sd.stage(|e| systems[e].diag(0));
    S::invert(lu, &sd, &mut g[0]).map_err(|e| RgfBatchError {
        energy: e,
        error: RgfError::SingularBlock(0),
    })?;
    flops += inv_cost;
    for r in 0..n_rhs {
        // gl_0 = g_0 · B_00 · g_0†
        let mut bd = bws.take(bsz, bs);
        bd.stage(|e| rhs[e][r].diag(0));
        let mut t = bws.take(bsz, bs);
        t.product(ONE, each(&g[0]), each(&bd), ZERO);
        gl[r][0].product(ONE, each(&t), each_dag(&g[0]), ZERO);
        flops += 2 * gemm_c;
        bws.give(bd);
        bws.give(t);
    }

    for i in 1..nb {
        // The separator's step stops before its inversion.
        let mut at_separator = separator.as_deref_mut().filter(|_| i == nb - 1);
        let mut slo = bws.take(bsz, bs); // A_{i, i-1}
        slo.stage(|e| systems[e].lower(i - 1));
        let mut sup = bws.take(bsz, bs); // A_{i-1, i}
        sup.stage(|e| systems[e].upper(i - 1));

        // Schur complement d = A_ii − A_{i,i-1} g_{i-1} A_{i-1,i}.
        let mut t1 = bws.take(bsz, bs);
        t1.product(ONE, each(&slo), each(&g[i - 1]), ZERO);
        let mut t2 = bws.take(bsz, bs);
        t2.product(ONE, each(&t1), each(&sup), ZERO);
        flops += 2 * gemm_c;
        if let Some(out) = &mut at_separator {
            for (e, upd) in out.iter_mut().enumerate() {
                t2.copy_plane_to(e, &mut upd[0]);
                upd[0].scale_mut(c64::new(-1.0, 0.0));
            }
        } else {
            let mut d = bws.take(bsz, bs);
            d.stage(|e| systems[e].diag(i));
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
            let beta = if at_separator.is_some() {
                ZERO
            } else {
                inner.stage(|e| rhs[e][r].diag(i));
                ONE
            };
            let mut bup = bws.take(bsz, bs);
            bup.stage(|e| rhs[e][r].upper(i - 1));
            let mut blo = bws.take(bsz, bs);
            blo.stage(|e| rhs[e][r].lower(i - 1));
            let mut u = bws.take(bsz, bs);
            u.product(ONE, each(&slo), each(&gl[r][i - 1]), ZERO);
            inner.product(ONE, each(&u), each_dag(&slo), beta);
            u.product(ONE, each(&slo), each(&g[i - 1]), ZERO);
            inner.product(-ONE, each(&u), each(&bup), ONE);
            u.product(ONE, each(&blo), each_dag(&g[i - 1]), ZERO);
            inner.product(-ONE, each(&u), each_dag(&slo), ONE);
            flops += 6 * gemm_c;
            if let Some(out) = &mut at_separator {
                for (e, upd) in out.iter_mut().enumerate() {
                    inner.copy_plane_to(e, &mut upd[1 + r]);
                }
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
    systems: &[&BlockTridiagonal],
    rhs: &[&[&BlockTridiagonal]],
    sols: &mut [SelectedSolution],
) -> u64 {
    let bsz = systems.len();
    let (nb, bs, n_rhs) = (systems[0].n_blocks(), systems[0].block_size(), rhs[0].len());
    let mut flops = 0u64;
    let gemm_c = gemm_flops(bs, bs, bs);
    let Store { bws, g, gl } = store;

    for i in (0..nb.saturating_sub(1)).rev() {
        let mut sup = bws.take(bsz, bs); // A_{i, i+1}
        sup.stage(|e| systems[e].upper(i));
        let mut slo = bws.take(bsz, bs); // A_{i+1, i}
        slo.stage(|e| systems[e].lower(i));
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
            bup.stage(|e| rhs[e][r].upper(i));
            let mut blo = bws.take(bsz, bs); // B_{i+1, i}
            blo.stage(|e| rhs[e][r].lower(i));

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
