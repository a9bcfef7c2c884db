//! Energy-batched GEMM: one packing, all energies.
//!
//! The paper's GPU strategy runs every block product of the RGF/OBC/SCBA
//! sweeps as a *batched* kernel over the energy grid: at a fixed block
//! position the operand shapes are identical for every energy a rank owns, so
//! the launch overhead — and for energy-independent operands the operand
//! packing — is paid once per block position instead of once per energy.
//! This module is the laptop-scale analogue for the operand-flag engine of
//! [`crate::ops`]:
//!
//! * [`MatrixBatch`] — `B` same-shaped column-major matrices ("planes")
//!   stored contiguously, energy-major: plane `e` occupies
//!   `data[e·m·n .. (e+1)·m·n]`. This is exactly the layout an eventual
//!   GPU/BLAS backend wants for `gemm_batched` and the layout the
//!   transposition slabs of `quatrex_core::dist` already use per element.
//! * [`gemm_batch`] — `C_e = alpha · op(A_e) · op(B_e) + beta · C_e` for all
//!   planes in one call. A [`BatchOp::Shared`] operand is SoA-packed **once**
//!   and reused by every plane (the per-energy path re-packs it `B` times);
//!   [`BatchOp::Each`] operands are packed per plane through the same
//!   raw-slice packers as [`crate::ops::gemm`], so every plane's arithmetic
//!   is bit-identical to the corresponding per-energy call.
//! * [`invert_batch_into`] — plane-wise LU inversion through
//!   `LuScratch::invert_slice_into`, again bit-identical per plane.
//!
//! Blocks too small to fill the packed engine's register tile have a second
//! layout, [`crate::interleaved`], with one vector lane per energy; its
//! products and inversions are bit-identical to these.
//!
//! FLOP accounting composes exactly: [`gemm_batch_flops`]`(b, m, k, n)` is
//! `b ·`[`gemm_flops`]`(m, k, n)`, so a batched consumer reports the same
//! totals as the per-energy path it replaces.

use crate::lu::{LuError, LuScratch};
use crate::matrix::CMatrix;
use crate::ops::{gemm_flops, packed_kernel, Op, OpKind, PACK};
use crate::{c64, ONE, ZERO};

/// `B` same-shaped dense complex matrices stored contiguously, energy-major.
///
/// Plane `e` is the column-major `nrows × ncols` matrix at
/// `data[e · nrows · ncols ..]`. The layout is what batched GPU/BLAS kernels
/// consume directly and what keeps one [`gemm_batch`] call streaming through
/// memory linearly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixBatch {
    batch: usize,
    nrows: usize,
    ncols: usize,
    data: Vec<c64>,
}

impl MatrixBatch {
    /// A zero-filled batch of `batch` matrices of shape `nrows × ncols`.
    pub fn zeros(batch: usize, nrows: usize, ncols: usize) -> Self {
        Self {
            batch,
            nrows,
            ncols,
            data: vec![ZERO; batch * nrows * ncols],
        }
    }

    /// Reshape to `batch` planes of `nrows × ncols`, reusing the buffer:
    /// zero-filled if the shape changed, left as it is otherwise.
    pub fn reshape(&mut self, batch: usize, nrows: usize, ncols: usize) {
        if (batch, nrows, ncols) != (self.batch, self.nrows, self.ncols) {
            (self.batch, self.nrows, self.ncols) = (batch, nrows, ncols);
            self.data.clear();
            self.data.resize(batch * nrows * ncols, ZERO);
        }
    }

    /// Number of planes (energies) in the batch.
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// Rows of every plane.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of every plane.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)` of every plane.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Elements of one plane (`nrows · ncols`).
    pub(crate) fn plane_len(&self) -> usize {
        self.nrows * self.ncols
    }

    /// Plane `e` as a column-major slice.
    #[inline(always)]
    pub fn plane(&self, e: usize) -> &[c64] {
        let pl = self.plane_len();
        &self.data[e * pl..(e + 1) * pl]
    }

    /// Plane `e` as a mutable column-major slice.
    #[inline(always)]
    pub fn plane_mut(&mut self, e: usize) -> &mut [c64] {
        let pl = self.plane_len();
        &mut self.data[e * pl..(e + 1) * pl]
    }

    /// The whole energy-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// Stage a per-energy matrix into plane `e` (shapes must match).
    pub fn copy_plane_from(&mut self, e: usize, src: &CMatrix) {
        assert_eq!(src.shape(), (self.nrows, self.ncols), "plane shape");
        self.plane_mut(e).copy_from_slice(src.as_slice());
    }

    /// Copy plane `e` back out into a per-energy matrix (reshaped if needed).
    pub fn copy_plane_to(&self, e: usize, dst: &mut CMatrix) {
        if dst.shape() != (self.nrows, self.ncols) {
            dst.resize_zeroed(self.nrows, self.ncols);
        }
        dst.as_mut_slice().copy_from_slice(self.plane(e));
    }

    /// Plane `e` as a freshly allocated matrix (test/diagnostic convenience).
    pub fn plane_matrix(&self, e: usize) -> CMatrix {
        CMatrix::from_raw(self.nrows, self.ncols, self.plane(e).to_vec())
    }

    /// `self -= x`, elementwise over every plane — the exact complex
    /// subtraction of `CMatrix`'s `-=` applied plane by plane.
    pub fn sub_assign_batch(&mut self, x: &MatrixBatch) {
        assert_eq!(
            (x.batch, x.nrows, x.ncols),
            (self.batch, self.nrows, self.ncols),
            "batch shape"
        );
        for (d, s) in self.data.iter_mut().zip(x.data.iter()) {
            *d -= s;
        }
    }

    /// Add `alpha` to the diagonal of every plane (planes must be square).
    pub fn add_scaled_identity(&mut self, alpha: c64) {
        assert_eq!(self.nrows, self.ncols, "square planes required");
        let (n, pl) = (self.nrows, self.plane_len());
        for e in 0..self.batch {
            for i in 0..n {
                self.data[e * pl + i * n + i] += alpha;
            }
        }
    }

    /// Scale every element by `s`.
    pub fn scale_mut(&mut self, s: c64) {
        for v in self.data.iter_mut() {
            *v *= s;
        }
    }
}

/// One operand of a [`gemm_batch`] call.
#[derive(Clone, Copy)]
pub enum BatchOp<'a> {
    /// An energy-independent operand shared by every plane, packed **once**
    /// per call — the batching win the per-energy path cannot have. No
    /// library code multiplies with it: the W assembly forms its kept block
    /// pairs per energy. With the bare Coulomb blocks `V_ij` shared across a
    /// kernel chunk its `N_BS = 64` products ran 13 % slower than per
    /// energy (staging and cache traffic of eight planes per block
    /// position), so that variant was not kept.
    Shared(Op<'a>),
    /// A per-energy operand: plane `e` of the given batch, entered with the
    /// given flag. Packed per plane through the same raw packers as
    /// [`crate::ops::gemm`].
    Each(OpKind, &'a MatrixBatch),
}

impl BatchOp<'_> {
    /// Effective (flag-applied) rows of every plane.
    fn nrows(&self) -> usize {
        match self {
            BatchOp::Shared(op) => op.nrows(),
            BatchOp::Each(OpKind::None, mb) => mb.nrows(),
            BatchOp::Each(_, mb) => mb.ncols(),
        }
    }

    /// Effective (flag-applied) columns of every plane.
    fn ncols(&self) -> usize {
        match self {
            BatchOp::Shared(op) => op.ncols(),
            BatchOp::Each(OpKind::None, mb) => mb.ncols(),
            BatchOp::Each(_, mb) => mb.nrows(),
        }
    }

    /// Batch length, if the operand is per-energy (it must be the output's).
    fn batch_len(&self) -> Option<usize> {
        match self {
            BatchOp::Shared(_) => None,
            BatchOp::Each(_, mb) => Some(mb.batch_len()),
        }
    }
}

/// Batched operand-flag GEMM:
/// `C_e = alpha · op(A_e) · op(B_e) + beta · C_e` for every plane `e`.
///
/// Every per-energy operand holds exactly the output's number of planes.
/// Every plane's product runs through the identical packing and micro-kernel
/// code paths as a per-energy [`crate::ops::gemm`] call, so plane `e` of the
/// result is **bit-identical** to the per-energy path. [`BatchOp::Shared`]
/// operands are packed once and reused across the batch; per-call setup
/// (packing-buffer checkout, beta handling, shape checks) is hoisted out of
/// the energy loop. The whole batch is swept on the calling thread: the
/// callers are rank and worker threads that already fill the cores.
pub fn gemm_batch(c: &mut MatrixBatch, alpha: c64, a: BatchOp<'_>, b: BatchOp<'_>, beta: c64) {
    let (m, k) = (a.nrows(), a.ncols());
    let (k2, n) = (b.nrows(), b.ncols());
    assert_eq!(k, k2, "gemm_batch inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "gemm_batch output shape mismatch");
    let bsz = c.batch_len();
    for len in [a.batch_len(), b.batch_len()].into_iter().flatten() {
        assert_eq!(len, bsz, "gemm_batch operand batch length mismatch");
    }

    if beta != ONE {
        if beta == ZERO {
            c.as_mut_slice().fill(ZERO);
        } else {
            c.scale_mut(beta);
        }
    }
    if alpha == ZERO || m == 0 || n == 0 || k == 0 || bsz == 0 {
        return;
    }

    // Pack any shared operand once into this thread's panel, then per plane
    // pack the per-energy operands and run the micro-kernel.
    quatrex_probe::span("gemm_batch", "gemm_batch", || {
        PACK.with(|pack| {
            let pack = &mut *pack.borrow_mut();
            if let BatchOp::Shared(op) = a {
                pack.pack_a_raw(op.kind(), op.matrix().as_slice(), m, k);
            }
            if let BatchOp::Shared(op) = b {
                pack.pack_b_raw(op.kind(), op.matrix().as_slice(), k, n);
            }
            for (e, plane) in c.as_mut_slice().chunks_mut(m * n).enumerate() {
                if let BatchOp::Each(kind, mb) = a {
                    pack.pack_a_raw(kind, mb.plane(e), m, k);
                }
                if let BatchOp::Each(kind, mb) = b {
                    pack.pack_b_raw(kind, mb.plane(e), k, n);
                }
                packed_kernel(plane, alpha, pack, m, k, n);
            }
        })
    });
}

/// Real FLOPs of one [`gemm_batch`] call over `batch` planes of `m×k · k×n`
/// products — exactly `batch` times the per-energy [`gemm_flops`], so batched
/// consumers report totals identical to the per-energy path they replace.
pub fn gemm_batch_flops(batch: usize, m: usize, k: usize, n: usize) -> u64 {
    batch as u64 * gemm_flops(m, k, n)
}

/// Plane-wise LU inversion: `out_e = a_e⁻¹` for every plane, through
/// `LuScratch::invert_slice_into` (bit-identical to the per-energy
/// `invert_into`); `a` and `out` hold the same number of planes. On a
/// singular plane the error carries the plane index so consumers can map it
/// to their per-energy error type.
pub fn invert_batch_into(
    lu: &mut LuScratch,
    a: &MatrixBatch,
    out: &mut MatrixBatch,
) -> Result<(), (usize, LuError)> {
    assert_eq!(a.nrows(), a.ncols(), "square planes required");
    assert_eq!(a.shape(), out.shape(), "inverse output shape mismatch");
    assert_eq!(
        a.batch_len(),
        out.batch_len(),
        "inverse batch length mismatch"
    );
    let n = a.nrows();
    for e in 0..a.batch_len() {
        lu.invert_slice_into(a.plane(e), n, out.plane_mut(e))
            .map_err(|err| (e, err))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;
    use crate::ops::gemm;

    fn plane(m: usize, n: usize, seed: f64) -> CMatrix {
        CMatrix::from_fn(m, n, |i, j| {
            cplx(
                (i as f64 * 1.3 + j as f64 * 0.7 + seed).sin(),
                (i as f64 * 0.5 - j as f64 * 1.1 + 2.0 * seed).cos(),
            )
        })
    }

    fn batch_of(b: usize, m: usize, n: usize, seed: f64) -> (MatrixBatch, Vec<CMatrix>) {
        let mut mb = MatrixBatch::zeros(b, m, n);
        let mut mats = Vec::with_capacity(b);
        for e in 0..b {
            let p = plane(m, n, seed + e as f64);
            mb.copy_plane_from(e, &p);
            mats.push(p);
        }
        (mb, mats)
    }

    fn op_of(kind: OpKind, m: &CMatrix) -> Op<'_> {
        match kind {
            OpKind::None => Op::None(m),
            OpKind::Trans => Op::Trans(m),
            OpKind::Dagger => Op::Dagger(m),
        }
    }

    /// Stored shape that yields an effective `m × k` operand under `kind`.
    fn stored(kind: OpKind, m: usize, k: usize) -> (usize, usize) {
        match kind {
            OpKind::None => (m, k),
            _ => (k, m),
        }
    }

    #[test]
    fn each_each_matches_per_energy_gemm_bit_for_bit() {
        let (b, m, k, n) = (5, 7, 6, 9);
        const KINDS: [OpKind; 3] = [OpKind::None, OpKind::Trans, OpKind::Dagger];
        for ka in KINDS {
            for kb in KINDS {
                let (sa_m, sa_n) = stored(ka, m, k);
                let (sb_m, sb_n) = stored(kb, k, n);
                let (a_mb, a_mats) = batch_of(b, sa_m, sa_n, 0.3);
                let (b_mb, b_mats) = batch_of(b, sb_m, sb_n, 4.1);
                let mut c_mb = MatrixBatch::zeros(b, m, n);
                gemm_batch(
                    &mut c_mb,
                    ONE,
                    BatchOp::Each(ka, &a_mb),
                    BatchOp::Each(kb, &b_mb),
                    ZERO,
                );
                for e in 0..b {
                    let mut want = CMatrix::zeros(m, n);
                    gemm(
                        &mut want,
                        ONE,
                        op_of(ka, &a_mats[e]),
                        op_of(kb, &b_mats[e]),
                        ZERO,
                    );
                    assert!(
                        c_mb.plane_matrix(e).approx_eq(&want, 0.0),
                        "({ka:?},{kb:?}) plane {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_a_matches_per_energy_gemm_bit_for_bit() {
        let (b, m, k, n) = (4, 8, 8, 8);
        let a = plane(m, k, 1.7);
        let (b_mb, b_mats) = batch_of(b, k, n, 2.9);
        let mut c_mb = MatrixBatch::zeros(b, m, n);
        gemm_batch(
            &mut c_mb,
            ONE,
            BatchOp::Shared(Op::None(&a)),
            BatchOp::Each(OpKind::None, &b_mb),
            ZERO,
        );
        for e in 0..b {
            let mut want = CMatrix::zeros(m, n);
            gemm(&mut want, ONE, Op::None(&a), Op::None(&b_mats[e]), ZERO);
            assert!(c_mb.plane_matrix(e).approx_eq(&want, 0.0), "plane {e}");
        }
    }

    #[test]
    fn shared_b_with_dagger_and_accumulation() {
        let (b, m, k, n) = (3, 5, 6, 5);
        let (a_mb, a_mats) = batch_of(b, m, k, 0.9);
        let shared = plane(n, k, 3.3); // entered as Dagger: effective k × n
        let alpha = cplx(0.7, -0.2);
        let beta = cplx(-1.1, 0.4);
        let (mut c_mb, c_mats) = batch_of(b, m, n, 6.5);
        gemm_batch(
            &mut c_mb,
            alpha,
            BatchOp::Each(OpKind::None, &a_mb),
            BatchOp::Shared(Op::Dagger(&shared)),
            beta,
        );
        for e in 0..b {
            let mut want = c_mats[e].clone();
            gemm(
                &mut want,
                alpha,
                Op::None(&a_mats[e]),
                Op::Dagger(&shared),
                beta,
            );
            assert!(c_mb.plane_matrix(e).approx_eq(&want, 0.0), "plane {e}");
        }
    }

    #[test]
    fn flops_sum_exactly_to_the_per_energy_path() {
        assert_eq!(
            gemm_batch_flops(17, 32, 32, 32),
            17 * gemm_flops(32, 32, 32)
        );
        assert_eq!(gemm_batch_flops(0, 8, 8, 8), 0);
    }

    #[test]
    fn batched_inverse_matches_scratch_inverse_bit_for_bit() {
        let b = 4;
        let n = 9;
        let mut a_mb = MatrixBatch::zeros(b, n, n);
        let mut mats = Vec::new();
        for e in 0..b {
            // Diagonally dominant planes: invertible.
            let mut p = plane(n, n, e as f64);
            for i in 0..n {
                p[(i, i)] += cplx(5.0 + e as f64, 1.0);
            }
            a_mb.copy_plane_from(e, &p);
            mats.push(p);
        }
        let mut out = MatrixBatch::zeros(b, n, n);
        let mut lu = LuScratch::new();
        invert_batch_into(&mut lu, &a_mb, &mut out).unwrap();
        let mut lu2 = LuScratch::new();
        let mut want = CMatrix::zeros(n, n);
        for e in 0..b {
            lu2.invert_into(&mats[e], &mut want).unwrap();
            assert!(out.plane_matrix(e).approx_eq(&want, 0.0), "plane {e}");
        }
    }

    #[test]
    fn batched_inverse_reports_the_singular_plane() {
        let n = 3;
        let mut a_mb = MatrixBatch::zeros(2, n, n);
        let good = CMatrix::identity(n);
        a_mb.copy_plane_from(0, &good);
        // plane 1 stays zero: singular.
        let mut out = MatrixBatch::zeros(2, n, n);
        let mut lu = LuScratch::new();
        let err = invert_batch_into(&mut lu, &a_mb, &mut out).unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn identity_helper_adds_to_every_diagonal() {
        let mut a = MatrixBatch::zeros(2, 3, 3);
        a.add_scaled_identity(ONE);
        for e in 0..2 {
            assert!(a.plane_matrix(e).approx_eq(&CMatrix::identity(3), 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "gemm_batch operand batch length mismatch")]
    fn gemm_batch_rejects_an_operand_longer_than_the_output() {
        let (a, _) = batch_of(3, 3, 3, 0.3);
        let (b, _) = batch_of(2, 3, 3, 0.7);
        let mut c = MatrixBatch::zeros(2, 3, 3);
        gemm_batch(
            &mut c,
            ONE,
            BatchOp::Each(OpKind::None, &a),
            BatchOp::Each(OpKind::None, &b),
            ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "inverse batch length mismatch")]
    fn invert_batch_into_rejects_an_input_longer_than_the_output() {
        let mut a = MatrixBatch::zeros(3, 3, 3);
        a.add_scaled_identity(ONE);
        let mut out = MatrixBatch::zeros(2, 3, 3);
        let _ = invert_batch_into(&mut LuScratch::new(), &a, &mut out);
    }
}
