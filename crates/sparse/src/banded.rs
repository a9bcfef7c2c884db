//! General block-banded matrices with uniform block size.

use quatrex_linalg::ops::{gemm, gemm_flops, matmul_acc, Op};
use quatrex_linalg::{c64, CMatrix, ONE};

use crate::tridiag::BlockTridiagonal;

/// Block-banded matrix: `n_blocks × n_blocks` blocks of uniform size
/// `block_size`, with block `(i, j)` stored only when `|i − j| ≤ bandwidth`.
///
/// Missing blocks are implicit zeros. A `bandwidth` of 1 is block-tridiagonal,
/// a bandwidth of `N_U` is the natural tiling of the Hamiltonian in the
/// primitive-unit-cell basis (paper Fig. 2).
#[derive(Debug, Clone)]
pub struct BlockBanded {
    n_blocks: usize,
    block_size: usize,
    bandwidth: usize,
    /// Row-major storage of the band: index `(i, d)` with `d = j − i + bandwidth`.
    blocks: Vec<Option<CMatrix>>,
}

impl BlockBanded {
    /// Create an all-zero block-banded matrix.
    pub fn zeros(n_blocks: usize, block_size: usize, bandwidth: usize) -> Self {
        let width = 2 * bandwidth + 1;
        Self {
            n_blocks,
            block_size,
            bandwidth,
            blocks: vec![None; n_blocks * width],
        }
    }

    /// Build a block-Toeplitz banded matrix from the blocks of a single
    /// (periodic) cell: `diag_block` on the diagonal and `off_blocks[d−1]` on
    /// the `d`-th super-diagonal, with the sub-diagonals given by the
    /// conjugate transposes (the Hamiltonian construction of Section 4.1).
    pub fn from_periodic_cell(
        n_blocks: usize,
        diag_block: &CMatrix,
        off_blocks: &[CMatrix],
    ) -> Self {
        let block_size = diag_block.nrows();
        assert!(diag_block.is_square(), "diagonal block must be square");
        for b in off_blocks {
            assert_eq!(
                b.shape(),
                (block_size, block_size),
                "off-diagonal block shape mismatch"
            );
        }
        let bandwidth = off_blocks.len();
        let mut m = Self::zeros(n_blocks, block_size, bandwidth);
        for i in 0..n_blocks {
            m.set_block(i, i, diag_block.clone());
            for (d, b) in off_blocks.iter().enumerate() {
                let j = i + d + 1;
                if j < n_blocks {
                    m.set_block(i, j, b.clone());
                    m.set_block(j, i, b.dagger());
                }
            }
        }
        m
    }

    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        if i >= self.n_blocks || j >= self.n_blocks {
            return None;
        }
        let d = j as isize - i as isize;
        if d.unsigned_abs() > self.bandwidth {
            return None;
        }
        Some(i * (2 * self.bandwidth + 1) + (d + self.bandwidth as isize) as usize)
    }

    /// Block bandwidth (number of stored off-diagonals on each side).
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Total matrix dimension `n_blocks · block_size`.
    pub(crate) fn dim(&self) -> usize {
        self.n_blocks * self.block_size
    }

    /// Borrow the block at `(i, j)` if it is stored and non-zero.
    pub fn block(&self, i: usize, j: usize) -> Option<&CMatrix> {
        self.slot(i, j).and_then(|s| self.blocks[s].as_ref())
    }

    /// Set block `(i, j)`. Panics if `(i, j)` lies outside the band.
    pub fn set_block(&mut self, i: usize, j: usize, block: CMatrix) {
        assert_eq!(
            block.shape(),
            (self.block_size, self.block_size),
            "block shape mismatch"
        );
        let s = self
            .slot(i, j)
            .unwrap_or_else(|| panic!("block ({i},{j}) outside bandwidth {}", self.bandwidth));
        self.blocks[s] = Some(block);
    }

    /// Accumulate `alpha · block` into block `(i, j)` (creating it if absent).
    pub(crate) fn add_block(&mut self, i: usize, j: usize, alpha: c64, block: &CMatrix) {
        let s = self
            .slot(i, j)
            .unwrap_or_else(|| panic!("block ({i},{j}) outside bandwidth {}", self.bandwidth));
        match &mut self.blocks[s] {
            Some(existing) => existing.axpy(alpha, block),
            slot_ref @ None => {
                *slot_ref = Some(block.scaled(alpha));
            }
        }
    }

    /// Iterate over stored blocks as `(i, j, &block)`.
    pub(crate) fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &CMatrix)> + '_ {
        (0..self.n_blocks).flat_map(move |i| {
            let lo = i.saturating_sub(self.bandwidth);
            let hi = (i + self.bandwidth).min(self.n_blocks - 1);
            (lo..=hi).filter_map(move |j| self.block(i, j).map(|b| (i, j, b)))
        })
    }

    /// Number of scalar non-zeros, counting every entry of every stored block.
    ///
    /// This is the quantity reported as `H_NNZ` / `G_NNZ` in the paper's Table 3.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.iter_blocks().count() * self.block_size * self.block_size
    }

    /// Convert to a dense matrix (testing / small systems only).
    pub fn to_dense(&self) -> CMatrix {
        let mut dense = CMatrix::zeros(self.dim(), self.dim());
        for (i, j, b) in self.iter_blocks() {
            dense.set_submatrix(i * self.block_size, j * self.block_size, b);
        }
        dense
    }

    /// Element-wise `self + alpha·other`. Both operands must share the block
    /// grid; the result has the larger of the two bandwidths.
    pub fn add(&self, alpha: c64, other: &BlockBanded) -> BlockBanded {
        assert_eq!(self.n_blocks, other.n_blocks, "block count mismatch");
        assert_eq!(self.block_size, other.block_size, "block size mismatch");
        let bw = self.bandwidth.max(other.bandwidth);
        let mut out = BlockBanded::zeros(self.n_blocks, self.block_size, bw);
        for (i, j, b) in self.iter_blocks() {
            out.add_block(i, j, c64::new(1.0, 0.0), b);
        }
        for (i, j, b) in other.iter_blocks() {
            out.add_block(i, j, alpha, b);
        }
        out
    }

    /// Scale every stored block by `alpha` in place.
    pub fn scale_mut(&mut self, alpha: c64) {
        for b in self.blocks.iter_mut().flatten() {
            b.scale_mut(alpha);
        }
    }

    /// Banded × banded product. The result bandwidth is the sum of the operand
    /// bandwidths (paper Section 4.3.1: `V·P` has bandwidth `2·bw`, `V·P·V†`
    /// has `3·bw`). Optionally returns the number of real FLOPs performed.
    pub fn multiply(&self, other: &BlockBanded) -> (BlockBanded, u64) {
        assert_eq!(self.n_blocks, other.n_blocks, "block count mismatch");
        assert_eq!(self.block_size, other.block_size, "block size mismatch");
        let bw = (self.bandwidth + other.bandwidth).min(self.n_blocks.saturating_sub(1));
        let mut out = BlockBanded::zeros(self.n_blocks, self.block_size, bw);
        let mut flops = 0u64;
        for i in 0..self.n_blocks {
            let klo = i.saturating_sub(self.bandwidth);
            let khi = (i + self.bandwidth).min(self.n_blocks - 1);
            for k in klo..=khi {
                let Some(a_ik) = self.block(i, k) else {
                    continue;
                };
                let jlo = k.saturating_sub(other.bandwidth);
                let jhi = (k + other.bandwidth).min(self.n_blocks - 1);
                for j in jlo..=jhi {
                    let Some(b_kj) = other.block(k, j) else {
                        continue;
                    };
                    if (j as isize - i as isize).unsigned_abs() > bw {
                        continue;
                    }
                    // out[i,j] += a_ik * b_kj
                    let s = out.slot(i, j).expect("within result bandwidth");
                    if out.blocks[s].is_none() {
                        out.blocks[s] = Some(CMatrix::zeros(self.block_size, self.block_size));
                    }
                    matmul_acc(
                        out.blocks[s].as_mut().expect("just created"),
                        c64::new(1.0, 0.0),
                        a_ik,
                        b_kj,
                    );
                    flops += gemm_flops(self.block_size, self.block_size, self.block_size);
                }
            }
        }
        (out, flops)
    }

    /// Banded × daggered-banded product `A · B†` without materializing `B†`:
    /// the per-block conjugate transposes are fused into the GEMM kernel
    /// loads ([`Op::Dagger`]). Result bandwidth and FLOP count are exactly
    /// those of `self.multiply(&other.dagger())`, and the block accumulation
    /// order matches, so the results agree bit for bit — this is the
    /// `V·P≶·V†` right-hand-side path of the W assembly (paper
    /// Section 4.3.1).
    pub fn multiply_dagger(&self, other: &BlockBanded) -> (BlockBanded, u64) {
        assert_eq!(self.n_blocks, other.n_blocks, "block count mismatch");
        assert_eq!(self.block_size, other.block_size, "block size mismatch");
        let bw = (self.bandwidth + other.bandwidth).min(self.n_blocks.saturating_sub(1));
        let mut out = BlockBanded::zeros(self.n_blocks, self.block_size, bw);
        let mut flops = 0u64;
        for i in 0..self.n_blocks {
            let klo = i.saturating_sub(self.bandwidth);
            let khi = (i + self.bandwidth).min(self.n_blocks - 1);
            for k in klo..=khi {
                let Some(a_ik) = self.block(i, k) else {
                    continue;
                };
                // B†[k, j] = (B[j, k])†: stored blocks of column k of B.
                let jlo = k.saturating_sub(other.bandwidth);
                let jhi = (k + other.bandwidth).min(self.n_blocks - 1);
                for j in jlo..=jhi {
                    let Some(b_jk) = other.block(j, k) else {
                        continue;
                    };
                    if (j as isize - i as isize).unsigned_abs() > bw {
                        continue;
                    }
                    let s = out.slot(i, j).expect("within result bandwidth");
                    if out.blocks[s].is_none() {
                        out.blocks[s] = Some(CMatrix::zeros(self.block_size, self.block_size));
                    }
                    gemm(
                        out.blocks[s].as_mut().expect("just created"),
                        ONE,
                        Op::None(a_ik),
                        Op::Dagger(b_jk),
                        ONE,
                    );
                    flops += gemm_flops(self.block_size, self.block_size, self.block_size);
                }
            }
        }
        (out, flops)
    }

    /// Conjugate transpose of the whole banded matrix.
    pub fn dagger(&self) -> BlockBanded {
        let mut out = BlockBanded::zeros(self.n_blocks, self.block_size, self.bandwidth);
        for (i, j, b) in self.iter_blocks() {
            out.set_block(j, i, b.dagger());
        }
        out
    }

    /// True if the banded matrix is Hermitian within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        for (i, j, b) in self.iter_blocks() {
            let other = self.block(j, i);
            match other {
                Some(o) => {
                    if !b.dagger().approx_eq(o, tol) {
                        return false;
                    }
                }
                None => {
                    if b.norm_max() > tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Regroup `n_u` consecutive primitive blocks into one transport cell,
    /// producing the block-tridiagonal matrix consumed by RGF (paper Fig. 2:
    /// `N_BS = Ñ_BS·N_U`). Requires `bandwidth ≤ n_u` so that the regrouped
    /// matrix really is block-tridiagonal, and `n_blocks` divisible by `n_u`.
    pub fn to_tridiagonal(&self, n_u: usize) -> BlockTridiagonal {
        assert!(n_u >= 1, "n_u must be at least 1");
        assert!(
            self.bandwidth <= n_u,
            "bandwidth {} exceeds grouping factor {n_u}; result would not be tridiagonal",
            self.bandwidth
        );
        assert_eq!(self.n_blocks % n_u, 0, "n_blocks must be divisible by n_u");
        let nb = self.n_blocks / n_u;
        let bs = self.block_size * n_u;
        let mut diag = vec![CMatrix::zeros(bs, bs); nb];
        let mut upper = vec![CMatrix::zeros(bs, bs); nb.saturating_sub(1)];
        let mut lower = vec![CMatrix::zeros(bs, bs); nb.saturating_sub(1)];
        for (i, j, b) in self.iter_blocks() {
            let bi = i / n_u;
            let bj = j / n_u;
            let ri = (i % n_u) * self.block_size;
            let cj = (j % n_u) * self.block_size;
            if bi == bj {
                diag[bi].set_submatrix(ri, cj, b);
            } else if bj == bi + 1 {
                upper[bi].set_submatrix(ri, cj, b);
            } else if bi == bj + 1 {
                lower[bj].set_submatrix(ri, cj, b);
            } else {
                unreachable!("bandwidth <= n_u guarantees |bi-bj| <= 1");
            }
        }
        BlockTridiagonal::from_parts(diag, upper, lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;
    use quatrex_linalg::ops::matmul;

    fn cell_blocks(bs: usize) -> (CMatrix, Vec<CMatrix>) {
        let diag = CMatrix::from_fn(bs, bs, |i, j| {
            if i == j {
                cplx(2.0, 0.0)
            } else {
                cplx(-0.3, 0.1 * (i as f64 - j as f64))
            }
        })
        .hermitian_part();
        let off1 = CMatrix::from_fn(bs, bs, |i, j| cplx(-0.5 / (1.0 + (i + j) as f64), 0.05));
        let off2 = CMatrix::from_fn(bs, bs, |i, j| cplx(0.1 / (2.0 + (i * j) as f64), -0.02));
        (diag, vec![off1, off2])
    }

    #[test]
    fn periodic_construction_is_hermitian() {
        let (d, offs) = cell_blocks(3);
        let h = BlockBanded::from_periodic_cell(6, &d, &offs);
        assert!(h.is_hermitian(1e-14));
        assert_eq!(h.bandwidth(), 2);
        assert_eq!(h.dim(), 18);
        assert!(h.to_dense().is_hermitian(1e-14));
    }

    #[test]
    fn nnz_counts_stored_blocks() {
        let (d, offs) = cell_blocks(2);
        let h = BlockBanded::from_periodic_cell(4, &d, &offs[..1]);
        // 4 diagonal + 3 upper + 3 lower = 10 blocks of 4 entries.
        assert_eq!(h.nnz(), 40);
    }

    #[test]
    fn banded_product_matches_dense_product() {
        let (d, offs) = cell_blocks(2);
        let a = BlockBanded::from_periodic_cell(5, &d, &offs[..1]);
        let b = BlockBanded::from_periodic_cell(5, &d, &offs);
        let (ab, flops) = a.multiply(&b);
        assert!(flops > 0);
        assert_eq!(ab.bandwidth(), 3);
        let dense = matmul(&a.to_dense(), &b.to_dense());
        assert!(ab.to_dense().approx_eq(&dense, 1e-10));
    }

    #[test]
    fn multiply_dagger_matches_materialized_dagger_bit_for_bit() {
        let (d, offs) = cell_blocks(2);
        let mut a = BlockBanded::from_periodic_cell(6, &d, &offs[..1]);
        let mut b = BlockBanded::from_periodic_cell(6, &d, &offs);
        // Break hermiticity so the dagger is non-trivial.
        a.set_block(
            0,
            1,
            CMatrix::from_fn(2, 2, |i, j| cplx(i as f64, 1.0 + j as f64)),
        );
        b.set_block(
            2,
            1,
            CMatrix::from_fn(2, 2, |i, j| cplx(-(i as f64), j as f64)),
        );
        let (fused, fl_fused) = a.multiply_dagger(&b);
        let (materialized, fl_mat) = a.multiply(&b.dagger());
        assert_eq!(fl_fused, fl_mat);
        assert_eq!(fused.bandwidth(), materialized.bandwidth());
        assert!(fused.to_dense().approx_eq(&materialized.to_dense(), 0.0));
    }

    #[test]
    fn product_bandwidth_growth_matches_paper() {
        // V and P share bandwidth bw; V*P has 2bw and V*P*V† has 3bw
        // (clamped by the matrix size), cf. Section 4.3.1.
        let (d, offs) = cell_blocks(2);
        let v = BlockBanded::from_periodic_cell(8, &d, &offs[..1]);
        let p = BlockBanded::from_periodic_cell(8, &d, &offs[..1]);
        let (vp, _) = v.multiply(&p);
        assert_eq!(vp.bandwidth(), 2);
        let (vpv, _) = vp.multiply(&v.dagger());
        assert_eq!(vpv.bandwidth(), 3);
    }

    #[test]
    fn add_and_scale() {
        let (d, offs) = cell_blocks(2);
        let a = BlockBanded::from_periodic_cell(4, &d, &offs[..1]);
        let sum = a.add(cplx(-1.0, 0.0), &a);
        assert!(sum.to_dense().norm_max() < 1e-14);
        let mut b = a.clone();
        b.scale_mut(cplx(2.0, 0.0));
        assert!(b
            .to_dense()
            .approx_eq(&a.to_dense().scaled(cplx(2.0, 0.0)), 1e-13));
    }

    #[test]
    fn dagger_matches_dense_dagger() {
        let (d, offs) = cell_blocks(3);
        let mut a = BlockBanded::from_periodic_cell(4, &d, &offs[..1]);
        // Break hermiticity so dagger is non-trivial.
        a.set_block(
            0,
            1,
            CMatrix::from_fn(3, 3, |i, j| cplx(i as f64, j as f64)),
        );
        assert!(a
            .dagger()
            .to_dense()
            .approx_eq(&a.to_dense().dagger(), 1e-13));
    }

    #[test]
    fn regrouping_to_tridiagonal_preserves_dense_form() {
        let (d, offs) = cell_blocks(2);
        let h = BlockBanded::from_periodic_cell(12, &d, &offs); // bandwidth 2
        let bt = h.to_tridiagonal(4); // N_U = 4 >= bandwidth
        assert_eq!(bt.n_blocks(), 3);
        assert_eq!(bt.block_size(), 8);
        assert!(bt.to_dense().approx_eq(&h.to_dense(), 1e-13));
    }

    #[test]
    #[should_panic]
    fn regrouping_with_too_small_n_u_panics() {
        let (d, offs) = cell_blocks(2);
        let h = BlockBanded::from_periodic_cell(12, &d, &offs);
        let _ = h.to_tridiagonal(1);
    }

    #[test]
    fn out_of_band_block_access_returns_none() {
        let (d, offs) = cell_blocks(2);
        let h = BlockBanded::from_periodic_cell(6, &d, &offs[..1]);
        assert!(h.block(0, 3).is_none());
        assert!(h.block(0, 1).is_some());
    }
}
