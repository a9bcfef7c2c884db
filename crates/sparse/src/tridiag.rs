//! Block-tridiagonal matrices in the transport-cell tiling.

use quatrex_linalg::{c64, CMatrix};

/// Block-tridiagonal matrix with `n_blocks` square diagonal blocks of uniform
/// size `block_size` (the transport-cell size `N_BS` of the paper), plus the
/// first super- and sub-diagonal blocks.
///
/// This is the form consumed by the recursive Green's function solver and by
/// the nested-dissection distributed solver.
#[derive(Debug, Clone)]
pub struct BlockTridiagonal {
    diag: Vec<CMatrix>,
    upper: Vec<CMatrix>,
    lower: Vec<CMatrix>,
    block_size: usize,
}

impl BlockTridiagonal {
    /// Create an all-zero block-tridiagonal matrix.
    pub fn zeros(n_blocks: usize, block_size: usize) -> Self {
        Self {
            diag: vec![CMatrix::zeros(block_size, block_size); n_blocks],
            upper: vec![CMatrix::zeros(block_size, block_size); n_blocks.saturating_sub(1)],
            lower: vec![CMatrix::zeros(block_size, block_size); n_blocks.saturating_sub(1)],
            block_size,
        }
    }

    /// Assemble from explicit diagonal, upper and lower block vectors.
    ///
    /// `upper[i]` is block `(i, i+1)` and `lower[i]` is block `(i+1, i)`.
    pub fn from_parts(diag: Vec<CMatrix>, upper: Vec<CMatrix>, lower: Vec<CMatrix>) -> Self {
        assert!(!diag.is_empty(), "at least one diagonal block required");
        let block_size = diag[0].nrows();
        assert_eq!(
            upper.len(),
            diag.len() - 1,
            "upper diagonal length mismatch"
        );
        assert_eq!(
            lower.len(),
            diag.len() - 1,
            "lower diagonal length mismatch"
        );
        for b in diag.iter().chain(upper.iter()).chain(lower.iter()) {
            assert_eq!(
                b.shape(),
                (block_size, block_size),
                "inconsistent block shapes"
            );
        }
        Self {
            diag,
            upper,
            lower,
            block_size,
        }
    }

    /// Build a block-Toeplitz tridiagonal matrix from one diagonal block and
    /// one coupling block (sub-diagonal = coupling†), as for a periodic wire.
    pub fn from_periodic(n_blocks: usize, diag_block: &CMatrix, coupling: &CMatrix) -> Self {
        let bs = diag_block.nrows();
        assert!(diag_block.is_square() && coupling.shape() == (bs, bs));
        Self {
            diag: vec![diag_block.clone(); n_blocks],
            upper: vec![coupling.clone(); n_blocks.saturating_sub(1)],
            lower: vec![coupling.dagger(); n_blocks.saturating_sub(1)],
            block_size: bs,
        }
    }

    /// Number of diagonal blocks (`N_B`).
    pub fn n_blocks(&self) -> usize {
        self.diag.len()
    }

    /// Block size (`N_BS`).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Full matrix dimension `N_B·N_BS`.
    pub fn dim(&self) -> usize {
        self.n_blocks() * self.block_size
    }

    /// Diagonal block `(i, i)`.
    pub fn diag(&self, i: usize) -> &CMatrix {
        &self.diag[i]
    }

    /// Mutable diagonal block `(i, i)`.
    pub fn diag_mut(&mut self, i: usize) -> &mut CMatrix {
        &mut self.diag[i]
    }

    /// Super-diagonal block `(i, i+1)`.
    pub fn upper(&self, i: usize) -> &CMatrix {
        &self.upper[i]
    }

    /// Mutable super-diagonal block `(i, i+1)`.
    pub fn upper_mut(&mut self, i: usize) -> &mut CMatrix {
        &mut self.upper[i]
    }

    /// Sub-diagonal block `(i+1, i)`.
    pub fn lower(&self, i: usize) -> &CMatrix {
        &self.lower[i]
    }

    /// Mutable sub-diagonal block `(i+1, i)`.
    pub fn lower_mut(&mut self, i: usize) -> &mut CMatrix {
        &mut self.lower[i]
    }

    /// Every stored block in storage order: the diagonal, then the super-,
    /// then the sub-diagonal.
    pub fn blocks(&self) -> impl Iterator<Item = &CMatrix> {
        self.diag.iter().chain(&self.upper).chain(&self.lower)
    }

    /// Mutable [`Self::blocks`], same order.
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = &mut CMatrix> {
        self.diag
            .iter_mut()
            .chain(&mut self.upper)
            .chain(&mut self.lower)
    }

    /// Generic block accessor for `|i − j| ≤ 1`; returns `None` outside the band.
    pub fn block(&self, i: usize, j: usize) -> Option<&CMatrix> {
        if i >= self.n_blocks() || j >= self.n_blocks() {
            return None;
        }
        if i == j {
            Some(&self.diag[i])
        } else if j == i + 1 {
            Some(&self.upper[i])
        } else if i == j + 1 {
            Some(&self.lower[j])
        } else {
            None
        }
    }

    /// Mutable [`Self::block`].
    pub fn block_mut(&mut self, i: usize, j: usize) -> Option<&mut CMatrix> {
        if i >= self.n_blocks() || j >= self.n_blocks() {
            return None;
        }
        if i == j {
            Some(&mut self.diag[i])
        } else if j == i + 1 {
            Some(&mut self.upper[i])
        } else if i == j + 1 {
            Some(&mut self.lower[j])
        } else {
            None
        }
    }

    /// Set any block within the tridiagonal band.
    pub fn set_block(&mut self, i: usize, j: usize, block: CMatrix) {
        assert_eq!(
            block.shape(),
            (self.block_size, self.block_size),
            "block shape mismatch"
        );
        if i == j {
            self.diag[i] = block;
        } else if j == i + 1 {
            self.upper[i] = block;
        } else if i == j + 1 {
            self.lower[j] = block;
        } else {
            panic!("block ({i},{j}) outside the tridiagonal band");
        }
    }

    /// Blocks `range` (and the couplings between them) as a block-tridiagonal
    /// matrix of their own, in local indices. An empty range gives an empty
    /// matrix.
    pub fn sub_range(&self, range: std::ops::Range<usize>) -> BlockTridiagonal {
        let couplings = range.start..range.end.saturating_sub(1).max(range.start);
        BlockTridiagonal {
            diag: self.diag[range].to_vec(),
            upper: self.upper[couplings.clone()].to_vec(),
            lower: self.lower[couplings].to_vec(),
            block_size: self.block_size,
        }
    }

    /// Overwrite blocks `at..at + src.n_blocks()` (and the couplings between
    /// them) with `src` — the inverse of [`Self::sub_range`].
    pub fn write_range(&mut self, at: usize, src: &BlockTridiagonal) {
        let (n, m) = (src.diag.len(), src.upper.len());
        self.diag[at..at + n].clone_from_slice(&src.diag);
        self.upper[at..at + m].clone_from_slice(&src.upper);
        self.lower[at..at + m].clone_from_slice(&src.lower);
    }

    /// Element-wise `self + alpha·other`.
    pub fn add(&self, alpha: c64, other: &BlockTridiagonal) -> BlockTridiagonal {
        assert_eq!(self.n_blocks(), other.n_blocks());
        assert_eq!(self.block_size, other.block_size);
        let mut out = self.clone();
        for i in 0..out.diag.len() {
            out.diag[i].axpy(alpha, &other.diag[i]);
        }
        for i in 0..out.upper.len() {
            out.upper[i].axpy(alpha, &other.upper[i]);
            out.lower[i].axpy(alpha, &other.lower[i]);
        }
        out
    }

    /// Scale all blocks by `alpha` in place.
    pub fn scale_mut(&mut self, alpha: c64) {
        for b in self.blocks_mut() {
            b.scale_mut(alpha);
        }
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> BlockTridiagonal {
        let diag = self.diag.iter().map(|b| b.dagger()).collect();
        let upper = self.lower.iter().map(|b| b.dagger()).collect();
        let lower = self.upper.iter().map(|b| b.dagger()).collect();
        BlockTridiagonal {
            diag,
            upper,
            lower,
            block_size: self.block_size,
        }
    }

    /// Enforce the NEGF lesser/greater symmetry `X_ij = −X*_ji` block-wise,
    /// i.e. replace the matrix by `(X − X†)/2` (paper Section 5.2).
    pub fn symmetrize_negf(&mut self) {
        let half = c64::new(0.5, 0.0);
        for b in self.diag.iter_mut() {
            *b = b.negf_antihermitian_part();
        }
        for i in 0..self.upper.len() {
            let u = self.upper[i].clone();
            let l = self.lower[i].clone();
            // upper <- (upper - lower†)/2 ; lower <- (lower - upper†)/2
            let mut new_u = u.clone();
            new_u.axpy(c64::new(-1.0, 0.0), &l.dagger());
            new_u.scale_mut(half);
            let mut new_l = l;
            new_l.axpy(c64::new(-1.0, 0.0), &u.dagger());
            new_l.scale_mut(half);
            self.upper[i] = new_u;
            self.lower[i] = new_l;
        }
    }

    /// Maximum block-wise violation of the NEGF symmetry `X_ij = −X*_ji`.
    pub fn negf_symmetry_error(&self) -> f64 {
        let mut err = 0.0f64;
        for b in &self.diag {
            let mut sum = b.clone();
            sum.axpy(c64::new(1.0, 0.0), &b.dagger());
            err = err.max(sum.norm_max());
        }
        for i in 0..self.upper.len() {
            let mut sum = self.upper[i].clone();
            sum.axpy(c64::new(1.0, 0.0), &self.lower[i].dagger());
            err = err.max(sum.norm_max());
        }
        err
    }

    /// True if the matrix is Hermitian within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        for b in &self.diag {
            if !b.is_hermitian(tol) {
                return false;
            }
        }
        for i in 0..self.upper.len() {
            if !self.upper[i].dagger().approx_eq(&self.lower[i], tol) {
                return false;
            }
        }
        true
    }

    /// Frobenius norm over all stored blocks.
    pub fn norm_fro(&self) -> f64 {
        let mut acc = 0.0;
        for b in self.blocks() {
            acc += b.norm_fro().powi(2);
        }
        acc.sqrt()
    }

    /// Number of scalar non-zeros stored (diagonal + both first off-diagonals).
    pub fn nnz(&self) -> usize {
        let nb = self.n_blocks();
        (nb + 2 * (nb.saturating_sub(1))) * self.block_size * self.block_size
    }

    /// Convert to a dense matrix (testing / small systems only).
    pub fn to_dense(&self) -> CMatrix {
        let n = self.dim();
        let bs = self.block_size;
        let mut dense = CMatrix::zeros(n, n);
        for (i, b) in self.diag.iter().enumerate() {
            dense.set_submatrix(i * bs, i * bs, b);
        }
        for (i, b) in self.upper.iter().enumerate() {
            dense.set_submatrix(i * bs, (i + 1) * bs, b);
        }
        for (i, b) in self.lower.iter().enumerate() {
            dense.set_submatrix((i + 1) * bs, i * bs, b);
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    fn sample_bt(nb: usize, bs: usize) -> BlockTridiagonal {
        let d = CMatrix::from_fn(bs, bs, |i, j| {
            if i == j {
                cplx(2.0, 0.0)
            } else {
                cplx(-0.2, 0.1)
            }
        });
        let c = CMatrix::from_fn(bs, bs, |i, j| cplx(-0.5 + 0.05 * i as f64, 0.02 * j as f64));
        BlockTridiagonal::from_periodic(nb, &d, &c)
    }

    #[test]
    fn construction_and_dimensions() {
        let bt = sample_bt(5, 3);
        assert_eq!(bt.n_blocks(), 5);
        assert_eq!(bt.block_size(), 3);
        assert_eq!(bt.dim(), 15);
        assert_eq!(bt.nnz(), (5 + 8) * 9);
    }

    #[test]
    fn block_accessors_cover_band_only() {
        let bt = sample_bt(4, 2);
        assert!(bt.block(1, 1).is_some());
        assert!(bt.block(1, 2).is_some());
        assert!(bt.block(2, 1).is_some());
        assert!(bt.block(0, 2).is_none());
        assert!(bt.block(5, 0).is_none());
    }

    #[test]
    fn periodic_construction_has_hermitian_couplings() {
        let bt = sample_bt(4, 3);
        // upper(i) = lower(i)† by construction, but diag may not be Hermitian here.
        for i in 0..3 {
            assert!(bt.upper(i).dagger().approx_eq(bt.lower(i), 1e-14));
        }
    }

    #[test]
    fn to_dense_roundtrip_via_set_block() {
        let mut bt = BlockTridiagonal::zeros(3, 2);
        let b = CMatrix::from_fn(2, 2, |i, j| cplx((i + j) as f64, 1.0));
        bt.set_block(0, 1, b.clone());
        bt.set_block(2, 1, b.dagger());
        let dense = bt.to_dense();
        assert_eq!(dense[(0, 2)], b[(0, 0)]);
        assert_eq!(dense[(4, 2)], b.dagger()[(0, 0)]);
    }

    #[test]
    fn sub_range_and_write_range_are_inverse() {
        let bt = sample_bt(6, 2);
        let cut = bt.sub_range(2..5);
        assert_eq!(cut.n_blocks(), 3);
        assert!(cut.diag(0).approx_eq(bt.diag(2), 0.0));
        assert!(cut.upper(1).approx_eq(bt.upper(3), 0.0));
        assert!(cut.lower(0).approx_eq(bt.lower(2), 0.0));
        let mut target = BlockTridiagonal::zeros(6, 2);
        target.write_range(2, &cut);
        for i in 2..5 {
            assert!(target.diag(i).approx_eq(bt.diag(i), 0.0));
        }
        // Only the couplings *inside* the range travel.
        assert!(target.upper(2).approx_eq(bt.upper(2), 0.0));
        assert_eq!(target.upper(1).norm_fro(), 0.0);
        assert_eq!(target.lower(4).norm_fro(), 0.0);
        // Empty ranges cut and write nothing, wherever they sit.
        for at in [0, 3] {
            let empty = bt.sub_range(at..at);
            assert_eq!((empty.n_blocks(), empty.nnz()), (0, 0));
        }
        let before = target.to_dense();
        target.write_range(4, &bt.sub_range(4..4));
        assert!(target.to_dense().approx_eq(&before, 0.0));
    }

    #[test]
    fn add_and_scale_are_linear() {
        let bt = sample_bt(4, 2);
        let sum = bt.add(cplx(1.0, 0.0), &bt);
        let mut doubled = bt.clone();
        doubled.scale_mut(cplx(2.0, 0.0));
        assert!(sum.to_dense().approx_eq(&doubled.to_dense(), 1e-13));
    }

    #[test]
    fn dagger_matches_dense() {
        let bt = sample_bt(4, 3);
        assert!(bt
            .dagger()
            .to_dense()
            .approx_eq(&bt.to_dense().dagger(), 1e-13));
    }

    #[test]
    fn negf_symmetrization_enforces_antihermiticity() {
        let mut bt = sample_bt(5, 3);
        assert!(bt.negf_symmetry_error() > 1e-3);
        bt.symmetrize_negf();
        assert!(bt.negf_symmetry_error() < 1e-14);
        assert!(bt.to_dense().is_negf_antihermitian(1e-13));
    }

    #[test]
    fn symmetrization_is_idempotent() {
        let mut bt = sample_bt(4, 2);
        bt.symmetrize_negf();
        let once = bt.to_dense();
        bt.symmetrize_negf();
        assert!(bt.to_dense().approx_eq(&once, 1e-14));
    }

    #[test]
    fn hermiticity_check() {
        let d = CMatrix::identity(2).scaled(cplx(1.5, 0.0));
        let c = CMatrix::from_fn(2, 2, |i, j| cplx(0.1 * (i + j) as f64, 0.3));
        let bt = BlockTridiagonal::from_periodic(4, &d, &c);
        assert!(bt.is_hermitian(1e-14));
    }

    #[test]
    #[should_panic]
    fn out_of_band_set_panics() {
        let mut bt = BlockTridiagonal::zeros(4, 2);
        bt.set_block(0, 3, CMatrix::zeros(2, 2));
    }
}
