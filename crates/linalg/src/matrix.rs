//! Column-major dense complex matrix container.
//!
//! [`CMatrix`] is the single dense-matrix type used by every QuaTrEx-RS kernel.
//! It is deliberately small and predictable: a `Vec<c64>` in column-major
//! (Fortran/BLAS) order plus the two dimensions. All higher-level containers
//! (block-banded, block-tridiagonal) are built from `CMatrix` blocks of size
//! `N_BS × N_BS` (the transport-cell size of the paper).

use crate::{c64, ZERO};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense, column-major, double-precision complex matrix.
///
/// The `Default` is the empty `0 × 0` matrix (used by scratch types that are
/// warmed lazily). `clone_from` reuses the destination's buffer.
#[derive(PartialEq, Default)]
pub struct CMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<c64>,
}

impl Clone for CMatrix {
    fn clone(&self) -> Self {
        Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.nrows = source.nrows;
        self.ncols = source.ncols;
        self.data.clone_from(&source.data);
    }
}

impl CMatrix {
    /// Create a matrix of zeros with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![ZERO; nrows * ncols],
        }
    }

    /// Create an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::new(1.0, 0.0);
        }
        m
    }

    /// Create a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Create a matrix from a row-major slice of values.
    ///
    /// Panics if `values.len() != nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, values: &[c64]) -> Self {
        assert_eq!(
            values.len(),
            nrows * ncols,
            "row-major data length mismatch"
        );
        Self::from_fn(nrows, ncols, |i, j| values[i * ncols + j])
    }

    /// Create a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[c64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Create a scalar multiple of the identity, `alpha * I_n`.
    pub fn scaled_identity(n: usize, alpha: c64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = alpha;
        }
        m
    }

    /// Wrap an existing column-major buffer. Panics if the length does not
    /// match the shape. Used by the scratch arena to recycle buffers without
    /// reallocating.
    pub fn from_raw(nrows: usize, ncols: usize, data: Vec<c64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "raw buffer length mismatch");
        Self { nrows, ncols, data }
    }

    /// Overwrite every entry with `other`'s (same shape required). Never
    /// reallocates.
    pub fn copy_from(&mut self, other: &CMatrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// `self` as an `nrows × ncols` matrix: unchanged if it has that shape,
    /// reshaped to zero ([`Self::resize_zeroed`]) otherwise. The output
    /// buffers of the in-place kernels go through this: warmed at a shape,
    /// it never allocates.
    pub fn fit(&mut self, nrows: usize, ncols: usize) -> &mut CMatrix {
        if self.shape() != (nrows, ncols) {
            self.resize_zeroed(nrows, ncols);
        }
        self
    }

    /// Reshape in place to a zero `nrows × ncols` matrix, reusing the buffer
    /// when its capacity allows.
    pub fn resize_zeroed(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, ZERO);
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// True if the matrix is square.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Raw column-major data slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[c64] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// Borrow one column as a slice (columns are contiguous in memory).
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[c64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrow one column as a slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [c64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Extract one row as an owned vector.
    pub fn row(&self, i: usize) -> Vec<c64> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Main diagonal as an owned vector.
    pub fn diagonal(&self) -> Vec<c64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Trace (sum of diagonal entries). Requires a square matrix.
    pub fn trace(&self) -> c64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Transpose (without conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `A†` ("dagger").
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v = v.conj();
        }
        out
    }

    /// Scale every entry by `alpha` in place.
    pub fn scale_mut(&mut self, alpha: c64) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// Return `alpha * A`.
    pub fn scaled(&self, alpha: c64) -> CMatrix {
        let mut out = self.clone();
        out.scale_mut(alpha);
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: c64, other: &CMatrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (`max_ij |A_ij|`).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }

    /// Frobenius distance `‖A − B‖_F`.
    pub fn distance(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "distance shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// True if `‖A − B‖_max <= tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .all(|(a, b)| (a - b).norm() <= tol)
    }

    /// True if the matrix is Hermitian within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.ncols {
            for i in 0..=j {
                if (self[(i, j)] - self[(j, i)].conj()).norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// True if the matrix is anti-Hermitian in the lesser/greater sense
    /// `X_ij = -X_ji^*` used throughout the NEGF formalism, within `tol`.
    pub fn is_negf_antihermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for j in 0..self.ncols {
            for i in 0..=j {
                if (self[(i, j)] + self[(j, i)].conj()).norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Copy a rectangular sub-matrix `A[r0..r0+nr, c0..c0+nc]`.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> CMatrix {
        assert!(
            r0 + nr <= self.nrows && c0 + nc <= self.ncols,
            "submatrix out of bounds"
        );
        CMatrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Overwrite the block starting at `(r0, c0)` with `block`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &CMatrix) {
        assert!(
            r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols,
            "set_submatrix out of bounds"
        );
        for j in 0..block.ncols {
            for i in 0..block.nrows {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![ZERO; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == ZERO {
                continue;
            }
            let col = self.col(j);
            for i in 0..self.nrows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// Hermitian symmetrization `(A + A†)/2`.
    pub fn hermitian_part(&self) -> CMatrix {
        assert!(self.is_square());
        let dag = self.dagger();
        let mut out = self.clone();
        out.axpy(c64::new(1.0, 0.0), &dag);
        out.scale_mut(c64::new(0.5, 0.0));
        out
    }

    /// NEGF lesser/greater symmetrization `(A − A†)/2`, which enforces
    /// `X_ij = −X_ji^*` exactly (paper Section 5.2).
    pub fn negf_antihermitian_part(&self) -> CMatrix {
        assert!(self.is_square());
        let dag = self.dagger();
        let mut out = self.clone();
        out.axpy(c64::new(-1.0, 0.0), &dag);
        out.scale_mut(c64::new(0.5, 0.0));
        out
    }

    /// Fill with samples from the provided closure (useful for random test data).
    pub fn fill_with(&mut self, mut f: impl FnMut() -> c64) {
        for v in self.data.iter_mut() {
            *v = f();
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> c64 {
        self.data.iter().copied().sum()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = c64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.nrows + i]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        debug_assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.nrows + i]
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let mut out = self.clone();
        out.axpy(c64::new(1.0, 0.0), rhs);
        out
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = self.clone();
        out.axpy(c64::new(-1.0, 0.0), rhs);
        out
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    fn add_assign(&mut self, rhs: &CMatrix) {
        self.axpy(c64::new(1.0, 0.0), rhs);
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    fn sub_assign(&mut self, rhs: &CMatrix) {
        self.axpy(c64::new(-1.0, 0.0), rhs);
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scaled(c64::new(-1.0, 0.0))
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        crate::ops::matmul(self, rhs)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.nrows, self.ncols)?;
        let max_show = 8usize;
        for i in 0..self.nrows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(max_show) {
                let v = self[(i, j)];
                write!(f, "({:+.3e},{:+.3e}) ", v.re, v.im)?;
            }
            if self.ncols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.nrows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;

    fn sample() -> CMatrix {
        CMatrix::from_fn(3, 3, |i, j| cplx((i + 1) as f64, (j as f64) - 1.0))
    }

    #[test]
    fn zeros_and_identity() {
        let z = CMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.norm_fro(), 0.0);
        let id = CMatrix::identity(4);
        assert_eq!(id.trace(), cplx(4.0, 0.0));
        assert!(id.is_hermitian(0.0));
    }

    #[test]
    fn indexing_is_column_major() {
        let mut m = CMatrix::zeros(2, 2);
        m[(1, 0)] = cplx(5.0, 0.0);
        assert_eq!(m.as_slice()[1], cplx(5.0, 0.0));
        assert_eq!(m.as_slice()[2], cplx(0.0, 0.0));
    }

    #[test]
    fn dagger_is_involutive() {
        let m = sample();
        assert!(m.dagger().dagger().approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_and_conj_compose_to_dagger() {
        let m = sample();
        assert!(m.transpose().conj().approx_eq(&m.dagger(), 0.0));
    }

    #[test]
    fn hermitian_and_antihermitian_parts_sum_to_original() {
        let m = sample();
        let h = m.hermitian_part();
        let a = m.negf_antihermitian_part();
        let sum = &h + &a;
        assert!(sum.approx_eq(&m, 1e-14));
        assert!(h.is_hermitian(1e-14));
        assert!(a.is_negf_antihermitian(1e-14));
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = sample();
        let sub = m.submatrix(1, 0, 2, 2);
        let mut big = CMatrix::zeros(3, 3);
        big.set_submatrix(1, 0, &sub);
        assert_eq!(big[(1, 0)], m[(1, 0)]);
        assert_eq!(big[(2, 1)], m[(2, 1)]);
        assert_eq!(big[(0, 0)], cplx(0.0, 0.0));
    }

    #[test]
    fn axpy_and_operators_agree() {
        let a = sample();
        let b = CMatrix::identity(3);
        let mut c = a.clone();
        c.axpy(cplx(2.0, 0.0), &b);
        let d = &a + &b.scaled(cplx(2.0, 0.0));
        assert!(c.approx_eq(&d, 1e-15));
        let e = &a - &a;
        assert_eq!(e.norm_fro(), 0.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(1.0, 0.0),
                cplx(2.0, 0.0),
                cplx(3.0, 0.0),
                cplx(4.0, 0.0),
            ],
        );
        let y = m.matvec(&[cplx(1.0, 0.0), cplx(1.0, 0.0)]);
        assert_eq!(y[0], cplx(3.0, 0.0));
        assert_eq!(y[1], cplx(7.0, 0.0));
    }

    #[test]
    fn norms_are_consistent() {
        let m = CMatrix::from_diagonal(&[cplx(3.0, 4.0), cplx(0.0, 0.0)]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert!((m.norm_max() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn trace_of_diagonal() {
        let m = CMatrix::from_diagonal(&[cplx(1.0, 1.0), cplx(2.0, -1.0)]);
        assert_eq!(m.trace(), cplx(3.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn add_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 2);
        let b = CMatrix::zeros(3, 3);
        let _ = &a + &b;
    }
}
