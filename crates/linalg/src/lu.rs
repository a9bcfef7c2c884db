//! LU factorisation with partial pivoting, linear solves and explicit inverses.
//!
//! Every RGF step (paper Eq. (9)) inverts one transport-cell-sized block
//! `(M̃_ii − M̃_ii-1 x^R_{i-1} M̃_{i-1i})⁻¹`, and the OBC fixed-point /
//! Sancho–Rubio iterations invert similar blocks. In the original code these
//! map to `getrf`/`getri` (cuSOLVER / rocSOLVER); here they are provided by
//! [`LuFactorization`] and its buffer-reusing wrapper [`LuScratch`].
//!
//! The factors live in split real/imaginary column-major planes and every
//! `O(n³)` loop is one contiguous column update `y ← y − x·s` of plain `f64`
//! lanes (`axpy_sub`, fused multiply-adds as in [`crate::ops`]): the
//! right-looking `kji` factorisation subtracts the `L` column from each
//! trailing column, the substitutions subtract factor columns from the
//! right-hand sides. There is one factorisation routine and one substitution
//! routine; solves, inverses and the scratch all run them, so they agree bit
//! for bit, run to run, within a build.

use crate::matrix::CMatrix;
use crate::ops::mul_add;
use crate::{c64, ONE, ZERO};

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuError {
    /// Pivot column at which factorisation broke down.
    pub column: usize,
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "singular matrix detected at pivot column {}",
            self.column
        )
    }
}

impl std::error::Error for LuError {}

/// LU factorisation `P·A = L·U` with partial (row) pivoting.
#[derive(Debug, Clone, Default)]
pub struct LuFactorization {
    /// Order of the factorised matrix.
    n: usize,
    /// Real plane of the packed, column-major LU factors (unit lower triangle
    /// below the diagonal, U on and above).
    re: Vec<f64>,
    /// Imaginary plane of the packed factors.
    im: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now stored in row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1 or -1), used for determinants.
    perm_sign: f64,
}

/// Right-hand-side columns [`LuFactorization::substitute`] sweeps together.
const SOLVE_GROUP: usize = 8;

/// `y[i] -= x[i] · s` on split planes over the common length: the contiguous
/// column update both the factorisation and the substitutions are made of.
/// Per element `yr ← fma(−xr, sr, yr)`, `yr ← fma(xi, si, yr)`,
/// `yi ← fma(−xr, si, yi)`, `yi ← fma(−xi, sr, yi)`.
#[inline(always)]
fn axpy_sub((yr, yi): (&mut [f64], &mut [f64]), (xr, xi): (&[f64], &[f64]), s: c64) {
    for (((yr, yi), xr), xi) in yr.iter_mut().zip(yi).zip(xr).zip(xi) {
        *yr = mul_add(*xi, s.im, mul_add(-*xr, s.re, *yr));
        *yi = mul_add(-*xi, s.re, mul_add(-*xr, s.im, *yi));
    }
}

impl LuFactorization {
    /// Factorise a square matrix. Returns an error if a pivot is (numerically) zero.
    pub fn new(a: &CMatrix) -> Result<Self, LuError> {
        assert!(a.is_square(), "LU requires a square matrix");
        let mut lu = Self::default();
        lu.refactor(a.as_slice(), a.nrows())?;
        Ok(lu)
    }

    /// Factorise the column-major `n × n` slice `a` into this object's
    /// buffers (no allocation once they have held a matrix of that order).
    ///
    /// Right-looking and column-oriented (`kji`): step `k` divides column `k`
    /// below the pivot into the `L` column and subtracts `u_kj` times that
    /// column from every trailing column `j` — one contiguous [`axpy_sub`]
    /// per column.
    fn refactor(&mut self, a: &[c64], n: usize) -> Result<(), LuError> {
        self.n = n;
        self.re.clear();
        self.re.extend(a.iter().map(|v| v.re));
        self.im.clear();
        self.im.extend(a.iter().map(|v| v.im));
        self.perm.clear();
        self.perm.extend(0..n);
        self.perm_sign = 1.0;
        for k in 0..n {
            // Find pivot row.
            let norm = |i: usize| self.re[k * n + i].hypot(self.im[k * n + i]);
            let mut p = k;
            let mut pmax = norm(k);
            for i in (k + 1)..n {
                let v = norm(i);
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return Err(LuError { column: k });
            }
            if p != k {
                for col in self
                    .re
                    .chunks_exact_mut(n)
                    .chain(self.im.chunks_exact_mut(n))
                {
                    col.swap(k, p);
                }
                self.perm.swap(k, p);
                self.perm_sign = -self.perm_sign;
            }
            let pivot = self.diagonal(k);
            let (done_re, trailing_re) = self.re.split_at_mut((k + 1) * n);
            let (done_im, trailing_im) = self.im.split_at_mut((k + 1) * n);
            let (l_re, l_im) = (&mut done_re[k * n + k + 1..], &mut done_im[k * n + k + 1..]);
            for (lr, li) in l_re.iter_mut().zip(l_im.iter_mut()) {
                let factor = c64::new(*lr, *li) / pivot;
                (*lr, *li) = (factor.re, factor.im);
            }
            let columns = trailing_re
                .chunks_exact_mut(n)
                .zip(trailing_im.chunks_exact_mut(n));
            for (col_re, col_im) in columns {
                let u_kj = c64::new(col_re[k], col_im[k]);
                axpy_sub(
                    (&mut col_re[k + 1..], &mut col_im[k + 1..]),
                    (l_re, l_im),
                    u_kj,
                );
            }
        }
        Ok(())
    }

    /// Solve `L·U·x = b` in place for every `n`-element column of the split
    /// planes `x`, which hold the row-permuted right-hand sides on entry.
    ///
    /// Column-oriented: step `l` of the forward sweep subtracts `x_l` times
    /// the `L` column `l` from the entries below, step `l` of the backward
    /// sweep divides by `u_ll` and subtracts `x_l` times the `U` column `l`
    /// from the entries above — each a contiguous [`axpy_sub`]. The forward
    /// sweep of a column starts at its first non-zero (the steps before it
    /// subtract zero), which on the permuted unit columns of an inversion
    /// skips a third of the substitution work.
    ///
    /// Right-hand sides go through the sweeps [`SOLVE_GROUP`] at a time: one
    /// step applies the same factor column to every column of the group, and
    /// those updates are independent where the steps of a single column wait
    /// on each other. Each column sees the same operations in the same order
    /// whatever group it is in.
    fn substitute(&self, x_re: &mut [f64], x_im: &mut [f64]) {
        let n = self.n;
        if n == 0 {
            return;
        }
        let groups = x_re
            .chunks_mut(SOLVE_GROUP * n)
            .zip(x_im.chunks_mut(SOLVE_GROUP * n));
        for (g_re, g_im) in groups {
            let mut first = [n; SOLVE_GROUP];
            let columns = g_re.chunks_exact(n).zip(g_im.chunks_exact(n));
            for (first, (x_re, x_im)) in first.iter_mut().zip(columns) {
                let nonzero = |(re, im): (&f64, &f64)| *re != 0.0 || *im != 0.0;
                *first = x_re.iter().zip(x_im).position(nonzero).unwrap_or(n);
            }
            for l in 0..n {
                let below = l * n + l + 1..(l + 1) * n;
                let l_column = (&self.re[below.clone()], &self.im[below]);
                let columns = g_re.chunks_exact_mut(n).zip(g_im.chunks_exact_mut(n));
                for ((x_re, x_im), _) in columns.zip(&first).filter(|(_, &first)| first <= l) {
                    let x_l = c64::new(x_re[l], x_im[l]);
                    axpy_sub((&mut x_re[l + 1..], &mut x_im[l + 1..]), l_column, x_l);
                }
            }
            for l in (0..n).rev() {
                let above = l * n..l * n + l;
                let u_column = (&self.re[above.clone()], &self.im[above]);
                let u_ll = self.diagonal(l);
                for (x_re, x_im) in g_re.chunks_exact_mut(n).zip(g_im.chunks_exact_mut(n)) {
                    let x_l = c64::new(x_re[l], x_im[l]) / u_ll;
                    (x_re[l], x_im[l]) = (x_l.re, x_l.im);
                    axpy_sub((&mut x_re[..l], &mut x_im[..l]), u_column, x_l);
                }
            }
        }
    }

    /// Solve `A X = B` for `out.len() / n` columns, `rhs(i, j) = B[i, j]`,
    /// into the column-major `out`: the one solve routine behind
    /// [`Self::solve_vec`], [`Self::solve`], [`Self::inverse`] and
    /// [`LuScratch`]. `x_re`/`x_im` are work planes (no allocation once they
    /// have held a right-hand side of that size).
    fn solve_into(
        &self,
        rhs: impl Fn(usize, usize) -> c64,
        (x_re, x_im): (&mut Vec<f64>, &mut Vec<f64>),
        out: &mut [c64],
    ) {
        x_re.clear();
        x_im.clear();
        for j in 0..out.len().checked_div(self.n).unwrap_or(0) {
            for &p in &self.perm {
                let v = rhs(p, j);
                x_re.push(v.re);
                x_im.push(v.im);
            }
        }
        self.substitute(x_re, x_im);
        for ((o, re), im) in out.iter_mut().zip(x_re.iter()).zip(x_im.iter()) {
            *o = c64::new(*re, *im);
        }
    }

    /// Explicit inverse into the column-major `n × n` slice `out`.
    fn inverse_into(&self, work: (&mut Vec<f64>, &mut Vec<f64>), out: &mut [c64]) {
        self.solve_into(|i, j| if i == j { ONE } else { ZERO }, work, out);
    }

    /// `u_ll`.
    fn diagonal(&self, l: usize) -> c64 {
        c64::new(self.re[l * self.n + l], self.im[l * self.n + l])
    }

    /// Order of the factorised matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[c64]) -> Vec<c64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let mut x = vec![ZERO; self.n];
        self.solve_into(|i, _| b[i], (&mut Vec::new(), &mut Vec::new()), &mut x);
        x
    }

    /// Solve `A X = B` for a matrix right-hand side.
    pub fn solve(&self, b: &CMatrix) -> CMatrix {
        assert_eq!(b.nrows(), self.n, "rhs row count mismatch");
        let mut x = CMatrix::zeros(self.n, b.ncols());
        let work = (&mut Vec::new(), &mut Vec::new());
        self.solve_into(|i, j| b[(i, j)], work, x.as_mut_slice());
        x
    }

    /// Explicit inverse `A⁻¹`.
    pub fn inverse(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.n, self.n);
        self.inverse_into((&mut Vec::new(), &mut Vec::new()), out.as_mut_slice());
        out
    }

    /// Determinant of the factorised matrix.
    pub fn determinant(&self) -> c64 {
        let mut det = c64::new(self.perm_sign, 0.0);
        for l in 0..self.n {
            det *= self.diagonal(l);
        }
        det
    }
}

/// Reusable factor/pivot/work storage for allocation-free inversions.
///
/// [`LuScratch::invert_into`] is the hot kernel of the workspace-reusing RGF
/// forward pass: once the scratch has been warmed at a block size, repeated
/// inversions at that size perform zero heap allocations. It runs the same
/// factorisation and substitution routines as [`LuFactorization::new`] +
/// [`LuFactorization::inverse`], so the two agree bit for bit.
#[derive(Debug, Default)]
pub struct LuScratch {
    lu: LuFactorization,
    x_re: Vec<f64>,
    x_im: Vec<f64>,
}

impl LuScratch {
    /// Create an empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute `out = a⁻¹`, reusing the scratch buffers. `out` is reshaped if
    /// necessary (only that path allocates once the scratch is warm).
    pub fn invert_into(&mut self, a: &CMatrix, out: &mut CMatrix) -> Result<(), LuError> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.nrows();
        if out.shape() != (n, n) {
            out.resize_zeroed(n, n);
        }
        self.invert_slice_into(a.as_slice(), n, out.as_mut_slice())
    }

    /// Raw-slice form of [`Self::invert_into`]: `a` and `out` are column-major
    /// `n × n` slices. This is the entry point the batched layer uses to
    /// invert `MatrixBatch` planes in place in the batch buffer.
    pub fn invert_slice_into(
        &mut self,
        a: &[c64],
        n: usize,
        out: &mut [c64],
    ) -> Result<(), LuError> {
        assert_eq!(a.len(), n * n, "LU input length mismatch");
        assert_eq!(out.len(), n * n, "LU output length mismatch");
        self.lu.refactor(a, n)?;
        self.lu.inverse_into((&mut self.x_re, &mut self.x_im), out);
        Ok(())
    }
}

/// Convenience wrapper: explicit inverse of `a`.
///
/// Returns an error when `a` is numerically singular. This is the hot kernel
/// of the RGF forward pass and the OBC iterations.
pub fn inverse(a: &CMatrix) -> Result<CMatrix, LuError> {
    Ok(LuFactorization::new(a)?.inverse())
}

/// Convenience wrapper: solve `A X = B`.
pub fn solve(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, LuError> {
    Ok(LuFactorization::new(a)?.solve(b))
}

/// Number of real FLOPs of an LU-based inversion of an `n×n` complex matrix
/// (factorisation `8/3 n³` + triangular solves `~16/3 n³` ≈ `8 n³` real FLOPs,
/// the convention used by the paper's workload accounting).
pub fn inverse_flops(n: usize) -> u64 {
    8 * (n as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx;
    use crate::ops::matmul;

    fn well_conditioned(n: usize) -> CMatrix {
        // Diagonally dominant complex matrix => invertible.
        CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                cplx(4.0 + i as f64, 1.0)
            } else {
                cplx(0.3 / (1.0 + (i as f64 - j as f64).abs()), -0.1)
            }
        })
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = well_conditioned(6);
        let x_true: Vec<c64> = (0..6).map(|i| cplx(i as f64, -(i as f64) / 2.0)).collect();
        let b = a.matvec(&x_true);
        let lu = LuFactorization::new(&a).unwrap();
        let x = lu.solve_vec(&b);
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).norm() < 1e-10);
        }
    }

    /// Dominant on the reverse diagonal: every step of the factorisation
    /// swaps rows.
    fn swap_heavy(n: usize) -> CMatrix {
        CMatrix::from_fn(n, n, |i, j| {
            if i + j + 1 == n {
                cplx(4.0 + i as f64, -1.0)
            } else {
                cplx(0.2 / (1.0 + (i as f64 - j as f64).abs()), 0.1)
            }
        })
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        // Orders below, at and above the substitution group and the vector
        // width, with and without row swaps.
        for n in [1, 2, 5, 12, 23, 64, 65] {
            for a in [well_conditioned(n), swap_heavy(n)] {
                let inv = inverse(&a).unwrap();
                let prod = matmul(&a, &inv);
                assert!(
                    prod.approx_eq(&CMatrix::identity(n), 1e-12 * n as f64),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn determinant_of_diagonal() {
        let a = CMatrix::from_diagonal(&[cplx(2.0, 0.0), cplx(0.0, 3.0), cplx(-1.0, 0.0)]);
        let lu = LuFactorization::new(&a).unwrap();
        assert!((lu.determinant() - cplx(0.0, -6.0)).norm() < 1e-12);
    }

    #[test]
    fn determinant_changes_sign_with_row_swap() {
        let a = CMatrix::from_rows(2, 2, &[ZERO, cplx(1.0, 0.0), cplx(1.0, 0.0), ZERO]);
        let lu = LuFactorization::new(&a).unwrap();
        assert!((lu.determinant() - cplx(-1.0, 0.0)).norm() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(1.0, 0.0),
                cplx(2.0, 0.0),
                cplx(2.0, 0.0),
                cplx(4.0, 0.0),
            ],
        );
        assert!(LuFactorization::new(&a).is_err());
    }

    #[test]
    fn matrix_rhs_solve() {
        let a = well_conditioned(5);
        let x_true = CMatrix::from_fn(5, 3, |i, j| cplx(i as f64 + 1.0, j as f64));
        let b = matmul(&a, &x_true);
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-9));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = CMatrix::from_rows(
            2,
            2,
            &[ZERO, cplx(1.0, 0.0), cplx(1.0, 0.0), cplx(1.0, 0.0)],
        );
        let inv = inverse(&a).unwrap();
        assert!(matmul(&a, &inv).approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn scratch_inverse_matches_factorization_inverse_bit_for_bit() {
        let mut scratch = LuScratch::new();
        for n in [1usize, 3, 8, 17] {
            let a = well_conditioned(n);
            let want = inverse(&a).unwrap();
            let mut out = CMatrix::zeros(1, 1); // wrong shape: must be resized
            scratch.invert_into(&a, &mut out).unwrap();
            assert!(out.approx_eq(&want, 0.0), "n = {n}");
        }
    }

    #[test]
    fn scratch_reports_singular_matrices() {
        let a = CMatrix::from_rows(
            2,
            2,
            &[
                cplx(1.0, 0.0),
                cplx(2.0, 0.0),
                cplx(2.0, 0.0),
                cplx(4.0, 0.0),
            ],
        );
        let mut scratch = LuScratch::new();
        let mut out = CMatrix::zeros(2, 2);
        assert!(scratch.invert_into(&a, &mut out).is_err());
    }

    #[test]
    fn flop_model_is_cubic() {
        assert_eq!(inverse_flops(10), 8000);
        assert_eq!(inverse_flops(20) / inverse_flops(10), 8);
    }
}
