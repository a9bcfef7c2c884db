//! LU factorisation with partial pivoting, linear solves and explicit inverses.
//!
//! Every RGF step (paper Eq. (9)) inverts one transport-cell-sized block
//! `(M̃_ii − M̃_ii-1 x^R_{i-1} M̃_{i-1i})⁻¹`, and the OBC fixed-point /
//! Sancho–Rubio iterations invert similar blocks. In the original code these
//! map to `getrf`/`getri` (cuSOLVER / rocSOLVER); here they are provided by
//! [`LuFactorization`] and its buffer-reusing wrapper [`LuScratch`].
//!
//! The factors live in split real/imaginary column-major planes whose columns
//! are padded to whole `MR`-lane tiles, and every `O(n³)` loop is a rank-`K`
//! update on the 8-lane vector of `lanes` (fused multiply-adds as in
//! [`crate::ops`]): pivots are eliminated `K = MR = 8` at a time from `NR`
//! columns at a time, so one tile — `MR × NR`, two lane vectors tall where
//! the lanes are 512-bit registers — is loaded and stored once per `4·K`
//! multiply-adds per lane (`tile_sub`) where a column-at-a-time update loads
//! and stores it once per four. The diagonal tile of a pivot group, where
//! each pivot's multiplier depends on the one before, is substituted on the
//! tile's *rows* — short vectors across the column group (`lower_tile`,
//! `upper_tile`). The factorisation (`refactor`) is left-looking inside a
//! pivot group and right-looking across groups; the substitutions
//! (`substitute`) are the same two kernels on the right-hand sides, the
//! backward sweep multiplying by stored reciprocals of the `U` diagonal.
//! Pivots are chosen by `|re| + |im|` (LAPACK's `cabs1`).
//!
//! There is one factorisation routine and one substitution routine; solves,
//! inverses and the scratch all run them, and a column's arithmetic does not
//! depend on the columns it is grouped with, so they agree bit for bit, run to
//! run, within a build. Tile shape, lane type and multiply-add come from the
//! build target (`ops::NR`, `lanes::Native`, `lanes::mul_add`); builds for
//! different targets agree to rounding, and the lane type leaves no trace in
//! the bits (the tests run both in one build).

use crate::lanes::{mul_add, Lanes, Native};
use crate::matrix::CMatrix;
use crate::ops::{MR, NR};
use crate::{c64, ONE};

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
    /// Column stride of the planes: `n` rounded up to whole [`MR`]-lane tiles.
    /// Rows `n..ld` of every column are zero and stay zero, so every kernel
    /// below works on full tiles.
    ld: usize,
    /// Real plane of the packed, column-major LU factors (unit lower triangle
    /// below the diagonal, U on and above).
    re: Vec<f64>,
    /// Imaginary plane of the packed factors.
    im: Vec<f64>,
    /// `1 / u_ll`: the backward sweep multiplies where it would divide.
    inv_diag: Vec<c64>,
    /// Row permutation: `perm[i]` is the original row now stored in row `i`.
    perm: Vec<usize>,
}

/// Pivots eliminated together: one lane tile, so the diagonal block of a
/// pivot group is a single tile of each column.
const K: usize = MR;

/// The multipliers of one pivot group: entry `[l][c]` belongs to pivot `l` of
/// the group and column `c` of the tile.
type Multipliers<const NC: usize> = [[f64; NC]; K];

/// De-interleave one column into the head of its split planes and zero the
/// padding rows behind it.
#[inline(always)]
pub(crate) fn split_column(col: &[c64], re: &mut [f64], im: &mut [f64]) {
    let (re, re_pad) = re.split_at_mut(col.len());
    let (im, im_pad) = im.split_at_mut(col.len());
    for ((re, im), v) in re.iter_mut().zip(im).zip(col) {
        (*re, *im) = (v.re, v.im);
    }
    re_pad.fill(0.0);
    im_pad.fill(0.0);
}

/// Row and magnitude of the entry of largest `|re| + |im|` (LAPACK's `cabs1`)
/// in a split column, the first of equals. Two passes, each one the compiler
/// vectorises, where a running arg-max is a scalar chain.
#[inline(always)]
fn pivot(re: &[f64], im: &[f64]) -> (usize, f64) {
    let cabs1 = |(re, im): (&f64, &f64)| re.abs() + im.abs();
    let max = re.iter().zip(im).map(cabs1).fold(0.0, f64::max);
    let row = re.iter().zip(im).position(|v| cabs1(v) == max);
    (row.unwrap_or(0), max)
}

/// The lane tile at the start of `g`.
#[inline(always)]
fn lanes(g: &[f64]) -> &[f64; MR] {
    g[..MR].try_into().expect("whole tile")
}

/// Rank-`k` update of one tile of `V` lane vectors by `NC` columns:
/// `y_c ← y_c − Σ_l x_l · s_lc` over the first `k` pivots of a group, `l`
/// ascending, each term as `yr ← fma(xi, ui, fma(−xr, ur, yr))`,
/// `yi ← fma(−xi, ur, fma(−xr, ui, yi))`. `g` starts at the tile's row of the
/// first column, `f` at the same row of the group's first factor column. The
/// tile is loaded and stored once for `4·k` fused multiply-adds per lane.
#[inline(never)]
fn tile_sub<L: Lanes, const V: usize, const NC: usize>(
    g_re: &mut [f64],
    g_im: &mut [f64],
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    k: usize,
    (sr, si): &(Multipliers<NC>, Multipliers<NC>),
) {
    let vectors = |g: &[f64], at: usize| -> [L; V] {
        let tile = g[at..].as_chunks::<MR>().0;
        std::array::from_fn(|v| L::load(&tile[v]))
    };
    let mut yr: [[L; V]; NC] = std::array::from_fn(|c| vectors(g_re, c * ld));
    let mut yi: [[L; V]; NC] = std::array::from_fn(|c| vectors(g_im, c * ld));
    for l in 0..k {
        let (xr, xi) = (vectors(f_re, l * ld), vectors(f_im, l * ld));
        for c in 0..NC {
            let (ur, ui) = (L::splat(sr[l][c]), L::splat(si[l][c]));
            for v in 0..V {
                yr[c][v] = xi[v].fma(ui, xr[v].fnma(ur, yr[c][v]));
                yi[c][v] = xi[v].fnma(ur, xr[v].fnma(ui, yi[c][v]));
            }
        }
    }
    for c in 0..NC {
        let tile_re = g_re[c * ld..].as_chunks_mut::<MR>().0;
        let tile_im = g_im[c * ld..].as_chunks_mut::<MR>().0;
        for v in 0..V {
            yr[c][v].store(&mut tile_re[v]);
            yi[c][v].store(&mut tile_im[v]);
        }
    }
}

/// The diagonal tile of `NC` columns `ld` apart, transposed: entry `[l][c]`
/// is row `l` of column `c`, so one row is one short vector across the
/// columns and the substitutions below run on whole rows.
#[inline(always)]
fn load_rows<const NC: usize>(g: &[f64], ld: usize) -> Multipliers<NC> {
    let columns: [&[f64; MR]; NC] = std::array::from_fn(|c| lanes(&g[c * ld..]));
    std::array::from_fn(|l| std::array::from_fn(|c| columns[c][l]))
}

/// The inverse of [`load_rows`].
#[inline(always)]
fn store_rows<const NC: usize>(g: &mut [f64], ld: usize, rows: &Multipliers<NC>) {
    for c in 0..NC {
        let column: [f64; MR] = std::array::from_fn(|l| rows[l][c]);
        g[c * ld..c * ld + MR].copy_from_slice(&column);
    }
}

/// `a ← a − f · t` on one row of a transposed tile.
#[inline(always)]
fn row_sub<const NC: usize>(
    (ar, ai): (&mut [f64; NC], &mut [f64; NC]),
    (tr, ti): (&[f64; NC], &[f64; NC]),
    (fr, fi): (f64, f64),
) {
    for c in 0..NC {
        ar[c] = mul_add(fi, ti[c], mul_add(-fr, tr[c], ar[c]));
        ai[c] = mul_add(-fi, tr[c], mul_add(-fr, ti[c], ai[c]));
    }
}

/// Forward substitution through the diagonal tile of a pivot group: row `l`
/// of every column loses `L[l, m]` times row `m` for the pivots `m < l` among
/// the first `k`, `m` ascending. Returns the tile's rows — the first `k` are
/// the multipliers of the tiles below. Slices as in [`tile_sub`].
#[inline(never)]
fn lower_tile<const NC: usize>(
    (g_re, g_im): (&mut [f64], &mut [f64]),
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    k: usize,
) -> (Multipliers<NC>, Multipliers<NC>) {
    let (mut tr, mut ti) = (load_rows::<NC>(g_re, ld), load_rows::<NC>(g_im, ld));
    for l in 1..MR {
        let (mut ar, mut ai) = (tr[l], ti[l]);
        for m in 0..l.min(k) {
            let f = (lanes(&f_re[m * ld..])[l], lanes(&f_im[m * ld..])[l]);
            row_sub((&mut ar, &mut ai), (&tr[m], &ti[m]), f);
        }
        (tr[l], ti[l]) = (ar, ai);
    }
    store_rows(g_re, ld, &tr);
    store_rows(g_im, ld, &ti);
    (tr, ti)
}

/// Backward substitution through the diagonal tile of a pivot group of
/// `inv_diag.len()` pivots: row `l`, descending, loses `U[l, m]` times row
/// `m` for the pivots `m > l`, `m` descending, and is divided by `u_ll`
/// (`inv_diag` holds the group's `1 / u_ll`). Returns the tile's rows, the
/// multipliers of the tiles above. Slices as in [`tile_sub`].
#[inline(never)]
fn upper_tile<const NC: usize>(
    (g_re, g_im): (&mut [f64], &mut [f64]),
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    inv_diag: &[c64],
) -> (Multipliers<NC>, Multipliers<NC>) {
    let (mut tr, mut ti) = (load_rows::<NC>(g_re, ld), load_rows::<NC>(g_im, ld));
    for (l, inv) in inv_diag.iter().enumerate().rev() {
        let (mut ar, mut ai) = (tr[l], ti[l]);
        for m in (l + 1..inv_diag.len()).rev() {
            let f = (lanes(&f_re[m * ld..])[l], lanes(&f_im[m * ld..])[l]);
            row_sub((&mut ar, &mut ai), (&tr[m], &ti[m]), f);
        }
        for c in 0..NC {
            tr[l][c] = ar[c] * inv.re - ai[c] * inv.im;
            ti[l][c] = ar[c] * inv.im + ai[c] * inv.re;
        }
    }
    store_rows(g_re, ld, &tr);
    store_rows(g_im, ld, &ti);
    (tr, ti)
}

/// Eliminate the first `k` pivots of the group starting at `k0` from `NC`
/// columns (`g`, `ld` apart): [`lower_tile`] on the diagonal tile, then one
/// [`tile_sub`] per tile below. `f` starts at factor column `k0`.
#[inline(always)]
fn eliminate<L: Lanes, const NC: usize>(
    (g_re, g_im): (&mut [f64], &mut [f64]),
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    k0: usize,
    k: usize,
) {
    let s = lower_tile::<NC>(
        (&mut g_re[k0..], &mut g_im[k0..]),
        (&f_re[k0..], &f_im[k0..]),
        ld,
        k,
    );
    tiles_sub::<L, NC>((g_re, g_im), (f_re, f_im), ld, k0 + K..ld, k, &s);
}

/// One [`tile_sub`] per tile of the rows `rows` (whole lane tiles) of `NC`
/// columns: tall tiles of `L::TALL_VECTORS` lane vectors while as many rows
/// are left, one vector at a time after that.
#[inline(always)]
fn tiles_sub<L: Lanes, const NC: usize>(
    (g_re, g_im): (&mut [f64], &mut [f64]),
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    rows: std::ops::Range<usize>,
    k: usize,
    s: &(Multipliers<NC>, Multipliers<NC>),
) {
    let mut i = rows.start;
    while i < rows.end {
        let (g_re, g_im, f) = (&mut g_re[i..], &mut g_im[i..], (&f_re[i..], &f_im[i..]));
        if L::TALL_VECTORS == 2 && rows.end - i >= 2 * MR {
            tile_sub::<L, 2, NC>(g_re, g_im, f, ld, k, s);
            i += 2 * MR;
        } else {
            tile_sub::<L, 1, NC>(g_re, g_im, f, ld, k, s);
            i += MR;
        }
    }
}

/// The mirror of [`eliminate`] for the backward sweep: [`upper_tile`] on the
/// diagonal tile of the group of `inv_diag.len()` pivots starting at `k0`,
/// then one [`tile_sub`] per tile above.
#[inline(always)]
fn back_eliminate<L: Lanes, const NC: usize>(
    (g_re, g_im): (&mut [f64], &mut [f64]),
    (f_re, f_im): (&[f64], &[f64]),
    ld: usize,
    k0: usize,
    inv_diag: &[c64],
) {
    let s = upper_tile::<NC>(
        (&mut g_re[k0..], &mut g_im[k0..]),
        (&f_re[k0..], &f_im[k0..]),
        ld,
        inv_diag,
    );
    tiles_sub::<L, NC>((g_re, g_im), (f_re, f_im), ld, 0..k0, inv_diag.len(), &s);
}

/// Both sweeps of [`LuFactorization::substitute`] on one group of `NC`
/// columns.
fn substitute_group<L: Lanes, const NC: usize>(
    lu: &LuFactorization,
    g_re: &mut [f64],
    g_im: &mut [f64],
) {
    let (n, ld) = (lu.n, lu.ld);
    let first_nonzero = |c: usize| {
        let rows = g_re[c * ld..][..n].iter().zip(&g_im[c * ld..][..n]);
        rows.take_while(|(re, im)| **re == 0.0 && **im == 0.0)
            .count()
    };
    let first = (0..NC).map(first_nonzero).min().unwrap_or(n);
    for k0 in (first / K * K..n).step_by(K) {
        let factor = (&lu.re[k0 * ld..], &lu.im[k0 * ld..]);
        eliminate::<L, NC>((g_re, g_im), factor, ld, k0, K.min(n - k0));
    }
    for k0 in (0..n).step_by(K).rev() {
        let factor = (&lu.re[k0 * ld..], &lu.im[k0 * ld..]);
        let inv_diag = &lu.inv_diag[k0..n.min(k0 + K)];
        back_eliminate::<L, NC>((g_re, g_im), factor, ld, k0, inv_diag);
    }
}

/// Call `$f::<L, NC>` with `NC` the column count of a group of at most
/// [`NR`] columns.
macro_rules! with_columns {
    ($nc:expr, $f:ident, $($args:expr),*) => {
        match $nc {
            1 => $f::<L, 1>($($args),*),
            2 => $f::<L, 2>($($args),*),
            3 => $f::<L, 3>($($args),*),
            _ => $f::<L, 4>($($args),*),
        }
    };
}

impl LuFactorization {
    /// Factorise a square matrix. Returns an error if a pivot is (numerically) zero.
    pub fn new(a: &CMatrix) -> Result<Self, LuError> {
        assert!(a.is_square(), "LU requires a square matrix");
        let mut lu = Self::default();
        lu.refactor::<Native>(a.as_slice(), a.nrows())?;
        Ok(lu)
    }

    /// Factorise the column-major `n × n` slice `a` into this object's
    /// buffers (no allocation once they have held a matrix of that order).
    ///
    /// Pivots are taken [`K`] at a time. Inside a group the factorisation is
    /// left-looking: a column receives the group's earlier pivots in one
    /// [`eliminate`], then its own pivot is searched (largest `|re| + |im|`,
    /// LAPACK's `cabs1`), swapped in and divided out. The trailing columns
    /// then receive the whole group, [`NR`] columns per [`eliminate`].
    fn refactor<L: Lanes>(&mut self, a: &[c64], n: usize) -> Result<(), LuError> {
        let ld = n.next_multiple_of(MR);
        (self.n, self.ld) = (n, ld);
        self.inv_diag.clear();
        self.perm.clear();
        self.perm.extend(0..n);
        // No clear: every element is overwritten below.
        self.re.resize(ld * n, 0.0);
        self.im.resize(ld * n, 0.0);
        if n == 0 {
            return Ok(());
        }
        let columns = self
            .re
            .chunks_exact_mut(ld)
            .zip(self.im.chunks_exact_mut(ld));
        for ((re, im), col) in columns.zip(a.chunks_exact(n)) {
            split_column(col, re, im);
        }
        for k0 in (0..n).step_by(K) {
            let kb = K.min(n - k0);
            let mut swaps = [0; K];
            for j in k0..k0 + kb {
                let (done_re, rest_re) = self.re.split_at_mut(j * ld);
                let (done_im, rest_im) = self.im.split_at_mut(j * ld);
                let (col_re, col_im) = (&mut rest_re[..ld], &mut rest_im[..ld]);
                let group = (&done_re[k0 * ld..], &done_im[k0 * ld..]);
                if j > k0 {
                    eliminate::<L, 1>((&mut *col_re, &mut *col_im), group, ld, k0, j - k0);
                }

                let (row, pmax) = pivot(&col_re[j..n], &col_im[j..n]);
                if pmax == 0.0 || !pmax.is_finite() {
                    return Err(LuError { column: j });
                }
                let p = j + row;
                swaps[j - k0] = p;
                if p != j {
                    for col in self.re[k0 * ld..(k0 + kb) * ld]
                        .chunks_exact_mut(ld)
                        .chain(self.im[k0 * ld..(k0 + kb) * ld].chunks_exact_mut(ld))
                    {
                        col.swap(j, p);
                    }
                    self.perm.swap(j, p);
                }
                let inv = ONE / self.diagonal(j);
                self.inv_diag.push(inv);
                let l_re = &mut self.re[j * ld + j + 1..(j + 1) * ld];
                let l_im = &mut self.im[j * ld + j + 1..(j + 1) * ld];
                for (lr, li) in l_re.iter_mut().zip(l_im.iter_mut()) {
                    (*lr, *li) = (*lr * inv.re - *li * inv.im, *lr * inv.im + *li * inv.re);
                }
            }
            // The group's row swaps, on the columns outside it.
            let swaps = &swaps[..kb];
            let (left_re, rest_re) = self.re.split_at_mut(k0 * ld);
            let (left_im, rest_im) = self.im.split_at_mut(k0 * ld);
            let (group_re, trailing_re) = rest_re.split_at_mut(kb * ld);
            let (group_im, trailing_im) = rest_im.split_at_mut(kb * ld);
            if swaps.iter().enumerate().any(|(l, &p)| p != k0 + l) {
                for col in [left_re, left_im, &mut *trailing_re, &mut *trailing_im]
                    .into_iter()
                    .flat_map(|plane| plane.chunks_exact_mut(ld))
                {
                    for (l, &p) in swaps.iter().enumerate() {
                        col.swap(k0 + l, p);
                    }
                }
            }
            let groups = trailing_re
                .chunks_mut(NR * ld)
                .zip(trailing_im.chunks_mut(NR * ld));
            for (g_re, g_im) in groups {
                let factor = (&*group_re, &*group_im);
                with_columns!(g_re.len() / ld, eliminate, (g_re, g_im), factor, ld, k0, kb);
            }
        }
        Ok(())
    }

    /// Solve `L·U·x = b` in place for every `ld`-strided column of the split
    /// planes `x`, which hold the row-permuted right-hand sides on entry
    /// (rows `n..ld` zero).
    ///
    /// Columns go through the sweeps [`NR`] at a time and pivots [`K`] at a
    /// time: the forward sweep is one [`eliminate`] per pivot group,
    /// ascending, the backward sweep one [`back_eliminate`] per group,
    /// descending — the kernels of the factorisation, on the right-hand
    /// sides. The forward sweep starts at the group holding the first
    /// non-zero row of its columns (the groups before it subtract zero),
    /// which on the unit columns of an inversion skips a third of the
    /// substitution work. Each column sees the same operations in the same
    /// order whatever columns it is swept with.
    fn substitute<L: Lanes>(&self, x_re: &mut [f64], x_im: &mut [f64]) {
        if self.n == 0 {
            return;
        }
        let groups = x_re
            .chunks_mut(NR * self.ld)
            .zip(x_im.chunks_mut(NR * self.ld));
        for (g_re, g_im) in groups {
            with_columns!(g_re.len() / self.ld, substitute_group, self, g_re, g_im);
        }
    }

    /// Solve `L·U·X = R` for `out.len() / n` columns into the column-major
    /// `out`, column `j` of the solution landing in column `dest(j)`:
    /// `fill(j, re, im)` writes column `j` of the row-permuted right-hand side
    /// `R` into the split slices. The one solve routine behind
    /// [`Self::solve`], [`Self::inverse`] and [`LuScratch`] (and the
    /// test-only single-column solve). `x_re`/`x_im` are work planes (no allocation once they
    /// have held a right-hand side of that size).
    fn solve_into<L: Lanes>(
        &self,
        fill: impl Fn(usize, &mut [f64], &mut [f64]),
        dest: impl Fn(usize) -> usize,
        (x_re, x_im): (&mut Vec<f64>, &mut Vec<f64>),
        out: &mut [c64],
    ) {
        let (n, ld) = (self.n, self.ld);
        if n == 0 {
            return;
        }
        let ncols = out.len() / n;
        // No clear: `fill` and the padding loop overwrite every element.
        x_re.resize(ld * ncols, 0.0);
        x_im.resize(ld * ncols, 0.0);
        let columns = x_re.chunks_exact_mut(ld).zip(x_im.chunks_exact_mut(ld));
        for (j, (re, im)) in columns.enumerate() {
            fill(j, &mut re[..n], &mut im[..n]);
            re[n..].fill(0.0);
            im[n..].fill(0.0);
        }
        self.substitute::<L>(x_re, x_im);
        let columns = x_re.chunks_exact(ld).zip(x_im.chunks_exact(ld));
        for (j, (re, im)) in columns.enumerate() {
            let col = &mut out[dest(j) * n..(dest(j) + 1) * n];
            for ((o, re), im) in col.iter_mut().zip(re).zip(im) {
                *o = c64::new(*re, *im);
            }
        }
    }

    /// Explicit inverse into the column-major `n × n` slice `out`:
    /// `A⁻¹ = U⁻¹·L⁻¹·P`, so the right-hand side is the identity — whose
    /// column `j` starts at row `j`, the most the forward sweep can skip — and
    /// solution column `j` is column `perm[j]` of the inverse.
    fn inverse_into<L: Lanes>(&self, work: (&mut Vec<f64>, &mut Vec<f64>), out: &mut [c64]) {
        let unit = |j: usize, re: &mut [f64], im: &mut [f64]| {
            re.fill(0.0);
            im.fill(0.0);
            re[j] = 1.0;
        };
        self.solve_into::<L>(unit, |j| self.perm[j], work, out);
    }

    /// Column `j` of the row-permuted `b`, split.
    fn permuted_column<'a>(
        &'a self,
        b: impl Fn(usize, usize) -> c64 + 'a,
    ) -> impl Fn(usize, &mut [f64], &mut [f64]) + 'a {
        move |j, re, im| {
            for ((re, im), &p) in re.iter_mut().zip(im).zip(&self.perm) {
                let v = b(p, j);
                (*re, *im) = (v.re, v.im);
            }
        }
    }

    /// `u_ll`.
    fn diagonal(&self, l: usize) -> c64 {
        c64::new(self.re[l * self.ld + l], self.im[l * self.ld + l])
    }

    /// Solve `A x = b` for a single right-hand side.
    #[cfg(test)]
    pub(crate) fn solve_vec(&self, b: &[c64]) -> Vec<c64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let mut x = vec![crate::ZERO; self.n];
        let work = (&mut Vec::new(), &mut Vec::new());
        self.solve_into::<Native>(self.permuted_column(|i, _| b[i]), |j| j, work, &mut x);
        x
    }

    /// Solve `A X = B` for a matrix right-hand side.
    pub fn solve(&self, b: &CMatrix) -> CMatrix {
        assert_eq!(b.nrows(), self.n, "rhs row count mismatch");
        let mut x = CMatrix::zeros(self.n, b.ncols());
        let work = (&mut Vec::new(), &mut Vec::new());
        self.solve_into::<Native>(
            self.permuted_column(|i, j| b[(i, j)]),
            |j| j,
            work,
            x.as_mut_slice(),
        );
        x
    }

    /// Explicit inverse `A⁻¹`.
    pub fn inverse(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.n, self.n);
        self.inverse_into::<Native>((&mut Vec::new(), &mut Vec::new()), out.as_mut_slice());
        out
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
    pub(crate) fn invert_slice_into(
        &mut self,
        a: &[c64],
        n: usize,
        out: &mut [c64],
    ) -> Result<(), LuError> {
        assert_eq!(a.len(), n * n, "LU input length mismatch");
        assert_eq!(out.len(), n * n, "LU output length mismatch");
        self.lu.refactor::<Native>(a, n)?;
        self.lu
            .inverse_into::<Native>((&mut self.x_re, &mut self.x_im), out);
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
    use crate::lanes::Portable;
    use crate::ops::matmul;
    use crate::{cplx, ZERO};

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

    /// The empty matrix, orders below, at and above the pivot group and the
    /// column group, the single-tile case, whole and ragged tiles.
    const ORDERS: [usize; 16] = [
        0,
        1,
        2,
        5,
        K - 1,
        K,
        K + 1,
        12,
        2 * K + 3,
        23,
        31,
        32,
        33,
        64,
        65,
        128,
    ];

    #[test]
    fn inverse_times_matrix_is_identity() {
        for n in ORDERS {
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
    fn solve_inverse_and_scratch_agree_bit_for_bit() {
        let mut scratch = LuScratch::new();
        for n in ORDERS {
            for a in [well_conditioned(n), swap_heavy(n)] {
                let lu = LuFactorization::new(&a).unwrap();
                let want = lu.inverse();
                // The identity as a right-hand side enters the sweeps in
                // other column groups than the inverse's own unit columns.
                assert!(
                    lu.solve(&CMatrix::identity(n)).approx_eq(&want, 0.0),
                    "n = {n}"
                );
                let mut out = CMatrix::zeros(1, 1); // wrong shape: must be resized
                scratch.invert_into(&a, &mut out).unwrap();
                assert!(out.approx_eq(&want, 0.0), "n = {n}");
                // And a lone column is the same column, whatever it rode with.
                let rhs: Vec<c64> = (0..n).map(|i| cplx(1.0 + i as f64, -0.5)).collect();
                let b = CMatrix::from_fn(n, 3, |i, j| if j == 1 { rhs[i] } else { ZERO });
                assert_eq!(lu.solve_vec(&rhs), lu.solve(&b).col(1), "n = {n}");
            }
        }
    }

    /// `a⁻¹` with every rank-k update on the lane type `L` (and in tiles of
    /// `L::TALL_VECTORS` vectors).
    fn inverse_on<L: Lanes>(a: &CMatrix) -> CMatrix {
        let n = a.nrows();
        let mut lu = LuFactorization::default();
        lu.refactor::<L>(a.as_slice(), n).unwrap();
        let mut out = CMatrix::zeros(n, n);
        lu.inverse_into::<L>((&mut Vec::new(), &mut Vec::new()), out.as_mut_slice());
        out
    }

    #[test]
    fn lane_width_and_tile_height_are_invisible_in_the_inverse_bits() {
        // Portable lanes update one vector of rows per tile, the wide ones
        // two: every order from one tile to past eight, whole and ragged,
        // comes out equal in every bit, and equal to what the scratch makes.
        let mut scratch = LuScratch::new();
        let mut out = CMatrix::zeros(0, 0);
        for n in 8..=65 {
            for a in [well_conditioned(n), swap_heavy(n)] {
                let want = inverse_on::<Portable>(&a);
                assert!(inverse_on::<Native>(&a).approx_eq(&want, 0.0), "n = {n}");
                scratch.invert_into(&a, &mut out).unwrap();
                assert!(out.approx_eq(&want, 0.0), "n = {n}");
            }
        }
    }

    #[test]
    fn singular_column_is_reported_where_it_breaks_down() {
        // A zero column stays zero under every elimination, so the
        // factorisation breaks down exactly there — first, middle and last
        // column of a pivot group, of the matrix, at every order.
        for n in ORDERS {
            for column in [0, K - 1, K, n / 2, n.saturating_sub(1)] {
                if column >= n {
                    continue;
                }
                for mut a in [well_conditioned(n), swap_heavy(n)] {
                    a.col_mut(column).fill(ZERO);
                    let err = LuFactorization::new(&a).unwrap_err();
                    assert_eq!(err, LuError { column }, "n = {n}");
                }
            }
        }
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
