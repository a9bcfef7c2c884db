//! Retarded surface-function solvers.
//!
//! All solvers target the non-linear equation of paper Eq. (4),
//!
//! ```text
//! x^R = (m − n · x^R · n')⁻¹ ,
//! ```
//!
//! where `m`, `n`, `n'` are transport-cell-sized blocks extracted from
//! `M(E) − B^R_scatt(E)` at the contact. Three methods are provided, matching
//! the paper's discussion:
//!
//! * [`fixed_point`] — plain fixed-point iteration of Eq. (5); cheap per step,
//!   slow from a cold start, fast from a good initial guess (this is what the
//!   memoizer exploits);
//! * [`sancho_rubio`] — the decimation scheme of Sancho, Lopez-Sancho & Rubio,
//!   which converges quadratically (doubles the represented lead length every
//!   step);
//! * [`beyn`] — the direct contour-integral method: the quadratic polynomial
//!   eigenvalue problem `(z·m − z²·n − n')·φ = 0` is solved for all Bloch
//!   factors inside the unit circle via Beyn's algorithm (probing + SVD +
//!   reduced eigenvalue problem), and the surface function is reconstructed as
//!   `x^R = (m − n·F)⁻¹` with the propagation matrix `F = Φ·Λ·Φ⁻¹`.
//!
//! The two iterations solve one energy at a time, the way the OBC cascade and
//! the memoizer call them, on an [`ObcBatchScratch`] (a per-thread one behind
//! [`fixed_point`] and [`sancho_rubio`]): every product goes through
//! [`gemm`], every inversion through one `LuScratch`, so a warmed call
//! allocates only the surface function it returns. An energy set is a loop
//! over them ([`crate::batch::sancho_rubio_batch`]).
//!
//! [`beyn`] is a string of dense factorisations — one LU inversion per
//! contour point, one SVD, one small eigenproblem, two more inversions — and
//! runs them on a per-thread scratch: every inversion (the residual check's
//! included) through one `LuScratch`, the SVD through an `SvdScratch`, every
//! intermediate in a reused matrix. A warmed call allocates the surface
//! function it returns and what the eigensolver allocates for the reduced
//! problem, nothing else (`tests/alloc_free.rs`).

use quatrex_linalg::lu::{inverse_flops, LuFactorization, LuScratch};
use quatrex_linalg::ops::{gemm, gemm_flops, matmul, Op};
use quatrex_linalg::svd::{Svd, SvdScratch};
use quatrex_linalg::{c64, eigendecomposition, CMatrix, ONE, ZERO};
use std::cell::RefCell;
use std::f64::consts::PI;

use crate::batch::ObcBatchScratch;

/// Failure modes of the OBC solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum ObcError {
    /// The iteration did not reach the requested tolerance.
    NotConverged {
        /// Residual after the last iteration.
        residual: f64,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// A linear solve encountered a singular matrix.
    Singular,
    /// The eigenvalue decomposition inside Beyn's method failed.
    EigenFailure,
}

impl std::fmt::Display for ObcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObcError::NotConverged {
                residual,
                iterations,
            } => {
                write!(f, "OBC solver did not converge: residual {residual:.3e} after {iterations} iterations")
            }
            ObcError::Singular => write!(f, "singular matrix in OBC solver"),
            ObcError::EigenFailure => write!(f, "eigendecomposition failed in Beyn solver"),
        }
    }
}

impl std::error::Error for ObcError {}

/// Result of a retarded OBC solve.
#[derive(Debug, Clone)]
pub struct ObcSolution {
    /// The surface function `x^R`.
    pub x: CMatrix,
    /// Number of iterations (fixed-point / decimation steps, or contour points).
    pub iterations: usize,
    /// Final residual `‖x − (m − n·x·n')⁻¹‖_F / ‖x‖_F`.
    pub residual: f64,
    /// Estimated real FLOPs spent.
    pub flops: u64,
}

/// What a surface solve reports besides the surface function, which the
/// `*_into` forms write into the caller's matrix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SurfaceStats {
    pub(crate) iterations: usize,
    pub(crate) residual: f64,
    pub(crate) flops: u64,
}

impl SurfaceStats {
    /// The [`ObcSolution`] of surface function `x`.
    pub(crate) fn with(self, x: CMatrix) -> ObcSolution {
        ObcSolution {
            x,
            iterations: self.iterations,
            residual: self.residual,
            flops: self.flops,
        }
    }
}

/// Relative residual of a candidate surface function (a one-off: the solvers
/// check theirs on their own scratch).
pub fn surface_residual(x: &CMatrix, m: &CMatrix, n: &CMatrix, nprime: &CMatrix) -> f64 {
    ResidualWork::default().residual(&mut LuScratch::new(), x, m, n, nprime)
}

/// The three work matrices of a residual check, reused across checks.
#[derive(Debug, Default)]
pub(crate) struct ResidualWork {
    nx: CMatrix,
    rhs: CMatrix,
    inv: CMatrix,
}

impl ResidualWork {
    /// `‖x − (m − n·x·n')⁻¹‖_F / ‖x‖_F` (infinite when the right-hand side is
    /// singular), inverting on the caller's `lu`. Allocation-free once warmed
    /// at a block size.
    pub(crate) fn residual(
        &mut self,
        lu: &mut LuScratch,
        x: &CMatrix,
        m: &CMatrix,
        n: &CMatrix,
        nprime: &CMatrix,
    ) -> f64 {
        let dim = m.nrows();
        // lint:allow(per-energy-gemm): one energy's residual check.
        gemm(self.nx.fit(dim, dim), ONE, Op::None(n), Op::None(x), ZERO);
        self.rhs.fit(dim, dim).copy_from(m);
        // lint:allow(per-energy-gemm): see above.
        gemm(
            &mut self.rhs,
            -ONE,
            Op::None(&self.nx),
            Op::None(nprime),
            ONE,
        );
        match lu.invert_into(&self.rhs, &mut self.inv) {
            Ok(()) => self.inv.distance(x) / x.norm_fro().max(1e-300),
            Err(_) => f64::INFINITY,
        }
    }
}

thread_local! {
    /// Per-thread scratch of [`fixed_point`] and [`sancho_rubio`] (the
    /// assemblies call them once per energy and contact on the rank threads).
    static SURFACE: RefCell<ObcBatchScratch> = RefCell::new(ObcBatchScratch::new());
}

/// `c = a · b`.
fn product(c: &mut CMatrix, a: &CMatrix, b: &CMatrix) {
    let c = c.fit(a.nrows(), b.ncols());
    // lint:allow(per-energy-gemm): the surface iterations solve one energy per call.
    gemm(c, ONE, Op::None(a), Op::None(b), ZERO);
}

/// `d −= s`, entry by entry: plain complex subtraction (`CMatrix`'s `-=` is
/// an `axpy` by −1, whose `0 · im` term turns an infinite entry into NaN).
fn subtract(d: &mut CMatrix, s: &CMatrix) {
    for (d, s) in d.as_mut_slice().iter_mut().zip(s.as_slice()) {
        *d -= s;
    }
}

/// Whether every entry of `a` is finite. An iteration whose iterate fails
/// this cannot converge any more: a non-finite entry spreads through every
/// later product (`0·∞ = NaN`), so the iterations return their
/// [`ObcError::NotConverged`] at the step where it appears.
pub(crate) fn is_finite(a: &CMatrix) -> bool {
    a.as_slice().iter().all(|v| v.is_finite())
}

/// Plain fixed-point iteration `x_{k+1} = (m − n·x_k·n')⁻¹` (paper Eq. (5)).
///
/// `x0` is the initial guess (pass `None` for a cold start from `m⁻¹`). The
/// residual is the step's relative change `‖x_{k+1} − x_k‖_F / ‖x_{k+1}‖_F`.
/// An iterate that turns non-finite ends the attempt at that step.
pub fn fixed_point(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    x0: Option<&CMatrix>,
    tol: f64,
    max_iter: usize,
) -> Result<ObcSolution, ObcError> {
    let mut x = CMatrix::default();
    fixed_point_into(&mut x, m, n, nprime, x0, tol, max_iter).map(|st| st.with(x))
}

/// [`fixed_point`] writing the surface function into `out`.
pub(crate) fn fixed_point_into(
    out: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    x0: Option<&CMatrix>,
    tol: f64,
    max_iter: usize,
) -> Result<SurfaceStats, ObcError> {
    SURFACE.with(|s| {
        let mut scratch = s.borrow_mut();
        let ObcBatchScratch {
            lu,
            blocks: [x, x_next, nx, rhs, ..],
            ..
        } = &mut *scratch;
        let dim = m.nrows();
        let mut flops = 0u64;
        match x0 {
            Some(x0) => x.fit(dim, dim).copy_from(x0),
            None => {
                flops += inverse_flops(dim);
                lu.invert_into(m, x).map_err(|_| ObcError::Singular)?;
            }
        }

        let per_iter = 2 * gemm_flops(dim, dim, dim) + inverse_flops(dim);
        let mut residual = f64::INFINITY;
        for it in 1..=max_iter {
            // x_next = (m − n·x·n')⁻¹.
            product(nx, n, x);
            rhs.fit(dim, dim).copy_from(m);
            // lint:allow(per-energy-gemm): the surface iterations solve one energy per call.
            gemm(rhs, -ONE, Op::None(nx), Op::None(nprime), ONE);
            lu.invert_into(rhs, x_next)
                .map_err(|_| ObcError::Singular)?;
            residual = x_next.distance(x) / x_next.norm_fro().max(1e-300);
            flops += per_iter;
            std::mem::swap(x, x_next);
            if residual < tol {
                out.fit(dim, dim).copy_from(x);
                return Ok(SurfaceStats {
                    iterations: it,
                    residual,
                    flops,
                });
            }
            if !is_finite(x) {
                return Err(ObcError::NotConverged {
                    residual,
                    iterations: it,
                });
            }
        }
        Err(ObcError::NotConverged {
            residual,
            iterations: max_iter,
        })
    })
}

/// Norm past which the effective couplings of a decimation have left every
/// converging trajectory: doubling the represented lead length squares them
/// roughly, so they overflow two to four steps later.
const DIVERGED_COUPLING: f64 = 1e30;

/// Sancho–Rubio decimation for the surface function.
///
/// Each step doubles the effective lead length represented by the effective
/// couplings, so convergence is reached in `O(log)` steps (typically 10–30,
/// paper Section 4.2.1). The converged surface function is checked against
/// the original `(m, n, n')`: its residual is the fixed-point equation's.
/// Effective couplings whose norm passes `1e30` (or turns non-finite) end
/// the attempt at that step: they grow without bound and would overflow a
/// few steps later.
pub fn sancho_rubio(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    tol: f64,
    max_iter: usize,
) -> Result<ObcSolution, ObcError> {
    let mut x = CMatrix::default();
    sancho_rubio_into(&mut x, m, n, nprime, tol, max_iter).map(|st| st.with(x))
}

/// [`sancho_rubio`] writing the surface function into `out`.
pub(crate) fn sancho_rubio_into(
    out: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    tol: f64,
    max_iter: usize,
) -> Result<SurfaceStats, ObcError> {
    SURFACE.with(|s| sancho_rubio_on(&mut s.borrow_mut(), out, m, n, nprime, tol, max_iter))
}

/// [`sancho_rubio_into`] on the caller's scratch.
pub(crate) fn sancho_rubio_on(
    scratch: &mut ObcBatchScratch,
    out: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    tol: f64,
    max_iter: usize,
) -> Result<SurfaceStats, ObcError> {
    let dim = m.nrows();
    // Decimation state: the surface and bulk onsite blocks ε_s, ε and the
    // effective couplings α, β; per step g = ε⁻¹, α·g, β·g and `t`, which
    // holds one product at a time.
    let ObcBatchScratch {
        lu,
        residual: check,
        blocks: [eps_s, eps, alpha, beta, g, ag, bg, t],
    } = scratch;
    eps_s.fit(dim, dim).copy_from(m);
    eps.fit(dim, dim).copy_from(m);
    alpha.fit(dim, dim).copy_from(n);
    beta.fit(dim, dim).copy_from(nprime);

    let per_iter = inverse_flops(dim) + 6 * gemm_flops(dim, dim, dim);
    let mut flops = 0u64;
    let mut metric = f64::INFINITY;
    for it in 1..=max_iter {
        lu.invert_into(eps, g).map_err(|_| ObcError::Singular)?;
        // ε_s −= α·g·β ; ε −= α·g·β, then ε −= β·g·α ; α ← α·g·α ; β ← β·g·β.
        product(ag, alpha, g);
        product(bg, beta, g);
        product(t, ag, beta);
        subtract(eps_s, t);
        subtract(eps, t);
        product(t, bg, alpha);
        subtract(eps, t);
        product(t, ag, alpha);
        std::mem::swap(alpha, t);
        product(t, bg, beta);
        std::mem::swap(beta, t);
        flops += per_iter;

        let (an, bn) = (alpha.norm_fro(), beta.norm_fro());
        metric = an.max(bn);
        if an < tol && bn < tol {
            // Converged: the surface function is ε_s⁻¹.
            flops += inverse_flops(dim);
            lu.invert_into(eps_s, out).map_err(|_| ObcError::Singular)?;
            let residual = check.residual(lu, out, m, n, nprime);
            return Ok(SurfaceStats {
                iterations: it,
                residual,
                flops,
            });
        }
        // Fails on a NaN norm too, so a non-finite coupling ends it as well.
        if !(an <= DIVERGED_COUPLING && bn <= DIVERGED_COUPLING) {
            return Err(ObcError::NotConverged {
                residual: metric,
                iterations: it,
            });
        }
    }
    Err(ObcError::NotConverged {
        residual: metric,
        iterations: max_iter,
    })
}

/// Direct solution of the surface problem via the companion linearisation of
/// the polynomial eigenvalue problem (paper Section 4.2.1, Refs. [8, 34]).
///
/// The quadratic problem `(λ²·n + λ·m + n')·φ = 0` is linearised into the
/// `2·N_BS` companion matrix
///
/// ```text
/// C = [      0            I      ]
///     [ −n⁻¹·n'      −n⁻¹·m      ]
/// ```
///
/// whose eigenpairs `(λ, [φ; λφ])` yield the Bloch modes. The decaying modes
/// (`|λ| < 1`) build the propagation matrix `F = Φ·Λ·Φ⁻¹` and
/// `x^R = (m + n·F)⁻¹`. Requires an invertible coupling block `n`.
pub(crate) fn pevp_direct(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
) -> Result<ObcSolution, ObcError> {
    let dim = m.nrows();
    // lint:allow(allocating-inverse): cold direct fallback; two solves share this factorisation.
    let n_lu = LuFactorization::new(n).map_err(|_| ObcError::Singular)?;
    let a21 = n_lu.solve(nprime).scaled(c64::new(-1.0, 0.0));
    let a22 = n_lu.solve(m).scaled(c64::new(-1.0, 0.0));
    let mut companion = CMatrix::zeros(2 * dim, 2 * dim);
    for i in 0..dim {
        companion[(i, dim + i)] = c64::new(1.0, 0.0);
    }
    companion.set_submatrix(dim, 0, &a21);
    companion.set_submatrix(dim, dim, &a22);
    let eig = eigendecomposition(&companion).map_err(|_| ObcError::EigenFailure)?;

    // Select the decaying modes, keeping the `dim` smallest magnitudes.
    let mut order: Vec<usize> = (0..2 * dim).collect();
    order.sort_by(|&a, &b| {
        eig.values[a]
            .norm()
            .partial_cmp(&eig.values[b].norm())
            .unwrap()
    });
    let selected = &order[..dim];
    let mut phi = CMatrix::zeros(dim, dim);
    let mut lambda = vec![c64::new(0.0, 0.0); dim];
    for (col, &k) in selected.iter().enumerate() {
        lambda[col] = eig.values[k];
        for i in 0..dim {
            phi[(i, col)] = eig.vectors[(i, k)];
        }
    }
    let mut lu = LuScratch::new();
    let mut phi_inv = CMatrix::zeros(dim, dim);
    lu.invert_into(&phi, &mut phi_inv)
        .map_err(|_| ObcError::Singular)?;
    let mut phi_lambda = phi;
    for j in 0..dim {
        let l = lambda[j];
        for v in phi_lambda.col_mut(j) {
            *v *= l;
        }
    }
    let f_mat = matmul(&phi_lambda, &phi_inv);
    let mut x = phi_inv;
    lu.invert_into(&(m + &matmul(n, &f_mat)), &mut x)
        .map_err(|_| ObcError::Singular)?;
    let residual = surface_residual(&x, m, n, nprime);
    // Companion eigendecomposition dominates: ~30·(2n)³ real FLOPs.
    let flops =
        30 * (2 * dim as u64).pow(3) + 4 * inverse_flops(dim) + 3 * gemm_flops(dim, dim, dim);
    Ok(ObcSolution {
        x,
        iterations: 1,
        residual,
        flops,
    })
}

/// Configuration of the Beyn contour-integral solver.
#[derive(Debug, Clone)]
pub struct BeynConfig {
    /// Radius of the circular contour in the complex Bloch-factor plane.
    pub radius: f64,
    /// Number of quadrature points on the contour.
    pub n_quadrature: usize,
    /// Relative singular-value threshold of the rank-revealing step.
    pub rank_tol: f64,
}

impl Default for BeynConfig {
    fn default() -> Self {
        Self {
            radius: 1.0,
            n_quadrature: 48,
            rank_tol: 1e-8,
        }
    }
}

/// Work storage of [`beyn`]: one LU scratch for every inversion (the contour
/// points, `Φ⁻¹`, `(m + n·F)⁻¹`, the residual check), the SVD planes and every
/// intermediate matrix. Warmed at a block size, a solve allocates only the
/// surface function it returns and what the reduced eigenproblem's solver
/// allocates.
#[derive(Debug, Default)]
struct BeynScratch {
    lu: LuScratch,
    svd: SvdScratch,
    dec: Svd,
    residual: ResidualWork,
    /// `T(z)` and `T(z)⁻¹` at the current contour point.
    t: CMatrix,
    t_inv: CMatrix,
    /// Beyn moments `A_0`, `A_1`.
    a0: CMatrix,
    a1: CMatrix,
    /// Leading `rank` singular vectors `U_k`, `W_k`.
    u_k: CMatrix,
    w_k: CMatrix,
    /// `A_1·W_k·Σ_k⁻¹` and the reduced matrix `U_k†·A_1·W_k·Σ_k⁻¹`.
    a1w: CMatrix,
    b: CMatrix,
    /// Modes `U_k·φ`, the completed basis `Φ`, `Φ·Λ`, `Φ⁻¹`, `F = Φ·Λ·Φ⁻¹`.
    phi_k: CMatrix,
    phi: CMatrix,
    phi_lambda: CMatrix,
    phi_inv: CMatrix,
    f: CMatrix,
    /// `m + n·F`, whose inverse is the surface function.
    rhs: CMatrix,
}

thread_local! {
    /// Per-thread [`beyn`] scratch (the assemblies call it once per energy on
    /// the rank threads): zero allocations of its own once warmed.
    static BEYN: RefCell<BeynScratch> = RefCell::new(BeynScratch::default());
}

/// Beyn's contour-integral solver for the retarded surface function.
///
/// Writing the semi-infinite lead's Bloch ansatz `G_{l,1} = F^{l−1}·x^R` turns
/// Eq. (4) into the quadratic polynomial eigenvalue problem
/// `T(z)·φ = (z²·n + z·m + n')·φ = 0`: the propagation matrix `F = Φ·Λ·Φ⁻¹`
/// is built from all eigenpairs with `|λ| < 1` (the decaying modes, found by
/// contour integration over the unit circle), and the surface function follows
/// as `x^R = (m + n·F)⁻¹`, which solves the original fixed-point equation.
///
/// Runs on a per-thread scratch: per contour point one pass building `T(z)`,
/// one [`LuScratch`] inversion and one pass accumulating both moments.
pub fn beyn(
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    config: &BeynConfig,
) -> Result<ObcSolution, ObcError> {
    let mut x = CMatrix::default();
    beyn_into(&mut x, m, n, nprime, config).map(|st| st.with(x))
}

/// [`beyn`] writing the surface function into `out`.
pub(crate) fn beyn_into(
    out: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    config: &BeynConfig,
) -> Result<SurfaceStats, ObcError> {
    BEYN.with(|scratch| beyn_on(&mut scratch.borrow_mut(), out, m, n, nprime, config))
}

fn beyn_on(
    scratch: &mut BeynScratch,
    out: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    config: &BeynConfig,
) -> Result<SurfaceStats, ObcError> {
    let dim = m.nrows();
    assert!(m.is_square() && n.shape() == (dim, dim) && nprime.shape() == (dim, dim));
    let s = scratch;
    let mut flops = 0u64;

    // Probe with the full identity: the number of enclosed eigenvalues equals
    // the block dimension for a well-posed lead problem, so T(z)⁻¹·V is the
    // plain inverse.
    s.t.fit(dim, dim);
    s.a0.resize_zeroed(dim, dim);
    s.a1.resize_zeroed(dim, dim);
    let nq = config.n_quadrature.max(4);
    for k in 0..nq {
        let theta = 2.0 * PI * (k as f64 + 0.5) / nq as f64;
        let z = c64::new(theta.cos(), theta.sin()) * config.radius;
        let z2 = z * z;
        // T(z) = z²·n + z·m + n'
        let blocks = m.as_slice().iter().zip(n.as_slice()).zip(nprime.as_slice());
        for (t, ((m, n), np)) in s.t.as_mut_slice().iter_mut().zip(blocks) {
            *t = m * z + z2 * n + np;
        }
        s.lu.invert_into(&s.t, &mut s.t_inv)
            .map_err(|_| ObcError::Singular)?;
        flops += inverse_flops(dim);
        // Quadrature weights: dz = i·z·dθ; Beyn moments A_p = (1/2πi)∮ z^p T(z)^{-1} V dz
        // → A_p ≈ (1/nq) Σ_k z_k^{p+1} T(z_k)^{-1} V.
        let w0 = z / nq as f64;
        let w1 = z2 / nq as f64;
        let moments = s.a0.as_mut_slice().iter_mut().zip(s.a1.as_mut_slice());
        for ((a0, a1), t_inv) in moments.zip(s.t_inv.as_slice()) {
            *a0 += w0 * t_inv;
            *a1 += w1 * t_inv;
        }
    }

    // Rank-revealing SVD of A0.
    s.svd.decompose_into(&s.a0, &mut s.dec);
    let rank = s.dec.rank(config.rank_tol);
    if rank == 0 {
        return Err(ObcError::EigenFailure);
    }
    // Reduced matrix B = U_k† A1 W_k Σ_k⁻¹ (k = rank): the leading columns of
    // the column-major factors are their leading `dim · rank` entries.
    s.u_k
        .fit(dim, rank)
        .as_mut_slice()
        .copy_from_slice(&s.dec.u.as_slice()[..dim * rank]);
    s.w_k
        .fit(dim, rank)
        .as_mut_slice()
        .copy_from_slice(&s.dec.v.as_slice()[..dim * rank]);
    // lint:allow(per-energy-gemm): dim × rank with a data-dependent rank per energy — no common shape to batch over
    gemm(
        s.a1w.fit(dim, rank),
        ONE,
        Op::None(&s.a1),
        Op::None(&s.w_k),
        ZERO,
    );
    for j in 0..rank {
        let inv_sigma = c64::new(1.0 / s.dec.sigma[j], 0.0);
        for v in s.a1w.col_mut(j) {
            *v *= inv_sigma;
        }
    }
    // lint:allow(per-energy-gemm): rank × rank reduced problem, see above
    gemm(
        s.b.fit(rank, rank),
        ONE,
        Op::Dagger(&s.u_k),
        Op::None(&s.a1w),
        ZERO,
    );
    flops += 2 * gemm_flops(dim, rank, rank);

    // Reduced eigenvalue problem: eigenvalues are the enclosed Bloch factors,
    // eigenvectors (lifted by U_k) the corresponding modes.
    let eig = eigendecomposition(&s.b).map_err(|_| ObcError::EigenFailure)?;
    // lint:allow(per-energy-gemm): dim × rank lift, see above
    gemm(
        s.phi_k.fit(dim, rank),
        ONE,
        Op::None(&s.u_k),
        Op::None(&eig.vectors),
        ZERO,
    );
    flops += gemm_flops(dim, rank, rank);

    // Propagation matrix F = Φ·Λ·Φ⁻¹: when rank < dim, Φ is completed with
    // canonical basis vectors of eigenvalue zero (instantaneously decaying
    // Bloch factors), which keep it invertible and contribute nothing to F
    // beyond completing the basis.
    s.phi.resize_zeroed(dim, dim);
    s.phi.as_mut_slice()[..dim * rank].copy_from_slice(s.phi_k.as_slice());
    for (extra, j) in (rank..dim).enumerate() {
        s.phi[(extra % dim, j)] += ONE;
    }
    s.lu.invert_into(&s.phi, &mut s.phi_inv)
        .map_err(|_| ObcError::Singular)?;
    s.phi_lambda.fit(dim, dim).copy_from(&s.phi);
    for j in 0..dim {
        let l = if j < rank { eig.values[j] } else { ZERO };
        for v in s.phi_lambda.col_mut(j) {
            *v *= l;
        }
    }
    // lint:allow(per-energy-gemm): one energy's propagation matrix
    gemm(
        s.f.fit(dim, dim),
        ONE,
        Op::None(&s.phi_lambda),
        Op::None(&s.phi_inv),
        ZERO,
    );
    flops += inverse_flops(dim) + gemm_flops(dim, dim, dim);

    // x^R = (m + n·F)⁻¹.
    s.rhs.fit(dim, dim).copy_from(m);
    // lint:allow(per-energy-gemm): one energy's surface function
    gemm(&mut s.rhs, ONE, Op::None(n), Op::None(&s.f), ONE);
    s.lu.invert_into(&s.rhs, out)
        .map_err(|_| ObcError::Singular)?;
    flops += gemm_flops(dim, dim, dim) + inverse_flops(dim);

    let residual = s.residual.residual(&mut s.lu, out, m, n, nprime);
    Ok(SurfaceStats {
        iterations: nq,
        residual,
        flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    /// Build a simple lead problem: onsite block `h0`, coupling `h1`,
    /// evaluated at energy `e + iη`. Returns (m, n, n') with
    /// m = (E+iη)I − h0, n = −h1, n' = −h1†.
    fn lead_problem(dim: usize, e: f64, eta: f64) -> (CMatrix, CMatrix, CMatrix) {
        let h0 = CMatrix::from_fn(dim, dim, |i, j| {
            if i == j {
                cplx(if i % 2 == 0 { 0.6 } else { -0.6 }, 0.0)
            } else {
                cplx(-0.2 / (1.0 + (i as f64 - j as f64).abs()), 0.0)
            }
        })
        .hermitian_part();
        let h1 = CMatrix::from_fn(dim, dim, |i, j| {
            cplx(-0.35 * (-((i as f64 - j as f64).abs()) / 2.0).exp(), 0.0)
        });
        let m = &CMatrix::scaled_identity(dim, cplx(e, eta)) - &h0;
        let n = h1.scaled(cplx(-1.0, 0.0));
        let nprime = h1.dagger().scaled(cplx(-1.0, 0.0));
        (m, n, nprime)
    }

    #[test]
    fn sancho_rubio_satisfies_surface_equation() {
        let (m, n, np) = lead_problem(4, 1.4, 1e-3);
        let sol = sancho_rubio(&m, &n, &np, 1e-12, 200).unwrap();
        assert!(sol.residual < 1e-7, "residual = {}", sol.residual);
        assert!(sol.iterations < 60);
    }

    #[test]
    fn fixed_point_converges_from_cold_start_outside_band() {
        // Far outside the band the lead Green's function is strongly damped and
        // the plain fixed-point iteration converges.
        let (m, n, np) = lead_problem(4, 4.0, 1e-2);
        let sol = fixed_point(&m, &n, &np, None, 1e-10, 2000).unwrap();
        assert!(sol.residual < 1e-8);
    }

    #[test]
    fn fixed_point_with_good_guess_is_fast() {
        let (m, n, np) = lead_problem(4, 1.4, 1e-2);
        let reference = sancho_rubio(&m, &n, &np, 1e-12, 200).unwrap();
        let warm = fixed_point(&m, &n, &np, Some(&reference.x), 1e-10, 50).unwrap();
        assert!(
            warm.iterations <= 5,
            "warm start took {} iterations",
            warm.iterations
        );
        assert!(warm.x.approx_eq(&reference.x, 1e-6));
    }

    /// Lead with weaker inter-cell coupling: all Bloch factors are strongly
    /// evanescent, i.e. well separated from the unit-circle contour. This is
    /// the regime of the screened-interaction (W) boundary problem where the
    /// paper applies the Beyn solver.
    fn evanescent_lead(dim: usize, e: f64, eta: f64) -> (CMatrix, CMatrix, CMatrix) {
        let (m, n, np) = lead_problem(dim, e, eta);
        (m, n.scaled(cplx(0.25, 0.0)), np.scaled(cplx(0.25, 0.0)))
    }

    #[test]
    fn pevp_direct_matches_sancho_rubio() {
        for (e, eta) in [(1.6, 1e-2), (0.0, 1e-3), (2.5, 1e-3)] {
            let (m, n, np) = lead_problem(4, e, eta);
            let sr = sancho_rubio(&m, &n, &np, 1e-12, 200).unwrap();
            let direct = pevp_direct(&m, &n, &np).unwrap();
            assert!(
                direct.residual < 1e-7,
                "PEVP residual {} at E={e}",
                direct.residual
            );
            assert!(
                direct.x.approx_eq(&sr.x, 1e-5),
                "distance = {} at E={e}",
                direct.x.distance(&sr.x)
            );
        }
    }

    #[test]
    fn beyn_matches_sancho_rubio() {
        let (m, n, np) = evanescent_lead(4, 1.6, 1e-2);
        let sr = sancho_rubio(&m, &n, &np, 1e-12, 200).unwrap();
        let by = beyn(&m, &n, &np, &BeynConfig::default()).unwrap();
        assert!(by.residual < 1e-6, "Beyn residual {}", by.residual);
        assert!(
            by.x.approx_eq(&sr.x, 1e-5),
            "distance = {}",
            by.x.distance(&sr.x)
        );
    }

    #[test]
    fn beyn_works_in_the_band_gap() {
        let (m, n, np) = evanescent_lead(6, 0.0, 1e-3);
        let by = beyn(&m, &n, &np, &BeynConfig::default()).unwrap();
        assert!(by.residual < 1e-6, "Beyn residual {}", by.residual);
    }

    #[test]
    fn beyn_matches_pevp_direct_on_evanescent_problem() {
        let (m, n, np) = evanescent_lead(5, 2.5, 1e-2);
        let by = beyn(&m, &n, &np, &BeynConfig::default()).unwrap();
        let direct = pevp_direct(&m, &n, &np).unwrap();
        assert!(by.residual < 1e-6, "Beyn residual {}", by.residual);
        assert!(direct.residual < 1e-6, "PEVP residual {}", direct.residual);
        assert!(
            by.x.approx_eq(&direct.x, 1e-5),
            "distance = {}",
            by.x.distance(&direct.x)
        );
    }

    #[test]
    fn surface_function_has_negative_imaginary_dos() {
        // The retarded surface Green's function must have a negative
        // anti-Hermitian part (positive DOS): Im(trace) <= 0.
        let (m, n, np) = lead_problem(4, 1.4, 1e-3);
        let sol = sancho_rubio(&m, &n, &np, 1e-12, 200).unwrap();
        assert!(sol.x.trace().im <= 1e-10);
    }

    #[test]
    fn decoupled_lead_reduces_to_block_inverse() {
        let (m, _n, _np) = lead_problem(4, 2.0, 1e-3);
        let zero = CMatrix::zeros(4, 4);
        let sol = sancho_rubio(&m, &zero, &zero, 1e-14, 10).unwrap();
        let direct = quatrex_linalg::lu::inverse(&m).unwrap();
        assert!(sol.x.approx_eq(&direct, 1e-10));
    }

    #[test]
    fn not_converged_error_reports_iterations() {
        let (m, n, np) = lead_problem(4, 1.4, 1e-6);
        // One iteration from a cold start cannot converge.
        let err = fixed_point(&m, &n, &np, None, 1e-14, 1).unwrap_err();
        match err {
            ObcError::NotConverged { iterations, .. } => assert_eq!(iterations, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_decimation_whose_couplings_blow_up_stops_before_they_turn_non_finite() {
        // n → s·n, n' → n'/s leaves the surface problem as it is (n·x·n' is
        // unchanged) but multiplies the k-th effective coupling α by
        // s^(2^k): in the band, where α itself decays slowly, it overflows
        // within a few steps and then poisons ε_s and β (∞·0 = NaN).
        let (m, n, np) = lead_problem(4, 1.4, 1e-3);
        let (n, np) = (n.scaled(cplx(1e3, 0.0)), np.scaled(cplx(1e-3, 0.0)));
        let max_iter = 200;
        let stopped = match sancho_rubio(&m, &n, &np, 1e-12, max_iter) {
            Err(ObcError::NotConverged { iterations, .. }) => iterations,
            other => panic!("unexpected outcome {other:?}"),
        };
        // The same decimation in plain products, run to the step at which a
        // coupling turns non-finite.
        let (mut eps, mut alpha, mut beta) = (m.clone(), n.clone(), np.clone());
        let overflow = (1..=max_iter)
            .find(|_| {
                let g = quatrex_linalg::lu::inverse(&eps).expect("ε stays regular");
                let (ag, bg) = (matmul(&alpha, &g), matmul(&beta, &g));
                eps = &(&eps - &matmul(&ag, &beta)) - &matmul(&bg, &alpha);
                (alpha, beta) = (matmul(&ag, &alpha), matmul(&bg, &beta));
                !(is_finite(&alpha) && is_finite(&beta))
            })
            .expect("the couplings overflow");
        assert!(
            stopped < overflow,
            "stopped at step {stopped}, the couplings overflow at step {overflow}"
        );
    }

    #[test]
    fn a_fixed_point_whose_iterate_overflows_stops_at_that_step() {
        // x ↦ (m − n·x·n')⁻¹ on 1 × 1 blocks with n = n' = 1, from a guess
        // that leaves a subnormal m − x: the LU accepts the pivot, the first
        // iterate overflows, and every later step would be non-finite.
        let one = CMatrix::identity(1);
        let m = CMatrix::scaled_identity(1, cplx(1e-300, 0.0));
        let guess = CMatrix::scaled_identity(1, cplx(1e-300 - 1e-310, 0.0));
        match fixed_point(&m, &one, &one, Some(&guess), 1e-10, 50) {
            Err(ObcError::NotConverged { iterations, .. }) => assert_eq!(iterations, 1),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn flop_accounting_is_monotone_in_iterations() {
        let (m, n, np) = lead_problem(4, 3.0, 1e-2);
        let few = fixed_point(&m, &n, &np, None, 1e-2, 200).unwrap();
        let many = fixed_point(&m, &n, &np, None, 1e-10, 200).unwrap();
        assert!(many.flops >= few.flops);
        assert!(many.iterations >= few.iterations);
    }
}
