//! The robust direct solve of the retarded surface problem: a cascade of
//! the solvers of [`crate::retarded`], each attempt in its own probe span.
//!
//! The screened interaction's cascade opens with a Sancho–Rubio attempt
//! capped at two doublings. A lead whose effective couplings decimate below
//! tolerance within two steps is weakly coupled, and that attempt answers it
//! at a sixteenth of Beyn's cost; every strongly coupled lead measured needs
//! four or more steps, so the attempt declines and Beyn answers bit for bit
//! as it would alone.

use quatrex_linalg::CMatrix;

use crate::retarded::{
    beyn_into, fixed_point_into, pevp_direct, sancho_rubio_into, BeynConfig, ObcError,
};

/// Which retarded OBC algorithm leads the cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObcMethod {
    /// Sancho–Rubio decimation (robust default for the electron subsystem).
    SanchoRubio,
    /// Beyn contour integration (used for the screened interaction, whose
    /// Bloch factors are strongly evanescent), after a Sancho–Rubio attempt
    /// of two doublings that answers weakly coupled leads at 1/16 of the cost.
    Beyn,
}

/// One retarded surface solver of the cascade: writes the surface function
/// into its last argument and returns its FLOPs.
type SurfaceSolver = fn(&CMatrix, &CMatrix, &CMatrix, &mut CMatrix) -> Result<u64, ObcError>;
/// One attempt of the cascade: its probe span (category `obc.direct`), its solver.
type Attempt = (&'static str, SurfaceSolver);

/// The span names of the cascade's Sancho–Rubio and fixed-point attempts.
const SR: &str = "obc.sancho_rubio";
const FP: &str = "obc.fixed_point";

/// The robust direct solve: the configured method first, then the distinct
/// alternatives, then progressively looser fixed-point iterations. A lead
/// problem perturbed by the GW self-energy can defeat any single method at
/// isolated energy points; the cascade guarantees a usable surface function
/// without aborting the energy loop. Writes the surface function into `x`
/// (allocation-free when Sancho–Rubio, Beyn or the fixed point answers) and
/// returns the FLOPs of the attempt that answered; a failed attempt counts
/// none.
pub fn surface_cascade_into(
    x: &mut CMatrix,
    m: &CMatrix,
    n: &CMatrix,
    nprime: &CMatrix,
    method: ObcMethod,
) -> u64 {
    const SANCHO_RUBIO: Attempt = (SR, |m, n, np, x| {
        sancho_rubio_into(x, m, n, np, 1e-9, 400).map(|s| s.flops)
    });
    // At most two doublings: converges on weakly coupled leads only.
    const SANCHO_RUBIO_SHORT: Attempt = (SR, |m, n, np, x| {
        sancho_rubio_into(x, m, n, np, 1e-9, 2).map(|s| s.flops)
    });
    const SANCHO_RUBIO_LOOSE: Attempt = (SR, |m, n, np, x| {
        sancho_rubio_into(x, m, n, np, 1e-8, 600).map(|s| s.flops)
    });
    const BEYN: Attempt = ("obc.beyn", |m, n, np, x| {
        beyn_into(x, m, n, np, &BeynConfig::default()).map(|s| s.flops)
    });
    const PEVP: Attempt = ("obc.pevp", |m, n, np, x| {
        pevp_direct(m, n, np).map(|s| {
            *x = s.x;
            s.flops
        })
    });
    const FIXED_POINT: Attempt = (FP, |m, n, np, x| {
        fixed_point_into(x, m, n, np, None, 1e-6, 3000).map(|s| s.flops)
    });
    // A loosely converged fixed point: physically a slightly broadened lead.
    const FIXED_POINT_LOOSE: Attempt = (FP, |m, n, np, x| {
        fixed_point_into(x, m, n, np, None, 1e-3, 5000).map(|s| s.flops)
    });
    let cascade: &[Attempt] = match method {
        ObcMethod::SanchoRubio => &[
            SANCHO_RUBIO,
            SANCHO_RUBIO_LOOSE,
            BEYN,
            PEVP,
            FIXED_POINT,
            FIXED_POINT_LOOSE,
        ],
        ObcMethod::Beyn => &[
            SANCHO_RUBIO_SHORT,
            BEYN,
            SANCHO_RUBIO_LOOSE,
            PEVP,
            FIXED_POINT,
            FIXED_POINT_LOOSE,
        ],
    };
    for &(name, solve) in cascade {
        if let Ok(flops) = quatrex_probe::span(name, "obc.direct", || solve(m, n, nprime, x)) {
            return flops;
        }
    }
    // Never abort the energy loop.
    // lint:allow(allocating-inverse): last resort of the cascade, reached when every solver failed.
    *x = quatrex_linalg::lu::inverse(m).expect("lead onsite block must be invertible");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retarded::{beyn, sancho_rubio};
    use quatrex_linalg::cplx;

    /// [`surface_cascade_into`] into a fresh matrix.
    fn surface_cascade(
        m: &CMatrix,
        n: &CMatrix,
        nprime: &CMatrix,
        method: ObcMethod,
    ) -> (CMatrix, u64) {
        let mut x = CMatrix::default();
        let flops = surface_cascade_into(&mut x, m, n, nprime, method);
        (x, flops)
    }

    /// A screened-interaction-like lead `(m, n, n′)`: a diagonally dominant
    /// onsite block and a non-Hermitian coupling pair scaled by `coupling`.
    fn w_lead(dim: usize, coupling: f64) -> (CMatrix, CMatrix, CMatrix) {
        let m = CMatrix::from_fn(dim, dim, |i, j| {
            let d = (i as f64 - j as f64).abs();
            cplx(if i == j { 1.0 } else { 0.0 }, 0.0) - cplx(0.2 / (1.0 + d), 0.01 * (i + j) as f64)
        });
        let t = |phase: f64| {
            CMatrix::from_fn(dim, dim, |i, j| {
                let d = (i as f64 - j as f64).abs();
                cplx(
                    -coupling * (-d / 2.0).exp(),
                    coupling * phase * (i as f64 - 0.5 * j as f64),
                )
            })
        };
        (m, t(0.1), t(-0.07))
    }

    fn bits(x: &CMatrix) -> Vec<(u64, u64)> {
        x.as_slice()
            .iter()
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect()
    }

    #[test]
    fn a_weakly_coupled_lead_is_answered_by_the_short_sancho_rubio() {
        let (m, n, np) = w_lead(4, 1e-7);
        let short = sancho_rubio(&m, &n, &np, 1e-9, 2).expect("decimates in two steps");
        assert_eq!(short.iterations, 1);
        let (x, flops) = surface_cascade(&m, &n, &np, ObcMethod::Beyn);
        assert_eq!((bits(&x), flops), (bits(&short.x), short.flops));
        let beyn = beyn(&m, &n, &np, &BeynConfig::default()).expect("Beyn answers");
        let rel = x.distance(&beyn.x) / beyn.x.norm_fro();
        assert!(rel <= 1e-14, "short Sancho–Rubio {rel:e} off Beyn");
    }

    #[test]
    fn a_strongly_coupled_lead_is_answered_by_beyn_bit_for_bit() {
        let (m, n, np) = w_lead(4, 0.3);
        assert!(sancho_rubio(&m, &n, &np, 1e-9, 2).is_err());
        let beyn = beyn(&m, &n, &np, &BeynConfig::default()).expect("Beyn answers");
        let (x, flops) = surface_cascade(&m, &n, &np, ObcMethod::Beyn);
        assert_eq!((bits(&x), flops), (bits(&beyn.x), beyn.flops));
    }
}
