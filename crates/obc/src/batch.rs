//! The Sancho–Rubio surface iteration over an energy set.
//!
//! [`sancho_rubio_batch`] solves each energy in turn with the per-energy
//! iteration of [`crate::retarded`] on one [`ObcBatchScratch`], so every
//! energy's surface function, iteration count, residual and FLOP count are
//! bit-identical to a [`crate::retarded::sancho_rubio`] call, and a warmed
//! sweep allocates only the surface functions it returns and its result
//! vector (`tests/alloc_free.rs`). The production solves are single-energy
//! calls from the assemblies' OBC cascade. Batching the iteration across
//! energies comes back only when batched assembly (ROADMAP item 3) gives it
//! batch traffic and a workload shows the gain.

use quatrex_linalg::lu::LuScratch;
use quatrex_linalg::CMatrix;

use crate::retarded::{sancho_rubio_on, ObcError, ObcSolution, ResidualWork};

/// Reusable scratch of the surface iterations: the LU scratch every
/// inversion runs on, the residual check's work matrices and the
/// iteration's work blocks (four for the fixed point, eight for
/// Sancho–Rubio), reshaped to each solve's block size. Warmed at a block
/// size, a solve allocates only the surface function it returns.
#[derive(Debug, Default)]
pub struct ObcBatchScratch {
    pub(crate) lu: LuScratch,
    pub(crate) residual: ResidualWork,
    pub(crate) blocks: [CMatrix; 8],
}

impl ObcBatchScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sancho–Rubio decimation at every energy `(ms[e], ns[e], nps[e])`, one
/// energy after the other on `scratch`. A singular or non-converged energy
/// fails alone.
pub fn sancho_rubio_batch(
    ms: &[&CMatrix],
    ns: &[&CMatrix],
    nps: &[&CMatrix],
    tol: f64,
    max_iter: usize,
    scratch: &mut ObcBatchScratch,
) -> Vec<Result<ObcSolution, ObcError>> {
    assert_eq!(ns.len(), ms.len(), "coupling count");
    assert_eq!(nps.len(), ms.len(), "reverse coupling count");
    ms.iter()
        .zip(ns)
        .zip(nps)
        .map(|((m, n), np)| sancho_rubio_on(scratch, m, n, np, tol, max_iter))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retarded::sancho_rubio;
    use quatrex_linalg::cplx;

    /// The lead problem of the `retarded` tests, made energy-dependent.
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
    fn every_entry_matches_the_per_energy_solver() {
        // Across and above the band the decimation converges at staggered
        // iteration counts; the in-band points near the edges need more
        // steps than the budget, and one onsite block is singular.
        let grid: Vec<_> = [0.0, 0.8, 1.4, 2.0, 2.6, 3.8]
            .iter()
            .map(|&e| lead_problem(5, e, 1e-4))
            .collect();
        let singular = CMatrix::zeros(5, 5);
        let mut ms: Vec<&CMatrix> = grid.iter().map(|(m, _, _)| m).collect();
        ms[2] = &singular;
        let ns: Vec<&CMatrix> = grid.iter().map(|(_, n, _)| n).collect();
        let nps: Vec<&CMatrix> = grid.iter().map(|(_, _, np)| np).collect();
        let (tol, max_iter) = (1e-12, 12);

        let mut scratch = ObcBatchScratch::new();
        let got = sancho_rubio_batch(&ms, &ns, &nps, tol, max_iter, &mut scratch);
        let bits = |x: &CMatrix| -> Vec<(u64, u64)> {
            x.as_slice()
                .iter()
                .map(|v| (v.re.to_bits(), v.im.to_bits()))
                .collect()
        };
        let (mut iteration_counts, mut not_converged, mut singular) =
            (std::collections::BTreeSet::new(), 0, 0);
        for (e, got) in got.iter().enumerate() {
            let want = sancho_rubio(ms[e], ns[e], nps[e], tol, max_iter);
            match (got, &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(bits(&g.x), bits(&w.x), "energy {e}: surface function");
                    assert_eq!(
                        (g.iterations, g.residual.to_bits(), g.flops),
                        (w.iterations, w.residual.to_bits(), w.flops),
                        "energy {e}"
                    );
                    iteration_counts.insert(g.iterations);
                }
                (Err(g), Err(w)) => {
                    assert_eq!(g, w, "energy {e}");
                    match g {
                        ObcError::NotConverged { .. } => not_converged += 1,
                        _ => singular += 1,
                    }
                }
                other => panic!("energy {e}: batch and per-energy disagree: {other:?}"),
            }
        }
        assert!(iteration_counts.len() > 1, "staggered convergence");
        assert!(not_converged > 0 && singular == 1, "failures in the table");
    }
}
