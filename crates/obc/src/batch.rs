//! The retarded surface-function iterations, batched over energies.
//!
//! The fixed-point and Sancho–Rubio iterations (see [`crate::retarded`] for
//! the equation they solve) run the same block products at every energy —
//! only the operand *values* differ. The solvers here are their one
//! implementation: they stage the per-energy `(m, n, n')` blocks into
//! energy-major [`MatrixBatch`]es and run each iteration as a handful of
//! [`gemm_batch`] / [`invert_batch_into`] calls over the whole energy set.
//! [`crate::retarded::fixed_point`] and [`crate::retarded::sancho_rubio`] are
//! these solvers at one energy.
//!
//! Energies converge at different iteration counts, so the solvers keep an
//! **active list with swap-compaction**: the state batches are ordered so the
//! still-iterating energies form a contiguous prefix; when an energy converges
//! (or fails) its planes are swapped to the tail and the prefix shrinks, and
//! every subsequent batched call sweeps only the live planes. Planes are
//! independent and run the same packing/micro-kernel/LU code at any batch
//! length, so an energy's surface function, iteration count, residual and
//! FLOP count are **bit-identical** whichever batch it is solved in.

use quatrex_linalg::batch::{gemm_batch, invert_batch_into, BatchOp, BatchWorkspace, MatrixBatch};
use quatrex_linalg::lu::{inverse_flops, LuScratch};
use quatrex_linalg::ops::{gemm_flops, OpKind};
use quatrex_linalg::{c64, CMatrix, ONE, ZERO};

use crate::retarded::{ObcError, ObcSolution, ResidualWork};

/// Reusable scratch of the batched OBC solvers: the batch arena, the LU
/// scratch (every inversion of both solvers, batched or not) and the residual
/// work matrices survive across calls, so a steady-state sweep over an energy
/// window of fixed shape allocates only the surface functions it returns.
#[derive(Debug, Default)]
pub struct ObcBatchScratch {
    bws: BatchWorkspace,
    lu: LuScratch,
    residual: ResidualWork,
}

impl ObcBatchScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fresh arena allocations performed so far (plateaus after the
    /// first call at a given shape).
    pub fn fresh_allocations(&self) -> usize {
        self.bws.fresh_allocations()
    }
}

/// Per-prefix-position bookkeeping that must travel with the plane swaps.
struct ActiveList {
    /// Prefix position -> original energy index.
    idx: Vec<usize>,
    /// Last convergence metric seen at each prefix position.
    last_metric: Vec<f64>,
    /// Live prefix length.
    n_active: usize,
}

impl ActiveList {
    fn new(ne: usize) -> Self {
        Self {
            idx: (0..ne).collect(),
            last_metric: vec![f64::INFINITY; ne],
            n_active: ne,
        }
    }

    /// Swap prefix position `i` with the last live position and shrink the
    /// prefix. The caller must mirror the swap in every state batch.
    fn retire(&mut self, i: usize) -> usize {
        let last = self.n_active - 1;
        self.idx.swap(i, last);
        self.last_metric.swap(i, last);
        self.n_active = last;
        last
    }
}

/// Frobenius norm of a plane — the summation order of `CMatrix::norm_fro`.
fn plane_norm_fro(p: &[c64]) -> f64 {
    p.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
}

/// `‖a − b‖_F` over planes — the summation order of `CMatrix::distance`.
fn plane_distance(a: &[c64], b: &[c64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

fn stage(dst: &mut MatrixBatch, planes: &[&CMatrix]) {
    for (e, p) in planes.iter().enumerate() {
        dst.copy_plane_from(e, p);
    }
}

/// Plain fixed-point iteration `x_{k+1} = (m − n·x_k·n')⁻¹` over an energy
/// set (paper Eq. (5)).
///
/// `x0s[e]` is energy `e`'s initial guess (`None` → cold start from `m⁻¹`).
/// Returns one per-energy result; a singular or non-converged energy fails
/// alone without disturbing the others, and every returned solution (surface
/// function, iterations, residual, FLOPs) is independent of the batch it was
/// solved in.
pub fn fixed_point_batch(
    ms: &[&CMatrix],
    ns: &[&CMatrix],
    nps: &[&CMatrix],
    x0s: &[Option<&CMatrix>],
    tol: f64,
    max_iter: usize,
    scratch: &mut ObcBatchScratch,
) -> Vec<Result<ObcSolution, ObcError>> {
    let ne = ms.len();
    assert_eq!(ns.len(), ne, "coupling count");
    assert_eq!(nps.len(), ne, "reverse coupling count");
    assert_eq!(x0s.len(), ne, "initial guess count");
    if ne == 0 {
        return Vec::new();
    }
    let dim = ms[0].nrows();
    for e in 0..ne {
        assert!(
            ms[e].shape() == (dim, dim)
                && ns[e].shape() == (dim, dim)
                && nps[e].shape() == (dim, dim),
            "all energies must share the transport-cell block shape"
        );
    }

    let mut out: Vec<Option<Result<ObcSolution, ObcError>>> = (0..ne).map(|_| None).collect();
    let mut active = ActiveList::new(ne);
    let mut flops = vec![0u64; ne];

    // State batches (full-size storage, live energies compacted to the front).
    let mut nb = scratch.bws.take(ne, dim, dim);
    let mut npb = scratch.bws.take(ne, dim, dim);
    let mut xb = scratch.bws.take(ne, dim, dim);
    stage(&mut nb, ns);
    stage(&mut npb, nps);
    // Initial iterate: the guess, or a cold start from m⁻¹.
    {
        let mut i = 0;
        while i < active.n_active {
            let e = active.idx[i];
            match x0s[e] {
                Some(x0) => {
                    xb.copy_plane_from(i, x0);
                    i += 1;
                }
                None => {
                    flops[i] += inverse_flops(dim);
                    let cold = scratch
                        .lu
                        .invert_slice_into(ms[e].as_slice(), dim, xb.plane_mut(i));
                    match cold {
                        Ok(()) => i += 1,
                        Err(_) => {
                            out[e] = Some(Err(ObcError::Singular));
                            let last = active.retire(i);
                            flops.swap(i, last);
                            nb.swap_planes(i, last);
                            npb.swap_planes(i, last);
                            xb.swap_planes(i, last);
                        }
                    }
                }
            }
        }
    }

    let per_iter = 2 * gemm_flops(dim, dim, dim) + inverse_flops(dim);
    let mut it = 0usize;
    while active.n_active > 0 && it < max_iter {
        let na = active.n_active;
        // nx_e = n_e · x_e ; rhs_e = m_e − nx_e · n'_e ; x_next_e = rhs_e⁻¹.
        let mut nx = scratch.bws.take(na, dim, dim);
        let mut rhs = scratch.bws.take(na, dim, dim);
        let mut x_next = scratch.bws.take(na, dim, dim);
        gemm_batch(
            &mut nx,
            ONE,
            BatchOp::Each(OpKind::None, &nb),
            BatchOp::Each(OpKind::None, &xb),
            ZERO,
        );
        for i in 0..na {
            rhs.copy_plane_from(i, ms[active.idx[i]]);
        }
        gemm_batch(
            &mut rhs,
            -ONE,
            BatchOp::Each(OpKind::None, &nx),
            BatchOp::Each(OpKind::None, &npb),
            ONE,
        );
        if let Err((p, _)) = invert_batch_into(&mut scratch.lu, &rhs, &mut x_next) {
            // This energy is `Singular` at this iteration; retire it and
            // recompute the surviving prefix (bit-identical — the surviving
            // operands are unchanged).
            out[active.idx[p]] = Some(Err(ObcError::Singular));
            let last = active.retire(p);
            flops.swap(p, last);
            nb.swap_planes(p, last);
            npb.swap_planes(p, last);
            xb.swap_planes(p, last);
            scratch.bws.give(nx);
            scratch.bws.give(rhs);
            scratch.bws.give(x_next);
            continue;
        }
        it += 1;

        // Residuals against the previous iterate, then adopt the new one.
        for i in 0..na {
            let xn = x_next.plane(i);
            active.last_metric[i] =
                plane_distance(xn, xb.plane(i)) / plane_norm_fro(xn).max(1e-300);
            flops[i] += per_iter;
        }
        for i in 0..na {
            xb.plane_mut(i).copy_from_slice(x_next.plane(i));
        }
        scratch.bws.give(nx);
        scratch.bws.give(rhs);
        scratch.bws.give(x_next);

        let mut i = 0;
        while i < active.n_active {
            if active.last_metric[i] < tol {
                out[active.idx[i]] = Some(Ok(ObcSolution {
                    x: xb.plane_matrix(i),
                    iterations: it,
                    residual: active.last_metric[i],
                    flops: flops[i],
                }));
                let last = active.retire(i);
                flops.swap(i, last);
                nb.swap_planes(i, last);
                npb.swap_planes(i, last);
                xb.swap_planes(i, last);
            } else {
                i += 1;
            }
        }
    }

    for i in 0..active.n_active {
        out[active.idx[i]] = Some(Err(ObcError::NotConverged {
            residual: active.last_metric[i],
            iterations: max_iter,
        }));
    }
    scratch.bws.give(nb);
    scratch.bws.give(npb);
    scratch.bws.give(xb);
    out.into_iter()
        .map(|r| r.expect("every energy resolved"))
        .collect()
}

/// Sancho–Rubio decimation over an energy set, with the same active-list
/// compaction and batch-independent per-energy results as
/// [`fixed_point_batch`].
pub fn sancho_rubio_batch(
    ms: &[&CMatrix],
    ns: &[&CMatrix],
    nps: &[&CMatrix],
    tol: f64,
    max_iter: usize,
    scratch: &mut ObcBatchScratch,
) -> Vec<Result<ObcSolution, ObcError>> {
    let ne = ms.len();
    assert_eq!(ns.len(), ne, "coupling count");
    assert_eq!(nps.len(), ne, "reverse coupling count");
    if ne == 0 {
        return Vec::new();
    }
    let dim = ms[0].nrows();
    for e in 0..ne {
        assert!(
            ms[e].shape() == (dim, dim)
                && ns[e].shape() == (dim, dim)
                && nps[e].shape() == (dim, dim),
            "all energies must share the transport-cell block shape"
        );
    }

    let mut out: Vec<Option<Result<ObcSolution, ObcError>>> = (0..ne).map(|_| None).collect();
    let mut active = ActiveList::new(ne);
    let mut flops = vec![0u64; ne];

    // Decimation state: eps_s = surface onsite, eps = bulk onsite,
    // alpha/beta = effective couplings. Full-size, compacted prefix.
    let mut eps_s = scratch.bws.take(ne, dim, dim);
    let mut eps = scratch.bws.take(ne, dim, dim);
    let mut alpha = scratch.bws.take(ne, dim, dim);
    let mut beta = scratch.bws.take(ne, dim, dim);
    stage(&mut eps_s, ms);
    stage(&mut eps, ms);
    stage(&mut alpha, ns);
    stage(&mut beta, nps);

    let per_iter = inverse_flops(dim) + 6 * gemm_flops(dim, dim, dim);
    let mut it = 0usize;
    'outer: while active.n_active > 0 && it < max_iter {
        let na = active.n_active;
        let mut g = scratch.bws.take(na, dim, dim);
        if let Err((p, _)) = invert_batch_into(&mut scratch.lu, &eps, &mut g) {
            out[active.idx[p]] = Some(Err(ObcError::Singular));
            let last = active.retire(p);
            flops.swap(p, last);
            eps_s.swap_planes(p, last);
            eps.swap_planes(p, last);
            alpha.swap_planes(p, last);
            beta.swap_planes(p, last);
            scratch.bws.give(g);
            continue 'outer;
        }
        it += 1;

        // ag = α·g, bg = β·g, agb = ag·β, bga = bg·α, then the doubled
        // couplings α' = ag·α, β' = bg·β — six batched products per step.
        let mut ag = scratch.bws.take(na, dim, dim);
        let mut bg = scratch.bws.take(na, dim, dim);
        let mut agb = scratch.bws.take(na, dim, dim);
        let mut bga = scratch.bws.take(na, dim, dim);
        let mut alpha_next = scratch.bws.take(na, dim, dim);
        let mut beta_next = scratch.bws.take(na, dim, dim);
        gemm_batch(
            &mut ag,
            ONE,
            BatchOp::Each(OpKind::None, &alpha),
            BatchOp::Each(OpKind::None, &g),
            ZERO,
        );
        gemm_batch(
            &mut bg,
            ONE,
            BatchOp::Each(OpKind::None, &beta),
            BatchOp::Each(OpKind::None, &g),
            ZERO,
        );
        gemm_batch(
            &mut agb,
            ONE,
            BatchOp::Each(OpKind::None, &ag),
            BatchOp::Each(OpKind::None, &beta),
            ZERO,
        );
        gemm_batch(
            &mut bga,
            ONE,
            BatchOp::Each(OpKind::None, &bg),
            BatchOp::Each(OpKind::None, &alpha),
            ZERO,
        );
        gemm_batch(
            &mut alpha_next,
            ONE,
            BatchOp::Each(OpKind::None, &ag),
            BatchOp::Each(OpKind::None, &alpha),
            ZERO,
        );
        gemm_batch(
            &mut beta_next,
            ONE,
            BatchOp::Each(OpKind::None, &bg),
            BatchOp::Each(OpKind::None, &beta),
            ZERO,
        );
        // eps_s -= agb ; eps -= agb, then eps -= bga — prefix-only
        // elementwise updates, in this order.
        let pl = eps.plane_len();
        for (d, s) in eps_s.as_mut_slice()[..na * pl]
            .iter_mut()
            .zip(agb.as_slice())
        {
            *d -= s;
        }
        for (d, s) in eps.as_mut_slice()[..na * pl].iter_mut().zip(agb.as_slice()) {
            *d -= s;
        }
        for (d, s) in eps.as_mut_slice()[..na * pl].iter_mut().zip(bga.as_slice()) {
            *d -= s;
        }
        for i in 0..na {
            alpha.plane_mut(i).copy_from_slice(alpha_next.plane(i));
            beta.plane_mut(i).copy_from_slice(beta_next.plane(i));
            flops[i] += per_iter;
        }
        scratch.bws.give(g);
        scratch.bws.give(ag);
        scratch.bws.give(bg);
        scratch.bws.give(agb);
        scratch.bws.give(bga);
        scratch.bws.give(alpha_next);
        scratch.bws.give(beta_next);

        let mut i = 0;
        while i < active.n_active {
            let an = plane_norm_fro(alpha.plane(i));
            let bn = plane_norm_fro(beta.plane(i));
            active.last_metric[i] = an.max(bn);
            if an < tol && bn < tol {
                let e = active.idx[i];
                // Converged: the surface function is eps_s⁻¹; residual checked
                // against the original (m, n, n').
                flops[i] += inverse_flops(dim);
                let mut x = CMatrix::zeros(dim, dim);
                let lu = &mut scratch.lu;
                let surface = lu.invert_slice_into(eps_s.plane(i), dim, x.as_mut_slice());
                out[e] = Some(match surface {
                    Ok(()) => {
                        let residual = scratch.residual.residual(lu, &x, ms[e], ns[e], nps[e]);
                        Ok(ObcSolution {
                            x,
                            iterations: it,
                            residual,
                            flops: flops[i],
                        })
                    }
                    Err(_) => Err(ObcError::Singular),
                });
                let last = active.retire(i);
                flops.swap(i, last);
                eps_s.swap_planes(i, last);
                eps.swap_planes(i, last);
                alpha.swap_planes(i, last);
                beta.swap_planes(i, last);
            } else {
                i += 1;
            }
        }
    }

    for i in 0..active.n_active {
        out[active.idx[i]] = Some(Err(ObcError::NotConverged {
            residual: active.last_metric[i],
            iterations: max_iter,
        }));
    }
    scratch.bws.give(eps_s);
    scratch.bws.give(eps);
    scratch.bws.give(alpha);
    scratch.bws.give(beta);
    out.into_iter()
        .map(|r| r.expect("every energy resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retarded::{fixed_point, sancho_rubio, surface_residual};
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

    fn energy_grid(dim: usize, energies: &[f64], eta: f64) -> Vec<(CMatrix, CMatrix, CMatrix)> {
        energies
            .iter()
            .map(|&e| lead_problem(dim, e, eta))
            .collect()
    }

    fn refs(grid: &[(CMatrix, CMatrix, CMatrix)]) -> (Vec<&CMatrix>, Vec<&CMatrix>, Vec<&CMatrix>) {
        (
            grid.iter().map(|(m, _, _)| m).collect(),
            grid.iter().map(|(_, n, _)| n).collect(),
            grid.iter().map(|(_, _, np)| np).collect(),
        )
    }

    fn assert_same(got: &ObcSolution, want: &ObcSolution, tag: &str) {
        assert!(
            got.x.approx_eq(&want.x, 0.0),
            "{tag}: surface function differs"
        );
        assert_eq!(got.iterations, want.iterations, "{tag}: iterations differ");
        assert_eq!(
            got.residual.to_bits(),
            want.residual.to_bits(),
            "{tag}: residual differs"
        );
        assert_eq!(got.flops, want.flops, "{tag}: FLOPs differ");
    }

    // `fixed_point` / `sancho_rubio` are the batch of one, so every
    // comparison below is batch-of-N against batch-of-one, bitwise.

    #[test]
    fn fixed_point_is_batch_size_independent() {
        // Energies far outside the band, where cold-start fixed-point
        // converges — at different rates, exercising the active-list
        // compaction.
        let grid = energy_grid(4, &[3.4, 3.8, 4.2, 4.8, 5.5], 1e-2);
        let (ms, ns, nps) = refs(&grid);
        let x0s = vec![None; grid.len()];
        let mut scratch = ObcBatchScratch::new();
        let got = fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-10, 2000, &mut scratch);
        let mut iteration_counts = std::collections::BTreeSet::new();
        for (e, (m, n, np)) in grid.iter().enumerate() {
            let want = fixed_point(m, n, np, None, 1e-10, 2000).unwrap();
            iteration_counts.insert(want.iterations);
            assert_same(got[e].as_ref().unwrap(), &want, &format!("energy {e}"));
            // And the batch-of-N answer solves the surface equation.
            assert!(surface_residual(&got[e].as_ref().unwrap().x, m, n, np) < 1e-8);
        }
        assert!(
            iteration_counts.len() > 1,
            "test should exercise staggered convergence"
        );
    }

    #[test]
    fn warm_started_fixed_point_is_batch_size_independent() {
        let grid = energy_grid(4, &[1.3, 1.4, 1.5], 1e-2);
        let (ms, ns, nps) = refs(&grid);
        let seeds: Vec<CMatrix> = grid
            .iter()
            .map(|(m, n, np)| sancho_rubio(m, n, np, 1e-12, 200).unwrap().x)
            .collect();
        let x0s: Vec<Option<&CMatrix>> = seeds.iter().map(Some).collect();
        let mut scratch = ObcBatchScratch::new();
        let got = fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-10, 50, &mut scratch);
        for (e, (m, n, np)) in grid.iter().enumerate() {
            let want = fixed_point(m, n, np, Some(&seeds[e]), 1e-10, 50).unwrap();
            assert_same(got[e].as_ref().unwrap(), &want, &format!("energy {e}"));
            assert!(want.iterations <= 5);
        }
    }

    #[test]
    fn sancho_rubio_is_batch_size_independent() {
        let grid = energy_grid(4, &[0.0, 0.8, 1.4, 2.0, 2.6], 1e-3);
        let (ms, ns, nps) = refs(&grid);
        let mut scratch = ObcBatchScratch::new();
        let got = sancho_rubio_batch(&ms, &ns, &nps, 1e-12, 200, &mut scratch);
        let mut iteration_counts = std::collections::BTreeSet::new();
        for (e, (m, n, np)) in grid.iter().enumerate() {
            let want = sancho_rubio(m, n, np, 1e-12, 200).unwrap();
            iteration_counts.insert(want.iterations);
            assert_same(got[e].as_ref().unwrap(), &want, &format!("energy {e}"));
            assert!(got[e].as_ref().unwrap().residual < 1e-7);
        }
        assert!(
            iteration_counts.len() > 1,
            "test should exercise staggered convergence"
        );
    }

    #[test]
    fn one_bad_energy_fails_alone() {
        let grid = energy_grid(4, &[3.5, 4.0], 1e-2);
        let (mut ms, ns, nps) = refs(&grid);
        // A singular m with a cold start fails at the initial inverse.
        let singular = CMatrix::zeros(4, 4);
        ms[1] = &singular;
        let x0s = vec![None; 2];
        let mut scratch = ObcBatchScratch::new();
        let got = fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-10, 2000, &mut scratch);
        assert!(got[0].is_ok());
        assert_eq!(got[1].as_ref().unwrap_err(), &ObcError::Singular);
    }

    #[test]
    fn non_converged_energies_report_batch_independent_residuals() {
        let grid = energy_grid(4, &[1.4, 3.8], 1e-6);
        let (ms, ns, nps) = refs(&grid);
        let x0s = vec![None; 2];
        let mut scratch = ObcBatchScratch::new();
        // One iteration: the in-band energy cannot converge from a cold start.
        let got = fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-14, 1, &mut scratch);
        let want = fixed_point(&grid[0].0, &grid[0].1, &grid[0].2, None, 1e-14, 1).unwrap_err();
        match (got[0].as_ref().unwrap_err(), &want) {
            (
                ObcError::NotConverged {
                    residual: rg,
                    iterations: ig,
                },
                ObcError::NotConverged {
                    residual: rw,
                    iterations: iw,
                },
            ) => {
                assert_eq!(rg.to_bits(), rw.to_bits());
                assert_eq!(ig, iw);
            }
            other => panic!("unexpected errors {other:?}"),
        }
    }

    #[test]
    fn scratch_arena_plateaus_across_sweeps() {
        let grid = energy_grid(4, &[3.4, 3.8, 4.2], 1e-2);
        let (ms, ns, nps) = refs(&grid);
        let x0s = vec![None; grid.len()];
        let mut scratch = ObcBatchScratch::new();
        fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-10, 2000, &mut scratch);
        let warm = scratch.fresh_allocations();
        for _ in 0..3 {
            fixed_point_batch(&ms, &ns, &nps, &x0s, 1e-10, 2000, &mut scratch);
        }
        assert_eq!(scratch.fresh_allocations(), warm);
    }
}
