//! The dense factorisations under Beyn's solver on a device-generated lead:
//! NR-16 reduced to `N_BS = 32`, at the gap energy the benchmark probes.

use quatrex::prelude::*;
use quatrex_core::assembly::bare_system;
use quatrex_linalg::{c64, svd, CMatrix, LuScratch};
use quatrex_obc::{beyn, sancho_rubio, BeynConfig};

/// `(m, n, n')` of the left lead, below the band.
fn nr16_gap_lead() -> (CMatrix, CMatrix, CMatrix) {
    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), 106).build();
    let h = device.hamiltonian_bt();
    let e_gap = device.default_energy_grid(16).e_min() - 10.0;
    let gap = bare_system(&h, e_gap, ScbaConfig::default().eta);
    (
        gap.diag(0).clone(),
        gap.lower(0).clone(),
        gap.upper(0).clone(),
    )
}

#[test]
fn beyn_moment_of_the_nr16_lead_keeps_its_rank() {
    // A0 = (1/N_q) Σ_k z_k·T(z_k)⁻¹ over the default 48-point unit contour,
    // as `beyn` accumulates it.
    let (m, n, np) = nr16_gap_lead();
    let dim = m.nrows();
    let nq = BeynConfig::default().n_quadrature;
    let mut lu = LuScratch::new();
    let mut t_inv = CMatrix::zeros(dim, dim);
    let mut a0 = CMatrix::zeros(dim, dim);
    for k in 0..nq {
        let theta = 2.0 * std::f64::consts::PI * (k as f64 + 0.5) / nq as f64;
        let z = c64::new(theta.cos(), theta.sin());
        let mut t = m.scaled(z);
        t.axpy(z * z, &n);
        t.axpy(c64::new(1.0, 0.0), &np);
        lu.invert_into(&t, &mut t_inv)
            .expect("regular on the contour");
        a0.axpy(z / nq as f64, &t_inv);
    }
    let dec = svd(&a0);
    // Every Bloch factor of the gap lead is enclosed: full rank, as the
    // column-at-a-time SVD before the split-plane one decided, and far from
    // the 1e-8 threshold.
    assert_eq!((dim, dec.rank(BeynConfig::default().rank_tol)), (32, 32));
    assert!(dec.sigma[dim - 1] > 0.1 * dec.sigma[0]);
    assert!(dec.reconstruct().approx_eq(&a0, 1e-12));
}

#[test]
fn beyn_agrees_with_sancho_rubio_on_the_nr16_lead() {
    let (m, n, np) = nr16_gap_lead();
    let by = beyn(&m, &n, &np, &BeynConfig::default()).expect("Beyn solve");
    let sr = sancho_rubio(&m, &n, &np, 1e-12, 400).expect("decimation");
    assert!(by.residual < 1e-10, "Beyn residual {}", by.residual);
    let distance = by.x.distance(&sr.x) / sr.x.norm_fro();
    assert!(distance <= 1e-8, "relative distance {distance:e}");
}
