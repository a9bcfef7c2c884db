//! Physical observables derived from the selected Green's function blocks
//! (paper Section 4.5).
//!
//! All observables are derived from the diagonal and first off-diagonal blocks
//! of the lesser/greater/retarded Green's functions:
//!
//! * the local density of states `DOS_i(E) = −(1/π)·Im Tr G^R_ii(E)`,
//! * the electron density `n_i = −i·ΔE/(2π)·Σ_E Tr G^<_ii(E)`,
//! * the energy-resolved terminal current in the Meir–Wingreen form
//!   `I(E) ∝ Tr[Σ^<_L(E)·G^>_11(E) − Σ^>_L(E)·G^<_11(E)]` and its integral.
//!
//! Currents are reported in units of `e/ħ · eV` (multiply by `e/h ≈ 2.43·10⁻⁴ A/eV·2π`
//! to convert to Ampère); densities in electrons per transport cell.

use quatrex_linalg::ops::matmul_into;
use quatrex_linalg::{c64, CMatrix};
use quatrex_sparse::BlockTridiagonal;

/// Energy-resolved spectral data of a converged (or ballistic) calculation.
#[derive(Debug, Clone, Default)]
pub struct SpectralData {
    /// Energy grid points (eV).
    pub energies: Vec<f64>,
    /// Total density of states per energy.
    pub dos: Vec<f64>,
    /// Local (per transport cell) density of states, `dos_local[e][block]`.
    pub dos_local: Vec<Vec<f64>>,
    /// Energy-resolved current at the left contact.
    pub current_spectrum: Vec<f64>,
}

/// Integrated observables.
#[derive(Debug, Clone, Default)]
pub struct Observables {
    /// Electron density per transport cell.
    pub electron_density: Vec<f64>,
    /// Terminal current at the left contact (e/ħ·eV units).
    pub current: f64,
    /// Energy-resolved data.
    pub spectral: SpectralData,
}

/// Density of states per transport cell at one energy: `−(1/π)·Im Tr G^R_ii`.
pub(crate) fn local_dos(g_retarded: &BlockTridiagonal) -> Vec<f64> {
    (0..g_retarded.n_blocks())
        .map(|i| dos_of_block(g_retarded, i))
        .collect()
}

/// Electron density per transport cell from the lesser Green's function
/// accumulated over the energy grid: `n_i = −i·ΔE/(2π)·Σ_E Tr G^<_ii(E)`.
pub fn electron_density(g_lesser: &[BlockTridiagonal], de: f64) -> Vec<f64> {
    if g_lesser.is_empty() {
        return Vec::new();
    }
    let nb = g_lesser[0].n_blocks();
    let mut density = vec![0.0; nb];
    for bt in g_lesser {
        for (i, d) in density.iter_mut().enumerate() {
            let tr = bt.diag(i).trace();
            // G^< = i·(density matrix spectral weight): −i·G^< has a real,
            // non-negative trace for physical states.
            *d += (c64::new(0.0, -1.0) * tr).re * de / (2.0 * std::f64::consts::PI);
        }
    }
    density
}

/// Energy-resolved current at the left contact (Meir–Wingreen):
/// `I(E) = Tr[Σ^<_L(E)·G^>_11(E) − Σ^>_L(E)·G^<_11(E)]` (real part), the
/// products formed in `work`.
pub(crate) fn current_spectrum_left(
    work: &mut CMatrix,
    sigma_obc_left_lesser: &CMatrix,
    sigma_obc_left_greater: &CMatrix,
    g_lesser_00: &CMatrix,
    g_greater_00: &CMatrix,
) -> f64 {
    matmul_into(work, sigma_obc_left_lesser, g_greater_00);
    let term1 = work.trace();
    matmul_into(work, sigma_obc_left_greater, g_lesser_00);
    let term2 = work.trace();
    (term1 - term2).re
}

/// The DOS of [`local_dos`] at block `i`.
pub(crate) fn dos_of_block(g_retarded: &BlockTridiagonal, i: usize) -> f64 {
    let tr = g_retarded.diag(i).trace();
    -tr.im / std::f64::consts::PI
}

/// Integrate an energy-resolved current spectrum over the grid.
pub fn integrate_current(current_spectrum: &[f64], de: f64) -> f64 {
    current_spectrum.iter().sum::<f64>() * de / (2.0 * std::f64::consts::PI)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_linalg::cplx;

    #[test]
    fn dos_of_a_damped_resolvent_is_positive() {
        // G^R = (E − ε + iη)⁻¹ on the diagonal: Im G^R < 0 ⇒ DOS > 0.
        let mut g = BlockTridiagonal::zeros(3, 2);
        for i in 0..3 {
            g.set_block(i, i, CMatrix::scaled_identity(2, cplx(0.1, -0.4)));
        }
        let dos = local_dos(&g);
        assert_eq!(dos.len(), 3);
        for d in dos {
            assert!((d - 2.0 * 0.4 / std::f64::consts::PI).abs() < 1e-12);
        }
    }

    #[test]
    fn density_of_fully_occupied_state_is_positive_and_additive() {
        // G^< = i·A with A positive: density = ΔE/(2π)·Tr A per energy point.
        let mut g = BlockTridiagonal::zeros(2, 2);
        g.set_block(0, 0, CMatrix::scaled_identity(2, cplx(0.0, 0.5)));
        g.set_block(1, 1, CMatrix::scaled_identity(2, cplx(0.0, 1.0)));
        let de = 0.1;
        let n1 = electron_density(&[g.clone()], de);
        let n2 = electron_density(&[g.clone(), g.clone()], de);
        assert!((n1[0] - 0.1 * 1.0 / (2.0 * std::f64::consts::PI)).abs() < 1e-12);
        assert!((n2[0] - 2.0 * n1[0]).abs() < 1e-14);
        assert!(n1[1] > n1[0]);
    }

    #[test]
    fn current_vanishes_in_equilibrium_detailed_balance() {
        // If Σ^<·G^> == Σ^>·G^< the spectral current is zero.
        let sigma_l = CMatrix::scaled_identity(2, cplx(0.0, 0.3));
        let sigma_g = CMatrix::scaled_identity(2, cplx(0.0, -0.7));
        let g_l = CMatrix::scaled_identity(2, cplx(0.0, 0.7));
        let g_g = CMatrix::scaled_identity(2, cplx(0.0, -0.3));
        // Σ^< G^> = (i0.3)(-i0.3) = 0.09·I ; Σ^> G^< = (-i0.7)(i0.7) = 0.49·I → not balanced.
        let i1 = current_spectrum_left(&mut CMatrix::default(), &sigma_l, &sigma_g, &g_l, &g_g);
        assert!(i1.abs() > 1e-12);
        // Balanced combination: Σ^< G^> = Σ^> G^<.
        let g_l2 = CMatrix::scaled_identity(2, cplx(0.0, 0.3));
        let g_g2 = CMatrix::scaled_identity(2, cplx(0.0, -0.3));
        let sigma_g2 = CMatrix::scaled_identity(2, cplx(0.0, -0.3));
        let i2 = current_spectrum_left(&mut CMatrix::default(), &sigma_l, &sigma_g2, &g_l2, &g_g2);
        assert!(i2.abs() < 1e-14);
    }

    #[test]
    fn current_integration_uses_the_grid_spacing() {
        let spectrum = vec![1.0, 2.0, 3.0];
        let i = integrate_current(&spectrum, 0.5);
        assert!((i - 6.0 * 0.5 / (2.0 * std::f64::consts::PI)).abs() < 1e-14);
    }
}
