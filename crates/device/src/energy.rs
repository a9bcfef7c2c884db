//! Energy grids and equilibrium statistics.
//!
//! The NEGF+scGW equations are solved on a uniform grid of `N_E` energy points
//! (10,000–100,000 in the paper; a few hundred at laptop scale). The contacts
//! are kept in thermodynamic equilibrium, so their occupation is given by the
//! Fermi–Dirac distribution at the respective electro-chemical potential.

use crate::KB_EV;

/// Uniform energy grid `[e_min, e_max]` with `n_points` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGrid {
    e_min: f64,
    e_max: f64,
    n_points: usize,
}

impl EnergyGrid {
    /// Create a grid; requires `e_max > e_min` and at least two points.
    pub fn new(e_min: f64, e_max: f64, n_points: usize) -> Self {
        assert!(n_points >= 2, "an energy grid needs at least two points");
        assert!(e_max > e_min, "e_max must exceed e_min");
        Self {
            e_min,
            e_max,
            n_points,
        }
    }

    /// Number of energy points `N_E`.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True if the grid is empty (never the case for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Lowest energy (eV).
    pub fn e_min(&self) -> f64 {
        self.e_min
    }

    /// Grid spacing `ΔE` (eV).
    pub fn spacing(&self) -> f64 {
        (self.e_max - self.e_min) / (self.n_points - 1) as f64
    }

    /// The `i`-th energy point.
    pub fn point(&self, i: usize) -> f64 {
        assert!(i < self.n_points, "energy index out of range");
        self.e_min + i as f64 * self.spacing()
    }

    /// All energy points as a vector.
    pub fn points(&self) -> Vec<f64> {
        (0..self.n_points).map(|i| self.point(i)).collect()
    }
}

/// Fermi–Dirac occupation `f(E) = 1 / (1 + exp((E − μ)/kT))` with `kT` in eV.
///
/// The implementation is overflow-safe for arguments far from the chemical
/// potential.
pub fn fermi(e: f64, mu: f64, kt_ev: f64) -> f64 {
    assert!(kt_ev > 0.0, "temperature must be positive");
    let x = (e - mu) / kt_ev;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// Thermal energy `k_B·T` in eV for a temperature in Kelvin.
pub fn thermal_energy_ev(temperature_k: f64) -> f64 {
    KB_EV * temperature_k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_and_spacing() {
        let g = EnergyGrid::new(-1.0, 1.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g.spacing() - 0.5).abs() < 1e-15);
        assert_eq!(g.points(), vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn fermi_limits_and_midpoint() {
        let kt = thermal_energy_ev(300.0);
        assert!((fermi(-10.0, 0.0, kt) - 1.0).abs() < 1e-12);
        assert!(fermi(10.0, 0.0, kt).abs() < 1e-12);
        assert!((fermi(0.0, 0.0, kt) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fermi_is_monotonically_decreasing() {
        let kt = 0.025;
        let mut prev = 1.0;
        for i in 0..100 {
            let e = -1.0 + 0.02 * i as f64;
            let f = fermi(e, 0.0, kt);
            assert!(f <= prev + 1e-15);
            prev = f;
        }
    }

    #[test]
    fn thermal_energy_at_room_temperature() {
        let kt = thermal_energy_ev(300.0);
        assert!((kt - 0.02585).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn invalid_grid_panics() {
        let _ = EnergyGrid::new(1.0, -1.0, 10);
    }
}
