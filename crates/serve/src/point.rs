//! Sweep points: the request unit of the engine's queue.

use quatrex_device::{thermal_energy_ev, ROOM_TEMPERATURE_K};

/// One requested operating point of a sweep: a drain bias and a lattice
/// temperature over the engine's base device. Bias enters the solve through
/// the linear potential ramp (`Device::with_drain_bias`) plus the drain
/// chemical potential (`mu_right = mu_left − bias`); temperature enters
/// through the contact Fermi functions (`ScbaConfig::temperature_k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Drain bias in volts (source grounded).
    pub bias_v: f64,
    /// Lattice temperature in kelvin.
    pub temperature_k: f64,
}

impl SweepPoint {
    /// A point at the given bias and temperature.
    pub fn new(bias_v: f64, temperature_k: f64) -> Self {
        Self {
            bias_v,
            temperature_k,
        }
    }

    /// A bias point at room temperature (300 K) — the I–V curve case.
    pub fn bias(bias_v: f64) -> Self {
        Self::new(bias_v, ROOM_TEMPERATURE_K)
    }

    /// Distance to another point in the energy units the SCBA state actually
    /// feels: the bias gap in eV plus the thermal-energy gap `|kT₁ − kT₂|`
    /// in eV. The nearest finished neighbor under this metric donates its
    /// converged state when a new point warm-starts.
    pub fn distance(&self, other: &SweepPoint) -> f64 {
        (self.bias_v - other.bias_v).abs()
            + (thermal_energy_ev(self.temperature_k) - thermal_energy_ev(other.temperature_k)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_mixes_bias_and_thermal_energy() {
        let a = SweepPoint::bias(0.0);
        let b = SweepPoint::bias(0.05);
        let c = SweepPoint::new(0.0, 600.0);
        assert!((a.distance(&b) - 0.05).abs() < 1e-15);
        // 300 K ≈ 25.9 meV, so a 300 K → 600 K step is a ~26 meV move —
        // closer than a 50 mV bias step.
        assert!(a.distance(&c) < a.distance(&b));
        assert_eq!(a.distance(&b), b.distance(&a));
    }
}
