//! Transposition volume of the two-level workload decomposition.
//!
//! The paper distributes the SCBA workload along two axes:
//!
//! 1. **Energy**: the `N_E` energy points are embarrassingly parallel for the
//!    OBC, assembly and RGF steps; every rank owns one or a few energies
//!    (Table 4's "Energies" row).
//! 2. **Space**: for devices whose matrices exceed one memory domain, `P_S`
//!    ranks share a single energy point through the nested-dissection solver
//!    (Section 5.4), so the total rank count is `N_E/energies_per_group · P_S`
//!    (the grid that runs is `quatrex_dist::spatial::RankGrid`).
//!
//! The energy convolutions need the *opposite* layout (all energies of a few
//! matrix elements), which is reached through an `Alltoall` data transposition
//! (Fig. 3); [`TranspositionVolume`] quantifies exactly how many complex
//! values every rank exchanges, including the factor-two saving of the
//! symmetry-reduced storage (Section 5.2).

/// Communication volume of the energy↔element data transposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranspositionVolume {
    /// Number of stored matrix elements per energy point (after symmetry
    /// reduction, if enabled).
    pub elements_per_energy: usize,
    /// Number of energy points.
    pub n_energies: usize,
    /// Number of ranks participating in the Alltoall.
    pub n_ranks: usize,
}

impl TranspositionVolume {
    /// Volume for a quantity with `nnz` stored complex values per energy.
    pub fn new(nnz: usize, n_energies: usize, n_ranks: usize, symmetry_reduced: bool) -> Self {
        let elements = if symmetry_reduced {
            nnz.div_ceil(2) + nnz / 20
        } else {
            nnz
        };
        Self {
            elements_per_energy: elements,
            n_energies,
            n_ranks,
        }
    }

    /// Total number of complex values exchanged by the full Alltoall
    /// (every value leaves its producing rank exactly once, except the
    /// fraction that stays local).
    pub fn total_values(&self) -> u64 {
        let total = self.elements_per_energy as u64 * self.n_energies as u64;
        // A fraction 1/n_ranks of the data is already on the right rank.
        total - total / self.n_ranks as u64
    }

    /// Total bytes exchanged (complex128 = 16 bytes).
    pub fn total_bytes(&self) -> u64 {
        16 * self.total_values()
    }

    /// Bytes sent by each rank (assuming a balanced distribution). Rounded
    /// *up* so the per-rank figure is a conservative bound on the busiest
    /// rank rather than an integer-division under-report.
    pub fn bytes_per_rank(&self) -> u64 {
        self.total_bytes().div_ceil(self.n_ranks as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetry_reduction_halves_the_transposition_volume() {
        let full = TranspositionVolume::new(1_000_000, 64, 16, false);
        let sym = TranspositionVolume::new(1_000_000, 64, 16, true);
        let ratio = sym.total_bytes() as f64 / full.total_bytes() as f64;
        assert!(ratio > 0.5 && ratio < 0.6, "ratio = {ratio}");
    }

    #[test]
    fn local_fraction_is_excluded_from_the_volume() {
        let v2 = TranspositionVolume::new(1000, 10, 2, false);
        let v10 = TranspositionVolume::new(1000, 10, 10, false);
        // With 2 ranks half the data stays local; with 10 ranks only 10% does.
        assert_eq!(v2.total_values(), 5_000);
        assert_eq!(v10.total_values(), 9_000);
    }

    #[test]
    fn bytes_use_complex128() {
        let v = TranspositionVolume::new(100, 1, 100, false);
        assert_eq!(v.total_bytes(), 16 * v.total_values());
        assert!(v.bytes_per_rank() <= v.total_bytes());
    }

    #[test]
    fn bytes_per_rank_rounds_up_to_bound_the_busiest_rank() {
        // 3 ranks moving 10 values x 16 bytes = 160 bytes total; truncating
        // division would claim 53 bytes/rank, under the real 54-byte bound.
        let v = TranspositionVolume {
            elements_per_energy: 3,
            n_energies: 5,
            n_ranks: 3,
        };
        assert_eq!(v.total_values(), 10);
        assert_eq!(v.bytes_per_rank(), 54);
        assert!(3 * v.bytes_per_rank() >= v.total_bytes());
    }
}
