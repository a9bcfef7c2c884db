//! The paper's Table 3 device catalogue.
//!
//! Eight devices are used in the paper's evaluation: two silicon nanowires
//! (NW-1, NW-2 — the "medium" and "large" structures of QuaTrEx24) and six
//! nanoribbon FETs (NR-16/24/40 on Frontier, NR-23/44/80 on Alps) with the
//! Intel-like 1.5×5 nm² cross section. This module stores their geometric and
//! numerical parameters exactly as given in Table 3 and derives the structural
//! quantities the evaluation tables extrapolate with (matrix sizes, non-zero
//! counts, workload scaling factors).

/// Analytic description of one device from the paper's Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// Device label, e.g. `"NW-1"` or `"NR-40"`.
    pub name: String,
    /// Total device length `L_tot` in nm.
    pub length_nm: f64,
    /// Cross-section area `A` in nm².
    pub cross_section_nm2: f64,
    /// Circumference `C` in nm.
    pub circumference_nm: f64,
    /// Interaction cut-off distance `r_cut` in Ångström.
    pub r_cut_ang: f64,
    /// Total number of atoms `N_A`.
    pub n_atoms: usize,
    /// Total number of atomic orbitals (MLWFs) `N_AO`.
    pub n_orbitals: usize,
    /// Primitive-unit-cell size `Ñ_BS` (orbitals per PUC).
    pub puc_size: usize,
    /// Number of primitive unit cells per transport cell `N_U` for the G subsystem.
    pub n_u_g: usize,
    /// Number of primitive unit cells per transport cell `N_U` for the W subsystem.
    pub n_u_w: usize,
    /// Number of transport cells `N_B` for the G subsystem.
    pub n_blocks_g: usize,
    /// Number of transport cells `N_B` for the W subsystem.
    pub n_blocks_w: usize,
    /// Non-zeros in `H` as reported by the paper (no symmetry applied).
    pub h_nnz_paper: f64,
    /// Non-zeros in `G`, `P`, `W`, `Σ` as reported by the paper.
    pub g_nnz_paper: f64,
}

impl DeviceParams {
    /// Transport-cell size `N_BS = Ñ_BS · N_U` for the electron (G) subsystem.
    pub fn transport_cell_size_g(&self) -> usize {
        self.puc_size * self.n_u_g
    }

    /// Total number of primitive unit cells along the transport axis.
    pub(crate) fn n_primitive_cells(&self) -> usize {
        self.n_blocks_g * self.n_u_g
    }

    /// Structural estimate of the non-zeros in `H`: `O(N_U · Ñ_BS · N_AO)`,
    /// counting the diagonal and `2·N_U` off-diagonal primitive blocks.
    pub fn h_nnz_structural(&self) -> usize {
        let per_row_blocks = 2 * self.n_u_g + 1;
        per_row_blocks * self.puc_size * self.n_orbitals
    }

    /// Per-iteration RGF workload model `O(N_E · N_B · N_BS³)` in block
    /// operations, returned as the number of `N_BS³` block products for one
    /// energy point (the unit `paper_tables` extrapolates Table 6 and Fig. 6
    /// in).
    pub fn rgf_block_ops_per_energy(&self) -> f64 {
        self.n_blocks_g as f64 * (self.transport_cell_size_g() as f64).powi(3)
    }
}

/// The paper's device catalogue (Table 3).
pub struct DeviceCatalog;

impl DeviceCatalog {
    /// NW-1: the "medium" nanowire of QuaTrEx24 (2,952 atoms).
    pub fn nw1() -> DeviceParams {
        DeviceParams {
            name: "NW-1".into(),
            length_nm: 39.1,
            cross_section_nm2: 0.8,
            circumference_nm: 3.1,
            r_cut_ang: 10.95,
            n_atoms: 2_952,
            n_orbitals: 7_488,
            puc_size: 104,
            n_u_g: 4,
            n_u_w: 8,
            n_blocks_g: 18,
            n_blocks_w: 9,
            h_nnz_paper: 0.5e7,
            g_nnz_paper: 0.3e7,
        }
    }

    /// NW-2: the "large" nanowire of QuaTrEx24 (10,560 atoms).
    pub(crate) fn nw2() -> DeviceParams {
        DeviceParams {
            name: "NW-2".into(),
            length_nm: 34.7,
            cross_section_nm2: 4.3,
            circumference_nm: 6.9,
            r_cut_ang: 7.15,
            n_atoms: 10_560,
            n_orbitals: 32_256,
            puc_size: 504,
            n_u_g: 4,
            n_u_w: 4,
            n_blocks_g: 16,
            n_blocks_w: 16,
            h_nnz_paper: 14.1e7,
            g_nnz_paper: 4.3e7,
        }
    }

    /// Nanoribbon device with `n_blocks` transport cells (the NR-`N_B` row of
    /// Table 3): 1,056 atoms and 3,408 orbitals per transport cell of length
    /// 2.172 nm, the Intel-like 1.5×5 nm² cross-section.
    pub fn nanoribbon(n_blocks: usize) -> DeviceParams {
        assert!(
            n_blocks >= 2,
            "a transport device needs at least two transport cells"
        );
        DeviceParams {
            name: format!("NR-{n_blocks}"),
            length_nm: 2.172 * n_blocks as f64,
            cross_section_nm2: 7.5,
            circumference_nm: 13.0,
            r_cut_ang: 7.5,
            n_atoms: 1_056 * n_blocks,
            n_orbitals: 3_408 * n_blocks,
            puc_size: 852,
            n_u_g: 4,
            n_u_w: 4,
            n_blocks_g: n_blocks,
            n_blocks_w: n_blocks,
            h_nnz_paper: 2.6e7 * n_blocks as f64,
            g_nnz_paper: 0.8e7 * n_blocks as f64,
        }
    }

    /// NR-16, the largest nanoribbon that fits on a single Frontier GCD.
    pub fn nr16() -> DeviceParams {
        let mut p = Self::nanoribbon(16);
        p.h_nnz_paper = 40.4e7;
        p.g_nnz_paper = 12.6e7;
        p
    }

    /// NR-23, the largest nanoribbon that fits on a single Alps GH200 GPU.
    pub(crate) fn nr23() -> DeviceParams {
        Self::nanoribbon(23)
    }

    /// NR-24, run on Frontier with spatial domain decomposition `P_S = 2`.
    pub(crate) fn nr24() -> DeviceParams {
        let mut p = Self::nanoribbon(24);
        p.h_nnz_paper = 61.3e7;
        p.g_nnz_paper = 19.0e7;
        p
    }

    /// NR-40 (42,240 atoms), the Frontier exascale run with `P_S = 4`.
    pub(crate) fn nr40() -> DeviceParams {
        let mut p = Self::nanoribbon(40);
        p.h_nnz_paper = 103.1e7;
        p.g_nnz_paper = 31.8e7;
        p
    }

    /// NR-44 (46,464 atoms), the Alps run with `P_S = 2`.
    pub(crate) fn nr44() -> DeviceParams {
        Self::nanoribbon(44)
    }

    /// NR-80 (84,480 atoms), the largest device of the paper, `P_S = 4` on Alps.
    pub(crate) fn nr80() -> DeviceParams {
        Self::nanoribbon(80)
    }

    /// All eight devices of Table 3, in the paper's order.
    pub fn all() -> Vec<DeviceParams> {
        vec![
            Self::nw1(),
            Self::nw2(),
            Self::nr16(),
            Self::nr23(),
            Self::nr24(),
            Self::nr40(),
            Self::nr44(),
            Self::nr80(),
        ]
    }

    /// Look a device up by its label (`"NW-1"`, `"NR-40"`, …).
    pub fn by_name(name: &str) -> Option<DeviceParams> {
        Self::all().into_iter().find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_atom_and_orbital_counts() {
        assert_eq!(DeviceCatalog::nw1().n_atoms, 2_952);
        assert_eq!(DeviceCatalog::nw1().n_orbitals, 7_488);
        assert_eq!(DeviceCatalog::nw2().n_atoms, 10_560);
        assert_eq!(DeviceCatalog::nr16().n_atoms, 16_896);
        assert_eq!(DeviceCatalog::nr24().n_atoms, 25_344);
        assert_eq!(DeviceCatalog::nr40().n_atoms, 42_240);
        assert_eq!(DeviceCatalog::nr44().n_atoms, 46_464);
        assert_eq!(DeviceCatalog::nr80().n_atoms, 84_480);
        assert_eq!(DeviceCatalog::nr40().n_orbitals, 136_320);
        assert_eq!(DeviceCatalog::nr24().n_orbitals, 81_792);
    }

    #[test]
    fn transport_cell_sizes_match_table3() {
        assert_eq!(DeviceCatalog::nw1().transport_cell_size_g(), 416);
        let nw1 = DeviceCatalog::nw1();
        assert_eq!(nw1.puc_size * nw1.n_u_w, 832);
        assert_eq!(DeviceCatalog::nw2().transport_cell_size_g(), 2_016);
        assert_eq!(DeviceCatalog::nr16().transport_cell_size_g(), 3_408);
        assert_eq!(DeviceCatalog::nr40().transport_cell_size_g(), 3_408);
    }

    #[test]
    fn nanoribbon_length_scales_with_blocks() {
        let nr40 = DeviceCatalog::nr40();
        assert!((nr40.length_nm - 86.88).abs() < 0.1);
        let nr16 = DeviceCatalog::nr16();
        assert!((nr16.length_nm - 34.75).abs() < 0.1);
    }

    #[test]
    fn orbital_count_is_consistent_with_blocks() {
        for d in DeviceCatalog::all() {
            assert_eq!(
                d.n_orbitals,
                d.puc_size * d.n_u_g * d.n_blocks_g,
                "device {}",
                d.name
            );
        }
    }

    #[test]
    fn structural_nnz_has_the_right_order_of_magnitude() {
        // The structural estimate should be within a factor ~3 of the paper's
        // reported numbers (which account for the exact sparsity pattern).
        for d in [
            DeviceCatalog::nw2(),
            DeviceCatalog::nr16(),
            DeviceCatalog::nr40(),
        ] {
            let ratio = d.h_nnz_structural() as f64 / d.h_nnz_paper;
            assert!(
                ratio > 0.3 && ratio < 3.0,
                "device {} ratio {ratio}",
                d.name
            );
        }
    }

    #[test]
    fn workload_ratio_nr40_vs_nw2_matches_paper_factor() {
        // Paper Section 8: the maximum simulation workload grew by ~16x from
        // QuaTrEx24 (NW-2-like, N_B = 16, N_BS = 2,016) to NR-40
        // (N_B = 40, N_BS = 3,408), at fixed per-GPU energy count the
        // per-energy RGF workload grows by (40/16)·(3408/2016)³ ≈ 12.1.
        let nw2 = DeviceCatalog::nw2();
        let nr40 = DeviceCatalog::nr40();
        let ratio = nr40.rgf_block_ops_per_energy() / nw2.rgf_block_ops_per_energy();
        assert!(ratio > 10.0 && ratio < 14.0, "ratio = {ratio}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(DeviceCatalog::by_name("NR-40").is_some());
        assert!(DeviceCatalog::by_name("NR-17").is_none());
        assert_eq!(DeviceCatalog::by_name("NW-2").unwrap().n_atoms, 10_560);
    }
}
