//! Compute-element and system models (paper Section 6.1 and Table 6).

use quatrex_runtime::MachineKind;

/// Model of one compute element (a GH200 GPU or an MI250X/MI250X-like GCD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Theoretical FP64 (tensor/matrix-core) peak in Tflop/s.
    pub peak_fp64_tflops: f64,
    /// Linpack-style Rmax per element in Tflop/s.
    pub rmax_tflops: f64,
    /// Fraction of peak sustained by the dense kernels of this workload
    /// (large complex GEMMs dominate; the paper reaches 73–76% of Rpeak on
    /// single devices with the memoizer enabled).
    pub sustained_fraction: f64,
    /// High-bandwidth memory per element in GB.
    pub hbm_gb: f64,
}

impl MachineModel {
    /// NVIDIA GH200 superchip (Alps): 67 Tflop/s FP64 tensor peak, 96 GB HBM.
    pub fn gh200() -> Self {
        Self {
            name: "GH200 (Alps)",
            peak_fp64_tflops: 55.3,
            rmax_tflops: 41.8,
            sustained_fraction: 0.76,
            hbm_gb: 96.0,
        }
    }

    /// One graphics compute die of an AMD MI250X (Frontier): 26.8 Tflop/s Rpeak
    /// per GCD, 64 GB HBM.
    pub fn mi250x_gcd() -> Self {
        Self {
            name: "MI250X GCD (Frontier)",
            peak_fp64_tflops: 26.8,
            rmax_tflops: 17.6,
            sustained_fraction: 0.73,
            hbm_gb: 64.0,
        }
    }

    /// Sustained dense-kernel rate in Tflop/s.
    pub fn sustained_tflops(&self) -> f64 {
        self.peak_fp64_tflops * self.sustained_fraction
    }

    /// Time in seconds to execute `tflop` teraflops of dense work.
    pub fn time_for(&self, tflop: f64) -> f64 {
        tflop / self.sustained_tflops()
    }
}

/// Model of a full system (Table 6 header rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemModel {
    /// Which interconnect parameters apply.
    pub machine: MachineKind,
    /// Per-element model.
    pub element: MachineModel,
    /// Total number of nodes in the machine.
    pub total_nodes: usize,
    /// Compute elements (GPUs / GCDs) per node.
    pub elements_per_node: usize,
    /// System Rmax in Pflop/s.
    pub rmax_pflops: f64,
    /// System Rpeak in Pflop/s.
    pub rpeak_pflops: f64,
}

impl SystemModel {
    /// Alps (2,600 nodes × 4 GH200).
    pub fn alps() -> Self {
        Self {
            machine: MachineKind::Alps,
            element: MachineModel::gh200(),
            total_nodes: 2_600,
            elements_per_node: 4,
            rmax_pflops: 434.90,
            rpeak_pflops: 574.84,
        }
    }

    /// Frontier (9,604 nodes × 8 GCDs).
    pub fn frontier() -> Self {
        Self {
            machine: MachineKind::Frontier,
            element: MachineModel::mi250x_gcd(),
            total_nodes: 9_604,
            elements_per_node: 8,
            rmax_pflops: 1_353.00,
            rpeak_pflops: 2_055.72,
        }
    }

    /// Total number of compute elements.
    pub fn total_elements(&self) -> usize {
        self.total_nodes * self.elements_per_node
    }

    /// Rmax scaled to a subset of `nodes` nodes, in Pflop/s.
    pub fn rmax_scaled(&self, nodes: usize) -> f64 {
        self.rmax_pflops * nodes as f64 / self.total_nodes as f64
    }

    /// Rpeak scaled to a subset of `nodes` nodes, in Pflop/s.
    pub fn rpeak_scaled(&self, nodes: usize) -> f64 {
        self.rpeak_pflops * nodes as f64 / self.total_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_models_match_the_paper() {
        let gh = MachineModel::gh200();
        assert!((gh.rmax_tflops - 41.8).abs() < 1e-9);
        let gcd = MachineModel::mi250x_gcd();
        assert!((gcd.rmax_tflops - 17.6).abs() < 1e-9);
        assert!(gcd.hbm_gb < gh.hbm_gb);
    }

    #[test]
    fn system_totals_match_the_paper() {
        let alps = SystemModel::alps();
        assert_eq!(alps.total_elements(), 10_400);
        let frontier = SystemModel::frontier();
        assert_eq!(frontier.total_elements(), 76_832);
        // 9,400 nodes of Frontier host 75,200 GCDs (Table 6).
        assert_eq!(9_400 * frontier.elements_per_node, 75_200);
    }

    #[test]
    fn scaled_rmax_is_proportional() {
        let frontier = SystemModel::frontier();
        let full = frontier.rmax_scaled(9_604);
        assert!((full - frontier.rmax_pflops).abs() < 1e-9);
        let part = frontier.rmax_scaled(9_400);
        assert!(part < full && part > 0.95 * full);
    }

    #[test]
    fn time_for_is_inverse_rate() {
        let gh = MachineModel::gh200();
        let t = gh.time_for(gh.sustained_tflops());
        assert!((t - 1.0).abs() < 1e-12);
    }
}
