//! Spatial domain decomposition demo (paper Section 5.4): solve the selected
//! inversion of a long nanoribbon-like system sequentially and with the
//! nested-dissection solver at P_S = 2 and 4, verify that the selected blocks
//! agree, and print the per-partition workload report (the quantities behind
//! the paper's Table 5).
//!
//! Run with: `cargo run --release --example domain_decomposition`

use quatrex::prelude::*;
use quatrex_core::assembly::{assemble_g, ObcMethod};
use quatrex_linalg::FlopCounter;
use quatrex_rgf::rgf_selected_inverse;

fn main() {
    // A long, thin device: 32 transport cells — the regime where the paper
    // must decompose the spatial domain to fit the matrices into memory.
    let device = DeviceBuilder::test_device(4, 2, 32).build();
    let h = device.hamiltonian_bt();
    let flops = FlopCounter::new();
    let asm = assemble_g(
        &h,
        1.0,
        1e-3,
        0,
        None,
        None,
        None,
        0.1,
        -0.1,
        0.0259,
        ObcMethod::SanchoRubio,
        None,
        &flops,
    );

    let sequential = rgf_selected_inverse(&asm.system).expect("sequential RGF");
    println!(
        "sequential RGF: {} blocks of size {}, {:.3e} FLOPs",
        h.n_blocks(),
        h.block_size(),
        sequential.flops as f64
    );

    for p_s in [2usize, 4] {
        let (distributed, report) =
            nested_dissection_invert(&asm.system, &NestedConfig::new(p_s)).expect("nested RGF");
        // Verify every selected diagonal block against the sequential solver.
        let max_err = (0..h.n_blocks())
            .map(|i| distributed.diag(i).distance(sequential.retarded.diag(i)))
            .fold(0.0f64, f64::max);
        println!("\nP_S = {p_s}: max |X_dist - X_seq| over diagonal blocks = {max_err:.3e}");
        for p in &report.partitions {
            println!(
                "  partition {:>2}: {:>2} blocks, {:>12.3e} FLOPs",
                p.partition, p.blocks, p.flops as f64
            );
        }
        println!(
            "  reduced system: {} separator blocks, {:.3e} FLOPs; total {:.3e} FLOPs ({:.2}x sequential)",
            report.reduced_system_blocks,
            report.reduced_system_flops as f64,
            report.total_flops() as f64,
            report.total_flops() as f64 / sequential.flops as f64
        );
        if let Some(ratio) = report.boundary_to_middle_ratio() {
            println!("  boundary/middle workload ratio = {ratio:.2} (paper reports ~0.6 without load balancing)");
        }
    }
}
