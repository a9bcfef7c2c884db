//! # quatrex-bench
//!
//! Kernel harness and table generators reproducing the paper's evaluation.
//! Everything here is a binary under `src/bin/`; this library holds the
//! devices, configurations and operands they share.
//!
//! * **`bench_kernels` → `bench_gate`** — the workspace's one kernel harness:
//!   `bench_kernels` measures the real kernels of this reproduction in
//!   absolute units (nanoseconds and GFLOP/s per kernel, on transport-cell
//!   sized blocks) into `BENCH_kernels.json`; `bench_gate` holds those
//!   numbers, the byte counters of `DIST_report.json` and the warm-start
//!   ratio of `SWEEP_report.json` to the `(value, tolerance)` envelopes of
//!   `BENCH_reference.json` and appends the run to `BENCH_history.jsonl`.
//!   (End-to-end seconds per SCBA iteration and per sweep point are the
//!   business of the standalone `benchmark/` package.)
//! * **table binaries** (`table*`, `fig6_weak_scaling`) print the paper's
//!   tables/figure series: measured small-scale numbers where possible,
//!   machine-model extrapolations (`quatrex-perf`) for the full-scale rows
//!   (Tables 4–6, Fig. 6).
//!
//! Run `cargo run --release -p quatrex-bench --bin table4_kernels` (etc.) to
//! regenerate a specific artefact; README § *Reproducing the paper's
//! evaluation* is the index.

use quatrex_core::assembly::assemble_g;
use quatrex_core::{ObcMethod, ScbaConfig, ScbaSolver};
use quatrex_device::{Device, DeviceBuilder, DeviceCatalog, DeviceParams};
use quatrex_linalg::FlopCounter;
use quatrex_perf::DecompositionOverhead;
use quatrex_rgf::{
    nested_dissection_solve, nested_dissection_solve_with_layout, partition_layout_balanced,
    rgf_solve, NestedConfig,
};

/// Whether `QUATREX_BENCH_QUICK` asks for the CI smoke mode: fewer
/// repetitions in `bench_kernels`, the `"quick"` envelopes in `bench_gate`.
pub fn quick_mode() -> bool {
    std::env::var("QUATREX_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Reduced-scale instance of a catalogue device: the primitive-cell size is
/// divided by `reduction` while `N_U` and `N_B` are preserved, so every solver
/// control path (block counts, bandwidths, OBC structure) is identical to the
/// full-scale device.
pub fn reduced_device(params: &DeviceParams, reduction: usize) -> Device {
    DeviceBuilder::from_params(params, reduction).build()
}

/// A small but structurally faithful nanoribbon-like device for fast benches.
pub fn bench_device(n_blocks: usize, puc_size: usize) -> Device {
    DeviceBuilder::test_device(puc_size, 2, n_blocks).build()
}

/// SCBA configuration used by the measurement benches: small energy grid,
/// a couple of iterations, weak interaction for guaranteed stability.
pub fn bench_config(n_energies: usize, iterations: usize, memoizer: bool) -> ScbaConfig {
    ScbaConfig {
        n_energies,
        max_iterations: iterations,
        mixing: 0.4,
        tolerance: 1e-6,
        use_memoizer: memoizer,
        interaction_scale: 0.2,
        obc_method_g: ObcMethod::SanchoRubio,
        obc_method_w: ObcMethod::Beyn,
        ..ScbaConfig::default()
    }
}

/// Convenience: build a solver for a reduced NW-1-like device.
pub fn bench_solver(n_energies: usize, iterations: usize, memoizer: bool) -> ScbaSolver {
    let device = reduced_device(&DeviceCatalog::nw1(), 26);
    ScbaSolver::new(device, bench_config(n_energies, iterations, memoizer))
}

/// Measure the spatial-decomposition overhead factors of this reproduction's
/// own nested-dissection solver, for the Table 5 / Table 6 / Fig. 6 models
/// (in place of the previously hardcoded `1.35·1.57` middle-partition
/// factor).
///
/// One assembled electron system of a reduced but structurally faithful
/// 24-block device is solved sequentially (`rgf_solve`, lesser + greater
/// right-hand sides) and with `nested_dissection_solve`; the factors come
/// from the measured per-partition FLOP report
/// (`NestedReport::middle_partition_factor`,
/// `NestedReport::boundary_to_middle_ratio`). Middle partitions only exist
/// for `P_S ≥ 3`, so smaller `p_s` values are measured at `P_S = 3`.
pub fn measured_decomposition_overhead(p_s: usize) -> DecompositionOverhead {
    measured_decomposition_overhead_with(p_s, false)
}

/// [`measured_decomposition_overhead`] on the **FLOP-balanced** uneven layout
/// (`quatrex_rgf::partition_layout_balanced`): the uniform-layout report of
/// the same solve provides the cost model, the balanced layout is re-solved,
/// and the overhead factors come from the balanced per-partition FLOP
/// counters. This is what the Table 5/6 and Fig. 6 binaries consume — with
/// balancing the boundary/middle ratio climbs from ~0.6 towards 1 and the
/// middle-partition factor (the critical path) drops accordingly.
pub fn measured_decomposition_overhead_balanced(p_s: usize) -> DecompositionOverhead {
    measured_decomposition_overhead_with(p_s, true)
}

/// Shared measurement body of the two overhead entry points.
fn measured_decomposition_overhead_with(p_s: usize, balanced: bool) -> DecompositionOverhead {
    let device = bench_device(24, 4);
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
    let rhs = [&asm.rhs_lesser, &asm.rhs_greater];
    let seq = rgf_solve(&asm.system, &rhs).expect("sequential reference solve");
    let measured_p = p_s.max(3);
    let (_, report) = nested_dissection_solve(&asm.system, &rhs, &NestedConfig::new(measured_p))
        .expect("nested-dissection solve");
    let report = if balanced {
        let parts = partition_layout_balanced(h.n_blocks(), measured_p, &report)
            .expect("balanced partition layout");
        let (_, balanced_report) = nested_dissection_solve_with_layout(&asm.system, &rhs, &parts)
            .expect("balanced nested-dissection solve");
        balanced_report
    } else {
        report
    };
    DecompositionOverhead::measured(
        report
            .middle_partition_factor(seq.flops)
            .expect("a middle partition exists at P_S >= 3"),
        report
            .boundary_to_middle_ratio()
            .expect("boundary/middle ratio defined at P_S >= 3"),
    )
}

/// Deterministic dense transport-cell-sized operand of the `bench_kernels`
/// rows (linear phases: rank ≤ 4, regular once its diagonal is shifted).
pub fn chain_operand(n: usize, seed: f64) -> quatrex_linalg::CMatrix {
    quatrex_linalg::CMatrix::from_fn(n, n, |i, j| {
        quatrex_linalg::cplx(
            (seed + (i * 7 + j * 3) as f64 * 0.01).sin(),
            (seed * 1.7 + (i + 2 * j) as f64 * 0.01).cos(),
        )
    })
}

/// Format a floating point cell with a fixed width for table printing.
pub fn cell(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:>12.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:>12.3}")
    } else {
        format!("{value:>12.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_devices_keep_the_block_structure() {
        let dev = reduced_device(&DeviceCatalog::nw1(), 26);
        assert_eq!(dev.n_blocks, DeviceCatalog::nw1().n_blocks_g);
        assert_eq!(dev.n_u, DeviceCatalog::nw1().n_u_g);
        assert!(dev.puc_size >= 2);
    }

    #[test]
    fn bench_solver_runs_one_iteration_quickly() {
        let solver = bench_solver(8, 1, true);
        let res = solver.ballistic();
        assert_eq!(res.iterations, 1);
        assert!(res.flops.total() > 0);
    }

    #[test]
    fn cell_formats_small_and_large_values() {
        assert!(cell(12345.6).contains("12345.6"));
        assert!(cell(4.56789).contains("4.568"));
        assert!(cell(0.001234).contains("0.00123"));
    }

    #[test]
    fn measured_overhead_reflects_real_fill_in() {
        let overhead = measured_decomposition_overhead(4);
        // The nested solver's middle partitions genuinely do more than an
        // even share, and boundary partitions less than a middle one.
        assert!(overhead.middle_factor > 1.0, "{overhead:?}");
        assert!(
            overhead.boundary_to_middle > 0.0 && overhead.boundary_to_middle < 1.0,
            "{overhead:?}"
        );
        assert!(overhead.end_factor() < overhead.middle_factor);
    }

    #[test]
    fn balanced_overhead_closes_the_boundary_gap() {
        let uniform = measured_decomposition_overhead(4);
        let balanced = measured_decomposition_overhead_balanced(4);
        // Balancing grows the end partitions: the boundary/middle ratio
        // approaches 1 and the middle-partition factor (critical path) drops.
        assert!(
            balanced.boundary_to_middle > uniform.boundary_to_middle,
            "balanced {balanced:?} vs uniform {uniform:?}"
        );
        assert!(
            (balanced.boundary_to_middle - 1.0).abs() < 0.15,
            "{balanced:?}"
        );
        assert!(
            balanced.middle_factor < uniform.middle_factor,
            "balanced {balanced:?} vs uniform {uniform:?}"
        );
    }
}
