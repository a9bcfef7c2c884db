//! # quatrex-bench
//!
//! The workspace's measurement harness and the paper's evaluation tables.
//! Everything here is a binary under `src/bin/`; this library holds the
//! devices, configurations and operands they share.
//!
//! * **`bench_kernels` → `bench_gate`** — the workspace's one kernel harness:
//!   `bench_kernels` measures the real kernels of this reproduction in
//!   absolute units (nanoseconds and GFLOP/s per kernel, on transport-cell
//!   sized blocks, plus exact FLOP counts of the selected and the
//!   nested-dissection solves) into `BENCH_kernels.json`; `bench_gate` holds
//!   those numbers, the byte counters of `DIST_report.json` and the
//!   warm-start ratio of `SWEEP_report.json` to the `(value, tolerance)`
//!   envelopes of `BENCH_reference.json` and appends the run to
//!   `BENCH_history.jsonl`. (End-to-end seconds per SCBA iteration and per
//!   sweep point are the business of the standalone `benchmark/` package.)
//! * **`paper_tables`** prints Tables 1 and 3–6 and Fig. 6 of the paper from
//!   the same three artefacts: every measured number beside the paper's,
//!   with the artefact path it was read from.
//!
//! README § *Reproducing the paper's evaluation* is the index.

use quatrex_core::{ScbaConfig, ScbaSolver};
use quatrex_device::{DeviceBuilder, DeviceCatalog};

/// Whether `QUATREX_BENCH_QUICK` asks for the CI smoke mode: fewer
/// repetitions in `bench_kernels`, the `"quick"` envelopes in `bench_gate`.
pub fn quick_mode() -> bool {
    std::env::var("QUATREX_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The SCBA solver of `bench_kernels`' `scba_iteration` rows: NW-1 with its
/// primitive cell divided by 26 while `N_U` and `N_B` are kept, so every
/// solver control path (block counts, bandwidths, OBC structure) is the
/// full-scale device's; a small energy grid and a weak interaction for
/// guaranteed stability.
pub fn bench_solver(n_energies: usize, iterations: usize, memoizer: bool) -> ScbaSolver {
    let device = DeviceBuilder::from_params(&DeviceCatalog::nw1(), 26).build();
    let config = ScbaConfig {
        n_energies,
        max_iterations: iterations,
        mixing: 0.4,
        tolerance: 1e-6,
        use_memoizer: memoizer,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    ScbaSolver::new(device, config)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bench_device_keeps_the_block_structure() {
        let solver = bench_solver(8, 1, true);
        let dev = solver.device();
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
}
