//! Nanoribbon FET I–V sweep on the warm-started sweep engine: the workload
//! the paper's introduction motivates, served the way real users request it.
//!
//! Sweeps the drain bias of a reduced-scale nanoribbon device (same block
//! structure as the paper's NR-16) through `quatrex_serve::SweepEngine`
//! twice — once cold, once with warm starting on — and prints the I–V curve
//! next to the per-point SCBA iteration counts. The headline number is the
//! warm-vs-cold iterations-to-convergence ratio: every warm point resumes
//! from its neighbor's converged Σ/OBC state and skips the slow early
//! contraction. Bias enters in flat-band mode (contact chemical potentials
//! only), where the SCBA fixed-point iteration stays contractive on the
//! reduced geometry.
//!
//! Writes `SWEEP_report.json` (`cold`/`warm` sweep reports plus
//! `warm_iteration_ratio`), which the CI bench-smoke job uploads and
//! `bench_gate` envelopes via `BENCH_reference.json`.
//!
//! Run with: `cargo run --release --example nanoribbon_iv`
//! (`QUATREX_BENCH_QUICK=1` shrinks the device and energy grid for the CI
//! smoke job — same 5-point sweep, same output shape.)

use quatrex::prelude::*;
use quatrex::probe::json::Json;

fn main() {
    let quick = std::env::var("QUATREX_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // Reduced NR-16 geometry: 16 transport cells, 852/426 = 2 orbitals per
    // primitive cell — the largest reduction whose SCBA iteration stays
    // contractive at every bias point; the headline here is the warm-start
    // ratio on a *converged* sweep, not device scale. The quick mode shrinks
    // the energy grid and loosens the tolerance, not the sweep.
    let reduction = 426;
    let (ne, tolerance) = if quick { (8, 1e-8) } else { (12, 1e-9) };
    let biases: Vec<f64> = (0..5).map(|step| 0.05 * step as f64).collect();

    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), reduction).build();
    let scba = ScbaConfig {
        n_energies: ne,
        max_iterations: 80,
        tolerance,
        mixing: 0.4,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..Default::default()
    };

    let run = |warm: bool| -> SweepReport {
        let config = SweepConfig::new(scba.clone(), 4)
            .with_warm_start(warm)
            .with_potential_ramp(false);
        let mut engine = SweepEngine::new(device.clone(), config);
        engine.enqueue_bias_ramp(&biases);
        engine.run_all()
    };

    println!(
        "nanoribbon FET I-V sweep (reduced NR-16 geometry, {} orbitals/cell, {ne} energies)",
        852 / reduction
    );
    let cold = run(false);
    let warm = run(true);

    println!(
        "{:>10} {:>18} {:>12} {:>12} {:>14}",
        "V_ds [V]", "I (GW)", "cold iters", "warm iters", "restored [B]"
    );
    for (c, w) in cold.sorted_points().iter().zip(warm.sorted_points()) {
        println!(
            "{:>10.2} {:>18.6e} {:>12} {:>12} {:>14}",
            c.point.bias_v, c.current, c.iterations, w.iterations, w.bytes_restored,
        );
    }
    let ratio = warm
        .iteration_ratio_vs(&cold)
        .expect("both sweeps non-empty");
    println!(
        "\nwarm-start iterations-to-convergence: {} vs {} cold, ratio {:.3}",
        warm.total_iterations(),
        cold.total_iterations(),
        ratio,
    );
    println!("every warm point resumed from the nearest finished neighbor's converged");
    println!("sigma + OBC state (the warm-state wire format), skipping the");
    println!("slow early contraction of the SCBA fixed-point iteration.");

    let doc = Json::obj([
        ("quick_mode", quick.into()),
        ("warm_iteration_ratio", ratio.into()),
        ("cold", cold.to_json()),
        ("warm", warm.to_json()),
    ]);
    std::fs::write("SWEEP_report.json", format!("{doc:#}\n")).expect("write SWEEP_report.json");
    println!("\nwrote SWEEP_report.json (cold/warm sweeps + warm_iteration_ratio)");
}
