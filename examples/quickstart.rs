//! Quickstart: build a small synthetic nanowire device, run one ballistic NEGF
//! iteration and a few self-consistent GW (SCBA) iterations, and print the
//! basic transport observables.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Instant;

use quatrex::prelude::*;

fn main() {
    // A reduced-scale device with the same block structure as the paper's
    // NW-1 nanowire: N_U = 4 coupled primitive cells per transport cell,
    // 18 transport cells.
    let device = DeviceBuilder::from_params(&DeviceCatalog::nw1(), 26).build();
    println!(
        "device {}: {} orbitals, {} transport cells of size {}",
        device.name,
        device.n_orbitals(),
        device.n_blocks,
        device.transport_cell_size()
    );

    let config = ScbaConfig {
        n_energies: 32,
        max_iterations: 6,
        mu_left: 0.15,
        mu_right: -0.15,
        mixing: 0.4,
        interaction_scale: 0.3,
        ..Default::default()
    };
    let solver = ScbaSolver::new(device, config);

    // Ballistic reference (Σ = 0).
    let t = Instant::now();
    let ballistic = solver.ballistic();
    println!(
        "\nballistic:  current = {:.6e} (e/hbar eV), total DOS integral = {:.4}, {:.3} s",
        ballistic.observables.current,
        ballistic.observables.spectral.dos.iter().sum::<f64>(),
        t.elapsed().as_secs_f64()
    );

    // Self-consistent GW.
    let t = Instant::now();
    let gw = solver.run();
    let seconds = t.elapsed().as_secs_f64();
    println!(
        "NEGF+scGW:  current = {:.6e} after {} iterations (converged: {}), {seconds:.3} s",
        gw.observables.current, gw.iterations, gw.converged
    );
    println!("residual history: {:?}", gw.residual_history);
    println!("memoizer hit rate: {:.0}%", 100.0 * gw.memoizer_hit_rate);
    println!(
        "{:.2} GFLOP/s over {:.3e} FLOPs",
        gw.flops.total() as f64 / seconds / 1e9,
        gw.flops.total() as f64
    );

    println!("\nelectron density per transport cell (GW):");
    for (i, n) in gw.observables.electron_density.iter().enumerate() {
        println!("  cell {i:>2}: {n:>10.6}");
    }
}
