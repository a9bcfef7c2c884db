//! SCBA convergence study: the Σ update rule (`quatrex_core::mixing`) on a
//! contractive device, and the effect of the OBC memoizer (Section 5.3) on
//! the self-consistent Born iteration.
//!
//! The device is the reduced NR-16 ribbon the sweep benchmark runs (N_BS = 8,
//! 12 energies), whose SCBA map barely depends on Σ at `interaction_scale
//! 0.2`: plain damping with `mixing = 0.4` contracts the residual by exactly
//! `1 − mixing` per iteration — `ln(1e-9) / ln(0.6) ≈ 41` iterations to a
//! tolerance of 1e-9 — where the accelerated rule needs 9.
//!
//! Run with: `cargo run --release --example scba_convergence`

use std::time::Instant;

use quatrex::prelude::*;

const TOLERANCE: f64 = 1e-9;
const MIXING: f64 = 0.4;

fn run_case(use_memoizer: bool) -> ScbaResult {
    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), 426).build();
    let config = ScbaConfig {
        n_energies: 12,
        max_iterations: 20,
        tolerance: TOLERANCE,
        mixing: MIXING,
        interaction_scale: 0.2,
        use_memoizer,
        ..Default::default()
    };
    ScbaSolver::new(device, config).run()
}

fn main() {
    println!("SCBA convergence with and without OBC memoization");
    println!(
        "(tolerance {TOLERANCE:e}; plain damping would take {:.0} iterations)\n",
        (TOLERANCE.ln() / (1.0 - MIXING).ln()).ceil()
    );
    for (label, memo) in [("memoizer OFF", false), ("memoizer ON", true)] {
        let t = Instant::now();
        let res = run_case(memo);
        let seconds = t.elapsed().as_secs_f64();
        println!("{label}:");
        println!(
            "  iterations = {:>2}, converged = {:>5}, history restarts = {}",
            res.iterations, res.converged, res.mixing_restarts
        );
        let history: Vec<String> = res
            .residual_history
            .iter()
            .map(|r| format!("{r:.1e}"))
            .collect();
        println!("  residual history: [{}]", history.join(", "));
        println!(
            "  current = {:.4e}, memoizer hit rate = {:.0}%, wall time = {:.2} s\n",
            res.observables.current,
            100.0 * res.memoizer_hit_rate,
            seconds
        );
    }
    println!("Expected behaviour: the accelerated update reaches the tolerance in 9 iterations");
    println!("with the memoizer off. The memoizer replaces most direct OBC");
    println!("solves after the first iteration, but refines its cached surface functions only");
    println!("to 1e-7: with it on the residual stalls near 1e-8 (under plain damping too), the");
    println!("update rule keeps restarting its history there, and the current agrees with the");
    println!("memoizer-off run to better than 1e-6 long before.");
}
