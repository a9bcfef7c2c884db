//! Distributed SCBA demo: run the full `G → P → W → Σ` cycle across 4
//! simulated ranks, verify the observables against the single-process solver,
//! and print the measured all-to-all transposition volumes beside the
//! plan's exact prediction — the quantities behind the paper's Fig. 3
//! dataflow. A second run on a 4 energy groups × `P_S = 2` grid with `B = 2`
//! transposition batches exercises the spatial group solve and writes its
//! `DistReport` byte counters and probe metrics to
//! `DIST_report.json`, plus the merged per-rank span timeline to
//! `DIST_trace.json` — Chrome
//! trace-event JSON, loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`, one track per simulated rank. Both are uploaded per
//! PR by the CI bench-smoke job, next to `BENCH_kernels.json`, so byte and
//! phase-timing regressions are visible.
//!
//! Run with: `cargo run --release --example distributed_scba`
//! (`QUATREX_BENCH_QUICK=1` shrinks the runs for the CI smoke job — same
//! output shape, fewer iterations). `paper_tables` (in `quatrex-bench`)
//! reads `DIST_report.json` next to the other two artefacts.

use quatrex::prelude::*;
use quatrex::probe::json::Json;
use quatrex::runtime::CommPhase;

fn main() {
    let quick = std::env::var("QUATREX_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    // 16 energies either way: the 8-rank grid below owns energies per rank,
    // and B = 2 batches need two of them on each.
    let (ne, iters) = (16, if quick { 2 } else { 4 });
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = ScbaConfig {
        n_energies: ne,
        max_iterations: iters,
        mixing: 0.4,
        tolerance: 1e-12,
        interaction_scale: 0.2,
        ..Default::default()
    };

    // Single-process reference.
    let sequential = ScbaSolver::new(device.clone(), config.clone()).run();

    // The same problem across 4 simulated ranks: each rank runs assembly +
    // RGF for its energy slice, the element-major convolutions for its slice
    // of the canonical element list, and four Alltoallv transpositions per
    // iteration move the data between the two layouts.
    let n_ranks = 4;
    let spatial_config = config.clone();
    let dist_config = DistScbaConfig::new(config, n_ranks);
    let solver = DistScbaSolver::new(device, dist_config);
    let plan = solver.plan();
    println!("distributed SCBA on {n_ranks} simulated ranks");
    println!(
        "  energy slices   : {:?}",
        plan.energy_ranges
            .iter()
            .map(|r| r.len())
            .collect::<Vec<_>>()
    );
    println!(
        "  element slices  : {:?} of {} canonical elements",
        plan.element_ranges
            .iter()
            .map(|r| r.len())
            .collect::<Vec<_>>(),
        plan.n_canonical(),
    );
    let result = solver.run();

    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
    println!("\nobservable equivalence vs. the sequential solver:");
    println!(
        "  current : {:+.9e} vs {:+.9e} (rel err {:.1e})",
        result.observables.current,
        sequential.observables.current,
        rel(result.observables.current, sequential.observables.current),
    );
    let density_err = result
        .observables
        .electron_density
        .iter()
        .zip(&sequential.observables.electron_density)
        .fold(0.0f64, |m, (a, b)| m.max(rel(*a, *b)));
    println!("  density : max rel err {density_err:.1e} over transport cells");
    println!(
        "  iterations: {} (converged: {}), memoizer hit rate {:.1}%",
        result.iterations,
        result.converged,
        100.0 * result.memoizer_hit_rate,
    );

    // Measured vs. planned transposition volumes: ownership is static, so
    // the plan's count of every phase is exact.
    let report = &result.report;
    println!(
        "\nalltoall transposition volume ({} full iterations):",
        report.full_iterations
    );
    println!(
        "  {:<12} {:>14} {:>18}",
        "phase", "measured", "predicted (plan)"
    );
    let mut predicted = 0;
    for phase in [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
    ] {
        let measured = report
            .alltoall_bytes_per_phase
            .iter()
            .find(|(label, _)| *label == phase.label())
            .map_or(0, |&(_, bytes)| bytes);
        let planned = plan.transposition_bytes(phase) * report.full_iterations as u64;
        println!("  {:<12} {measured:>14} {planned:>18}", phase.label());
        predicted += planned;
    }
    println!(
        "  {:<12} {:>14} {predicted:>18}  (equal: {})",
        "total",
        report.measured_transposition_bytes,
        report.measured_transposition_bytes == predicted,
    );
    println!(
        "  all alltoalls, ordered gathers included: {} bytes",
        report.measured_alltoall_bytes
    );
    println!(
        "  busiest rank sent {} bytes off-rank; {} collectives total",
        report.measured_max_bytes_per_rank, report.n_collectives,
    );

    // --- Second decomposition level + batched transpositions ---------------
    // The same problem on a 4 energy groups x P_S = 2 grid (8 ranks) with
    // the transpositions cut into 2 energy batches: every rank owns energies
    // and elements; each energy's G/W systems are solved cooperatively by its
    // owner's group, the owner ships every other member only its partition's
    // block range (blocks lo..=hi of A, B^<, B^>) instead of broadcasting the
    // full system, and each batch's Alltoallv flies while the previous
    // batch's convolutions compute. The byte split by phase (the group
    // solves under `spatial`), the peak in-flight buffers and the probe
    // metrics (per-phase seconds, overlap efficiency, time imbalance,
    // memoizer hit rates) land in DIST_report.json so the per-PR CI artifact
    // tracks them.
    let batches = 2;
    // Unbatched reference on the identical problem: the peak-buffer line
    // below reports the measured reduction, not an estimate.
    let unbatched = DistScbaSolver::new(
        DeviceBuilder::test_device(3, 2, 4).build(),
        DistScbaConfig::new(spatial_config.clone(), 8).with_spatial_partitions(2),
    )
    .run();
    let spatial = DistScbaSolver::new(
        DeviceBuilder::test_device(3, 2, 4).build(),
        DistScbaConfig::new(spatial_config, 8)
            .with_spatial_partitions(2)
            .with_energy_batches(batches),
    )
    .run();
    let sr = &spatial.report;
    println!(
        "\nspatial P_S = {} group solves ({} energy groups, {} transposition batches):",
        sr.spatial_partitions, sr.energy_groups, sr.batch_count
    );
    println!(
        "  wall clock            : {:.3} s, {:.3} s per SCBA iteration",
        sr.wall_seconds, sr.seconds_per_iteration
    );
    println!(
        "  peak in-flight buffer : {} bytes at B = {} (B = 1 run: {} bytes, {:.2}x reduction)",
        sr.peak_slab_bytes,
        sr.batch_count,
        unbatched.report.peak_slab_bytes,
        unbatched.report.peak_slab_bytes as f64 / sr.peak_slab_bytes.max(1) as f64,
    );

    // Probe metrics: the merged span timeline condensed into the numbers the
    // bench gate tracks.
    println!(
        "\nprobe timeline ({} rank tracks):",
        spatial.timeline.n_ranks()
    );
    println!("  alltoall bytes by phase:");
    for &(label, bytes) in &sr.alltoall_bytes_per_phase {
        if bytes > 0 {
            println!("    {label:<12} {bytes:>12}");
        }
    }
    for (stage, rate) in [
        ("pack", sr.pack_bytes_per_second),
        ("unpack", sr.unpack_bytes_per_second),
    ] {
        if let Some(rate) = rate {
            println!(
                "  transposition {stage:<7}: {:.2} GB/s (payload bytes over the stage's self seconds)",
                rate * 1e-9
            );
        }
    }
    if let Some(eff) = sr.overlap_efficiency {
        println!(
            "  overlap efficiency    : {:.1}% of transposition time hidden under convolutions",
            100.0 * eff
        );
    }
    if let Some(imb) = sr.time_imbalance {
        println!("  time imbalance        : {imb:.3}x (max/mean busy seconds over the rank grid)");
    }
    let rates = sr
        .memoizer_hit_rate_per_iteration
        .iter()
        .map(|r| format!("{:.0}%", 100.0 * r))
        .collect::<Vec<_>>()
        .join(" ");
    println!("  memoizer hit rate     : per iteration [{rates}]");
    for (phase, rate) in &sr.phase_flop_rates {
        println!("  flop rate             : {phase:<12} {:.3e} flop/s", rate);
    }

    // The report serialises itself; the file adds what only this run knows.
    let Json::Obj(mut fields) = sr.to_json() else {
        unreachable!("a report is a JSON object")
    };
    fields.insert(0, ("quick_mode".to_string(), quick.into()));
    fields.push((
        "unbatched_peak_slab_bytes".to_string(),
        unbatched.report.peak_slab_bytes.into(),
    ));
    std::fs::write("DIST_report.json", format!("{:#}\n", Json::Obj(fields)))
        .expect("write DIST_report.json");
    std::fs::write("DIST_trace.json", spatial.timeline.chrome_trace_json())
        .expect("write DIST_trace.json");
    println!("  wrote DIST_report.json and DIST_trace.json (open in https://ui.perfetto.dev)");
}
