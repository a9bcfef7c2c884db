//! Probe timeline acceptance: the distributed SCBA run at the ISSUE's
//! reference geometry (4 energy groups × `P_S = 2`, `B = 2` batches) must
//! produce a valid merged timeline — one track per rank, well-formed span
//! nesting, all four transpositions visible, Perfetto-loadable Chrome trace
//! JSON — and the derived `DistReport` metrics (per-phase exclusive seconds,
//! overlap efficiency, time imbalance, per-iteration memoizer hit rates,
//! per-phase FLOP rates) must be populated and sane.

use quatrex_core::ScbaConfig;
use quatrex_device::{Device, DeviceBuilder};
use quatrex_dist::{DistScbaConfig, DistScbaResult, DistScbaSolver};
use quatrex_probe::parse_chrome_trace;
use quatrex_runtime::CommPhase;

fn device() -> Device {
    DeviceBuilder::test_device(3, 2, 4).build()
}

fn scba(ne: usize, iterations: usize) -> ScbaConfig {
    ScbaConfig {
        n_energies: ne,
        max_iterations: iterations,
        mixing: 0.4,
        tolerance: 1e-14,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    }
}

/// The ISSUE's reference configuration: 8 ranks as 4 energy groups of
/// `P_S = 2` spatial partitions, 2 transposition batches.
fn grid_run(ne: usize, iterations: usize) -> DistScbaResult {
    let config = DistScbaConfig::new(scba(ne, iterations), 8)
        .with_spatial_partitions(2)
        .with_energy_batches(2);
    DistScbaSolver::new(device(), config).run()
}

#[test]
fn timeline_covers_every_rank_and_transposition() {
    let result = grid_run(8, 2);
    let tl = &result.timeline;
    assert_eq!(tl.n_ranks(), 8, "one probe track per simulated rank");
    tl.validate()
        .expect("well-formed span nesting on every rank");

    // Every one of the four energy↔element transpositions must appear as
    // both a post mark and a wait span.
    for phase in [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
    ] {
        let posts: usize = tl
            .ranks
            .iter()
            .map(|r| {
                r.marks
                    .iter()
                    .filter(|m| m.name == phase.post_name())
                    .count()
            })
            .sum();
        let waits: usize = tl
            .ranks
            .iter()
            .map(|r| {
                r.spans
                    .iter()
                    .filter(|s| s.name == phase.wait_name())
                    .count()
            })
            .sum();
        assert!(posts > 0, "{} posted", phase.label());
        assert_eq!(posts, waits, "{} posts pair with waits", phase.label());
    }

    // The spatial level must be visible too: group-solve exchanges, partition
    // eliminations and recoveries.
    let spatial_posts: usize = tl
        .ranks
        .iter()
        .map(|r| {
            r.marks
                .iter()
                .filter(|m| m.name == CommPhase::Spatial.post_name())
                .count()
        })
        .sum();
    assert!(spatial_posts > 0, "spatial group-solve exchanges recorded");
    let eliminates: usize = tl
        .ranks
        .iter()
        .map(|r| {
            r.spans
                .iter()
                .filter(|s| s.name == "spatial.eliminate")
                .count()
        })
        .sum();
    assert!(eliminates > 0, "partition eliminations recorded");

    // The memoizer's hits reach the report, one rate per full iteration.
    let rates = &result.report.memoizer_hit_rate_per_iteration;
    assert_eq!(rates.len(), 2, "one memoizer hit rate per full iteration");
    assert!(
        rates.iter().all(|r| (0.0..=1.0).contains(r)),
        "memoizer hit rates {rates:?}"
    );
    assert!(
        (0.0..=1.0).contains(&result.memoizer_hit_rate),
        "overall memoizer hit rate"
    );
}

#[test]
fn each_step_has_one_rgf_category_at_any_kernel_batch() {
    // P_S = 1: both steps go through the shared step functions, so whatever
    // the chunk length each subsystem's RGF work is traced under exactly one
    // phase category, the batched kernels show as spans in the rank traces,
    // and the report's FLOP rates carry one RGF row per step.
    for kernel_batch in [1usize, 3, 8] {
        let mut cfg = scba(8, 2);
        cfg.kernel_batch = kernel_batch;
        let result = DistScbaSolver::new(device(), DistScbaConfig::new(cfg, 4)).run();
        let tl = &result.timeline;
        let kernels = tl
            .ranks
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.name == "gemm_batch" || s.name == "gemm_lanes")
            .count();
        assert!(kernels > 0, "batched kernels traced");
        for step in ["g", "w"] {
            let rgf_cats: std::collections::BTreeSet<&str> = tl
                .ranks
                .iter()
                .flat_map(|r| r.spans.iter())
                .map(|s| s.cat)
                .filter(|c| c.starts_with(step) && c.contains("rgf"))
                .collect();
            assert_eq!(
                rgf_cats.into_iter().collect::<Vec<_>>(),
                vec![format!("{step}.rgf")],
                "kernel_batch={kernel_batch}: one RGF span category for the {step} step"
            );
            let rgf_rates = result
                .report
                .phase_flop_rates
                .iter()
                .filter(|(c, _)| c.starts_with(step) && c.contains("rgf"))
                .count();
            assert_eq!(
                rgf_rates, 1,
                "kernel_batch={kernel_batch}: one {step} RGF rate"
            );
        }
    }
}

#[test]
fn report_carries_probe_metrics() {
    let result = grid_run(8, 3);
    let report = &result.report;

    // Per-phase wall seconds: the big four compute categories must be there.
    let phase = |cat: &str| -> f64 {
        report
            .phase_seconds
            .iter()
            .find(|(c, _)| c == cat)
            .map(|&(_, s)| s)
            .unwrap_or(0.0)
    };
    for cat in ["g.assembly", "w.assembly", "conv.p", "conv.sigma", "mix"] {
        assert!(phase(cat) > 0.0, "phase '{cat}' has wall seconds");
    }
    assert!(
        phase("rgf.partition") > 0.0,
        "spatial partition solves timed"
    );
    assert!(phase("comm.wait") > 0.0, "collective waits timed");

    // Overlap efficiency is a fraction; with B = 2 some in-flight time exists.
    let eff = report
        .overlap_efficiency
        .expect("batched run measures overlap");
    assert!(
        (0.0..=1.0).contains(&eff),
        "overlap efficiency in [0, 1], got {eff}"
    );

    // Imbalance is max-over-mean of per-rank busy time, so ≥ 1.
    let imb = report.time_imbalance.expect("probe measures imbalance");
    assert!(imb >= 1.0, "imbalance factor is max/mean, got {imb}");

    // One memoizer hit rate per full iteration, each a fraction.
    assert_eq!(
        report.memoizer_hit_rate_per_iteration.len(),
        report.full_iterations,
        "one hit rate per full iteration"
    );
    assert!(report
        .memoizer_hit_rate_per_iteration
        .iter()
        .all(|r| (0.0..=1.0).contains(r)));
    // The per-iteration rates must be consistent with the aggregate rate.
    assert!(
        result.memoizer_hit_rate > 0.0,
        "caches warm across iterations"
    );

    // FLOP rates join spans with the FLOP accounting: positive and finite.
    assert!(!report.phase_flop_rates.is_empty());
    for (phase, rate) in &report.phase_flop_rates {
        assert!(
            rate.is_finite() && *rate > 0.0,
            "phase '{phase}' has a positive FLOP rate, got {rate}"
        );
    }
    // The spatial run reports the combined spatial RGF rate.
    assert!(report
        .phase_flop_rates
        .iter()
        .any(|(p, _)| p == "spatial.rgf"));

    // The tagged byte split partitions the alltoall total exactly, and every
    // transposition phase moved bytes.
    let split: u64 = report
        .alltoall_bytes_per_phase
        .iter()
        .map(|&(_, b)| b)
        .sum();
    assert_eq!(split, report.measured_alltoall_bytes);
    for phase in [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
        CommPhase::Spatial,
        CommPhase::Gathers,
    ] {
        let bytes = report
            .alltoall_bytes_per_phase
            .iter()
            .find(|&&(l, _)| l == phase.label())
            .map(|&(_, b)| b)
            .unwrap_or(0);
        assert!(bytes > 0, "phase '{}' moved bytes", phase.label());
    }
}

#[test]
fn chrome_trace_json_round_trips_with_all_tracks() {
    let result = grid_run(8, 2);
    let text = result.timeline.chrome_trace_json();
    let events = parse_chrome_trace(&text).expect("trace-event JSON parses");

    // One thread_name metadata record per rank track.
    let meta: Vec<_> = events.iter().filter(|e| e.ph == "M").collect();
    assert_eq!(meta.len(), 8);
    let mut tids: Vec<u64> = meta.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    assert_eq!(tids, (0..8).collect::<Vec<u64>>());

    // Spans and marks survive with exact counts.
    let n_spans: usize = result.timeline.ranks.iter().map(|r| r.spans.len()).sum();
    let n_marks: usize = result.timeline.ranks.iter().map(|r| r.marks.len()).sum();
    assert_eq!(events.iter().filter(|e| e.ph == "X").count(), n_spans);
    assert_eq!(events.iter().filter(|e| e.ph == "i").count(), n_marks);

    // All four transposition waits are visible in the serialised form.
    for phase in [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.ph == "X" && e.name == phase.wait_name()),
            "serialised trace covers {}",
            phase.label()
        );
    }
}

#[test]
fn timeline_structure_is_deterministic_across_runs() {
    // Wall-clock timestamps differ run to run, but the *structure* — which
    // spans and marks each rank records, in order — is pinned by the
    // deterministic collective schedule.
    let a = grid_run(8, 2);
    let b = grid_run(8, 2);
    assert_eq!(a.timeline.n_ranks(), b.timeline.n_ranks());
    for (ra, rb) in a.timeline.ranks.iter().zip(b.timeline.ranks.iter()) {
        assert_eq!(ra.rank, rb.rank);
        let names =
            |r: &quatrex_probe::RankTrace| r.spans.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(ra), names(rb), "rank {} span sequence", ra.rank);
        let marks =
            |r: &quatrex_probe::RankTrace| r.marks.iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(marks(ra), marks(rb), "rank {} mark sequence", ra.rank);
    }
}

#[test]
fn every_rank_records_its_spans_in_timeline_order() {
    // The recorder writes a span at entry, so each rank's buffer is already
    // the timeline every metric reads: ascending start, and every span at
    // depth d > 0 inside the nearest earlier span at depth d - 1.
    let config = DistScbaConfig::new(scba(8, 2), 4)
        .with_spatial_partitions(2)
        .with_energy_batches(2);
    let result = DistScbaSolver::new(device(), config).run();
    assert_eq!(result.timeline.n_ranks(), 4);
    for rt in &result.timeline.ranks {
        assert!(!rt.spans.is_empty(), "rank {} recorded spans", rt.rank);
        for (k, pair) in rt.spans.windows(2).enumerate() {
            assert!(
                pair[0].start_ns <= pair[1].start_ns,
                "rank {}: span {} '{}' starts before span {} '{}'",
                rt.rank,
                k + 1,
                pair[1].name,
                k,
                pair[0].name
            );
        }
        for (k, s) in rt.spans.iter().enumerate().filter(|(_, s)| s.depth > 0) {
            let parent = rt.spans[..k]
                .iter()
                .rev()
                .find(|p| p.depth == s.depth - 1)
                .unwrap_or_else(|| panic!("rank {}: span {k} '{}' has no parent", rt.rank, s.name));
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns() <= parent.end_ns(),
                "rank {}: span {k} '{}' escapes '{}'",
                rt.rank,
                s.name,
                parent.name
            );
        }
    }
}

#[test]
fn phase_seconds_are_exclusive_and_sum_to_rank_seconds() {
    // Every instant of every rank is booked once: the categories' exclusive
    // seconds plus `untraced` are n_ranks × wall.
    let result = grid_run(8, 2);
    let report = &result.report;
    let rank_seconds = report.n_ranks as f64 * report.wall_seconds;
    let sum: f64 = report.phase_seconds.iter().map(|&(_, s)| s).sum();
    assert!(
        (sum - rank_seconds).abs() <= 0.01 * rank_seconds,
        "phases sum to {sum} s against {rank_seconds} rank-seconds"
    );
    let untraced = report
        .phase_seconds
        .iter()
        .find(|(c, _)| c == quatrex_probe::UNTRACED)
        .map(|&(_, s)| s)
        .expect("an untraced entry");
    assert!(untraced >= 0.0, "untraced {untraced} s");
    for (cat, s) in &report.phase_seconds {
        assert!(*s >= 0.0, "phase '{cat}' has {s} exclusive seconds");
    }
}

#[test]
fn disabling_the_probe_empties_the_timeline_but_not_the_physics() {
    let config = DistScbaConfig::new(scba(6, 2), 4).with_probe(false);
    let with_probe = DistScbaSolver::new(device(), DistScbaConfig::new(scba(6, 2), 4)).run();
    let without = DistScbaSolver::new(device(), config).run();
    assert_eq!(without.timeline.n_ranks(), 0, "no tracks without the probe");
    assert!(without.report.phase_seconds.is_empty());
    assert!(without.report.overlap_efficiency.is_none());
    assert!(without.report.time_imbalance.is_none());
    assert!(without.report.phase_flop_rates.is_empty());
    // The physics and the pre-probe accounting are untouched.
    assert_eq!(
        without.observables.current, with_probe.observables.current,
        "identical trajectory with and without the probe"
    );
    assert_eq!(
        without.report.measured_alltoall_bytes,
        with_probe.report.measured_alltoall_bytes
    );
    // The per-iteration memoizer stats do not need a recorder.
    assert_eq!(
        without.report.memoizer_hit_rate_per_iteration.len(),
        without.report.full_iterations
    );
}
