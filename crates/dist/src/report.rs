//! Measured accounting of a distributed SCBA run: [`DistReport`] collects
//! the byte counts, timings and derived phase metrics of one run, each
//! quantity from one ledger — bytes from the communicator's per-phase
//! counters, seconds from the probe timeline, FLOPs from the `FlopCounter`.
//! What a transposition should ship is not a model here but the plan's exact
//! count, `crate::TranspositionPlan::transposition_bytes`.

use quatrex_probe::json::Json;

/// Measured execution report of one [`crate::DistScbaSolver`] run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Total flat communicator ranks (`energy_groups · spatial_partitions`).
    pub n_ranks: usize,
    /// Energy groups (first decomposition level).
    pub energy_groups: usize,
    /// Spatial partitions per energy group (`P_S`, second level).
    pub spatial_partitions: usize,
    /// Whether the spatial layout was the FLOP-balanced uneven one
    /// (`quatrex_rgf::partition_layout_balanced`) instead of the uniform
    /// split — a derived fact, not a setting: true exactly when a middle
    /// partition exists to balance against (`P_S ≥ 3`).
    pub balanced_partitions: bool,
    /// Iterations that executed the P/W/Σ phases (and hence all four
    /// transpositions). A ballistic run has zero.
    pub full_iterations: usize,
    /// Times the Σ update cleared its history and fell back to the damped
    /// step.
    pub mixing_restarts: usize,
    /// Wall-clock seconds of the run: from the launch of the rank threads to
    /// the join of the last one (one clock, outside the ranks — not a sum
    /// over them). Set-up before the launch (Hamiltonian, plan, layout) is
    /// not in it.
    pub wall_seconds: f64,
    /// `wall_seconds` per SCBA iteration of the run — the paper's headline
    /// quantity (Tables 5/6).
    pub seconds_per_iteration: f64,
    /// Measured off-rank bytes of the energy↔element transpositions alone:
    /// the sum of the four transposition entries of
    /// `alltoall_bytes_per_phase`.
    pub measured_transposition_bytes: u64,
    /// Measured off-rank bytes of *all* all-to-all traffic, including the
    /// small ordered gathers of norms and spectra
    /// (`CommStats::alltoall_bytes` of the run).
    pub measured_alltoall_bytes: u64,
    /// Off-rank all-to-all bytes sent by the busiest rank.
    pub measured_max_bytes_per_rank: u64,
    /// Energy batches per transposition (`DistScbaConfig::energy_batches`).
    /// `1` = the unbatched (whole-iteration) path.
    pub batch_count: usize,
    /// Peak in-flight transposition buffer bytes on the busiest rank: every
    /// posted and received batch payload counts until its batch has been
    /// consumed. Shrinks ~`batch_count / 2`-fold under the double-buffered
    /// pipeline (the pipeline keeps ~2 batches in flight, where the unbatched
    /// path held the sent and received whole-iteration payloads) — the
    /// measured memory win of the energy batching.
    pub peak_slab_bytes: u64,
    /// Number of collectives executed.
    pub n_collectives: u64,
    /// Off-rank all-to-all bytes split by [`quatrex_runtime::CommPhase`] tag
    /// (`(label, bytes)` in `CommPhase::ALL` order): the four transpositions
    /// (`fwd_g`, `bwd_p`, `fwd_w`, `bwd_sigma`), the spatial group solves
    /// (every boundary-system exchange; zero at `P_S = 1`), the small
    /// ordered gathers of the loop (mix rows, truncation maximum, final
    /// spectral data) and the untagged remainder. The entries sum to
    /// `measured_alltoall_bytes` exactly.
    pub alltoall_bytes_per_phase: Vec<(&'static str, u64)>,
    /// Wall seconds per probe span category, summed over ranks (nested spans
    /// of the same category are counted once). Sorted by category name. Empty
    /// when the probe was disabled (`DistScbaConfig::probe = false`).
    pub phase_seconds: Vec<(String, f64)>,
    /// Measured overlap efficiency: the fraction of in-flight transposition
    /// time (post → wait end, per exchange, unioned per rank) that was hidden
    /// under convolution compute. `None` when the probe was disabled or no
    /// transposition was posted.
    pub overlap_efficiency: Option<f64>,
    /// Time-based load-imbalance factor over the
    /// `n_energy_groups × P_S` rank grid: max over ranks of non-communication
    /// busy seconds divided by the mean (1.0 = perfectly balanced). `None`
    /// when the probe was disabled.
    pub time_imbalance: Option<f64>,
    /// Fraction of OBC memoizer solves answered from cache, per full SCBA
    /// iteration (summed over ranks before dividing). Empty when the memoizer
    /// was disabled or no full iteration ran; recorded independently of the
    /// probe flag.
    pub memoizer_hit_rate_per_iteration: Vec<f64>,
    /// Measured FLOP rate per phase in FLOP/s, joining the probe's per-phase
    /// wall seconds with the `FlopCounter` accounting (`(phase, rate)`; only
    /// phases with both nonzero seconds and nonzero FLOPs appear). Empty when
    /// the probe was disabled.
    pub phase_flop_rates: Vec<(String, f64)>,
}

impl DistReport {
    /// Measured per-participant transposition bytes of **one** SCBA iteration.
    /// Every flat rank takes part in the transpositions, whatever `P_S`. Zero
    /// when no full iteration ran.
    pub fn measured_bytes_per_rank_per_iteration(&self) -> u64 {
        if self.full_iterations == 0 {
            return 0;
        }
        self.measured_transposition_bytes / self.n_ranks as u64 / self.full_iterations as u64
    }

    /// The report as a JSON object — the content of `DIST_report.json`, under
    /// the key names `BENCH_reference.json` gates.
    pub fn to_json(&self) -> Json {
        // A plain field is written under its own name.
        macro_rules! fields {
            ($($field:ident),*) => { vec![$((stringify!($field), Json::from(self.$field))),*] };
        }
        let named_values = |v: &[(String, f64)]| {
            Json::obj(v.iter().map(|(name, x)| (name.as_str(), Json::from(*x))))
        };
        let mut doc = fields![
            n_ranks,
            energy_groups,
            spatial_partitions,
            balanced_partitions,
            full_iterations,
            mixing_restarts,
            wall_seconds,
            seconds_per_iteration,
            measured_transposition_bytes,
            measured_alltoall_bytes,
            batch_count,
            peak_slab_bytes,
            overlap_efficiency,
            time_imbalance
        ];
        let bytes_per_phase = self.alltoall_bytes_per_phase.iter();
        doc.extend([
            (
                "alltoall_bytes_per_phase",
                Json::obj(bytes_per_phase.map(|&(label, bytes)| (label, Json::from(bytes)))),
            ),
            ("phase_seconds", named_values(&self.phase_seconds)),
            (
                "memoizer_hit_rate_per_iteration",
                Json::arr(self.memoizer_hit_rate_per_iteration.iter().copied()),
            ),
            ("phase_flop_rates", named_values(&self.phase_flop_rates)),
        ]);
        Json::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-rank, two-iteration report.
    fn two_rank_report() -> DistReport {
        DistReport {
            n_ranks: 2,
            energy_groups: 2,
            spatial_partitions: 1,
            balanced_partitions: false,
            full_iterations: 2,
            mixing_restarts: 0,
            wall_seconds: 0.5,
            seconds_per_iteration: 0.25,
            measured_transposition_bytes: 4000,
            measured_alltoall_bytes: 4400,
            measured_max_bytes_per_rank: 2200,
            batch_count: 1,
            peak_slab_bytes: 0,
            n_collectives: 12,
            alltoall_bytes_per_phase: Vec::new(),
            phase_seconds: Vec::new(),
            overlap_efficiency: None,
            time_imbalance: None,
            memoizer_hit_rate_per_iteration: Vec::new(),
            phase_flop_rates: Vec::new(),
        }
    }

    #[test]
    fn per_iteration_volume_divides_by_ranks_and_iterations() {
        assert_eq!(
            two_rank_report().measured_bytes_per_rank_per_iteration(),
            1000
        );
    }

    #[test]
    fn json_parses_and_exposes_the_gate_paths() {
        let report = DistReport {
            peak_slab_bytes: 4096,
            alltoall_bytes_per_phase: quatrex_runtime::CommPhase::ALL
                .iter()
                .zip(1u64..)
                .map(|(phase, bytes)| (phase.label(), bytes))
                .collect(),
            phase_seconds: vec![("comm.wait".to_string(), f64::NAN)],
            overlap_efficiency: Some(0.25),
            time_imbalance: Some(1.5),
            ..two_rank_report()
        };
        let doc = quatrex_probe::json::parse(&report.to_json().to_string()).expect("valid JSON");
        // Every DIST_report.json path of either mode of BENCH_reference.json,
        // and the wall-clock pair.
        let reference = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reference.json");
        let reference = std::fs::read_to_string(reference).expect("BENCH_reference.json");
        let reference = quatrex_probe::json::parse(&reference).expect("valid JSON");
        let gated: Vec<&str> = ["quick", "full"]
            .iter()
            .flat_map(|mode| {
                reference
                    .get(mode)
                    .and_then(Json::as_arr)
                    .expect("check array")
            })
            .filter(|c| c.get("file").and_then(Json::as_str) == Some("DIST_report.json"))
            .map(|c| c.get("path").and_then(Json::as_str).expect("check path"))
            .collect();
        assert!(!gated.is_empty(), "no DIST_report.json path is gated");
        for path in gated
            .into_iter()
            .chain(["wall_seconds", "seconds_per_iteration"])
        {
            assert!(
                doc.path(path).and_then(Json::as_f64).is_some(),
                "{path} is not a number in {doc}"
            );
        }
        assert_eq!(
            doc.path("measured_transposition_bytes")
                .and_then(Json::as_u64),
            Some(report.measured_transposition_bytes)
        );
        assert_eq!(
            doc.path("seconds_per_iteration").and_then(Json::as_f64),
            Some(0.25)
        );
        // A diverged timing: `null`, not an invalid token.
        assert_eq!(
            doc.get("phase_seconds").and_then(|p| p.get("comm.wait")),
            Some(&Json::Null)
        );
    }

    #[test]
    fn per_iteration_volume_is_zero_without_full_iterations() {
        let report = DistReport {
            n_ranks: 4,
            energy_groups: 2,
            spatial_partitions: 2,
            full_iterations: 0,
            measured_transposition_bytes: 0,
            measured_alltoall_bytes: 128,
            ..two_rank_report()
        };
        assert_eq!(report.measured_bytes_per_rank_per_iteration(), 0);
    }
}
