//! Streaming sweep reports: one [`PointReport`] per finished point, appended
//! in completion order, extending the per-run `DistReport`/probe plumbing
//! with the sweep-level quantities (warm-vs-cold iteration counts, bytes
//! restored per warm start).

use crate::point::SweepPoint;
use quatrex_probe::json::Json;

/// Observables and warm-start accounting of one finished sweep point.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// The operating point.
    pub point: SweepPoint,
    /// Terminal current (the sweep's headline observable).
    pub current: f64,
    /// Integrated electron charge (sum of the per-block densities).
    pub electron_charge: f64,
    /// Largest magnitude of the spectral current density over the grid — a
    /// transmission-resonance proxy that localises where the current flows.
    pub peak_spectral_current: f64,
    /// SCBA iterations this point took.
    pub iterations: usize,
    /// Whether the Σ update fell below the tolerance.
    pub converged: bool,
    /// Final relative Σ residual.
    pub residual: f64,
    /// Relative Σ residual of every iteration — the point's trajectory.
    pub residual_history: Vec<f64>,
    /// `‖Δg‖ / ‖Δx‖` of every mix that completed a difference pair
    /// (`DistScbaResult::contraction_history`): below one where the SCBA
    /// map contracts, so the update rule may extrapolate.
    pub contraction_history: Vec<f64>,
    /// Times the Σ update cleared its history and fell back to the damped
    /// step (`DistScbaResult::mixing_restarts`).
    pub mixing_restarts: usize,
    /// Whether the point was seeded from a finished neighbor's state.
    pub warm_started: bool,
    /// Completion index of the donating neighbor, if warm-started.
    pub warm_source: Option<usize>,
    /// Wire bytes of the restored warm state (0 on a cold start).
    pub bytes_restored: u64,
    /// Measured transposition bytes per rank per iteration of this point's
    /// solve (`DistReport::measured_bytes_per_rank_per_iteration`), written
    /// per point to `SWEEP_report.json`.
    pub bytes_per_rank_per_iteration: u64,
    /// Per-phase exclusive seconds of this point's solve, summed over ranks
    /// (`quatrex_probe::Timeline::phase_seconds`: with `untraced`, they sum
    /// to the solve's rank-seconds). Empty when the probe is off or the point
    /// was restored from a checkpoint (timings are measurements of a run,
    /// not solver state).
    pub phase_seconds: Vec<(String, f64)>,
    /// Wall-clock seconds this point took, from its operating-point set-up
    /// to the end of its solve. Like `phase_seconds` a measurement of a run:
    /// not checkpointed, `0` on a point restored from a checkpoint.
    pub wall_seconds: f64,
}

impl PointReport {
    fn to_json(&self) -> Json {
        let phases = self.phase_seconds.iter();
        Json::obj([
            ("bias_v", self.point.bias_v.into()),
            ("temperature_k", self.point.temperature_k.into()),
            ("current", self.current.into()),
            ("electron_charge", self.electron_charge.into()),
            ("peak_spectral_current", self.peak_spectral_current.into()),
            ("iterations", self.iterations.into()),
            ("converged", self.converged.into()),
            ("residual", self.residual.into()),
            (
                "residual_history",
                Json::arr(self.residual_history.iter().copied()),
            ),
            (
                "contraction_history",
                Json::arr(self.contraction_history.iter().copied()),
            ),
            ("mixing_restarts", self.mixing_restarts.into()),
            ("warm_started", self.warm_started.into()),
            ("warm_source", self.warm_source.into()),
            ("bytes_restored", self.bytes_restored.into()),
            (
                "bytes_per_rank_per_iteration",
                self.bytes_per_rank_per_iteration.into(),
            ),
            ("wall_seconds", self.wall_seconds.into()),
            (
                "phase_seconds",
                Json::obj(phases.map(|(name, secs)| (name.as_str(), Json::from(*secs)))),
            ),
        ])
    }
}

/// The incrementally grown report of a sweep: every finished point in
/// completion order, plus the sweep-level aggregates derived from them.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Finished points in completion order.
    pub points: Vec<PointReport>,
    /// Energy-grid spacing over the broadening, `ΔE / η`, of the grid every
    /// point ran on: how well the energy axis resolves the resolvent's
    /// peaks.
    pub spacing_over_eta: f64,
}

impl SweepReport {
    /// Total SCBA iterations summed over the finished points — the quantity
    /// the warm-vs-cold headline ratio compares.
    pub fn total_iterations(&self) -> usize {
        self.points.iter().map(|p| p.iterations).sum()
    }

    /// Number of warm-started points.
    pub fn warm_points(&self) -> usize {
        self.points.iter().filter(|p| p.warm_started).count()
    }

    /// Total wire bytes restored by warm starts across the sweep.
    pub fn bytes_restored(&self) -> u64 {
        self.points.iter().map(|p| p.bytes_restored).sum()
    }

    /// `self`'s total iterations over `cold`'s — the headline
    /// iterations-to-convergence ratio (`< 1.0` means the warm-started sweep
    /// beat the cold one). `None` when either sweep is empty.
    pub fn iteration_ratio_vs(&self, cold: &SweepReport) -> Option<f64> {
        let (warm, cold) = (self.total_iterations(), cold.total_iterations());
        (warm > 0 && cold > 0).then(|| warm as f64 / cold as f64)
    }

    /// The report's points sorted by operating point (bias, then
    /// temperature) — a completion-order-independent view for comparing
    /// sweeps that ran in different schedules.
    pub fn sorted_points(&self) -> Vec<&PointReport> {
        let mut sorted: Vec<&PointReport> = self.points.iter().collect();
        sorted.sort_by(|a, b| {
            (a.point.bias_v, a.point.temperature_k)
                .partial_cmp(&(b.point.bias_v, b.point.temperature_k))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted
    }

    /// The report as a JSON object: the sweep-level aggregates, then every
    /// finished point in completion order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_points", self.points.len().into()),
            ("total_iterations", self.total_iterations().into()),
            ("warm_points", self.warm_points().into()),
            ("bytes_restored", self.bytes_restored().into()),
            ("spacing_over_eta", self.spacing_over_eta.into()),
            (
                "points",
                Json::arr(self.points.iter().map(PointReport::to_json)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(bias: f64, iterations: usize, warm: bool) -> PointReport {
        PointReport {
            point: SweepPoint::bias(bias),
            current: 1e-6 * bias,
            electron_charge: 0.5,
            peak_spectral_current: 2e-6,
            iterations,
            converged: true,
            residual: 1e-9,
            residual_history: vec![1e-3, 1e-9],
            contraction_history: vec![0.25],
            mixing_restarts: 0,
            warm_started: warm,
            warm_source: warm.then_some(0),
            bytes_restored: if warm { 1024 } else { 0 },
            bytes_per_rank_per_iteration: 4096,
            phase_seconds: vec![("g.energy".to_string(), 0.25)],
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn aggregates_and_ratio() {
        let cold = SweepReport {
            points: vec![point(0.0, 10, false), point(0.1, 12, false)],
            ..SweepReport::default()
        };
        let warm = SweepReport {
            points: vec![point(0.0, 10, false), point(0.1, 4, true)],
            ..SweepReport::default()
        };
        assert_eq!(cold.total_iterations(), 22);
        assert_eq!(warm.warm_points(), 1);
        let ratio = warm.iteration_ratio_vs(&cold).expect("both non-empty");
        assert!((ratio - 14.0 / 22.0).abs() < 1e-15);
    }

    #[test]
    fn json_parses_and_exposes_the_gate_paths() {
        let report = SweepReport {
            points: vec![point(0.0, 10, false), point(0.05, 4, true)],
            spacing_over_eta: 0.5,
        };
        let doc = quatrex_probe::json::parse(&report.to_json().to_string()).expect("valid JSON");
        assert_eq!(
            doc.path("total_iterations").and_then(|v| v.as_u64()),
            Some(14)
        );
        assert_eq!(
            doc.path("points[1].iterations").and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            doc.path("points[1].warm_started").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            doc.path("points[1].residual_history[1]")
                .and_then(Json::as_f64),
            Some(1e-9)
        );
        assert_eq!(
            doc.path("points[1].contraction_history[0]")
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            doc.path("spacing_over_eta").and_then(Json::as_f64),
            Some(0.5)
        );
        assert_eq!(
            doc.path("points[1].mixing_restarts")
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }

    #[test]
    fn a_diverged_point_still_serialises_to_valid_json() {
        let report = SweepReport {
            points: vec![PointReport {
                residual: f64::NAN,
                current: f64::INFINITY,
                ..point(0.1, 80, false)
            }],
            ..SweepReport::default()
        };
        let doc = quatrex_probe::json::parse(&format!("{:#}", report.to_json()))
            .expect("non-finite values must not break the document");
        assert_eq!(doc.path("points[0].residual"), Some(&Json::Null));
        assert_eq!(doc.path("points[0].current"), Some(&Json::Null));
        assert_eq!(doc.path("points[0].warm_source"), Some(&Json::Null));
        assert_eq!(
            doc.path("points[0].wall_seconds").and_then(Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn sorted_points_ignore_completion_order() {
        let a = SweepReport {
            points: vec![point(0.1, 5, false), point(0.0, 7, false)],
            ..SweepReport::default()
        };
        let sorted = a.sorted_points();
        assert_eq!(sorted[0].point.bias_v, 0.0);
        assert_eq!(sorted[1].point.bias_v, 0.1);
    }
}
