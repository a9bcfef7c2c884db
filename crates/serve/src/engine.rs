//! The persistent sweep engine: queue, warm-start scheduling, checkpointing.

use std::collections::VecDeque;
use std::path::Path;

use quatrex_core::dist::{DistScbaConfig, DistScbaSolver, WarmState};
use quatrex_core::ScbaConfig;
use quatrex_device::{Device, EnergyGrid};
use quatrex_probe::clock::Instant;

use crate::checkpoint::{
    frame, put_f64, put_i64, put_u64, put_u8, put_wire, unframe, Cursor, SweepError,
};
use crate::point::SweepPoint;
use crate::report::{PointReport, SweepReport};

/// Configuration of a [`SweepEngine`]: the base physics shared by every
/// point, the rank grid the points are scheduled over, and the warm-start
/// switch.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base physics configuration. Per point, the engine overrides
    /// `mu_right` (to `mu_left − bias`) and `temperature_k`; everything else
    /// is shared across the sweep.
    pub scba: ScbaConfig,
    /// Simulated ranks each point's solve runs on (the
    /// `n_energy_groups × P_S` grid of [`DistScbaConfig`]).
    pub n_ranks: usize,
    /// Spatial partitions per energy group (`P_S`).
    pub spatial_partitions: usize,
    /// Transposition batches per iteration (`B`).
    pub energy_batches: usize,
    /// Seed each point from the nearest finished neighbor's converged state.
    /// On by default; turn off to measure the cold baseline.
    pub warm_start: bool,
    /// Record per-rank probe traces per point (feeds
    /// [`PointReport::phase_seconds`]).
    pub probe: bool,
    /// Apply each point's drain bias as a linear potential ramp across the
    /// device (in addition to the contact chemical-potential split). When
    /// off, bias enters through `mu_right` alone — the flat-band
    /// approximation, whose SCBA fixed-point iteration stays contractive on
    /// small toy devices where the self-consistent ramp does not.
    pub potential_ramp: bool,
}

impl SweepConfig {
    /// A sweep configuration on `n_ranks ≥ 1` ranks with default options
    /// (`P_S = 1`, one batch, warm start on).
    pub fn new(scba: ScbaConfig, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "at least one rank");
        Self {
            scba,
            n_ranks,
            spatial_partitions: 1,
            energy_batches: 1,
            warm_start: true,
            probe: true,
            potential_ramp: true,
        }
    }

    /// Set the spatial partitions per energy group (`P_S ≥ 1`).
    pub fn with_spatial_partitions(mut self, p_s: usize) -> Self {
        assert!(p_s >= 1, "at least one spatial partition");
        self.spatial_partitions = p_s;
        self
    }

    /// Set the transposition batch count (`B ≥ 1`, checked here rather
    /// than inside the first solve).
    pub fn with_energy_batches(mut self, batches: usize) -> Self {
        assert!(batches >= 1, "at least one transposition batch");
        self.energy_batches = batches;
        self
    }

    /// Enable or disable warm starting.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Enable or disable the per-point probe trace.
    pub fn with_probe(mut self, enabled: bool) -> Self {
        self.probe = enabled;
        self
    }

    /// Enable or disable the per-point linear potential ramp (flat-band
    /// approximation when off; bias then acts through `mu_right` only).
    pub fn with_potential_ramp(mut self, enabled: bool) -> Self {
        self.potential_ramp = enabled;
        self
    }
}

/// A finished point: its report plus the converged state future points (and
/// checkpoints) reuse.
struct FinishedPoint {
    report: PointReport,
    state: WarmState,
}

/// A persistent sweep engine over one device: queue [`SweepPoint`]s, run
/// them over the distributed solver, warm-start each from the nearest
/// finished neighbor, stream the observables into a [`SweepReport`], and
/// checkpoint/resume the whole sweep mid-curve.
///
/// Every point solves on the *same* energy grid (pinned from the unbiased
/// base device), so converged Σ states transfer between points unchanged —
/// the warm start is every rank adopting the neighbor's state for the
/// energies it owns.
pub struct SweepEngine {
    device: Device,
    config: SweepConfig,
    grid: EnergyGrid,
    n_blocks: usize,
    block_size: usize,
    queue: VecDeque<SweepPoint>,
    finished: Vec<FinishedPoint>,
}

impl SweepEngine {
    /// An engine over `device` (unbiased; the engine applies each point's
    /// ramp itself) with an empty queue.
    pub fn new(device: Device, config: SweepConfig) -> Self {
        let grid = device.default_energy_grid(config.scba.n_energies);
        let h = device.hamiltonian_bt();
        let (n_blocks, block_size) = (h.n_blocks(), h.block_size());
        Self {
            device,
            config,
            grid,
            n_blocks,
            block_size,
            queue: VecDeque::new(),
            finished: Vec::new(),
        }
    }

    /// Append a point to the queue.
    pub fn enqueue(&mut self, point: SweepPoint) {
        self.queue.push_back(point);
    }

    /// Append a bias ramp at room temperature — the I–V curve request.
    pub fn enqueue_bias_ramp(&mut self, biases: &[f64]) {
        for &b in biases {
            self.enqueue(SweepPoint::bias(b));
        }
    }

    /// Points still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Points finished so far.
    pub fn completed(&self) -> usize {
        self.finished.len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// The report so far: every finished point in completion order.
    pub fn report(&self) -> SweepReport {
        SweepReport {
            points: self.finished.iter().map(|f| f.report.clone()).collect(),
        }
    }

    /// Solve the next queued point, stream its [`PointReport`] into the
    /// report, and retain its converged state for future warm starts.
    /// Returns `None` when the queue is empty.
    pub fn run_next(&mut self) -> Option<PointReport> {
        let point = self.queue.pop_front()?;
        Some(self.solve(point))
    }

    /// Drain the queue, then return the full report.
    pub fn run_all(&mut self) -> SweepReport {
        while self.run_next().is_some() {}
        self.report()
    }

    /// Completion index of the finished point nearest to `point` under
    /// [`SweepPoint::distance`] (ties break toward the earliest finisher)
    /// among those fit to seed a solve: converged, with finite observables.
    /// The Σ of a point that stopped at the iteration cap or diverged is not
    /// near any fixed point, and would poison its neighbours.
    fn nearest_finished(&self, point: &SweepPoint) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, fp) in self.finished.iter().enumerate() {
            let r = &fp.report;
            if !(r.converged && r.current.is_finite() && r.electron_charge.is_finite()) {
                continue;
            }
            let d = point.distance(&r.point);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    fn solve(&mut self, point: SweepPoint) -> PointReport {
        let started = Instant::now();
        let device = if self.config.potential_ramp {
            self.device.with_drain_bias(point.bias_v)
        } else {
            self.device.clone()
        };
        let mut scba = self.config.scba.clone();
        scba.mu_right = scba.mu_left - point.bias_v;
        scba.temperature_k = point.temperature_k;

        let warm_source = if self.config.warm_start {
            self.nearest_finished(&point)
        } else {
            None
        };
        let warm = warm_source.map(|i| &self.finished[i].state);
        let bytes_restored = warm.map_or(0, |w| w.wire_bytes());

        let dist = DistScbaConfig::new(scba, self.config.n_ranks)
            .with_spatial_partitions(self.config.spatial_partitions)
            .with_energy_batches(self.config.energy_batches)
            .with_probe(self.config.probe)
            .with_state_capture(true);
        let solver = DistScbaSolver::with_grid(device, dist, self.grid.clone());
        let result = solver.run_warm(warm);
        let state = result
            .final_state
            .expect("state capture was requested on every sweep solve");

        let report = PointReport {
            point,
            current: result.observables.current,
            electron_charge: result.observables.electron_density.iter().sum(),
            peak_spectral_current: result
                .observables
                .spectral
                .current_spectrum
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs())),
            iterations: result.iterations,
            converged: result.converged,
            residual: result.residual_history.last().copied().unwrap_or(0.0),
            residual_history: result.residual_history,
            mixing_restarts: result.mixing_restarts,
            warm_started: warm_source.is_some(),
            warm_source,
            bytes_restored,
            bytes_per_rank_per_iteration: result.report.measured_bytes_per_rank_per_iteration(),
            phase_seconds: result.report.phase_seconds.clone(),
            wall_seconds: started.elapsed().as_secs_f64(),
        };
        self.finished.push(FinishedPoint {
            report: report.clone(),
            state,
        });
        report
    }

    fn shape(&self) -> (usize, usize, usize) {
        (self.grid.len(), self.n_blocks, self.block_size)
    }

    /// Write the sweep's full state — finished points with their converged
    /// states, plus the pending queue — to `path` in the versioned,
    /// digest-protected format of [`crate::checkpoint`]. Returns the bytes
    /// written.
    pub fn checkpoint_to(&self, path: impl AsRef<Path>) -> Result<u64, SweepError> {
        let mut payload = Vec::new();
        let (ne, nb, bs) = self.shape();
        put_u64(&mut payload, ne as u64);
        put_u64(&mut payload, nb as u64);
        put_u64(&mut payload, bs as u64);
        put_u64(&mut payload, self.finished.len() as u64);
        for fp in &self.finished {
            let r = &fp.report;
            put_f64(&mut payload, r.point.bias_v);
            put_f64(&mut payload, r.point.temperature_k);
            put_f64(&mut payload, r.current);
            put_f64(&mut payload, r.electron_charge);
            put_f64(&mut payload, r.peak_spectral_current);
            put_u64(&mut payload, r.iterations as u64);
            put_u8(&mut payload, r.converged as u8);
            put_f64(&mut payload, r.residual);
            put_u64(&mut payload, r.residual_history.len() as u64);
            for &residual in &r.residual_history {
                put_f64(&mut payload, residual);
            }
            put_u64(&mut payload, r.mixing_restarts as u64);
            put_u8(&mut payload, r.warm_started as u8);
            put_i64(&mut payload, r.warm_source.map_or(-1, |s| s as i64));
            put_u64(&mut payload, r.bytes_restored);
            put_u64(&mut payload, r.bytes_per_rank_per_iteration);
            put_wire(&mut payload, &fp.state.to_wire());
        }
        put_u64(&mut payload, self.queue.len() as u64);
        for p in &self.queue {
            put_f64(&mut payload, p.bias_v);
            put_f64(&mut payload, p.temperature_k);
        }
        let file = frame(&payload);
        std::fs::write(path, &file)?;
        Ok(file.len() as u64)
    }

    /// Rebuild an engine from a checkpoint: finished points resume with
    /// their converged states (so the remaining queue warm-starts exactly as
    /// the interrupted sweep would have), pending points re-enter the queue.
    /// The checkpoint's shape fingerprint must match `device` and `config`;
    /// every malformation is a named [`SweepError`].
    pub fn resume_from(
        device: Device,
        config: SweepConfig,
        path: impl AsRef<Path>,
    ) -> Result<Self, SweepError> {
        let bytes = std::fs::read(path)?;
        let payload = unframe(&bytes)?;
        let mut engine = SweepEngine::new(device, config);
        let mut cur = Cursor::new(payload);
        let checkpoint_shape = (
            cur.u64()? as usize,
            cur.u64()? as usize,
            cur.u64()? as usize,
        );
        if checkpoint_shape != engine.shape() {
            return Err(SweepError::ShapeMismatch {
                checkpoint: checkpoint_shape,
                engine: engine.shape(),
            });
        }
        let n_finished = cur.u64()? as usize;
        for _ in 0..n_finished {
            let point = SweepPoint::new(cur.f64()?, cur.f64()?);
            let current = cur.f64()?;
            let electron_charge = cur.f64()?;
            let peak_spectral_current = cur.f64()?;
            let iterations = cur.u64()? as usize;
            let converged = cur.u8()? != 0;
            let residual = cur.f64()?;
            let residual_history = cur.f64s()?;
            let mixing_restarts = cur.u64()? as usize;
            let warm_started = cur.u8()? != 0;
            let warm_source = match cur.i64()? {
                s if s >= 0 => Some(s as usize),
                _ => None,
            };
            let bytes_restored = cur.u64()?;
            let bytes_per_rank_per_iteration = cur.u64()?;
            let wire = cur.wire()?;
            let state = WarmState::from_wire(&wire)?;
            engine.finished.push(FinishedPoint {
                report: PointReport {
                    point,
                    current,
                    electron_charge,
                    peak_spectral_current,
                    iterations,
                    converged,
                    residual,
                    residual_history,
                    mixing_restarts,
                    warm_started,
                    warm_source,
                    bytes_restored,
                    bytes_per_rank_per_iteration,
                    phase_seconds: Vec::new(),
                    wall_seconds: 0.0,
                },
                state,
            });
        }
        let n_pending = cur.u64()? as usize;
        for _ in 0..n_pending {
            let point = SweepPoint::new(cur.f64()?, cur.f64()?);
            engine.queue.push_back(point);
        }
        if !cur.finished() {
            return Err(SweepError::Truncated);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one transposition batch")]
    fn zero_energy_batches_are_rejected_where_the_config_is_built() {
        let _ = SweepConfig::new(ScbaConfig::default(), 2).with_energy_batches(0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_are_rejected_where_the_config_is_built() {
        let _ = SweepConfig::new(ScbaConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one spatial partition")]
    fn zero_spatial_partitions_are_rejected_where_the_config_is_built() {
        let _ = SweepConfig::new(ScbaConfig::default(), 2).with_spatial_partitions(0);
    }
}
