//! The self-consistent Born approximation (SCBA): its configuration, its
//! per-energy stages and [`ScbaSolver`], the single-node entry point.
//!
//! One SCBA iteration executes the `G → P → W → Σ` cycle of Fig. 3:
//!
//! 1. **G-step** — for every energy point: assemble
//!    `M̃(E) = (E+iη)·I − H − Σ^R_scatt − Σ^R_OBC` and the lesser/greater RHS,
//!    then solve with RGF for the selected `G^R`, `G^<`, `G^>` blocks;
//! 2. **P-step** — energy convolutions of the Green's functions give the
//!    polarisation `P^≶`, followed by the causality construction of `P^R`;
//! 3. **W-step** — per (boson) energy: assemble `I − V·P^R` and `V·P≶·V†`
//!    with their OBCs (Beyn + Lyapunov), solve with RGF for `W^≶`;
//! 4. **Σ-step** — energy convolutions of `G` and `W` give `Σ^≶`, the
//!    causality construction gives `Σ^R`, and the update rule of
//!    [`crate::mixing`] advances the self-energy towards the result.
//!
//! The cycle is written once, as the rank loop of [`crate::dist`];
//! [`ScbaSolver::run`] runs it as one energy group. This module holds what
//! that loop calls per energy: the assemble, solve and finish stages of the
//! G and W steps. Lesser/greater quantities are re-symmetrised on the fly
//! (Section 5.2), the OBC memoizer caches surface functions across
//! iterations (Section 5.3), and FLOPs are accumulated in the categories of
//! the paper's Table 4; its wall-time rows are the probe's phase seconds
//! (`DistReport::phase_seconds`).

use quatrex_probe::clock::Instant;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use quatrex_device::{Device, EnergyGrid};
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_obc::{ObcMemoizer, Subsystem};
use quatrex_rgf::{rgf_solve_batch_into, RgfBatchScratch, RgfError, SelectedSolution};
use quatrex_sparse::BlockTridiagonal;

use crate::assembly::{assemble_g, assemble_w, GAssembly, ObcMethod, WAssembly};
use crate::dist::{DistScbaConfig, DistScbaResult, DistScbaSolver};
use crate::observables::{current_spectrum_left, local_dos};

/// Wall-time accumulators (nanoseconds) of the G and W step functions
/// [`g_step_batch`] / [`w_step_batch`], one per Table 4 row they cover. The
/// SCBA loop does not use them: its seconds are the probe's phase seconds.
#[derive(Debug, Default)]
pub struct KernelTimings {
    /// OBC + assembly of the electron system (`G: OBC`).
    pub g_assembly_ns: AtomicU64,
    /// Electron RGF solves (`G: RGF`).
    pub g_rgf_ns: AtomicU64,
    /// Assembly of the screened-interaction system, including its OBCs
    /// (`W: Assembly` — Beyn, Lyapunov, LHS, RHS).
    pub w_assembly_ns: AtomicU64,
    /// Screened-interaction RGF solves (`W: RGF`).
    pub w_rgf_ns: AtomicU64,
}

impl KernelTimings {
    /// Accumulate the wall time elapsed since `start` into `slot` (one of the
    /// fields of this struct).
    pub fn add(&self, slot: &AtomicU64, start: Instant) {
        slot.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Output of the G-step at one energy point: the selected Green's function
/// blocks and the spectral quantities derived from them.
pub struct GStepOutput {
    /// Selected blocks of `G^<` (symmetrised if configured).
    pub lesser: BlockTridiagonal,
    /// Selected blocks of `G^>` (symmetrised if configured).
    pub greater: BlockTridiagonal,
    /// Energy-resolved current at the left contact.
    pub current_spectrum: f64,
    /// Local density of states per transport cell.
    pub dos_local: Vec<f64>,
}

/// Output of the W-step at one (boson) energy point.
pub struct WStepOutput {
    /// Selected blocks of `W^<` (symmetrised if configured).
    pub lesser: BlockTridiagonal,
    /// Selected blocks of `W^>` (symmetrised if configured).
    pub greater: BlockTridiagonal,
    /// Fraction of banded-product weight dropped by the BT truncation.
    pub truncation: f64,
}

/// How the RGF solve of one subsystem (`G` = electrons, `W` = screened
/// interaction) is accounted: probe span (name and category) of the local
/// batched solve and FLOP kind. Shared by every solver of the assembled
/// systems — the local batched one ([`solve_stage`]) and the cooperative
/// spatial one of [`crate::dist::spatial`].
pub fn solve_accounting(subsystem: Subsystem) -> (&'static str, FlopKind) {
    match subsystem {
        Subsystem::Electron => ("g.rgf", FlopKind::GRgf),
        Subsystem::ScreenedCoulomb => ("w.rgf", FlopKind::WRgf),
    }
}

/// Cut an energy range into consecutive kernel chunks of at most
/// `kernel_batch` energies (clamped to ≥ 1, so `0` means `1`): the unit one
/// [`g_step_batch`] / [`w_step_batch`] call works on. The SCBA loop chunks
/// through this one function.
pub fn kernel_chunks(
    range: Range<usize>,
    kernel_batch: usize,
) -> impl Iterator<Item = Range<usize>> {
    let kb = kernel_batch.max(1);
    let end = range.end;
    range.step_by(kb).map(move |s| s..(s + kb).min(end))
}

/// The memoizer serving batch member `i`: one per energy, or a single cache
/// shared by the whole batch (the per-rank memoizer of the SCBA loop; its
/// keys carry the energy index). Both give the same bits.
fn memoizer_of<'a>(
    memoizers: &'a mut [Option<&mut ObcMemoizer>],
    i: usize,
) -> Option<&'a mut ObcMemoizer> {
    let slot = if memoizers.len() == 1 { 0 } else { i };
    memoizers[slot].as_deref_mut()
}

// ---------------------------------------------------------------------------
// The three stages of a step — *assemble one energy*, *solve the assembled
// systems*, *finish one energy*. [`g_step_batch`] / [`w_step_batch`] compose
// them with the local batched solve; the rank loop of [`crate::dist`]
// composes the same assemble and finish stages with its group solve, so a
// replay over the step functions and the loop apply identical per-energy
// arithmetic by construction.

/// Stage 1 of the G-step: assemble one energy's system (OBC cascade +
/// memoizer, the retarded contact self-energy by Sancho–Rubio) from the
/// previous iteration's `sigma = [Σ^R, Σ^<, Σ^>]`.
#[allow(clippy::too_many_arguments)]
pub fn g_step_assemble(
    h: &BlockTridiagonal,
    energy: f64,
    energy_index: usize,
    sigma: [Option<&BlockTridiagonal>; 3],
    config: &ScbaConfig,
    kt: f64,
    memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> GAssembly {
    quatrex_probe::span("g.assembly", "g.assembly", || {
        assemble_g(
            h,
            energy,
            config.eta,
            energy_index,
            sigma[0],
            sigma[1],
            sigma[2],
            config.mu_left,
            config.mu_right,
            kt,
            ObcMethod::SanchoRubio,
            memoizer,
            flops,
        )
    })
}

/// Stage 1 of the W-step at one (boson) energy: assemble its system (the
/// retarded boundary by the cascade of [`ObcMethod::Beyn`] + memoizer, the
/// Lyapunov boundaries) from the polarisation `p = [P^R, P^<, P^>]`, with the
/// truncation monitor on.
pub fn w_step_assemble(
    coulomb: &BlockTridiagonal,
    p: [&BlockTridiagonal; 3],
    energy_index: usize,
    memoizer: Option<&mut ObcMemoizer>,
    flops: &FlopCounter,
) -> WAssembly {
    quatrex_probe::span("w.assembly", "w.assembly", || {
        assemble_w(coulomb, p, energy_index, true, memoizer, flops)
    })
}

/// Stage 1 of the W-step for one kernel chunk: assemble the system of each
/// energy, `p[m] = [P^R, P^<, P^>]` at global energy `energy_indices[m]`
/// (`memoizers` as in [`w_step_batch`]), in one `w.assembly` probe span. The
/// truncation monitor runs on energies whose global index is a multiple of
/// `kernel_batch`: a sample that does not depend on the rank layout, so the
/// gathered maximum is the same on every grid.
pub(crate) fn w_step_assemble_chunk(
    coulomb: &BlockTridiagonal,
    p: &[[&BlockTridiagonal; 3]],
    energy_indices: &[usize],
    config: &ScbaConfig,
    memoizers: &mut [Option<&mut ObcMemoizer>],
    flops: &FlopCounter,
) -> Vec<WAssembly> {
    let kb = config.kernel_batch.max(1);
    quatrex_probe::span("w.assembly", "w.assembly", || {
        let members = p.iter().zip(energy_indices).enumerate();
        members
            .map(|(m, (&p, &e))| {
                assemble_w(coulomb, p, e, e % kb == 0, memoizer_of(memoizers, m), flops)
            })
            .collect()
    })
}

/// Stage 2, local form: **one** energy-batched RGF solve
/// ([`rgf_solve_batch_into`]) of the assembled `[A, B^<, B^>]` systems, whose
/// block products run as batched sweeps over the whole batch (energy-major
/// planes, or one vector lane per energy for small blocks). A solution
/// does not depend on the batch it is solved in (bit for bit), so the batch
/// length is purely a launch-structure choice.
pub fn solve_stage(
    subsystem: Subsystem,
    systems: &[[&BlockTridiagonal; 3]],
    scratch: &mut RgfBatchScratch,
    flops: &FlopCounter,
) -> Result<Vec<SelectedSolution>, RgfError> {
    let shape = systems
        .first()
        .map_or((0, 0), |s| (s[0].n_blocks(), s[0].block_size()));
    let lhs: Vec<&BlockTridiagonal> = systems.iter().map(|s| s[0]).collect();
    let rhs: Vec<&[&BlockTridiagonal]> = systems.iter().map(|s| &s[1..]).collect();
    let mut sols = vec![SelectedSolution::zeros(shape.0, shape.1, 2); systems.len()];
    let (span, kind) = solve_accounting(subsystem);
    quatrex_probe::span(span, span, || {
        rgf_solve_batch_into(&lhs, &rhs, &mut sols, scratch)
    })
    .map_err(|e| e.error)?;
    flops.add(kind, sols.iter().map(|s| s.flops).sum());
    Ok(sols)
}

/// Move the `[≶ = <, ≶ = >]` pair out of a two-RHS solution, symmetrised if
/// configured.
fn lesser_greater(lesser: Vec<BlockTridiagonal>, config: &ScbaConfig) -> [BlockTridiagonal; 2] {
    let mut pair: [BlockTridiagonal; 2] = lesser
        .try_into()
        .expect("the step functions solve exactly the lesser and greater RHS");
    if config.enforce_symmetry {
        pair.iter_mut().for_each(BlockTridiagonal::symmetrize_negf);
    }
    pair
}

/// Stage 3 of the G-step: finish one energy from its assembly and its
/// selected solution — symmetrisation and the spectral observables.
pub fn g_step_finish(asm: &GAssembly, sol: SelectedSolution, config: &ScbaConfig) -> GStepOutput {
    let [lesser, greater] = lesser_greater(sol.lesser, config);
    GStepOutput {
        current_spectrum: current_spectrum_left(
            &asm.sigma_obc_left_lesser,
            &asm.sigma_obc_left_greater,
            lesser.diag(0),
            greater.diag(0),
        ),
        dos_local: local_dos(&sol.retarded),
        lesser,
        greater,
    }
}

/// Stage 3 of the W-step: finish one boson energy (symmetrisation).
pub fn w_step_finish(asm: &WAssembly, sol: SelectedSolution, config: &ScbaConfig) -> WStepOutput {
    let [lesser, greater] = lesser_greater(sol.lesser, config);
    WStepOutput {
        lesser,
        greater,
        truncation: asm.truncation_error,
    }
}

/// Run the G-step for a batch of energy points: the three stages composed
/// with the local batched solve — per-energy [`g_step_assemble`], one
/// [`solve_stage`], per-energy [`g_step_finish`]. An energy's output does not
/// depend on the batch it is solved in (bit for bit); the SCBA loop runs
/// every energy through the same stages, which makes its per-energy
/// numerics identical to this function's by construction.
///
/// `memoizers` holds one entry per energy, or a single entry serving the
/// whole batch.
#[allow(clippy::too_many_arguments)]
pub fn g_step_batch(
    h: &BlockTridiagonal,
    energies: &[f64],
    energy_indices: &[usize],
    config: &ScbaConfig,
    kt: f64,
    sigma_r: &[Option<&BlockTridiagonal>],
    sigma_lesser: &[Option<&BlockTridiagonal>],
    sigma_greater: &[Option<&BlockTridiagonal>],
    memoizers: &mut [Option<&mut ObcMemoizer>],
    scratch: &mut RgfBatchScratch,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> Result<Vec<GStepOutput>, RgfError> {
    let bsz = energies.len();
    assert!(
        energy_indices.len() == bsz
            && sigma_r.len() == bsz
            && sigma_lesser.len() == bsz
            && sigma_greater.len() == bsz
            && (memoizers.len() == bsz || memoizers.len() == 1),
        "per-energy inputs must match the batch length"
    );
    let t = Instant::now();
    let asms: Vec<GAssembly> = (0..bsz)
        .map(|i| {
            g_step_assemble(
                h,
                energies[i],
                energy_indices[i],
                [sigma_r[i], sigma_lesser[i], sigma_greater[i]],
                config,
                kt,
                memoizer_of(memoizers, i),
                flops,
            )
        })
        .collect();
    timings.add(&timings.g_assembly_ns, t);
    let systems: Vec<_> = asms
        .iter()
        .map(|a| [&a.system, &a.rhs_lesser, &a.rhs_greater])
        .collect();
    let t = Instant::now();
    let sols = solve_stage(Subsystem::Electron, &systems, scratch, flops)?;
    timings.add(&timings.g_rgf_ns, t);
    Ok(sols
        .into_iter()
        .zip(&asms)
        .map(|(sol, asm)| g_step_finish(asm, sol, config))
        .collect())
}

/// Run the W-step for a batch of (boson) energy points: the batch's
/// assemblies (as [`w_step_assemble`], the truncation monitor on the energies
/// whose global index is a multiple of `config.kernel_batch`), one
/// [`solve_stage`], [`w_step_finish`]. Batch-independent per energy like
/// [`g_step_batch`]; `memoizers` follows the same convention.
#[allow(clippy::too_many_arguments)]
pub fn w_step_batch(
    coulomb: &BlockTridiagonal,
    p_retarded: &[&BlockTridiagonal],
    p_lesser: &[&BlockTridiagonal],
    p_greater: &[&BlockTridiagonal],
    energy_indices: &[usize],
    config: &ScbaConfig,
    memoizers: &mut [Option<&mut ObcMemoizer>],
    scratch: &mut RgfBatchScratch,
    flops: &FlopCounter,
    timings: &KernelTimings,
) -> Result<Vec<WStepOutput>, RgfError> {
    let bsz = energy_indices.len();
    assert!(
        p_retarded.len() == bsz
            && p_lesser.len() == bsz
            && p_greater.len() == bsz
            && (memoizers.len() == bsz || memoizers.len() == 1),
        "per-energy inputs must match the batch length"
    );
    let t = Instant::now();
    let p: Vec<_> = (0..bsz)
        .map(|i| [p_retarded[i], p_lesser[i], p_greater[i]])
        .collect();
    let asms = w_step_assemble_chunk(coulomb, &p, energy_indices, config, memoizers, flops);
    timings.add(&timings.w_assembly_ns, t);
    let systems: Vec<_> = asms
        .iter()
        .map(|a| [&a.system, &a.rhs_lesser, &a.rhs_greater])
        .collect();
    let t = Instant::now();
    let sols = solve_stage(Subsystem::ScreenedCoulomb, &systems, scratch, flops)?;
    timings.add(&timings.w_rgf_ns, t);
    Ok(sols
        .into_iter()
        .zip(&asms)
        .map(|(sol, asm)| w_step_finish(asm, sol, config))
        .collect())
}

/// Configuration of an SCBA run.
#[derive(Debug, Clone)]
pub struct ScbaConfig {
    /// Number of energy points `N_E`.
    pub n_energies: usize,
    /// Small positive broadening `η` (eV) of the retarded resolvent.
    pub eta: f64,
    /// Source (left) chemical potential (eV).
    pub mu_left: f64,
    /// Drain (right) chemical potential (eV).
    pub mu_right: f64,
    /// Lattice temperature (K).
    pub temperature_k: f64,
    /// Maximum number of SCBA iterations.
    pub max_iterations: usize,
    /// Relative convergence tolerance on the self-energy update.
    pub tolerance: f64,
    /// Damping `β` of the history-free Σ update (0 < mixing ≤ 1): the weight
    /// of the new self-energy in the step the update rule
    /// ([`crate::mixing`]) takes with no history — the first mix, a mix after
    /// a restart, and every mix of a run too short to record a pair. Steps
    /// extrapolated from a history are taken in full.
    pub mixing: f64,
    /// Enable the dynamic OBC memoizer (Section 5.3).
    pub use_memoizer: bool,
    /// Fixed-point refinement budget of the memoizer (`N_FPI`).
    pub n_fpi: usize,
    /// Enforce the lesser/greater symmetry after every kernel (Section 5.2).
    /// The SCBA loop requires it ([`ScbaSolver::run`] and
    /// [`DistScbaSolver`] reject `false` before any rank starts): its
    /// transpositions ship canonical elements only. Only the step functions
    /// ([`g_step_finish`], [`w_step_finish`]) still read it.
    pub enforce_symmetry: bool,
    /// Strength of the GW self-energy fed back into the G-solver (1.0 = full
    /// scGW; smaller values damp the interaction for difficult bias points).
    pub interaction_scale: f64,
    /// Chunk length of the kernel batches ([`kernel_chunks`]): how many
    /// energy points share one [`g_step_batch`] / [`w_step_batch`] call, whose
    /// block products run as batched sweeps over the chunk. Not a path
    /// selector — every value produces bit-identical results (`0` is clamped
    /// to `1`, a batch of one); launch structure, thread granularity and the
    /// layout the batched RGF solve picks from `(N_BS, chunk length)` change
    /// (`quatrex_rgf::BlockLayout::for_solve`). The default of 8 is one lane
    /// group: for blocks of `N_BS ≤ 12` on a 512-bit build, a full chunk
    /// fills every vector lane of the lane-interleaved layout.
    pub kernel_batch: usize,
}

impl Default for ScbaConfig {
    fn default() -> Self {
        Self {
            n_energies: 64,
            eta: 1e-3,
            mu_left: 0.1,
            mu_right: -0.1,
            temperature_k: 300.0,
            max_iterations: 20,
            tolerance: 1e-4,
            mixing: 0.5,
            use_memoizer: true,
            n_fpi: 20,
            enforce_symmetry: true,
            interaction_scale: 1.0,
            kernel_batch: 8,
        }
    }
}

/// Result of an SCBA run: the rank loop's own result. [`ScbaSolver::run`]
/// runs it with the probe off, so its `timeline` is empty.
pub type ScbaResult = DistScbaResult;

/// The NEGF+scGW solver bound to one device and configuration.
pub struct ScbaSolver {
    device: Device,
    config: ScbaConfig,
    grid: EnergyGrid,
}

impl ScbaSolver {
    /// Create a solver for `device` with the given configuration.
    pub fn new(device: Device, config: ScbaConfig) -> Self {
        let grid = device.default_energy_grid(config.n_energies);
        Self {
            device,
            config,
            grid,
        }
    }

    /// Create a solver with an explicit energy grid.
    pub fn with_grid(device: Device, config: ScbaConfig, grid: EnergyGrid) -> Self {
        Self {
            device,
            config,
            grid,
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run a single ballistic iteration (no electron-electron interaction):
    /// the Σ = 0 limit used as the reference "first iteration" of the SCBA.
    pub fn ballistic(&self) -> ScbaResult {
        let mut cfg = self.config.clone();
        cfg.max_iterations = 1;
        ScbaSolver::with_grid(self.device.clone(), cfg, self.grid.clone()).run()
    }

    /// Run the SCBA loop until convergence or the iteration limit: the rank
    /// loop of [`crate::dist`] as one energy group (`P_S = 1`, one
    /// transposition batch, no probe trace, no state capture), on one rank
    /// per kernel chunk up to the machine's parallelism. Every rank count
    /// gives the same bits, so the ranks only set the parallelism.
    pub fn run(&self) -> ScbaResult {
        let chunks = self.grid.len().div_ceil(self.config.kernel_batch.max(1));
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let config =
            DistScbaConfig::new(self.config.clone(), threads.min(chunks).max(1)).with_probe(false);
        DistScbaSolver::with_grid(self.device.clone(), config, self.grid.clone()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quatrex_device::DeviceBuilder;

    fn small_device() -> Device {
        DeviceBuilder::test_device(3, 2, 4).build()
    }

    fn fast_config(n_energies: usize, iterations: usize) -> ScbaConfig {
        ScbaConfig {
            n_energies,
            max_iterations: iterations,
            mixing: 0.4,
            tolerance: 1e-3,
            interaction_scale: 0.2,
            ..ScbaConfig::default()
        }
    }

    #[test]
    fn ballistic_run_produces_physical_observables() {
        let solver = ScbaSolver::new(small_device(), fast_config(24, 1));
        let res = solver.ballistic();
        assert_eq!(res.iterations, 1);
        // DOS non-negative everywhere.
        for (k, dos) in res.observables.spectral.dos.iter().enumerate() {
            assert!(*dos > -1e-9, "negative DOS at energy index {k}");
        }
        // Densities non-negative.
        for n in &res.observables.electron_density {
            assert!(*n > -1e-9);
        }
        // With a positive bias (mu_left > mu_right) current flows forward.
        assert!(res.observables.current >= -1e-9);
        assert!(res.flops.total() > 0);
    }

    #[test]
    fn scba_iterations_converge_for_weak_interaction() {
        let run = |use_memoizer: bool| {
            let config = ScbaConfig {
                use_memoizer,
                ..fast_config(16, 8)
            };
            ScbaSolver::new(small_device(), config).run()
        };
        let (res, direct) = (run(true), run(false));
        assert!(res.iterations >= 6 && direct.iterations >= 6);
        // The toy device's SCBA map is not contractive at this interaction
        // (the residual grows with direct OBC solves too), so the test holds
        // the memoized boundary solves to the direct ones' trajectory.
        let pairs = res.residual_history.iter().zip(&direct.residual_history);
        for (k, (with, without)) in pairs.take(6).enumerate() {
            assert!(
                (with - without).abs() <= 1e-3 * without.abs(),
                "iteration {k}: residual {with} with the memoizer, {without} without"
            );
        }
        assert!(res.max_truncation_error < 0.5);
    }

    #[test]
    fn memoizer_reports_hits_after_the_first_iteration() {
        let mut cfg = fast_config(8, 3);
        cfg.use_memoizer = true;
        let solver = ScbaSolver::new(small_device(), cfg);
        let res = solver.run();
        assert!(res.iterations >= 2);
        assert!(
            res.memoizer_hit_rate > 0.2,
            "hit rate {}",
            res.memoizer_hit_rate
        );
    }

    #[test]
    fn gw_interaction_changes_the_spectrum() {
        // The GW self-energy must actually do something: the converged current
        // differs from the ballistic one.
        let ballistic = ScbaSolver::new(small_device(), fast_config(16, 1)).run();
        let mut cfg = fast_config(16, 5);
        cfg.interaction_scale = 0.5;
        let gw = ScbaSolver::new(small_device(), cfg).run();
        let rel_diff = (gw.observables.current - ballistic.observables.current).abs()
            / ballistic.observables.current.abs().max(1e-12);
        assert!(
            rel_diff > 1e-6,
            "GW correction had no effect (diff {rel_diff})"
        );
    }

    #[test]
    fn results_are_bitwise_independent_of_kernel_batch() {
        // kernel_batch is a chunk length, not a path: a batch of one, a
        // ragged batching (16 energies in chunks of 5) and the default 8 must
        // agree exactly — every gemm_batch plane runs the same
        // packing/micro-kernel code whatever the batch length. 0 is clamped
        // to 1.
        let run = |kernel_batch: usize| {
            let mut cfg = fast_config(16, 4);
            cfg.kernel_batch = kernel_batch;
            ScbaSolver::new(small_device(), cfg).run()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let reference = run(1);
        assert!(reference.iterations >= 2);
        for kernel_batch in [0usize, 5, 8] {
            let got = run(kernel_batch);
            assert_eq!(got.iterations, reference.iterations);
            assert_eq!(
                bits(&got.residual_history),
                bits(&reference.residual_history),
                "kernel_batch={kernel_batch}: residual history diverged"
            );
            assert_eq!(
                bits(&got.current_history),
                bits(&reference.current_history),
                "kernel_batch={kernel_batch}: current history diverged"
            );
            assert_eq!(
                bits(&got.observables.electron_density),
                bits(&reference.observables.electron_density),
                "kernel_batch={kernel_batch}: density diverged"
            );
            // FLOP totals are structural and identical.
            assert_eq!(got.flops.total(), reference.flops.total());
        }
    }

    #[test]
    fn kernel_chunks_cover_the_range_and_clamp_zero() {
        let cut = |r: Range<usize>, kb| kernel_chunks(r, kb).collect::<Vec<_>>();
        assert_eq!(cut(3..10, 3), vec![3..6, 6..9, 9..10]);
        assert_eq!(cut(0..2, 8), vec![0..2]);
        assert_eq!(cut(4..6, 0), vec![4..5, 5..6]);
        assert!(cut(5..5, 4).is_empty());
    }

    #[test]
    fn flop_categories_cover_all_stages_of_a_full_iteration() {
        let solver = ScbaSolver::new(small_device(), fast_config(8, 2));
        let res = solver.run();
        assert!(res.flops.get(FlopKind::GObc) > 0);
        assert!(res.flops.get(FlopKind::GRgf) > 0);
        assert!(res.flops.get(FlopKind::WRgf) > 0);
        assert!(res.flops.get(FlopKind::Convolution) > 0);
    }
}
