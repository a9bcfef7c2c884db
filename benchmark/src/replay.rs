//! Outside-in replay of `ScbaSolver::run`: the harness drives two SCBA
//! iterations itself from the public step functions, in the solver's order
//! and with the solver's per-energy state (one memoizer per energy, one batch
//! scratch per kernel batch), with its own span around every call.
//!
//! The replay walks the kernel batches one after the other, where the solver
//! hands them to the thread pool; the convolution kernels keep whatever
//! threading they have inside. It must reproduce `ScbaSolver::run` at two
//! iterations to 1e-10 and to the same FLOP total — that is what makes its
//! spans trustworthy. If the public step API changes, this file changes with
//! it, in a benchmark issue of its own.

use quatrex_core::observables::{electron_density, integrate_current};
use quatrex_core::{
    g_step_batch, mix_sigma_energy, polarization_from_g, retarded_from_lesser_greater,
    self_energy_from_gw, symmetrize_all, w_step_batch, EnergyResolved, KernelTimings, Observables,
    ScbaConfig, SpectralData,
};
use quatrex_device::{thermal_energy_ev, Device};
use quatrex_linalg::{c64, FlopCounter};
use quatrex_obc::ObcMemoizer;
use quatrex_rgf::RgfBatchScratch;
use quatrex_sparse::BlockTridiagonal;

use crate::trace::Recorder;
use crate::workloads::Observed;

pub const ITERATIONS: usize = 2;

/// Span names of the replay, one per step of the cycle.
pub const STEPS: [&str; 5] = ["g_step", "conv_p", "w_step", "conv_sigma", "mix"];

/// Replay [`ITERATIONS`] iterations of `config` on `device`; spans land in
/// `rec` under one `replay.iteration` span per iteration.
pub fn run(rec: &mut Recorder, device: &Device, config: &ScbaConfig) -> Observed {
    assert!(
        config.kernel_batch > 1,
        "the replay mirrors the batched kernel path"
    );
    let h = device.hamiltonian_bt();
    let mut v = device.coulomb_bt();
    if config.interaction_scale != 1.0 {
        v.scale_mut(c64::new(config.interaction_scale, 0.0));
    }
    let (nb, bs) = (h.n_blocks(), h.block_size());
    let grid = device.default_energy_grid(config.n_energies);
    let (ne, de) = (grid.len(), grid.spacing());
    let kt = thermal_energy_ev(config.temperature_k);
    let energies = grid.points();
    let flops = FlopCounter::new();
    let timings = KernelTimings::default();

    let zeros = || -> EnergyResolved { vec![BlockTridiagonal::zeros(nb, bs); ne] };
    let (mut sigma_r, mut sigma_l, mut sigma_g) = (zeros(), zeros(), zeros());
    let mut memoizers: Vec<ObcMemoizer> = (0..ne)
        .map(|_| ObcMemoizer::new(config.n_fpi, 1e-7))
        .collect();
    let chunks: Vec<(usize, usize)> = (0..ne)
        .step_by(config.kernel_batch)
        .map(|s| (s, (s + config.kernel_batch).min(ne)))
        .collect();
    let mut scratches: Vec<RgfBatchScratch> =
        chunks.iter().map(|_| RgfBatchScratch::new()).collect();
    let mut final_g_lesser: EnergyResolved = Vec::new();
    let mut spectral = SpectralData::default();
    let mut current = 0.0;

    for _ in 0..ITERATIONS {
        rec.span("replay.iteration", |rec| {
            let (g_out, _) = rec.span(STEPS[0], |_| {
                let mut outs = Vec::with_capacity(ne);
                for (ci, &(s, t)) in chunks.iter().enumerate() {
                    let mut memo_refs: Vec<Option<&mut ObcMemoizer>> = memoizers[s..t]
                        .iter_mut()
                        .map(|m| config.use_memoizer.then_some(m))
                        .collect();
                    let idxs: Vec<usize> = (s..t).collect();
                    let sr: Vec<_> = sigma_r[s..t].iter().map(Some).collect();
                    let sl: Vec<_> = sigma_l[s..t].iter().map(Some).collect();
                    let sg: Vec<_> = sigma_g[s..t].iter().map(Some).collect();
                    outs.extend(
                        g_step_batch(
                            &h,
                            &energies[s..t],
                            &idxs,
                            config,
                            kt,
                            &sr,
                            &sl,
                            &sg,
                            &mut memo_refs,
                            &mut scratches[ci],
                            &flops,
                            &timings,
                        )
                        .expect("electron RGF solve failed"),
                    );
                }
                outs
            });
            let mut g_lesser: EnergyResolved = Vec::with_capacity(ne);
            let mut g_greater: EnergyResolved = Vec::with_capacity(ne);
            let mut current_spectrum = Vec::with_capacity(ne);
            let mut dos_local = Vec::with_capacity(ne);
            for out in g_out {
                g_lesser.push(out.lesser);
                g_greater.push(out.greater);
                current_spectrum.push(out.current_spectrum);
                dos_local.push(out.dos_local);
            }
            current = integrate_current(&current_spectrum, de);
            spectral = SpectralData {
                energies: energies.clone(),
                dos: dos_local.iter().map(|v| v.iter().sum::<f64>()).collect(),
                dos_local,
                current_spectrum,
            };
            final_g_lesser = g_lesser.clone();

            let ((p_lesser, p_greater, p_retarded), _) = rec.span(STEPS[1], |_| {
                let (mut p_lesser, mut p_greater) =
                    polarization_from_g(&g_lesser, &g_greater, de, &flops);
                if config.enforce_symmetry {
                    symmetrize_all(&mut p_lesser);
                    symmetrize_all(&mut p_greater);
                }
                let p_retarded = retarded_from_lesser_greater(&p_lesser, &p_greater, &flops);
                (p_lesser, p_greater, p_retarded)
            });

            let (w_out, _) = rec.span(STEPS[2], |_| {
                let mut outs = Vec::with_capacity(ne);
                for (ci, &(s, t)) in chunks.iter().enumerate() {
                    let mut memo_refs: Vec<Option<&mut ObcMemoizer>> = memoizers[s..t]
                        .iter_mut()
                        .map(|m| config.use_memoizer.then_some(m))
                        .collect();
                    let idxs: Vec<usize> = (s..t).collect();
                    let pr: Vec<_> = p_retarded[s..t].iter().collect();
                    let pl: Vec<_> = p_lesser[s..t].iter().collect();
                    let pg: Vec<_> = p_greater[s..t].iter().collect();
                    outs.extend(
                        w_step_batch(
                            &v,
                            &pr,
                            &pl,
                            &pg,
                            &idxs,
                            config,
                            &mut memo_refs,
                            &mut scratches[ci],
                            &flops,
                            &timings,
                        )
                        .expect("screened-interaction RGF solve failed"),
                    );
                }
                outs
            });
            let (w_lesser, w_greater): (EnergyResolved, EnergyResolved) =
                w_out.into_iter().map(|o| (o.lesser, o.greater)).unzip();

            let ((s_lesser, s_greater, s_retarded), _) = rec.span(STEPS[3], |_| {
                let (mut s_lesser, mut s_greater) =
                    self_energy_from_gw(&g_lesser, &g_greater, &w_lesser, &w_greater, de, &flops);
                if config.enforce_symmetry {
                    symmetrize_all(&mut s_lesser);
                    symmetrize_all(&mut s_greater);
                }
                let s_retarded = retarded_from_lesser_greater(&s_lesser, &s_greater, &flops);
                (s_lesser, s_greater, s_retarded)
            });

            rec.span(STEPS[4], |_| {
                for k in 0..ne {
                    mix_sigma_energy(
                        &mut sigma_l[k],
                        &mut sigma_g[k],
                        &mut sigma_r[k],
                        &s_lesser[k],
                        &s_greater[k],
                        &s_retarded[k],
                        config.mixing,
                    );
                }
            });
        });
    }

    let observables = Observables {
        electron_density: electron_density(&final_g_lesser, de),
        current,
        spectral,
    };
    Observed::new(&observables, flops.total(), ITERATIONS)
}
