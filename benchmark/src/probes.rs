//! Machine peaks and single-thread kernel probes of the traced pass: one
//! probe per crate on the solve path, at the workload's block size, on
//! operands the harness generates, each cross-checked against a reference.

use std::hint::black_box;
use std::time::Instant;

use quatrex_core::assembly::{assemble_g, bare_system, ObcMethod};
use quatrex_device::{thermal_energy_ev, Device};
use quatrex_linalg::ops::reference::matmul_ref;
use quatrex_linalg::ops::{gemm_flops, Op};
use quatrex_linalg::{
    c64, gemm, gemm_batch, gemm_batch_flops, BatchOp, CMatrix, FlopCounter, LuScratch, MatrixBatch,
    OpKind, ONE, ZERO,
};
use quatrex_obc::{
    beyn, sancho_rubio, sancho_rubio_batch, surface_residual, BeynConfig, Contact, ObcBatchScratch,
    ObcKey, ObcMemoizer, ObcMode, Subsystem,
};
use quatrex_rgf::{
    nested_dissection_solve, rgf_solve, rgf_solve_batch_into, rgf_solve_scratch, NestedConfig,
    RgfBatchScratch, RgfScratch, SelectedSolution,
};
use quatrex_runtime::{CommPhase, ThreadComm};
use quatrex_sparse::{BlockBanded, BlockTridiagonal};

use crate::calibrate::fma_round;
use crate::report::{Metric, Outcome};
use crate::trace::{median, Recorder};
use crate::workloads::{SplitMix64, EQUIVALENCE_TOL, N_RANKS};

/// Energies per kernel batch in the batched probes (`kernel_batch` default).
const BATCH: usize = 8;

/// Median seconds per call of `f`, measured for about `budget_s`. Calls too
/// short for the clock are timed in groups, so the result is never a
/// multiple of the clock's step; at least five samples after one warm-up.
pub fn time_calls(budget_s: f64, mut f: impl FnMut()) -> f64 {
    const MIN_SAMPLE_S: f64 = 50e-6;
    let t = Instant::now();
    f();
    let first_s = t.elapsed().as_secs_f64().max(1e-9);
    let group = ((MIN_SAMPLE_S / first_s).ceil() as usize).clamp(1, 100_000);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed().as_secs_f64() < budget_s && samples.len() < 100_000)
    {
        let t = Instant::now();
        for _ in 0..group {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / group as f64);
    }
    median(&samples)
}

fn random_matrix(n: usize, rng: &mut SplitMix64) -> CMatrix {
    // Unit-modulus entries with seeded phases, scaled so products stay O(1).
    let scale = 1.0 / (n as f64).sqrt();
    CMatrix::from_fn(n, n, |_, _| {
        let phase = std::f64::consts::PI * rng.next_signed_unit();
        c64::new(scale * phase.cos(), scale * phase.sin())
    })
}

fn max_rel_block_err(a: &BlockTridiagonal, b: &BlockTridiagonal) -> f64 {
    let nb = a.n_blocks();
    let mut err = 0.0f64;
    for i in 0..nb {
        err = err.max(a.diag(i).distance(b.diag(i)) / b.diag(i).norm_fro().max(1e-300));
        if i + 1 < nb {
            err = err.max(a.upper(i).distance(b.upper(i)) / b.upper(i).norm_fro().max(1e-300));
            err = err.max(a.lower(i).distance(b.lower(i)) / b.lower(i).norm_fro().max(1e-300));
        }
    }
    err
}

fn solution_err(a: &SelectedSolution, b: &SelectedSolution) -> f64 {
    let mut err = max_rel_block_err(&a.retarded, &b.retarded);
    for (x, y) in a.lesser.iter().zip(&b.lesser) {
        err = err.max(max_rel_block_err(x, y));
    }
    err
}

/// `machine.*`: the denominators, measured in the same run as the kernels.
pub fn machine(rec: &mut Recorder, out: &mut Outcome, budget_s: f64) -> f64 {
    let (peak, _) = rec.span("machine.peak_gflops", |_| peak_gflops(budget_s));
    out.push(Metric::exact("machine.peak_gflops", peak, "GFLOP/s"));
    let (stream, _) = rec.span("machine.stream_gbs", |_| stream_gbs());
    out.push(Metric::exact("machine.stream_gbs", stream, "GB/s"));
    peak
}

/// Single-thread FP64 peak: the register-blocked multiply-add loop of the
/// calibration, best round of the budget. It is the peak of this build's
/// vector width, the one the kernels are compiled for.
fn peak_gflops(budget_s: f64) -> f64 {
    let mut best = 0.0f64;
    let start = Instant::now();
    while best == 0.0 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let flops = fma_round();
        best = best.max(flops as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

fn sysfs_kib(path: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    text.trim().trim_end_matches('K').parse().ok()
}

/// Sustainable copy bandwidth over arrays of at least four times the
/// last-level cache (capped by a quarter of the available memory); prints
/// both sizes.
fn stream_gbs() -> f64 {
    let llc_bytes = (0..8)
        .filter_map(|i| sysfs_kib(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .max()
        .map_or(32 << 20, |kib| kib * 1024);
    let available = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(usize::MAX, |kib| kib.saturating_mul(1024));
    let array_bytes = (4 * llc_bytes).min(available / 8);
    println!(
        "machine.stream: last-level cache {} MiB, each of 2 arrays {} MiB",
        llc_bytes >> 20,
        array_bytes >> 20
    );
    let n = array_bytes / 8;
    let src = vec![1.5f64; n];
    let mut dst = vec![0.0f64; n];
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        samples.push(2.0 * array_bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&samples)
}

/// Everything the kernel probes need to know about the workload.
pub struct ProbeInput<'a> {
    pub device: &'a Device,
    pub scba: &'a quatrex_core::ScbaConfig,
    pub seed: u64,
    pub budget_s: f64,
    pub peak_gflops: f64,
}

/// `linalg.*`, `sparse.*`, `fft.*`, `rgf.*`, `obc.*` (except the hit rate,
/// which comes from a solver result).
pub fn kernels(rec: &mut Recorder, out: &mut Outcome, input: &ProbeInput<'_>) {
    let mut rng = SplitMix64::new(input.seed ^ 0x6B65_726E);
    let h = input.device.hamiltonian_bt();
    let (n, nb) = (h.block_size(), h.n_blocks());
    let budget = input.budget_s;

    // ---------------------------------------------------------------- linalg
    let (a_lo, a_up, g, b) = (
        random_matrix(n, &mut rng),
        random_matrix(n, &mut rng),
        random_matrix(n, &mut rng),
        random_matrix(n, &mut rng),
    );
    let mut t = CMatrix::zeros(n, n);
    let mut schur = CMatrix::zeros(n, n);
    let mut inner = CMatrix::zeros(n, n);
    // The RGF forward-step chain: Schur update (A_lo·g)·A_up and the
    // congruence (g·B)·g†.
    let (chain_s, _) = rec.span("linalg.gemm", |_| {
        time_calls(budget, || {
            gemm(&mut t, ONE, Op::None(&a_lo), Op::None(&g), ZERO);
            gemm(&mut schur, ONE, Op::None(&t), Op::None(&a_up), ZERO);
            gemm(&mut t, ONE, Op::None(&g), Op::None(&b), ZERO);
            gemm(&mut inner, ONE, Op::None(&t), Op::Dagger(&g), ZERO);
            black_box((&schur, &inner));
        })
    });
    let want = matmul_ref(&matmul_ref(&a_lo, &g), &a_up);
    out.gate(schur.approx_eq(&want, EQUIVALENCE_TOL), || {
        "linalg: gemm chain differs from ops::reference::matmul_ref".into()
    });
    let gemm_gflops = 4.0 * gemm_flops(n, n, n) as f64 / chain_s / 1e9;
    out.push(Metric::exact("linalg.gemm_gflops", gemm_gflops, "GFLOP/s"));

    let mut each = MatrixBatch::zeros(BATCH, n, n);
    for e in 0..BATCH {
        each.copy_plane_from(e, &random_matrix(n, &mut rng));
    }
    let mut c = MatrixBatch::zeros(BATCH, n, n);
    let (batch_s, _) = rec.span("linalg.gemm_batch", |_| {
        time_calls(budget, || {
            gemm_batch(
                &mut c,
                ONE,
                BatchOp::Shared(Op::None(&a_lo)),
                BatchOp::Each(OpKind::None, &each),
                ZERO,
            );
            black_box(&c);
        })
    });
    let plane_ok = (0..BATCH).all(|e| {
        c.plane_matrix(e)
            .approx_eq(&matmul_ref(&a_lo, &each.plane_matrix(e)), EQUIVALENCE_TOL)
    });
    out.gate(plane_ok, || {
        "linalg: gemm_batch plane differs from matmul_ref".into()
    });
    out.push(Metric::exact(
        "linalg.gemm_batch_gflops",
        gemm_batch_flops(BATCH, n, n, n) as f64 / batch_s / 1e9,
        "GFLOP/s",
    ));

    let mut well = random_matrix(n, &mut rng);
    for k in 0..n {
        well[(k, k)] += c64::new(2.0, 0.5);
    }
    let mut lu = LuScratch::new();
    let mut inv = CMatrix::zeros(n, n);
    let (inv_s, _) = rec.span("linalg.invert", |_| {
        time_calls(budget, || {
            lu.invert_into(&well, &mut inv)
                .expect("diagonally shifted block is regular");
            black_box(&inv);
        })
    });
    out.gate(
        matmul_ref(&well, &inv).approx_eq(&CMatrix::identity(n), EQUIVALENCE_TOL),
        || "linalg: A·invert_into(A) is not the identity".into(),
    );
    out.push(Metric::exact(
        "linalg.invert_gflops",
        quatrex_linalg::lu::inverse_flops(n) as f64 / inv_s / 1e9,
        "GFLOP/s",
    ));
    out.push(Metric::exact(
        "linalg.gemm_peak_frac",
        gemm_gflops / input.peak_gflops,
        "ratio",
    ));
    // Complex N×N GEMM: 8N³ real FLOPs over 3·16N² bytes, computed not measured.
    out.push(Metric::exact(
        "linalg.gemm_ops_per_byte",
        n as f64 / 6.0,
        "flop/byte",
    ));

    // ---------------------------------------------------------------- sparse
    let banded = |bt: &BlockTridiagonal| {
        let mut m = BlockBanded::zeros(nb, n, 1);
        for i in 0..nb {
            m.set_block(i, i, bt.diag(i).clone());
            if i + 1 < nb {
                m.set_block(i, i + 1, bt.upper(i).clone());
                m.set_block(i + 1, i, bt.lower(i).clone());
            }
        }
        m
    };
    let v = banded(&input.device.coulomb_bt());
    let mut p = BlockTridiagonal::zeros(nb, n);
    for i in 0..nb {
        p.set_block(i, i, random_matrix(n, &mut rng));
        if i + 1 < nb {
            p.set_block(i, i + 1, random_matrix(n, &mut rng));
            p.set_block(i + 1, i, random_matrix(n, &mut rng));
        }
    }
    let (vp, _) = v.multiply(&banded(&p));
    let mut vpv = None;
    // The V·P·V† of the W assembly.
    let (dagger_s, _) = rec.span("sparse.multiply_dagger", |_| {
        time_calls(budget, || vpv = Some(black_box(vp.multiply_dagger(&v))))
    });
    let (got, _) = vpv.expect("probe ran");
    let (want, _) = vp.multiply(&v.dagger());
    out.gate(
        got.to_dense().approx_eq(&want.to_dense(), EQUIVALENCE_TOL),
        || "sparse: multiply_dagger differs from multiply(dagger())".into(),
    );
    out.push(Metric::exact("sparse.multiply_dagger_s", dagger_s, "s"));

    // ------------------------------------------------------------------- fft
    let ne = input.scba.n_energies;
    let series = |rng: &mut SplitMix64| -> Vec<c64> {
        (0..ne)
            .map(|_| c64::new(rng.next_signed_unit(), rng.next_signed_unit()))
            .collect()
    };
    let (x, y) = (series(&mut rng), series(&mut rng));
    let mut conv = Vec::new();
    let (conv_s, _) = rec.span("fft.convolve", |_| {
        time_calls(budget, || conv = black_box(quatrex_fft::convolve(&x, &y)))
    });
    let direct_ok = (0..2 * ne - 1).all(|k| {
        let want: c64 = (0..ne)
            .filter(|&m| k >= m && k - m < ne)
            .map(|m| x[m] * y[k - m])
            .sum();
        (conv[k] - want).norm() <= EQUIVALENCE_TOL * (1.0 + want.norm())
    });
    out.gate(direct_ok, || {
        "fft: convolve differs from the direct sum".into()
    });
    out.push(Metric::exact("fft.convolve_ns", conv_s * 1e9, "ns"));

    // ------------------------------------------------------------------- rgf
    let grid = input.device.default_energy_grid(ne);
    let kt = thermal_energy_ev(input.scba.temperature_k);
    let flops = FlopCounter::new();
    let asms: Vec<_> = (0..BATCH.min(ne))
        .map(|k| {
            assemble_g(
                &h,
                grid.point(k),
                input.scba.eta,
                k,
                None,
                None,
                None,
                input.scba.mu_left,
                input.scba.mu_right,
                kt,
                ObcMethod::SanchoRubio,
                None,
                &flops,
            )
        })
        .collect();
    let systems: Vec<&BlockTridiagonal> = asms.iter().map(|a| &a.system).collect();
    let rhs: Vec<[&BlockTridiagonal; 2]> = asms
        .iter()
        .map(|a| [&a.rhs_lesser, &a.rhs_greater])
        .collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs.iter().map(|r| r.as_slice()).collect();
    let mut sols = vec![SelectedSolution::zeros(nb, n, 2); systems.len()];
    let mut batch_scratch = RgfBatchScratch::new();
    let (rgf_batch_s, _) = rec.span("rgf.solve_batch", |_| {
        time_calls(budget, || {
            rgf_solve_batch_into(&systems, &rhs_slices, &mut sols, &mut batch_scratch)
                .expect("assembled electron system is regular");
            black_box(&sols);
        })
    });
    let reference = rgf_solve(systems[0], rhs_slices[0]).expect("regular system");
    let err = solution_err(&sols[0], &reference);
    out.gate(
        err <= EQUIVALENCE_TOL && sols[0].flops == reference.flops,
        || format!("rgf: batched solve differs from rgf_solve by {err:.2e}"),
    );
    let batch_flops: u64 = sols.iter().map(|s| s.flops).sum();
    out.push(Metric::exact("rgf.solve_batch_s", rgf_batch_s, "s"));
    out.push(Metric::exact(
        "rgf.solve_batch_gflops",
        batch_flops as f64 / rgf_batch_s / 1e9,
        "GFLOP/s",
    ));
    let mut scratch = RgfScratch::new();
    let (rgf_energy_s, _) = rec.span("rgf.solve_energy", |_| {
        time_calls(budget, || {
            black_box(
                rgf_solve_scratch(systems[0], rhs_slices[0], &mut scratch).expect("regular system"),
            );
        })
    });
    out.push(Metric::exact("rgf.solve_energy_s", rgf_energy_s, "s"));
    let nested_config = NestedConfig::new(2);
    let mut nested = None;
    let (nested_s, _) = rec.span("rgf.nested_p2", |_| {
        time_calls(budget, || {
            nested = Some(black_box(
                nested_dissection_solve(systems[0], rhs_slices[0], &nested_config)
                    .expect("regular system"),
            ))
        })
    });
    let (nested_sol, nested_report) = nested.expect("probe ran");
    let err = solution_err(&nested_sol, &reference);
    out.gate(err <= EQUIVALENCE_TOL, || {
        format!("rgf: nested dissection (P_S=2) differs from rgf_solve by {err:.2e}")
    });
    out.push(Metric::exact("rgf.nested_p2_s", nested_s, "s"));
    out.push(Metric::exact(
        "rgf.nested_flop_overhead",
        nested_report.total_flops() as f64 / reference.flops as f64,
        "ratio",
    ));

    // ------------------------------------------------------------------- obc
    let bare: Vec<BlockTridiagonal> = (0..BATCH.min(ne))
        .map(|k| bare_system(&h, grid.point(k), input.scba.eta))
        .collect();
    let ms: Vec<&CMatrix> = bare.iter().map(|s| s.diag(0)).collect();
    let ns: Vec<&CMatrix> = bare.iter().map(|s| s.lower(0)).collect();
    let nps: Vec<&CMatrix> = bare.iter().map(|s| s.upper(0)).collect();
    let mut obc_scratch = ObcBatchScratch::new();
    let mut surfaces = Vec::new();
    let (sr_s, _) = rec.span("obc.sancho_rubio_batch", |_| {
        time_calls(budget, || {
            surfaces = black_box(sancho_rubio_batch(
                &ms,
                &ns,
                &nps,
                1e-9,
                400,
                &mut obc_scratch,
            ))
        })
    });
    let sr_ok = surfaces.iter().enumerate().all(|(e, s)| match s {
        Ok(s) => surface_residual(&s.x, ms[e], ns[e], nps[e]) < 1e-6,
        Err(_) => false,
    });
    out.gate(sr_ok, || {
        "obc: a batched Sancho-Rubio surface function misses its fixed point".into()
    });
    out.push(Metric::exact("obc.sancho_rubio_batch_s", sr_s, "s"));
    // Beyn's unit-circle contour separates decaying from growing lead modes
    // only where they are well apart: probe it at a gap energy below the band
    // (the solver uses it for the strongly evanescent W leads).
    let gap = bare_system(&h, grid.e_min() - 10.0, input.scba.eta);
    let (gm, gn, gnp) = (gap.diag(0), gap.lower(0), gap.upper(0));
    let mut beyn_solution = None;
    let (beyn_s, _) = rec.span("obc.beyn", |_| {
        time_calls(budget, || {
            beyn_solution = Some(black_box(beyn(gm, gn, gnp, &BeynConfig::default())))
        })
    });
    let beyn_ok = beyn_solution
        .expect("probe ran")
        .is_ok_and(|s| surface_residual(&s.x, gm, gn, gnp) < 1e-6);
    out.gate(beyn_ok, || {
        "obc: Beyn surface function misses its fixed point".into()
    });
    out.push(Metric::exact("obc.beyn_s", beyn_s, "s"));

    let key = ObcKey {
        contact: Contact::Left,
        subsystem: Subsystem::Electron,
        component: 0,
        energy_index: 0,
    };
    let (m, nn, np) = (ms[0], ns[0], nps[0]);
    let mut memo = ObcMemoizer::new(input.scba.n_fpi, 1e-7);
    let mut step_lu = LuScratch::new();
    let mut nx = CMatrix::zeros(n, n);
    let mut step_rhs = CMatrix::zeros(n, n);
    // One fixed-point step x ↦ (m − n·x·n')⁻¹, as the assembly hands it to
    // the memoizer.
    let mut iterate = |x: &CMatrix, next: &mut CMatrix| {
        gemm(&mut nx, ONE, Op::None(nn), Op::None(x), ZERO);
        step_rhs.copy_from(m);
        gemm(&mut step_rhs, -ONE, Op::None(&nx), Op::None(np), ONE);
        step_lu
            .invert_into(&step_rhs, next)
            .expect("surface step is regular");
    };
    let direct = || {
        sancho_rubio(m, nn, np, 1e-9, 400)
            .expect("lead problem converges")
            .x
    };
    let mut last_mode = memo.solve(key, &mut iterate, direct).1;
    let (hit_s, _) = rec.span("obc.memo_hit", |_| {
        time_calls(budget, || {
            last_mode = black_box(memo.solve(key, &mut iterate, direct)).1
        })
    });
    out.gate(matches!(last_mode, ObcMode::Memoized { .. }), || {
        "obc: a warm memoizer fell through to the direct solver".into()
    });
    out.push(Metric::exact("obc.memo_hit_s", hit_s, "s"));
}

/// `runtime.*` latency/bandwidth probes on a 2-rank `ThreadComm`, with the
/// workload's per-rank forward-G payload.
pub fn runtime(rec: &mut Recorder, out: &mut Outcome, payload_bytes: u64, budget_s: f64) {
    const LATENCY_CALLS: usize = 1000;
    let values = (payload_bytes as usize / 16).max(1);
    let exchanges = ((budget_s * 2e3) as usize).clamp(5, 50);
    let ((results, _stats), _) = rec.span("runtime.thread_comm", |_| {
        ThreadComm::run::<Vec<c64>, _, _>(N_RANKS, move |ctx| {
            let mut alltoallv = Vec::with_capacity(exchanges);
            for _ in 0..exchanges {
                let send: Vec<Vec<c64>> = (0..N_RANKS).map(|_| vec![ONE; values]).collect();
                ctx.barrier();
                let t = Instant::now();
                let received = ctx.alltoallv_tagged(send, |m| m.len() * 16, CommPhase::FwdG);
                alltoallv.push(t.elapsed().as_secs_f64());
                black_box(received);
            }
            let mut allreduce = Vec::with_capacity(LATENCY_CALLS);
            let mut sum = 0.0;
            for i in 0..LATENCY_CALLS {
                let t = Instant::now();
                sum += ctx.allreduce_sum(i as f64);
                allreduce.push(t.elapsed().as_secs_f64());
            }
            let mut barrier = Vec::with_capacity(LATENCY_CALLS);
            for _ in 0..LATENCY_CALLS {
                let t = Instant::now();
                ctx.barrier();
                barrier.push(t.elapsed().as_secs_f64());
            }
            (
                median(&alltoallv),
                median(&allreduce),
                median(&barrier),
                sum,
            )
        })
    });
    let (alltoallv_s, allreduce_s, barrier_s, sum) = results[0];
    let want: f64 = (0..LATENCY_CALLS).map(|i| (N_RANKS * i) as f64).sum();
    out.gate(sum == want, || {
        format!("runtime: allreduce_sum returned {sum}, expected {want}")
    });
    // Off-rank bytes of one exchange, all ranks, over rank 0's wall time.
    let moved = (N_RANKS * (N_RANKS - 1)) as f64 * (values * 16) as f64;
    out.push(Metric::exact(
        "runtime.alltoallv_gbs",
        moved / alltoallv_s / 1e9,
        "GB/s",
    ));
    out.push(Metric::exact(
        "runtime.allreduce_us",
        allreduce_s * 1e6,
        "us",
    ));
    out.push(Metric::exact("runtime.barrier_us", barrier_s * 1e6, "us"));
}

/// `probe.*`: cost of one `quatrex_probe::span` with and without a recorder.
pub fn probe_spans(rec: &mut Recorder, out: &mut Outcome) {
    const CALLS: usize = 1_000_000;
    let time_spans = || {
        let t = Instant::now();
        for i in 0..CALLS {
            black_box(quatrex_probe::span("bench.span", "bench", || black_box(i)));
        }
        t.elapsed().as_secs_f64() / CALLS as f64 * 1e9
    };
    let (off_ns, _) = rec.span("probe.span_off", |_| time_spans());
    let (on_ns, _) = rec.span("probe.span_on", |_| {
        quatrex_probe::install(0, Instant::now());
        let ns = time_spans();
        let trace = quatrex_probe::finish();
        out.gate(trace.is_some_and(|t| t.spans.len() == CALLS), || {
            "probe: an installed recorder did not keep every span".into()
        });
        ns
    });
    out.push(Metric::exact("probe.span_on_ns", on_ns, "ns"));
    out.push(Metric::exact("probe.span_off_ns", off_ns, "ns"));
}
