//! The Σ update rule end to end: against the plain damped rule (a loop over
//! the public step functions and `mix_sigma_energy`, as the benchmark's
//! replay drives them) the accelerated rule must reach the same fixed point
//! in a fraction of the iterations where the SCBA map is contractive, be the
//! damped rule bit for bit in a two-iteration run, degrade to it where the
//! map is not contractive — and allocate nothing once its history is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use quatrex_core::mixing::{SigmaMixer, ROW_LEN};
use quatrex_core::observables::{electron_density, integrate_current};
use quatrex_core::{
    g_step_batch, mix_sigma_energy, polarization_from_g, retarded_from_lesser_greater,
    self_energy_from_gw, symmetrize_all, w_step_batch, EnergyResolved, KernelTimings, ScbaConfig,
    ScbaSolver,
};
use quatrex_device::{thermal_energy_ev, Device, DeviceBuilder, DeviceCatalog};
use quatrex_linalg::{c64, FlopCounter};
use quatrex_obc::ObcMemoizer;
use quatrex_rgf::RgfBatchScratch;
use quatrex_sparse::BlockTridiagonal;

/// Global allocator wrapper that counts allocations while the *current
/// thread* is armed (tests run on parallel threads; a global flag would count
/// the sibling tests' allocations too).
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn armed() -> bool {
    ARMED.try_with(|f| f.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::SeqCst) - before
}

/// What a run of the plain damped rule leaves behind.
struct DampedRun {
    iterations: usize,
    residual_history: Vec<f64>,
    current: f64,
    density: Vec<f64>,
    flops: u64,
}

fn some(x: &[BlockTridiagonal]) -> Vec<Option<&BlockTridiagonal>> {
    x.iter().map(Some).collect()
}

fn refs(x: &[BlockTridiagonal]) -> Vec<&BlockTridiagonal> {
    x.iter().collect()
}

/// `ScbaSolver::run` with the update rule replaced by a loop over
/// `mix_sigma_energy`: the solver's steps in its order, over the whole grid
/// on one thread — one memoizer per energy, one kernel batch after the
/// other, whole-grid convolutions. An independent loop: it shares only the
/// public step functions with the rank loop `ScbaSolver::run` drives.
fn damped_run(device: &Device, config: &ScbaConfig) -> DampedRun {
    let h = device.hamiltonian_bt();
    let mut v = device.coulomb_bt();
    v.scale_mut(c64::new(config.interaction_scale, 0.0));
    let (nb, bs) = (h.n_blocks(), h.block_size());
    let grid = device.default_energy_grid(config.n_energies);
    let (ne, de) = (grid.len(), grid.spacing());
    let kt = thermal_energy_ev(config.temperature_k);
    let energies = grid.points();
    let (flops, timings) = (FlopCounter::new(), KernelTimings::default());

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
    let mut out = DampedRun {
        iterations: 0,
        residual_history: Vec::new(),
        current: 0.0,
        density: Vec::new(),
        flops: 0,
    };

    for _ in 0..config.max_iterations {
        out.iterations += 1;
        let (mut g_lesser, mut g_greater) = (zeros(), zeros());
        let mut current_spectrum = Vec::with_capacity(ne);
        for (ci, &(s, t)) in chunks.iter().enumerate() {
            let mut memo_refs: Vec<Option<&mut ObcMemoizer>> = memoizers[s..t]
                .iter_mut()
                .map(|m| config.use_memoizer.then_some(m))
                .collect();
            let idxs: Vec<usize> = (s..t).collect();
            let outs = g_step_batch(
                &h,
                &energies[s..t],
                &idxs,
                config,
                kt,
                &some(&sigma_r[s..t]),
                &some(&sigma_l[s..t]),
                &some(&sigma_g[s..t]),
                &mut memo_refs,
                &mut scratches[ci],
                &flops,
                &timings,
            )
            .expect("electron RGF solve");
            for (k, o) in (s..t).zip(outs) {
                (g_lesser[k], g_greater[k]) = (o.lesser, o.greater);
                current_spectrum.push(o.current_spectrum);
            }
        }
        out.current = integrate_current(&current_spectrum, de);
        out.density = electron_density(&g_lesser, de);

        let (mut p_lesser, mut p_greater) = polarization_from_g(&g_lesser, &g_greater, de, &flops);
        symmetrize_all(&mut p_lesser);
        symmetrize_all(&mut p_greater);
        let p_retarded = retarded_from_lesser_greater(&p_lesser, &p_greater, &flops);

        let (mut w_lesser, mut w_greater) = (zeros(), zeros());
        for (ci, &(s, t)) in chunks.iter().enumerate() {
            let mut memo_refs: Vec<Option<&mut ObcMemoizer>> = memoizers[s..t]
                .iter_mut()
                .map(|m| config.use_memoizer.then_some(m))
                .collect();
            let idxs: Vec<usize> = (s..t).collect();
            let outs = w_step_batch(
                &v,
                &refs(&p_retarded[s..t]),
                &refs(&p_lesser[s..t]),
                &refs(&p_greater[s..t]),
                &idxs,
                config,
                &mut memo_refs,
                &mut scratches[ci],
                &flops,
                &timings,
            )
            .expect("screened-interaction RGF solve");
            for (k, o) in (s..t).zip(outs) {
                (w_lesser[k], w_greater[k]) = (o.lesser, o.greater);
            }
        }

        let (mut s_lesser, mut s_greater) =
            self_energy_from_gw(&g_lesser, &g_greater, &w_lesser, &w_greater, de, &flops);
        symmetrize_all(&mut s_lesser);
        symmetrize_all(&mut s_greater);
        let s_retarded = retarded_from_lesser_greater(&s_lesser, &s_greater, &flops);

        let (mut update, mut reference) = (0.0, 0.0);
        for k in 0..ne {
            let (u, r) = mix_sigma_energy(
                &mut sigma_l[k],
                &mut sigma_g[k],
                &mut sigma_r[k],
                &s_lesser[k],
                &s_greater[k],
                &s_retarded[k],
                config.mixing,
            );
            update += u;
            reference += r;
        }
        let residual = (update / reference).sqrt();
        out.residual_history.push(residual);
        if residual < config.tolerance {
            break;
        }
    }
    out.flops = flops.total();
    out
}

/// The benchmark's `sweep_iv` problem: NR-16 reduced to `N_BS = 8`, 12
/// energies, the common physics of the workloads, memoizer off (its 1e-7
/// refinement tolerance is a noise floor no rule converges below).
fn sweep_problem(max_iterations: usize, tolerance: f64) -> (Device, ScbaConfig) {
    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), 426).build();
    let config = ScbaConfig {
        n_energies: 12,
        max_iterations,
        tolerance,
        mixing: 0.4,
        interaction_scale: 0.2,
        use_memoizer: false,
        ..ScbaConfig::default()
    };
    (device, config)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_cold_sweep_point_converges_within_the_iteration_budget_to_the_damped_fixed_point() {
    let (device, config) = sweep_problem(80, 1e-9);
    let accelerated = ScbaSolver::new(device.clone(), config.clone()).run();
    assert!(accelerated.converged);
    assert!(
        accelerated.iterations <= 12,
        "the cold point took {} iterations: {:?}",
        accelerated.iterations,
        accelerated.residual_history
    );
    assert_eq!(accelerated.mixing_restarts, 0, "a contractive map");

    // The plain rule, driven far past the tolerance: it contracts by
    // 1 − mixing per iteration on this map, so it passes 1e-9 much later…
    let (_, to_the_floor) = sweep_problem(200, 1e-13);
    let reference = damped_run(&device, &to_the_floor);
    assert!(reference
        .residual_history
        .last()
        .is_some_and(|r| *r < 1e-13));
    let plain_iterations = 1 + reference
        .residual_history
        .iter()
        .position(|r| *r < config.tolerance)
        .expect("the plain rule passes 1e-9 on its way to 1e-13");
    assert!(
        plain_iterations >= 3 * accelerated.iterations,
        "plain damping took {plain_iterations} iterations"
    );

    // …and ends at the same fixed point.
    let charge: f64 = accelerated.observables.electron_density.iter().sum();
    let want: f64 = reference.density.iter().sum();
    assert!(
        ((charge - want) / want).abs() <= 1e-12,
        "charge {charge} vs {want}"
    );
    let current = accelerated.observables.current;
    assert!(
        ((current - reference.current) / reference.current).abs() <= 1e-6,
        "current {current:e} vs {:e}",
        reference.current
    );
}

#[test]
fn a_two_iteration_run_is_the_damped_rule_bit_for_bit() {
    // Memoizer off and on, and chunk lengths that give `ScbaSolver::run`
    // one rank per chunk up to the machine's cores: 12 energies in chunks
    // of 5 or 8 are 3 or 2 chunks.
    for (use_memoizer, kernel_batch) in [(false, 8), (true, 5), (true, 8)] {
        let (device, mut config) = sweep_problem(2, 0.0);
        config.use_memoizer = use_memoizer;
        config.kernel_batch = kernel_batch;
        let case = format!("memoizer {use_memoizer}, kernel_batch {kernel_batch}");
        let solver = ScbaSolver::new(device.clone(), config.clone()).run();
        let plain = damped_run(&device, &config);
        assert_eq!(solver.iterations, 2, "{case}");
        assert_eq!(
            bits(&solver.residual_history),
            bits(&plain.residual_history),
            "{case}"
        );
        assert_eq!(
            solver.observables.current.to_bits(),
            plain.current.to_bits(),
            "{case}"
        );
        assert_eq!(
            bits(&solver.observables.electron_density),
            bits(&plain.density),
            "{case}"
        );
        assert_eq!(solver.flops.total(), plain.flops, "{case}");
        if use_memoizer {
            assert!(solver.memoizer_hit_rate > 0.0, "{case}");
        }
    }
    // …and it held no history to do so.
    let (device, _) = sweep_problem(2, 0.0);
    let shape = device.hamiltonian_bt();
    let mixer = SigmaMixer::new(0.4, 2, 12, shape.n_blocks(), shape.block_size());
    assert_eq!(mixer.ring_len(), 0);
}

#[test]
fn a_map_that_is_not_contractive_restarts_and_stays_finite() {
    // Residuals of this device hover around one under either rule.
    let device = DeviceBuilder::test_device(3, 2, 4).build();
    let config = ScbaConfig {
        n_energies: 12,
        max_iterations: 12,
        tolerance: 1e-14,
        mixing: 0.4,
        interaction_scale: 0.2,
        ..ScbaConfig::default()
    };
    let result = ScbaSolver::new(device, config).run();
    assert_eq!(result.iterations, 12);
    assert!(result.mixing_restarts > 0);
    assert!(result.residual_history.iter().all(|r| r.is_finite()));
    assert!(result.observables.current.is_finite());
    assert!(result
        .observables
        .electron_density
        .iter()
        .all(|n| n.is_finite()));
}

#[test]
fn a_warm_mix_allocates_nothing() {
    let (nb, bs, ne) = (5, 4, 3);
    let sample = |seed: f64| {
        let mut bt = BlockTridiagonal::zeros(nb, bs);
        for (b, block) in bt.blocks_mut().enumerate() {
            for (e, v) in block.as_mut_slice().iter_mut().enumerate() {
                let t = seed + 0.37 * b as f64 + 0.11 * e as f64;
                *v = c64::new(t.sin(), t.cos());
            }
        }
        bt
    };
    let set = |seed: f64| [sample(seed), sample(seed + 1.0), sample(seed + 2.0)];
    let mut x: Vec<_> = (0..ne).map(|k| set(0.1 * k as f64)).collect();
    // A contraction towards `target`, so the history stays in use.
    let target: Vec<_> = (0..ne).map(|k| set(5.0 + 0.3 * k as f64)).collect();
    let mut g: Vec<_> = (0..ne).map(|k| set(9.0 + k as f64)).collect();
    let mut mixer = SigmaMixer::new(0.4, 80, ne, nb, bs);
    let mut rows = [[0.0; ROW_LEN]; 3];
    let mut mix = |x: &mut Vec<[BlockTridiagonal; 3]>, g: &mut Vec<[BlockTridiagonal; 3]>| {
        for k in 0..ne {
            for c in 0..3 {
                let blocks = g[k][c].blocks_mut().zip(x[k][c].blocks());
                for ((g, x), t) in blocks.zip(target[k][c].blocks()) {
                    let pairs = x.as_slice().iter().zip(t.as_slice());
                    for (g, (x, t)) in g.as_mut_slice().iter_mut().zip(pairs) {
                        *g = *t + (*x - *t) * (0.2 + 0.1 * c as f64);
                    }
                }
            }
        }
        for k in 0..ne {
            let (x, g) = (&x[k], &g[k]);
            rows[k] = mixer.contribute(k, [&x[0], &x[1], &x[2]], [&g[0], &g[1], &g[2]]);
        }
        mixer.coefficients(rows);
        for k in 0..ne {
            let ([xl, xg, xr], g) = (&mut x[k], &g[k]);
            mixer.apply(k, [xl, xg, xr], [&g[0], &g[1], &g[2]]);
        }
    };
    mix(&mut x, &mut g);
    mix(&mut x, &mut g);
    let warm = allocations(|| {
        for _ in 0..4 {
            mix(&mut x, &mut g);
        }
    });
    assert_eq!(warm, 0, "a mix with a warm history allocated");
    assert_eq!(mixer.restarts(), 0, "the history stayed in use");

    // The damped step on its own never allocates.
    let ([l, gr, r], new) = (&mut x[0], &g[0]);
    let cold = allocations(|| {
        mix_sigma_energy(l, gr, r, &new[0], &new[1], &new[2], 0.4);
    });
    assert_eq!(cold, 0, "mix_sigma_energy allocated");
}
