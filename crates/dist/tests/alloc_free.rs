//! Counting-allocator proof that a steady-state iteration of the rank loop
//! allocates (nearly) nothing: every per-energy block set, element slab and
//! message buffer is sized once per run and written in place afterwards.
//!
//! The rank threads allocate, so the allocator counts process-wide; this
//! binary therefore holds exactly one `#[test]`, and the four runs inside it
//! are sequential. A run's setup (plan, mixers, the first iteration that
//! sizes every buffer) and its teardown (observables, report) cost the same
//! at any iteration count, so the difference between a 10- and a 6-iteration
//! run over 4 is what one steady-state iteration costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use quatrex_core::ScbaConfig;
use quatrex_device::{DeviceBuilder, DeviceCatalog};
use quatrex_dist::{DistScbaConfig, DistScbaSolver};

/// Global allocator wrapper that counts every allocation (and reallocation)
/// of the process, and the bytes they ask for.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and bytes a steady-state iteration may cost.
const MAX_ALLOCS_PER_ITERATION: u64 = 150;
const MAX_BYTES_PER_ITERATION: u64 = 500_000;

/// `(allocations, bytes)` of one run of `iterations` full iterations.
fn run_counts(config: &DistScbaConfig, iterations: usize) -> (u64, u64) {
    // The `sweep_iv` benchmark problem: NR-16 reduced to N_BS = 8, 12
    // energies, 2 ranks; tolerance 0 runs every iteration.
    let device = DeviceBuilder::from_params(&DeviceCatalog::nr16(), 426).build();
    let mut config = config.clone();
    config.scba.max_iterations = iterations;
    let solver = DistScbaSolver::new(device, config);
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let result = solver.run();
    let counts = (
        ALLOCS.load(Ordering::SeqCst) - allocs,
        BYTES.load(Ordering::SeqCst) - bytes,
    );
    assert_eq!(result.iterations, iterations);
    counts
}

#[test]
fn a_steady_state_rank_iteration_allocates_nearly_nothing() {
    let scba = |use_memoizer: bool| ScbaConfig {
        n_energies: 12,
        tolerance: 0.0,
        mixing: 0.4,
        interaction_scale: 0.2,
        use_memoizer,
        ..ScbaConfig::default()
    };
    let mut report = Vec::new();
    for use_memoizer in [false, true] {
        for p_s in [1usize, 2] {
            let config = DistScbaConfig::new(scba(use_memoizer), 2)
                .with_spatial_partitions(p_s)
                .with_probe(false);
            let (a6, b6) = run_counts(&config, 6);
            let (a10, b10) = run_counts(&config, 10);
            let per_iteration = (a10.saturating_sub(a6) / 4, b10.saturating_sub(b6) / 4);
            report.push((use_memoizer, p_s, per_iteration));
        }
    }
    for &(use_memoizer, p_s, (allocs, bytes)) in &report {
        eprintln!(
            "memoizer {use_memoizer}, P_S = {p_s}: {allocs} allocations, {bytes} bytes per iteration"
        );
    }
    for &(use_memoizer, p_s, (allocs, bytes)) in &report {
        assert!(
            allocs <= MAX_ALLOCS_PER_ITERATION && bytes <= MAX_BYTES_PER_ITERATION,
            "memoizer {use_memoizer}, P_S = {p_s}: a steady-state iteration made {allocs} \
             allocations of {bytes} bytes (at most {MAX_ALLOCS_PER_ITERATION} and \
             {MAX_BYTES_PER_ITERATION})"
        );
    }
}
