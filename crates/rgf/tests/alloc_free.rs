//! Counting-allocator proof that the steady-state RGF solve is
//! allocation-free: once the scratch arena and the output solution have been
//! warmed at a shape, `rgf_solve_into` (a batch of one) and
//! `rgf_solve_batch_into` at B > 1 perform **zero** heap allocations — the
//! whole forward/backward recursion (GEMMs, LU inversions, block writes) runs
//! on recycled buffers, on energy-major planes and on the lane layout alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use quatrex_linalg::cplx;
use quatrex_linalg::CMatrix;
use quatrex_rgf::{
    rgf_solve_batch_into, rgf_solve_batch_on, rgf_solve_into, BlockLayout, RgfBatchScratch,
    RgfScratch, SelectedSolution,
};
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

fn set_armed(on: bool) {
    ARMED.with(|f| f.set(on));
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

fn test_system(nb: usize, bs: usize) -> (BlockTridiagonal, BlockTridiagonal) {
    let mut a = BlockTridiagonal::zeros(nb, bs);
    let mut b = BlockTridiagonal::zeros(nb, bs);
    for i in 0..nb {
        let d = CMatrix::from_fn(bs, bs, |r, c| {
            if r == c {
                cplx(2.5 + 0.1 * i as f64, 0.3)
            } else {
                cplx(-0.3 / (1.0 + (r as f64 - c as f64).abs()), 0.05)
            }
        });
        a.set_block(i, i, d);
        let braw = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(
                0.2 * (r + i) as f64 - 0.1 * c as f64,
                0.4 - 0.05 * (r + c) as f64,
            )
        });
        b.set_block(i, i, braw.negf_antihermitian_part());
    }
    for i in 0..nb - 1 {
        let u = CMatrix::from_fn(bs, bs, |r, c| cplx(-0.4 + 0.03 * r as f64, 0.05 * c as f64));
        let l = CMatrix::from_fn(bs, bs, |r, c| {
            cplx(-0.35 - 0.02 * c as f64, -0.04 * r as f64)
        });
        a.set_block(i, i + 1, u);
        a.set_block(i + 1, i, l);
        let bu = CMatrix::from_fn(bs, bs, |r, c| cplx(0.05 * (r as f64 - c as f64), 0.12));
        b.set_block(i, i + 1, bu.clone());
        b.set_block(i + 1, i, bu.dagger().scaled(cplx(-1.0, 0.0)));
    }
    (a, b)
}

#[test]
fn steady_state_rgf_solve_performs_zero_heap_allocations() {
    let (nb, bs) = (6, 8);
    let (a, b) = test_system(nb, bs);
    let rhs = [&b];
    let mut scratch = RgfScratch::new();
    let mut sol = SelectedSolution::zeros(nb, bs, rhs.len());

    // Warm-up: the first solve allocates the arena buffers and LU scratch.
    rgf_solve_into(&a, &rhs, &mut sol, &mut scratch).unwrap();
    let reference = sol.retarded.to_dense();

    // Steady state: count every global allocation across three full solves.
    ALLOCS.store(0, Ordering::SeqCst);
    set_armed(true);
    for _ in 0..3 {
        rgf_solve_into(&a, &rhs, &mut sol, &mut scratch).unwrap();
    }
    set_armed(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state RGF inner loop must not allocate (saw {allocs} allocations)"
    );
    // And it still computes the right thing.
    assert!(sol.retarded.to_dense().approx_eq(&reference, 0.0));
}

#[test]
fn steady_state_batched_rgf_solve_performs_zero_heap_allocations() {
    let (nb, bs, ne) = (4, 6, 3);
    let systems: Vec<_> = (0..ne).map(|_| test_system(nb, bs)).collect();
    // Input marshalling lives outside the armed region: the solver itself is
    // what must be allocation-free, so the reference vectors are pre-built.
    let sys_refs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _)| a).collect();
    let rhs_refs: Vec<[&BlockTridiagonal; 1]> = systems.iter().map(|(_, b)| [b]).collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
    let mut scratch = RgfBatchScratch::new();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, 1); ne];

    // Warm-up: the first batched solve sizes the batch arena, the staged
    // operand batches, and the LU scratch.
    rgf_solve_batch_into(&sys_refs, &rhs_slices, &mut sols, &mut scratch).unwrap();
    let reference = sols[0].retarded.to_dense();

    // Steady state: three full batched solves must never touch the heap.
    ALLOCS.store(0, Ordering::SeqCst);
    set_armed(true);
    for _ in 0..3 {
        rgf_solve_batch_into(&sys_refs, &rhs_slices, &mut sols, &mut scratch).unwrap();
    }
    set_armed(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state batched RGF loop must not allocate (saw {allocs} allocations)"
    );
    assert_eq!(scratch.fresh_allocations(), {
        // A second warm call must not have grown the arena either.
        rgf_solve_batch_into(&sys_refs, &rhs_slices, &mut sols, &mut scratch).unwrap();
        scratch.fresh_allocations()
    });
    assert!(sols[0].retarded.to_dense().approx_eq(&reference, 0.0));
}

#[test]
fn steady_state_lane_layout_solve_performs_zero_heap_allocations() {
    // N_BS = 8 over 9 energies on the lane layout: one full lane group and a
    // ragged second one, two right-hand sides.
    let (nb, bs, ne) = (4, 8, 9);
    let systems: Vec<_> = (0..ne).map(|_| test_system(nb, bs)).collect();
    let sys_refs: Vec<&BlockTridiagonal> = systems.iter().map(|(a, _)| a).collect();
    let rhs_refs: Vec<[&BlockTridiagonal; 2]> = systems.iter().map(|(_, b)| [b, b]).collect();
    let rhs_slices: Vec<&[&BlockTridiagonal]> = rhs_refs.iter().map(|r| r.as_slice()).collect();
    let mut scratch = RgfBatchScratch::new();
    let mut sols = vec![SelectedSolution::zeros(nb, bs, 2); ne];

    // Warm-up: the lane batches, the free list, the LU scratch and the
    // per-thread planes of the inversions.
    let solve = |sols: &mut [SelectedSolution], scratch: &mut RgfBatchScratch| {
        rgf_solve_batch_on(BlockLayout::Lanes, &sys_refs, &rhs_slices, sols, scratch).unwrap()
    };
    solve(&mut sols, &mut scratch);
    let reference = sols[8].lesser[1].to_dense();
    let warm = scratch.fresh_allocations();

    ALLOCS.store(0, Ordering::SeqCst);
    set_armed(true);
    for _ in 0..3 {
        solve(&mut sols, &mut scratch);
    }
    set_armed(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state lane-layout RGF loop must not allocate (saw {allocs} allocations)"
    );
    assert_eq!(scratch.fresh_allocations(), warm);
    assert!(sols[8].lesser[1].to_dense().approx_eq(&reference, 0.0));
}

#[test]
fn warmup_allocations_do_not_grow_with_repeated_solves() {
    let (a, b) = test_system(5, 4);
    let rhs = [&b];
    let mut scratch = RgfScratch::new();
    let mut sol = SelectedSolution::zeros(5, 4, 1);
    rgf_solve_into(&a, &rhs, &mut sol, &mut scratch).unwrap();
    let warm = scratch.fresh_allocations();
    for _ in 0..5 {
        rgf_solve_into(&a, &rhs, &mut sol, &mut scratch).unwrap();
    }
    assert_eq!(scratch.fresh_allocations(), warm);
}
