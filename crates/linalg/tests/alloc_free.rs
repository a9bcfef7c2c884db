//! Counting-allocator proof that the dense factorisations run on their
//! scratch: once warmed at a shape, `LuScratch::invert_into` and
//! `SvdScratch::decompose_into` — every Jacobi sweep, the sort, the output —
//! perform **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quatrex_linalg::{cplx, CMatrix, LuScratch, Svd, SvdScratch};

/// Global allocator wrapper that counts the allocations of the *current
/// thread* while it is armed (tests run on parallel threads).
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A full-rank matrix with no structure the sweeps could exploit.
fn dense(m: usize, n: usize, salt: f64) -> CMatrix {
    CMatrix::from_fn(m, n, |i, j| {
        let t = (i * n + j) as f64 + salt;
        cplx(
            (t * t * 0.37).sin(),
            (t * 1.93).cos() + if i == j { 2.0 } else { 0.0 },
        )
    })
}

#[test]
fn warmed_svd_performs_zero_heap_allocations() {
    let (m, n) = (21, 13); // ragged tiles, a few sweeps
    let mut scratch = SvdScratch::new();
    let mut out = Svd::default();
    scratch.decompose_into(&dense(m, n, 0.0), &mut out);

    let a = dense(m, n, 5.0);
    let allocs = allocations(|| scratch.decompose_into(&a, &mut out));
    assert_eq!(allocs, 0, "warmed SVD must not allocate");
    assert!(out.reconstruct().approx_eq(&a, 1e-9));
}

#[test]
fn warmed_lu_inversion_performs_zero_heap_allocations() {
    let n = 19; // three pivot groups, the last one ragged
    let mut lu = LuScratch::new();
    let mut inv = CMatrix::zeros(n, n);
    lu.invert_into(&dense(n, n, 0.0), &mut inv).unwrap();

    let a = dense(n, n, 3.0);
    let allocs = allocations(|| lu.invert_into(&a, &mut inv).unwrap());
    assert_eq!(allocs, 0, "warmed LU inversion must not allocate");
}
