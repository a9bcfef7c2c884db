//! Counting-allocator proofs that the OBC solvers run on their scratch.
//!
//! A warmed `sancho_rubio_batch` allocates the surface function of each
//! converged energy and the result vector, nothing else: the decimation
//! steps, the inversions and the residual checks reuse one
//! `ObcBatchScratch`.
//!
//! A warmed `beyn`'s 48 contour inversions, moment accumulation, SVD, `Φ⁻¹`,
//! `(m + n·F)⁻¹` and residual check allocate nothing. What a call still
//! allocates is the surface function it returns and the buffers of the dense
//! eigensolver it hands the reduced problem to — a count that depends on the
//! problem's order alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quatrex_linalg::{cplx, eigendecomposition, CMatrix};
use quatrex_obc::{beyn, sancho_rubio_batch, BeynConfig, ObcBatchScratch};

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

/// Strongly evanescent lead (all Bloch factors well inside the contour) at
/// energy `e`: `(m, n, n')`.
fn evanescent_lead(dim: usize, e: f64) -> (CMatrix, CMatrix, CMatrix) {
    let h0 = CMatrix::from_fn(dim, dim, |i, j| {
        if i == j {
            cplx(if i % 2 == 0 { 0.6 } else { -0.6 }, 0.0)
        } else {
            cplx(-0.2 / (1.0 + (i as f64 - j as f64).abs()), 0.0)
        }
    })
    .hermitian_part();
    let h1 = CMatrix::from_fn(dim, dim, |i, j| {
        cplx(-0.0875 * (-((i as f64 - j as f64).abs()) / 2.0).exp(), 0.0)
    });
    let m = &CMatrix::scaled_identity(dim, cplx(e, 1e-2)) - &h0;
    (
        m,
        h1.scaled(cplx(-1.0, 0.0)),
        h1.dagger().scaled(cplx(-1.0, 0.0)),
    )
}

#[test]
fn warmed_sancho_rubio_batch_allocates_only_its_surface_functions_and_result_vector() {
    let dim = 9; // off the GEMM tile heights
    let grid: Vec<(CMatrix, CMatrix, CMatrix)> = [0.4, 1.1, 1.9, 2.6]
        .iter()
        .map(|&e| evanescent_lead(dim, e))
        .collect();
    let singular = CMatrix::zeros(dim, dim);
    let mut ms: Vec<&CMatrix> = grid.iter().map(|(m, _, _)| m).collect();
    ms[2] = &singular;
    let ns: Vec<&CMatrix> = grid.iter().map(|(_, n, _)| n).collect();
    let nps: Vec<&CMatrix> = grid.iter().map(|(_, _, np)| np).collect();
    let mut scratch = ObcBatchScratch::new();
    sancho_rubio_batch(&ms, &ns, &nps, 1e-12, 200, &mut scratch);

    let mut solutions = Vec::new();
    let allocs = allocations(|| {
        solutions = sancho_rubio_batch(&ms, &ns, &nps, 1e-12, 200, &mut scratch);
    });
    let converged = solutions.iter().filter(|s| s.is_ok()).count();
    assert_eq!(converged, 3, "the singular energy fails alone");
    assert_eq!(
        allocs,
        converged as u64 + 1,
        "a warmed sancho_rubio_batch may allocate its surface functions and its result vector"
    );
}

#[test]
fn warmed_beyn_allocates_only_its_result_and_the_reduced_eigenproblem() {
    let dim = 11; // two pivot groups, ragged tiles
    let config = BeynConfig::default();
    let (m, n, np) = evanescent_lead(dim, 2.5);
    beyn(&m, &n, &np, &config).expect("warm-up solve");

    // The eigensolver's own count at this order (full rank: the reduced
    // problem is dim × dim), on a matrix of no particular structure.
    let b = CMatrix::from_fn(dim, dim, |i, j| {
        cplx((i * dim + j) as f64, i as f64 - j as f64)
    });
    let eig_allocs = allocations(|| drop(eigendecomposition(&b).expect("eigensolve")));

    let (m, n, np) = evanescent_lead(dim, 2.9);
    let mut solution = None;
    let allocs = allocations(|| solution = Some(beyn(&m, &n, &np, &config)));
    let solution = solution.expect("ran").expect("Beyn solve");
    assert!(solution.residual < 1e-8, "residual {}", solution.residual);
    assert_eq!(
        allocs,
        eig_allocs + 1,
        "a warmed beyn may allocate its result and the eigensolver's buffers, nothing else"
    );
}
