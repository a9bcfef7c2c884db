//! Counting-allocator proof that the convolution kernels run on the thread's
//! warm FFT workspace — after one warm-up call `polarization_pair_accumulate`,
//! `self_energy_pair_accumulate` and `causal_retarded_series` allocate
//! nothing, and `quatrex_fft::convolve` allocates its returned `Vec` only —
//! and the pin of `FlopKind::Convolution` on the transforms actually run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use quatrex_core::convolution::{
    causal_retarded_series, polarization_pair_accumulate, self_energy_pair_accumulate,
};
use quatrex_fft::fft_flops;
use quatrex_linalg::flops::{FlopCounter, FlopKind};
use quatrex_linalg::{c64, cplx};

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

const NE: usize = 16;
const DE: f64 = 0.05;

fn series(seed: f64) -> Vec<c64> {
    (0..NE)
        .map(|k| {
            cplx(
                (seed + 0.37 * k as f64).sin(),
                (seed - 0.21 * k as f64).cos(),
            )
        })
        .collect()
}

/// One non-self-mirror pair: operands, accumulators and the two halves of
/// the grid as batches.
struct Pair {
    g: [[Vec<c64>; 2]; 2],
    w: [[Vec<c64>; 2]; 2],
    out: [[Vec<c64>; 2]; 2],
    batches: [Vec<usize>; 2],
}

impl Pair {
    fn new() -> Self {
        let four = |seed: f64| [0.0, 1.0].map(|s| [0.3, 0.7].map(|c| series(seed + s + c)));
        Self {
            g: four(0.4),
            w: four(2.9),
            out: [(); 2].map(|()| [(); 2].map(|()| vec![c64::new(0.0, 0.0); NE])),
            batches: [(0..NE / 2).collect(), (NE / 2..NE).collect()],
        }
    }

    fn polarization(&mut self, batch: usize, flops: &FlopCounter) {
        let [ij, ji] = &mut self.out;
        let g = self.g.each_ref().map(|s| s.each_ref().map(|x| &x[..]));
        polarization_pair_accumulate(
            ij.each_mut().map(|x| &mut x[..]),
            Some(ji.each_mut().map(|x| &mut x[..])),
            g,
            &self.batches[batch],
            batch > 0,
            DE,
            flops,
        );
    }

    fn self_energy(&mut self, batch: usize, flops: &FlopCounter) {
        let [ij, ji] = &mut self.out;
        let g = self.g.each_ref().map(|s| s.each_ref().map(|x| &x[..]));
        let w = self.w.each_ref().map(|s| s.each_ref().map(|x| &x[..]));
        self_energy_pair_accumulate(
            ij.each_mut().map(|x| &mut x[..]),
            Some(ji.each_mut().map(|x| &mut x[..])),
            g,
            w,
            &self.batches[batch],
            DE,
            flops,
        );
    }
}

#[test]
fn warm_convolution_kernels_allocate_nothing() {
    let flops = FlopCounter::new();
    let mut pair = Pair::new();
    let mut retarded = vec![c64::new(0.0, 0.0); NE];
    let (a, b) = (series(0.1), series(5.0));
    // Warm-up: plans the padded and the unpadded length, grows the planes.
    pair.polarization(0, &flops);
    causal_retarded_series(&mut retarded, &a, &b, &flops);

    let kernels = allocations(|| {
        pair.polarization(0, &flops);
        pair.polarization(1, &flops);
        pair.self_energy(0, &flops);
        pair.self_energy(1, &flops);
        causal_retarded_series(&mut retarded, &a, &b, &flops);
    });
    assert_eq!(kernels, 0, "the warm pair kernels must not allocate");

    let mut out = Vec::new();
    let convolve = allocations(|| out = quatrex_fft::convolve(&a, &b));
    assert_eq!(out.len(), 2 * NE - 1);
    assert_eq!(convolve, 1, "convolve allocates its returned Vec only");
}

#[test]
fn convolution_flops_are_the_transforms_executed() {
    let n = 32; // 2·N_E − 1 = 31 padded to the next power of two
    let (transform, product) = (fft_flops(n), 6 * n as u64);
    let cost = |run: &dyn Fn(&mut Pair, &FlopCounter)| {
        let flops = FlopCounter::new();
        run(&mut Pair::new(), &flops);
        assert_eq!(flops.total(), flops.get(FlopKind::Convolution));
        flops.get(FlopKind::Convolution)
    };
    // First (or only) batch: 4 forward + 2 inverse transforms, 2 products.
    assert_eq!(
        cost(&|p, f| p.polarization(0, f)),
        6 * transform + 2 * product
    );
    // Later batch: the cross terms double the operands, not the inverses.
    assert_eq!(
        cost(&|p, f| p.polarization(1, f)),
        10 * transform + 4 * product
    );
    // Σ: 8 forward + 4 inverse transforms, 4 products, whichever batch.
    assert_eq!(
        cost(&|p, f| p.self_energy(0, f)),
        12 * transform + 4 * product
    );
    assert_eq!(
        cost(&|p, f| p.self_energy(1, f)),
        12 * transform + 4 * product
    );
    // The causality construction transforms the unpadded grid there and back.
    let flops = FlopCounter::new();
    let mut retarded = vec![c64::new(0.0, 0.0); NE];
    causal_retarded_series(&mut retarded, &series(0.1), &series(5.0), &flops);
    assert_eq!(flops.get(FlopKind::Convolution), 2 * fft_flops(NE));
}
