//! Counting-allocator proof that the convolution kernels run on the thread's
//! warm FFT workspace — after one warm-up call the lane-group kernels
//! allocate nothing, and a warm `quatrex_fft::convolve` allocates its
//! returned `Vec` only — and the pin of `FlopKind::Convolution` on the
//! transforms actually run: per pair on one-lane groups, per live lane on a
//! ragged group, a self-mirror lane of a `Σ` group counting half a pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use quatrex_core::convolution::{
    causal_retarded_group, polarization_group_accumulate, self_energy_group_accumulate, NegfGroup,
};
use quatrex_core::element_major::{lane_groups, GroupInfo, LanePlanes};
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

/// Serialises the armed windows: the counter is shared, so two tests
/// measuring at once would see each other's allocations.
static MEASURING: Mutex<()> = Mutex::new(());

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
    let _serial = MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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

#[test]
fn a_warm_convolve_allocates_its_returned_vec_only() {
    let (a, b) = (series(0.1), series(5.0));
    // Warm-up: plans the padded length, grows the thread's `f64` planes.
    let mut out = quatrex_fft::convolve(&a, &b);
    let convolve = allocations(|| out = quatrex_fft::convolve(&a, &b));
    assert_eq!(out.len(), 2 * NE - 1);
    assert_eq!(convolve, 1, "convolve allocates its returned Vec only");
}

/// One lane group with its forward operands (`G` and `W`, canonical series
/// only) and its output accumulators.
struct Group {
    info: GroupInfo,
    g: [LanePlanes; 2],
    w: [LanePlanes; 2],
    out: [[LanePlanes; 2]; 2],
}

impl Group {
    /// The group of one lane per entry of `self_mirror`.
    fn new(self_mirror: &[bool]) -> Self {
        let info = lane_groups(self_mirror)[0];
        let operand = |seed: f64| {
            let series: Vec<_> = (0..self_mirror.len())
                .map(|e| series(seed + e as f64))
                .collect();
            LanePlanes::from_series(&series)
        };
        let zero = || LanePlanes::zeroed(self_mirror.len(), NE);
        Self {
            info,
            g: [operand(0.2), operand(1.4)],
            w: [operand(2.6), operand(3.8)],
            out: [(); 2].map(|()| [zero(), zero()]),
        }
    }

    /// Five live lanes: three paired, two self-mirror.
    fn ragged() -> Self {
        Self::new(&[false, true, false, true, false])
    }

    fn negf<'a>(x: &'a [LanePlanes; 2], info: &'a GroupInfo) -> [NegfGroup<'a>; 2] {
        x.each_ref().map(|planes| NegfGroup {
            rows: planes.group(0),
            sign: &info.sign,
        })
    }

    fn polarization(&mut self, batch: &[usize], arrived: &[usize], flops: &FlopCounter) {
        let g = Self::negf(&self.g, &self.info);
        let out = self
            .out
            .each_mut()
            .map(|side| side.each_mut().map(|p| p.group_mut(0)));
        let before = arrived.len() > batch.len();
        let arrived = arrived.iter().copied();
        polarization_group_accumulate(out, g, arrived, batch, before, DE, &self.info, flops);
    }

    fn self_energy(&mut self, batch: &[usize], flops: &FlopCounter) {
        let (g, w) = (
            Self::negf(&self.g, &self.info),
            Self::negf(&self.w, &self.info),
        );
        let out = self
            .out
            .each_mut()
            .map(|side| side.each_mut().map(|p| p.group_mut(0)));
        self_energy_group_accumulate(out, g, w, batch, DE, &self.info, flops);
    }

    fn retarded(&mut self, flops: &FlopCounter) {
        let [[lesser, greater], [retarded, _]] = &mut self.out;
        let (l, g) = (lesser.group(0), greater.group(0));
        causal_retarded_group(retarded.group_mut(0), l, g, self.info.live, flops);
    }
}

#[test]
fn warm_group_kernels_allocate_nothing() {
    let flops = FlopCounter::new();
    let mut group = Group::ragged();
    let (first, second): (Vec<usize>, Vec<usize>) = ((0..NE / 2).collect(), (NE / 2..NE).collect());
    let all: Vec<usize> = (0..NE).collect();
    // Warm-up: plans both lengths, grows the lane planes.
    group.polarization(&first, &first, &flops);
    group.retarded(&flops);
    let kernels = allocations(|| {
        group.polarization(&first, &first, &flops);
        group.polarization(&second, &all, &flops);
        group.self_energy(&first, &flops);
        group.self_energy(&second, &flops);
        group.retarded(&flops);
    });
    assert_eq!(kernels, 0, "the warm group kernels must not allocate");
}

#[test]
fn convolution_flops_are_the_transforms_executed_per_pair() {
    let n = 32; // 2·N_E − 1 = 31 padded to the next power of two
    let (transform, product) = (fft_flops(n), 6 * n as u64);
    let (first, second): (Vec<usize>, Vec<usize>) = ((0..NE / 2).collect(), (NE / 2..NE).collect());
    let all: Vec<usize> = (0..NE).collect();
    // FLOPs of `run` on a one-lane group: a pair, or a self-mirror element.
    let cost = |self_mirror: bool, run: &dyn Fn(&mut Group, &FlopCounter)| {
        let flops = FlopCounter::new();
        run(&mut Group::new(&[self_mirror]), &flops);
        assert_eq!(flops.total(), flops.get(FlopKind::Convolution));
        flops.total()
    };
    // First (or only) batch: 4 forward + 2 inverse transforms, 2 products.
    assert_eq!(
        cost(false, &|g, f| g.polarization(&first, &first, f)),
        6 * transform + 2 * product
    );
    // Later batch: the cross terms double the operands, not the inverses.
    assert_eq!(
        cost(false, &|g, f| g.polarization(&second, &all, f)),
        10 * transform + 4 * product
    );
    // Σ: 8 forward + 4 inverse transforms, 4 products, whichever batch; a
    // self-mirror element has no mirror side and costs half.
    for batch in [&first, &second] {
        assert_eq!(
            cost(false, &|g, f| g.self_energy(batch, f)),
            12 * transform + 4 * product
        );
        assert_eq!(
            cost(true, &|g, f| g.self_energy(batch, f)),
            6 * transform + 2 * product
        );
    }
    // The causality construction transforms the unpadded grid there and back.
    assert_eq!(cost(false, &|g, f| g.retarded(f)), 2 * fft_flops(NE));
}

#[test]
fn group_flops_count_live_lanes_and_half_a_self_mirror_sigma_pair() {
    let n = 32;
    let (transform, product) = (fft_flops(n), 6 * n as u64);
    let (first, all): (Vec<usize>, Vec<usize>) = ((0..NE / 2).collect(), (0..NE).collect());
    let mut group = Group::ragged();
    assert_eq!((group.info.live, group.info.paired), (5, 3));
    let flops = FlopCounter::new();
    group.polarization(&first, &first, &flops);
    assert_eq!(flops.total(), 5 * (6 * transform + 2 * product));
    let flops = FlopCounter::new();
    group.self_energy(&all, &flops);
    // Three paired lanes at 12 transforms, two self-mirror ones at 6.
    assert_eq!(
        flops.total(),
        (3 * 12 + 2 * 6) * transform + (3 * 4 + 2 * 2) * product
    );
    let flops = FlopCounter::new();
    group.retarded(&flops);
    assert_eq!(flops.total(), 5 * 2 * fft_flops(NE));
}
