//! Counting-allocator proof that probe calls on a thread with **no recorder
//! installed** perform zero heap allocations: every `span` / `mark` site
//! compiled into the solver hot loops costs one thread-local read and a
//! branch when tracing is off. Same pattern as the RGF
//! steady-state allocation test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

#[test]
fn disabled_probe_hot_path_performs_zero_heap_allocations() {
    assert!(!quatrex_probe::is_enabled());

    // Touch every probe entry point once so lazy TLS initialisation (if any)
    // happens outside the counted window.
    let _ = quatrex_probe::span("warm", "test", || 0u64);
    quatrex_probe::mark("warm", quatrex_probe::CAT_COMM_POST, 0);

    ALLOCS.store(0, Ordering::SeqCst);
    set_armed(true);
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        acc = acc.wrapping_add(quatrex_probe::span("hot.span", "test", || i));
        acc = acc.wrapping_add(quatrex_probe::span_bytes("hot.bytes", "test", i, || i));
        quatrex_probe::mark("hot.mark", quatrex_probe::CAT_COMM_POST, i);
    }
    set_armed(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "disabled probe hot path must not allocate (saw {allocs} allocations)"
    );
    std::hint::black_box(acc);
}

#[test]
fn enabled_probe_records_after_warm_capacity_without_realloc_storm() {
    // Not a hard zero-alloc guarantee (buffers grow amortised), but the
    // recorder must pre-reserve enough that a few thousand events stay within
    // a handful of growth steps.
    quatrex_probe::install(0, Instant::now());
    ALLOCS.store(0, Ordering::SeqCst);
    set_armed(true);
    for i in 0..2_000u64 {
        quatrex_probe::span("enabled.span", "test", || std::hint::black_box(i));
    }
    set_armed(false);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let trace = quatrex_probe::finish().expect("recorder installed");
    assert_eq!(trace.spans.len(), 2_000);
    assert!(
        allocs <= 8,
        "enabled probe should amortise buffer growth (saw {allocs} allocations)"
    );
}
