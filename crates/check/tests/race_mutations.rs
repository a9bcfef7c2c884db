//! Seeded-race mutation tests: re-introduce the synchronisation bugs the
//! happens-before detector exists to catch and assert each one produces a
//! named `RaceReport` — while the correctly-synchronised counterpart of the
//! same access pattern stays clean.
//!
//! A FastTrack-style detector orders mutex critical sections in **both**
//! directions, so deleting only a barrier between lock-protected accesses
//! yields a wrong *value*, never a race. Every mutant here therefore severs
//! the ordering edge itself: the lock is deleted, the `CommHandle::wait` is
//! reordered after the read it ordered, or the task-join edge is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use quatrex_check::race::{self, AccessKind, SharedId};
use quatrex_runtime::{CommPhase, RankContext, ThreadComm};

/// The detector state is process-global; serialise the tests and always
/// disable/reset on the way out, even across a failing assertion.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_detector(f: impl FnOnce()) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    race::reset();
    race::enable();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    race::disable();
    race::reset();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Drain the reports and render them for assertion messages.
fn drained() -> (usize, String) {
    let reports = race::take_reports();
    let text = reports
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    (reports.len(), text)
}

// ---------------------------------------------------------------------------
// Mutation 1: deleted lock around the element-slab buffer.
//
// The transposition pipeline serialises rank writes into a shared slab
// through the parking_lot shim; the shim's release->acquire edges are what
// order them. The mutant "forgets" the lock: two ranks write the same slab
// id with no edge between them.
// ---------------------------------------------------------------------------

fn slab_traffic(locked: bool) {
    let slab = Arc::new(parking_lot::Mutex::new(vec![0u64; 4]));
    let id = SharedId::new("mutant.slab_buffer", 7);
    ThreadComm::run(2, move |ctx: RankContext<()>| {
        if locked {
            let mut guard = slab.lock();
            guard[ctx.rank()] += 1;
            race::access_shared(id, AccessKind::Write);
        } else {
            // The real write would be UB without the lock; model the torn
            // store with an element-wise atomic so only the *annotation*
            // carries the bug, exactly like the slab instrumentation does.
            let fake = AtomicU64::new(0);
            fake.fetch_add(1, Ordering::Relaxed);
            race::access_shared(id, AccessKind::Write);
        }
    });
}

#[test]
fn deleted_slab_lock_is_reported_as_a_named_race() {
    with_detector(|| {
        slab_traffic(false);
        let (n, text) = drained();
        assert_eq!(n, 1, "one unordered write pair, got:\n{text}");
        assert!(
            text.contains("mutant.slab_buffer"),
            "report must name the slab buffer:\n{text}"
        );
        assert!(
            text.contains("race_mutations.rs"),
            "report must carry both capture sites:\n{text}"
        );
    });
}

#[test]
fn locked_slab_traffic_is_clean() {
    with_detector(|| {
        slab_traffic(true);
        let (n, text) = drained();
        assert_eq!(n, 0, "lock edges order the writes, got:\n{text}");
    });
}

// ---------------------------------------------------------------------------
// Mutation 2: CommHandle::wait reordered past the batch-accumulator read.
//
// The convolution pipeline reads its batch accumulator only after the
// alltoallv handle's wait has joined the sender's clock. The mutant hoists
// the read above the wait, so the sender's accumulator write is no longer
// ordered before it.
// ---------------------------------------------------------------------------

fn accumulator_traffic(wait_before_read: bool) {
    let id = SharedId::new("mutant.batch_accum", 3);
    ThreadComm::run(2, move |ctx: RankContext<Vec<u64>>| {
        if ctx.rank() == 0 {
            // The producer fills the accumulator, then publishes via the
            // exchange: write happens-before every send in program order.
            race::access_shared(id, AccessKind::Write);
        }
        let send: Vec<Vec<u64>> = (0..ctx.n_ranks()).map(|j| vec![j as u64; 2]).collect();
        let h = ctx.alltoallv_start_tagged(send, |m: &Vec<u64>| m.len() * 8, CommPhase::FwdG);
        if ctx.rank() == 1 {
            if wait_before_read {
                let _recv = h.wait(&ctx);
                race::access_shared(id, AccessKind::Read);
            } else {
                // MUTANT: the read no longer sits behind the channel edge.
                race::access_shared(id, AccessKind::Read);
                let _recv = h.wait(&ctx);
            }
        } else {
            let _recv = h.wait(&ctx);
        }
    });
}

#[test]
fn wait_reordered_past_accumulator_read_is_reported() {
    with_detector(|| {
        accumulator_traffic(false);
        let (n, text) = drained();
        assert_eq!(n, 1, "one write-read pair, got:\n{text}");
        assert!(
            text.contains("mutant.batch_accum"),
            "report must name the accumulator:\n{text}"
        );
    });
}

#[test]
fn accumulator_read_behind_wait_is_clean() {
    with_detector(|| {
        accumulator_traffic(true);
        let (n, text) = drained();
        assert_eq!(
            n, 0,
            "the channel edge orders write before read, got:\n{text}"
        );
    });
}

// ---------------------------------------------------------------------------
// Mutation 3: dropped join barrier after a spawned task.
//
// `ThreadComm::run` adopts the launcher's clock into each rank thread and
// joins every rank's final clock back before the launcher reads the ranks'
// results; the test drives that fork/adopt/depart/join wiring through
// `std::thread::scope` directly. The mutant discards the JoinPoint — the
// spawner reads results the task may still be writing.
// ---------------------------------------------------------------------------

fn spawned_task_traffic(join_back: bool) {
    let id = SharedId::new("mutant.join_results", 11);
    let fork = race::fork();
    let point = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            race::adopt(&fork);
            race::access_shared(id, AccessKind::Write);
            race::depart()
        });
        handle.join().expect("task panicked")
    });
    if join_back {
        race::join(point);
    } else {
        // MUTANT: the task's clock never flows back to the spawner.
        drop(point);
    }
    race::access_shared(id, AccessKind::Read);
}

#[test]
fn dropped_join_barrier_is_reported() {
    with_detector(|| {
        spawned_task_traffic(false);
        let (n, text) = drained();
        assert_eq!(n, 1, "one write-read pair, got:\n{text}");
        assert!(
            text.contains("mutant.join_results"),
            "report must name the result buffer:\n{text}"
        );
    });
}

#[test]
fn joined_task_results_are_clean() {
    with_detector(|| {
        spawned_task_traffic(true);
        let (n, text) = drained();
        assert_eq!(n, 0, "the join edge orders write before read, got:\n{text}");
    });
}
