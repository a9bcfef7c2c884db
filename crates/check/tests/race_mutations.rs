//! Seeded-race mutation tests: re-introduce the synchronisation bugs the
//! happens-before detector exists to catch and assert each one produces a
//! named `RaceReport` — while the correctly-synchronised counterpart of the
//! same access pattern stays clean.
//!
//! The ranks share data only through collectives, so every mutant severs a
//! channel or fork/join edge: two ranks write one buffer with no edge
//! between them, the `CommHandle::wait` is reordered after the read it
//! ordered, the task-join edge is dropped, or the barrier or allreduce
//! between two ranks' accesses is dropped.

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
// Mutation 1: two ranks write one buffer with no edge between them.
//
// Every buffer the ranks exchange is written by its owner and handed over
// through a channel. The mutant has both ranks write the same buffer id with
// no collective between the writes: the suite's one cross-rank write/write
// pair, and the check that a report carries both capture sites.
// ---------------------------------------------------------------------------

#[test]
fn two_ranks_writing_one_buffer_with_no_edge_is_a_named_race() {
    with_detector(|| {
        let id = SharedId::new("mutant.slab_buffer", 7);
        ThreadComm::run(2, move |_ctx: RankContext<()>| {
            race::access_shared(id, AccessKind::Write);
        });
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

// ---------------------------------------------------------------------------
// Mutation 4: dropped barrier / allreduce between two ranks' accesses.
//
// Rank 0 writes a buffer and rank 1 reads it after a collective both ranks
// call: `barrier` or `allreduce_sum` orders everything before any rank's
// call before everything after every rank's call. The mutant drops the
// collective on both ranks, so nothing orders the write before the read.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Rendezvous {
    Barrier,
    Allreduce,
    Dropped,
}

fn rendezvous_traffic(between: Rendezvous) {
    let id = SharedId::new("mutant.rendezvous", 5);
    ThreadComm::run(2, move |ctx: RankContext<()>| {
        if ctx.rank() == 0 {
            race::access_shared(id, AccessKind::Write);
        }
        match between {
            Rendezvous::Barrier => ctx.barrier(),
            Rendezvous::Allreduce => {
                ctx.allreduce_sum(1.0);
            }
            // MUTANT: no collective between the write and the read.
            Rendezvous::Dropped => {}
        }
        if ctx.rank() == 1 {
            race::access_shared(id, AccessKind::Read);
        }
    });
}

#[test]
fn dropped_barrier_or_allreduce_is_reported() {
    with_detector(|| {
        rendezvous_traffic(Rendezvous::Dropped);
        let (n, text) = drained();
        assert_eq!(n, 1, "one write-read pair, got:\n{text}");
        assert!(
            text.contains("mutant.rendezvous"),
            "report must name the buffer:\n{text}"
        );
    });
}

#[test]
fn barrier_and_allreduce_order_a_write_before_a_read() {
    for between in [Rendezvous::Barrier, Rendezvous::Allreduce] {
        with_detector(|| {
            rendezvous_traffic(between);
            let (n, text) = drained();
            assert_eq!(
                n, 0,
                "the collective orders write before read, got:\n{text}"
            );
        });
    }
}
