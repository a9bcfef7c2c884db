//! Concurrency-analysis substrate shared by the offline dependency shims and
//! the `quatrex-check` analysis suite.
//!
//! This crate sits at the very bottom of the workspace dependency graph — it
//! depends on nothing, so the sync shims (`parking_lot`, `crossbeam`) can
//! call into it without creating a cycle through
//! `quatrex-check` (which depends on `quatrex-runtime`, which depends on the
//! shims). `quatrex_check::race` and `quatrex_check::sched` re-export the
//! engines defined here.
//!
//! Two engines live here:
//!
//! - [`race`] — a FastTrack-style vector-clock happens-before race detector.
//!   Every sync primitive in the shims publishes epoch events (lock
//!   acquire/release, channel send/recv, task fork/join); annotated shared-buffer accesses
//!   ([`race::access_shared`]) are checked against the happens-before
//!   relation those events induce. Enabled by `QUATREX_RACE=1` or
//!   [`race::enable`]; one relaxed atomic load when off.
//! - [`sched`] — a loom-lite schedule explorer: a token-passing
//!   [`sched::Scheduler`] seam threaded through the same shim sync points
//!   serialises the threads of a test run and enumerates interleavings
//!   (exhaustive DFS or seeded-random, optionally preemption-bounded), with
//!   a replayable schedule token printed on failure.
//!
//! The two engines share the per-instance object-id allocator
//! ([`object_id`]) so a lock has the same identity in lock-order, race, and
//! schedule diagnostics.

use std::sync::atomic::{AtomicU64, Ordering};

pub mod race;
pub mod sched;

/// Global allocator for sync-object identities.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// Identity of a sync object (lock, channel), assigned lazily on
/// first use from a per-instance `AtomicU64` slot initialised to 0.
///
/// The id is process-unique and shared by every recorder (lock-order graph,
/// race detector), so diagnostics from different engines name the same
/// object consistently. Safe to call concurrently: the first
/// `compare_exchange` to land wins and every caller returns the same id.
pub fn object_id(slot: &AtomicU64) -> u64 {
    let id = slot.load(Ordering::Relaxed);
    if id != 0 {
        return id;
    }
    let fresh = NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed);
    match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(current) => current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_is_stable_and_unique() {
        let a = AtomicU64::new(0);
        let b = AtomicU64::new(0);
        let ia = object_id(&a);
        assert_eq!(object_id(&a), ia);
        let ib = object_id(&b);
        assert_ne!(ia, ib);
        assert_ne!(ia, 0);
    }

    #[test]
    fn object_id_races_to_one_winner() {
        let slot = AtomicU64::new(0);
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| object_id(&slot))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
