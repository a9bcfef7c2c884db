//! FastTrack-style vector-clock happens-before race detector.
//!
//! Every thread carries a vector clock; the sync shims publish epoch events
//! into per-object clocks at each synchronisation operation:
//!
//! - **Locks** ([`lock_acquire`]/[`lock_release`]): releasing stores the
//!   holder's clock on the lock, acquiring joins it — the classic
//!   release/acquire edge. RwLock read guards are modelled like mutex
//!   guards, which adds reader→reader edges that do not exist in the real
//!   execution; extra edges can only hide races (false negatives), never
//!   invent them.
//! - **Channels** ([`channel_send`]/[`channel_recv`]): a cumulative
//!   per-channel clock joined on receive. The shims call these hooks inside
//!   the queue-mutex critical section, so the edge is exact for the
//!   mutex-backed channel implementation.
//! - **Barriers** ([`barrier_enter`]/[`barrier_exit`]): per-generation
//!   accumulator clocks; every exiter absorbs every enterer of its
//!   generation.
//! - **Tasks** ([`fork`]/[`adopt`]/[`depart`]/[`join`]): the rank threads
//!   of `ThreadComm::run` inherit the launcher's clock and flow their
//!   history back when the launcher joins them.
//!
//! Shared state that is *not* itself a sync object is checked through the
//! annotation API: [`access_shared`] records reads and writes of a named
//! logical buffer ([`SharedId`]) and reports any read/write or write/write
//! pair unordered by happens-before, with both access sites, the lock sets
//! held, and a captured backtrace of the detecting access.
//!
//! Enabled by `QUATREX_RACE=1` (or [`enable`]); when off every hook is one
//! relaxed atomic load and a branch, mirroring the lock-order recorder.

use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock};

const STATE_UNINIT: u8 = 2;
const STATE_OFF: u8 = 0;
const STATE_ON: u8 = 1;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Total number of race reports since the last [`reset`] (readable without
/// taking the registry lock).
static REPORT_COUNT: AtomicU64 = AtomicU64::new(0);

/// At most this many full reports are retained; the count keeps growing.
const MAX_REPORTS: usize = 64;
/// At most this many concurrent readers are tracked per shared object.
const MAX_READS: usize = 64;

/// Enable the detector for the whole process.
pub fn enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Disable the detector. Recorded state is kept until [`reset`].
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// Whether the detector is enabled (initialising from `QUATREX_RACE` on
/// first call).
pub fn is_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var("QUATREX_RACE").is_ok_and(|v| v != "0" && !v.is_empty());
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// A read or write of an annotated shared object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Shared read.
    Read,
    /// Exclusive write.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Identity of a logical shared buffer: a static name plus an instance
/// index (rank, slot, message sequence — whatever disambiguates instances).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SharedId {
    /// Logical buffer family, e.g. `"comm.wire"` or `"dist.conv_accum"`.
    pub name: &'static str,
    /// Instance within the family.
    pub index: u64,
}

impl SharedId {
    /// Construct an id.
    pub const fn new(name: &'static str, index: u64) -> Self {
        Self { name, index }
    }
}

impl fmt::Display for SharedId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{:#x}]", self.name, self.index)
    }
}

/// One side of a reported race.
#[derive(Clone, Debug)]
pub struct AccessInfo {
    /// Read or write.
    pub kind: AccessKind,
    /// Name of the accessing thread.
    pub thread: String,
    /// Source location of the access (`file:line:col`).
    pub site: String,
    /// Ids of the locks held at the access.
    pub locks: Vec<u64>,
}

impl fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let locks = if self.locks.is_empty() {
            "none".to_string()
        } else {
            self.locks
                .iter()
                .map(|id| format!("#{id}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            f,
            "{} by thread '{}' at {} [locks held: {}]",
            self.kind, self.thread, self.site, locks
        )
    }
}

/// A pair of accesses unordered by happens-before.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// The shared object the race is on.
    pub object: String,
    /// The earlier recorded access.
    pub prior: AccessInfo,
    /// The access that detected the race.
    pub current: AccessInfo,
    /// Backtrace captured at the detecting access.
    pub backtrace: String,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race on {}:\n  prior:   {}\n  current: {}",
            self.object, self.prior, self.current
        )
    }
}

/// Dense vector clock, indexed by detector-assigned thread id.
#[derive(Clone, Default, Debug)]
struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn bump(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(b);
        }
    }
}

#[derive(Clone, Debug)]
struct VarAccess {
    tid: usize,
    clock: u32,
    kind: AccessKind,
    site: &'static Location<'static>,
    locks: Vec<u64>,
}

#[derive(Default)]
struct VarState {
    write: Option<VarAccess>,
    reads: Vec<VarAccess>,
}

struct ThreadEntry {
    vc: VClock,
    held: Vec<u64>,
    name: String,
}

#[derive(Default)]
struct BarrierState {
    arrivals: u64,
    /// Accumulated clock per generation; only the last two generations are
    /// retained (an exiter can lag its own generation by at most one).
    accums: HashMap<u64, VClock>,
}

#[derive(Default)]
struct Registry {
    threads: Vec<ThreadEntry>,
    locks: HashMap<u64, VClock>,
    chans: HashMap<u64, VClock>,
    barriers: HashMap<u64, BarrierState>,
    vars: HashMap<SharedId, VarState>,
    reports: Vec<RaceReport>,
}

fn registry() -> &'static StdMutex<Registry> {
    static REGISTRY: OnceLock<StdMutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| StdMutex::new(Registry::default()))
}

thread_local! {
    /// Detector-assigned thread id; `usize::MAX` until first use. Thread ids
    /// are never recycled — a recycled id could make a fresh thread's clock
    /// dominate a dead thread's epochs and mask real races.
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn tid(reg: &mut Registry) -> usize {
    TID.with(|cell| {
        let t = cell.get();
        if t != usize::MAX {
            return t;
        }
        let t = reg.threads.len();
        let name = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        let mut vc = VClock::default();
        vc.bump(t); // clock 1: distinguishes "first event" from "never seen"
        reg.threads.push(ThreadEntry {
            vc,
            held: Vec::new(),
            name,
        });
        cell.set(t);
        t
    })
}

/// Drop all recorded clocks, shared-object history and reports. Thread ids
/// (and the per-thread clocks backing them) survive, so live threads from a
/// previous enabled region stay valid.
pub fn reset() {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.locks.clear();
    reg.chans.clear();
    reg.barriers.clear();
    reg.vars.clear();
    reg.reports.clear();
    for t in &mut reg.threads {
        t.held.clear();
    }
    REPORT_COUNT.store(0, Ordering::Relaxed);
}

/// Number of races reported since the last [`reset`].
pub fn report_count() -> u64 {
    REPORT_COUNT.load(Ordering::Relaxed)
}

/// Take the retained reports (at most 64; [`report_count`] keeps the true
/// total).
pub fn take_reports() -> Vec<RaceReport> {
    std::mem::take(&mut registry().lock().unwrap_or_else(|p| p.into_inner()).reports)
}

/// Lock acquired: join the lock's release clock into the acquirer and push
/// the lock onto the held set. Returns the lock id for [`lock_release`]
/// (0 when the detector is off, making the release a no-op).
pub fn lock_acquire(slot: &AtomicU64) -> u64 {
    if !is_enabled() {
        return 0;
    }
    let id = crate::object_id(slot);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    if let Some(release_vc) = reg.locks.get(&id) {
        let release_vc = release_vc.clone();
        reg.threads[t].vc.join(&release_vc);
    }
    reg.threads[t].held.push(id);
    id
}

/// Lock released: store the holder's clock on the lock and advance the
/// holder's epoch.
pub fn lock_release(id: u64) {
    if id == 0 || !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let vc = reg.threads[t].vc.clone();
    reg.locks.insert(id, vc);
    reg.threads[t].vc.bump(t);
    if let Some(pos) = reg.threads[t].held.iter().rposition(|&x| x == id) {
        reg.threads[t].held.remove(pos);
    }
}

/// Message enqueued: fold the sender's clock into the channel's cumulative
/// clock and advance the sender's epoch. Must be called while the shim holds
/// the channel's queue lock so the edge matches the queue operation.
pub fn channel_send(slot: &AtomicU64) {
    if !is_enabled() {
        return;
    }
    let id = crate::object_id(slot);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let vc = reg.threads[t].vc.clone();
    reg.chans.entry(id).or_default().join(&vc);
    reg.threads[t].vc.bump(t);
}

/// Message dequeued: join the channel's cumulative clock into the receiver.
pub fn channel_recv(slot: &AtomicU64) {
    if !is_enabled() {
        return;
    }
    let id = crate::object_id(slot);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    if let Some(chan_vc) = reg.chans.get(&id) {
        let chan_vc = chan_vc.clone();
        reg.threads[t].vc.join(&chan_vc);
    }
}

/// Token returned by [`barrier_enter`], consumed by [`barrier_exit`].
#[derive(Debug)]
pub struct BarrierToken {
    id: u64,
    generation: u64,
}

/// Arriving at an `n`-party barrier: publish the arriver's clock into this
/// generation's accumulator. Call *before* blocking on the barrier; returns
/// `None` when the detector is off.
pub fn barrier_enter(slot: &AtomicU64, n: usize) -> Option<BarrierToken> {
    if !is_enabled() {
        return None;
    }
    let id = crate::object_id(slot);
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let vc = reg.threads[t].vc.clone();
    let bar = reg.barriers.entry(id).or_default();
    let generation = bar.arrivals / n.max(1) as u64;
    bar.accums.entry(generation).or_default().join(&vc);
    bar.arrivals += 1;
    // An exiter can lag its own generation by at most one full rotation;
    // older accumulators are dead weight.
    bar.accums.retain(|&g, _| g + 1 >= generation);
    reg.threads[t].vc.bump(t);
    Some(BarrierToken { id, generation })
}

/// Released from the barrier: absorb every arriver of the generation. Call
/// *after* the barrier wait returns.
pub fn barrier_exit(token: Option<BarrierToken>) {
    let Some(token) = token else { return };
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    if let Some(accum) = reg
        .barriers
        .get(&token.id)
        .and_then(|b| b.accums.get(&token.generation))
    {
        let accum = accum.clone();
        reg.threads[t].vc.join(&accum);
    }
}

/// Snapshot handed from a spawning thread to its children. `Clone` so a
/// spawner with `'static` children (no scope to borrow through) can hand an
/// owned copy to each.
#[derive(Clone, Debug)]
pub struct ForkPoint(Option<VClock>);

/// Clock snapshot flowing from a finished child back to the joiner.
#[derive(Debug)]
pub struct JoinPoint(Option<VClock>);

/// About to spawn child tasks: snapshot the spawner's clock (children
/// [`adopt`] it) and advance the spawner's epoch.
pub fn fork() -> ForkPoint {
    if !is_enabled() {
        return ForkPoint(None);
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let vc = reg.threads[t].vc.clone();
    reg.threads[t].vc.bump(t);
    ForkPoint(Some(vc))
}

/// Child task start: inherit the spawner's snapshot.
pub fn adopt(point: &ForkPoint) {
    let Some(vc) = &point.0 else { return };
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    reg.threads[t].vc.join(vc);
}

/// Child task end: snapshot the child's clock for the joiner and advance the
/// child's epoch.
pub fn depart() -> JoinPoint {
    if !is_enabled() {
        return JoinPoint(None);
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let vc = reg.threads[t].vc.clone();
    reg.threads[t].vc.bump(t);
    JoinPoint(Some(vc))
}

/// Join a finished child: absorb its final clock.
pub fn join(point: JoinPoint) {
    let Some(vc) = point.0 else { return };
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    reg.threads[t].vc.join(&vc);
}

/// Record an access to an annotated shared object and report it if it is
/// unordered (by happens-before) against a conflicting prior access.
///
/// Reads conflict with unordered writes; writes conflict with unordered
/// writes *and* unordered reads. The caller's source location is recorded as
/// the access site (`#[track_caller]`), and a full backtrace is captured for
/// the detecting side of any report.
#[track_caller]
pub fn access_shared(id: SharedId, kind: AccessKind) {
    if !is_enabled() {
        return;
    }
    let site = Location::caller();
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let t = tid(&mut reg);
    let my_vc = reg.threads[t].vc.clone();
    let locks = reg.threads[t].held.clone();
    let access = VarAccess {
        tid: t,
        clock: my_vc.get(t),
        kind,
        site,
        locks,
    };
    let ordered = |prior: &VarAccess| my_vc.get(prior.tid) >= prior.clock;

    // Collect conflicts before mutating the var (split borrows: vars vs
    // threads/reports below).
    let mut conflicts: Vec<VarAccess> = Vec::new();
    {
        let var = reg.vars.entry(id).or_default();
        if let Some(w) = &var.write {
            if !ordered(w) {
                conflicts.push(w.clone());
            }
        }
        if kind == AccessKind::Write {
            for r in &var.reads {
                if !ordered(r) {
                    conflicts.push(r.clone());
                }
            }
        }
        match kind {
            AccessKind::Read => {
                // Reads ordered before this one are subsumed: any later
                // write ordered after this read is (transitively) ordered
                // after them too.
                var.reads.retain(|r| my_vc.get(r.tid) < r.clock);
                if var.reads.len() < MAX_READS {
                    var.reads.push(access.clone());
                }
            }
            AccessKind::Write => {
                var.write = Some(access.clone());
                var.reads.clear();
            }
        }
    }
    if conflicts.is_empty() {
        return;
    }
    let info = |a: &VarAccess, reg: &Registry| AccessInfo {
        kind: a.kind,
        thread: reg
            .threads
            .get(a.tid)
            .map(|e| e.name.clone())
            .unwrap_or_else(|| format!("tid {}", a.tid)),
        site: a.site.to_string(),
        locks: a.locks.clone(),
    };
    for prior in conflicts {
        REPORT_COUNT.fetch_add(1, Ordering::Relaxed);
        if reg.reports.len() >= MAX_REPORTS {
            continue;
        }
        let report = RaceReport {
            object: id.to_string(),
            prior: info(&prior, &reg),
            current: info(&access, &reg),
            backtrace: Backtrace::force_capture().to_string(),
        };
        reg.reports.push(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The detector state is process-global; serialise the tests.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn with_detector(f: impl FnOnce()) {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        enable();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        disable();
        reset();
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    }

    #[test]
    fn unsynchronised_write_write_is_reported() {
        with_detector(|| {
            let id = SharedId::new("test.buf", 1);
            std::thread::scope(|s| {
                s.spawn(|| access_shared(id, AccessKind::Write));
                s.spawn(|| access_shared(id, AccessKind::Write));
            });
            assert_eq!(report_count(), 1, "exactly one unordered pair");
            let reports = take_reports();
            assert!(reports[0].object.contains("test.buf"));
        });
    }

    #[test]
    fn lock_protected_accesses_are_clean() {
        // The hooks only record a lock; mutual exclusion comes from the real
        // mutex held across acquire → access → release, with the release edge
        // published before the unlock as the parking_lot shim does. Without
        // it two threads "hold" the lock at once and the detector rightly
        // reports them. Looped, because that interleaving is rare.
        for _ in 0..200 {
            with_detector(|| {
                let id = SharedId::new("test.locked", 0);
                let slot = AtomicU64::new(0);
                let mutex = StdMutex::new(());
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        s.spawn(|| {
                            let held = mutex.lock().unwrap_or_else(|p| p.into_inner());
                            let lid = lock_acquire(&slot);
                            access_shared(id, AccessKind::Write);
                            lock_release(lid);
                            drop(held);
                        });
                    }
                });
                assert_eq!(report_count(), 0, "{:?}", take_reports());
            });
        }
    }

    #[test]
    fn channel_edge_orders_producer_and_consumer() {
        with_detector(|| {
            let id = SharedId::new("test.msg", 7);
            let chan = AtomicU64::new(0);
            let flag = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    access_shared(id, AccessKind::Write);
                    channel_send(&chan);
                    flag.store(true, Ordering::Release);
                });
                s.spawn(|| {
                    // Spin until the message is "delivered" (the real shims
                    // call the recv hook under the queue lock).
                    while !flag.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    channel_recv(&chan);
                    access_shared(id, AccessKind::Read);
                });
            });
            assert_eq!(report_count(), 0, "{:?}", take_reports());
        });
    }

    #[test]
    fn missing_channel_edge_is_a_race() {
        with_detector(|| {
            let id = SharedId::new("test.unsync", 9);
            std::thread::scope(|s| {
                s.spawn(|| access_shared(id, AccessKind::Write));
                s.spawn(|| access_shared(id, AccessKind::Read));
            });
            assert_eq!(report_count(), 1);
            let r = &take_reports()[0];
            assert!(r.prior.site.contains("race.rs"));
            assert!(r.current.site.contains("race.rs"));
        });
    }

    #[test]
    fn fork_join_orders_workers_against_parent() {
        with_detector(|| {
            let id = SharedId::new("test.forkjoin", 0);
            access_shared(id, AccessKind::Write);
            let point = fork();
            let tokens: Vec<JoinPoint> = std::thread::scope(|s| {
                (0..3)
                    .map(|_| {
                        s.spawn(|| {
                            adopt(&point);
                            access_shared(id, AccessKind::Read);
                            depart()
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            for token in tokens {
                join(token);
            }
            access_shared(id, AccessKind::Write);
            assert_eq!(report_count(), 0, "{:?}", take_reports());
        });
    }

    #[test]
    fn barrier_generations_order_both_sides() {
        with_detector(|| {
            let id = SharedId::new("test.bar", 0);
            let slot = AtomicU64::new(0);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    access_shared(id, AccessKind::Write);
                    let tok = barrier_enter(&slot, 2);
                    barrier.wait();
                    barrier_exit(tok);
                });
                s.spawn(|| {
                    let tok = barrier_enter(&slot, 2);
                    barrier.wait();
                    barrier_exit(tok);
                    access_shared(id, AccessKind::Read);
                });
            });
            assert_eq!(report_count(), 0, "{:?}", take_reports());
        });
    }

    #[test]
    fn report_names_lock_sets() {
        with_detector(|| {
            let id = SharedId::new("test.locks", 0);
            let slot_a = AtomicU64::new(0);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let lid = lock_acquire(&slot_a);
                    access_shared(id, AccessKind::Write);
                    lock_release(lid);
                    barrier.wait();
                });
                s.spawn(|| {
                    barrier.wait(); // real-time order, but no HB edge recorded
                    access_shared(id, AccessKind::Write);
                });
            });
            assert_eq!(report_count(), 1);
            let r = &take_reports()[0];
            assert_eq!(r.prior.locks.len(), 1, "prior held one lock: {r}");
            assert!(r.current.locks.is_empty(), "current held none: {r}");
            assert!(!r.backtrace.is_empty());
        });
    }

    #[test]
    fn disabled_detector_records_nothing() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        disable();
        reset();
        let id = SharedId::new("test.off", 0);
        std::thread::scope(|s| {
            s.spawn(|| access_shared(id, AccessKind::Write));
            s.spawn(|| access_shared(id, AccessKind::Write));
        });
        assert_eq!(report_count(), 0);
    }
}
