//! Shared-memory collective communication.
//!
//! [`ThreadComm`] runs `n_ranks` closures on scoped OS threads — the only
//! threads library code starts — and gives each of them a [`RankContext`]
//! with the collective operations: `alltoallv` (the energy↔element data
//! transposition of Fig. 3, and the gathers behind the rank-count-independent
//! ordered reductions of the SCBA loop: mixer rows, truncation maxima, the
//! final spectral gather), `allreduce_sum` and `barrier`. Every operation records
//! the number of bytes a real network would have carried, so the
//! weak-scaling model can be driven by measured volumes rather than
//! estimates.
//!
//! The all-to-all exchange also exists in a split, non-blocking form
//! ([`RankContext::alltoallv_start_tagged`] returning a [`CommHandle`]): the sends
//! are posted immediately and the receives are deferred until
//! [`CommHandle::wait`], so a rank can compute while a batch of messages is
//! in flight — the communication/computation overlap of the paper's
//! energy-batched transpositions.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
// lint:allow(no-raw-sync): the one thread start of library code; each rank adopts the launcher's race clock and joins back in `ThreadComm::launch`
use std::thread::{scope, Builder};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use quatrex_sync::race::{self, AccessKind, SharedId};
use quatrex_sync::sched;

/// Race-detector id of one in-flight `alltoallv` message: communicator
/// (24 bits), source and destination ranks (10 bits each), posting sequence
/// (20 bits). The sender annotates a `Write` before posting, the receiver a
/// `Read` after delivery — ordered through the channel's happens-before
/// edge in a correct run, and a named race when a mutation severs that edge.
fn wire_id(comm: u64, src: usize, dest: usize, seq: u64) -> u64 {
    ((comm & 0xff_ffff) << 40)
        | (((src as u64) & 0x3ff) << 30)
        | (((dest as u64) & 0x3ff) << 20)
        | (seq & 0xf_ffff)
}

/// What a rank is currently blocked on, reported to the
/// [`CollectiveObserver`] on every poll tick while the block lasts. The
/// observer turns these reports into a wait-for graph: a diagnosed deadlock
/// is returned as an `Err`, which panics the rank with the diagnostic
/// instead of hanging the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// Blocked in [`RankContext::barrier`] (or the internal barrier of
    /// [`RankContext::allreduce_sum`]) until every rank arrives.
    Barrier,
    /// Blocked in [`CommHandle::wait`] until the `seq`-th collective's
    /// message from rank `src` arrives.
    Recv {
        /// The source rank whose message is outstanding.
        src: usize,
        /// Posting sequence number of the exchange being completed.
        seq: u64,
    },
}

/// Which synchronising collective a sequence entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// A plain [`RankContext::barrier`].
    Barrier,
    /// An [`RankContext::allreduce_sum`].
    Allreduce,
}

/// Hooks a collective verifier installs around [`ThreadComm::run`]. Every
/// method returning `Result` may report a diagnosed violation as `Err`; the
/// runtime panics the offending rank with that diagnostic (a *named* failure
/// instead of a hang or silent corruption). Implementations must be
/// internally synchronised — ranks call concurrently.
///
/// The production implementation is `quatrex_check::CollectiveChecker`; the
/// runtime only defines the seam so the checker crate can stay out of every
/// non-CI build.
pub trait CollectiveObserver: Send + Sync {
    /// An `alltoallv` was posted: `per_dest_bytes[j]` is the
    /// declared wire size of the message to rank `j` (self included).
    fn on_post(
        &self,
        rank: usize,
        seq: u64,
        phase: CommPhase,
        per_dest_bytes: &[u64],
    ) -> Result<(), String>;

    /// A [`CommHandle::wait`] completed: `per_src_bytes[i]` is the wire size
    /// of the message actually received from rank `i`, measured on the
    /// receiver with its own sizing function.
    fn on_wait_end(&self, rank: usize, seq: u64, per_src_bytes: &[u64]) -> Result<(), String>;

    /// The rank reached a synchronising collective (barrier / allreduce).
    fn on_sync_enter(&self, rank: usize, kind: SyncKind) -> Result<(), String>;

    /// The synchronising collective completed on this rank.
    fn on_sync_exit(&self, rank: usize);

    /// Called on every poll tick while the rank is blocked; `Err` aborts the
    /// rank with the diagnostic (deadlock detection).
    fn on_blocked(&self, rank: usize, blocked: BlockedOn) -> Result<(), String>;

    /// A [`CommHandle`] was dropped without being waited (a leaked
    /// exchange). `Err` carries the leak diagnostic.
    fn on_handle_leak(&self, rank: usize, seq: u64, phase: CommPhase) -> Result<(), String>;

    /// The rank's closure returned with `outstanding` exchanges un-waited.
    fn on_rank_exit(&self, rank: usize, outstanding: u64) -> Result<(), String>;

    /// All ranks joined: final cross-rank verification (sequence equality,
    /// leak summary).
    fn on_comm_done(&self) -> Result<(), String>;
}

/// Factory invoked by [`ThreadComm::run`] to create one observer per
/// communicator, keyed by rank count.
pub type ObserverFactory = dyn Fn(usize) -> Arc<dyn CollectiveObserver> + Send + Sync;

fn observer_factory() -> &'static std::sync::RwLock<Option<Arc<ObserverFactory>>> {
    static FACTORY: OnceLock<std::sync::RwLock<Option<Arc<ObserverFactory>>>> = OnceLock::new();
    FACTORY.get_or_init(|| std::sync::RwLock::new(None))
}

/// Install (or clear, with `None`) a process-global observer factory; every
/// subsequent [`ThreadComm::run`] wraps its collectives with a fresh observer
/// from it. `quatrex_check::install_collective_checker` uses this to put the
/// verifier under every existing solver entry point without threading a
/// parameter through the stack.
pub fn set_observer_factory(factory: Option<Arc<ObserverFactory>>) {
    *observer_factory()
        .write()
        .unwrap_or_else(|p| p.into_inner()) = factory;
}

fn current_observer(n_ranks: usize) -> Option<Arc<dyn CollectiveObserver>> {
    observer_factory()
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(|f| f(n_ranks))
}

/// Poll interval of every blocking wait: long enough to stay off the hot
/// path (a tick only happens when a rank is already stalled), short enough
/// that a panicked peer or a diagnosed deadlock surfaces promptly.
const POLL_TICK: Duration = Duration::from_millis(20);

/// A barrier whose waiters poll on every tick instead of blocking
/// indefinitely, so a panicked peer or a deadlock ends the wait rather than
/// hanging it.
struct PollBarrier {
    // The poll barrier is the deadlock *diagnoser*; routing it through the
    // instrumented shim would make the watchdog's own blocking show up in the
    // lock-order and race reports it exists to keep clean.
    // lint:allow(no-raw-sync): see above.
    state: std::sync::Mutex<(usize, u64)>,
    ready: Condvar,
    n: usize,
}

impl PollBarrier {
    fn new(n: usize) -> Self {
        Self {
            // lint:allow(no-raw-sync): see the field declaration above.
            state: std::sync::Mutex::new((0, 0)),
            ready: Condvar::new(),
            n,
        }
    }

    /// Wait for all `n` ranks, invoking `on_tick` on every poll interval. An
    /// `Err` from the tick aborts the wait by panicking with the diagnostic.
    fn wait(&self, mut on_tick: impl FnMut() -> Result<(), String>) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let generation = s.1;
        s.0 += 1;
        if s.0 == self.n {
            s.0 = 0;
            s.1 += 1;
            drop(s);
            self.ready.notify_all();
            return;
        }
        while s.1 == generation {
            let (guard, timeout) = self
                .ready
                .wait_timeout(s, POLL_TICK)
                .unwrap_or_else(|p| p.into_inner());
            s = guard;
            if s.1 != generation {
                break;
            }
            if timeout.timed_out() {
                if let Err(diagnostic) = on_tick() {
                    drop(s);
                    panic!("{diagnostic}");
                }
            }
        }
    }
}

/// Value of a communicator's poison flag while no rank has unwound; after
/// that it holds the rank that unwound first.
const CLEAN: usize = usize::MAX;

/// The SCBA phase an `alltoall`/`alltoallv` belongs to. Tagging each call
/// site splits the [`CommStats`] byte totals by transposition (fwd-G / bwd-P
/// / fwd-W / bwd-Σ / spatial / gathers) instead of one aggregate, and names
/// the probe post/wait events so the merged timeline can attribute every
/// in-flight window to a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPhase {
    /// Forward energy→element transposition of `G` (before the `P` step).
    FwdG,
    /// Backward element→energy transposition of `P` (before the `W` step).
    BwdP,
    /// Forward energy→element transposition of `W` (before the `Σ` step).
    FwdW,
    /// Backward element→energy transposition of `Σ` (closing the cycle).
    BwdSigma,
    /// Every exchange of the `P_S > 1` group solve: the block-range
    /// distribution, the reduced updates, the reduced solutions and the
    /// recovered ranges.
    Spatial,
    /// The small ordered gathers of the SCBA loop: the mix rows, the
    /// truncation maximum and the final spectral data.
    Gathers,
    /// Anything outside the SCBA phases (microbenchmarks, unit tests).
    Other,
}

impl CommPhase {
    /// Every phase, in `CommPhase::index` order.
    pub const ALL: [CommPhase; 7] = [
        CommPhase::FwdG,
        CommPhase::BwdP,
        CommPhase::FwdW,
        CommPhase::BwdSigma,
        CommPhase::Spatial,
        CommPhase::Gathers,
        CommPhase::Other,
    ];

    /// Dense index into per-phase counter arrays (the declaration order,
    /// which is also the order of [`CommPhase::ALL`]).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            CommPhase::FwdG => "fwd_g",
            CommPhase::BwdP => "bwd_p",
            CommPhase::FwdW => "fwd_w",
            CommPhase::BwdSigma => "bwd_sigma",
            CommPhase::Spatial => "spatial",
            CommPhase::Gathers => "gathers",
            CommPhase::Other => "other",
        }
    }

    /// Probe mark name recorded when the exchange is posted.
    pub fn post_name(self) -> &'static str {
        match self {
            CommPhase::FwdG => "alltoallv.post.fwd_g",
            CommPhase::BwdP => "alltoallv.post.bwd_p",
            CommPhase::FwdW => "alltoallv.post.fwd_w",
            CommPhase::BwdSigma => "alltoallv.post.bwd_sigma",
            CommPhase::Spatial => "alltoallv.post.spatial",
            CommPhase::Gathers => "alltoallv.post.gathers",
            CommPhase::Other => "alltoallv.post.other",
        }
    }

    /// Probe span name recorded around the blocking wait.
    pub fn wait_name(self) -> &'static str {
        match self {
            CommPhase::FwdG => "alltoallv.wait.fwd_g",
            CommPhase::BwdP => "alltoallv.wait.bwd_p",
            CommPhase::FwdW => "alltoallv.wait.fwd_w",
            CommPhase::BwdSigma => "alltoallv.wait.bwd_sigma",
            CommPhase::Spatial => "alltoallv.wait.spatial",
            CommPhase::Gathers => "alltoallv.wait.gathers",
            CommPhase::Other => "alltoallv.wait.other",
        }
    }
}

/// Aggregate communication statistics of one [`ThreadComm`] run.
#[derive(Debug, Default)]
pub struct CommStats {
    /// Bytes moved by all `alltoall`/`alltoallv` calls.
    pub alltoall_bytes: AtomicU64,
    /// Bytes moved by all `allreduce_sum` calls.
    pub allreduce_bytes: AtomicU64,
    /// Number of collective calls of any kind.
    pub n_collectives: AtomicU64,
    /// Rank-pinned accounting: bytes *sent off-rank* by each rank through
    /// `alltoall`/`alltoallv`, indexed by rank. Empty until the communicator
    /// is created. The busiest entry bounds the wall-clock of a real network
    /// Alltoall, so the spread between
    /// [`CommStats::max_alltoall_bytes_per_rank`] and the mean diagnoses
    /// partition imbalance.
    pub per_rank_alltoall_bytes: Vec<AtomicU64>,
    /// Off-rank `alltoall`/`alltoallv` bytes split by [`CommPhase`], indexed
    /// by `CommPhase::index`. Always has [`CommPhase::ALL`] entries.
    pub alltoall_bytes_per_phase: Vec<AtomicU64>,
}

impl CommStats {
    fn with_ranks(n_ranks: usize) -> Self {
        Self {
            per_rank_alltoall_bytes: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            alltoall_bytes_per_phase: CommPhase::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Off-rank Alltoall bytes attributed to one phase (0 when the
    /// communicator predates phase accounting).
    pub fn phase_bytes(&self, phase: CommPhase) -> u64 {
        self.alltoall_bytes_per_phase
            .get(phase.index())
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// `(label, bytes)` per phase, in [`CommPhase::ALL`] order.
    pub fn phase_breakdown(&self) -> Vec<(&'static str, u64)> {
        CommPhase::ALL
            .iter()
            .map(|&p| (p.label(), self.phase_bytes(p)))
            .collect()
    }

    /// Off-rank Alltoall bytes sent by each rank.
    pub(crate) fn alltoall_bytes_by_rank(&self) -> Vec<u64> {
        self.per_rank_alltoall_bytes
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Off-rank Alltoall bytes sent by the busiest rank (0 for a single rank).
    pub fn max_alltoall_bytes_per_rank(&self) -> u64 {
        self.alltoall_bytes_by_rank().into_iter().max().unwrap_or(0)
    }
}

type Mailbox<T> = Arc<Vec<Vec<(Sender<T>, Receiver<T>)>>>;

/// Per-rank handle passed to the rank closure.
pub struct RankContext<T: Send + 'static> {
    rank: usize,
    n_ranks: usize,
    mailboxes: Mailbox<T>,
    /// The rendezvous barrier; its waits poll on every tick.
    poll_barrier: Arc<PollBarrier>,
    /// The communicator's poison flag: [`CLEAN`], or the first rank whose
    /// closure unwound. Every blocking wait reads it on each poll tick, so
    /// one panicking rank unwinds all of them.
    poison: Arc<AtomicUsize>,
    /// Barrier used when this rank is registered with a
    /// `quatrex_sync::sched` exploration session: arrivals spin through
    /// `block_point` instead of blocking in the OS, so the scheduler keeps
    /// control of the interleaving.
    yield_barrier: Arc<sched::YieldBarrier>,
    observer: Option<Arc<dyn CollectiveObserver>>,
    /// `n_ranks × N` values of the allreduce in flight, rank-major.
    reduce_slots: Arc<Mutex<Vec<f64>>>,
    stats: Arc<CommStats>,
    /// Identity of this communicator in race-detector annotations.
    comm_id: u64,
    /// Race-detector identity slot of the rendezvous barrier (shared by all
    /// ranks of the communicator).
    barrier_race_slot: Arc<AtomicU64>,
    /// Sequence number handed to the next [`RankContext::alltoallv_start_tagged`].
    next_post_seq: Cell<u64>,
    /// Sequence number the next [`CommHandle::wait`] must present. The
    /// per-pair channels are FIFO, so in-flight exchanges are matched purely
    /// by posting order — waits must therefore happen in that same order.
    next_wait_seq: Cell<u64>,
}

impl<T: Send + 'static> Drop for RankContext<T> {
    /// Every exchange must be completed before the rank closure returns: an
    /// un-waited handle leaves its peers' messages queued and would
    /// desynchronise any later run sharing the channels. Skipped when the
    /// rank is already panicking (the original diagnostic wins).
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let outstanding = self.outstanding_exchanges();
        if let Some(obs) = &self.observer {
            if let Err(diagnostic) = obs.on_rank_exit(self.rank, outstanding) {
                panic!("{diagnostic}");
            }
        }
        assert_eq!(
            outstanding, 0,
            "rank {} exited ThreadComm::run with {} un-waited exchange(s)",
            self.rank, outstanding
        );
    }
}

/// An in-flight non-blocking all-to-all started by
/// [`RankContext::alltoallv_start_tagged`]: the sends have been posted, the receives
/// are deferred until [`CommHandle::wait`].
///
/// Handles must be waited **in posting order** (the channel pairs are FIFO,
/// so ordering is the matching rule — like MPI's non-overtaking guarantee),
/// and every handle must be waited before the rank issues any other
/// message-carrying collective; both rules are
/// enforced by assertions. Dropping a handle without waiting would leave the
/// peers' messages queued and desynchronise every later collective.
#[must_use = "an un-waited alltoallv leaves its messages queued and breaks every later collective"]
pub struct CommHandle<T: Send + 'static> {
    seq: u64,
    rank: usize,
    phase: CommPhase,
    bytes: u64,
    waited: bool,
    /// Receiver-side sizing function, captured only when an observer is
    /// installed: [`CommHandle::wait`] sizes every received message with it
    /// so the checker can compare declared-sent vs actually-received bytes.
    sizer: Option<Box<dyn Fn(&T) -> usize>>,
    observer: Option<Arc<dyn CollectiveObserver>>,
    /// The emptied send vector: [`CommHandle::wait`] returns the received
    /// messages in it, so an exchange allocates no vector of its own.
    received: Vec<T>,
}

impl<T: Send + 'static> Drop for CommHandle<T> {
    /// Dropping an un-waited handle silently loses the exchange: the peers'
    /// messages stay queued and every later collective on this rank receives
    /// the wrong batch. Flag it loudly — through the observer when one is
    /// installed (the checker records it as a leak and names rank + posting
    /// seq), and as a debug panic otherwise.
    fn drop(&mut self) {
        if self.waited || std::thread::panicking() {
            return;
        }
        if let Some(obs) = &self.observer {
            if let Err(diagnostic) = obs.on_handle_leak(self.rank, self.seq, self.phase) {
                panic!("{diagnostic}");
            }
            // The observer recorded the leak and chose not to abort; it owns
            // the reporting policy, so skip the unconditional debug panic.
            return;
        }
        debug_assert!(
            false,
            "CommHandle dropped without wait (rank {}, posting seq {}, phase {}): \
             the exchange's messages are lost and every later collective desynchronises",
            self.rank,
            self.seq,
            self.phase.label()
        );
    }
}

impl<T: Send + 'static> RankContext<T> {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Block until every rank reached this point.
    pub fn barrier(&self) {
        if let Some(obs) = &self.observer {
            if let Err(diagnostic) = obs.on_sync_enter(self.rank, SyncKind::Barrier) {
                panic!("{diagnostic}");
            }
            self.barrier_wait_raw();
            obs.on_sync_exit(self.rank);
        } else {
            self.barrier_wait_raw();
        }
    }

    /// The barrier wait itself, without logging a sequence entry — the
    /// internal synchronisation of [`RankContext::allreduce_sum`] uses this
    /// so an allreduce counts as *one* entry in the collective sequence.
    fn barrier_wait_raw(&self) {
        // Race semantics of a barrier: everything before any rank's entry
        // happens-before everything after every rank's exit. The enter hook
        // publishes this rank's clock into the generation's accumulator, the
        // exit hook joins the accumulated clock of all ranks.
        let token = race::barrier_enter(&self.barrier_race_slot, self.n_ranks);
        if sched::is_registered() {
            // Under schedule exploration no rank may block in the OS — the
            // yield-barrier spins through the scheduler's block points.
            self.yield_barrier.wait();
        } else {
            self.poll_barrier
                .wait(|| self.blocked_tick(BlockedOn::Barrier));
        }
        race::barrier_exit(token);
    }

    /// Variable-size all-to-all personalised exchange (the `Alltoallv` of the
    /// energy↔element data transposition, whose per-destination messages are
    /// unequal whenever the element or energy partitions are unbalanced).
    ///
    /// `send[j]` goes to rank `j`; the returned vector contains one entry from
    /// every rank (index = source). `wire_bytes` reports the wire size of one
    /// message for the byte accounting — it is called once per destination, so
    /// messages of different sizes are accounted exactly. Off-rank bytes are
    /// also pinned to this rank in [`CommStats::per_rank_alltoall_bytes`] and
    /// to `phase` in [`CommStats::phase_breakdown`]: every message-carrying
    /// collective names its [`CommPhase`], so the byte totals and the probe
    /// timeline always split by phase.
    ///
    /// This is literally [`RankContext::alltoallv_start_tagged`] followed by
    /// an immediate [`CommHandle::wait`], so the blocking path and a
    /// single-batch pipeline execute identical code.
    pub fn alltoallv_tagged(
        &self,
        send: Vec<T>,
        wire_bytes: impl Fn(&T) -> usize + 'static,
        phase: CommPhase,
    ) -> Vec<T> {
        self.alltoallv_start_tagged(send, wire_bytes, phase)
            .wait(self)
    }

    /// Post the sends of a variable-size all-to-all and return immediately;
    /// the receives happen in [`CommHandle::wait`]. Between `start` and
    /// `wait` the rank is free to compute — that window is the
    /// communication/computation overlap of the energy-batched
    /// transpositions.
    ///
    /// Several exchanges may be in flight at once, but they are matched by
    /// posting order (FIFO channels): handles must be waited in the order
    /// they were started, and all of them before any other message-carrying
    /// collective. Byte and collective counts are recorded at post time. The
    /// post is recorded as an instantaneous probe mark carrying the off-rank
    /// byte count; the matching [`CommHandle::wait`] records a span, so the
    /// merged timeline sees the full in-flight window of every exchange.
    pub fn alltoallv_start_tagged(
        &self,
        mut send: Vec<T>,
        wire_bytes: impl Fn(&T) -> usize + 'static,
        phase: CommPhase,
    ) -> CommHandle<T> {
        assert_eq!(
            send.len(),
            self.n_ranks,
            "alltoall needs one message per destination"
        );
        let seq = self.next_post_seq.get();
        if let Some(obs) = &self.observer {
            // Declare the full per-destination byte row (self included)
            // before anything hits the wire: a diagnosed sequence mismatch
            // panics *here*, before this rank's messages can corrupt its
            // peers' FIFO matching.
            let row: Vec<u64> = send.iter().map(|m| wire_bytes(m) as u64).collect();
            if let Err(diagnostic) = obs.on_post(self.rank, seq, phase, &row) {
                panic!("{diagnostic}");
            }
        }
        let mut moved_bytes = 0u64;
        for (dest, msg) in send.drain(..).enumerate() {
            if dest != self.rank {
                moved_bytes += wire_bytes(&msg) as u64;
            }
            // Annotate the outgoing message payload before it is posted: the
            // channel's send/recv happens-before edge must order this write
            // against the receiver's read in CommHandle::wait.
            race::access_shared(
                SharedId::new("comm.wire", wire_id(self.comm_id, self.rank, dest, seq)),
                AccessKind::Write,
            );
            self.mailboxes[dest][self.rank]
                .0
                .send(msg)
                .expect("peer alive"); // lint:allow(no-unwrap): rank threads outlive the run; a dead peer means a rank already panicked
        }
        self.stats
            .alltoall_bytes
            .fetch_add(moved_bytes, Ordering::Relaxed);
        self.stats.per_rank_alltoall_bytes[self.rank].fetch_add(moved_bytes, Ordering::Relaxed);
        if let Some(slot) = self.stats.alltoall_bytes_per_phase.get(phase.index()) {
            slot.fetch_add(moved_bytes, Ordering::Relaxed);
        }
        self.stats.n_collectives.fetch_add(1, Ordering::Relaxed);
        quatrex_probe::mark(phase.post_name(), quatrex_probe::CAT_COMM_POST, moved_bytes);
        self.next_post_seq.set(seq + 1);
        CommHandle {
            seq,
            rank: self.rank,
            phase,
            bytes: moved_bytes,
            waited: false,
            sizer: self
                .observer
                .is_some()
                .then(|| Box::new(wire_bytes) as Box<dyn Fn(&T) -> usize>),
            observer: self.observer.clone(),
            received: send,
        }
    }

    /// Number of exchanges started but not yet waited on this rank.
    pub fn outstanding_exchanges(&self) -> u64 {
        self.next_post_seq.get() - self.next_wait_seq.get()
    }

    /// One poll tick of a blocked wait: `Err` ends the wait. A peer that
    /// unwound ends it first; otherwise the observer, when one is
    /// installed, may diagnose the block as a deadlock.
    fn blocked_tick(&self, blocked: BlockedOn) -> Result<(), String> {
        let peer = self.poison.load(Ordering::Acquire);
        if peer != CLEAN {
            return Err(format!(
                "rank {}: peer rank {peer} panicked while this rank was blocked ({blocked:?})",
                self.rank
            ));
        }
        match &self.observer {
            Some(obs) => obs.on_blocked(self.rank, blocked),
            None => Ok(()),
        }
    }

    /// Receive one message from `src` for exchange `seq`: a timeout loop
    /// that runs [`RankContext::blocked_tick`] on every tick, so a panicked
    /// peer or an unmatched collective ends the wait instead of hanging the
    /// run.
    fn recv_from(&self, src: usize, seq: u64) -> T {
        let rx = &self.mailboxes[self.rank][src].1;
        loop {
            match rx.recv_timeout(POLL_TICK) {
                Ok(msg) => return msg,
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("rank {}: peer {src} disconnected mid-collective", self.rank)
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Err(diagnostic) = self.blocked_tick(BlockedOn::Recv { src, seq }) {
                        panic!("{diagnostic}");
                    }
                }
            }
        }
    }

    /// Sum-reduction of one `f64` across all ranks; every rank receives the
    /// sum. The `N = 1` call of `RankContext::allreduce_sums`.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce_sums([value])[0]
    }

    /// Component-wise sum-reduction of `N` values across all ranks in **one**
    /// collective; every rank receives the sums. Each component is summed in
    /// rank order, so a fused reduction returns bit for bit what `N`
    /// back-to-back scalar reductions would. Every rank must pass the same
    /// `N`.
    pub(crate) fn allreduce_sums<const N: usize>(&self, values: [f64; N]) -> [f64; N] {
        if let Some(obs) = &self.observer {
            if let Err(diagnostic) = obs.on_sync_enter(self.rank, SyncKind::Allreduce) {
                panic!("{diagnostic}");
            }
        }
        let bytes = (8 * N) as u64 * (self.n_ranks as u64 - 1);
        let sums = quatrex_probe::span_bytes("allreduce", "comm.allreduce", bytes, || {
            {
                let mut slots = self.reduce_slots.lock();
                race::access_shared(
                    SharedId::new("comm.reduce_slot", (self.comm_id << 16) | self.rank as u64),
                    AccessKind::Write,
                );
                // The first arriver sizes the slots for this reduction's
                // width; the previous reduction's closing barrier ordered
                // every read of the old contents before this write.
                slots.resize(self.n_ranks * N, 0.0);
                slots[self.rank * N..][..N].copy_from_slice(&values);
            }
            self.stats
                .allreduce_bytes
                .fetch_add(bytes, Ordering::Relaxed);
            self.stats.n_collectives.fetch_add(1, Ordering::Relaxed);
            self.barrier_wait_raw();
            let sums = {
                let slots = self.reduce_slots.lock();
                // Each peer's slot write is ordered against this read by
                // the barrier between them (and by the slots lock).
                for peer in 0..self.n_ranks {
                    race::access_shared(
                        SharedId::new("comm.reduce_slot", (self.comm_id << 16) | peer as u64),
                        AccessKind::Read,
                    );
                }
                std::array::from_fn(|c| slots.iter().skip(c).step_by(N).sum())
            };
            self.barrier_wait_raw();
            sums
        });
        if let Some(obs) = &self.observer {
            obs.on_sync_exit(self.rank);
        }
        sums
    }
}

impl<T: Send + 'static> CommHandle<T> {
    /// Complete the exchange: receive one message from every rank (index =
    /// source). Panics when called out of posting order — the FIFO channel
    /// pairs match in-flight messages purely by that order.
    ///
    /// The receive loop is recorded as a probe span named by the handle's
    /// [`CommPhase`] and carrying its off-rank byte count; together with the
    /// post mark, the timeline can reconstruct every in-flight window.
    pub fn wait(mut self, ctx: &RankContext<T>) -> Vec<T> {
        let (phase, bytes, seq) = (self.phase, self.bytes, self.seq);
        let sizer = self.sizer.take();
        let mut out = std::mem::take(&mut self.received);
        self.waited = true;
        drop(self); // Drop is a no-op once `waited` is set
        quatrex_probe::span_bytes(
            phase.wait_name(),
            quatrex_probe::CAT_COMM_WAIT,
            bytes,
            || {
                assert_eq!(
                    seq,
                    ctx.next_wait_seq.get(),
                    "alltoallv handles must be waited in posting order"
                );
                ctx.next_wait_seq.set(seq + 1);
                for src in 0..ctx.n_ranks {
                    out.push(ctx.recv_from(src, seq));
                    // The matching read of the sender's pre-post write: clean
                    // exactly when the channel edge ordered the two.
                    race::access_shared(
                        SharedId::new("comm.wire", wire_id(ctx.comm_id, src, ctx.rank, seq)),
                        AccessKind::Read,
                    );
                }
                if let (Some(obs), Some(sizer)) = (&ctx.observer, &sizer) {
                    let row: Vec<u64> = out.iter().map(|m| sizer(m) as u64).collect();
                    if let Err(diagnostic) = obs.on_wait_end(ctx.rank, seq, &row) {
                        panic!("{diagnostic}");
                    }
                }
                out
            },
        )
    }
}

/// A communicator whose ranks are OS threads.
pub struct ThreadComm;

impl ThreadComm {
    /// Run `f` on `n_ranks` threads and collect the per-rank results in rank
    /// order, together with the communication statistics:
    /// [`ThreadComm::run_each`] with no per-rank state.
    ///
    /// When a process-global observer factory is installed (see
    /// [`set_observer_factory`]) the run is wrapped with a fresh observer —
    /// this is how `quatrex-check` slides its collective verifier under every
    /// existing solver entry point.
    pub fn run<T, R, F>(n_ranks: usize, f: F) -> (Vec<R>, Arc<CommStats>)
    where
        T: Send + 'static,
        R: Send,
        F: Fn(RankContext<T>) -> R + Sync,
    {
        Self::run_with_observer(n_ranks, current_observer(n_ranks), f)
    }

    /// [`ThreadComm::run`] with an explicit [`CollectiveObserver`] wrapped
    /// around every collective call. A rank whose observer diagnoses a
    /// violation panics with the diagnostic; the panic payload is re-raised
    /// here so the named diagnosis (not a generic join error) reaches the
    /// caller.
    pub fn run_with_observer<T, R, F>(
        n_ranks: usize,
        observer: Option<Arc<dyn CollectiveObserver>>,
        f: F,
    ) -> (Vec<R>, Arc<CommStats>)
    where
        T: Send + 'static,
        R: Send,
        F: Fn(RankContext<T>) -> R + Sync,
    {
        Self::launch(vec![(); n_ranks], observer, |ctx, ()| f(ctx))
    }

    /// Run `f` on one thread per entry of `states`, rank `r` receiving
    /// `states[r]` by value, and collect the per-rank results in rank order,
    /// together with the communication statistics. The ranks are scoped
    /// threads: closure, states and results may borrow from the caller.
    ///
    /// A rank whose closure panics unwinds every other rank: each blocking
    /// wait sees the communicator's poison flag within one poll tick. The
    /// run then re-raises the payload of the rank that panicked first, not a
    /// peer's secondary panic. An installed observer factory wraps the run
    /// as in [`ThreadComm::run`].
    pub fn run_each<T, S, R, F>(states: Vec<S>, f: F) -> (Vec<R>, Arc<CommStats>)
    where
        T: Send + 'static,
        S: Send,
        R: Send,
        F: Fn(RankContext<T>, S) -> R + Sync,
    {
        let observer = current_observer(states.len());
        Self::launch(states, observer, f)
    }

    /// The one rank spawn loop of every run.
    fn launch<T, S, R, F>(
        states: Vec<S>,
        observer: Option<Arc<dyn CollectiveObserver>>,
        f: F,
    ) -> (Vec<R>, Arc<CommStats>)
    where
        T: Send + 'static,
        S: Send,
        R: Send,
        F: Fn(RankContext<T>, S) -> R + Sync,
    {
        let n_ranks = states.len();
        assert!(n_ranks >= 1);
        let mailboxes: Mailbox<T> = Arc::new(
            (0..n_ranks)
                .map(|_| (0..n_ranks).map(|_| unbounded()).collect::<Vec<_>>())
                .collect(),
        );
        let poll_barrier = Arc::new(PollBarrier::new(n_ranks));
        let poison = Arc::new(AtomicUsize::new(CLEAN));
        let yield_barrier = Arc::new(sched::YieldBarrier::new(n_ranks));
        let reduce_slots = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(CommStats::with_ranks(n_ranks));
        static NEXT_COMM_ID: AtomicU64 = AtomicU64::new(1);
        let comm_id = NEXT_COMM_ID.fetch_add(1, Ordering::Relaxed);
        let barrier_race_slot = Arc::new(AtomicU64::new(0));
        // When the caller runs inside a schedule-exploration session, the
        // rank threads register with it: the scheduler serialises them and
        // enumerates their interleavings. `expect` must precede the spawns.
        let session = sched::current();
        if let Some(s) = &session {
            // SessionHandle::expect declares the thread count the explorer
            // waits for — it is not an Option unwrap.
            // lint:allow(no-unwrap): see above.
            s.expect(n_ranks);
        }
        // Everything the caller did before this point happens-before every
        // rank body (fork/adopt), and every rank body happens-before the
        // caller's continuation after the joins (depart/join).
        let fork_point = race::fork();

        let (f, poison_flag) = (&f, &poison);
        let mut results = Vec::with_capacity(n_ranks);
        let mut panics = Vec::new();
        scope(|s| {
            let handles: Vec<_> = states
                .into_iter()
                .enumerate()
                .map(|(rank, state)| {
                    let ctx = RankContext {
                        rank,
                        n_ranks,
                        mailboxes: Arc::clone(&mailboxes),
                        poll_barrier: Arc::clone(&poll_barrier),
                        poison: Arc::clone(&poison),
                        yield_barrier: Arc::clone(&yield_barrier),
                        observer: observer.clone(),
                        reduce_slots: Arc::clone(&reduce_slots),
                        stats: Arc::clone(&stats),
                        next_post_seq: Cell::new(0),
                        next_wait_seq: Cell::new(0),
                        comm_id,
                        barrier_race_slot: Arc::clone(&barrier_race_slot),
                    };
                    let session = session.clone();
                    let fork_point = fork_point.clone();
                    Builder::new()
                        .name(format!("quatrex-rank-{rank}"))
                        .spawn_scoped(s, move || {
                            let _session = session.map(|s| s.enter(rank as u64));
                            race::adopt(&fork_point);
                            let body = std::panic::AssertUnwindSafe(|| f(ctx, state));
                            let out = std::panic::catch_unwind(body);
                            if out.is_err() {
                                // Only the first rank to unwind is recorded.
                                let (acq_rel, acq) = (Ordering::AcqRel, Ordering::Acquire);
                                let _ = poison_flag.compare_exchange(CLEAN, rank, acq_rel, acq);
                            }
                            (out, race::depart())
                        })
                        .expect("spawn rank thread") // lint:allow(no-unwrap): thread spawn only fails on resource exhaustion
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((Ok(r), join_point)) => {
                        race::join(join_point);
                        results.push(r);
                    }
                    Ok((Err(payload), _)) | Err(payload) => panics.push((rank, payload)),
                }
            }
        });
        if !panics.is_empty() {
            let first = poison.load(Ordering::Acquire);
            let at = panics.iter().position(|(r, _)| *r == first);
            std::panic::resume_unwind(panics.swap_remove(at.unwrap_or(0)).1);
        }
        if let Some(obs) = &observer {
            if let Err(diagnostic) = obs.on_comm_done() {
                panic!("{diagnostic}");
            }
        }
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_transposes_ownership() {
        // Rank r sends the value 100*r + dest to rank dest; afterwards rank d
        // must hold [100*src + d for src in 0..n].
        let n = 4;
        let (results, stats) = ThreadComm::run(n, move |ctx: RankContext<u64>| {
            let send: Vec<u64> = (0..ctx.n_ranks())
                .map(|d| 100 * ctx.rank() as u64 + d as u64)
                .collect();
            ctx.alltoallv_tagged(send, |_| 8, CommPhase::Other)
        });
        for (dest, got) in results.iter().enumerate() {
            for (src, v) in got.iter().enumerate() {
                assert_eq!(*v, 100 * src as u64 + dest as u64);
            }
        }
        // Each rank sends (n-1) off-rank messages of 8 bytes.
        assert_eq!(
            stats.alltoall_bytes.load(Ordering::Relaxed),
            (n * (n - 1) * 8) as u64
        );
        assert_eq!(stats.n_collectives.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let n = 5;
        let (results, _) = ThreadComm::run(n, move |ctx: RankContext<()>| {
            ctx.allreduce_sum((ctx.rank() + 1) as f64)
        });
        for r in results {
            assert_eq!(r, (1..=n as u64).sum::<u64>() as f64);
        }
    }

    #[test]
    fn fused_allreduce_matches_the_scalar_reductions_bit_for_bit() {
        // One collective of width 2 returns what two scalar reductions do —
        // the same rank-ordered sums — and counts as one collective; widths
        // may alternate between calls.
        let n = 4;
        let value = |rank: usize, c: usize| 0.1 * (rank + 1) as f64 / (c + 3) as f64;
        let (results, stats) = ThreadComm::run(n, move |ctx: RankContext<()>| {
            let r = ctx.rank();
            let scalar = [0, 1].map(|c| ctx.allreduce_sum(value(r, c)));
            let fused = ctx.allreduce_sums([value(r, 0), value(r, 1)]);
            (scalar, fused, ctx.allreduce_sum(1.0))
        });
        for (scalar, fused, ones) in results {
            assert_eq!(scalar.map(f64::to_bits), fused.map(f64::to_bits));
            assert_eq!(ones, n as f64);
        }
        assert_eq!(stats.n_collectives.load(Ordering::Relaxed), 4 * n as u64);
        assert_eq!(
            stats.allreduce_bytes.load(Ordering::Relaxed),
            (n * (n - 1) * 8 * 5) as u64
        );
    }

    #[test]
    fn repeated_collectives_interleave_correctly() {
        let n = 3;
        let (results, stats) = ThreadComm::run(n, move |ctx: RankContext<f64>| {
            let mut acc = 0.0;
            for round in 0..4 {
                let send: Vec<f64> = vec![ctx.rank() as f64 + round as f64; ctx.n_ranks()];
                let recv = ctx.alltoallv_tagged(send, |_| 8, CommPhase::Other);
                acc += recv.iter().sum::<f64>();
                acc = ctx.allreduce_sum(acc);
            }
            acc
        });
        // All ranks must agree after the final allreduce.
        assert!(results.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert!(load(&stats.alltoall_bytes) + load(&stats.allreduce_bytes) > 0);
    }

    #[test]
    fn alltoallv_accounts_variable_message_sizes_per_rank() {
        // Rank r sends a vector of length r+1 to every destination: the wire
        // accounting must see (n-1)·(r+1)·8 off-rank bytes pinned to rank r.
        let n = 3;
        let (results, stats) = ThreadComm::run(n, move |ctx: RankContext<Vec<u64>>| {
            let send: Vec<Vec<u64>> = (0..ctx.n_ranks())
                .map(|_| vec![ctx.rank() as u64; ctx.rank() + 1])
                .collect();
            ctx.alltoallv_tagged(send, |m| 8 * m.len(), CommPhase::Other)
        });
        for got in &results {
            for (src, msg) in got.iter().enumerate() {
                assert_eq!(msg.len(), src + 1);
                assert!(msg.iter().all(|&v| v == src as u64));
            }
        }
        let by_rank = stats.alltoall_bytes_by_rank();
        for (r, bytes) in by_rank.iter().enumerate() {
            assert_eq!(*bytes, ((n - 1) * (r + 1) * 8) as u64, "rank {r}");
        }
        assert_eq!(
            stats.max_alltoall_bytes_per_rank(),
            ((n - 1) * n * 8) as u64
        );
        assert_eq!(
            stats.alltoall_bytes.load(Ordering::Relaxed),
            by_rank.iter().sum::<u64>()
        );
    }

    #[test]
    fn nonblocking_exchanges_overlap_and_match_by_posting_order() {
        // Two exchanges in flight at once: batch 0 and batch 1 are posted
        // before either is waited. FIFO matching must deliver batch 0's
        // messages to the first wait and batch 1's to the second, on every
        // rank, regardless of thread interleaving.
        let n = 4;
        let (results, stats) = ThreadComm::run(n, move |ctx: RankContext<Vec<u64>>| {
            let batch = |b: u64| -> Vec<Vec<u64>> {
                (0..ctx.n_ranks())
                    .map(|d| vec![1000 * b + 10 * ctx.rank() as u64 + d as u64])
                    .collect()
            };
            let h0 = ctx.alltoallv_start_tagged(batch(0), |m| 8 * m.len(), CommPhase::Other);
            let h1 = ctx.alltoallv_start_tagged(batch(1), |m| 8 * m.len(), CommPhase::Other);
            assert_eq!(ctx.outstanding_exchanges(), 2);
            let r0 = h0.wait(&ctx);
            assert_eq!(ctx.outstanding_exchanges(), 1);
            let r1 = h1.wait(&ctx);
            assert_eq!(ctx.outstanding_exchanges(), 0);
            (r0, r1)
        });
        for (dest, (r0, r1)) in results.iter().enumerate() {
            for src in 0..n {
                assert_eq!(r0[src], vec![10 * src as u64 + dest as u64]);
                assert_eq!(r1[src], vec![1000 + 10 * src as u64 + dest as u64]);
            }
        }
        // Both exchanges' off-rank bytes were accounted at post time.
        assert_eq!(
            stats.alltoall_bytes.load(Ordering::Relaxed),
            (2 * n * (n - 1) * 8) as u64
        );
        assert_eq!(stats.n_collectives.load(Ordering::Relaxed), 2 * n as u64);
    }

    #[test]
    fn blocking_alltoallv_still_works_after_a_nonblocking_round() {
        // A pipeline of non-blocking batches followed by an ordinary blocking
        // collective must stay correctly matched.
        let n = 3;
        let (results, _) = ThreadComm::run(n, move |ctx: RankContext<u64>| {
            let h = ctx.alltoallv_start_tagged(
                vec![ctx.rank() as u64; ctx.n_ranks()],
                |_| 8,
                CommPhase::Other,
            );
            let first = h.wait(&ctx);
            let second = ctx.alltoallv_tagged(
                vec![100 + ctx.rank() as u64; ctx.n_ranks()],
                |_| 8,
                CommPhase::Other,
            );
            (first, second)
        });
        for (first, second) in results {
            assert_eq!(first, (0..n as u64).collect::<Vec<_>>());
            assert_eq!(second, (100..100 + n as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn out_of_order_wait_is_rejected() {
        let (results, _) = ThreadComm::run(1, move |ctx: RankContext<u8>| {
            let h0 = ctx.alltoallv_start_tagged(vec![1], |_| 1, CommPhase::Other);
            let h1 = ctx.alltoallv_start_tagged(vec![2], |_| 1, CommPhase::Other);
            // Waiting h1 before h0 violates the FIFO matching rule.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h1.wait(&ctx)))
                .expect_err("out-of-order wait must panic");
            std::panic::set_hook(hook);
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            // Drain the queues in the correct order so the run ends cleanly.
            let _ = h0.wait(&ctx);
            let h1 = CommHandle {
                seq: 1,
                rank: 0,
                phase: CommPhase::Other,
                bytes: 0,
                waited: false,
                sizer: None,
                observer: None,
                received: Vec::new(),
            };
            let _ = h1.wait(&ctx);
            msg
        });
        assert!(
            results[0].contains("posting order"),
            "unexpected panic message: {}",
            results[0]
        );
    }

    #[test]
    fn phase_tags_split_alltoall_bytes() {
        let n = 3;
        let (_, stats) = ThreadComm::run(n, move |ctx: RankContext<u64>| {
            let v: Vec<u64> = vec![ctx.rank() as u64; ctx.n_ranks()];
            let _ = ctx.alltoallv_tagged(v.clone(), |_| 8, CommPhase::FwdG);
            let h = ctx.alltoallv_start_tagged(v.clone(), |_| 8, CommPhase::BwdSigma);
            let _ = h.wait(&ctx);
            let _ = ctx.alltoallv_tagged(v, |_| 8, CommPhase::Other);
        });
        let per_phase = (n * (n - 1) * 8) as u64;
        assert_eq!(stats.phase_bytes(CommPhase::FwdG), per_phase);
        assert_eq!(stats.phase_bytes(CommPhase::BwdSigma), per_phase);
        assert_eq!(stats.phase_bytes(CommPhase::Other), per_phase);
        assert_eq!(stats.phase_bytes(CommPhase::FwdW), 0);
        // The phase split partitions the aggregate total exactly.
        let split: u64 = stats.phase_breakdown().iter().map(|&(_, b)| b).sum();
        assert_eq!(split, stats.alltoall_bytes.load(Ordering::Relaxed));
    }

    #[test]
    fn tagged_exchanges_record_probe_post_and_wait_events() {
        let n = 2;
        let (results, _) = ThreadComm::run(n, move |ctx: RankContext<u64>| {
            quatrex_probe::install(ctx.rank(), std::time::Instant::now());
            let v: Vec<u64> = vec![7; ctx.n_ranks()];
            let h = ctx.alltoallv_start_tagged(v, |_| 16, CommPhase::FwdW);
            let _ = h.wait(&ctx);
            quatrex_probe::finish().expect("probe installed")
        });
        for trace in results {
            let posts: Vec<_> = trace
                .marks
                .iter()
                .filter(|m| m.cat == quatrex_probe::CAT_COMM_POST)
                .collect();
            let waits: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.cat == quatrex_probe::CAT_COMM_WAIT)
                .collect();
            assert_eq!(posts.len(), 1);
            assert_eq!(waits.len(), 1);
            assert_eq!(posts[0].name, "alltoallv.post.fwd_w");
            assert_eq!(waits[0].name, "alltoallv.wait.fwd_w");
            // One off-rank message of 16 bytes.
            assert_eq!(posts[0].bytes, 16);
            assert_eq!(waits[0].bytes, 16);
        }
    }

    #[test]
    fn run_each_hands_rank_r_its_state_and_returns_results_in_rank_order() {
        // The ranks finish in reverse order; the results still come back in
        // rank order, each rank holding the state it was handed.
        let n = 4;
        let states: Vec<String> = (0..n).map(|r| format!("state-{r}")).collect();
        let (results, _) = ThreadComm::run_each(states, |ctx: RankContext<()>, state| {
            ctx.barrier();
            let delay = 5 * (ctx.n_ranks() - 1 - ctx.rank()) as u64;
            std::thread::sleep(Duration::from_millis(delay));
            (ctx.rank(), state)
        });
        let expected: Vec<_> = (0..n).map(|r| (r, format!("state-{r}"))).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn run_each_ranks_borrow_the_callers_stack() {
        // The closure reads a slice of the caller's stack frame and every
        // rank writes through its own mutable borrow of the caller's buffer.
        let n = 3;
        let offsets = [10u64, 20, 30];
        let mut out = vec![0u64; 2 * n];
        let states: Vec<&mut [u64]> = out.chunks_mut(2).collect();
        let (sums, _) = ThreadComm::run_each(states, |ctx: RankContext<()>, mine| {
            let r = ctx.rank();
            mine.fill(offsets[r] + r as u64);
            ctx.allreduce_sum(offsets[r] as f64)
        });
        assert_eq!(out, [10, 10, 21, 21, 32, 32]);
        assert!(sums.iter().all(|&s| s == 60.0));
    }

    /// Run `wait` on rank 0 while rank 1 panics, each rank told its role by
    /// its [`ThreadComm::run_each`] state. The run must end within 10 s and
    /// re-raise rank 1's payload, not rank 0's secondary panic. Whether
    /// rank 1 unwinds before or after rank 0 starts waiting, rank 0 leaves
    /// its wait through the same poll-tick check.
    fn a_panicking_peer_unwinds(wait: fn(&RankContext<u64>)) {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let err = std::panic::catch_unwind(|| {
                let fails = vec![false, true];
                ThreadComm::run_each(fails, move |ctx: RankContext<u64>, fails| {
                    if fails {
                        panic!("rank 1 failed");
                    }
                    wait(&ctx);
                })
            })
            .expect_err("the panic reaches the caller");
            let _ = tx.send(err.downcast_ref::<&str>().map(|s| s.to_string()));
        });
        let payload = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the run ended within 10 s");
        run.join().expect("the runner thread returned");
        assert_eq!(payload.as_deref(), Some("rank 1 failed"));
    }

    #[test]
    fn a_panicking_rank_unwinds_a_peer_blocked_in_alltoallv() {
        a_panicking_peer_unwinds(|ctx| {
            ctx.alltoallv_tagged(vec![0; ctx.n_ranks()], |_| 8, CommPhase::Other);
        });
    }

    #[test]
    fn a_panicking_rank_unwinds_a_peer_blocked_in_a_barrier() {
        a_panicking_peer_unwinds(|ctx| ctx.barrier());
    }

    #[test]
    fn a_panicking_rank_unwinds_a_peer_blocked_in_allreduce() {
        a_panicking_peer_unwinds(|ctx| {
            ctx.allreduce_sum(1.0);
        });
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let (results, stats) = ThreadComm::run(1, move |ctx: RankContext<u32>| {
            let out = ctx.alltoallv_tagged(vec![7], |_| 4, CommPhase::Other);
            ctx.barrier();
            (out[0], ctx.allreduce_sum(2.5))
        });
        assert_eq!(results[0].0, 7);
        assert_eq!(results[0].1, 2.5);
        // Nothing leaves the rank.
        assert_eq!(stats.alltoall_bytes.load(Ordering::Relaxed), 0);
    }
}
