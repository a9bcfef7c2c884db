//! MUST-style runtime verification of the [`quatrex_runtime`] collectives.
//!
//! [`CollectiveChecker`] implements the runtime's
//! [`CollectiveObserver`] seam and validates, while a [`ThreadComm`] run is
//! executing, the cross-rank invariants that MPI correctness tools (MUST,
//! Marmot) check for real MPI programs:
//!
//! * **Sequence equality** — every rank issues the same sequence of
//!   collectives (same kind, same [`CommPhase`] tag, same position). A
//!   mismatch panics the offending rank with both ranks' recent traces the
//!   moment the diverging collective is issued, instead of desynchronising
//!   the FIFO channels and corrupting every later exchange.
//! * **Byte-matrix consistency** — for every `alltoallv`, the bytes rank `i`
//!   declared for destination `j` must equal the bytes rank `j` actually
//!   received from `i` (re-measured on the receiver with its own sizing
//!   function), catching wire-format disagreements between call sites.
//! * **Completion** — every `alltoallv_start` is waited exactly once; a
//!   handle dropped without waiting is reported as a leak naming the rank,
//!   posting sequence and phase.
//! * **Deadlock detection** — blocked ranks report their wait condition on
//!   every poll tick (a constant 20 ms in the runtime); when every rank is
//!   exited or provably stuck the checker reports the wait-for cycle
//!   instead of letting the run hang.
//!
//! The deadlock verdict is false-positive-safe against stale reports: a rank
//! blocked on `Recv { src, seq }` is only *stuck* if `src` has posted at most
//! `seq` collectives — if the message was in fact delivered, `src`'s post
//! count already exceeds `seq` and the rank counts as progressable. The
//! same holds for a barrier or allreduce, an exchange of one value with
//! every rank: once every rank has entered that step, each has sent its
//! value and the wait ends, even if a peer has exited since. An all-ranks
//! barrier wait is never a deadlock by itself (the `n`-th arrival releases
//! it), so a pure-barrier snapshot with no exited rank is treated as
//! transient.
//!
//! [`ThreadComm`]: quatrex_runtime::ThreadComm

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
// lint:allow(no-raw-sync): the checker's own state, written by every rank's observer callbacks; verification tooling, not a data path of the solver
use std::sync::{Arc, Mutex as StdMutex};

use quatrex_runtime::{BlockedOn, CollectiveObserver, CommPhase, SyncKind};

/// One entry of a rank's collective sequence log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqEntry {
    /// An `alltoallv`-family post with its phase tag.
    Post(CommPhase),
    /// A synchronising collective (barrier / allreduce).
    Sync(SyncKind),
}

impl fmt::Display for SeqEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqEntry::Post(phase) => write!(f, "alltoallv[{}]", phase.label()),
            SeqEntry::Sync(SyncKind::Barrier) => write!(f, "barrier"),
            SeqEntry::Sync(SyncKind::Allreduce) => write!(f, "allreduce"),
        }
    }
}

/// What the checker last heard from a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    Running,
    Blocked(BlockedOn),
    Done,
}

struct State {
    /// Per-rank sequence of collectives, compared entry-by-entry.
    seq_log: Vec<Vec<SeqEntry>>,
    /// Number of `alltoallv` posts per rank (deadlock satisfiability).
    posts: Vec<u64>,
    /// Declared per-destination wire bytes: `(src rank, posting seq) → row`.
    rows: HashMap<(usize, u64), Vec<u64>>,
    /// Posting seqs each rank has completed a wait for (double-wait guard).
    waited: Vec<HashMap<u64, u32>>,
    /// Leaked handles: (rank, posting seq, phase).
    leaks: Vec<(usize, u64, CommPhase)>,
    states: Vec<RankState>,
    /// First diagnosed violation; every later observer call re-reports it so
    /// all ranks exit within one poll tick instead of hanging.
    abort: Option<String>,
}

/// Collective verifier installed around `ThreadComm::run` (see module docs).
pub struct CollectiveChecker {
    n_ranks: usize,
    state: StdMutex<State>,
    verified: AtomicU64,
}

/// Render the tail of a rank's sequence log for a diagnostic.
fn trace(log: &[SeqEntry]) -> String {
    const TAIL: usize = 8;
    let start = log.len().saturating_sub(TAIL);
    let entries: Vec<String> = log[start..]
        .iter()
        .enumerate()
        .map(|(i, e)| format!("[{}] {}", start + i, e))
        .collect();
    let prefix = if start > 0 { "... " } else { "" };
    format!("{prefix}{}", entries.join(", "))
}

impl CollectiveChecker {
    /// A fresh checker for one communicator of `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        Self {
            n_ranks,
            state: StdMutex::new(State {
                seq_log: vec![Vec::new(); n_ranks],
                posts: vec![0; n_ranks],
                rows: HashMap::new(),
                waited: vec![HashMap::new(); n_ranks],
                leaks: Vec::new(),
                states: vec![RankState::Running; n_ranks],
                abort: None,
            }),
            verified: AtomicU64::new(0),
        }
    }

    /// Number of collective events this checker has validated so far — lets
    /// tests assert the checker actually observed the run.
    pub fn events_verified(&self) -> u64 {
        self.verified.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record a sequence entry for `rank` and cross-check it against every
    /// rank that already issued a collective at the same position.
    fn record_entry(&self, st: &mut State, rank: usize, entry: SeqEntry) -> Result<(), String> {
        let idx = st.seq_log[rank].len();
        st.seq_log[rank].push(entry);
        for other in 0..self.n_ranks {
            if other == rank {
                continue;
            }
            if let Some(&theirs) = st.seq_log[other].get(idx) {
                if theirs != entry {
                    let diagnostic = format!(
                        "collective sequence mismatch at step {idx}: rank {rank} issued \
                         {entry} but rank {other} issued {theirs}.\n  rank {rank} trace: {}\n  \
                         rank {other} trace: {}",
                        trace(&st.seq_log[rank]),
                        trace(&st.seq_log[other]),
                    );
                    st.abort = Some(diagnostic.clone());
                    return Err(diagnostic);
                }
            }
        }
        Ok(())
    }

    /// Deadlock verdict over the current rank states (see module docs for
    /// the satisfiability rules). Called with every rank's latest state while
    /// at least one rank is blocked.
    fn deadlock_check(&self, st: &mut State) -> Result<(), String> {
        if st.states.iter().any(|s| matches!(s, RankState::Running)) {
            return Ok(());
        }
        // Fixpoint: which blocked ranks can still make progress?
        let mut progressable = vec![false; self.n_ranks];
        loop {
            let mut changed = false;
            for rank in 0..self.n_ranks {
                if progressable[rank] {
                    continue;
                }
                let can = match st.states[rank] {
                    RankState::Blocked(BlockedOn::Recv { src, seq }) => st.posts[src] > seq,
                    RankState::Blocked(BlockedOn::Barrier) => {
                        // A rank sends its value right after entering the
                        // step; a blocked or exited peer at or past it has.
                        let step = st.seq_log[rank].len();
                        (0..self.n_ranks).all(|o| st.seq_log[o].len() >= step)
                            || (0..self.n_ranks).any(|o| o != rank && progressable[o])
                    }
                    _ => false,
                };
                if can {
                    progressable[rank] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let stuck: Vec<usize> = (0..self.n_ranks)
            .filter(|&r| matches!(st.states[r], RankState::Blocked(_)) && !progressable[r])
            .collect();
        if stuck.is_empty() {
            return Ok(());
        }
        // An all-ranks barrier always releases (the n-th arrival wakes the
        // rest), so a pure-barrier snapshot with every rank alive is a
        // transient poll artefact, not a deadlock.
        let any_done = st.states.iter().any(|s| matches!(s, RankState::Done));
        let all_stuck_on_barrier = stuck
            .iter()
            .all(|&r| matches!(st.states[r], RankState::Blocked(BlockedOn::Barrier)));
        if all_stuck_on_barrier && !any_done {
            return Ok(());
        }
        let mut lines = Vec::with_capacity(self.n_ranks);
        for rank in 0..self.n_ranks {
            let line = match st.states[rank] {
                RankState::Done => format!("rank {rank}: exited"),
                RankState::Blocked(BlockedOn::Barrier) => {
                    format!("rank {rank}: blocked in barrier, waiting for every rank to arrive")
                }
                RankState::Blocked(BlockedOn::Recv { src, seq }) => format!(
                    "rank {rank}: blocked waiting for the message of exchange seq {seq} from \
                     rank {src} (rank {src} has posted {} exchange(s){})",
                    st.posts[src],
                    if matches!(st.states[src], RankState::Done) {
                        " and has exited"
                    } else {
                        ""
                    }
                ),
                RankState::Running => format!("rank {rank}: running"),
            };
            lines.push(format!("  {line}"));
        }
        let diagnostic = format!(
            "deadlock detected: no rank can make progress. Wait-for cycle:\n{}",
            lines.join("\n")
        );
        st.abort = Some(diagnostic.clone());
        Err(diagnostic)
    }
}

impl CollectiveObserver for CollectiveChecker {
    fn on_post(
        &self,
        rank: usize,
        seq: u64,
        phase: CommPhase,
        per_dest_bytes: &[u64],
    ) -> Result<(), String> {
        let mut st = self.lock();
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        st.states[rank] = RankState::Running;
        if per_dest_bytes.len() != self.n_ranks {
            let d = format!(
                "rank {rank} posted an alltoallv with {} destination(s) on a {}-rank \
                 communicator",
                per_dest_bytes.len(),
                self.n_ranks
            );
            st.abort = Some(d.clone());
            return Err(d);
        }
        self.record_entry(&mut st, rank, SeqEntry::Post(phase))?;
        st.posts[rank] = seq + 1;
        st.rows.insert((rank, seq), per_dest_bytes.to_vec());
        self.verified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn on_wait_end(&self, rank: usize, seq: u64, per_src_bytes: &[u64]) -> Result<(), String> {
        let mut st = self.lock();
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        st.states[rank] = RankState::Running;
        let count = st.waited[rank].entry(seq).or_insert(0);
        *count += 1;
        if *count > 1 {
            let d = format!("rank {rank} waited twice on the exchange posted at seq {seq}");
            st.abort = Some(d.clone());
            return Err(d);
        }
        for (src, &received) in per_src_bytes.iter().enumerate() {
            let declared = st.rows.get(&(src, seq)).map(|row| row[rank]);
            match declared {
                None => {
                    let d = format!(
                        "rank {rank} completed the wait for exchange seq {seq}, but rank {src} \
                         never posted that exchange"
                    );
                    st.abort = Some(d.clone());
                    return Err(d);
                }
                Some(declared) if declared != received => {
                    let d = format!(
                        "alltoallv byte-matrix mismatch at exchange seq {seq}: rank {src} \
                         declared {declared} wire byte(s) for destination rank {rank}, but rank \
                         {rank} measured {received} byte(s) in the received message"
                    );
                    st.abort = Some(d.clone());
                    return Err(d);
                }
                Some(_) => {}
            }
        }
        self.verified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn on_sync_enter(&self, rank: usize, kind: SyncKind) -> Result<(), String> {
        let mut st = self.lock();
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        st.states[rank] = RankState::Running;
        self.record_entry(&mut st, rank, SeqEntry::Sync(kind))?;
        self.verified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn on_sync_exit(&self, rank: usize) {
        let mut st = self.lock();
        if !matches!(st.states[rank], RankState::Done) {
            st.states[rank] = RankState::Running;
        }
    }

    fn on_blocked(&self, rank: usize, blocked: BlockedOn) -> Result<(), String> {
        let mut st = self.lock();
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        st.states[rank] = RankState::Blocked(blocked);
        self.deadlock_check(&mut st)
    }

    fn on_handle_leak(&self, rank: usize, seq: u64, phase: CommPhase) -> Result<(), String> {
        let mut st = self.lock();
        st.leaks.push((rank, seq, phase));
        let d = format!(
            "leaked CommHandle: rank {rank} dropped the alltoallv posted at seq {seq} (phase \
             {}) without waiting — the exchange's messages stay queued and every later \
             collective on this rank would receive the wrong batch",
            phase.label()
        );
        st.abort = Some(d.clone());
        Err(d)
    }

    fn on_rank_exit(&self, rank: usize, outstanding: u64) -> Result<(), String> {
        let mut st = self.lock();
        st.states[rank] = RankState::Done;
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        if outstanding > 0 {
            let d = format!(
                "rank {rank} exited ThreadComm::run with {outstanding} un-waited exchange(s)"
            );
            st.abort = Some(d.clone());
            return Err(d);
        }
        Ok(())
    }

    fn on_comm_done(&self) -> Result<(), String> {
        let st = self.lock();
        if let Some(d) = &st.abort {
            return Err(d.clone());
        }
        let len0 = st.seq_log[0].len();
        for rank in 1..self.n_ranks {
            let len = st.seq_log[rank].len();
            if len != len0 {
                let (longer, shorter) = if len > len0 { (rank, 0) } else { (0, rank) };
                return Err(format!(
                    "collective sequence length mismatch: rank {longer} issued {} collective(s) \
                     but rank {shorter} issued only {}.\n  rank {longer} trace: {}",
                    st.seq_log[longer].len(),
                    st.seq_log[shorter].len(),
                    trace(&st.seq_log[longer]),
                ));
            }
        }
        if !st.leaks.is_empty() {
            let items: Vec<String> = st
                .leaks
                .iter()
                .map(|(r, s, p)| format!("rank {r} seq {s} phase {}", p.label()))
                .collect();
            return Err(format!(
                "{} leaked CommHandle(s): {}",
                st.leaks.len(),
                items.join("; ")
            ));
        }
        Ok(())
    }
}

/// Install a process-global factory so every subsequent
/// [`ThreadComm::run`](quatrex_runtime::ThreadComm::run) is verified by a
/// fresh [`CollectiveChecker`]. Idempotent; undo with
/// [`uninstall_collective_checker`].
pub fn install_collective_checker() {
    quatrex_runtime::set_observer_factory(Some(Arc::new(|n_ranks| {
        Arc::new(CollectiveChecker::new(n_ranks)) as Arc<dyn CollectiveObserver>
    })));
}

/// Remove the process-global checker factory installed by
/// [`install_collective_checker`].
pub fn uninstall_collective_checker() {
    quatrex_runtime::set_observer_factory(None);
}
