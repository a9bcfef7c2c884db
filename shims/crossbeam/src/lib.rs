//! Offline drop-in replacement for the subset of the `crossbeam` API used by
//! QuaTrEx-RS: the `channel` module with unbounded MPMC channels whose
//! `Sender` and `Receiver` are both `Sync` (unlike `std::sync::mpsc`, whose
//! receiver cannot be shared behind an `Arc` across rank threads).
//!
//! Implemented as a `Mutex<VecDeque>` + `Condvar` queue — not lock-free like
//! the real crossbeam, but the simulated runtime exchanges a handful of large
//! block payloads per collective, so queue contention is negligible.
//!
//! Every send/recv publishes a happens-before edge to the
//! `quatrex_sync::race` detector (the hooks run inside the queue-mutex
//! critical section, so the cumulative per-channel clock exactly matches the
//! queue order), and threads registered with a `quatrex_sync::sched`
//! exploration session never block in the OS: receives become
//! try/`block_point` spins so the scheduler keeps control of every
//! interleaving.

pub mod channel {
    use quatrex_sync::{race, sched};
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        race_slot: AtomicU64,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            race_slot: AtomicU64::new(0),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they can error out.
                self.chan.ready.notify_all();
                // Under schedule exploration receivers spin through
                // block_point; the disconnect is the progress they retry on.
                sched::progress();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message. Never blocks.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            sched::yield_point();
            let mut q = self.chan.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(value);
            race::channel_send(&self.chan.race_slot);
            drop(q);
            self.chan.ready.notify_one();
            sched::progress();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// One locked dequeue attempt; `Ok(None)` when the queue is empty
        /// but senders remain, `Err(())` when it is empty and disconnected.
        /// The race hook runs under the queue lock, matching queue order.
        fn try_pop(&self) -> Result<Option<T>, ()> {
            let mut q = self.chan.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = q.pop_front() {
                race::channel_recv(&self.chan.race_slot);
                return Ok(Some(v));
            }
            if self.chan.senders.load(Ordering::Acquire) == 0 {
                return Err(());
            }
            Ok(None)
        }

        /// Dequeue a message, blocking for at most `timeout`. Returns
        /// [`RecvTimeoutError::Timeout`] when the deadline passes with the
        /// channel still empty — the hook the checked runtime uses to poll a
        /// deadlock detector instead of blocking a rank forever.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            if sched::is_registered() {
                // Wall-clock deadlines would make the schedule
                // nondeterministic: under exploration, one failed retry
                // after a progress-wake stands in for the timeout.
                sched::yield_point();
                for attempt in 0..2 {
                    match self.try_pop() {
                        Ok(Some(v)) => {
                            sched::progress();
                            return Ok(v);
                        }
                        Err(()) => return Err(RecvTimeoutError::Disconnected),
                        Ok(None) if attempt == 0 => sched::block_point(),
                        Ok(None) => {}
                    }
                }
                return Err(RecvTimeoutError::Timeout);
            }
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self.chan.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    race::channel_recv(&self.chan.race_slot);
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, timed_out) = self
                    .chan
                    .ready
                    .wait_timeout(q, left)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
                if timed_out.timed_out() && q.is_empty() {
                    if self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        const WAIT: std::time::Duration = std::time::Duration::from_secs(5);

        #[test]
        fn messages_arrive_in_order() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            for i in 0..100 {
                assert_eq!(rx.recv_timeout(WAIT).unwrap(), i);
            }
        }

        #[test]
        fn receiver_is_sync_behind_arc() {
            let (tx, rx) = unbounded::<u32>();
            let rx = Arc::new(rx);
            let handle = {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || rx.recv_timeout(WAIT).unwrap())
            };
            tx.send(42).unwrap();
            assert_eq!(handle.join().unwrap(), 42);
        }

        #[test]
        fn recv_errors_once_senders_are_gone() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv_timeout(WAIT), Ok(1));
            assert_eq!(rx.recv_timeout(WAIT), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn recv_timeout_returns_messages_and_times_out() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(9).unwrap();
            let short = std::time::Duration::from_millis(5);
            assert_eq!(rx.recv_timeout(short), Ok(9));
            assert_eq!(rx.recv_timeout(short), Err(RecvTimeoutError::Timeout));
            drop(tx);
            assert_eq!(rx.recv_timeout(short), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn recv_timeout_wakes_on_late_send() {
            let (tx, rx) = unbounded::<u8>();
            let handle = std::thread::spawn(move || {
                rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap()
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(3).unwrap();
            assert_eq!(handle.join().unwrap(), 3);
        }
    }
}
