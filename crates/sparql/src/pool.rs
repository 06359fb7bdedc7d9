//! A persistent, bounded worker pool for pipeline requests.
//!
//! Every `QaService` in the `kgqan` core crate owns one: `answer_batch`,
//! queued single requests and the HTTP front-end in `kgqan-server` all run
//! on the same threads.  A pool gives an admission layer something to aim
//! at — a queue to bound, a depth to read for load shedding, and a
//! lifecycle to drain on shutdown:
//!
//! * **Bounded queue.**  Jobs wait in a FIFO of capacity
//!   [`PoolConfig::queue_bound`]; [`WorkerPool::try_submit`] *never blocks* —
//!   a full queue is reported as [`SubmitError::QueueFull`] so the caller
//!   can shed load (HTTP 503) instead of buffering unboundedly.
//! * **Observable depth.**  [`WorkerPool::queue_depth`] and
//!   [`WorkerPool::stats`] read the real queued/running counters, so a
//!   shedding threshold compares against actual backlog, not a guess.
//! * **Clean shutdown.**  [`WorkerPool::shutdown`] stops accepting new
//!   jobs, *drains* everything already accepted (queued jobs run to
//!   completion — accepted work is a promise), and joins the workers.
//!   Dropping the last handle shuts the pool down the same way, so a
//!   `QaService` owning a pool never leaks threads.
//! * **Tickets.**  [`WorkerPool::try_submit`] hands back a [`Ticket`] the
//!   caller can block on ([`Ticket::wait`] / [`Ticket::wait_timeout`]).  A
//!   job that panics poisons only its own ticket ([`Ticket::wait`] returns
//!   `None`); the worker thread survives and keeps serving the queue.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing of a [`WorkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of persistent worker threads.
    pub workers: usize,
    /// Maximum number of jobs waiting in the queue (excluding the jobs
    /// currently running on workers).  Submissions beyond the bound fail
    /// with [`SubmitError::QueueFull`].
    pub queue_bound: usize,
}

impl Default for PoolConfig {
    /// One worker per core but never fewer than four (request wall-clock is
    /// dominated by endpoint round-trips, which overlap even on one core,
    /// so sizing purely by cores would serialise IO-bound batches on small
    /// machines) and a queue of 64.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        PoolConfig {
            workers: cores.max(4),
            queue_bound: 64,
        }
    }
}

impl PoolConfig {
    /// A pool with `workers` threads and the default queue bound.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers,
            ..Default::default()
        }
    }

    /// Replace the queue bound.
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its bound; the caller should shed or retry later.
    QueueFull {
        /// The configured bound that was hit.
        bound: usize,
    },
    /// The pool is shutting down (or already shut down) and accepts no new
    /// work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { bound } => {
                write!(f, "worker queue full (bound {bound})")
            }
            SubmitError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs currently executing on workers.
    pub running: usize,
    /// Worker threads serving the pool.
    pub workers: usize,
    /// Jobs completed since the pool started (including panicked ones).
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
}

enum TicketState<T> {
    Pending,
    Done(T),
    /// The job panicked (or was lost); no value will ever arrive.
    Lost,
}

struct TicketCell<T> {
    state: Mutex<TicketState<T>>,
    ready: Condvar,
}

/// The receiving half of a submitted job: blocks until the job's result is
/// available.
pub struct Ticket<T> {
    cell: Arc<TicketCell<T>>,
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl<T> Ticket<T> {
    fn new() -> (Ticket<T>, Arc<TicketCell<T>>) {
        let cell = Arc::new(TicketCell {
            state: Mutex::new(TicketState::Pending),
            ready: Condvar::new(),
        });
        (
            Ticket {
                cell: Arc::clone(&cell),
            },
            cell,
        )
    }

    /// Block until the job finishes.  Returns `None` if the job panicked —
    /// the pool survives, only this ticket is lost.
    pub fn wait(self) -> Option<T> {
        let mut state = self
            .cell
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            match std::mem::replace(&mut *state, TicketState::Pending) {
                TicketState::Done(value) => return Some(value),
                TicketState::Lost => return None,
                TicketState::Pending => {
                    state = self
                        .cell
                        .ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Block until the job finishes or `timeout` elapses.  `Err(self)`
    /// returns the ticket on timeout so the caller can keep waiting;
    /// `Ok(None)` means the job panicked.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Option<T>, Ticket<T>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self
            .cell
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            match std::mem::replace(&mut *state, TicketState::Pending) {
                TicketState::Done(value) => return Ok(Some(value)),
                TicketState::Lost => return Ok(None),
                TicketState::Pending => {
                    let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                    if remaining.is_zero() {
                        drop(state);
                        return Err(self);
                    }
                    let (guard, _timed_out) = self
                        .cell
                        .ready
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    state = guard;
                }
            }
        }
    }
}

impl<T> TicketCell<T> {
    fn fulfil(&self, state: TicketState<T>) {
        let mut slot = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = state;
        self.ready.notify_all();
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    idle: Condvar,
    queued: AtomicUsize,
    running: AtomicUsize,
    /// Behind its own `Arc` so each queued job can count itself as done
    /// *before* fulfilling its ticket — a waiter that saw the result then
    /// always sees the counter too.
    completed: Arc<AtomicU64>,
    rejected: AtomicU64,
    workers: usize,
    queue_bound: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self
                    .queue
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutting_down {
                        return;
                    }
                    state = self
                        .job_ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            self.queued.fetch_sub(1, Ordering::Relaxed);
            self.running.fetch_add(1, Ordering::Relaxed);
            // A panicking job must not take the worker thread (and every
            // job queued behind it) down with it.
            // The job itself bumps `completed` (via its `LostOnDrop` guard
            // on the panic path) just before fulfilling its ticket.
            let _ = catch_unwind(AssertUnwindSafe(job));
            self.running.fetch_sub(1, Ordering::Relaxed);
            self.idle.notify_all();
        }
    }
}

struct PoolHandles {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl PoolHandles {
    fn shutdown(&self) {
        {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state.shutting_down = true;
        }
        // Workers drain the remaining queue before observing the flag as a
        // reason to exit, so accepted jobs still run.
        self.shared.job_ready.notify_all();
        let handles = std::mem::take(
            &mut *self
                .handles
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        // A job that drops the last handle shuts the pool down from inside
        // a worker.  That worker cannot join itself; it exits on its own
        // once its job returns and it finds the flag set.
        let current = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for PoolHandles {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A persistent, bounded worker pool.  Cloning is cheap (`Arc` inside) and
/// all clones share the same queue and workers; the pool shuts down —
/// draining accepted jobs — when [`WorkerPool::shutdown`] is called or the
/// last clone is dropped.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Arc<PoolHandles>,
}

impl WorkerPool {
    /// Spawn a pool with `config.workers` threads (at least one) and a
    /// queue bounded at `config.queue_bound`.
    pub fn new(config: PoolConfig) -> WorkerPool {
        let workers = config.workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            queued: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            completed: Arc::new(AtomicU64::new(0)),
            rejected: AtomicU64::new(0),
            workers,
            queue_bound: config.queue_bound,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("kgqan-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn worker thread"),
            );
        }
        WorkerPool {
            handles: Arc::new(PoolHandles {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            }),
            shared,
        }
    }

    /// Enqueue a job without blocking.  Returns a [`Ticket`] for the job's
    /// result, or [`SubmitError::QueueFull`] / [`SubmitError::ShuttingDown`]
    /// when the job was *not* accepted — the caller decides whether to shed,
    /// retry or fail.
    pub fn try_submit<T, F>(&self, job: F) -> Result<Ticket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (ticket, cell) = Ticket::new();
        {
            let mut state = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if state.shutting_down {
                return Err(SubmitError::ShuttingDown);
            }
            if state.jobs.len() >= self.shared.queue_bound {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    bound: self.shared.queue_bound,
                });
            }
            // If the closure panics, the catch_unwind in the worker loop
            // swallows it; the guard below marks the ticket lost so a
            // waiter wakes instead of blocking forever.
            let guard = LostOnDrop {
                cell: Some(Arc::clone(&cell)),
                completed: Arc::clone(&self.shared.completed),
            };
            state.jobs.push_back(Box::new(move || {
                let mut guard = guard;
                let value = job();
                if let Some(cell) = guard.cell.take() {
                    guard.completed.fetch_add(1, Ordering::Relaxed);
                    cell.fulfil(TicketState::Done(value));
                }
            }));
            self.shared.queued.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.job_ready.notify_one();
        Ok(ticket)
    }

    /// Jobs waiting in the queue right now (excludes running jobs) — the
    /// number an admission-control layer compares against its shedding
    /// threshold.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet finished: queued plus running.
    pub fn in_flight(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed) + self.shared.running.load(Ordering::Relaxed)
    }

    /// The configured queue bound.
    pub fn queue_bound(&self) -> usize {
        self.shared.queue_bound
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            queued: self.shared.queued.load(Ordering::Relaxed),
            running: self.shared.running.load(Ordering::Relaxed),
            workers: self.shared.workers,
            completed: self.shared.completed.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }

    /// Block until every accepted job has finished (the queue is empty and
    /// no worker is running a job).
    pub fn drain(&self) {
        let mut state = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while !state.jobs.is_empty() || self.shared.running.load(Ordering::Relaxed) > 0 {
            state = self
                .shared
                .idle
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Stop accepting new jobs, run every job already accepted to
    /// completion, and join the worker threads.  Idempotent; concurrent
    /// calls all block until the pool is down.
    pub fn shutdown(&self) {
        self.handles.shutdown();
    }

    /// True once [`WorkerPool::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .shutting_down
    }
}

/// Marks the ticket lost if the job closure never ran to completion
/// (worker panicked inside `job()`, or the queue was dropped with the job
/// still in it).
struct LostOnDrop<T> {
    cell: Option<Arc<TicketCell<T>>>,
    completed: Arc<AtomicU64>,
}

impl<T> Drop for LostOnDrop<T> {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            // Count first, then wake the waiter, so a caller that observed
            // the outcome also observes the counter.
            self.completed.fetch_add(1, Ordering::Relaxed);
            cell.fulfil(TicketState::Lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn jobs_run_and_tickets_deliver_results() {
        let pool = WorkerPool::new(PoolConfig::with_workers(2));
        let tickets: Vec<Ticket<usize>> = (0..8)
            .map(|i| pool.try_submit(move || i * i).unwrap())
            .collect();
        let results: Vec<usize> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        assert_eq!(pool.stats().completed, 8);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        // One worker, blocked on a gate; queue bound 2.
        let pool = WorkerPool::new(PoolConfig {
            workers: 1,
            queue_bound: 2,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let release = Arc::clone(&gate);
        let blocker = pool
            .try_submit(move || {
                let (lock, cvar) = &*release;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
            })
            .unwrap();
        // Wait until the worker has picked the blocker up.
        while pool.stats().running == 0 {
            std::thread::yield_now();
        }
        // Two fit in the queue, the third is rejected — immediately.
        let a = pool.try_submit(|| 1).unwrap();
        let b = pool.try_submit(|| 2).unwrap();
        let err = pool.try_submit(|| 3).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { bound: 2 });
        assert_eq!(pool.queue_depth(), 2);
        assert_eq!(pool.stats().rejected, 1);

        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        assert!(blocker.wait().is_some());
        assert_eq!(a.wait(), Some(1));
        assert_eq!(b.wait(), Some(2));
    }

    #[test]
    fn shutdown_drains_accepted_jobs_then_rejects() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 2,
            queue_bound: 64,
        });
        let ran = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<Ticket<()>> = (0..16)
            .map(|_| {
                let ran = Arc::clone(&ran);
                pool.try_submit(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap()
            })
            .collect();
        pool.shutdown();
        // Every accepted job ran to completion before shutdown returned.
        assert_eq!(ran.load(Ordering::Relaxed), 16);
        for t in tickets {
            assert!(t.wait().is_some());
        }
        // New submissions are refused.
        assert_eq!(
            pool.try_submit(|| ()).unwrap_err(),
            SubmitError::ShuttingDown
        );
        assert!(pool.is_shutting_down());
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn dropping_the_last_handle_shuts_down_cleanly() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let ticket = {
            let pool = WorkerPool::new(PoolConfig::with_workers(1));
            let t = pool
                .try_submit(move || flag.store(true, Ordering::Relaxed))
                .unwrap();
            // `pool` dropped here: the accepted job must still run.
            t
        };
        assert_eq!(ticket.wait(), Some(()));
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn job_that_drops_the_last_handle_still_delivers_its_result() {
        let pool = WorkerPool::new(PoolConfig::with_workers(1));
        let last = pool.clone();
        let (dropped_tx, dropped_rx) = std::sync::mpsc::channel::<()>();
        let ticket = pool
            .try_submit(move || {
                dropped_rx.recv().unwrap();
                // The pool shuts down on this worker's own thread.
                drop(last);
                7usize
            })
            .unwrap();
        drop(pool);
        dropped_tx.send(()).unwrap();
        assert_eq!(ticket.wait(), Some(7));
    }

    #[test]
    fn panicking_job_loses_its_ticket_but_not_the_worker() {
        let pool = WorkerPool::new(PoolConfig::with_workers(1));
        let bad = pool
            .try_submit(|| -> usize { panic!("job blew up") })
            .unwrap();
        assert_eq!(bad.wait(), None);
        // The worker survived and serves the next job.
        let good = pool.try_submit(|| 7usize).unwrap();
        assert_eq!(good.wait(), Some(7));
    }

    #[test]
    fn wait_timeout_returns_ticket_while_pending() {
        let pool = WorkerPool::new(PoolConfig::with_workers(1));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let release = Arc::clone(&gate);
        let slow = pool
            .try_submit(move || {
                let (lock, cvar) = &*release;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
                42usize
            })
            .unwrap();
        let slow = match slow.wait_timeout(Duration::from_millis(5)) {
            Err(ticket) => ticket,
            Ok(v) => panic!("expected timeout, got {v:?}"),
        };
        let (lock, cvar) = &*gate;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        assert_eq!(slow.wait(), Some(42));
    }

    #[test]
    fn drain_waits_for_queued_and_running() {
        let pool = WorkerPool::new(PoolConfig::with_workers(2));
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..12 {
            let count = Arc::clone(&count);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.drain();
        assert_eq!(count.load(Ordering::Relaxed), 12);
        assert_eq!(pool.in_flight(), 0);
    }
}
