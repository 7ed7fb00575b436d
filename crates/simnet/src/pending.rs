//! Messages that a `spyker_tensor::pool` job is still building: what a
//! computed send ([`crate::Env::send_computed`]) carries through the DES
//! until its delivery is handed over (DESIGN.md §10.5).
//!
//! A [`Pending`] holds its job until someone takes it and the job's message
//! once it has run. The job runs exactly once: on a pool worker, or on the
//! first thread that waits for it if no worker has started it. A thread
//! whose job a worker has taken runs other queued pool tasks until the job
//! is done (`WorkerPool::help_until`). A panic in a job is caught and
//! re-raised on whoever settles or waits for it, never a hang.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::runtime::WireSize;

/// What builds a pending message.
pub(crate) type Job<M> = Box<dyn FnOnce() -> M + Send>;

/// A job's panic payload until someone re-raises it.
type PanicCell = Mutex<Option<Box<dyn Any + Send>>>;

/// A message whose job may still be running, with the wire size and kind
/// its sender declared for it.
pub(crate) struct Pending<M> {
    bytes: usize,
    kind: &'static str,
    job: Mutex<Option<Job<M>>>,
    /// The job's message, from when it has run until it is settled.
    message: Mutex<Option<M>>,
    /// Set once the job has run: `true` if it panicked.
    done: OnceLock<bool>,
    /// Shared with every [`JobHandle`]: a job whose message nobody settles
    /// still reports its panic to whoever waits for it.
    panic: Arc<PanicCell>,
}

impl<M: Send + 'static> Pending<M> {
    /// A message declared as `bytes` bytes of `kind`, whose `job` is
    /// submitted to the pool before this returns (and has run, under a
    /// one-thread budget).
    pub(crate) fn spawn(bytes: usize, kind: &'static str, job: Job<M>) -> Arc<Self> {
        let pending = Arc::new(Self {
            bytes,
            kind,
            job: Mutex::new(Some(job)),
            message: Mutex::new(None),
            done: OnceLock::new(),
            panic: Arc::default(),
        });
        let queued = Arc::clone(&pending);
        spyker_tensor::pool::global().spawn(move || queued.run());
        pending
    }
}

impl<M> Pending<M> {
    /// Runs the job on this thread unless another thread has taken it.
    fn run(&self) {
        let job = lock(&self.job).take();
        if let Some(job) = job {
            let panicked = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(message) => {
                    *lock(&self.message) = Some(message);
                    false
                }
                Err(payload) => {
                    *lock(&self.panic) = Some(payload);
                    true
                }
            };
            let stored = self.done.set(panicked);
            assert!(stored.is_ok(), "only the job's taker stores its outcome");
        }
    }

    /// Returns once the job has run — running it here if no worker has
    /// taken it, and queued pool tasks meanwhile if one has — and
    /// re-raises its panic.
    fn wait(&self) {
        let panicked = match self.done.get() {
            Some(&panicked) => panicked,
            None => {
                self.run();
                // A worker has the job: run queued rounds meanwhile.
                let pool = spyker_tensor::pool::global();
                pool.help_until(|| self.done.get().is_some());
                *self.done.wait()
            }
        };
        if panicked {
            match lock(&self.panic).take() {
                Some(payload) => resume_unwind(payload),
                None => panic!("the job building this message panicked"),
            }
        }
    }

    /// A [`JobHandle`] on this message's job.
    pub(crate) fn handle(self: &Arc<Self>) -> JobHandle<M> {
        JobHandle {
            job: Arc::downgrade(self),
            panic: Arc::clone(&self.panic),
        }
    }
}

impl<M: WireSize> Pending<M> {
    /// The job's message, once it has run: the one read of it, where the
    /// DES hands its delivery over.
    ///
    /// # Panics
    ///
    /// Panics with the job's own payload if the job panicked, and if its
    /// message has another wire size or kind than the send declared.
    pub(crate) fn settle(&self) -> M {
        self.wait();
        let message = lock(&self.message)
            .take()
            .expect("a computed message is settled once");
        assert_eq!(
            (message.wire_size(), message.kind()),
            (self.bytes, self.kind),
            "a computed send's job built another message than it declared"
        );
        message
    }
}

/// Locks `cell`, which every writer leaves valid in one assignment, even
/// if a thread panicked while holding it.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle on the job of a computed send ([`crate::Env::send_computed`])
/// that does not keep its message alive: a client waits through it for its
/// previous round before the next, and for its last round when it is
/// dropped.
pub struct JobHandle<M> {
    job: Weak<Pending<M>>,
    panic: Arc<PanicCell>,
}

impl<M> JobHandle<M> {
    /// Returns once the job has run — running it here if no worker has
    /// taken it — and re-raises its panic unless a reader already did. A
    /// handle whose message is gone does not wait: a queued job keeps its
    /// message alive until it has run.
    pub fn wait(self) {
        match self.job.upgrade() {
            Some(job) => job.wait(),
            None => {
                if let Some(payload) = lock(&self.panic).take() {
                    resume_unwind(payload);
                }
            }
        }
    }
}
