//! Values of known length that a `spyker_tensor::pool` job is still
//! computing — the one mechanism behind a pending [`crate::ParamVec`] and a
//! pending [`crate::msg::Payload`] (DESIGN.md §10.5).
//!
//! A [`Pending`] holds its job until someone takes it and the job's outcome
//! once it has run. The job runs exactly once: on a pool worker, or on the
//! first reader's thread if no worker has started it. A reader whose job a
//! worker has taken runs other queued pool tasks until the value is there
//! (`WorkerPool::help_until`). A panic in a job is caught and re-raised on
//! that job's reader, never a hang.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// A value a pending job may compute: its length is declared up front and
/// checked when the job returns.
pub(crate) trait Measured: Send + Sync + 'static {
    /// What the length counts, for the panic when a job gets it wrong.
    const UNIT: &'static str;

    /// The value's length.
    fn measure(&self) -> usize;
}

/// What computes a pending value.
type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// A job's panic payload until someone re-raises it.
type PanicCell = Mutex<Option<Box<dyn Any + Send>>>;

/// The shared state of a pending value: its length, the job until someone
/// takes it, and the job's outcome once it has run.
pub(crate) struct Pending<T> {
    len: usize,
    job: Mutex<Option<Job<T>>>,
    /// The job's value, or `None` if it panicked.
    value: OnceLock<Option<T>>,
    /// Shared with every [`JobHandle`]: a job nobody reads still reports
    /// its panic to whoever waits for it.
    panic: Arc<PanicCell>,
}

impl<T: Measured> Pending<T> {
    /// A pending value of length `len` whose `job` is submitted to the pool
    /// before this returns (and has run, under a one-thread budget).
    pub(crate) fn spawn(len: usize, job: impl FnOnce() -> T + Send + 'static) -> Arc<Self> {
        let pending = Arc::new(Self {
            len,
            job: Mutex::new(Some(Box::new(job))),
            value: OnceLock::new(),
            panic: Arc::default(),
        });
        let queued = Arc::clone(&pending);
        spyker_tensor::pool::global().spawn(move || queued.run());
        pending
    }

    /// The declared length (never waits).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Runs the job on this thread unless another thread has taken it.
    fn run(&self) {
        let job = self
            .job
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(job) = job {
            let len = self.len;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let value = job();
                assert_eq!(
                    value.measure(),
                    len,
                    "a pending job changed the {}",
                    T::UNIT
                );
                value
            }));
            let value = match outcome {
                Ok(value) => Some(value),
                Err(payload) => {
                    *self.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
                    None
                }
            };
            let stored = self.value.set(value);
            assert!(stored.is_ok(), "only the job's taker stores its outcome");
        }
    }

    /// The job's value, once it has run; re-raises its panic. Out of line,
    /// so the ready arms of the hot accessors stay small.
    #[cold]
    #[inline(never)]
    pub(crate) fn get(&self) -> &T {
        let value = match self.value.get() {
            Some(value) => value,
            None => {
                self.run();
                // A worker has the job: run queued rounds meanwhile.
                let pool = spyker_tensor::pool::global();
                pool.help_until(|| self.value.get().is_some());
                self.value.wait()
            }
        };
        match value {
            Some(value) => value,
            None => match take_panic(&self.panic) {
                Some(payload) => resume_unwind(payload),
                None => panic!("the job computing this value panicked"),
            },
        }
    }

    /// A [`JobHandle`] on this value's job.
    pub(crate) fn handle(self: &Arc<Self>) -> JobHandle {
        JobHandle {
            job: Arc::downgrade(self) as Weak<dyn Wait>,
            panic: Arc::clone(&self.panic),
        }
    }
}

fn take_panic(cell: &PanicCell) -> Option<Box<dyn Any + Send>> {
    cell.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Waiting for a pending value of any type.
trait Wait: Send + Sync {
    fn wait(&self);
}

impl<T: Measured> Wait for Pending<T> {
    fn wait(&self) {
        self.get();
    }
}

/// A handle on a pending value's job that does not keep the value alive: a
/// client waits through it for its previous round before the next, and
/// for its last round when it is dropped.
pub(crate) struct JobHandle {
    job: Weak<dyn Wait>,
    panic: Arc<PanicCell>,
}

impl JobHandle {
    /// Returns once the job has run — running it here if no worker has
    /// taken it — and re-raises its panic unless a reader already did. A
    /// handle whose value is gone does not wait: a queued job keeps its
    /// value alive until it has run.
    pub(crate) fn wait(self) {
        match self.job.upgrade() {
            Some(job) => job.wait(),
            None => {
                if let Some(payload) = take_panic(&self.panic) {
                    resume_unwind(payload);
                }
            }
        }
    }
}
