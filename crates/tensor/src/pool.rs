//! Persistent worker pool for data-parallel tensor kernels.
//!
//! The pool backs the row-band parallel GEMM driver in [`crate::gemm`]. It
//! is a classic shared-queue design: a fixed set of detached worker threads
//! block on one `std::sync::mpsc` channel; a parallel region submits one
//! type-erased closure per band, runs the first band on the calling thread,
//! and blocks on a countdown latch until every band has finished. Workers
//! are spawned lazily (first parallel region pays the spawn cost once) and
//! live for the rest of the process, so steady-state dispatch is one channel
//! send per band — no thread creation on the hot path.
//!
//! The same workers take detached jobs ([`WorkerPool::spawn`]): work whose
//! submitter does not wait for it and that reports through what it
//! captured — `spyker-simnet`'s DES runs whole client training rounds this
//! way, as the jobs of computed sends. A parallel region started *on* a
//! worker, by such a job, runs all its jobs on that thread: with one
//! worker the region would otherwise wait for a band that no free worker
//! can take. Kernels compute the same bits at
//! every thread count (DESIGN.md §10.2), so that changes nothing but speed.
//!
//! A thread that must wait for pool work first works for the pool
//! ([`WorkerPool::help_until`]): `run_scoped` before it sleeps on its
//! latch, and `spyker-simnet`'s computed sends before they sleep on a job
//! a worker has taken, run queued tasks on the waiting thread. Workers
//! still block in `recv` holding the receiver's lock; a helper only `try_lock`s
//! it and never blocks on the queue, so an idle worker (which holds the
//! lock, and so means the queue is empty) sends the helper straight back to
//! its wait. A helped task runs exactly as on a worker (`run_task`), and
//! which thread runs a task never changes its bits (DESIGN.md §10.5).
//!
//! Sizing: [`configured_threads`] reads the `SPYKER_THREADS` environment
//! variable once (`0` or `1` forces single-threaded operation, higher values
//! cap the worker count) and otherwise uses
//! [`std::thread::available_parallelism`]. Kernels may also request an
//! explicit thread count, which the determinism tests use to pin runs at 1,
//! 2 and 4 threads.
//!
//! This is the only module in the crate that uses `unsafe`: scoped closures
//! are lifetime-erased before crossing the channel. The safety argument is
//! confined to [`WorkerPool::run_scoped`].

#![allow(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A closure that has been lifetime-erased for the trip across the channel.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    /// The parallel region waiting for this job; `None` for a detached job.
    latch: Option<Arc<Latch>>,
}

thread_local! {
    /// `true` on the pool's own worker threads.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Countdown latch: the submitting thread waits until every task of its
/// parallel region has reported in, panicked or not.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_open(&self) -> bool {
        *self.remaining.lock().expect("latch poisoned") > 0
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch poisoned");
        }
    }
}

/// The persistent pool. One global instance lives behind [`global`].
pub struct WorkerPool {
    sender: Sender<Task>,
    receiver: Arc<Mutex<Receiver<Task>>>,
    /// Number of worker threads spawned so far (grows lazily).
    spawned: Mutex<usize>,
}

impl WorkerPool {
    fn new() -> Self {
        let (sender, receiver) = channel();
        Self {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            spawned: Mutex::new(0),
        }
    }

    /// Makes sure at least `want` workers exist (capped at 64).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(64);
        let mut spawned = self.spawned.lock().expect("pool poisoned");
        while *spawned < want {
            let rx = Arc::clone(&self.receiver);
            thread::Builder::new()
                .name(format!("spyker-pool-{}", *spawned))
                .spawn(move || worker_loop(&rx))
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
    }

    /// Runs every job to completion before returning; the calling thread
    /// executes the first job itself while the workers drain the rest.
    ///
    /// Panics from any job are re-raised here after all jobs finished, so a
    /// failing parallel kernel cannot leave bands half-written while the
    /// caller unwinds past the buffers they borrow. Called on a worker
    /// thread, it runs every job there, in order.
    pub fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let mut jobs = jobs.into_iter();
        let Some(first) = jobs.next() else {
            return;
        };
        let rest: Vec<_> = jobs.collect();
        if rest.is_empty() || ON_WORKER.get() {
            // A region started by a job on a worker runs on that worker:
            // waiting for free workers there could wait forever.
            first();
            rest.into_iter().for_each(|job| job());
            return;
        }
        self.ensure_workers(rest.len());
        let latch = Arc::new(Latch::new(rest.len()));
        for job in rest {
            // SAFETY: the latch guarantees every submitted job has returned
            // (or panicked, caught in `worker_loop`) before `run_scoped`
            // exits — `latch.wait()` below is reached on both the normal and
            // the panicking path. No borrow captured by a job can therefore
            // outlive this stack frame, so erasing `'scope` to `'static`
            // never lets a worker touch a dangling reference.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            self.sender
                .send(Task {
                    job,
                    latch: Some(Arc::clone(&latch)),
                })
                .expect("pool channel closed");
        }
        // The caller works too instead of idling on the latch: its own band
        // first, then whatever is queued, its other bands included.
        let own = catch_unwind(AssertUnwindSafe(first));
        self.help_until(|| !latch.is_open());
        latch.wait();
        match own {
            Err(payload) => resume_unwind(payload),
            Ok(()) => {
                if latch.panicked.load(Ordering::SeqCst) {
                    panic!("a pool worker task panicked");
                }
            }
        }
    }

    /// Queues `job` to run once on a worker thread and returns at once.
    ///
    /// Nothing waits for a detached job: it reports through whatever it
    /// captured, and a panic in it is caught on the worker and goes no
    /// further, so a job whose submitter must see a failure catches its
    /// own. Under a budget of one thread ([`configured_threads`]) there are
    /// no workers, and `job` runs on the calling thread before `spawn`
    /// returns, its panic caught there as on a worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let task = Task {
            job: Box::new(job),
            latch: None,
        };
        let threads = configured_threads();
        if threads <= 1 {
            run_task(task);
            return;
        }
        self.ensure_workers(threads - 1);
        self.sender.send(task).expect("pool channel closed");
    }

    /// Runs queued tasks on the calling thread until `done()` holds or no
    /// task is there to take, for a thread about to wait on pool work.
    ///
    /// It never blocks on the queue: it takes the receiver with `try_lock`
    /// and a task with `try_recv`, and returns when either finds nothing —
    /// a worker blocked in `recv` holds the lock, and will take the next
    /// task itself. Each task runs as on a worker: a panic is caught and
    /// goes to the task's latch, or nowhere for a detached job.
    pub fn help_until(&self, done: impl Fn() -> bool) {
        while !done() {
            let Ok(rx) = self.receiver.try_lock() else {
                return;
            };
            let Ok(task) = rx.try_recv() else {
                return;
            };
            drop(rx);
            run_task(task);
        }
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Task>>>) {
    ON_WORKER.set(true);
    loop {
        // Hold the lock only for the dequeue; blocking in `recv` while
        // holding it is fine — other workers queue on the mutex and take
        // the next task as soon as this one releases it, and helpers only
        // `try_lock` it.
        let task = {
            let rx = receiver.lock().expect("pool receiver poisoned");
            rx.recv()
        };
        let Ok(task) = task else {
            return; // channel closed: process is shutting down
        };
        run_task(task);
    }
}

/// Runs one task, on a worker or a helping thread: a panic is caught, and
/// a region's task reports in to its latch either way.
fn run_task(task: Task) {
    let failed = catch_unwind(AssertUnwindSafe(task.job)).is_err();
    if let Some(latch) = task.latch {
        if failed {
            latch.panicked.store(true, Ordering::SeqCst);
        }
        latch.count_down();
    }
}

/// The process-wide pool used by the parallel kernels.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Thread budget for auto-parallelised kernels.
///
/// Resolved once per process: `SPYKER_THREADS=n` pins the budget (`0` and
/// `1` both mean single-threaded), otherwise the machine's available
/// parallelism is used. Kernels fall back to the serial path whenever the
/// budget is 1 or the problem is too small to amortise dispatch.
pub fn configured_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| match std::env::var("SPYKER_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => 1,
            Ok(n) => n,
        },
        Err(_) => thread::available_parallelism().map_or(1, usize::from),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_scoped_executes_every_job_exactly_once() {
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        global().run_scoped(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn run_scoped_writes_through_disjoint_borrows() {
        let mut out = vec![0u64; 4 * 100];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(100)
            .enumerate()
            .map(|(i, band)| {
                Box::new(move || {
                    for v in band.iter_mut() {
                        *v = i as u64 + 1;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        global().run_scoped(jobs);
        for (i, chunk) in out.chunks(100).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as u64 + 1), "band {i}");
        }
    }

    #[test]
    fn worker_panic_propagates_after_all_jobs_finish() {
        let ok = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let ok = &ok;
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        ok.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            global().run_scoped(jobs);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(ok.load(Ordering::SeqCst), 3, "non-panicking jobs ran");
    }

    #[test]
    fn spawn_runs_a_detached_job_and_survives_its_panic() {
        let (tx, rx) = std::sync::mpsc::channel();
        global().spawn(|| panic!("a detached job failed"));
        global().spawn(move || tx.send(7).expect("receiver alive"));
        assert_eq!(rx.recv(), Ok(7), "the job after a panicking one still ran");
    }

    /// A pool of its own with one worker, busy until the returned sender
    /// sends: only a helping thread can take what is queued next.
    fn pool_with_a_busy_worker() -> (WorkerPool, Sender<()>) {
        let pool = WorkerPool::new();
        pool.ensure_workers(1);
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        detach(&pool, move || {
            started_tx.send(()).expect("the test is waiting");
            let _ = release_rx.recv();
        });
        started_rx.recv().expect("the worker took the blocker");
        (pool, release_tx)
    }

    fn detach(pool: &WorkerPool, job: impl FnOnce() + Send + 'static) {
        let task = Task {
            job: Box::new(job),
            latch: None,
        };
        pool.sender.send(task).expect("pool channel open");
    }

    #[test]
    fn a_waiting_thread_runs_queued_tasks_while_the_worker_is_busy() {
        let (pool, release) = pool_with_a_busy_worker();
        let (ran_tx, ran_rx) = channel();
        let panicking = ran_tx.clone();
        detach(&pool, move || {
            panicking
                .send(thread::current().id())
                .expect("receiver alive");
            panic!("a helped job failed");
        });
        detach(&pool, move || {
            ran_tx.send(thread::current().id()).expect("receiver alive");
        });
        // Returns once the queue is empty; the panic stays with its task.
        pool.help_until(|| false);
        let me = thread::current().id();
        assert_eq!(ran_rx.try_iter().collect::<Vec<_>>(), vec![me, me]);
        release.send(()).expect("the blocker is waiting");
    }

    #[test]
    fn help_until_stops_as_soon_as_its_wait_is_over() {
        let (pool, release) = pool_with_a_busy_worker();
        let runs = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let runs = Arc::clone(&runs);
            detach(&pool, move || {
                runs.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.help_until(|| runs.load(Ordering::SeqCst) >= 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one task was enough");
        release.send(()).expect("the blocker is waiting");
    }

    #[test]
    fn run_scoped_from_a_non_worker_thread_returns_every_band() {
        let caller = thread::spawn(|| {
            for threads in [1, 2, 4] {
                let mut out = vec![0usize; threads * 64];
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
                    .chunks_mut(64)
                    .enumerate()
                    .map(|(band, rows)| {
                        Box::new(move || {
                            for (i, v) in rows.iter_mut().enumerate() {
                                *v = band * 1000 + i;
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                global().run_scoped(jobs);
                let want: Vec<usize> = (0..threads)
                    .flat_map(|band| (0..64).map(move |i| band * 1000 + i))
                    .collect();
                assert_eq!(out, want, "{threads} threads");
            }
        });
        caller.join().expect("every region returned its bands");
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        assert!(configured_threads() >= 1);
    }
}
