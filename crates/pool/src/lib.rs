//! A persistent, shared worker pool — `thread::scope` ergonomics
//! without the per-call thread spawn.
//!
//! `Cloud::tick` fans its region shards out on **every tick** and the
//! snapshot publisher runs as a detached task — both on one
//! process-wide pool of **persistent** workers, so neither pays an OS
//! thread spawn/join cycle per call:
//!
//! * **Fixed threads, parked when idle.** Workers block on a condvar
//!   (futex park/unpark under Linux) over a shared injection queue;
//!   submitting a task is a mutex push + one wakeup, two orders of
//!   magnitude cheaper than `thread::spawn` (`pool.dispatch_us` in the
//!   traced pass of `benchmark/run.sh`).
//! * **Scoped-borrow submission.** [`WorkerPool::scope`] mirrors
//!   [`std::thread::scope`]: tasks may borrow non-`'static` data
//!   because the scope is a join barrier — it does not return until
//!   every spawned task has finished. Internally the borrow is erased
//!   to `'static` to sit in the shared queue; the barrier is what
//!   makes that sound (see `Scope::spawn` safety comment).
//! * **Deadlock-free joining.** The thread waiting in
//!   [`WorkerPool::scope`] *helps*: it pulls **its own scope's**
//!   still-queued tasks off the injection queue and runs them inline.
//!   A scope therefore always makes progress even on a 1-thread pool
//!   whose only worker is busy, and never executes a foreign task
//!   (which could block it on someone else's I/O).
//! * **Panic isolation.** A panicking task never takes a worker down:
//!   the unwind is caught, counted in [`WorkerPool::panics`], and —
//!   for scoped tasks — re-thrown to the scope's caller after the
//!   join barrier, matching `std::thread::scope` semantics. Detached
//!   tasks ([`WorkerPool::spawn`]) only bump the counter.
//! * **Graceful shutdown.** [`WorkerPool::shutdown`] lets workers
//!   drain the queue, then joins them. Submitting after shutdown
//!   returns [`ShutdownError`] (detached) or runs inline (scoped — a
//!   scope's work is never silently dropped).
//!
//! The process-wide instance lives behind [`WorkerPool::global`],
//! sized to [`std::thread::available_parallelism`]. The pool is for
//! compute: work that blocks on I/O (the HTTP server's connections)
//! runs on threads of its own. A caller that must keep a detached task
//! runnable beside tasks that block grows the pool with
//! [`WorkerPool::reserve`].

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Locks ignoring poisoning: tasks run under `catch_unwind`, so a
/// poisoned pool lock only ever means a panic *between* queue
/// mutations, never a half-mutated queue.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A queued unit of work. Scoped jobs were lifetime-erased by
/// `Scope::spawn`; the scope's join barrier keeps their borrows alive
/// until they run.
type Job = Box<dyn FnOnce() + Send + 'static>;

enum Task {
    /// Fire-and-forget ([`WorkerPool::spawn`]).
    Detached(Job),
    /// Belongs to a [`Scope`]; completion is reported to `join`.
    Scoped { join: Arc<ScopeJoin>, job: Job },
}

/// Join-barrier state shared by one scope and the workers running its
/// tasks.
struct ScopeJoin {
    /// Tasks spawned but not yet finished. Incremented by
    /// `Scope::spawn` *before* the push (same thread that later
    /// joins, so the count is complete when the join starts).
    pending: Mutex<usize>,
    /// Signalled by whichever thread drops `pending` to zero.
    done: Condvar,
    /// First panic payload from a task of this scope; re-thrown to
    /// the scope's caller after the barrier.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Queue state guarded by one mutex so a shutdown flip can never race
/// a push or a worker's sleep decision (no lost wakeups).
struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<QueueState>,
    /// Workers park here when the queue is empty.
    available: Condvar,
    /// Lifetime count of caught task panics.
    panics: AtomicUsize,
}

impl Inner {
    /// Enqueues `task` and wakes one worker; hands the task back if
    /// the pool is shut down so the caller decides its fate.
    fn push(&self, task: Task) -> Result<(), Task> {
        let mut queue = lock(&self.queue);
        if queue.shutdown {
            return Err(task);
        }
        queue.tasks.push_back(task);
        drop(queue);
        self.available.notify_one();
        Ok(())
    }
}

/// Runs one task with panic isolation and (for scoped tasks) join
/// accounting. Called by workers and by joining threads that help.
fn run_task(inner: &Inner, task: Task) {
    match task {
        Task::Detached(job) => {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                inner.panics.fetch_add(1, Ordering::Relaxed);
            }
        }
        Task::Scoped { join, job } => {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                inner.panics.fetch_add(1, Ordering::Relaxed);
                lock(&join.panic).get_or_insert(payload);
            }
            let mut pending = lock(&join.pending);
            *pending -= 1;
            if *pending == 0 {
                join.done.notify_all();
            }
        }
    }
}

/// Worker loop: pop → run → repeat; park on the condvar when idle;
/// exit only once shut down *and* the queue is drained.
fn worker_main(inner: Arc<Inner>) {
    loop {
        let task = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match task {
            Some(task) => run_task(&inner, task),
            None => return,
        }
    }
}

/// Submitting to a pool whose [`WorkerPool::shutdown`] already ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownError;

impl fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("worker pool is shut down")
    }
}

impl std::error::Error for ShutdownError {}

/// A persistent pool of worker threads. See the [module docs](self)
/// for the design; the short version: create once, submit forever,
/// tasks borrow via [`WorkerPool::scope`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    /// Worker handles, joined on [`WorkerPool::shutdown`]/drop.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Cached `handles.len()` so sizing checks never take the lock.
    threads: AtomicUsize,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("panics", &self.panics())
            .finish_non_exhaustive()
    }
}

static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

impl WorkerPool {
    /// Starts a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        let pool = WorkerPool {
            inner: Arc::new(Inner {
                queue: Mutex::new(QueueState {
                    tasks: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
                panics: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            threads: AtomicUsize::new(0),
        };
        pool.reserve(threads.max(1));
        pool
    }

    /// The process-wide pool, created on first use with one worker
    /// per available core; [`WorkerPool::reserve`] grows it.
    pub fn global() -> Arc<WorkerPool> {
        GLOBAL
            .get_or_init(|| {
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                Arc::new(WorkerPool::new(threads))
            })
            .clone()
    }

    /// Current worker count.
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// Caught task panics over the pool's lifetime.
    pub fn panics(&self) -> usize {
        self.inner.panics.load(Ordering::Relaxed)
    }

    /// Grows the pool to at least `min_threads` workers (never
    /// shrinks — parked workers cost a stack, not CPU). No-op after
    /// shutdown.
    pub fn reserve(&self, min_threads: usize) {
        let mut handles = lock(&self.handles);
        if lock(&self.inner.queue).shutdown {
            return;
        }
        while handles.len() < min_threads {
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("spotlight-pool-{}", handles.len()))
                .spawn(move || worker_main(inner))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        self.threads.store(handles.len(), Ordering::Relaxed);
    }

    /// Submits a detached (`'static`) task. A panic inside it is
    /// caught and counted; the worker survives.
    pub fn spawn<F>(&self, job: F) -> Result<(), ShutdownError>
    where
        F: FnOnce() + Send + 'static,
    {
        self.inner
            .push(Task::Detached(Box::new(job)))
            .map_err(|_| ShutdownError)
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing from the
    /// caller's environment can be spawned; returns only after every
    /// spawned task finished (join barrier), exactly like
    /// [`std::thread::scope`] minus the thread spawns.
    ///
    /// If any task panicked, the first payload is re-thrown here
    /// after the barrier. The joining thread helps execute this
    /// scope's queued tasks, so the call completes even when every
    /// worker is busy elsewhere.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            join: Arc::new(ScopeJoin {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        // Catch a panic in `f` itself so the join barrier still runs:
        // already-spawned tasks borrow the environment and MUST finish
        // before this frame unwinds.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.join_all();
        let task_panic = lock(&scope.join.panic).take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Flags shutdown, lets workers drain the queue, and joins them.
    /// Idempotent. Subsequent [`WorkerPool::spawn`] calls error;
    /// [`WorkerPool::scope`] degrades to inline execution. Must not
    /// be called from a pool task (a worker cannot join itself).
    pub fn shutdown(&self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.available.notify_all();
        let handles: Vec<_> = lock(&self.handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
/// `'env` is invariant: it is the proof that spawned borrows outlive
/// the scope.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    join: Arc<ScopeJoin>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns a task that may borrow from the enclosing environment.
    /// Panics inside the task are delivered to the scope's caller
    /// after the join barrier, not to the worker.
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: the queue demands `'static`, but every borrow in
        // `job` only needs to live until the task has *run*, and
        // `WorkerPool::scope` does not return before `join_all`
        // observes `pending == 0` — on the panic path too (the
        // `catch_unwind` around `f` guarantees the barrier). `'env`
        // is invariant in `Scope`, so it cannot be shrunk below the
        // caller's actual borrows. This is the same erasure
        // `std::thread::scope` performs internally.
        let job: Job = unsafe {
            mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        // Increment before the push: the joiner is this same thread,
        // so `join_all` can never observe a pushed-but-uncounted task.
        *lock(&self.join.pending) += 1;
        let task = Task::Scoped {
            join: Arc::clone(&self.join),
            job,
        };
        if let Err(task) = self.pool.inner.push(task) {
            // Pool shut down: run inline (decrements `pending`).
            // Scoped work is never dropped — the caller's algorithm
            // depends on it having happened.
            run_task(&self.pool.inner, task);
        }
    }

    /// The join barrier: run our queued tasks inline, then sleep
    /// until workers finish the in-flight remainder.
    fn join_all(&self) {
        loop {
            // Help with this scope's still-queued tasks. Never run a
            // foreign task here: it could block indefinitely (a
            // detached task waiting on I/O) and stall this join.
            let task = {
                let mut queue = lock(&self.pool.inner.queue);
                let position = queue.tasks.iter().position(|task| match task {
                    Task::Scoped { join, .. } => Arc::ptr_eq(join, &self.join),
                    Task::Detached(_) => false,
                });
                position.and_then(|p| queue.tasks.remove(p))
            };
            if let Some(task) = task {
                run_task(&self.pool.inner, task);
                continue;
            }
            // All spawns happened on this thread before `join_all`,
            // so once none of ours are queued, the remaining pending
            // tasks are claimed by workers — wait for their signal.
            let mut pending = lock(&self.join.pending);
            while *pending != 0 {
                pending = self
                    .join
                    .done
                    .wait(pending)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            return;
        }
    }
}

impl fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &*lock(&self.join.pending))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let mut buckets = [0u64; 8];
        pool.scope(|s| {
            for (i, slot) in buckets.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 + 1);
            }
        });
        assert_eq!(buckets, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn scope_join_makes_progress_on_single_thread_pool() {
        // The lone worker may be busy with the first task while the
        // joiner must help with the rest — or the queue scan races a
        // worker pop. Either way the barrier completes.
        let pool = WorkerPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scoped_panic_propagates_after_barrier_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in task"));
                for _ in 0..16 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "task panic must reach the scope caller");
        // Barrier ran: the non-panicking siblings all completed.
        assert_eq!(finished.load(Ordering::Relaxed), 16);
        assert_eq!(pool.panics(), 1);
        // Workers survived the unwind; the pool is still usable.
        let after = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn detached_panic_is_counted_and_worker_survives() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("detached boom")).unwrap();
        let done = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&done);
        pool.spawn(move || {
            flag.store(1, Ordering::Relaxed);
        })
        .unwrap();
        // The second task runs on the same (surviving) worker.
        for _ in 0..200 {
            if done.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::Relaxed), 1);
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn shutdown_while_busy_drains_queued_tasks() {
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::Relaxed),
            32,
            "graceful shutdown must drain the queue first"
        );
    }

    #[test]
    fn spawn_after_shutdown_errors_scope_runs_inline() {
        let pool = WorkerPool::new(2);
        pool.shutdown();
        pool.shutdown(); // idempotent
        assert_eq!(pool.spawn(|| {}), Err(ShutdownError));
        // Scoped work is never dropped: it degrades to inline.
        let mut hits = 0u64;
        pool.scope(|s| s.spawn(|| hits += 1));
        assert_eq!(hits, 1);
    }

    #[test]
    fn concurrent_scopes_do_not_cross_join() {
        let pool = Arc::new(WorkerPool::new(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..50u64 {
                        let counter = AtomicU64::new(0);
                        pool.scope(|scope| {
                            for _ in 0..5 {
                                scope.spawn(|| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                        assert_eq!(counter.load(Ordering::Relaxed), 5, "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn reserve_grows_and_never_shrinks() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        pool.reserve(3);
        assert_eq!(pool.threads(), 3);
        pool.reserve(2);
        assert_eq!(pool.threads(), 3);
        pool.reserve(0);
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.threads() >= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Lost-wakeup hunt: whatever the pool size, task count, and
        // scheduling interleaving (perturbed by the spin knob), every
        // task runs exactly once and the barrier holds.
        #[test]
        fn scoped_tasks_complete_exactly_once(
            threads in 1u64..5,
            tasks in 1u64..48,
            spin in 0u64..512,
        ) {
            let pool = WorkerPool::new(threads as usize);
            let runs: Vec<AtomicU64> =
                (0..tasks).map(|_| AtomicU64::new(0)).collect();
            pool.scope(|s| {
                for slot in runs.iter() {
                    s.spawn(move || {
                        for i in 0..spin {
                            std::hint::black_box(i);
                        }
                        slot.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            for (i, slot) in runs.iter().enumerate() {
                prop_assert_eq!(
                    slot.load(Ordering::Relaxed), 1,
                    "task {} must run exactly once", i
                );
            }
        }

        // Same exactly-once guarantee for detached submission, with
        // graceful shutdown as the completion barrier.
        #[test]
        fn detached_tasks_complete_exactly_once_across_shutdown(
            threads in 1u64..4,
            tasks in 1u64..32,
        ) {
            let pool = WorkerPool::new(threads as usize);
            let runs: Arc<Vec<AtomicU64>> =
                Arc::new((0..tasks).map(|_| AtomicU64::new(0)).collect());
            for i in 0..tasks as usize {
                let runs = Arc::clone(&runs);
                pool.spawn(move || {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                }).unwrap();
            }
            pool.shutdown();
            for (i, slot) in runs.iter().enumerate() {
                prop_assert_eq!(
                    slot.load(Ordering::Relaxed), 1,
                    "task {} must run exactly once", i
                );
            }
        }
    }
}
