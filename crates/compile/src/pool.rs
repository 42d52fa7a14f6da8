//! The persistent work-stealing morsel pool.
//!
//! Before this module existed, every partition-parallel execution unit
//! spawned its own scoped threads — fine for one big statement, but at
//! serving QPS that is thousands of thread spawns per second, and a
//! static one-morsel-per-thread split cannot rebalance skew. A
//! [`MorselPool`] instead owns a fixed set of **long-lived workers** fed
//! task batches over an internal queue:
//!
//! * **Per-worker deques, LIFO-local / FIFO-steal.** Each batch of
//!   morsel tasks is enqueued on one *home* worker's deque (homes
//!   rotate per batch). The home worker pops newest-first (LIFO: the
//!   task whose cache lines it just touched), idle workers steal
//!   oldest-first (FIFO: the task that has waited longest, and the one
//!   furthest from the home worker's working set). Combined with the
//!   over-decomposed layouts of [`voodoo_storage::Partitioning::
//!   for_stealing`], a skewed batch rebalances instead of idling
//!   workers behind the slowest morsel.
//! * **The submitter helps.** The thread that submits a batch runs the
//!   batch's newest still-queued tasks itself while the workers wake,
//!   then spins briefly on the batch latch before sleeping on it — so a
//!   short batch pays no wake-up latency to start or to finish.
//! * **Morsel-order results.** [`MorselPool::run`] returns results in
//!   task order regardless of which worker executed what, so the
//!   executor's morsel-order merge — the bit-identity invariant — is
//!   untouched by scheduling.
//! * **Panic isolation.** A panicking task poisons only its *batch*:
//!   the payload is re-raised on the submitting thread (failing that
//!   statement exactly as a scoped spawn would have), while the pool
//!   worker catches the unwind and keeps serving other statements.
//! * **Clean shutdown.** [`MorselPool::shutdown`] drains every queued
//!   task before workers exit (a submitted batch always completes), and
//!   later submissions fall back to inline execution on the caller —
//!   correct, just serial.
//!
//! The *current* pool is resolved per thread: the relational engine
//! installs its own pool around each statement execution
//! ([`enter`]), and everything else shares the lazily-started
//! process-wide [`MorselPool::global`] (sized to the machine, override
//! with `VOODOO_POOL_WORKERS`). Serving layers compose with the pool by
//! **leasing**: a serve worker's parallelism budget
//! ([`crate::exec::set_parallelism_budget`]) caps how many morsels its
//! statements *offer* the pool, while the pool's worker count caps how
//! many run at once — `W` serve workers × `cores/W` budget composes to
//! the machine without nesting thread spawns.
//!
//! ```
//! use voodoo_compile::pool::MorselPool;
//!
//! let pool = MorselPool::new(2);
//! let squares = pool.run((0..8).map(|i| move || i * i).collect::<Vec<_>>());
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]); // task order
//! assert_eq!(pool.stats().tasks, 8);
//! pool.shutdown();
//! ```

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased, lifetime-erased morsel task. Soundness rests on the
/// batch latch: [`MorselPool::run`] does not return until every task of
/// its batch has finished, so the borrows the closure captures outlive
/// its execution even though the type says `'static`.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

/// One queued unit of work: the erased task, the batch it belongs to,
/// and the worker deque it was homed on (for steal accounting).
struct Runnable {
    home: usize,
    batch: Arc<BatchSync>,
    task: ErasedTask,
}

/// Completion latch shared by all tasks of one [`MorselPool::run`] call.
struct BatchSync {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by a task of this batch (later panics
    /// of the same batch are dropped; the batch is already poisoned).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Tasks of this batch executed by a thread other than their home
    /// worker.
    steals: AtomicU64,
}

impl BatchSync {
    fn task_done(&self) {
        let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }
}

/// The scheduler state: one deque per worker, guarded by a single lock.
///
/// A lock-free Chase–Lev deque would shave nanoseconds per pop; morsels
/// are ≥ thousands of elements of real work, so a plain mutex keeps the
/// stealing *discipline* (LIFO-local, FIFO-steal) without unsafe queue
/// code. Workers sleep on [`MorselPool`]'s condvar when every deque is
/// empty.
struct Sched {
    queues: Vec<VecDeque<Runnable>>,
    /// Round-robin cursor: which worker the next batch is homed on.
    next_home: usize,
    shutdown: bool,
}

/// Cumulative pool counters (see [`MorselPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Long-lived workers owned by the pool.
    pub workers: usize,
    /// Task batches submitted ([`MorselPool::run`] calls that reached
    /// the queue; inline fallbacks are not batches).
    pub batches: u64,
    /// Morsel tasks executed through the queue.
    pub tasks: u64,
    /// Tasks executed by a thread other than their home worker — the
    /// rebalancing the stealing scheduler exists for.
    pub steals: u64,
}

struct PoolInner {
    state: Mutex<Sched>,
    task_ready: Condvar,
    workers: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl PoolInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        // Tasks catch their own panics; the scheduler lock is never
        // held across user code, so poisoning carries no information.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop work for worker `me`: own deque newest-first, then steal the
    /// oldest task from the first non-empty peer (scanning from `me+1`
    /// so victims rotate). Returns `None` only on drained shutdown.
    fn pop_or_steal(&self, st: &mut Sched, me: usize) -> Option<Runnable> {
        if let Some(r) = st.queues[me].pop_back() {
            return Some(r);
        }
        let n = st.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(r) = st.queues[victim].pop_front() {
                return Some(r);
            }
        }
        None
    }

    /// Pop the newest still-queued task of `batch` from its home deque
    /// (for the submitter to run itself).
    fn take_own(&self, home: usize, batch: &Arc<BatchSync>) -> Option<Runnable> {
        let mut st = self.lock();
        let q = &mut st.queues[home];
        let i = q.iter().rposition(|r| Arc::ptr_eq(&r.batch, batch))?;
        q.remove(i)
    }

    fn worker_loop(self: &Arc<Self>, me: usize) {
        IS_POOL_WORKER.with(|f| f.set(true));
        loop {
            let runnable = {
                let mut st = self.lock();
                loop {
                    if let Some(r) = self.pop_or_steal(&mut st, me) {
                        break r;
                    }
                    // Every deque is empty: exit on shutdown (nothing
                    // left to drain), otherwise sleep until a batch
                    // arrives.
                    if st.shutdown {
                        return;
                    }
                    st = self.task_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            if runnable.home != me {
                runnable.batch.steals.fetch_add(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            // The erased task catches its own panic and fulfills the
            // latch; the worker thread itself never unwinds.
            (runnable.task)();
        }
    }
}

/// A fixed pool of persistent morsel workers with work stealing. Cheap
/// to clone (a handle onto shared state); see the module docs for the
/// scheduling discipline and the [`MorselPool::global`] /
/// [`enter`] resolution rules.
///
/// Dropping the **last handle** shuts the pool down (queued batches
/// drain first, then the workers exit), so swapping an engine's pool
/// (`Engine::set_morsel_pool` in `voodoo-relational`) never leaks
/// worker threads. Worker threads themselves hold only the shared
/// state, not a handle.
#[derive(Clone)]
pub struct MorselPool {
    inner: Arc<PoolInner>,
    /// Handle-count tracker: when the last clone drops, [`Lifecycle`]'s
    /// `Drop` signals shutdown. Workers never hold one.
    _lifecycle: Arc<Lifecycle>,
}

/// Shuts the pool down when the last [`MorselPool`] handle drops.
struct Lifecycle {
    inner: Arc<PoolInner>,
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.task_ready.notify_all();
    }
}

impl std::fmt::Debug for MorselPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MorselPool")
            .field("workers", &s.workers)
            .field("tasks", &s.tasks)
            .field("steals", &s.steals)
            .finish()
    }
}

thread_local! {
    /// Pool installed for statements executing on this thread (the
    /// relational engine brackets each execution with [`enter`]).
    static CURRENT_POOL: RefCell<Vec<MorselPool>> = const { RefCell::new(Vec::new()) };
    /// Set on pool worker threads: a task that (transitively) submits a
    /// batch must run it inline rather than deadlocking a 1-worker pool
    /// waiting on itself.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How long a submitter spins (yielding its core) on its batch latch
/// before sleeping on it.
const LATCH_SPIN: std::time::Duration = std::time::Duration::from_millis(5);

/// Process-wide pool handle storage for [`MorselPool::global`].
static GLOBAL_POOL: OnceLock<MorselPool> = OnceLock::new();

impl MorselPool {
    /// A pool with `workers` long-lived threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> MorselPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(Sched {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                next_home: 0,
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            workers,
            batches: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("voodoo-morsel-{i}"))
                .spawn(move || inner.worker_loop(i))
                .expect("spawn morsel worker");
        }
        let lifecycle = Arc::new(Lifecycle {
            inner: Arc::clone(&inner),
        });
        MorselPool {
            inner,
            _lifecycle: lifecycle,
        }
    }

    /// The lazily-started process-wide pool: one worker per available
    /// core (override with the `VOODOO_POOL_WORKERS` environment
    /// variable, read once at first use). Engines install their own
    /// pool per statement ([`enter`]); everything else — bare
    /// `Executor`s, backends used without an engine — shares this one.
    pub fn global() -> MorselPool {
        GLOBAL_POOL
            .get_or_init(|| {
                let workers = std::env::var("VOODOO_POOL_WORKERS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|p| p.get())
                            .unwrap_or(1)
                    });
                MorselPool::new(workers)
            })
            .clone()
    }

    /// Long-lived workers owned by this pool.
    pub fn worker_count(&self) -> usize {
        self.inner.workers
    }

    /// Cumulative scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.workers,
            batches: self.inner.batches.load(Ordering::Relaxed),
            tasks: self.inner.tasks.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
        }
    }

    /// Whether [`MorselPool::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.inner.lock().shutdown
    }

    /// Stop the workers. Already-queued batches drain first (a caller
    /// blocked in [`MorselPool::run`] always gets its results), then the
    /// worker threads exit. Afterwards `run` executes inline on the
    /// submitting thread — correct, just serial. Idempotent; "restart"
    /// is constructing a fresh pool.
    pub fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.inner.task_ready.notify_all();
    }

    /// Execute `tasks` on the pool and return their results **in task
    /// order** (the executor's morsel order). Blocks until every task
    /// has completed, running queued tasks of this batch on the calling
    /// thread meanwhile. If any task panicked, the first payload is
    /// re-raised here — on the *submitting* thread — after the rest of
    /// the batch has finished, so a poisoned statement fails alone
    /// while the workers keep serving.
    ///
    /// Degenerate batches (zero or one task), a shut-down pool, and
    /// submissions *from* a pool worker all run inline on the caller.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if tasks.len() <= 1 || IS_POOL_WORKER.with(|f| f.get()) {
            return tasks.into_iter().map(|f| f()).collect();
        }
        let n = tasks.len();
        let batch = Arc::new(BatchSync {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            steals: AtomicU64::new(0),
        });
        // One result slot per task, written by whichever thread runs it.
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let mut queued = true;
        {
            let mut runnables: Vec<Runnable> = Vec::with_capacity(n);
            for (i, f) in tasks.into_iter().enumerate() {
                let slot = &slots[i];
                let task_batch = Arc::clone(&batch);
                let batch = Arc::clone(&batch);
                let closure = move || {
                    let out = catch_unwind(AssertUnwindSafe(f));
                    match out {
                        Ok(v) => {
                            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        }
                        Err(payload) => {
                            let mut p = batch.panic.lock().unwrap_or_else(|e| e.into_inner());
                            p.get_or_insert(payload);
                        }
                    }
                    // Last touch of borrowed state was above: after this
                    // decrement the submitter may unblock and drop
                    // `slots`/captures.
                    batch.task_done();
                };
                let erased: Box<dyn FnOnce() + Send + '_> = Box::new(closure);
                // SAFETY: `run` blocks on the batch latch below until
                // every task has executed `task_done`, and workers never
                // drop a queued task unexecuted (shutdown drains), so
                // the non-'static borrows inside `erased` are live for
                // as long as the task can run.
                let erased: ErasedTask = unsafe { std::mem::transmute(erased) };
                runnables.push(Runnable {
                    home: 0, // assigned under the scheduler lock below
                    batch: task_batch,
                    task: erased,
                });
            }
            let mut st = self.inner.lock();
            if st.shutdown {
                // Inline fallback: execute the erased tasks right here,
                // newest-first like a home worker would (order of
                // execution is immaterial — results slot by index).
                queued = false;
                drop(st);
                for r in runnables {
                    (r.task)();
                }
            } else {
                let home = st.next_home % self.inner.workers;
                st.next_home = (home + 1) % self.inner.workers;
                for mut r in runnables {
                    r.home = home;
                    st.queues[home].push_back(r);
                }
                self.inner.batches.fetch_add(1, Ordering::Relaxed);
                self.inner.tasks.fetch_add(n as u64, Ordering::Relaxed);
                drop(st);
                self.inner.task_ready.notify_all();
                // The submitter helps: it runs its own batch's newest
                // tasks while the workers wake, so a batch never waits
                // on a wake-up to start.
                while let Some(r) = self.inner.take_own(home, &batch) {
                    (r.task)();
                }
            }
            // The batch latch: tasks may still be executing on workers;
            // do not touch `slots` until all have finished. Spin
            // (yielding) briefly before sleeping: the stragglers are
            // running, and a sleeping submitter would add a wake-up to
            // every batch.
            let spin = std::time::Instant::now();
            while *batch.remaining.lock().unwrap_or_else(|e| e.into_inner()) > 0
                && spin.elapsed() < LATCH_SPIN
            {
                std::thread::yield_now();
            }
            let mut rem = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
            while *rem > 0 {
                rem = batch.done.wait(rem).unwrap_or_else(|e| e.into_inner());
            }
        }
        // Attribute this batch to the statement executing on the
        // submitting thread (the engine's steals / pool_tasks metrics).
        // Inline fallbacks never touched the pool, so they do not count
        // as pool tasks anywhere — statement metrics agree with
        // `MorselPool::stats` by construction.
        if queued {
            crate::exec::note_pool_batch(n as u64, batch.steals.load(Ordering::Relaxed));
        }
        if let Some(payload) = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("batch latch guarantees every slot is filled")
            })
            .collect()
    }
}

/// Restores the previously-installed pool when dropped (see [`enter`]).
pub struct PoolGuard {
    _private: (),
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        CURRENT_POOL.with(|p| {
            p.borrow_mut().pop();
        });
    }
}

/// Install `pool` as the current thread's morsel pool until the
/// returned guard drops (nesting restores the previous one). The
/// relational engine brackets each statement execution with this so
/// executions run on *its* pool and its metrics see the steals.
pub fn enter(pool: MorselPool) -> PoolGuard {
    CURRENT_POOL.with(|p| p.borrow_mut().push(pool));
    PoolGuard { _private: () }
}

/// The pool partition-parallel kernels on this thread execute on: the
/// innermost [`enter`]-installed pool, else [`MorselPool::global`].
pub fn current() -> MorselPool {
    CURRENT_POOL
        .with(|p| p.borrow().last().cloned())
        .unwrap_or_else(MorselPool::global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = MorselPool::new(3);
        for round in 0..20 {
            let out = pool.run((0..13).map(|i| move || i * 10 + round).collect::<Vec<_>>());
            assert_eq!(
                out,
                (0..13).map(|i| i * 10 + round).collect::<Vec<_>>(),
                "round {round}"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.tasks, 20 * 13);
        assert_eq!(stats.batches, 20);
        pool.shutdown();
    }

    #[test]
    fn skewed_batches_rebalance_by_stealing() {
        let pool = MorselPool::new(4);
        // One heavy morsel plus many light ones, all homed on one deque:
        // the heavy task pins its worker while the others MUST be stolen
        // for the batch to finish promptly (and on any schedule, a
        // sleeping home worker yields the core, so thieves run even on
        // one hardware thread).
        let out = pool.run(
            (0..12usize)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis(if i == 11 { 40 } else { 2 }));
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out, (0..12).collect::<Vec<_>>());
        assert!(
            pool.stats().steals > 0,
            "skewed batch must rebalance: {:?}",
            pool.stats()
        );
        pool.shutdown();
    }

    #[test]
    fn panics_poison_the_batch_not_the_pool() {
        let pool = MorselPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&finished);
        let pool2 = pool.clone();
        let caught = catch_unwind(AssertUnwindSafe(move || {
            pool2.run(
                (0..6usize)
                    .map(|i| {
                        let f = Arc::clone(&f);
                        move || {
                            if i == 2 {
                                panic!("morsel {i} poisoned");
                            }
                            f.fetch_add(1, Ordering::SeqCst);
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        let payload = caught.expect_err("the batch's panic resumes on the submitter");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("poisoned"), "{msg}");
        // Every non-panicking task still ran (the latch drains fully).
        assert_eq!(finished.load(Ordering::SeqCst), 5);
        // The pool survives and serves the next batch.
        assert_eq!(pool.run(vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
        pool.shutdown();
    }

    #[test]
    fn shutdown_falls_back_inline_and_fresh_pool_restarts() {
        let pool = MorselPool::new(2);
        assert_eq!(pool.run(vec![|| 1, || 2]), vec![1, 2]);
        pool.shutdown();
        assert!(pool.is_shut_down());
        let before = pool.stats().tasks;
        // Post-shutdown submissions execute inline, still in order.
        assert_eq!(pool.run(vec![|| 3, || 4, || 5]), vec![3, 4, 5]);
        assert_eq!(pool.stats().tasks, before, "inline fallback is not queued");
        // Restart = a fresh pool.
        let pool = MorselPool::new(2);
        assert_eq!(pool.run(vec![|| 6, || 7]), vec![6, 7]);
        assert_eq!(pool.stats().tasks, 2);
        pool.shutdown();
    }

    #[test]
    fn dropping_the_last_handle_shuts_the_pool_down_after_draining() {
        let pool = MorselPool::new(1);
        let worker_handle = pool.clone();
        // A batch in flight on another handle while the original drops:
        // the pool must stay up for the surviving handle and drain the
        // batch before the (eventual) drop-triggered shutdown.
        let t = std::thread::spawn(move || {
            let out = worker_handle.run(
                (0..6u64)
                    .map(|i| {
                        move || {
                            std::thread::sleep(Duration::from_millis(5));
                            i * 2
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            assert!(!worker_handle.is_shut_down(), "a live handle keeps it up");
            out
        });
        drop(pool); // not the last handle: workers keep serving
        assert_eq!(t.join().unwrap(), vec![0, 2, 4, 6, 8, 10]);
        // The thread's handle dropped at join: the Lifecycle drop has
        // signalled shutdown and the workers exit on their own — no
        // explicit shutdown() call, no leaked threads on pool swaps.
    }

    #[test]
    fn enter_overrides_the_global_pool_and_nests() {
        let a = MorselPool::new(1);
        let b = MorselPool::new(2);
        {
            let _ga = enter(a.clone());
            assert_eq!(current().worker_count(), 1);
            {
                let _gb = enter(b.clone());
                assert_eq!(current().worker_count(), 2);
            }
            assert_eq!(current().worker_count(), 1);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tasks_submitting_batches_run_them_inline() {
        // A 1-worker pool whose task submits another batch must not
        // deadlock waiting on itself.
        let pool = MorselPool::new(1);
        let inner_pool = pool.clone();
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
            Box::new(move || inner_pool.run(vec![|| 10, || 20]).iter().sum::<i32>()),
            Box::new(|| 3),
        ];
        let out = pool.run(tasks);
        assert_eq!(out, vec![30, 3]);
        pool.shutdown();
    }
}
