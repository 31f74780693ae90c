//! A persistent fork-join worker pool for per-slot parallel work.
//!
//! [`Resolver::ParallelSharded`](crate::engine::Resolver::ParallelSharded)
//! originally spawned scoped threads *every slot*. That is correct and
//! borrow-friendly, but a spawn/join round-trip costs tens of microseconds —
//! more than the entire resolution work of a small slot — and the paper's
//! primitives run for Ω(polylog n) slots, so per-slot fixed costs are
//! exactly what dominates wall-clock at scale. [`WorkerPool`] replaces the
//! per-slot spawn with threads that live as long as the pool (in practice:
//! as long as the owning [`Engine`](crate::engine::Engine)) and spend their
//! idle time parked in the OS. The same pool serves all three chunked
//! phases of a sharded engine: node-range chunks in phases 1 and 3 and
//! channel-range chunks in phase 2 — one generation wake per dispatch.
//!
//! # Wake protocol
//!
//! The pool deliberately has **no channels, locks, or queues on the hot
//! path** — one atomic generation counter drives everything:
//!
//! 1. The caller writes the job (a type-erased closure pointer plus its own
//!    [`Thread`] handle) into a shared cell, then publishes it by bumping
//!    the generation counter with `Release` ordering and unparking every
//!    worker.
//! 2. Each worker loops: `park()` until the `Acquire`-loaded generation
//!    differs from the last one it served, run the job closure with its
//!    worker index, store the generation into its own padded `done` slot
//!    (`Release`), and unpark the caller.
//! 3. The caller meanwhile runs its own share of the work, then waits until
//!    every `done` slot (`Acquire`) has caught up to the published
//!    generation. Only then does [`WorkerPool::run_with`] return — which is
//!    what makes the lifetime-erasure below sound.
//!
//! `park`/`unpark` is the right primitive here: an `unpark` before the
//! `park` is not lost (it banks a token), so the protocol has no lost-wakeup
//! window, and both sides re-check their condition in a loop, so spurious
//! wakeups are harmless.
//!
//! # Safety argument
//!
//! This module is the only place in `crn-sim` allowed to use `unsafe` (the
//! crate is `deny(unsafe_code)` elsewhere). The two erasures it performs are
//! the same ones `std::thread::scope` performs internally:
//!
//! * **Lifetime erasure of the job closure.** `run_with` transmutes
//!   `&dyn Fn(usize)` to `'static` to store it in the shared cell. Workers
//!   only dereference it between the generation bump and their `done`
//!   store, and `run_with` does not return (even on panic — the wait lives
//!   in a drop guard) until every worker has stored `done`. The borrow
//!   therefore strictly outlives every use.
//! * **Disjoint `&mut` hand-out.** Each worker index is served by exactly
//!   one thread per generation, and worker `w` receives `&mut state[w]`
//!   only — distinct indices, distinct elements, no aliasing.
//!
//! A worker panic is caught (`catch_unwind`), the payload parked in a
//! `Mutex`, the `done` slot still stored — the caller always gets to finish
//! its wait — and the panic is resumed on the calling thread afterwards,
//! matching scoped-thread semantics.
//!
//! # Determinism
//!
//! The pool schedules *which thread* runs a shard, never *what the shard
//! computes*: the engine's shard partition and per-channel resolution are
//! deterministic functions of the slot's actions, so results are
//! bit-identical at any worker count (enforced by the differential suite in
//! `tests/tests/engine_equiv.rs`).

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

/// A job published to the workers: the erased closure plus the caller to
/// wake when a worker finishes.
#[derive(Clone)]
struct Job {
    /// Type- and lifetime-erased `&(dyn Fn(usize) + Sync)` — valid only
    /// while the generation that published it is being served.
    f: *const (dyn Fn(usize) + Sync),
    /// The thread blocked in [`WorkerPool::run_with`], to unpark after a
    /// worker stores its `done` stamp.
    caller: Thread,
}

/// One worker's completion stamp, padded to a cache line so eight workers
/// acknowledging a generation don't false-share one line.
#[repr(align(64))]
struct DoneSlot {
    generation: AtomicU64,
}

/// State shared between the caller and all workers.
struct Shared {
    /// The generation counter. Bumped (with the job already written) to
    /// publish work; also bumped with `shutdown` set to retire the pool.
    generation: AtomicU64,
    /// Set (before the final generation bump) to tell workers to exit.
    shutdown: AtomicBool,
    /// The current job — deliberately **not** behind a lock: the caller
    /// writes it strictly before the `Release` generation bump, workers
    /// read it strictly after `Acquire`-observing that bump and strictly
    /// before their `done` acknowledgment, and the caller does not write
    /// again (or return) until every acknowledgment is in. Single writer,
    /// readers confined to a window the writer is blocked through.
    job: UnsafeCell<Option<Job>>,
    /// Per-worker completion stamps.
    done: Vec<DoneSlot>,
    /// First worker panic of the current generation, rethrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the only non-`Sync` field is the `UnsafeCell<Option<Job>>`
// (raw closure pointer + `Thread` handle); access to it follows the
// generation protocol described on the field and in the module docs, and
// the pointee closure is required to be `Sync`.
unsafe impl Sync for Shared {}
// SAFETY: as above — the raw pointer inside `Job` is only ever a borrow of
// a `Sync` closure kept alive by the blocked caller.
unsafe impl Send for Shared {}

/// A persistent pool of parked worker threads driven by a generation
/// counter. See the module docs for the protocol and safety argument.
///
/// The pool is a *fork-join* primitive, not a task queue: [`run_with`]
/// publishes one closure, every worker runs it once with its own index and
/// its own `&mut` state slot, and the call returns when all are done.
///
/// [`run_with`]: WorkerPool::run_with
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.handles.len()).finish()
    }
}

/// `Send`-asserting wrapper for the base pointer of the per-worker state
/// slice handed to `run_with`.
struct StatePtr<S>(*mut S);
// SAFETY: the wrapped pointer targets a `&mut [S]` with `S: Send` (bound on
// `run_with`), and each worker dereferences a distinct element.
unsafe impl<S> Send for StatePtr<S> {}
unsafe impl<S> Sync for StatePtr<S> {}

impl<S> StatePtr<S> {
    /// Accessor (rather than a public field) so closures capture the
    /// `Sync` wrapper itself — edition-2021 disjoint capture would
    /// otherwise capture the bare `*mut S` field and lose the wrapper's
    /// thread-safety assertion.
    fn get(&self) -> *mut S {
        self.0
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` parked threads. `workers` may be 0 (a
    /// pool that runs everything on the caller).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            done: (0..workers).map(|_| DoneSlot { generation: AtomicU64::new(0) }).collect(),
            panic: Mutex::new(None),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("crn-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads (the caller is not counted).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `worker(w, &mut state[w])` on worker thread `w` for every
    /// element of `state`, concurrently with `main_task()` on the calling
    /// thread, and returns when **all** of them have finished.
    ///
    /// Workers beyond `state.len()` wake, see nothing addressed to them,
    /// acknowledge the generation, and park again. A panic in any closure
    /// is re-raised on the calling thread after every worker has finished
    /// (first payload wins).
    ///
    /// # Panics
    /// Panics if `state.len() > self.workers()`.
    pub fn run_with<S, F, G>(&mut self, state: &mut [S], worker: F, main_task: G)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
        G: FnOnce(),
    {
        assert!(
            state.len() <= self.workers(),
            "run_with over {} state slots on a {}-worker pool",
            state.len(),
            self.workers()
        );
        if self.handles.is_empty() {
            // Degenerate pool: nothing to fork, nothing to join.
            debug_assert!(state.is_empty());
            main_task();
            return;
        }
        let active = state.len();
        let base = StatePtr(state.as_mut_ptr());
        let call = move |w: usize| {
            if w < active {
                // SAFETY: worker index `w` is served by exactly one thread
                // per generation and indices are distinct, so this `&mut`
                // aliases nothing; `w < active = state.len()` bounds it.
                let slot = unsafe { &mut *base.get().add(w) };
                worker(w, slot);
            }
        };
        let erased: &(dyn Fn(usize) + Sync) = &call;
        // SAFETY: the pointer is only dereferenced by workers between the
        // generation bump below and their `done` acknowledgment, and the
        // `WaitGuard` keeps this frame alive until every acknowledgment is
        // in — even if `main_task` panics.
        let f: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(erased) };

        // Publish the job, then the generation (Release), then wake.
        // SAFETY: every worker has acknowledged the previous generation (or
        // never saw one), so none is inside the read window; `&mut self`
        // excludes a concurrent publisher.
        unsafe {
            *self.shared.job.get() = Some(Job { f, caller: thread::current() });
        }
        let generation = self.shared.generation.load(Ordering::Relaxed) + 1;
        self.shared.generation.store(generation, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }

        // From here on we MUST wait for every worker before unwinding: the
        // guard runs the wait even if `main_task` panics.
        struct WaitGuard<'p> {
            pool: &'p WorkerPool,
            generation: u64,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                for slot in &self.pool.shared.done {
                    while slot.generation.load(Ordering::Acquire) < self.generation {
                        thread::park();
                    }
                }
                // SAFETY: every worker has acknowledged `generation`, so no
                // reader remains in the window; clearing drops the dangling
                // closure pointer before this stack frame goes away.
                unsafe {
                    *self.pool.shared.job.get() = None;
                }
            }
        }
        let guard = WaitGuard { pool: self, generation };
        let main_result = catch_unwind(AssertUnwindSafe(main_task));
        // Join the workers (the guard's drop is the wait), then take any
        // worker panic out *before* unwinding — resuming with the lock's
        // guard still live (an `if let` over the lock) would poison the
        // mutex and wedge every later `run_with`.
        drop(guard);
        let worker_panic = self.shared.panic.lock().expect("pool panic lock").take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    /// Graceful teardown: ask every worker to exit, wake them, and join.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.generation.fetch_add(1, Ordering::Release);
        for handle in &self.handles {
            handle.thread().unpark();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked has already parked its payload for the
            // caller; there is nothing useful to do with the join error.
            let _ = handle.join();
        }
    }
}

/// The worker side of the protocol described in the module docs.
fn worker_loop(shared: &Shared, w: usize) {
    let mut served = 0u64;
    loop {
        let mut generation = shared.generation.load(Ordering::Acquire);
        while generation == served {
            thread::park();
            generation = shared.generation.load(Ordering::Acquire);
        }
        served = generation;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the generation bump was `Release`-published after the job
        // was written, and the caller is blocked until this worker's `done`
        // store below — the cell is stable for the whole read window.
        let (f, caller) = unsafe {
            let job = (*shared.job.get()).as_ref().expect("generation published without a job");
            (job.f, job.caller.clone())
        };
        // SAFETY: the caller keeps the closure alive until this worker's
        // `done` store below (see module docs).
        let result = catch_unwind(AssertUnwindSafe(|| (unsafe { &*f })(w)));
        if let Err(payload) = result {
            let mut slot = shared.panic.lock().expect("pool panic lock");
            slot.get_or_insert(payload);
        }
        shared.done[w].generation.store(generation, Ordering::Release);
        caller.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_worker_with_its_own_state() {
        let mut pool = WorkerPool::new(4);
        let mut state = vec![0u64; 4];
        pool.run_with(&mut state, |w, s| *s = (w as u64 + 1) * 10, || {});
        assert_eq!(state, vec![10, 20, 30, 40]);
    }

    #[test]
    fn main_task_runs_concurrently_and_fewer_slots_than_workers_is_fine() {
        let mut pool = WorkerPool::new(3);
        let mut state = vec![0u64; 2];
        let mut main_ran = false;
        pool.run_with(&mut state, |w, s| *s = w as u64 + 1, || main_ran = true);
        assert!(main_ran);
        assert_eq!(state, vec![1, 2]);
    }

    #[test]
    fn reuses_workers_across_many_generations() {
        let mut pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for round in 0..100 {
            let mut state = vec![0usize; 2];
            pool.run_with(
                &mut state,
                |w, s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    *s = round + w;
                },
                || {},
            );
            assert_eq!(state, vec![round, round + 1]);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn zero_worker_pool_runs_main_only() {
        let mut pool = WorkerPool::new(0);
        let mut state: Vec<u8> = Vec::new();
        let mut main_ran = false;
        pool.run_with(&mut state, |_, _| unreachable!(), || main_ran = true);
        assert!(main_ran);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let mut pool = WorkerPool::new(2);
        let mut state = vec![0u8; 2];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_with(
                &mut state,
                |w, _| {
                    if w == 1 {
                        panic!("worker boom");
                    }
                },
                || {},
            );
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must still be usable afterwards (workers acked before
        // the panic was rethrown).
        pool.run_with(&mut state, |w, s| *s = w as u8, || {});
        assert_eq!(state, vec![0, 1]);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Teardown must not hang or leak: create and drop many pools.
        for _ in 0..16 {
            let mut pool = WorkerPool::new(3);
            let mut state = vec![0u8; 3];
            pool.run_with(&mut state, |_, s| *s += 1, || {});
            drop(pool);
        }
    }
}
