//! Parallel sweep executor.
//!
//! The repository's one concurrency primitive: a persistent pool that
//! runs independent *cells* on the calling thread plus `jobs − 1`
//! helper threads and returns their results in deterministic cell
//! order. Two layers build on it:
//!
//! * **Across simulations** — every figure of the reproduction is a
//!   sweep of (scheduler, rate, workload, round) cells, each building
//!   its own deterministic machine from a seed and running it to
//!   completion (`asman-report`'s figure harness).
//! * **Within a cluster epoch** — the cluster driver advances its N
//!   independent host machines to the next epoch boundary as N cells,
//!   then runs the balancer serially at the barrier
//!   (`asman-cluster::Cluster::run_epoch`).
//!
//! [`SweepRunner::new`] spawns the helpers once, so a caller that
//! sweeps often (the cluster driver sweeps once per epoch) spawns and
//! joins no thread per call. Dropping the runner joins them.
//!
//! **Claim order.** The calling thread is worker 0 and helper `k` is
//! worker `k`. With `n` cells and `J` workers, worker `w` owns the
//! contiguous block `[w·n/J, (w+1)·n/J)` and claims the cells of its
//! own block first, through a cursor per block; then it claims what is
//! left of the other blocks, in turn. So a cluster's host `h` is
//! advanced by the same worker, and usually from the same core's
//! cache, epoch after epoch; a worker that runs dry still takes over
//! the others' leftovers.
//!
//! **Handoff.** Between calls a helper parks on a condition variable,
//! and the caller parks on another while the last helper finishes. Both
//! waits are usually short in a cluster run (the serial barrier between
//! two epochs takes a few µs, and a helper's last cell one host advance
//! of tens of µs), and a futex sleep adds a wake-up of several µs to
//! each. So a waiter first polls for a bounded time (50 µs) and parks
//! only if the wait outlasts it; a wake is signalled only to a waiter
//! that is actually parked. Polling pays only while every worker has a
//! core of its own: a runner with more workers than
//! [`std::thread::available_parallelism`] parks at once.
//!
//! Cells share no state, so determinism is preserved because
//! parallelism never reaches inside a simulation, and results are
//! always collected in cell order.
//!
//! [`SweepRunner::run`] with `jobs == 1` degenerates to a plain in-order
//! loop on the calling thread, which is bit-identical to the historical
//! sequential behavior; any other job count produces bit-identical output
//! by construction (slot `i` always holds cell `i`'s result).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks. It outlasts the waits it
/// is meant to catch in a cluster run, the serial barrier (about 3 µs)
/// and a helper's last host advance (20–45 µs), and is short beside a
/// figure sweep's cells, where the wait is a whole simulation.
const SPIN: Duration = Duration::from_micros(50);

/// Best-effort text of a panic payload (`panic!` with a string covers
/// every cell in practice; anything else degrades to a placeholder).
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A published sweep as the helpers see it: the drain loop of one
/// [`SweepRunner::run`] call, called with the worker's index, its
/// borrow lifetime erased by [`Pool::drain_with_helpers`].
type Job = &'static (dyn Fn(usize) + Sync);

/// Pool state shared by the callers and the helpers.
struct State {
    /// Bumped once per published job, so a helper runs each job once.
    generation: u64,
    /// The job being drained; `None` between calls.
    job: Option<Job>,
    /// A `run` call owns the pool, from publishing its job until no
    /// helper still holds it.
    busy: bool,
    /// Set when the runner is dropped: helpers exit.
    shutdown: bool,
    /// Helpers parked on `wake`.
    parked: usize,
    /// The owning caller is parked on `idle`.
    caller_parked: bool,
}

struct Shared {
    state: Mutex<State>,
    /// `State::generation`, stored under the lock, which helpers poll
    /// without it. It publishes nothing else (a helper reads the job
    /// under the lock), so its accesses are `Relaxed`.
    published: AtomicU64,
    /// Helpers currently running `job`. Changed only under the lock; the
    /// caller polls it without the lock and decides under it, so the
    /// lock orders it and its accesses are `Relaxed`.
    active: AtomicUsize,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// The caller parks here for `active` to fall to zero.
    idle: Condvar,
    /// Waiters poll for [`SPIN`] before parking: every worker has a
    /// core of its own.
    spin: bool,
}

impl Shared {
    /// Lock the state. Every update under the lock is a single field
    /// store that leaves the state valid, so a poisoned lock is
    /// recovered instead of propagated; that also keeps the drop
    /// guards below from panicking.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poll `done` for up to [`SPIN`] when spinning is on. Only a hint:
    /// every waiter decides under the lock afterwards.
    fn poll(&self, done: impl Fn() -> bool) {
        if !self.spin {
            return;
        }
        let t0 = Instant::now();
        while !done() && t0.elapsed() < SPIN {
            std::hint::spin_loop();
        }
    }

    /// Helper `worker`'s life: wait until a job of a generation it has
    /// not run is published, join its drain, and repeat until shutdown.
    fn serve(&self, worker: usize) {
        let mut seen = 0;
        let mut st = self.lock();
        while !st.shutdown {
            match st.job {
                Some(job) if st.generation != seen => {
                    seen = st.generation;
                    self.active.fetch_add(1, Ordering::Relaxed);
                    drop(st);
                    {
                        let _leave = Leave(self);
                        job(worker);
                    }
                    self.poll(|| self.published.load(Ordering::Relaxed) != seen);
                    st = self.lock();
                }
                _ => {
                    st.parked += 1;
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.parked -= 1;
                }
            }
        }
    }
}

/// Counts a helper out of the job it took, on return and on unwind,
/// and wakes the caller when it was the last one and the caller is
/// parked.
struct Leave<'a>(&'a Shared);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let st = self.0.lock();
        let last = self.0.active.fetch_sub(1, Ordering::Relaxed) == 1;
        let wake = last && st.caller_parked;
        drop(st);
        if wake {
            self.0.idle.notify_all();
        }
    }
}

/// Withdraws the published job, waits until no helper still runs it,
/// and frees the pool for the next call. Dropped when
/// [`Pool::drain_with_helpers`] returns *or unwinds*, which is what
/// keeps the erased borrow from outliving the call.
struct Retire<'a>(&'a Shared);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let mut st = shared.lock();
        st.job = None;
        if shared.active.load(Ordering::Relaxed) > 0 {
            drop(st);
            shared.poll(|| shared.active.load(Ordering::Relaxed) == 0);
            st = shared.lock();
            while shared.active.load(Ordering::Relaxed) > 0 {
                st.caller_parked = true;
                st = shared.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.caller_parked = false;
            }
        }
        st.busy = false;
    }
}

/// The helper threads and the state they share with callers.
struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn workers `1..=helpers`; the caller is worker 0.
    fn spawn(helpers: usize, spin: bool) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                job: None,
                busy: false,
                shutdown: false,
                parked: 0,
                caller_parked: false,
            }),
            published: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            wake: Condvar::new(),
            idle: Condvar::new(),
            spin,
        });
        let helpers = (1..=helpers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.serve(worker))
            })
            .collect();
        Pool { shared, helpers }
    }

    /// Run `drain(0)` on the calling thread and `drain(k)` on helper
    /// `k`, returning once no helper still runs it. Returns `false`
    /// without running anything when another call owns the pool: a cell
    /// sweeping on the runner that executes it, or a second thread
    /// sharing it.
    fn drain_with_helpers(&self, drain: &(dyn Fn(usize) + Sync)) -> bool {
        let parked = {
            let mut st = self.shared.lock();
            if st.busy {
                return false;
            }
            // SAFETY: only the borrow lifetime is erased; the type and
            // layout are unchanged. Helpers call the job only after
            // taking it from `State::job` under the lock, counted in
            // `active`, which changes only under the lock. The `Retire`
            // guard, created right after this block and dropped when
            // this function returns or unwinds, withdraws the job under
            // the lock (no helper can take it after that) and then
            // waits until it reads `active` as zero under the lock
            // (every helper that took it has returned from it; polling
            // `active` first only delays that check). So every call
            // through the erased reference ends before `drain`, which
            // the caller's frame owns, can go out of scope.
            let job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(drain) };
            st.busy = true;
            st.generation += 1;
            st.job = Some(job);
            self.shared
                .published
                .store(st.generation, Ordering::Relaxed);
            st.parked > 0
        };
        let _retire = Retire(&self.shared);
        if parked {
            self.shared.wake.notify_all();
        }
        drain(0);
        true
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            // A new generation ends a polling helper's wait at once.
            st.generation += 1;
            self.shared
                .published
                .store(st.generation, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // Cells run under `catch_unwind`, so a helper can only have
            // panicked on a broken pool invariant; the panic hook has
            // already reported it, and `Drop` must not panic again.
            let _ = helper.join();
        }
    }
}

/// Executes a sweep's cells on a persistent pool of helper threads plus
/// the calling thread, returning results in deterministic cell order.
pub struct SweepRunner {
    jobs: usize,
    /// `None` when `jobs <= 1`: every sweep is a plain in-order loop.
    pool: Option<Pool>,
}

impl SweepRunner {
    /// Runner with an explicit worker count; `0` selects
    /// [`std::thread::available_parallelism`]. Spawns the `jobs − 1`
    /// helper threads, which live until the runner is dropped. Its
    /// waiters poll before parking only if `jobs` is at most the
    /// available parallelism.
    pub fn new(jobs: usize) -> Self {
        let cores = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        // A one-worker runner has no pool, so it does not ask the OS.
        let (jobs, spin) = match jobs {
            0 => (cores(), true),
            1 => (1, false),
            n => (n, n <= cores()),
        };
        let pool = (jobs > 1).then(|| Pool::spawn(jobs - 1, spin));
        SweepRunner { jobs, pool }
    }

    /// Runner sized to the host's available parallelism.
    pub fn auto() -> Self {
        SweepRunner::new(0)
    }

    /// The effective worker count, the calling thread included.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run every cell and return their results in cell order.
    ///
    /// With one job (or at most one cell) this is an ordinary sequential
    /// loop on the calling thread. Otherwise worker `w` (the calling
    /// thread is worker 0) claims the cells of its own block
    /// `[w·n/J, (w+1)·n/J)` first and then what is left of the other
    /// blocks, in turn; which worker runs a leftover cell is racy, but
    /// each result lands in its own cell's slot, so the returned `Vec`
    /// is independent of thread scheduling. A call made while another
    /// owns the pool (a cell sweeping on this same runner, or a second
    /// thread) runs every block, in cell order, on its own thread.
    ///
    /// A panicking cell does not unwind through the pool: every cell
    /// runs under `catch_unwind`, every helper finishes the sweep
    /// normally, and then the panic of the *lowest-indexed* failing
    /// cell is re-raised with the cell index in its message. The
    /// runner stays usable afterwards.
    pub fn run<T, F>(&self, cells: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = cells.len();
        let Some(pool) = self.pool.as_ref().filter(|_| n > 1) else {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, cell)| match catch_unwind(AssertUnwindSafe(cell)) {
                    Ok(out) => out,
                    Err(p) => panic!("sweep cell {i} panicked: {}", payload_msg(p.as_ref())),
                })
                .collect();
        };
        let jobs = self.jobs;
        let slots: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        // Worker `w`'s block is `[start(w), start(w + 1))`.
        let start = |w: usize| w * n / jobs;
        // The cursors only hand out indices; cells and results travel
        // through the slot mutexes, so they need no ordering.
        let cursors: Vec<AtomicUsize> = (0..jobs).map(|w| AtomicUsize::new(start(w))).collect();
        let drain = |worker: usize| {
            for block in (worker..jobs).chain(0..worker) {
                let end = start(block + 1);
                loop {
                    let i = cursors[block].fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    let cell = slots[i]
                        .lock()
                        .expect("cell slot poisoned")
                        .take()
                        .expect("cell claimed twice");
                    match catch_unwind(AssertUnwindSafe(cell)) {
                        Ok(out) => {
                            *results[i].lock().expect("result slot poisoned") = Some(out);
                        }
                        Err(p) => {
                            let mut first = panicked.lock().expect("panic slot poisoned");
                            if first.as_ref().is_none_or(|&(j, _)| i < j) {
                                *first = Some((i, p));
                            }
                        }
                    }
                }
            }
        };
        if !pool.drain_with_helpers(&drain) {
            drain(0);
        }
        if let Some((i, p)) = panicked.into_inner().expect("panic slot poisoned") {
            panic!("sweep cell {i} panicked: {}", payload_msg(p.as_ref()));
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker panicked before storing result")
            })
            .collect()
    }

    /// Apply `f` to every item on the worker pool, preserving item order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let f = &f;
        self.run(items.into_iter().map(|item| move || f(item)).collect())
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::auto()
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("jobs", &self.jobs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let inputs: Vec<u64> = (0..37).collect();
        let seq = SweepRunner::new(1).map(inputs.clone(), |x| x * x + 1);
        let par = SweepRunner::new(8).map(inputs, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn order_is_deterministic_under_adversarial_latencies() {
        // Early cells sleep longest, so under any work-stealing order the
        // *completion* order is adversarial (reversed); the result order
        // must still be cell order.
        let n = 24usize;
        for jobs in [2usize, 3, 8] {
            let cells: Vec<_> = (0..n)
                .map(|i| {
                    move || {
                        std::thread::sleep(std::time::Duration::from_millis((n - i) as u64 % 7));
                        i
                    }
                })
                .collect();
            let out = SweepRunner::new(jobs).run(cells);
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert!(SweepRunner::auto().jobs() >= 1);
    }

    #[test]
    fn empty_and_single_cell_sweeps() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(SweepRunner::new(4).run(empty).is_empty());
        assert_eq!(SweepRunner::new(4).run(vec![|| 9u8]), vec![9]);
    }

    /// Regression: a panicking cell used to unwind straight through the
    /// scoped pool, poisoning sibling mutexes and surfacing as a
    /// misleading "result slot poisoned". Now every worker joins
    /// normally and the first failing cell's panic is re-raised with
    /// its index.
    #[test]
    fn cell_panic_reports_lowest_failing_index() {
        for jobs in [1usize, 4] {
            let cells: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 || i == 7 {
                            panic!("boom in {i}");
                        }
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let err = catch_unwind(AssertUnwindSafe(|| SweepRunner::new(jobs).run(cells)))
                .expect_err("sweep must propagate the cell panic");
            let msg = payload_msg(err.as_ref()).to_string();
            assert!(
                msg.contains("sweep cell 3 panicked") && msg.contains("boom in 3"),
                "jobs={jobs}: unexpected message: {msg}"
            );
        }
    }

    /// The caller and both helpers of a `jobs = 3` runner run cells at
    /// the same time: every cell waits at one three-party barrier,
    /// which opens only while three cells are in flight at once.
    #[test]
    fn caller_and_helpers_run_cells_concurrently() {
        let runner = SweepRunner::new(3);
        let barrier = std::sync::Barrier::new(3);
        let out = runner.map(vec![0usize, 1, 2], |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    /// Helpers persist across calls: a thousand sweeps on one runner
    /// see at most `jobs` distinct threads (the caller and its parked
    /// helpers), where spawning per call would show thousands.
    #[test]
    fn helpers_persist_across_calls() {
        let runner = SweepRunner::new(3);
        let mut threads = std::collections::HashSet::new();
        for _ in 0..1000 {
            threads.extend(runner.map((0..8u32).collect(), |_| std::thread::current().id()));
        }
        assert!(
            threads.len() <= runner.jobs(),
            "{} distinct threads ran cells of a jobs = {} runner",
            threads.len(),
            runner.jobs()
        );
    }

    /// A sweep whose cell panicked leaves the runner usable: the next
    /// sweep on it runs clean and returns its results in cell order.
    #[test]
    fn runner_recovers_after_a_cell_panic() {
        let runner = SweepRunner::new(4);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            runner.map((0..16usize).collect(), |i| {
                if i == 5 {
                    panic!("boom in {i}");
                }
                i
            })
        }));
        assert!(failed.is_err(), "the panicking sweep must fail");
        let out = runner.map((0..16usize).collect(), |i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// A cell that sweeps on the runner executing it finds the pool
    /// busy and runs its inner cells on its own thread, in order,
    /// instead of deadlocking.
    #[test]
    fn nested_sweep_on_the_same_runner_runs_in_place() {
        let runner = SweepRunner::new(3);
        let out = runner.map((0..6u64).collect(), |i| {
            runner.map((0..4u64).collect(), |j| i * 10 + j)
        });
        let want: Vec<Vec<u64>> = (0..6)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    /// Each worker starts on its own block: with two workers over 16
    /// cells the caller owns cells 0–7 and the helper cells 8–15. Cell
    /// 0 (the caller's first) waits at a two-party barrier that only
    /// cell 8 opens, so the helper must come in; its first cell is 8,
    /// the head of its own block, not the caller's next cell 1.
    #[test]
    fn each_worker_starts_on_its_own_block() {
        let runner = SweepRunner::new(2);
        let barrier = std::sync::Barrier::new(2);
        let log = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        runner.map((0..16usize).collect(), |i| {
            log.lock().unwrap().push((i, std::thread::current().id()));
            if i == 0 || i == 8 {
                barrier.wait();
            }
        });
        let log = log.into_inner().unwrap();
        let helper_first = log.iter().find(|&&(_, t)| t != caller).map(|&(i, _)| i);
        assert_eq!(helper_first, Some(8), "claim log: {log:?}");
    }

    /// Back-to-back sweeps on one runner, with caller gaps below and
    /// above the polling bound: a helper finds the next job while it
    /// polls, or is woken from its park. Every sweep returns in cell
    /// order.
    #[test]
    fn back_to_back_sweeps_across_the_polling_bound() {
        let gaps = [
            Duration::ZERO,
            Duration::from_micros(10),
            Duration::from_millis(1),
        ];
        assert!(gaps[1] < SPIN && SPIN < gaps[2]);
        let runner = SweepRunner::new(2);
        for gap in gaps {
            for round in 0..200u64 {
                let t0 = Instant::now();
                while t0.elapsed() < gap {
                    std::hint::spin_loop();
                }
                let out = runner.map((0..16u64).collect(), |i| i * round);
                assert_eq!(out, (0..16).map(|i| i * round).collect::<Vec<_>>());
            }
        }
    }

    /// Dropping a runner right after a sweep ends its helpers' polling
    /// at once and joins them.
    #[test]
    fn drop_right_after_a_sweep_joins_promptly() {
        for _ in 0..100 {
            let runner = SweepRunner::new(3);
            assert_eq!(
                runner.map((0..6u32).collect(), |i| i + 1),
                [1, 2, 3, 4, 5, 6]
            );
            let t0 = Instant::now();
            drop(runner);
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "drop took {:?}",
                t0.elapsed()
            );
        }
    }

    /// More workers than cells leaves some blocks empty (the caller's
    /// too, below eight cells): every cell still runs once, in order.
    #[test]
    fn more_workers_than_cells() {
        let runner = SweepRunner::new(8);
        for n in 1..=7usize {
            assert_eq!(
                runner.map((0..n).collect(), |i| i * 3),
                (0..n).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
    }
}
