//! Deterministic parallel sweep executor.
//!
//! Every expensive computation in this reproduction is a grid of
//! *independent, deterministically-seeded cells*: the offline profiler
//! sweeps (division × allocation) cells, the evaluation figures sweep
//! (scenario × co-runner × scheme) cells, and the chaos/attribution
//! matrices multiply those further. Cells never communicate, so the sweep
//! is embarrassingly parallel — but the repository's determinism contract
//! (same seed ⇒ byte-identical traces and reports, `repro trace-diff`
//! self-diffs to exactly zero) must survive the parallelism.
//!
//! [`sweep`] delivers both: cells are claimed from a shared atomic cursor
//! by a small pool of scoped worker threads (work-stealing-lite — idle
//! workers simply take the next unclaimed cell, so an expensive cell never
//! stalls the queue behind it), and results are returned **in canonical
//! cell order** regardless of completion order. Because each cell derives
//! its randomness from its own index/seed and never observes its
//! neighbours, the result vector is bit-identical for every worker count.
//!
//! [`sweep_traced`] extends the guarantee to telemetry: each cell traces
//! into a private in-memory sink, and the per-cell streams are merged into
//! the parent [`Tracer`] in cell order after the sweep — so the serialized
//! event stream is byte-identical to a serial run's (the determinism
//! argument is: per-cell seeds ⇒ identical per-cell streams; ordered merge
//! ⇒ identical concatenation).
//!
//! The worker count resolves, in priority order: [`set_jobs`] (the
//! `repro --jobs` flag) → the `AUM_JOBS` environment variable →
//! [`std::thread::available_parallelism`]. `jobs = 1` degrades to a plain
//! in-place loop on the calling thread — no pool, no channels.
//!
//! Host-time accounting is scoped, not process-global: [`measure`] runs a
//! closure and returns the [`ExecStats`] of exactly the sweeps it started
//! on the calling thread outside any cell. A sweep started inside a cell
//! is part of that cell's busy time, as in the self-profiling tree, which
//! nests `exec.sweep` under `exec.cell`. A sweep outside any measurement
//! records nothing, so sweeps on unrelated threads (parallel tests, say)
//! can never contaminate one another's figures.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{MemorySink, Tracer};

/// Process-wide worker-count override; 0 = unset (fall through to the
/// `AUM_JOBS` environment variable, then to `available_parallelism`).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The open [`measure`] accumulator of this thread, if any. A sweep
    /// holds it aside while it runs, so a sweep started by one of its cells
    /// on this thread (the `jobs = 1` path runs cells in place) finds none
    /// and records nothing; pool workers are fresh threads and never have
    /// one.
    static MEASURED: Cell<Option<ExecStats>> = const { Cell::new(None) };
}

/// Holds the caller's accumulator aside and puts it back on drop —
/// unwinding included, so a panicking cell cannot detach the caller's
/// measurement.
struct Aside(Option<ExecStats>);

impl Drop for Aside {
    fn drop(&mut self) {
        MEASURED.set(self.0);
    }
}

/// Adds `stats` to the calling thread's open measurement, if any, and
/// reports whether there was one.
fn fold(stats: ExecStats) -> bool {
    let Some(mut acc) = MEASURED.get() else {
        return false;
    };
    acc += stats;
    MEASURED.set(Some(acc));
    true
}

/// Credits a measured sweep's figures to the calling thread's open
/// measurement and to the live plane that thread feeds.
fn credit(stats: ExecStats) {
    if fold(stats) {
        if let Some(state) = crate::live::installed_here() {
            state.add_exec(stats);
        }
    }
}

/// Overrides the worker count for subsequent [`sweep`] calls.
///
/// `0` clears the override (reverting to `AUM_JOBS` / auto-detection).
/// This is how `repro --jobs <N>` configures the whole harness, and how
/// the determinism tests force `--jobs 1` vs `--jobs N` comparisons.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count a sweep will use, after resolving the [`set_jobs`]
/// override, the `AUM_JOBS` environment variable and the machine's
/// available parallelism (in that priority order). Always ≥ 1.
#[must_use]
pub fn jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(env) = std::env::var("AUM_JOBS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host-time figures of the sweeps one [`measure`] call covered (`repro`
/// prints them per study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Sweeps executed.
    pub sweeps: u64,
    /// Cells executed across all sweeps.
    pub cells: u64,
    /// Summed per-cell execution time (what a serial run would pay).
    pub busy: Duration,
    /// Summed sweep wall-clock time (what the parallel run paid).
    pub wall: Duration,
    /// Time pool workers spent claiming cells (cursor bump + slot take).
    pub claim: Duration,
    /// Time spent re-emitting per-cell trace records into the parent
    /// tracer after a [`sweep_traced`] sweep (the ordered merge).
    pub merge: Duration,
    /// Pool-worker wall time not accounted to compute or claiming —
    /// result sends plus waiting out the sweep's straggler cells.
    pub idle: Duration,
}

impl std::ops::AddAssign for ExecStats {
    fn add_assign(&mut self, other: ExecStats) {
        self.sweeps += other.sweeps;
        self.cells += other.cells;
        self.busy += other.busy;
        self.wall += other.wall;
        self.claim += other.claim;
        self.merge += other.merge;
        self.idle += other.idle;
    }
}

impl ExecStats {
    /// Observed speedup: total cell compute time over sweep wall time
    /// (≈ 1.0 serial; approaches the worker count under ideal scaling).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }
}

/// Runs `f` and returns its result with the [`ExecStats`] of exactly the
/// sweeps `f` started on the calling thread outside any cell.
///
/// A sweep started inside a cell is part of that cell's busy time, not a
/// sweep of its own. Sweeps on other threads never count, so concurrent
/// measurements cannot contaminate each other. Measurements nest: an
/// inner one's figures also count toward the enclosing one.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, ExecStats) {
    let outer = Aside(MEASURED.replace(Some(ExecStats::default())));
    let r = f();
    let own = MEASURED.get().unwrap_or_default();
    drop(outer);
    fold(own);
    (r, own)
}

/// Runs `f` over every cell with the ambient worker count ([`jobs`]),
/// returning results in cell order. See [`sweep_jobs`].
pub fn sweep<T, R, F>(cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    sweep_jobs(jobs(), cells, f)
}

/// Runs `f(index, cell)` over every cell on up to `jobs` scoped worker
/// threads, returning the results **in canonical cell order** regardless
/// of completion order.
///
/// Workers claim cells from a shared atomic cursor (an idle worker always
/// takes the next unclaimed cell), finished results flow back over a
/// channel tagged with their cell index, and the collector slots them into
/// place — so neither OS scheduling nor cell cost imbalance can reorder
/// the output. Determinism beyond ordering is the *caller's* contract:
/// `f` must derive any randomness from `index`/its cell alone.
///
/// Under a [`measure`] on the calling thread, the sweep's figures count
/// toward that measurement and feed the live plane; otherwise it records
/// nothing.
///
/// # Panics
///
/// Propagates the first worker panic after the scope joins.
pub fn sweep_jobs<T, R, F>(jobs: usize, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = cells.len();
    let jobs = jobs.max(1).min(n.max(1));
    let sweep_t0 = Instant::now();
    // Sweeps the cells start on this thread belong to their cell's busy
    // time, so they must not find the caller's measurement.
    let caller = Aside(MEASURED.replace(None));
    let live = caller.0.and_then(|_| crate::live::installed_here());
    let cell_finished = || {
        crate::live::heartbeat();
        if let Some(state) = &live {
            state.cell_finished();
        }
    };
    crate::live::heartbeat();
    if let Some(state) = &live {
        state.sweep_started(n);
    }
    let mut own = ExecStats {
        sweeps: 1,
        cells: n as u64,
        ..ExecStats::default()
    };

    // Self-profiling: the sweep itself is a scope on the calling thread,
    // and every cell runs re-rooted under it ([`crate::prof::with_parent`])
    // so the self-time tree has the same shape at every worker count.
    let prof_sweep = crate::prof::scope("exec.sweep");
    let prof_parent = crate::prof::current_parent();

    let out: Vec<R> = if jobs <= 1 {
        cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let t0 = Instant::now();
                let r = {
                    let _cell_scope = crate::prof::scope("exec.cell");
                    f(i, cell)
                };
                own.busy += t0.elapsed();
                cell_finished();
                r
            })
            .collect()
    } else {
        // Each cell is claimed exactly once via the cursor; the Mutex is
        // only the safe way to move `T` out of the shared slot vector.
        let slots: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let collected: Vec<Option<R>> = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let tx = tx.clone();
                let slots = &slots;
                let cursor = &cursor;
                let f = &f;
                let cell_finished = &cell_finished;
                workers.push(scope.spawn(move || {
                    let worker_t0 = Instant::now();
                    let mut busy = Duration::ZERO;
                    let mut claim = Duration::ZERO;
                    loop {
                        let claim_t0 = Instant::now();
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let cell = slots[i]
                            .lock()
                            .expect("cell slot lock")
                            .take()
                            .expect("each cell is claimed exactly once");
                        claim += claim_t0.elapsed();
                        let t0 = Instant::now();
                        let r = crate::prof::with_parent(prof_parent, || {
                            let _cell_scope = crate::prof::scope("exec.cell");
                            f(i, cell)
                        });
                        busy += t0.elapsed();
                        cell_finished();
                        // The collector outlives every sender; a send only
                        // fails if it panicked, and then the scope propagates
                        // that panic anyway.
                        let _ = tx.send((i, r));
                    }
                    let idle = worker_t0
                        .elapsed()
                        .saturating_sub(busy)
                        .saturating_sub(claim);
                    ExecStats {
                        busy,
                        claim,
                        idle,
                        ..ExecStats::default()
                    }
                }));
            }
            drop(tx);
            let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
            for (i, r) in rx {
                out[i] = Some(r);
            }
            for worker in workers {
                match worker.join() {
                    Ok(worker_stats) => own += worker_stats,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        });
        collected
            .into_iter()
            .map(|r| r.expect("every cell reports exactly once"))
            .collect()
    };
    drop(prof_sweep);
    own.wall = sweep_t0.elapsed();
    drop(caller);
    credit(own);
    out
}

/// [`sweep`] with per-cell telemetry capture: each cell receives a private
/// [`Tracer`], and after the sweep every cell's records are re-emitted
/// into `parent` **in cell order**, so the merged stream is byte-identical
/// to what a serial sweep over the same cells would have emitted.
///
/// When `parent` is disabled the cells get disabled tracers and the merge
/// is skipped entirely — tracing stays zero-cost when off.
pub fn sweep_traced<T, R, F>(parent: &Tracer, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, Tracer) -> R + Sync,
{
    if !parent.is_enabled() {
        return sweep(cells, |i, cell| f(i, cell, Tracer::disabled()));
    }
    let mut traced: Vec<(R, Vec<crate::telemetry::TraceRecord>)> = sweep(cells, |i, cell| {
        let (tracer, sink) = Tracer::shared(MemorySink::new());
        let r = f(i, cell, tracer);
        let records = sink.lock().expect("cell sink lock").records().to_vec();
        (r, records)
    });
    let merge_t0 = Instant::now();
    {
        let _merge_scope = crate::prof::scope("exec.merge");
        for (_, records) in &traced {
            for record in records {
                parent.emit(record.at, || record.event.clone());
            }
        }
    }
    credit(ExecStats {
        merge: merge_t0.elapsed(),
        ..ExecStats::default()
    });
    traced.drain(..).map(|(r, _)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, MemorySink, Tracer};
    use crate::time::SimTime;

    #[test]
    fn results_come_back_in_cell_order_for_any_job_count() {
        let cells: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 4, 8] {
            let out = sweep_jobs(jobs, cells.clone(), |i, c| {
                assert_eq!(i, c);
                // Uneven cell cost: later cells finish first under
                // parallelism, exercising the reorder path.
                if c % 5 == 0 {
                    std::thread::yield_now();
                }
                c * 10
            });
            assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_cell_sweeps_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep_jobs(4, empty, |_, c: u32| c).is_empty());
        assert_eq!(sweep_jobs(4, vec![9u32], |_, c| c + 1), vec![10]);
    }

    #[test]
    fn traced_sweep_merges_in_cell_order_regardless_of_jobs() {
        let run = |jobs: usize| -> Vec<String> {
            set_jobs(jobs);
            let (parent, sink) = Tracer::shared(MemorySink::new());
            let cells: Vec<usize> = (0..12).collect();
            let out = sweep_traced(&parent, cells, |i, _, tracer| {
                tracer.emit(SimTime::from_secs(i as u64), || Event::ProfilerProgress {
                    completed: i + 1,
                    total: 12,
                    division: i,
                    config: 0,
                });
                i
            });
            set_jobs(0);
            assert_eq!(out, (0..12).collect::<Vec<_>>());
            let lines: Vec<String> = sink
                .lock()
                .expect("sink lock")
                .records()
                .iter()
                .map(|r| serde_json::to_string(r).expect("serialize"))
                .collect();
            lines
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.len(), 12);
        assert_eq!(serial, parallel, "merged trace must be order-identical");
    }

    #[test]
    fn disabled_parent_hands_out_disabled_tracers() {
        let parent = Tracer::disabled();
        let out = sweep_traced(&parent, vec![1, 2, 3], |_, c, tracer| {
            assert!(!tracer.is_enabled());
            c * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn stats_accumulate_busy_and_wall_time() {
        let (_, delta) = measure(|| {
            sweep_jobs(2, (0..8).collect::<Vec<_>>(), |_, c: u64| {
                std::thread::sleep(Duration::from_millis(2));
                c
            })
        });
        assert_eq!(delta.sweeps, 1);
        assert_eq!(delta.cells, 8);
        assert!(delta.busy >= Duration::from_millis(16));
        assert!(delta.wall > Duration::ZERO);
        assert!(delta.speedup() > 0.0);
    }

    #[test]
    fn measurement_ignores_sweeps_on_other_threads() {
        // Cell 0 of our first sweep holds it open while a sibling thread
        // runs an unmeasured sweep and a measured one of its own, so both
        // land inside our measurement window.
        let start = std::sync::Barrier::new(2);
        let finish = std::sync::Barrier::new(2);
        let (ours, theirs) = std::thread::scope(|scope| {
            let sibling = scope.spawn(|| {
                start.wait();
                let _ = sweep_jobs(3, (0..5).collect(), |_, c: u64| c);
                let (_, theirs) = measure(|| sweep_jobs(3, (0..7).collect(), |_, c: u64| c));
                finish.wait();
                theirs
            });
            let (_, ours) = measure(|| {
                let _ = sweep_jobs(2, (0..6).collect(), |i, c: u64| {
                    if i == 0 {
                        start.wait();
                        finish.wait();
                    }
                    c
                });
                sweep_jobs(1, (0..3).collect(), |_, c: u64| c)
            });
            (ours, sibling.join().expect("sibling thread"))
        });
        assert_eq!((ours.sweeps, ours.cells), (2, 9), "{ours:?}");
        assert_eq!((theirs.sweeps, theirs.cells), (1, 7), "{theirs:?}");
        // No worker of ours or theirs can be busy for longer than its
        // sweep's wall, so busy time booked across threads would show.
        assert!(ours.busy <= 2 * ours.wall, "{ours:?}");
        assert!(theirs.busy <= 3 * theirs.wall, "{theirs:?}");
    }

    #[test]
    fn jobs_override_takes_priority() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "cell panic")]
    fn worker_panics_propagate() {
        let _ = sweep_jobs(4, (0..16).collect::<Vec<_>>(), |_, c: u32| {
            assert!(c != 7, "cell panic");
            c
        });
    }
}
