//! # vrd-runtime — the workspace's shared parallel runtime
//!
//! Hosts the scoped-thread primitives that used to live privately in the
//! bench harness, so every layer (NN kernels, trainer, experiment harness)
//! schedules work the same way:
//!
//! * [`parallel_map`] — order-preserving map over a slice on all cores;
//! * [`parallel_for_each`] — consume a vec of independent work items (e.g.
//!   disjoint `&mut` output slices) across cores;
//! * [`with_thread_budget`] — sets the width of the section it scopes;
//!   nested sections divide it among their workers.
//!
//! Everything here is **deterministic by construction**: work items are
//! independent, outputs go to pre-assigned slots, and no reduction order
//! depends on the thread count. The width is one value, [`max_threads`]:
//! the [`with_thread_budget`] in force on the calling thread, else the
//! process default — the `VRD_THREADS` environment variable if valid, else
//! the hardware parallelism, read once per process.

#![warn(unreachable_pub)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

mod stage;

pub use stage::{stage_channel, StageReceiver, StageSender};

thread_local! {
    /// The width [`with_thread_budget`] sets on this thread; `None` means
    /// the process default.
    static THREAD_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread budget currently in force on this thread, if any.
///
/// Workers spawned by the `parallel_*` entry points run under a budget of
/// roughly `max_threads() / workers`, so nested parallel sections (an NN
/// kernel called from a parallel wave, say) fan out to about the section's
/// width in total instead of `workers × cores`.
pub(crate) fn thread_budget() -> Option<usize> {
    THREAD_BUDGET.with(|b| b.get())
}

/// Runs `f` with this thread's width set to `budget` (≥ 1), restoring the
/// previous width afterwards. [`max_threads`] — and therefore every plain
/// `parallel_*` entry point and everything sized from it — returns
/// `budget` for the duration, above the detected core count as well as
/// below it. Width changes wall-clock time only, never a result, so tests
/// use it to run a section at widths a small host does not have.
pub fn with_thread_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    THREAD_BUDGET.with(|b| {
        let prev = b.replace(Some(budget.max(1)));
        let out = f();
        b.set(prev);
        out
    })
}

/// The per-worker budget for a section about to fan out over `workers`
/// threads: the currently effective [`max_threads`] divided evenly, never
/// below 1.
fn child_budget(workers: usize) -> usize {
    (max_threads() / workers.max(1)).max(1)
}

/// Parses a `VRD_THREADS` value: `Ok(n)` for a positive integer, `Err` with
/// the rejected text otherwise (so callers can warn and fall back).
fn parse_thread_override(v: &str) -> Result<usize, &str> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(v),
    }
}

/// The width the `parallel_*` entry points and every section sized from
/// them use: the [`with_thread_budget`] in force on this thread, else the
/// process default.
pub fn max_threads() -> usize {
    thread_budget().unwrap_or_else(process_default)
}

/// The width outside any [`with_thread_budget`], fixed once per process:
/// the `VRD_THREADS` environment variable if set to a positive integer,
/// otherwise [`thread::available_parallelism`] (which re-reads the
/// affinity mask and cgroup quota files on every call, while
/// [`max_threads`] is asked per kernel launch). An invalid `VRD_THREADS`
/// value (zero, non-numeric) is reported once on stderr and then ignored.
fn process_default() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let detected = || {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match std::env::var("VRD_THREADS") {
            Ok(v) => parse_thread_override(&v).unwrap_or_else(|bad| {
                eprintln!(
                    "vrd-runtime: ignoring invalid VRD_THREADS={bad:?} \
                     (expected a positive integer); using detected core count"
                );
                detected()
            }),
            Err(_) => detected(),
        }
    })
}

/// Runs `f` over the items on all available cores, preserving order.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, max_threads(), f)
}

/// [`parallel_map`] with an explicit worker-thread count.
pub fn parallel_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    // Workers claim the next unclaimed item instead of owning a fixed chunk:
    // a worker that is preempted or lands on a slower core then delays the
    // call by part of one item, not by its share of a whole chunk. Results
    // are keyed by item index, so the output does not depend on who ran what.
    let next = AtomicUsize::new(0);
    let budget = child_budget(threads);
    let (f, next) = (&f, &next);
    let per_worker: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    with_thread_budget(budget, || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            done.push((i, f(item)));
                        }
                        done
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker that panicked re-raises here with its own payload;
            // the scope joins the rest while this thread unwinds.
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot is filled by its worker"))
        .collect()
}

/// Consumes independent work items across all available cores.
///
/// Unlike [`parallel_map`] the items are moved into the workers, which lets
/// callers hand out disjoint `&mut` slices (e.g. one output plane per item)
/// without interior mutability.
pub fn parallel_for_each<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    parallel_for_each_with(items, max_threads(), f)
}

/// [`parallel_for_each`] with an explicit worker-thread count.
pub fn parallel_for_each_with<I, F>(mut items: Vec<I>, threads: usize, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    if items.is_empty() {
        return;
    }
    let threads = threads.max(1).min(items.len());
    if threads == 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let budget = child_budget(threads);
    let f = &f;
    thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        while !items.is_empty() {
            let take = chunk.min(items.len());
            let group: Vec<I> = items.drain(..take).collect();
            handles.push(s.spawn(move || {
                with_thread_budget(budget, || {
                    for item in group {
                        f(item);
                    }
                })
            }));
        }
        // As in `parallel_map_with`: a worker's panic re-raises here with
        // its own payload instead of the scope's generic one.
        for h in handles {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..37).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn parallel_map_is_thread_count_invariant() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(parallel_map_with(&items, threads, |&x| x * x), expect);
        }
    }

    #[test]
    fn parallel_map_runs_each_item_once_when_one_item_stalls() {
        // Item 0 stalls its worker; the other worker must pick up the rest
        // rather than leave half of them queued behind the stall.
        let items: Vec<usize> = (0..16).collect();
        let calls = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let out = parallel_map_with(&items, 2, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                while calls.load(Ordering::Relaxed) < items.len()
                    && std::time::Instant::now() < deadline
                {
                    thread::yield_now();
                }
            }
            (i, thread::current().id())
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert!(out.iter().map(|&(i, _)| i).eq(0..16));
        let staller = out[0].1;
        assert!(out[1..].iter().all(|&(_, id)| id != staller));
    }

    #[test]
    fn parallel_map_reraises_a_worker_panic_with_its_payload() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(&items, 2, |&x| {
                assert!(x != 5, "item {x} is poison");
                x
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert! message");
        assert!(msg.contains("item 5 is poison"), "{msg}");
    }

    #[test]
    fn parallel_for_each_reraises_a_worker_panic_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_for_each_with((0..8u32).collect(), 2, |x| {
                assert!(x != 5, "item {x} is poison");
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert! message");
        assert!(msg.contains("item 5 is poison"), "{msg}");
    }

    #[test]
    fn parallel_for_each_writes_disjoint_slices() {
        let mut data = vec![0u32; 64];
        for threads in [1, 3, 7] {
            let work: Vec<(usize, &mut [u32])> = data.chunks_mut(16).enumerate().collect();
            parallel_for_each_with(work, threads, |(i, chunk)| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 100 + j) as u32;
                }
            });
            for (i, chunk) in data.chunks(16).enumerate() {
                for (j, &v) in chunk.iter().enumerate() {
                    assert_eq!(v, (i * 100 + j) as u32);
                }
            }
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn thread_budget_caps_and_restores() {
        assert_eq!(thread_budget(), None);
        let inside = with_thread_budget(1, || {
            assert_eq!(thread_budget(), Some(1));
            // Nested scopes set their own width and restore the outer one.
            with_thread_budget(3, || assert_eq!(thread_budget(), Some(3)));
            assert_eq!(thread_budget(), Some(1));
            max_threads()
        });
        assert_eq!(inside, 1);
        assert_eq!(thread_budget(), None);
        // A zero budget is clamped to 1 rather than deadlocking callers.
        with_thread_budget(0, || assert_eq!(max_threads(), 1));
    }

    #[test]
    fn parallel_workers_inherit_a_divided_budget() {
        // Two workers under an outer budget of 4 should each see a nested
        // budget of at most 2, and results stay order-preserving.
        let items: Vec<u32> = (0..8).collect();
        let budgets = with_thread_budget(4, || {
            parallel_map_with(&items, 2, |&x| {
                let b = thread_budget().unwrap_or(usize::MAX);
                assert!(b <= 2, "worker budget {b} exceeds fair share");
                x
            })
        });
        assert_eq!(budgets, items);
    }

    #[test]
    fn thread_budget_sets_the_width_above_the_core_count() {
        let outer = max_threads();
        let workers = with_thread_budget(8, || {
            // Not capped by the host: a 2-core machine runs 8 wide here.
            assert_eq!(max_threads(), 8);
            let items: Vec<u32> = (0..8).collect();
            parallel_map_with(&items, max_threads(), |_| max_threads())
        });
        // Eight workers share the eight: each nested section runs 1 wide.
        assert_eq!(workers, vec![1; 8]);
        assert_eq!(max_threads(), outer);
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn thread_override_rejects_invalid_values() {
        // The env-independent core of the VRD_THREADS handling: valid
        // positive integers pass through, everything else is rejected (and
        // the process default then warns once and uses the detected core
        // count).
        assert_eq!(parse_thread_override("1"), Ok(1));
        assert_eq!(parse_thread_override("16"), Ok(16));
        assert_eq!(parse_thread_override("0"), Err("0"));
        assert_eq!(parse_thread_override("abc"), Err("abc"));
        assert_eq!(parse_thread_override("-2"), Err("-2"));
        assert_eq!(parse_thread_override(""), Err(""));
        assert_eq!(parse_thread_override("4.5"), Err("4.5"));
    }
}
