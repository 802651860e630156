//! # vrd-runtime — the workspace's shared parallel runtime
//!
//! Hosts the scoped-thread primitives that used to live privately in the
//! bench harness, so every layer (NN kernels, trainer, experiment harness)
//! schedules work the same way:
//!
//! * [`parallel_map`] — order-preserving map over a slice on all cores;
//! * [`parallel_for_each`] — consume a vec of independent work items (e.g.
//!   disjoint `&mut` output slices) across cores;
//! * [`parallel_for_each_beside`] — the same, while the calling thread runs
//!   one task of its own first and then joins the item queue;
//! * [`with_thread_budget`] — sets the width of the section it scopes;
//!   nested sections divide it among their workers.
//!
//! The caller is always one of the workers: a section of width `n` spawns
//! `n − 1` scoped helpers and the calling thread claims items with them,
//! so `n` threads are runnable, not `n + 1` with the caller parked in the
//! join; at width 1 nothing is spawned. Workers claim the next unclaimed
//! item, so one held up by a preemption or a slow item delays the section
//! by part of an item, not by a fixed share. A panic in any worker,
//! the caller's included, re-raises with its own payload once every helper
//! has finished.
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
use std::sync::{Mutex, OnceLock};
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
/// previous width afterwards, also when `f` panics. [`max_threads`] — and
/// therefore every plain `parallel_*` entry point and everything sized from
/// it — returns `budget` for the duration, above the detected core count as
/// well as below it. Width changes wall-clock time only, never a result, so
/// tests use it to run a section at widths a small host does not have.
pub fn with_thread_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    /// Puts the previous width back when dropped, on unwind too.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(THREAD_BUDGET.with(|b| b.replace(Some(budget.max(1)))));
    f()
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

/// Runs `work` on `workers` threads and returns what `beside` returns with
/// what each worker's `work` returned: the caller is one of the workers and
/// spawns only `workers − 1` helpers, so a section of width `n` keeps `n`
/// threads runnable, not `n + 1` with the caller blocked in the join. The
/// helpers start on `work` at once; the caller runs `beside` first and then
/// `work`. Every worker runs under an even share of the width
/// ([`child_budget`]); at one worker the caller runs both under its own.
///
/// A panic in any worker re-raises with its own payload once every helper
/// has finished, the caller's first.
fn fan_out<W: Send, R>(
    workers: usize,
    beside: impl FnOnce() -> R,
    work: impl Fn() -> W + Sync,
) -> (R, Vec<W>) {
    if workers <= 1 {
        let out = beside();
        return (out, vec![work()]);
    }
    #[cfg(test)]
    tests::SPAWNED.with(|n| n.set(n.get() + workers - 1));
    let budget = child_budget(workers);
    let work = &work;
    thread::scope(|s| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| s.spawn(move || with_thread_budget(budget, work)))
            .collect();
        // A panic here unwinds out of the scope, which joins the helpers
        // first and then re-raises this payload.
        let (out, mine) = with_thread_budget(budget, || (beside(), work()));
        let mut done = vec![mine];
        // A helper that panicked re-raises here with its own payload; the
        // scope joins the rest while this thread unwinds.
        done.extend(helpers.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        (out, done)
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

/// [`parallel_map`] with an explicit worker-thread count, the caller one of
/// them.
pub fn parallel_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Workers claim the next unclaimed item instead of owning a fixed chunk:
    // a worker that is preempted or lands on a slower core then delays the
    // call by part of one item, not by its share of a whole chunk. Results
    // are keyed by item index, so the output does not depend on who ran what.
    let next = AtomicUsize::new(0);
    let ((), per_worker) = fan_out(
        threads.min(items.len()),
        || (),
        || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                done.push((i, f(item)));
            }
            done
        },
    );
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

/// [`parallel_for_each`] with an explicit worker-thread count, the caller
/// one of them.
pub fn parallel_for_each_with<I, F>(items: Vec<I>, threads: usize, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    // With nothing beside, a worker beyond the items would find none.
    let workers = threads.min(items.len());
    parallel_for_each_beside(items, workers, || (), f);
}

/// [`parallel_for_each_with`] while the caller runs `beside`: `threads − 1`
/// helpers start on the items at once, the caller runs `beside` and then
/// claims items with them, and what `beside` returns is returned once every
/// item has run. `beside` counts as one more item: with nothing to consume,
/// or at width 1, the caller runs it and then the items under its own
/// width, spawning nothing.
///
/// The items form one queue: each worker claims the next unclaimed one, so
/// a worker held up by `beside`, a preemption or a slow item delays the
/// call by part of one item, not by a fixed share.
pub fn parallel_for_each_beside<I, F, R>(
    items: Vec<I>,
    threads: usize,
    beside: impl FnOnce() -> R,
    f: F,
) -> R
where
    I: Send,
    F: Fn(I) + Sync,
{
    let workers = threads.max(1).min(items.len() + 1);
    let queue = Mutex::new(items.into_iter());
    let (out, _) = fan_out(workers, beside, || loop {
        // The lock is released before the item runs, so a panicking item
        // never poisons it.
        let Some(item) = queue.lock().expect("queue lock is never poisoned").next() else {
            break;
        };
        f(item);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    thread_local! {
        /// Helpers [`fan_out`] spawned from this thread.
        pub(super) static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    /// Blocks until `flag` is set (or five seconds pass, so a broken
    /// runtime fails the test instead of hanging it).
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !flag.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn width_one_runs_every_item_on_the_caller_and_spawns_nothing() {
        let caller = thread::current().id();
        let before = SPAWNED.with(Cell::get);
        let items: Vec<u32> = (0..9).collect();
        let ids = parallel_map_with(&items, 1, |_| thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let ran = Mutex::new(Vec::new());
        parallel_for_each_with(items.clone(), 1, |_| {
            ran.lock().unwrap().push(thread::current().id())
        });
        let beside = parallel_for_each_beside(
            items,
            1,
            || thread::current().id(),
            |_| ran.lock().unwrap().push(thread::current().id()),
        );
        assert_eq!(beside, caller);
        let ran = ran.into_inner().unwrap();
        assert_eq!(ran.len(), 18);
        assert!(ran.iter().all(|&id| id == caller));
        // Nothing to consume: `beside` runs on the caller at its own width.
        let width = with_thread_budget(4, || {
            parallel_for_each_beside(Vec::<u32>::new(), 4, max_threads, |_| {})
        });
        assert_eq!(width, 4);
        assert_eq!(SPAWNED.with(Cell::get), before);
    }

    #[test]
    fn width_two_runs_items_on_the_caller_and_one_helper() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        // A helper's item waits until the caller has run one, so the
        // caller's participation does not hang on scheduling luck.
        let caller_ran = AtomicBool::new(false);
        let run = |_: &u32| {
            let id = thread::current().id();
            if id == caller {
                caller_ran.store(true, Ordering::Release);
            } else {
                wait_for(&caller_ran);
            }
            id
        };
        let before = SPAWNED.with(Cell::get);
        let mut ids = parallel_map_with(&items, 2, run);
        assert_eq!(SPAWNED.with(Cell::get), before + 1);
        caller_ran.store(false, Ordering::Release);
        let moved = Mutex::new(Vec::new());
        parallel_for_each_with(items.clone(), 2, |x| moved.lock().unwrap().push(run(&x)));
        ids.extend(moved.into_inner().unwrap());
        assert_eq!(ids.len(), 2 * items.len());
        ids.sort_unstable_by_key(|id| format!("{id:?}"));
        ids.dedup();
        assert!(ids.len() <= 2, "{ids:?}");
        assert!(ids.contains(&caller), "{ids:?}");
    }

    #[test]
    fn a_panic_in_the_callers_item_reraises_after_the_helpers_finish() {
        /// Sets its flag when dropped: on the caller, as its panic unwinds.
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let caller = thread::current().id();
        let unwinding = AtomicBool::new(false);
        let helped = AtomicUsize::new(0);
        let items: Vec<u32> = (0..6).collect();
        with_thread_budget(2, || {
            let caught = std::panic::catch_unwind(|| {
                parallel_for_each_with(items.clone(), 2, |x| {
                    if thread::current().id() == caller {
                        let _unwinding = SetOnDrop(&unwinding);
                        panic!("item {x} ran on the caller");
                    }
                    // Every helper item waits for the caller's unwind, so
                    // the helper is still at work when the panic starts.
                    wait_for(&unwinding);
                    helped.fetch_add(1, Ordering::Relaxed);
                })
            });
            let payload = caught.expect_err("the caller's panic must reach its caller");
            let msg = payload.downcast_ref::<String>().expect("panic! message");
            assert!(msg.contains("ran on the caller"), "{msg}");
            // The helper ran every item the caller did not claim before the
            // panic surfaced, and the caller's width is its own again.
            assert_eq!(helped.load(Ordering::Relaxed), items.len() - 1);
            assert_eq!(thread_budget(), Some(2));
        });
        assert_eq!(thread_budget(), None);
    }

    #[test]
    fn beside_runs_on_the_caller_while_the_helpers_consume() {
        let caller = thread::current().id();
        let helpers_ran = AtomicBool::new(false);
        let ran = Mutex::new(Vec::new());
        let (id, width) = with_thread_budget(2, || {
            parallel_for_each_beside(
                (0..4u32).collect(),
                2,
                || {
                    // The helper is at work before the caller has claimed
                    // an item.
                    wait_for(&helpers_ran);
                    (thread::current().id(), max_threads())
                },
                |x| {
                    helpers_ran.store(true, Ordering::Release);
                    ran.lock().unwrap().push(x);
                },
            )
        });
        assert!(helpers_ran.load(Ordering::Acquire));
        assert_eq!(
            (id, width),
            (caller, 1),
            "beside runs on the caller's share"
        );
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2, 3]);
    }

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
