//! A work-stealing scoped-thread scheduler for embarrassingly parallel
//! query batteries.
//!
//! The classification and per-role sweep workloads are batteries of
//! *independent* satisfiability queries against one shared, read-only
//! TBox — the cheapest parallelism a DL reasoner can buy. [`fan_out_cx`]
//! partitions such a battery across a small pool of scoped threads
//! (`std::thread::scope`, so borrowed inputs need no `'static` bound and
//! no external thread-pool/registry dependency) and returns the results
//! in input order, together with [`SchedStats`] describing how the work
//! actually moved.
//!
//! # Scheduling
//!
//! Indices are striped round-robin into **per-worker deques** (worker
//! `w` of `n` seeds `w, w+n, w+2n, …`). Each worker drains its own deque
//! from the front; a worker whose deque runs dry **steals from the back**
//! of a sibling's deque instead of idling, so a few expensive queries (an
//! unsatisfiable type whose refutation explores many branches) cannot
//! strand a stripe while other workers sit idle. An index is claimed
//! exactly once — there is no re-queueing — so when every deque is empty
//! the battery is fully claimed and workers exit. Results are written
//! into pre-assigned slots, which keeps the output order identical to the
//! sequential `items.iter().map(f)` order — the differential suites
//! compare the two element for element.
//!
//! # Cancellation
//!
//! The scheduler is context-aware: between items every worker consults
//! the batch's [`ExecCx`] and stops claiming work once the context is
//! cancelled or past its deadline. Already-running items finish (the
//! tableau inside them observes the same context and unwinds at its next
//! check point); unclaimed items are *skipped* and surface as `None` in
//! [`Batch::results`]. Skipping is the only effect an interrupt has on
//! the batch — completed verdicts are kept, and because cancelling a
//! [`CancelToken`](crate::exec::CancelToken) **child** never trips its
//! parent or siblings, an item that bounds its own sub-proof with a child
//! context cannot poison the rest of the battery.
//!
//! ```
//! use orm_dl::par::fan_out;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let squares = fan_out(&inputs, 4, |_, &x| x * x);
//! assert_eq!(squares[10], 100);
//! assert_eq!(squares.len(), inputs.len());
//! ```

use crate::exec::ExecCx;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on worker threads [`default_threads`] reports — a battery
/// rarely has enough independent weight to feed more, and the shard
/// count of the verdict cache ([`crate::cache::DEFAULT_SHARDS`]) is
/// sized to keep this many workers off each other's locks.
const MAX_DEFAULT_THREADS: usize = 8;

/// The hardware parallelism available to a fan-out, clamped to
/// [1, 8]. Callers that pass this to [`fan_out`] get a pool matched to
/// the machine; passing any other value is equally valid.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_DEFAULT_THREADS)
}

/// How a [`fan_out_cx`] battery was actually scheduled.
///
/// `executed + skipped + panicked == items.len()` always holds: every
/// index is either claimed and run to completion by some worker, left
/// behind after an interrupt, or claimed but lost to a panic in the
/// caller's closure. `stolen ≤ executed` counts the executed items that
/// ran on a worker other than the one whose deque they were seeded into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads the battery actually used (1 = ran inline).
    pub workers: usize,
    /// Items claimed and executed to completion.
    pub executed: u64,
    /// Executed items that were stolen from another worker's deque.
    pub stolen: u64,
    /// Items never claimed because the context was interrupted.
    pub skipped: u64,
    /// Items whose closure panicked — caught per item, so one poisoned
    /// item never kills its siblings (see [`Batch::panics`]).
    pub panicked: u64,
}

impl SchedStats {
    /// Stable serialized form: one JSON object with fixed key order
    /// `workers, executed, stolen, skipped, panicked`. Consumed by the
    /// bench harness and CI asserts — extend it, never reorder it.
    ///
    /// ```
    /// use orm_dl::par::SchedStats;
    ///
    /// let stats =
    ///     SchedStats { workers: 4, executed: 10, stolen: 3, skipped: 0, panicked: 0 };
    /// assert_eq!(
    ///     stats.to_json(),
    ///     r#"{"workers":4,"executed":10,"stolen":3,"skipped":0,"panicked":0}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"workers":{},"executed":{},"stolen":{},"skipped":{},"panicked":{}}}"#,
            self.workers, self.executed, self.stolen, self.skipped, self.panicked
        )
    }
}

impl std::fmt::Display for SchedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers {} / executed {} / stolen {} / skipped {} / panicked {}",
            self.workers, self.executed, self.stolen, self.skipped, self.panicked
        )
    }
}

/// The outcome of a [`fan_out_cx`] battery: per-item results in input
/// order (`None` for items skipped after an interrupt or lost to a
/// panic) plus the scheduling counters.
#[derive(Debug)]
pub struct Batch<R> {
    /// `results[i]` is `Some` iff item `i` was executed to completion.
    pub results: Vec<Option<R>>,
    /// How the battery was scheduled.
    pub stats: SchedStats,
    /// Why items were skipped, if any were — `None` for a complete run.
    pub interrupt: Option<crate::exec::Interrupt>,
    /// `(index, message)` for every item whose closure panicked, in
    /// ascending index order. The panic is caught per item
    /// (`catch_unwind`), so sibling items keep their verdicts; callers
    /// that must not swallow failures inspect this and re-raise.
    pub panics: Vec<(usize, String)>,
}

impl<R> Batch<R> {
    /// Whether every item ran to completion.
    pub fn is_complete(&self) -> bool {
        self.stats.skipped == 0 && self.stats.panicked == 0
    }
}

/// Render a caught panic payload for [`Batch::panics`]. The standard
/// `panic!` macros carry `&str` or `String`; anything else gets a fixed
/// placeholder rather than a `Debug` dump of an opaque box.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply `f` to every item of `items` across up to `threads` scoped
/// worker threads under the execution context `cx`, returning a
/// [`Batch`] of results in input order. `f` receives the item's index
/// alongside the item.
///
/// `threads <= 1` (or a battery of at most one item) runs inline on the
/// calling thread — zero spawn overhead, same per-item interrupt checks.
/// A panic inside `f` is caught **per item** (`catch_unwind`): the
/// panicking item's slot stays `None`, the payload is recorded in
/// [`Batch::panics`], and every other item — including the rest of the
/// panicking worker's stripe — still runs. The battery itself never
/// unwinds.
///
/// Executed and stolen items are counted only in the batch's
/// [`SchedStats`]; `cx`'s [`Meter`](crate::exec::Meter) sees the proofs
/// and steps the items themselves charge.
///
/// ```
/// use orm_dl::exec::ExecCx;
/// use orm_dl::par::fan_out_cx;
///
/// let inputs: Vec<u64> = (0..64).collect();
/// let cx = ExecCx::unlimited();
/// let batch = fan_out_cx(&inputs, 4, &cx, |_, &x| x + 1);
/// assert!(batch.is_complete());
/// assert_eq!(batch.results[5], Some(6));
/// assert_eq!(batch.stats.executed, 64);
///
/// // A pre-cancelled context executes nothing — and says so.
/// cx.cancel();
/// let batch = fan_out_cx(&inputs, 4, &cx, |_, &x| x + 1);
/// assert_eq!(batch.stats.executed, 0);
/// assert_eq!(batch.stats.skipped, 64);
/// assert!(batch.results.iter().all(Option::is_none));
/// ```
pub fn fan_out_cx<T, R, F>(items: &[T], threads: usize, cx: &ExecCx, f: F) -> Batch<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        let mut panics: Vec<(usize, String)> = Vec::new();
        let mut executed = 0u64;
        for (i, item) in items.iter().enumerate() {
            if cx.check().is_err() {
                break;
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item))) {
                Ok(result) => {
                    results.push(Some(result));
                    executed += 1;
                }
                Err(payload) => {
                    results.push(None);
                    panics.push((i, panic_message(payload.as_ref())));
                }
            }
        }
        results.resize_with(items.len(), || None);
        let panicked = panics.len() as u64;
        let skipped = items.len() as u64 - executed - panicked;
        return Batch {
            results,
            stats: SchedStats { workers: 1, executed, stolen: 0, skipped, panicked },
            interrupt: if skipped > 0 { cx.check().err() } else { None },
            panics,
        };
    }

    // Seed the per-worker deques round-robin: worker w owns indices
    // w, w+workers, w+2·workers, … Owners pop from the front, thieves
    // from the back, so a steal grabs the victim's *coldest* work.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|w| Mutex::new((w..items.len()).step_by(workers).collect())).collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let executed = AtomicU64::new(0);
    let stolen = AtomicU64::new(0);
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let executed = &executed;
            let stolen = &stolen;
            let panics = &panics;
            let f = &f;
            scope.spawn(move || loop {
                if cx.check().is_err() {
                    break;
                }
                // Own deque first; steal on empty. Claiming under the
                // victim's lock makes each index run exactly once. The
                // own-deque guard must drop before the steal scan: a
                // worker that held its own lock while locking a
                // neighbour's would form a cycle with neighbours doing
                // the same once every deque drains at once.
                let own = queues[w].lock().pop_front();
                let claimed = own.map(|i| (i, false)).or_else(|| {
                    (1..workers).find_map(|d| {
                        queues[(w + d) % workers].lock().pop_back().map(|i| (i, true))
                    })
                });
                let Some((i, was_steal)) = claimed else { break };
                if was_steal {
                    stolen.fetch_add(1, Ordering::Relaxed);
                }
                // Catch the panic *outside* any slot lock, so a poisoned
                // item can neither kill the worker (stranding its stripe)
                // nor wedge a lock a sibling needs.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, &items[i]))) {
                    Ok(result) => {
                        *slots[i].lock() = Some(result);
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(payload) => {
                        panics.lock().push((i, panic_message(payload.as_ref())));
                    }
                }
            });
        }
    });
    let results: Vec<Option<R>> = slots.into_iter().map(Mutex::into_inner).collect();
    let executed = executed.into_inner();
    let mut panics = panics.into_inner();
    panics.sort_unstable_by_key(|&(i, _)| i);
    let panicked = panics.len() as u64;
    let skipped = items.len() as u64 - executed - panicked;
    Batch {
        results,
        stats: SchedStats { workers, executed, stolen: stolen.into_inner(), skipped, panicked },
        interrupt: if skipped > 0 { cx.check().err() } else { None },
        panics,
    }
}

/// Apply `f` to every item of `items` across up to `threads` scoped
/// worker threads, returning the results in input order. `f` receives
/// the item's index alongside the item.
///
/// Back-compat wrapper over [`fan_out_cx`] under an unlimited context —
/// nothing can interrupt it, so every slot is guaranteed filled. A panic
/// inside `f` is re-raised here after the rest of the battery finishes:
/// this wrapper returns bare `R`s, so it has no honest way to report a
/// lost slot (context-aware callers use [`fan_out_cx`] and read
/// [`Batch::panics`] instead).
pub fn fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let batch = fan_out_cx(items, threads, &ExecCx::unlimited(), f);
    if let Some((i, message)) = batch.panics.into_iter().next() {
        panic!("fan_out item {i} panicked: {message}");
    }
    batch
        .results
        .into_iter()
        .map(|slot| slot.expect("an unlimited context never skips items"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Interrupt;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [0, 1, 2, 3, 8, 300] {
            let out = fan_out(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out.len(), items.len());
            for (i, v) in out.into_iter().enumerate() {
                assert_eq!(v, i * 3, "slot {i} out of order at {threads} threads");
            }
        }
    }

    #[test]
    fn drained_deques_never_deadlock() {
        // Regression: with fewer items than workers most deques start
        // empty, so nearly every worker goes straight to the steal
        // scan while the loaded stripes are being popped — the exact
        // state that deadlocked when a worker held its own deque's
        // lock across the scan (cyclic lock order). Many quick rounds
        // make the overlap all but certain; the buggy scheduler hangs
        // here rather than failing an assert.
        for round in 0..200 {
            let items: Vec<u64> = (0..4).collect();
            let out = fan_out(&items, 8, |_, &x| x + 1);
            assert_eq!(out, vec![1, 2, 3, 4], "round {round}");
        }
    }

    #[test]
    fn empty_and_singleton_batteries() {
        let empty: [u8; 0] = [];
        assert!(fan_out(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(fan_out(&[7u8], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn workers_share_borrowed_state() {
        // The scoped pool must observe borrowed (non-'static) inputs and
        // interior-mutable shared state, exactly how the query batteries
        // use it (shared &TBox + &SatShards).
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let out = fan_out(&items, 4, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out, items);
    }

    #[test]
    fn default_threads_is_positive_and_clamped() {
        let n = default_threads();
        assert!((1..=8).contains(&n));
    }

    #[test]
    fn accounting_is_exact() {
        let items: Vec<usize> = (0..100).collect();
        let cx = ExecCx::unlimited();
        let batch = fan_out_cx(&items, 4, &cx, |_, &x| x);
        assert!(batch.is_complete());
        assert!(batch.interrupt.is_none());
        assert_eq!(batch.stats.executed, 100);
        assert_eq!(batch.stats.skipped, 0);
        assert!(batch.stats.stolen <= batch.stats.executed);
        for (i, slot) in batch.results.iter().enumerate() {
            assert_eq!(*slot, Some(i));
        }
    }

    #[test]
    fn idle_workers_steal_from_loaded_stripes() {
        // Two workers; worker 0's stripe (even indices) is made slow, so
        // worker 1 drains its own stripe and must steal the rest of
        // worker 0's.
        let items: Vec<usize> = (0..16).collect();
        let cx = ExecCx::unlimited();
        let batch = fan_out_cx(&items, 2, &cx, |_, &x| {
            if x % 2 == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            x
        });
        assert!(batch.is_complete());
        assert!(batch.stats.stolen >= 1, "expected steals, got {:?}", batch.stats);
    }

    #[test]
    fn cancel_mid_battery_skips_remaining_inline() {
        // Inline path (threads = 1) is deterministic: cancelling while
        // item 2 runs completes it and skips everything after.
        let items: Vec<usize> = (0..10).collect();
        let cx = ExecCx::unlimited();
        let token = cx.token();
        let batch = fan_out_cx(&items, 1, &cx, |i, &x| {
            if i == 2 {
                token.cancel();
            }
            x
        });
        assert_eq!(batch.stats.executed, 3);
        assert_eq!(batch.stats.skipped, 7);
        assert_eq!(batch.interrupt, Some(Interrupt::Cancelled));
        assert_eq!(batch.results[..3], [Some(0), Some(1), Some(2)]);
        assert!(batch.results[3..].iter().all(Option::is_none));
    }

    #[test]
    fn cancelled_child_does_not_poison_siblings() {
        // One item cancels a *child* of the batch context — the batch
        // itself must still run to completion.
        let items: Vec<usize> = (0..32).collect();
        let cx = ExecCx::unlimited();
        let batch = fan_out_cx(&items, 4, &cx, |i, &x| {
            if i == 5 {
                let child = cx.child();
                child.cancel();
                assert!(child.is_cancelled());
            }
            x
        });
        assert!(batch.is_complete());
        assert_eq!(batch.stats.executed, 32);
        assert!(!cx.is_cancelled());
    }

    #[test]
    fn panicking_item_does_not_kill_siblings() {
        // Regression: one poisoned item among healthy siblings. Before
        // per-item catch_unwind the panic unwound through the scoped
        // worker and aborted the whole batch at scope join.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let cx = ExecCx::unlimited();
            let batch = fan_out_cx(&items, threads, &cx, |_, &x| {
                assert!(x != 13, "poisoned item {x}");
                x * 2
            });
            assert!(!batch.is_complete());
            assert!(batch.interrupt.is_none(), "a panic is not an interrupt");
            assert_eq!(batch.stats.panicked, 1);
            assert_eq!(batch.stats.executed, 63);
            assert_eq!(batch.stats.skipped, 0);
            assert_eq!(batch.panics.len(), 1);
            assert_eq!(batch.panics[0].0, 13);
            assert!(batch.panics[0].1.contains("poisoned item 13"), "{:?}", batch.panics);
            assert_eq!(batch.results[13], None);
            for (i, slot) in batch.results.iter().enumerate() {
                if i != 13 {
                    assert_eq!(*slot, Some(i * 2), "sibling {i} lost at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn many_panics_are_all_isolated_and_ordered() {
        let items: Vec<usize> = (0..40).collect();
        let cx = ExecCx::unlimited();
        let batch = fan_out_cx(&items, 4, &cx, |_, &x| {
            assert!(x % 10 != 7, "bad {x}");
            x
        });
        assert_eq!(batch.stats.panicked, 4);
        assert_eq!(batch.stats.executed, 36);
        let indices: Vec<usize> = batch.panics.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, vec![7, 17, 27, 37]);
    }

    #[test]
    fn fan_out_repropagates_a_caught_panic() {
        let items: Vec<usize> = (0..8).collect();
        let err = std::panic::catch_unwind(|| {
            fan_out(&items, 2, |_, &x| {
                assert!(x != 3, "exploding item");
                x
            })
        });
        let message = panic_message(err.expect_err("panic must propagate").as_ref());
        assert!(message.contains("exploding item"), "{message}");
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let items: Vec<usize> = (0..8).collect();
        let cx = ExecCx::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        for threads in [1, 4] {
            let batch = fan_out_cx(&items, threads, &cx, |_, &x| x);
            assert_eq!(batch.stats.executed, 0);
            assert_eq!(batch.stats.skipped, 8);
            assert_eq!(batch.interrupt, Some(Interrupt::DeadlineExceeded));
        }
    }
}
