//! Minimal data-parallel helpers on top of `std::thread::scope`.
//!
//! The workspace builds offline with zero external dependencies, so
//! instead of `rayon` this module provides the two primitives the hot
//! paths need: a parallel, order-preserving map over a slice ([`par_map`],
//! used by the pebble-game arena builder), with work handed out in
//! interleaved strides so uneven items balance across threads, and a
//! fixed-size worker fan-out ([`par_workers`], used by the Datalog stage
//! executor).
//!
//! [`thread_count`] sizes the maps. It honors `RAYON_NUM_THREADS` (the
//! de-facto convention for Rust data-parallel code, so deployment guides
//! transfer), then `KV_NUM_THREADS`, then
//! [`std::thread::available_parallelism`]. Setting the variable to `1`
//! disables threading for the maps — they then run inline on the caller's
//! thread, which keeps single-threaded differential baselines trivial to
//! produce. [`par_workers`] takes its worker count from the caller
//! instead: Datalog evaluation passes the shard count `W` it was
//! configured with, so its results and counters do not depend on these
//! variables or on the host.

use crate::govern::{Governor, Interrupted};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The number of worker threads parallel helpers will use.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        for var in ["RAYON_NUM_THREADS", "KV_NUM_THREADS"] {
            if let Ok(v) = std::env::var(var) {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Applies `f` to every item of `items`, in parallel, returning results in
/// input order. `f` receives the item index and a reference to the item.
///
/// Falls back to a plain sequential loop when the slice is small or the
/// resolved thread count is 1, so callers never pay thread-spawn overhead
/// on trivial inputs.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let cursor = AtomicUsize::new(0);
    // Hand out items by atomic cursor: dynamic load balancing without any
    // per-item channel traffic. Each worker writes its own disjoint slots.
    let slots_ptr = SendPtr(slots.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let slots_ptr = &slots_ptr;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i]);
                    // SAFETY: every index is claimed by exactly one worker
                    // via the atomic cursor, so writes are disjoint; the
                    // scope guarantees workers finish before `slots` is
                    // read or dropped.
                    unsafe { *slots_ptr.0.add(i) = Some(r) };
                }
            });
        }
    });
    // Infallible: the atomic cursor hands every index to some worker, and
    // the scope joins all workers before `slots` is read.
    #[allow(clippy::expect_used)]
    let out = slots
        .into_iter()
        .map(|s| s.expect("every slot filled by a worker"))
        .collect();
    out
}

/// A governed [`par_map`]: applies the fallible `f` to every item in
/// parallel, but checks the governor cooperatively — each worker charges
/// one step per claimed item and stops claiming as soon as any worker
/// observes an interrupt (cancellation, deadline, or budget).
///
/// On interrupt the whole map is abandoned and the first observed
/// [`Interrupted`] is returned; completed per-item results are discarded,
/// which is what lets callers treat the map as an atomic unit and resume
/// it from the items list (per-item work must be pure).
pub fn try_par_map<T, R, F>(items: &[T], gov: &Governor, f: F) -> Result<Vec<R>, Interrupted>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, Interrupted> + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                gov.step(1)?;
                f(i, t)
            })
            .collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let cursor = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let first_err: Mutex<Option<Interrupted>> = Mutex::new(None);
    let slots_ptr = SendPtr(slots.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let slots_ptr = &slots_ptr;
                loop {
                    if aborted.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = gov.step(1).and_then(|()| f(i, &items[i]));
                    match r {
                        Ok(r) => {
                            // SAFETY: as in `par_map` — each index is
                            // claimed by exactly one worker, writes are
                            // disjoint, and the scope joins before
                            // `slots` is read or dropped.
                            unsafe { *slots_ptr.0.add(i) = Some(r) };
                        }
                        Err(e) => {
                            aborted.store(true, Ordering::Relaxed);
                            let mut guard = first_err.lock().unwrap_or_else(|p| p.into_inner());
                            guard.get_or_insert(e);
                            break;
                        }
                    }
                }
            });
        }
    });
    let err = first_err.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = err {
        return Err(e);
    }
    // Infallible: no worker reported an interrupt, so every slot is full.
    #[allow(clippy::expect_used)]
    let out = slots
        .into_iter()
        .map(|s| s.expect("every slot filled by a worker"))
        .collect();
    Ok(out)
}

/// Runs `f` once per worker thread (passing the worker index), in
/// parallel, and returns each worker's result. Used for reduce-style
/// patterns where each worker accumulates a private buffer that the
/// caller merges afterwards.
pub fn par_workers<R, F>(workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1);
    if workers == 1 {
        return vec![f(0)];
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(workers);
    out.resize_with(workers, || None);
    std::thread::scope(|scope| {
        for (w, slot) in out.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(w));
            });
        }
    });
    // Infallible: the scope joins every worker before `out` is read.
    #[allow(clippy::expect_used)]
    let results = out
        .into_iter()
        .map(|s| s.expect("worker finished"))
        .collect();
    results
}

/// A raw pointer wrapper that asserts cross-thread sendability for the
/// disjoint-write pattern in [`par_map`].
struct SendPtr<T>(*mut T);
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_workers_runs_each_index() {
        let mut ids = par_workers(4, |w| w);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn try_par_map_completes_under_unlimited_governor() {
        let gov = Governor::unlimited();
        let items: Vec<u64> = (0..300).collect();
        let out = try_par_map(&items, &gov, |_, &x| Ok(x + 1)).unwrap();
        assert_eq!(out, (1..=300).collect::<Vec<_>>());
        assert_eq!(gov.usage().steps, 300);
    }

    #[test]
    fn try_par_map_stops_on_cancellation() {
        let gov = Governor::unlimited();
        gov.cancel_token().cancel();
        let items: Vec<u64> = (0..1000).collect();
        let err = try_par_map(&items, &gov, |_, &x| {
            if gov.cancel_token().is_cancelled() {
                Err(Interrupted::Cancelled)
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert_eq!(err, Interrupted::Cancelled);
    }

    #[test]
    fn try_par_map_propagates_step_budget() {
        let gov = crate::govern::chaos::step_tripper(10);
        let items: Vec<u64> = (0..1000).collect();
        let err = try_par_map(&items, &gov, |_, &x| Ok(x)).unwrap_err();
        assert!(matches!(err, Interrupted::Limit(_)));
    }
}
