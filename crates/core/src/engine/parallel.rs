//! The fork/join helper behind the corpus sweeps.
//!
//! [`parallel_map`] shards an arbitrary slice over the same deque-based
//! work-stealing substrate as [`crate::engine::WorkStealingEngine`]
//! ([`crate::engine::steal`]): the litmus corpus runner shards tests
//! across it, the §8 simulator shards workloads across it, and the
//! axiomatic search shards its top subtrees across it. Items
//! are seeded round-robin onto per-worker deques; a worker that drains
//! its own deque steals from the others, so uneven item costs (litmus
//! tests vary by orders of magnitude) still balance without a shared
//! cursor in the hot path.

use crate::engine::steal::{engine_threads, StealDeques};

/// Applies `f` to every item of `items` across all available cores,
/// preserving input order in the result.
///
/// Items are seeded round-robin onto per-worker stealing deques
/// ([`StealDeques`]); a worker that exhausts its own deque steals from
/// the others, so uneven item costs (litmus tests vary by orders of
/// magnitude) still balance. Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, 0, f)
}

/// [`parallel_map`] with an explicit worker count (0 = all cores,
/// honouring `BDRST_ENGINE_THREADS`; see
/// [`crate::engine::steal::engine_threads`]).
pub fn parallel_map_with<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = engine_threads(threads).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let deques: StealDeques<usize> = StealDeques::new(workers);
    for i in 0..items.len() {
        deques.push(i % workers, i);
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (deques, f) = (&deques, &f);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(i) = deques.take(w) {
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("parallel_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_covers_all() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let out1 = parallel_map_with(&items, 1, |x| x + 1);
        assert_eq!(out1[0], 1);
        assert_eq!(out1.len(), 257);
    }

    #[test]
    fn parallel_map_empty_slice() {
        let items: Vec<u64> = Vec::new();
        assert!(parallel_map(&items, |x| *x).is_empty());
    }
}
