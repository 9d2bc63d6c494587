//! The per-worker deques of the work-stealing state recorder
//! ([`crate::engine::WorkStealingEngine`], its only user).
//!
//! Each worker's deque is a `Mutex<VecDeque>`: the owner pushes and pops
//! at the back (LIFO: the hottest subtree stays in cache), and a thief
//! takes from the front (FIFO: the oldest entry roots the largest
//! unexplored subtree). The module is safe code throughout; the
//! synchronisation is the per-deque lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One deque per worker, with LIFO owner access and FIFO stealing.
///
/// Each deque's length is mirrored in a relaxed hint, written under the
/// lock, so a thief skips an empty victim without taking its lock. A
/// stale hint costs at most one wasted lock or one missed steal that the
/// idle loop retries.
pub(super) struct StealDeques<T> {
    queues: Vec<WorkerDeque<T>>,
}

struct WorkerDeque<T> {
    items: Mutex<VecDeque<T>>,
    len_hint: AtomicUsize,
}

impl<T> WorkerDeque<T> {
    /// Runs `f` on the locked items and refreshes the length hint.
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<T>) -> R) -> R {
        let mut items = self.items.lock().expect("worker deque poisoned");
        let r = f(&mut items);
        self.len_hint.store(items.len(), Ordering::Relaxed);
        r
    }
}

impl<T> StealDeques<T> {
    /// Empty deques for `workers` workers.
    pub(super) fn new(workers: usize) -> StealDeques<T> {
        StealDeques {
            queues: (0..workers)
                .map(|_| WorkerDeque {
                    items: Mutex::new(VecDeque::new()),
                    len_hint: AtomicUsize::new(0),
                })
                .collect(),
        }
    }

    /// Pushes `item` onto `worker`'s deque (owner side).
    pub(super) fn push(&self, worker: usize, item: T) {
        self.queues[worker].with(|q| q.push_back(item));
    }

    /// Pops from `worker`'s own deque (LIFO: depth-first locality).
    pub(super) fn pop(&self, worker: usize) -> Option<T> {
        self.queues[worker].with(VecDeque::pop_back)
    }

    /// Steals from the front of some other worker's deque (FIFO: the
    /// oldest entry roots the largest subtree). Victims are scanned
    /// round-robin starting after the thief; one whose hint reads empty
    /// is skipped unlocked.
    pub(super) fn steal(&self, thief: usize) -> Option<T> {
        let n = self.queues.len();
        (1..n)
            .map(|k| &self.queues[(thief + k) % n])
            .filter(|victim| victim.len_hint.load(Ordering::Relaxed) > 0)
            .find_map(|victim| victim.with(VecDeque::pop_front))
    }

    /// Owner pop, falling back to stealing.
    pub(super) fn take(&self, worker: usize) -> Option<T> {
        self.pop(worker).or_else(|| self.steal(worker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Counts its drops in `drops[id]`.
    struct Token<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Token<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    #[test]
    fn lifo_owner_order() {
        let d = StealDeques::new(1);
        d.push(0, 1);
        d.push(0, 2);
        d.push(0, 3);
        assert_eq!(d.queues[0].len_hint.load(Ordering::Relaxed), 3);
        assert_eq!(d.pop(0), Some(3));
        assert_eq!(d.pop(0), Some(2));
        assert_eq!(d.pop(0), Some(1));
        assert_eq!(d.pop(0), None);
        assert_eq!(d.queues[0].len_hint.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fifo_thief_order() {
        // Worker 2 stays empty: thief 1 scans it first and moves on to 0.
        let d = StealDeques::new(3);
        for i in 0..5 {
            d.push(0, i);
        }
        assert_eq!(d.steal(1), Some(0));
        assert_eq!(d.steal(1), Some(1));
        assert_eq!(d.pop(0), Some(4));
        assert_eq!(d.queues[0].len_hint.load(Ordering::Relaxed), 2);
        assert_eq!(d.steal(0), None, "a thief never takes from itself");
    }

    /// One owner pushes and pops while three thieves steal: every element
    /// is taken exactly once, and each is dropped exactly once, either by
    /// its taker or, still queued, with the deques. The thread counts are
    /// explicit, so the test runs in every CI lane.
    #[test]
    fn concurrent_steals_conserve_elements() {
        const N: usize = 20_000;
        const QUEUED: usize = 50;
        const THIEVES: usize = 3;
        let drops = counters(N + QUEUED);
        let deques: StealDeques<Token> = StealDeques::new(1 + THIEVES);
        let done = AtomicBool::new(false);
        let stolen = AtomicUsize::new(0);
        let mut taken: Vec<usize> = std::thread::scope(|s| {
            let thieves: Vec<_> = (1..=THIEVES)
                .map(|t| {
                    let (deques, done, stolen) = (&deques, &done, &stolen);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while !done.load(Ordering::Acquire) {
                            match deques.steal(t) {
                                Some(token) => {
                                    got.push(token.id);
                                    stolen.fetch_add(1, Ordering::Relaxed);
                                }
                                None => std::thread::yield_now(),
                            }
                        }
                        got
                    })
                })
                .collect();
            let mut got = Vec::new();
            for id in 0..N {
                deques.push(0, Token { id, drops: &drops });
                if id % 7 == 0 {
                    got.extend(deques.pop(0).map(|token| token.id));
                }
            }
            // Only every seventh push is popped back, so items stay
            // queued until a thief runs: wait for one steal, so the
            // steal path runs even if the thieves start late.
            while stolen.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            for h in thieves {
                got.extend(h.join().expect("thief panicked"));
            }
            while let Some(token) = deques.take(0) {
                got.push(token.id);
            }
            got
        });
        taken.sort_unstable();
        assert_eq!(taken, (0..N).collect::<Vec<_>>(), "taken exactly once");
        // These stay queued, on every deque, until the deques drop.
        for id in N..N + QUEUED {
            deques.push(id % (1 + THIEVES), Token { id, drops: &drops });
        }
        drop(deques);
        for (id, d) in drops.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), 1, "element {id}");
        }
    }

    #[test]
    fn drops_run_exactly_once() {
        let drops = counters(100);
        {
            let d = StealDeques::new(2);
            for id in 0..100 {
                d.push(0, Token { id, drops: &drops });
            }
            for _ in 0..40 {
                drop(d.pop(0));
            }
            for _ in 0..10 {
                drop(d.steal(1));
            }
            // 50 tokens still queued: freed when the deques drop.
        }
        for (id, d) in drops.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), 1, "element {id}");
        }
    }
}
