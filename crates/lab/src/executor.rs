//! A work-stealing scoped-thread pool for embarrassingly parallel run
//! points.
//!
//! Every worker owns a deque seeded with a contiguous block of the input;
//! it drains its own block front-to-back (cache-friendly, preserves the
//! plan's variant-major locality) and, when empty, steals single items from
//! the *back* of a victim's deque — the classic owner-LIFO / thief-FIFO
//! split that keeps contention on opposite deque ends. Because the total
//! work is fixed up front (plans never spawn points mid-flight), a worker
//! can retire as soon as one full scan finds every deque empty — no parking
//! or condition variables needed.
//!
//! Results land in per-index slots, so the output order is the input order
//! regardless of which worker ran what: combined with per-point RNG seeds,
//! a parallel run is **bit-identical** to a serial one.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Executes batches of independent jobs with a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// One worker: plain in-order execution on the calling thread.
    pub fn serial() -> Self {
        Executor { threads: 1 }
    }

    /// One worker per available core (a single worker when the crate is
    /// built without the `parallel` feature).
    pub fn parallel() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// An explicit worker count (min 1; capped at 1 without the `parallel`
    /// feature so serial builds stay thread-free).
    pub fn with_threads(threads: usize) -> Self {
        let threads = if cfg!(feature = "parallel") {
            threads.max(1)
        } else {
            1
        };
        Executor { threads }
    }

    /// Number of workers this executor runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `items` through `f`, returning results in input order.
    pub fn run_ordered<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(&f).collect();
        }
        // Seed each worker with a contiguous block of the input.
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i * workers / n]
                .lock()
                .expect("queue lock")
                .push_back((i, item));
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let results = Mutex::new(slots);
        let (queues_ref, results_ref, f_ref) = (&queues, &results, &f);
        std::thread::scope(|s| {
            for w in 0..workers {
                let (queues, results, f) = (queues_ref, results_ref, f_ref);
                s.spawn(move || loop {
                    // Own block first (front), then steal from the back of
                    // the first non-empty victim, scanning round-robin from
                    // the right neighbour. The own-deque guard must drop
                    // before any victim is locked: two workers each holding
                    // their own lock while reaching for the other's would
                    // deadlock.
                    let own = queues[w].lock().expect("queue lock").pop_front();
                    let job = own.or_else(|| {
                        (1..workers).find_map(|k| {
                            queues[(w + k) % workers]
                                .lock()
                                .expect("queue lock")
                                .pop_back()
                        })
                    });
                    let Some((i, item)) = job else { break };
                    let r = f(item);
                    results.lock().expect("results lock")[i] = Some(r);
                });
            }
        });
        results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_is_identity_map() {
        let out = Executor::serial().run_ordered(vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn parallel_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let exec = Executor::with_threads(8);
        let out = exec.run_ordered(items.clone(), |x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Executor::with_threads(6).run_ordered((0..50).collect(), |x: usize| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn stealing_drains_unbalanced_work() {
        // One item is vastly slower than the rest; with 4 workers the others
        // must steal the slow worker's remaining block for this to finish
        // quickly. Correctness (not latency) is asserted — order and totals.
        let out = Executor::with_threads(4).run_ordered((0..32usize).collect(), |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let exec = Executor::parallel();
        assert!(exec.run_ordered(Vec::<u32>::new(), |x| x).is_empty());
        assert_eq!(exec.run_ordered(vec![7], |x| x), vec![7]);
        assert!(exec.threads() >= 1);
    }
}
