//! Workspace-level proof that the event queue delivers in strict
//! `(time, insertion-seq)` order through the *public* API, end to end.
//!
//! The unit-level half of this proof lives in `simcore::queue` (randomized
//! calendar-vs-heap pop parity). This file adds the layer above it: a
//! chaotic model that schedules ties, bursts, and far-future events from
//! inside event handlers, driven through the engine and compared against a
//! plain binary-heap reference loop.

use rubbos_ntier::simcore::testkit::{check, Gen};
use rubbos_ntier::simcore::{ShardIo, ShardModel, ShardedEngine, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A model that reschedules pseudo-randomly (but deterministically) from
/// inside its handler: same-instant ties, near events, far-future jumps,
/// and quiet stretches — the access pattern that exposes an out-of-order
/// queue if anything does.
struct Chaos {
    log: Vec<(u64, u32)>,
    budget: u32,
}

impl Chaos {
    /// Log `event` at `now` (µs) and return the children it schedules, as
    /// `(delay µs, id)` pairs in scheduling order.
    fn fire(&mut self, now: u64, event: u32) -> Vec<(u64, u32)> {
        self.log.push((now, event));
        if self.budget == 0 {
            return Vec::new();
        }
        // Deterministic fan-out derived from the event id and position.
        let h = (event as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.log.len() as u64);
        let fan = (h % 3) as u32;
        let mut children = Vec::new();
        for i in 0..fan {
            self.budget = self.budget.saturating_sub(1);
            let child = event.wrapping_mul(31).wrapping_add(i + 1);
            let delay = match (h >> (8 + i)) % 4 {
                0 => 0,
                1 => h % 5_000,
                2 => 10_000_000 + h % 100_000,
                _ => 1 + h % 50,
            };
            children.push((delay, child));
        }
        children
    }
}

impl ShardModel for Chaos {
    type Event = u32;
    type Obs = ();

    fn handle(&mut self, now: SimTime, event: u32, io: &mut ShardIo<'_, u32, ()>) {
        for (delay, child) in self.fire(now.as_micros(), event) {
            io.schedule_after(SimTime::from_micros(delay), child);
        }
    }

    fn ingest(&mut self, _: SimTime, _: ()) {}

    fn event_label(_: &u32) -> &'static str {
        "chaos"
    }
}

/// The delivery log a correct queue must produce: the same model driven by
/// a binary heap over `(at, seq, id)`.
fn reference_log(seeds: &[(u64, u32)], budget: u32) -> Vec<(u64, u32)> {
    let mut model = Chaos {
        log: Vec::new(),
        budget,
    };
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    for &(at, id) in seeds {
        heap.push(Reverse((at, seq, id)));
        seq += 1;
    }
    while let Some(Reverse((now, _, event))) = heap.pop() {
        for (delay, child) in model.fire(now, event) {
            heap.push(Reverse((now + delay, seq, child)));
            seq += 1;
        }
    }
    model.log
}

/// Drive the chaotic schedule through a one-shard engine (with and without
/// the staged-arrivals lane for the seeds) and require the reference loop's
/// exact delivery log.
#[test]
fn chaotic_schedules_match_the_reference_order() {
    check(25, |g: &mut Gen| {
        let seeds: Vec<(u64, u32)> = (0..g.usize_in(1, 40))
            .map(|i| (g.u64_in(0, 1_000_000), i as u32))
            .collect();
        let budget = g.usize_in(50, 2_000) as u32;
        let expected = reference_log(&seeds, budget);
        for stage in [false, true] {
            let model = Chaos {
                log: Vec::new(),
                budget,
            };
            let mut e = ShardedEngine::new(vec![model], SimTime::ZERO, 16);
            for &(at, id) in &seeds {
                if stage {
                    e.stage(0, SimTime::from_micros(at), id);
                } else {
                    e.schedule(0, SimTime::from_micros(at), id);
                }
            }
            e.run_until(SimTime::MAX);
            assert_eq!(
                e.into_models().remove(0).log,
                expected,
                "delivery diverged from the reference (staged: {stage}, seed {:#x})",
                g.seed()
            );
        }
    });
}
