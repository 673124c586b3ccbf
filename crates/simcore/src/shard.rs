//! The event loop: execution of **one** simulation across event shards.
//!
//! A model is cut into one or more *shards*, each a plain `&mut` state
//! machine with its own future-event list. The engine runs them all on the
//! calling thread as one exact merge: it always handles the pending event
//! with the globally smallest `(time, key)` across the per-shard lists. A
//! one-shard layout is the textbook serial event-list simulator.
//!
//! # Keys
//!
//! Every scheduled event carries a `u64` key `(origin_shard << 56) |
//! counter` drawn from the *sending* shard's own monotone counter at the
//! moment it is sent, and goes straight into the destination shard's list.
//! Keys are unique, so `(time, key)` is a strict total order and the merge
//! order is a pure function of the simulation. A single-shard layout
//! degenerates to `key == counter`, i.e. plain insertion order, and events
//! one shard schedules for the same instant run FIFO.
//!
//! # Batches
//!
//! Re-scanning every list before each event would cost a scan per event.
//! Instead the loop finds the shard holding the global minimum and runs it
//! as a *batch* while its head stays below the *limit*: the smallest head of
//! every other shard. Only the running shard can change the other lists —
//! by sending to them — so a send that lands below the limit lowers it, and
//! the batch stops exactly where another shard's event comes first.
//!
//! # Observations
//!
//! Shards may also emit *observations* — passive, order-tolerant payloads
//! (trace spans destined for a recorder on another shard, say) that must not
//! perturb event scheduling. Observations use a **separate** per-shard key
//! counter (so arming them never shifts event keys) and are ingested on the
//! destination shard in `(time, key)` order under a delay rule: before
//! handling an event at time `T`, a shard ingests every pending observation
//! stamped `≤ T − L`, where `L` is the layout's *lookahead* (the smallest
//! delay of any cross-shard send). Anything still pending when the run stops
//! is delivered by [`ShardedEngine::finish_observations`].
use crate::profile::{peak_rss_bytes, EngineProfile, EngineStats, ShardLoad};
use crate::queue::{EventQueue, PROFILE_SAMPLE_MASK};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits above this position of an event key hold the origin shard id.
pub const SHARD_KEY_BITS: u32 = 56;

/// An event's position in the merge order: `(time, key)`.
type Key = (SimTime, u64);

/// The head of an empty event list: above every real event's position
/// (keys stay below `u64::MAX`: shard ids below 255, counters below 2^56).
const EMPTY: Key = (SimTime::MAX, u64::MAX);

/// Compose the `(origin_shard, counter)` event key (see module docs).
#[inline]
pub fn shard_key(shard: usize, counter: u64) -> u64 {
    debug_assert!(shard < (1 << (64 - SHARD_KEY_BITS)));
    debug_assert!(counter < (1u64 << SHARD_KEY_BITS));
    ((shard as u64) << SHARD_KEY_BITS) | counter
}

/// One shard of a model: a plain mutable state machine handling its own
/// events and ingesting observations sent by other shards.
///
/// `handle` receives one event and may schedule any number of future events
/// through its [`ShardIo`], which routes local schedules and cross-shard
/// sends. Scheduling in the past is a programming error and panics. A shard
/// must tolerate observations arriving *later* than the events around them
/// (they are delivered under the lookahead delay rule).
pub trait ShardModel {
    /// Event payload (shared by all shards of one model).
    type Event;
    /// Observation payload (use `()` when unused).
    type Obs;

    /// Process one event at simulated time `now`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        io: &mut ShardIo<'_, Self::Event, Self::Obs>,
    );

    /// Ingest one observation stamped `at` (delivered in `(time, key)`
    /// order, before any event at `≥ at + L` dispatches on this shard).
    fn ingest(&mut self, at: SimTime, obs: Self::Obs);

    /// Short static label per event kind, used by engine telemetry to build
    /// per-event-kind counts.
    fn event_label(event: &Self::Event) -> &'static str;
}

/// Pending observations of one shard, smallest `(time, key)` on top.
type ObsHeap<O> = BinaryHeap<Reverse<ObsEntry<O>>>;

/// I/O capability handed to [`ShardModel::handle`]: local scheduling,
/// cross-shard sends, and observation emission.
pub struct ShardIo<'a, E, O> {
    shard: usize,
    counter: u64,
    obs_counter: u64,
    /// Where the current batch must stop (see module docs).
    limit: Key,
    /// Every shard's head; only sends from this shard can lower another's.
    heads: &'a mut [Key],
    queues: &'a mut [EventQueue<E>],
    obs: &'a mut [ObsHeap<O>],
}

impl<E, O> ShardIo<'_, E, O> {
    /// Current simulated time on this shard.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queues[self.shard].now()
    }

    /// This shard's index.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }

    #[inline]
    fn next_key(&mut self) -> u64 {
        let k = shard_key(self.shard, self.counter);
        self.counter += 1;
        k
    }

    /// Schedule an event on this shard at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.next_key();
        self.queues[self.shard].push(at, key, event);
    }

    /// Schedule on this shard after a delay relative to now.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now() + delay, event);
    }

    /// Schedule on this shard at the current instant, after everything
    /// already queued for it.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule(self.now(), event);
    }

    /// Send an event to shard `dest` at absolute time `at`, keyed from this
    /// shard's counter. A send to this shard is an ordinary local schedule.
    #[inline]
    pub fn send(&mut self, dest: usize, at: SimTime, event: E) {
        let key = self.next_key();
        self.queues[dest].push(at, key, event);
        if dest != self.shard && (at, key) < self.heads[dest] {
            self.heads[dest] = (at, key);
            self.limit = self.limit.min((at, key));
        }
    }

    /// Emit an observation stamped `at` toward shard `dest` (which may be
    /// this shard). Observations use their own key counter, so emitting them
    /// never perturbs event ordering; they are ingested under the delay rule
    /// described in the module docs.
    #[inline]
    pub fn observe(&mut self, dest: usize, at: SimTime, obs: O) {
        let key = shard_key(self.shard, self.obs_counter);
        self.obs_counter += 1;
        self.obs[dest].push(Reverse(ObsEntry { at, key, obs }));
    }
}

/// Pending observation, ordered by `(time, key)`.
struct ObsEntry<O> {
    at: SimTime,
    key: u64,
    obs: O,
}

impl<O> PartialEq for ObsEntry<O> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<O> Eq for ObsEntry<O> {}
impl<O> PartialOrd for ObsEntry<O> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<O> Ord for ObsEntry<O> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// Ingest every pending observation stamped `≤ bound` into `model`, in
/// `(time, key)` order.
fn ingest_through<M: ShardModel>(pending: &mut ObsHeap<M::Obs>, model: &mut M, bound: SimTime) {
    while pending.peek().is_some_and(|Reverse(top)| top.at <= bound) {
        let Reverse(e) = pending.pop().expect("peeked entry vanished");
        model.ingest(e.at, e.obs);
    }
}

/// One shard's model, key counters, and telemetry accumulators. Its event
/// list and pending observations live beside it in the engine, where every
/// shard's sends can reach them.
struct ShardState<M> {
    model: M,
    counter: u64,
    obs_counter: u64,
    events_processed: u64,
    per_type: Vec<(&'static str, u64)>,
    pop_secs: f64,
    dispatch_secs: f64,
    timed_events: u64,
}

/// The event loop for sharded models: per-shard event lists run as one
/// exact `(time, key)` merge on the calling thread (see module docs).
pub struct ShardedEngine<M: ShardModel> {
    shards: Vec<ShardState<M>>,
    queues: Vec<EventQueue<M::Event>>,
    obs: Vec<ObsHeap<M::Obs>>,
    lookahead: SimTime,
    now: SimTime,
    telemetry: bool,
    profiling: bool,
    batches: u64,
    wall_secs: f64,
}

impl<M: ShardModel> ShardedEngine<M> {
    /// Build an engine over `models` (one per shard) with the given
    /// cross-shard lookahead and initial per-shard queue capacity hint.
    ///
    /// # Panics
    /// If `models` is empty, or if a multi-shard layout comes with a zero
    /// lookahead (callers are expected to collapse such layouts to one
    /// shard: every cross-shard send must land at least `L > 0` ahead).
    pub fn new(models: Vec<M>, lookahead: SimTime, capacity: usize) -> Self {
        assert!(
            !models.is_empty(),
            "a sharded engine needs at least one shard"
        );
        let n = models.len();
        assert!(
            n == 1 || lookahead > SimTime::ZERO,
            "multi-shard layouts need positive lookahead (got {n} shards, L={lookahead})"
        );
        let shards = models
            .into_iter()
            .map(|model| ShardState {
                model,
                counter: 0,
                obs_counter: 0,
                events_processed: 0,
                per_type: Vec::new(),
                pop_secs: 0.0,
                dispatch_secs: 0.0,
                timed_events: 0,
            })
            .collect();
        ShardedEngine {
            shards,
            queues: (0..n)
                .map(|_| EventQueue::with_capacity(capacity))
                .collect(),
            obs: (0..n).map(|_| BinaryHeap::new()).collect(),
            lookahead,
            now: SimTime::ZERO,
            telemetry: false,
            profiling: false,
            batches: 0,
            wall_secs: 0.0,
        }
    }

    /// Number of shards in the layout.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cross-shard lookahead of the observation delivery rule.
    #[inline]
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Current simulated time (the completed horizon).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Batches executed so far: runs of consecutive events on one shard (a
    /// one-shard run is one batch per `run_*` call).
    #[inline]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Turn on per-event-kind counting (one label lookup and a linear-scan
    /// bump per event; off by default so untraced runs pay nothing).
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
    }

    /// Turn on phase profiling: sampled pop/dispatch/push timings per
    /// shard. Passive — output is bit-identical to an unprofiled run.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
        self.telemetry = true;
        for q in &mut self.queues {
            q.set_timed(true);
        }
    }

    /// Borrow shard `i`'s model.
    pub fn model(&self, i: usize) -> &M {
        &self.shards[i].model
    }

    /// Mutably borrow shard `i`'s model.
    pub fn model_mut(&mut self, i: usize) -> &mut M {
        &mut self.shards[i].model
    }

    /// Consume the engine, returning every shard's model in shard order.
    pub fn into_models(self) -> Vec<M> {
        self.shards.into_iter().map(|s| s.model).collect()
    }

    /// Schedule a seed event on shard `shard` (keyed from that shard's own
    /// counter, exactly as if the shard had scheduled it itself).
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: M::Event) {
        let s = &mut self.shards[shard];
        let key = shard_key(shard, s.counter);
        s.counter += 1;
        self.queues[shard].push(at, key, event);
    }

    /// Stage a pre-run seed event on shard `shard` through the queue's
    /// staged-arrivals lane (bulk seeding; same key space as
    /// [`schedule`](Self::schedule)).
    pub fn stage(&mut self, shard: usize, at: SimTime, event: M::Event) {
        let s = &mut self.shards[shard];
        let key = shard_key(shard, s.counter);
        s.counter += 1;
        self.queues[shard].stage(at, key, event);
    }

    /// Run until simulated time `until` (inclusive), then advance every
    /// shard's clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run(until, None);
        for q in &mut self.queues {
            q.advance_to(until);
        }
        self.now = self.now.max(until);
    }

    /// Run until every shard's event list is empty.
    ///
    /// # Panics
    /// If more than `max_events` are processed (runaway guard). The guard
    /// trips on the first event past the budget.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        self.run(SimTime::MAX, Some(max_events));
    }

    /// Deliver every still-pending observation (in `(time, key)` order per
    /// shard). Call after the final `run_*` and before tearing the models
    /// down: observations are delivered lazily under the lookahead rule, so
    /// the tail emitted near the end of a run is still in flight.
    pub fn finish_observations(&mut self) {
        for (s, pending) in self.shards.iter_mut().zip(&mut self.obs) {
            ingest_through(pending, &mut s.model, SimTime::MAX);
        }
    }

    /// Merged engine telemetry: event counts and push totals summed across
    /// shards, queue high-water the **maximum** of any one shard (capacity
    /// planning reads it as "largest single event list"), capacity summed.
    pub fn stats(&self) -> EngineStats {
        let mut per_type: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.shards {
            for &(label, n) in &s.per_type {
                match per_type.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, total)) => *total += n,
                    None => per_type.push((label, n)),
                }
            }
        }
        EngineStats {
            events_processed: self.events_processed(),
            queue_high_water: self
                .queues
                .iter()
                .map(EventQueue::high_water)
                .max()
                .unwrap_or(0),
            queue_capacity: self.queues.iter().map(EventQueue::capacity).sum(),
            wall_secs: self.wall_secs,
            per_type,
        }
    }

    /// One shard's own telemetry view (unmerged).
    pub fn shard_stats(&self, i: usize) -> EngineStats {
        let s = &self.shards[i];
        EngineStats {
            events_processed: s.events_processed,
            queue_high_water: self.queues[i].high_water(),
            queue_capacity: self.queues[i].capacity(),
            wall_secs: self.wall_secs,
            per_type: s.per_type.clone(),
        }
    }

    /// Merged phase profile: sampled phase seconds are scaled per shard
    /// (by the fraction of that shard's cycles sampled) and then summed.
    /// [`ShardLoad::busy_secs`] splits the wall clock across shards in
    /// proportion to their scaled pop + dispatch estimates.
    pub fn profile(&self) -> EngineProfile {
        let stats = self.stats();
        let mut pop = 0.0;
        let mut dispatch = 0.0;
        let mut sched = 0.0;
        let mut scheduled = 0;
        let mut cycle_secs = Vec::with_capacity(self.shards.len());
        for (s, q) in self.shards.iter().zip(&self.queues) {
            let mut cycles = 0.0;
            if s.timed_events > 0 {
                let scale = s.events_processed as f64 / s.timed_events as f64;
                pop += s.pop_secs * scale;
                dispatch += s.dispatch_secs * scale;
                cycles = (s.pop_secs + s.dispatch_secs) * scale;
            }
            if q.timed_pushes() > 0 {
                let scale = s.counter as f64 / q.timed_pushes() as f64;
                sched += q.sched_secs() * scale;
            }
            scheduled += s.counter;
            cycle_secs.push(cycles);
        }
        // One thread runs every shard, so the loop's wall clock is split
        // across shards by their share of the estimated event-cycle time.
        let total_cycles: f64 = cycle_secs.iter().sum();
        let shards = self
            .shards
            .iter()
            .zip(cycle_secs)
            .enumerate()
            .map(|(i, (s, cycles))| ShardLoad {
                shard: i,
                events_processed: s.events_processed,
                busy_secs: if total_cycles > 0.0 {
                    self.wall_secs * cycles / total_cycles
                } else {
                    0.0
                },
                stall_secs: 0.0,
            })
            .collect();
        EngineProfile {
            events_processed: stats.events_processed,
            events_scheduled: scheduled,
            pop_secs: pop,
            dispatch_secs: dispatch,
            sched_secs: sched,
            wall_secs: self.wall_secs,
            queue_high_water: stats.queue_high_water,
            queue_capacity: stats.queue_capacity,
            per_type: stats.per_type,
            peak_rss_bytes: peak_rss_bytes(),
            rounds: self.batches,
            shards,
        }
    }

    fn run(&mut self, until: SimTime, budget: Option<u64>) {
        let t0 = std::time::Instant::now();
        // Events still allowed before the runaway guard trips: one past the
        // budget, so a runaway stops on the first event over it.
        let mut allowance = budget.map_or(u64::MAX, |max| max.saturating_add(1));
        // Every shard's head, kept current from here on by the batches.
        // `min_key` also sorts a freshly staged lane, here rather than
        // inside the first (timed) pop.
        let mut heads: Vec<Key> = self
            .queues
            .iter_mut()
            .map(|q| q.min_key().unwrap_or(EMPTY))
            .collect();
        loop {
            // The shard holding the global minimum, and the smallest head of
            // every other shard: the limit its batch must stay below.
            let (mut i, mut head, mut limit) = (0, heads[0], EMPTY);
            for (j, &h) in heads.iter().enumerate().skip(1) {
                if h < head {
                    (i, head, limit) = (j, h, head);
                } else if h < limit {
                    limit = h;
                }
            }
            if head == EMPTY || head.0 > until {
                break;
            }
            allowance -= self.run_batch(i, limit, &mut heads, until, allowance);
            heads[i] = self.queues[i].min_key().unwrap_or(EMPTY);
            self.batches += 1;
            if let Some(max) = budget {
                assert!(allowance > 0, "run_to_quiescence exceeded {max} events");
            }
        }
        self.wall_secs += t0.elapsed().as_secs_f64();
    }

    /// Run shard `i`'s events in `(time, key)` order while they stay below
    /// `limit` and at or before `until`, ingesting pending observations under
    /// the delay rule before each dispatch, but at most `max` of them.
    /// Returns the number of events processed.
    fn run_batch(
        &mut self,
        i: usize,
        limit: Key,
        heads: &mut [Key],
        until: SimTime,
        max: u64,
    ) -> u64 {
        let lookahead = self.lookahead;
        let (telemetry, profiling) = (self.telemetry, self.profiling);
        let s = &mut self.shards[i];
        let mut io = ShardIo {
            shard: i,
            counter: s.counter,
            obs_counter: s.obs_counter,
            limit,
            heads,
            queues: &mut self.queues,
            obs: &mut self.obs,
        };
        let mut processed: u64 = 0;
        while processed < max {
            let sample = profiling && s.events_processed & PROFILE_SAMPLE_MASK == 0;
            let t0 = sample.then(std::time::Instant::now);
            let Some(item) = io.queues[i].pop_below(io.limit, until) else {
                break;
            };
            if let Some(t0) = t0 {
                s.pop_secs += t0.elapsed().as_secs_f64();
            }
            // Observation safety: everything stamped ≤ now − L is final (no
            // shard can still emit below that), so deliver it before the event.
            if !io.obs[i].is_empty() {
                ingest_through(
                    &mut io.obs[i],
                    &mut s.model,
                    item.at.saturating_sub(lookahead),
                );
            }
            if telemetry {
                let label = M::event_label(&item.event);
                match s.per_type.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += 1,
                    None => s.per_type.push((label, 1)),
                }
            }
            let t0 = sample.then(std::time::Instant::now);
            s.model.handle(item.at, item.event, &mut io);
            if let Some(t0) = t0 {
                s.dispatch_secs += t0.elapsed().as_secs_f64();
                s.timed_events += 1;
            }
            s.events_processed += 1;
            processed += 1;
        }
        s.counter = io.counter;
        s.obs_counter = io.obs_counter;
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const HOP: SimTime = SimTime(10);

    /// Toy workload on a ring of shards: every shard locally "works" each
    /// token twice, then passes it to the next shard after `HOP`; each
    /// handled event also emits an observation toward shard 0.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum Tok {
        Work(u32),
        Pass(u32),
    }

    struct RingShard {
        n: usize,
        hops_left: u32,
        log: Vec<(u64, u32)>,
        /// Ingested observations: `(stamp, payload, events handled before)`.
        obs: Vec<(u64, u32, usize)>,
    }

    impl RingShard {
        fn new(n: usize, hops_left: u32) -> Self {
            RingShard {
                n,
                hops_left,
                log: Vec::new(),
                obs: Vec::new(),
            }
        }
    }

    impl ShardModel for RingShard {
        type Event = Tok;
        type Obs = u32;

        fn handle(&mut self, now: SimTime, ev: Tok, io: &mut ShardIo<'_, Tok, u32>) {
            match ev {
                Tok::Work(x) => {
                    self.log.push((now.0, x));
                    io.observe(0, now, x);
                }
                Tok::Pass(x) => {
                    self.log.push((now.0, 1000 + x));
                    io.observe(0, now, 1000 + x);
                    // Two local follow-ups land before the pass-on.
                    io.schedule(now + SimTime(1), Tok::Work(x));
                    io.schedule_after(SimTime(2), Tok::Work(x + 1));
                    if x < self.hops_left {
                        let dest = (io.shard() + 1) % self.n;
                        io.send(dest, now + HOP, Tok::Pass(x + 1));
                    }
                }
            }
        }

        fn ingest(&mut self, at: SimTime, obs: u32) {
            self.obs.push((at.0, obs, self.log.len()));
        }

        fn event_label(ev: &Tok) -> &'static str {
            match ev {
                Tok::Work(_) => "work",
                Tok::Pass(_) => "pass",
            }
        }
    }

    fn ring(n: usize) -> ShardedEngine<RingShard> {
        let models = (0..n).map(|_| RingShard::new(n, 40)).collect();
        let mut eng = ShardedEngine::new(models, HOP, 16);
        eng.enable_telemetry();
        eng.schedule(0, SimTime(5), Tok::Pass(0));
        eng.schedule(1, SimTime(7), Tok::Pass(20));
        eng
    }

    fn logs(eng: &ShardedEngine<RingShard>) -> Vec<Vec<(u64, u32)>> {
        (0..eng.n_shards())
            .map(|i| eng.model(i).log.clone())
            .collect()
    }

    /// The batched merge against the plainest possible reference: one binary
    /// heap over `(at, key, dest, event)` for every shard, keys drawn from
    /// the sender's counter at send time, and the observation delay rule
    /// applied before each of shard 0's events. Per-shard logs and shard 0's
    /// ingest order, interleaved with its events, must match exactly.
    #[test]
    fn merge_matches_a_single_heap_reference_loop() {
        const N: usize = 3;
        let hops_left = 40;
        let mut heap = BinaryHeap::new();
        let mut counters = [0u64; N];
        let mut send = |heap: &mut BinaryHeap<_>, from: usize, dest: usize, at: u64, tok: Tok| {
            heap.push(Reverse((at, shard_key(from, counters[from]), dest, tok)));
            counters[from] += 1;
        };
        send(&mut heap, 0, 0, 5, Tok::Pass(0));
        send(&mut heap, 1, 1, 7, Tok::Pass(20));
        let mut obs_counters = [0u64; N];
        let mut pending = BinaryHeap::new();
        let mut ingested = Vec::new();
        let mut want = vec![Vec::new(); N];
        while let Some(Reverse((now, _, d, tok))) = heap.pop() {
            if d == 0 {
                while let Some(&Reverse((at, _, x))) = pending.peek() {
                    if at > now.saturating_sub(HOP.0) {
                        break;
                    }
                    pending.pop();
                    ingested.push((at, x, want[0].len()));
                }
            }
            let x = match tok {
                Tok::Work(x) => x,
                Tok::Pass(x) => {
                    send(&mut heap, d, d, now + 1, Tok::Work(x));
                    send(&mut heap, d, d, now + 2, Tok::Work(x + 1));
                    if x < hops_left {
                        send(&mut heap, d, (d + 1) % N, now + HOP.0, Tok::Pass(x + 1));
                    }
                    1000 + x
                }
            };
            want[d].push((now, x));
            pending.push(Reverse((now, shard_key(d, obs_counters[d]), x)));
            obs_counters[d] += 1;
        }
        while let Some(Reverse((at, _, x))) = pending.pop() {
            ingested.push((at, x, want[0].len()));
        }

        let mut eng = ring(N);
        eng.run_to_quiescence(100_000);
        eng.finish_observations();
        assert!(eng.events_processed() > 100);
        assert_eq!(logs(&eng), want);
        assert_eq!(eng.model(0).obs, ingested);
        // Tokens hop between shards, so the merge ran many batches.
        assert!(eng.batches() > 10, "{} batches", eng.batches());
    }

    /// Shard 0 ticks every microsecond; its first tick pings shard 1 one
    /// hop ahead, and shard 1 answers with an observation to shard 0.
    struct Ping {
        ticks: usize,
        /// Ingested observations: `(stamp, ticks handled before)`.
        seen: Vec<(u64, usize)>,
    }

    impl ShardModel for Ping {
        type Event = ();
        type Obs = ();

        fn handle(&mut self, now: SimTime, _: (), io: &mut ShardIo<'_, (), ()>) {
            if io.shard() == 1 {
                io.observe(0, now, ());
                return;
            }
            if self.ticks == 0 {
                io.send(1, now + HOP, ());
            }
            self.ticks += 1;
        }

        fn ingest(&mut self, at: SimTime, _: ()) {
            self.seen.push((at.0, self.ticks));
        }

        fn event_label(_: &()) -> &'static str {
            "ping"
        }
    }

    /// Shard 0's batch starts with nothing on shard 1, so only the ping it
    /// sends can stop it at `HOP`; otherwise it would run all its ticks
    /// before shard 1 answers, and the answer would arrive late.
    #[test]
    fn a_send_below_the_limit_ends_the_batch() {
        let models = (0..2).map(|_| Ping {
            ticks: 0,
            seen: Vec::new(),
        });
        let mut eng = ShardedEngine::new(models.collect(), HOP, 16);
        for t in 0..100 {
            eng.schedule(0, SimTime(t), ());
        }
        eng.run_to_quiescence(1_000);
        eng.finish_observations();
        // The answer, stamped at 10, is ingested before the tick at 10 + L.
        assert_eq!(eng.model(0).seen, vec![(10, 20)]);
        assert_eq!(eng.events_processed(), 101);
        // Ticks 0–10, the ping, then ticks 11–99.
        assert_eq!(eng.batches(), 3);
    }

    #[test]
    fn observations_arrive_in_time_key_order_and_completely() {
        let mut eng = ring(4);
        eng.run_to_quiescence(100_000);
        eng.finish_observations();
        let obs = &eng.model(0).obs;
        // Every handled event emitted exactly one observation to shard 0.
        assert_eq!(obs.len() as u64, eng.events_processed());
        // Ordered by time (ties broken by origin-shard key, which the
        // payload does not expose; time monotonicity is the visible half).
        assert!(obs.windows(2).all(|w| w[0].0 <= w[1].0), "obs out of order");
    }

    #[test]
    fn single_shard_matches_serial_engine_bit_for_bit() {
        // Reference: the same ring logic on one queue, as a plain binary-heap
        // event loop over (time, insertion seq, event).
        let hops_left = 40;
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for (at, tok) in [(5, Tok::Pass(0)), (7, Tok::Pass(20))] {
            heap.push(Reverse((at, seq, tok)));
            seq += 1;
        }
        let mut log = Vec::new();
        while let Some(Reverse((now, _, tok))) = heap.pop() {
            match tok {
                Tok::Work(x) => log.push((now, x)),
                Tok::Pass(x) => {
                    log.push((now, 1000 + x));
                    let mut next = vec![(now + 1, Tok::Work(x)), (now + 2, Tok::Work(x + 1))];
                    if x < hops_left {
                        next.push((now + HOP.0, Tok::Pass(x + 1)));
                    }
                    for (at, t) in next {
                        heap.push(Reverse((at, seq, t)));
                        seq += 1;
                    }
                }
            }
        }

        let models = vec![RingShard::new(1, hops_left)];
        let mut sharded = ShardedEngine::new(models, SimTime::ZERO, 16);
        sharded.schedule(0, SimTime(5), Tok::Pass(0));
        sharded.schedule(0, SimTime(7), Tok::Pass(20));
        sharded.run_to_quiescence(100_000);
        assert_eq!(sharded.events_processed(), log.len() as u64);
        assert_eq!(sharded.model(0).log, log);
    }

    #[test]
    fn run_until_processes_inclusive_and_advances_clock() {
        let mut eng = ring(2);
        eng.run_until(SimTime(5));
        // The seed at t=5 ran; the one at t=7 did not.
        assert_eq!(eng.model(0).log, vec![(5, 1000)]);
        assert!(eng.model(1).log.is_empty());
        assert_eq!(eng.now(), SimTime(5));
        eng.run_until(SimTime(1_000_000));
        assert!(eng.events_processed() > 100);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn quiescence_budget_guards_runaways() {
        let mut eng = ring(3);
        eng.run_to_quiescence(10);
    }

    #[test]
    fn merged_stats_and_profile_are_coherent() {
        let mut eng = ring(3);
        eng.enable_profiling();
        eng.run_to_quiescence(100_000);
        let stats = eng.stats();
        let per_shard: u64 = (0..3).map(|i| eng.shard_stats(i).events_processed).sum();
        assert_eq!(stats.events_processed, per_shard);
        let hw = (0..3)
            .map(|i| eng.shard_stats(i).queue_high_water)
            .max()
            .unwrap();
        assert_eq!(stats.queue_high_water, hw);
        let p = eng.profile();
        assert_eq!(p.events_processed, stats.events_processed);
        assert_eq!(p.shards.len(), 3);
        assert_eq!(p.rounds, eng.batches());
        assert!(p.rounds > 0);
        let shard_events: u64 = p.shards.iter().map(|s| s.events_processed).sum();
        assert_eq!(shard_events, p.events_processed);
        // One thread never waits: the shards' busy shares tile the wall clock.
        let busy: f64 = p.shards.iter().map(|s| s.busy_secs).sum();
        assert!((busy - p.wall_secs).abs() <= 1e-9 * p.wall_secs.max(1.0));
        assert!(p.shards.iter().all(|s| s.stall_secs == 0.0));
        // per-type totals survive the merge.
        let typed: u64 = p.per_type.iter().map(|(_, n)| n).sum();
        assert_eq!(typed, p.events_processed);
    }

    #[test]
    fn keyed_pushes_order_by_time_then_key() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(4);
        q.push(SimTime(5), shard_key(1, 0), 10);
        q.push(SimTime(5), shard_key(0, 7), 20);
        q.push(SimTime(3), shard_key(2, 1), 30);
        q.stage(SimTime(5), shard_key(0, 2), 40);
        let mut order = Vec::new();
        while let Some(e) = q.pop_below((SimTime::MAX, u64::MAX), SimTime::MAX) {
            order.push(e.event);
        }
        assert_eq!(order, vec![30, 40, 20, 10]);
    }

    /// One-shard toy model: logs `(time, id)` per event.
    #[derive(Debug)]
    enum Ev {
        /// Logged as-is.
        Tag(u32),
        /// Logged as id 999; reschedules itself 10 µs later while
        /// `chain_remaining` lasts.
        Chain,
        /// Schedules `Tag(id)` at the current instant.
        Inject(u32),
        /// Schedules a `Tag` one microsecond in the past.
        Rewind,
        /// Reschedules itself at the current instant, forever.
        Spin,
    }

    struct Recorder {
        seen: Vec<(u64, u32)>,
        chain_remaining: u32,
    }

    impl ShardModel for Recorder {
        type Event = Ev;
        type Obs = ();

        fn handle(&mut self, now: SimTime, ev: Ev, io: &mut ShardIo<'_, Ev, ()>) {
            match ev {
                Ev::Tag(id) => self.seen.push((now.0, id)),
                Ev::Chain => {
                    self.seen.push((now.0, 999));
                    if self.chain_remaining > 0 {
                        self.chain_remaining -= 1;
                        io.schedule_after(SimTime(10), Ev::Chain);
                    }
                }
                Ev::Inject(id) => io.schedule_now(Ev::Tag(id)),
                Ev::Rewind => io.schedule(SimTime(now.0 - 1), Ev::Tag(0)),
                Ev::Spin => io.schedule_now(Ev::Spin),
            }
        }

        fn ingest(&mut self, _: SimTime, _: ()) {}

        fn event_label(ev: &Ev) -> &'static str {
            match ev {
                Ev::Tag(_) => "tag",
                Ev::Chain => "chain",
                Ev::Inject(_) => "inject",
                Ev::Rewind => "rewind",
                Ev::Spin => "spin",
            }
        }
    }

    fn recorders(n: usize, capacity: usize) -> ShardedEngine<Recorder> {
        let models = (0..n)
            .map(|_| Recorder {
                seen: Vec::new(),
                chain_remaining: 0,
            })
            .collect();
        let lookahead = if n == 1 { SimTime::ZERO } else { HOP };
        ShardedEngine::new(models, lookahead, capacity)
    }

    fn solo() -> ShardedEngine<Recorder> {
        recorders(1, 16)
    }

    #[test]
    fn one_shard_pops_in_time_order_and_fifo_at_ties() {
        let mut eng = solo();
        for (at, id) in [(30, 3), (10, 1), (20, 2)] {
            eng.schedule(0, SimTime(at), Ev::Tag(id));
        }
        for id in 100..200 {
            eng.schedule(0, SimTime(5), Ev::Tag(id));
        }
        eng.run_until(SimTime::MAX);
        let mut expected: Vec<(u64, u32)> = (100..200).map(|id| (5, id)).collect();
        expected.extend([(10, 1), (20, 2), (30, 3)]);
        assert_eq!(eng.model(0).seen, expected);
    }

    #[test]
    fn one_shard_horizon_stops_and_advances_clock() {
        let mut eng = solo();
        eng.schedule(0, SimTime(10), Ev::Tag(1));
        eng.schedule(0, SimTime(100), Ev::Tag(2));
        eng.run_until(SimTime(50));
        assert_eq!(eng.model(0).seen, vec![(10, 1)]);
        assert_eq!(eng.now(), SimTime(50));
        // The future event is still pending and runs on the next call.
        eng.run_until(SimTime::MAX);
        assert_eq!(eng.model(0).seen, vec![(10, 1), (100, 2)]);
    }

    /// A handler-driven chain runs to completion under a budget it exactly
    /// meets.
    #[test]
    fn one_shard_chains_from_inside_handle_within_budget() {
        let mut eng = solo();
        eng.model_mut(0).chain_remaining = 1000;
        eng.schedule(0, SimTime::ZERO, Ev::Chain);
        eng.run_to_quiescence(1001);
        let seen = &eng.model(0).seen;
        assert_eq!(seen.len(), 1001);
        assert_eq!(seen.last(), Some(&(10_000, 999)));
        assert_eq!(eng.events_processed(), 1001);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut eng = solo();
        eng.schedule(0, SimTime::ZERO, Ev::Tag(1));
        eng.schedule(0, SimTime::ZERO, Ev::Inject(3));
        eng.schedule(0, SimTime::ZERO, Ev::Tag(2));
        eng.run_until(SimTime::MAX);
        // The injected Tag(3) runs after Tag(2), which was already queued
        // for the same instant.
        let ids: Vec<u32> = eng.model(0).seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = solo();
        eng.schedule(0, SimTime(10), Ev::Rewind);
        eng.run_until(SimTime::MAX);
    }

    /// Regression: a one-shard batch runs to the end of the run, so a
    /// budget checked only between batches never trips on a runaway model.
    /// The guard stops every layout on the first event past the budget.
    #[test]
    fn budget_trips_on_the_first_event_past_it() {
        for n in [1, 2] {
            let mut eng = recorders(n, 16);
            eng.schedule(0, SimTime::ZERO, Ev::Spin);
            let err = catch_unwind(AssertUnwindSafe(|| eng.run_to_quiescence(10)))
                .expect_err("a runaway model must trip the budget");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("exceeded"), "{n} shards: {msg}");
            assert!(
                eng.events_processed() <= 11,
                "{n} shards: {} events",
                eng.events_processed()
            );
        }
    }

    #[test]
    fn one_shard_telemetry_counts_kinds_only_when_enabled() {
        let run = |telemetry: bool| {
            let mut eng = solo();
            if telemetry {
                eng.enable_telemetry();
            }
            eng.model_mut(0).chain_remaining = 5;
            eng.schedule(0, SimTime::ZERO, Ev::Chain);
            eng.schedule(0, SimTime(1), Ev::Tag(1));
            eng.schedule(0, SimTime(2), Ev::Tag(2));
            eng.run_until(SimTime::MAX);
            eng.stats()
        };
        let stats = run(true);
        assert_eq!(stats.events_processed, 8);
        assert_eq!(stats.queue_high_water, 3);
        assert_eq!(stats.per_type, vec![("chain", 6), ("tag", 2)]);
        assert!(stats.wall_secs >= 0.0);
        let plain = run(false);
        assert_eq!(plain.events_processed, 8);
        assert!(plain.per_type.is_empty());
    }

    #[test]
    fn one_shard_profiling_times_phases_without_changing_results() {
        let run = |profiled: bool| {
            let mut eng = solo();
            eng.model_mut(0).chain_remaining = 200;
            if profiled {
                eng.enable_profiling();
            }
            eng.schedule(0, SimTime::ZERO, Ev::Chain);
            eng.schedule(0, SimTime(5), Ev::Tag(7));
            eng.run_until(SimTime::MAX);
            let profile = eng.profile();
            (eng.into_models().remove(0).seen, profile)
        };
        let (plain_seen, plain_profile) = run(false);
        let (prof_seen, profile) = run(true);
        // Profiling is passive: the event history is identical.
        assert_eq!(plain_seen, prof_seen);
        // Phase timers only accumulate when profiling is on.
        assert_eq!(plain_profile.pop_secs, 0.0);
        assert_eq!(plain_profile.sched_secs, 0.0);
        assert!(profile.pop_secs > 0.0);
        assert!(profile.dispatch_secs > 0.0);
        assert!(profile.sched_secs > 0.0);
        assert_eq!(profile.events_processed, 202);
        assert_eq!(profile.events_scheduled, 202);
        // Profiling implies telemetry: per-kind counts are populated.
        assert!(!profile.per_type.is_empty());
        // Phase seconds are estimates scaled up from 4 sampled cycles — on
        // a run this tiny the clock-read cost of the probes dwarfs the
        // near-empty handlers, so no ratio against wall_secs is meaningful
        // here; finiteness is all that can be asserted at this scale. The
        // realistic-scale coherence bound lives in tests/report.rs.
        assert!(profile.pop_secs.is_finite() && profile.dispatch_secs.is_finite());
        #[cfg(target_os = "linux")]
        assert!(profile.peak_rss_bytes.is_some());
    }

    #[test]
    fn queue_capacity_does_not_change_results() {
        let run = |capacity: usize| {
            let mut eng = recorders(1, capacity);
            for id in 0..50 {
                eng.schedule(0, SimTime(100 - id as u64), Ev::Tag(id));
            }
            eng.run_until(SimTime::MAX);
            (eng.model(0).seen.clone(), eng.stats().queue_high_water)
        };
        let small = run(1);
        assert_eq!(small, run(4096));
        assert_eq!(small.1, 50);
    }

    /// Staged seeds flow through a full run exactly like scheduled ones:
    /// identical event history, counters, and high-water mark.
    #[test]
    fn staged_seeds_run_bit_identically_to_scheduled_ones() {
        let run = |stage: bool| {
            let mut eng = solo();
            eng.model_mut(0).chain_remaining = 40;
            for (at, id) in [(70, 0), (10, 1), (10, 2), (35, 3), (0, 4)] {
                if stage {
                    eng.stage(0, SimTime(at), Ev::Tag(id));
                } else {
                    eng.schedule(0, SimTime(at), Ev::Tag(id));
                }
            }
            // A chain scheduled normally, interleaving with staged seeds.
            eng.schedule(0, SimTime::ZERO, Ev::Chain);
            eng.run_until(SimTime::MAX);
            (
                eng.model(0).seen.clone(),
                eng.events_processed(),
                eng.stats().queue_high_water,
            )
        };
        assert_eq!(run(true), run(false));
    }

    /// The staged lane's one-off sort must stay out of the first pop: that
    /// pop is always a timed sample and is scaled up 64-fold, so a sort
    /// inside it makes a bulk-seeded run report more pop than wall seconds.
    #[test]
    fn staged_sort_stays_out_of_the_pop_estimate() {
        let mut eng = solo();
        eng.enable_profiling();
        for i in 0..200_000u64 {
            eng.stage(0, SimTime(i * 7_919 % 1_000_000), Ev::Tag(i as u32));
        }
        eng.run_until(SimTime::MAX);
        let p = eng.profile();
        assert_eq!(p.events_processed, 200_000);
        assert!(
            p.pop_secs <= p.wall_secs,
            "pop {} s vs wall {} s",
            p.pop_secs,
            p.wall_secs
        );
    }
}
