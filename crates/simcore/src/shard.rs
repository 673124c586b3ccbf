//! Conservative parallel execution of **one** simulation across event shards.
//!
//! The classic engine ([`crate::Engine`]) pops a single future-event list in
//! strict `(time, seq)` order. This module runs N lists — one per *shard* of
//! the model — in **barrier rounds** bounded by the minimum cross-shard
//! *lookahead* `L`: if every event a shard sends to another shard arrives at
//! least `L` after the sending event's timestamp, then all events strictly
//! below `min_next_event + L` are causally independent across shards and may
//! execute concurrently. This is textbook conservative DES (Chandy–Misra
//! style synchronization, specialized to a global barrier because tier-chain
//! topologies have only a handful of shards).
//!
//! # Determinism
//!
//! Results are **bit-identical for every worker-thread count**, including
//! one. Three mechanisms make this hold by construction rather than by test:
//!
//! * **Shard-tagged keys.** Every scheduled event carries a `u64` key
//!   `(origin_shard << 56) | counter` drawn from the *sending* shard's own
//!   monotone counter. A destination queue orders its events by
//!   `(time, key)`, so the merge order of events from several shards is a
//!   pure function of the simulation, never of thread interleaving. A
//!   single-shard layout degenerates to `key == counter`, i.e. exactly the
//!   serial engine's insertion sequence.
//! * **Seq-reserving mailboxes.** Cross-shard sends are buffered per
//!   `(source, destination)` pair during a round and drained after the
//!   barrier in source-shard order. Since each message already carries its
//!   key, drain order cannot affect pop order.
//! * **Uniform round decisions.** The only shared decisions — the global
//!   minimum next-event time and the round horizon derived from it — are
//!   reduced at a barrier, so every thread takes the same branch.
//!
//! # Observations
//!
//! Shards may also emit *observations* — passive, order-tolerant payloads
//! (trace spans destined for a recorder on another shard, say) that must not
//! perturb event scheduling. Observations travel in their own mailboxes
//! under a **separate** per-shard counter (so arming them never shifts event
//! keys) and are ingested on the destination shard in `(time, key)` order,
//! but only once they are *safe*: before dispatching an event at time `T`, a
//! shard ingests every pending observation stamped `≤ T − L`. Anything still
//! pending when the run stops is delivered by
//! [`ShardedEngine::finish_observations`].
use crate::engine::EngineStats;
use crate::profile::{peak_rss_bytes, EngineProfile, ShardLoad};
use crate::queue::{EventQueue, PopNext, PROFILE_SAMPLE_MASK};

/// Round-timing sample mask for the *serial* round loop: busy clocks are
/// read on a deterministic 1-in-16 sample of rounds and scaled back up
/// ([`ROUND_SAMPLE_SCALE`]), keeping profiled runs cheap even when a tiny
/// lookahead makes rounds tiny and numerous. Serial per-shard
/// [`ShardLoad`](crate::ShardLoad) figures are therefore estimates, like
/// the engine's pop/dispatch phase timings. The parallel loop times every
/// round instead — see the comment in `run_parallel`.
const ROUND_SAMPLE_MASK: u64 = 15;
/// Scale factor undoing the 1-in-16 round sample.
const ROUND_SAMPLE_SCALE: f64 = (ROUND_SAMPLE_MASK + 1) as f64;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Bits above this position of an event key hold the origin shard id.
pub const SHARD_KEY_BITS: u32 = 56;

/// Per-`(destination, source)` cross-shard mailboxes: slot `dst * n + src`
/// holds keyed messages deposited during a round and drained post-barrier.
type Mailboxes<T> = Vec<Mutex<Vec<(SimTime, u64, T)>>>;

/// Compose the `(origin_shard, counter)` event key (see module docs).
#[inline]
pub fn shard_key(shard: usize, counter: u64) -> u64 {
    debug_assert!(shard < (1 << (64 - SHARD_KEY_BITS)));
    debug_assert!(counter < (1u64 << SHARD_KEY_BITS));
    ((shard as u64) << SHARD_KEY_BITS) | counter
}

/// One shard of a sharded model: a state machine handling its own events and
/// ingesting observations sent by other shards.
///
/// The contract mirrors [`crate::Model`], with two differences: handlers
/// talk to a [`ShardIo`] (which routes local schedules and cross-shard
/// sends), and a shard must tolerate observations arriving *later* than the
/// events around them (they are delivered under the lookahead delay rule).
pub trait ShardModel: Send {
    /// Event payload (shared by all shards of one model).
    type Event: Send;
    /// Observation payload (use `()` when unused).
    type Obs: Send;

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

    /// Short static label per event kind (telemetry; mirror of
    /// [`crate::Model::event_label`]).
    fn event_label(event: &Self::Event) -> &'static str;
}

/// Per-round I/O capability handed to [`ShardModel::handle`]: local
/// scheduling, cross-shard sends, and observation emission.
pub struct ShardIo<'a, E, O> {
    shard: usize,
    /// Lower bound every cross-shard send must respect this round
    /// (`round_min + lookahead`).
    send_floor: SimTime,
    queue: &'a mut EventQueue<E>,
    counter: &'a mut u64,
    obs_counter: &'a mut u64,
    outbox: &'a mut [Vec<(SimTime, u64, E)>],
    obs_outbox: &'a mut [Vec<(SimTime, u64, O)>],
}

impl<E, O> ShardIo<'_, E, O> {
    /// Current simulated time on this shard.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// This shard's index.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }

    #[inline]
    fn next_key(&mut self) -> u64 {
        let k = shard_key(self.shard, *self.counter);
        *self.counter += 1;
        k
    }

    /// Schedule an event on this shard at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.next_key();
        self.queue.push_keyed(at, key, event);
    }

    /// Schedule on this shard after a delay relative to now.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.queue.now() + delay, event);
    }

    /// Schedule on this shard at the current instant, after everything
    /// already queued for it.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule(self.queue.now(), event);
    }

    /// Send an event to shard `dest` at absolute time `at`. A send to this
    /// shard is an ordinary local schedule; a cross-shard send must respect
    /// the lookahead (`at ≥ round_min + L`), which is what licenses the
    /// round to run shards concurrently in the first place.
    ///
    /// # Panics
    /// If a cross-shard `at` lands inside the current round's horizon.
    #[inline]
    pub fn send(&mut self, dest: usize, at: SimTime, event: E) {
        if dest == self.shard {
            self.schedule(at, event);
            return;
        }
        assert!(
            at >= self.send_floor,
            "cross-shard send below the lookahead horizon: at={at} floor={} (shard {} -> {dest})",
            self.send_floor,
            self.shard
        );
        let key = self.next_key();
        self.outbox[dest].push((at, key, event));
    }

    /// Emit an observation stamped `at` toward shard `dest` (which may be
    /// this shard). Observations use their own key counter, so emitting them
    /// never perturbs event ordering; they are ingested under the delay rule
    /// described in the module docs.
    #[inline]
    pub fn observe(&mut self, dest: usize, at: SimTime, obs: O) {
        let key = shard_key(self.shard, *self.obs_counter);
        *self.obs_counter += 1;
        self.obs_outbox[dest].push((at, key, obs));
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

/// One shard's execution state: its model, event list, counters, outboxes,
/// and telemetry accumulators.
struct ShardState<M: ShardModel> {
    model: M,
    queue: EventQueue<M::Event>,
    counter: u64,
    obs_counter: u64,
    outbox: Vec<Vec<(SimTime, u64, M::Event)>>,
    obs_outbox: Vec<Vec<(SimTime, u64, M::Obs)>>,
    obs_pending: BinaryHeap<Reverse<ObsEntry<M::Obs>>>,
    events_processed: u64,
    per_type: Vec<(&'static str, u64)>,
    pop_secs: f64,
    dispatch_secs: f64,
    timed_events: u64,
    busy_secs: f64,
    stall_secs: f64,
}

impl<M: ShardModel> ShardState<M> {
    /// Ingest every safe pending observation: all entries stamped `≤ bound`,
    /// in `(time, key)` order.
    fn drain_obs_through(&mut self, bound: SimTime) {
        while let Some(Reverse(top)) = self.obs_pending.peek() {
            if top.at > bound {
                break;
            }
            let Reverse(e) = self.obs_pending.pop().expect("peeked entry vanished");
            self.model.ingest(e.at, e.obs);
        }
    }
}

/// N event queues run in lookahead-bounded barrier rounds — the parallel
/// (and, at one worker, the serial) executor for sharded models.
///
/// Construction fixes the shard layout and the lookahead; the worker-thread
/// count is free to vary per run without changing a single bit of output
/// (see module docs). One worker runs the same round schedule with no
/// synchronization primitives at all.
pub struct ShardedEngine<M: ShardModel> {
    shards: Vec<ShardState<M>>,
    lookahead: SimTime,
    threads: usize,
    now: SimTime,
    telemetry: bool,
    profiling: bool,
    rounds: u64,
    wall_secs: f64,
}

impl<M: ShardModel> ShardedEngine<M> {
    /// Build an engine over `models` (one per shard) with the given
    /// cross-shard lookahead, worker-thread budget, and initial per-shard
    /// queue capacity hint.
    ///
    /// # Panics
    /// If `models` is empty, or if a multi-shard layout comes with a zero
    /// lookahead (callers are expected to collapse such layouts to one
    /// shard — zero lookahead admits no concurrency).
    pub fn new(models: Vec<M>, lookahead: SimTime, threads: usize, capacity: usize) -> Self {
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
                queue: EventQueue::with_capacity(capacity),
                counter: 0,
                obs_counter: 0,
                outbox: (0..n).map(|_| Vec::new()).collect(),
                obs_outbox: (0..n).map(|_| Vec::new()).collect(),
                obs_pending: BinaryHeap::new(),
                events_processed: 0,
                per_type: Vec::new(),
                pop_secs: 0.0,
                dispatch_secs: 0.0,
                timed_events: 0,
                busy_secs: 0.0,
                stall_secs: 0.0,
            })
            .collect();
        ShardedEngine {
            shards,
            lookahead,
            threads: threads.clamp(1, n),
            now: SimTime::ZERO,
            telemetry: false,
            profiling: false,
            rounds: 0,
            wall_secs: 0.0,
        }
    }

    /// Number of shards in the layout.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads the run loop will use (clamped to the shard count).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The cross-shard lookahead the rounds are bounded by.
    #[inline]
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Current simulated time (the completed horizon).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Barrier rounds executed so far.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Turn on per-event-kind counting (the sharded mirror of
    /// [`crate::Engine::enable_telemetry`]).
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
    }

    /// Turn on phase profiling: sampled pop/dispatch/push timings per shard
    /// plus round-level busy/stall attribution. Passive — output is
    /// bit-identical to an unprofiled run.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
        self.telemetry = true;
        for s in &mut self.shards {
            s.queue.set_timed(true);
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
        s.queue.push_keyed(at, key, event);
    }

    /// Stage a pre-run seed event on shard `shard` through the queue's
    /// staged-arrivals lane (bulk seeding; same key space as
    /// [`schedule`](Self::schedule)).
    pub fn stage(&mut self, shard: usize, at: SimTime, event: M::Event) {
        let s = &mut self.shards[shard];
        let key = shard_key(shard, s.counter);
        s.counter += 1;
        s.queue.stage_keyed(at, key, event);
    }

    /// Run until simulated time `until` (inclusive), then advance every
    /// shard's clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run(until, None);
        for s in &mut self.shards {
            s.queue.advance_to(until);
        }
        self.now = self.now.max(until);
    }

    /// Run until every shard's event list is empty.
    ///
    /// # Panics
    /// If more than `max_events` are processed (runaway guard, mirroring
    /// [`crate::Engine::run_to_quiescence`]).
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        self.run(SimTime::MAX, Some(max_events));
    }

    /// Deliver every still-pending observation (in `(time, key)` order per
    /// shard). Call after the final `run_*` and before tearing the models
    /// down: observations are delivered lazily under the lookahead rule, so
    /// the tail emitted near the end of a run is still in flight.
    pub fn finish_observations(&mut self) {
        for s in &mut self.shards {
            s.drain_obs_through(SimTime::MAX);
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
                .shards
                .iter()
                .map(|s| s.queue.high_water())
                .max()
                .unwrap_or(0),
            queue_capacity: self.shards.iter().map(|s| s.queue.capacity()).sum(),
            wall_secs: self.wall_secs,
            per_type,
        }
    }

    /// One shard's own telemetry view (unmerged).
    pub fn shard_stats(&self, i: usize) -> EngineStats {
        let s = &self.shards[i];
        EngineStats {
            events_processed: s.events_processed,
            queue_high_water: s.queue.high_water(),
            queue_capacity: s.queue.capacity(),
            wall_secs: self.wall_secs,
            per_type: s.per_type.clone(),
        }
    }

    /// Merged phase profile: sampled phase seconds are scaled per shard
    /// (exactly as the serial engine scales its own sample) and then summed,
    /// so `pop+dispatch` seconds can legitimately exceed wall seconds once
    /// shards actually overlap. Per-shard busy/stall attribution rides in
    /// [`EngineProfile::shards`].
    pub fn profile(&self) -> EngineProfile {
        let stats = self.stats();
        let mut pop = 0.0;
        let mut dispatch = 0.0;
        let mut sched = 0.0;
        let mut scheduled = 0;
        for s in &self.shards {
            if s.timed_events > 0 {
                let scale = s.events_processed as f64 / s.timed_events as f64;
                pop += s.pop_secs * scale;
                dispatch += s.dispatch_secs * scale;
            }
            if s.queue.timed_pushes() > 0 {
                let scale = s.counter as f64 / s.queue.timed_pushes() as f64;
                sched += s.queue.sched_secs() * scale;
            }
            scheduled += s.counter;
        }
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
            rounds: self.rounds,
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardLoad {
                    shard: i,
                    events_processed: s.events_processed,
                    busy_secs: s.busy_secs,
                    stall_secs: s.stall_secs,
                })
                .collect(),
        }
    }

    /// Global minimum next-event time across all shards.
    fn global_min(&self) -> SimTime {
        self.shards
            .iter()
            .filter_map(|s| s.queue.peek_time())
            .min()
            .unwrap_or(SimTime::MAX)
    }

    fn run(&mut self, until: SimTime, budget: Option<u64>) {
        let t0 = std::time::Instant::now();
        if self.threads <= 1 || self.shards.len() == 1 {
            self.run_serial(until, budget);
        } else {
            self.run_parallel(until, budget);
        }
        self.wall_secs += t0.elapsed().as_secs_f64();
    }

    /// One-worker round loop: the same round schedule as the parallel path,
    /// with no synchronization primitives.
    fn run_serial(&mut self, until: SimTime, budget: Option<u64>) {
        let n = self.shards.len();
        let lookahead = self.lookahead;
        let telemetry = self.telemetry;
        let profiling = self.profiling;
        let start_events = self.events_processed();
        loop {
            let m = self.global_min();
            if m == SimTime::MAX || (budget.is_none() && m > until) {
                break;
            }
            let (horizon, floor) = round_bounds(m, lookahead, until, n);
            // Like the pop/dispatch phases, round timing is estimated from a
            // deterministic 1-in-16 sample of rounds (scaled back up), so
            // profiling stays cheap when the lookahead makes rounds tiny.
            let sample = profiling && self.rounds & ROUND_SAMPLE_MASK == 0;
            for i in 0..n {
                let s = &mut self.shards[i];
                let t0 = sample.then(std::time::Instant::now);
                run_shard_round(s, i, horizon, floor, lookahead, telemetry, profiling);
                if let Some(t0) = t0 {
                    s.busy_secs += t0.elapsed().as_secs_f64() * ROUND_SAMPLE_SCALE;
                }
            }
            // Mailbox drain, in (destination, source) order. Order cannot
            // matter — every message carries its key — but keeping it fixed
            // keeps the loop boring.
            for dst in 0..n {
                for src in 0..n {
                    if src == dst {
                        continue;
                    }
                    let (s_src, s_dst) = two_shards(&mut self.shards, src, dst);
                    for (at, key, ev) in s_src.outbox[dst].drain(..) {
                        s_dst.queue.push_keyed(at, key, ev);
                    }
                    for (at, key, obs) in s_src.obs_outbox[dst].drain(..) {
                        s_dst.obs_pending.push(Reverse(ObsEntry { at, key, obs }));
                    }
                }
                let s = &mut self.shards[dst];
                for (at, key, obs) in std::mem::take(&mut s.obs_outbox[dst]) {
                    s.obs_pending.push(Reverse(ObsEntry { at, key, obs }));
                }
            }
            self.rounds += 1;
            if let Some(max) = budget {
                assert!(
                    self.events_processed() - start_events <= max,
                    "run_to_quiescence exceeded {max} events"
                );
            }
        }
    }

    /// Multi-worker round loop. Thread `j` owns a contiguous chunk of
    /// shards; two barriers per round separate the min-reduction, the
    /// processing phase, and the mailbox drain. Every decision taken by a
    /// thread depends only on barrier-published values, so all threads agree
    /// on every round's horizon and on termination.
    fn run_parallel(&mut self, until: SimTime, budget: Option<u64>) {
        let n = self.shards.len();
        let threads = self.threads.min(n);
        let lookahead = self.lookahead;
        let telemetry = self.telemetry;
        let profiling = self.profiling;
        let chunk = n.div_ceil(threads);
        // Chunked ownership can need fewer threads than requested (e.g. 4
        // shards over 3 threads → two chunks of 2).
        let threads = n.div_ceil(chunk);
        let barrier = Barrier::new(threads);
        // Double-buffered min reduction: round r reduces into `mins[r % 2]`
        // while the barrier leader re-arms the other slot for round r + 1.
        let mins = [Mutex::new(SimTime::MAX), Mutex::new(SimTime::MAX)];
        {
            let mut m0 = mins[0].lock().expect("min slot poisoned");
            *m0 = SimTime::MAX;
        }
        // Mailboxes: slot [dst * n + src] is written only by the thread
        // owning `src` during a round and read only by the thread owning
        // `dst` after the barrier, so every lock is uncontended.
        let event_mail: Mailboxes<M::Event> = (0..n * n).map(|_| Mutex::new(Vec::new())).collect();
        let obs_mail: Mailboxes<M::Obs> = (0..n * n).map(|_| Mutex::new(Vec::new())).collect();
        let total_events = AtomicU64::new(0);
        let rounds = AtomicU64::new(0);

        std::thread::scope(|scope| {
            let mut chunks: Vec<&mut [ShardState<M>]> = self.shards.chunks_mut(chunk).collect();
            debug_assert_eq!(chunks.len(), threads);
            let mut handles = Vec::new();
            for (j, own) in chunks.drain(..).enumerate() {
                let barrier = &barrier;
                let mins = &mins;
                let event_mail = &event_mail;
                let obs_mail = &obs_mail;
                let total_events = &total_events;
                let rounds = &rounds;
                let mut body = move || {
                    let base = j * chunk;
                    let mut round: u64 = 0;
                    loop {
                        // Phase 1: reduce the global minimum next-event time.
                        let local_min = own
                            .iter()
                            .filter_map(|s| s.queue.peek_time())
                            .min()
                            .unwrap_or(SimTime::MAX);
                        {
                            let mut g = mins[(round % 2) as usize]
                                .lock()
                                .expect("min slot poisoned");
                            if local_min < *g {
                                *g = local_min;
                            }
                        }
                        // Unlike the serial path, parallel round timing is
                        // NOT sampled: barrier waits dominate a parallel
                        // round, so whole-round clock reads are relatively
                        // cheap — and on an oversubscribed host a sampled
                        // round's clock span includes other threads'
                        // timeslices, which the sampling scale would amplify
                        // into fabricated >100% utilization. Timing every
                        // round lets preemption noise average out instead.
                        let t_wait = profiling.then(std::time::Instant::now);
                        let leader = barrier.wait().is_leader();
                        let stall_a = t_wait.map_or(0.0, |t| t.elapsed().as_secs_f64());
                        let m = *mins[(round % 2) as usize]
                            .lock()
                            .expect("min slot poisoned");
                        if leader {
                            *mins[((round + 1) % 2) as usize]
                                .lock()
                                .expect("min slot poisoned") = SimTime::MAX;
                        }
                        if m == SimTime::MAX || (budget.is_none() && m > until) {
                            break;
                        }
                        // Phase 2: process this round on owned shards and
                        // deposit cross-shard messages.
                        let (horizon, floor) = round_bounds(m, lookahead, until, n);
                        let mut processed: u64 = 0;
                        for (k, s) in own.iter_mut().enumerate() {
                            let src = base + k;
                            let t0 = profiling.then(std::time::Instant::now);
                            processed += run_shard_round(
                                s, src, horizon, floor, lookahead, telemetry, profiling,
                            );
                            if let Some(t0) = t0 {
                                s.busy_secs += t0.elapsed().as_secs_f64();
                            }
                            for dst in 0..n {
                                if dst == src {
                                    for e in std::mem::take(&mut s.obs_outbox[dst]) {
                                        s.obs_pending.push(Reverse(ObsEntry {
                                            at: e.0,
                                            key: e.1,
                                            obs: e.2,
                                        }));
                                    }
                                    continue;
                                }
                                if !s.outbox[dst].is_empty() {
                                    event_mail[dst * n + src]
                                        .lock()
                                        .expect("mailbox poisoned")
                                        .append(&mut s.outbox[dst]);
                                }
                                if !s.obs_outbox[dst].is_empty() {
                                    obs_mail[dst * n + src]
                                        .lock()
                                        .expect("mailbox poisoned")
                                        .append(&mut s.obs_outbox[dst]);
                                }
                            }
                        }
                        if budget.is_some() {
                            total_events.fetch_add(processed, Ordering::Relaxed);
                        }
                        let t_wait = profiling.then(std::time::Instant::now);
                        barrier.wait();
                        let stall_b = t_wait.map_or(0.0, |t| t.elapsed().as_secs_f64());
                        if profiling {
                            // Thread-level stall, attributed evenly across the
                            // thread's shards (1:1 in the common layouts).
                            let share = (stall_a + stall_b) / own.len() as f64;
                            for s in own.iter_mut() {
                                s.stall_secs += share;
                            }
                        }
                        // Phase 3: drain incoming mailboxes on owned shards.
                        for (k, s) in own.iter_mut().enumerate() {
                            let dst = base + k;
                            for src in 0..n {
                                if src == dst {
                                    continue;
                                }
                                let mut mail =
                                    event_mail[dst * n + src].lock().expect("mailbox poisoned");
                                for (at, key, ev) in mail.drain(..) {
                                    s.queue.push_keyed(at, key, ev);
                                }
                                drop(mail);
                                let mut mail =
                                    obs_mail[dst * n + src].lock().expect("mailbox poisoned");
                                for (at, key, obs) in mail.drain(..) {
                                    s.obs_pending.push(Reverse(ObsEntry { at, key, obs }));
                                }
                            }
                        }
                        round += 1;
                        if let Some(max) = budget {
                            // The total is published before barrier B, so
                            // after it every thread sees the same value and
                            // panics (or not) in unison.
                            assert!(
                                total_events.load(Ordering::Relaxed) <= max,
                                "run_to_quiescence exceeded {max} events"
                            );
                        }
                    }
                    // Every thread exits with the identical round count.
                    rounds.fetch_max(round, Ordering::Relaxed);
                };
                if j == threads - 1 {
                    // Run the last chunk on the calling thread.
                    body();
                } else {
                    handles.push(scope.spawn(body));
                }
            }
            for h in handles {
                h.join().expect("worker thread panicked");
            }
        });
        self.rounds += rounds.load(Ordering::Relaxed);
    }
}

/// Disjoint mutable borrows of two distinct shards.
fn two_shards<M: ShardModel>(
    shards: &mut [ShardState<M>],
    a: usize,
    b: usize,
) -> (&mut ShardState<M>, &mut ShardState<M>) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = shards.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = shards.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// The round's inclusive pop horizon and the cross-shard send floor derived
/// from the global minimum `m`: events with `t ≤ min(m + L − 1, until)` run,
/// and every cross-shard send must land at `≥ m + L`. A single-shard layout
/// has no cross-shard constraint and runs straight to `until`.
fn round_bounds(
    m: SimTime,
    lookahead: SimTime,
    until: SimTime,
    n_shards: usize,
) -> (SimTime, SimTime) {
    if n_shards == 1 {
        return (until, SimTime::ZERO);
    }
    let floor = SimTime(m.0.saturating_add(lookahead.0));
    let horizon = SimTime(floor.0.saturating_sub(1)).min(until);
    (horizon, floor)
}

/// Process every event with `t ≤ horizon` on one shard, ingesting pending
/// observations under the delay rule before each dispatch. Returns the
/// number of events processed.
fn run_shard_round<M: ShardModel>(
    s: &mut ShardState<M>,
    shard: usize,
    horizon: SimTime,
    floor: SimTime,
    lookahead: SimTime,
    telemetry: bool,
    profiling: bool,
) -> u64 {
    let mut processed: u64 = 0;
    loop {
        let sample = profiling && s.events_processed & PROFILE_SAMPLE_MASK == 0;
        let t0 = sample.then(std::time::Instant::now);
        let item = match s.queue.pop_at_most(horizon) {
            PopNext::Event(item) => item,
            PopNext::Empty | PopNext::Beyond => break,
        };
        if let Some(t0) = t0 {
            s.pop_secs += t0.elapsed().as_secs_f64();
        }
        // Observation safety: everything stamped ≤ now − L is final (no
        // shard can still emit below that), so deliver it before the event.
        if !s.obs_pending.is_empty() {
            s.drain_obs_through(item.at.saturating_sub(lookahead));
        }
        if telemetry {
            let label = M::event_label(&item.event);
            match s.per_type.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => s.per_type.push((label, 1)),
            }
        }
        let t0 = sample.then(std::time::Instant::now);
        {
            let mut io = ShardIo {
                shard,
                send_floor: floor,
                queue: &mut s.queue,
                counter: &mut s.counter,
                obs_counter: &mut s.obs_counter,
                outbox: &mut s.outbox,
                obs_outbox: &mut s.obs_outbox,
            };
            s.model.handle(item.at, item.event, &mut io);
        }
        if let Some(t0) = t0 {
            s.dispatch_secs += t0.elapsed().as_secs_f64();
            s.timed_events += 1;
        }
        s.events_processed += 1;
        processed += 1;
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Model};

    const HOP: SimTime = SimTime(10);

    /// Toy workload on a ring of shards: every shard locally "works" each
    /// token twice, then passes it to the next shard after `HOP`; each
    /// handled event also emits an observation toward shard 0.
    #[derive(Debug, Clone, PartialEq)]
    enum Tok {
        Work(u32),
        Pass(u32),
    }

    struct RingShard {
        n: usize,
        hops_left: u32,
        log: Vec<(u64, u32)>,
        obs: Vec<(u64, u32)>,
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
            self.obs.push((at.0, obs));
        }

        fn event_label(ev: &Tok) -> &'static str {
            match ev {
                Tok::Work(_) => "work",
                Tok::Pass(_) => "pass",
            }
        }
    }

    fn ring(n: usize, threads: usize) -> ShardedEngine<RingShard> {
        let models = (0..n).map(|_| RingShard::new(n, 40)).collect();
        let mut eng = ShardedEngine::new(models, HOP, threads, 16);
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

    #[test]
    fn multi_shard_runs_are_thread_count_invariant() {
        let mut a = ring(3, 1);
        a.run_to_quiescence(100_000);
        a.finish_observations();
        let mut b = ring(3, 3);
        b.run_to_quiescence(100_000);
        b.finish_observations();
        assert_eq!(a.events_processed(), b.events_processed());
        assert!(a.events_processed() > 100);
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(logs(&a), logs(&b));
        // Observations ingested on shard 0 in identical order, too.
        assert_eq!(a.model(0).obs, b.model(0).obs);
        // And the merged stats agree.
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.events_processed, sb.events_processed);
        assert_eq!(sa.per_type, sb.per_type);
    }

    #[test]
    fn observations_arrive_in_time_key_order_and_completely() {
        let mut eng = ring(4, 2);
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
        // The same ring logic on the classic engine, one queue.
        struct Solo(RingShard);
        impl Model for Solo {
            type Event = Tok;
            fn handle(&mut self, now: SimTime, ev: Tok, q: &mut EventQueue<Tok>) {
                match ev {
                    Tok::Work(x) => self.0.log.push((now.0, x)),
                    Tok::Pass(x) => {
                        self.0.log.push((now.0, 1000 + x));
                        q.schedule(now + SimTime(1), Tok::Work(x));
                        q.schedule(now + SimTime(2), Tok::Work(x + 1));
                        if x < self.0.hops_left {
                            q.schedule(now + HOP, Tok::Pass(x + 1));
                        }
                    }
                }
            }
            fn event_label(_: &Tok) -> &'static str {
                "tok"
            }
        }
        let mut serial = Engine::new(Solo(RingShard::new(1, 40)));
        serial.schedule(SimTime(5), Tok::Pass(0));
        serial.schedule(SimTime(7), Tok::Pass(20));
        serial.run_to_quiescence(100_000);

        let models = vec![RingShard::new(1, 40)];
        let mut sharded = ShardedEngine::new(models, SimTime::ZERO, 1, 16);
        sharded.schedule(0, SimTime(5), Tok::Pass(0));
        sharded.schedule(0, SimTime(7), Tok::Pass(20));
        sharded.run_to_quiescence(100_000);
        assert_eq!(serial.events_processed(), sharded.events_processed());
        assert_eq!(serial.model().0.log, sharded.model(0).log);
    }

    #[test]
    fn run_until_processes_inclusive_and_advances_clock() {
        let mut eng = ring(2, 1);
        eng.run_until(SimTime(5));
        // The seed at t=5 ran; the one at t=7 did not.
        assert_eq!(eng.model(0).log, vec![(5, 1000)]);
        assert!(eng.model(1).log.is_empty());
        assert_eq!(eng.now(), SimTime(5));
        eng.run_until(SimTime(1_000_000));
        assert!(eng.events_processed() > 100);
    }

    #[test]
    #[should_panic(expected = "cross-shard send below the lookahead horizon")]
    fn lookahead_violation_is_caught() {
        struct Cheater;
        impl ShardModel for Cheater {
            type Event = u8;
            type Obs = ();
            fn handle(&mut self, now: SimTime, _: u8, io: &mut ShardIo<'_, u8, ()>) {
                io.send(1, now + SimTime(1), 0); // below L = 10
            }
            fn ingest(&mut self, _: SimTime, _: ()) {}
            fn event_label(_: &u8) -> &'static str {
                "cheat"
            }
        }
        let mut eng = ShardedEngine::new(vec![Cheater, Cheater], HOP, 1, 4);
        eng.schedule(0, SimTime(3), 0);
        eng.run_to_quiescence(10);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn quiescence_budget_guards_runaways() {
        let mut eng = ring(3, 1);
        eng.run_to_quiescence(10);
    }

    #[test]
    fn merged_stats_and_profile_are_coherent() {
        let mut eng = ring(3, 3);
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
        assert_eq!(p.rounds, eng.rounds());
        assert!(p.rounds > 0);
        let shard_events: u64 = p.shards.iter().map(|s| s.events_processed).sum();
        assert_eq!(shard_events, p.events_processed);
        // per-type totals survive the merge.
        let typed: u64 = p.per_type.iter().map(|(_, n)| n).sum();
        assert_eq!(typed, p.events_processed);
    }

    #[test]
    fn keyed_pushes_order_by_time_then_key() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(4);
        q.push_keyed(SimTime(5), shard_key(1, 0), 10);
        q.push_keyed(SimTime(5), shard_key(0, 7), 20);
        q.push_keyed(SimTime(3), shard_key(2, 1), 30);
        q.stage_keyed(SimTime(5), shard_key(0, 2), 40);
        let mut order = Vec::new();
        while let PopNext::Event(e) = q.pop_at_most(SimTime::MAX) {
            order.push(e.event);
        }
        assert_eq!(order, vec![30, 40, 20, 10]);
    }
}
