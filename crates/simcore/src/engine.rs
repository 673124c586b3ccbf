//! The event-list simulation engine.
//!
//! The engine is generic over the model's event type. A [`Model`] is a plain
//! mutable state machine; the engine owns the pending-event queue and the
//! clock. Events scheduled for the same instant are delivered in insertion
//! order (FIFO), which makes simulations deterministic and makes causality
//! easy to reason about ("the release I scheduled before the acquire runs
//! first").
//!
//! The queue itself is backend-pluggable (binary heap or calendar queue, see
//! [`crate::queue`]); the engine only ever asks for "the minimum pending
//! event", so the backend choice is invisible here — and provably invisible
//! to simulation output.

use crate::profile::EngineProfile;
use crate::queue::{EventQueue, PopNext, PROFILE_SAMPLE_MASK};
use crate::time::SimTime;

/// A simulation model: the domain state machine driven by the engine.
///
/// `handle` receives one event and may schedule any number of future events
/// through the [`EventQueue`]. Scheduling in the past is a programming error
/// and panics.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Process one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// A static label for an event, used by engine telemetry to build
    /// per-event-type counts. The default lumps everything under `"event"`;
    /// models override it to expose their alphabet.
    fn event_label(_event: &Self::Event) -> &'static str {
        "event"
    }
}

/// Outcome of [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// One event was processed.
    Progressed,
    /// The event queue is empty; the simulation is quiescent.
    Exhausted,
    /// The next event lies beyond the requested horizon (clock left unchanged).
    HorizonReached,
}

/// Telemetry snapshot of an engine run (see [`Engine::stats`]).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Total events processed.
    pub events_processed: u64,
    /// Peak number of pending events, whatever the backend (staged arrivals
    /// included).
    pub queue_high_water: usize,
    /// Allocated capacity of the pending-event backend at snapshot time.
    /// Compare with `queue_high_water` to pre-size future runs of the same
    /// topology via [`Engine::with_capacity`].
    pub queue_capacity: usize,
    /// Wall-clock seconds spent inside `run_until`/`run_to_quiescence`.
    pub wall_secs: f64,
    /// Per-event-type counts (only populated with telemetry enabled; the
    /// labels come from [`Model::event_label`]).
    pub per_type: Vec<(&'static str, u64)>,
}

impl EngineStats {
    /// Events processed per wall-clock second (0 when nothing was timed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The simulation engine: owns the model, the clock, and the event queue.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    events_processed: u64,
    telemetry: bool,
    profiling: bool,
    per_type: Vec<(&'static str, u64)>,
    wall_secs: f64,
    pop_secs: f64,
    dispatch_secs: f64,
    timed_events: u64,
}

impl<M: Model> Engine<M> {
    /// Create an engine around `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Self::with_capacity(model, 1024)
    }

    /// Create an engine whose calendar queue starts with buckets for roughly
    /// `capacity` pending events, sparing early grow-rebuilds in large
    /// closed-loop models where the pending-event count scales with the
    /// population (e.g. one think timer per emulated user). Layout only:
    /// results are identical at any capacity.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Engine {
            model,
            queue: EventQueue::with_capacity(capacity),
            events_processed: 0,
            telemetry: false,
            profiling: false,
            per_type: Vec::new(),
            wall_secs: 0.0,
            pop_secs: 0.0,
            dispatch_secs: 0.0,
            timed_events: 0,
        }
    }

    /// Turn on per-event-type counting (one label lookup + linear-scan bump
    /// per event; off by default so untraced runs pay nothing).
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
    }

    /// Turn on phase profiling: wall-clock timing of the pop, dispatch, and
    /// schedule phases on a deterministic 1-in-64 sample of event cycles
    /// (scaled to whole-run estimates in [`profile`](Self::profile)), plus
    /// the per-event-type counts of
    /// [`enable_telemetry`](Self::enable_telemetry). Profiling is
    /// passive — it draws no randomness, schedules nothing, and never
    /// touches the model — so a profiled run produces bit-identical
    /// simulation output to an unprofiled one. Off by default; when off, the
    /// hot path pays one untaken branch per event.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
        self.telemetry = true;
        self.queue.set_timed(true);
    }

    /// Snapshot the run's telemetry.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            events_processed: self.events_processed,
            queue_high_water: self.queue.high_water(),
            queue_capacity: self.queue.capacity(),
            wall_secs: self.wall_secs,
            per_type: self.per_type.clone(),
        }
    }

    /// Snapshot the run's phase-timing profile (meaningful after a run with
    /// [`enable_profiling`](Self::enable_profiling); all phase timers are
    /// zero otherwise). Phase seconds are whole-run estimates: the sampled
    /// sums scaled by the fraction of cycles sampled. Includes a fresh
    /// peak-RSS probe.
    pub fn profile(&self) -> EngineProfile {
        let scale = |sampled_secs: f64, sampled: u64, total: u64| {
            if sampled == 0 {
                0.0
            } else {
                sampled_secs * total as f64 / sampled as f64
            }
        };
        EngineProfile {
            events_processed: self.events_processed,
            events_scheduled: self.queue.scheduled(),
            pop_secs: scale(self.pop_secs, self.timed_events, self.events_processed),
            dispatch_secs: scale(self.dispatch_secs, self.timed_events, self.events_processed),
            sched_secs: scale(
                self.queue.sched_secs(),
                self.queue.timed_pushes(),
                self.queue.scheduled(),
            ),
            wall_secs: self.wall_secs,
            queue_high_water: self.queue.high_water(),
            queue_capacity: self.queue.capacity(),
            per_type: self.per_type.clone(),
            peak_rss_bytes: crate::profile::peak_rss_bytes(),
            rounds: 0,
            shards: Vec::new(),
        }
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for setup and post-run inspection).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine and return the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule an event from outside the model (setup code, drivers).
    pub fn schedule(&mut self, at: SimTime, event: M::Event) {
        self.queue.schedule(at, event);
    }

    /// Access the queue directly (e.g. to seed many initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Process a single event, if one exists at or before `horizon`.
    pub fn step(&mut self, horizon: SimTime) -> StepResult {
        let sample = self.profiling && self.events_processed & PROFILE_SAMPLE_MASK == 0;
        let t0 = sample.then(std::time::Instant::now);
        match self.queue.pop_at_most(horizon) {
            PopNext::Empty => StepResult::Exhausted,
            PopNext::Beyond => StepResult::HorizonReached,
            PopNext::Event(sched) => {
                if self.telemetry {
                    let label = M::event_label(&sched.event);
                    match self.per_type.iter_mut().find(|(l, _)| *l == label) {
                        Some((_, n)) => *n += 1,
                        None => self.per_type.push((label, 1)),
                    }
                }
                let t1 = sample.then(std::time::Instant::now);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    self.pop_secs += (t1 - t0).as_secs_f64();
                }
                self.model.handle(sched.at, sched.event, &mut self.queue);
                if let Some(t1) = t1 {
                    self.dispatch_secs += t1.elapsed().as_secs_f64();
                    self.timed_events += 1;
                }
                self.events_processed += 1;
                StepResult::Progressed
            }
        }
    }

    /// Run until the queue empties or the clock would pass `until`.
    ///
    /// On return the clock is `min(until, time of last processed event)`; if
    /// the horizon stopped the run, the clock is advanced to `until` so that
    /// subsequent scheduling is relative to the horizon.
    pub fn run_until(&mut self, until: SimTime) {
        let started = std::time::Instant::now();
        loop {
            match self.step(until) {
                StepResult::Progressed => continue,
                StepResult::Exhausted => {
                    self.wall_secs += started.elapsed().as_secs_f64();
                    return;
                }
                StepResult::HorizonReached => break,
            }
        }
        self.wall_secs += started.elapsed().as_secs_f64();
        // Events remain beyond the horizon: advance the clock to the horizon
        // so that subsequent external scheduling is relative to it.
        self.queue.advance_to(until);
    }

    /// Run to quiescence (empty queue). Guards against runaway models with an
    /// event budget; panics if exceeded.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        let started = std::time::Instant::now();
        let start = self.events_processed;
        while let StepResult::Progressed = self.step(SimTime::MAX) {
            assert!(
                self.events_processed - start <= max_events,
                "simulation exceeded event budget of {max_events}"
            );
        }
        self.wall_secs += started.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    /// A toy model that records the order events arrive in.
    struct Recorder {
        seen: Vec<(u64, u32)>,
        chain_remaining: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Tag(u32),
        Chain,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Tag(id) => self.seen.push((now.as_micros(), id)),
                Ev::Chain => {
                    self.seen.push((now.as_micros(), 999));
                    if self.chain_remaining > 0 {
                        self.chain_remaining -= 1;
                        queue.schedule_after(SimTime::from_micros(10), Ev::Chain);
                    }
                }
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        engine_sized(16)
    }

    fn engine_sized(capacity: usize) -> Engine<Recorder> {
        Engine::with_capacity(
            Recorder {
                seen: Vec::new(),
                chain_remaining: 0,
            },
            capacity,
        )
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut e = engine();
        e.schedule(SimTime::from_micros(30), Ev::Tag(3));
        e.schedule(SimTime::from_micros(10), Ev::Tag(1));
        e.schedule(SimTime::from_micros(20), Ev::Tag(2));
        e.run_until(SimTime::MAX);
        assert_eq!(e.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut e = engine();
        for id in 0..100 {
            e.schedule(SimTime::from_micros(5), Ev::Tag(id));
        }
        e.run_until(SimTime::MAX);
        let ids: Vec<u32> = e.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut e = engine();
        e.schedule(SimTime::from_micros(10), Ev::Tag(1));
        e.schedule(SimTime::from_micros(100), Ev::Tag(2));
        e.run_until(SimTime::from_micros(50));
        assert_eq!(e.model().seen, vec![(10, 1)]);
        assert_eq!(e.now(), SimTime::from_micros(50));
        // The future event is still pending and runs on the next call.
        e.run_until(SimTime::MAX);
        assert_eq!(e.model().seen.len(), 2);
    }

    #[test]
    fn chained_scheduling_from_inside_handle() {
        let mut e = engine();
        e.model_mut().chain_remaining = 5;
        e.schedule(SimTime::from_micros(0), Ev::Chain);
        e.run_until(SimTime::MAX);
        assert_eq!(e.model().seen.len(), 6);
        assert_eq!(e.now(), SimTime::from_micros(50));
        assert_eq!(e.events_processed(), 6);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        struct M {
            order: Vec<u32>,
        }
        enum E2 {
            First,
            Second,
            Injected,
        }
        impl Model for M {
            type Event = E2;
            fn handle(&mut self, _now: SimTime, ev: E2, q: &mut EventQueue<E2>) {
                match ev {
                    E2::First => {
                        self.order.push(1);
                        q.schedule_now(E2::Injected);
                    }
                    E2::Second => self.order.push(2),
                    E2::Injected => self.order.push(3),
                }
            }
        }
        let mut e = Engine::new(M { order: vec![] });
        e.schedule(SimTime::ZERO, E2::First);
        e.schedule(SimTime::ZERO, E2::Second);
        e.run_until(SimTime::MAX);
        // Injected runs after Second (FIFO at the same instant), not before.
        assert_eq!(e.model().order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = engine();
        e.schedule(SimTime::from_micros(10), Ev::Tag(1));
        e.run_until(SimTime::MAX);
        e.schedule(SimTime::from_micros(5), Ev::Tag(2));
    }

    #[test]
    fn run_to_quiescence_respects_budget() {
        let mut e = engine();
        e.model_mut().chain_remaining = 1000;
        e.schedule(SimTime::ZERO, Ev::Chain);
        e.run_to_quiescence(2000);
        assert_eq!(e.model().seen.len(), 1001);
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn run_to_quiescence_panics_over_budget() {
        let mut e = engine();
        e.model_mut().chain_remaining = 1000;
        e.schedule(SimTime::ZERO, Ev::Chain);
        e.run_to_quiescence(10);
    }

    #[test]
    fn telemetry_counts_event_types_and_high_water() {
        struct Labeled {
            chain_remaining: u32,
        }
        enum E3 {
            Ping,
            Pong,
        }
        impl Model for Labeled {
            type Event = E3;
            fn handle(&mut self, _now: SimTime, ev: E3, q: &mut EventQueue<E3>) {
                if let E3::Ping = ev {
                    if self.chain_remaining > 0 {
                        self.chain_remaining -= 1;
                        q.schedule_after(SimTime::from_micros(1), E3::Pong);
                        q.schedule_after(SimTime::from_micros(2), E3::Ping);
                    }
                }
            }
            fn event_label(ev: &E3) -> &'static str {
                match ev {
                    E3::Ping => "ping",
                    E3::Pong => "pong",
                }
            }
        }
        let mut e = Engine::new(Labeled { chain_remaining: 5 });
        e.enable_telemetry();
        e.schedule(SimTime::ZERO, E3::Ping);
        e.run_until(SimTime::MAX);
        let stats = e.stats();
        assert_eq!(stats.events_processed, 11);
        assert!(stats.queue_high_water >= 2, "{}", stats.queue_high_water);
        let get = |l: &str| {
            stats
                .per_type
                .iter()
                .find(|(n, _)| *n == l)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(get("ping"), 6);
        assert_eq!(get("pong"), 5);
        assert!(stats.wall_secs >= 0.0);
    }

    #[test]
    fn profiling_times_phases_without_changing_results() {
        let run = |profiled: bool| {
            let mut e = engine();
            e.model_mut().chain_remaining = 200;
            if profiled {
                e.enable_profiling();
            }
            e.schedule(SimTime::ZERO, Ev::Chain);
            e.schedule(SimTime::from_micros(5), Ev::Tag(7));
            e.run_until(SimTime::MAX);
            let profile = e.profile();
            (e.into_model().seen, profile)
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
    fn telemetry_off_collects_no_per_type_counts() {
        let mut e = engine();
        e.schedule(SimTime::from_micros(1), Ev::Tag(1));
        e.run_until(SimTime::MAX);
        assert!(e.stats().per_type.is_empty());
        assert_eq!(e.stats().events_processed, 1);
    }

    #[test]
    fn queue_capacity_does_not_change_results() {
        let mut small = engine_sized(1);
        let mut big = engine_sized(4096);
        for e in [&mut small, &mut big] {
            for id in 0..50 {
                e.schedule(SimTime::from_micros(100 - id as u64), Ev::Tag(id));
            }
            e.run_until(SimTime::MAX);
        }
        assert_eq!(small.model().seen, big.model().seen);
        assert_eq!(small.stats().queue_high_water, 50);
        assert_eq!(big.stats().queue_high_water, 50);
    }

    #[test]
    fn queue_introspection() {
        let mut e = engine();
        assert!(e.queue_mut().is_empty());
        e.schedule(SimTime::from_micros(7), Ev::Tag(0));
        assert_eq!(e.queue_mut().len(), 1);
        assert_eq!(e.queue_mut().peek_time(), Some(SimTime::from_micros(7)));
    }

    /// Staged arrivals flow through a full engine run exactly like pushed
    /// ones: identical event history, counters, and telemetry.
    #[test]
    fn staged_arrivals_run_bit_identically_to_pushed_ones() {
        let run = |stage: bool| {
            let mut e = engine();
            e.model_mut().chain_remaining = 40;
            let arrivals = [(70u64, 0u32), (10, 1), (10, 2), (35, 3), (0, 4)];
            for &(at, id) in &arrivals {
                if stage {
                    e.queue_mut().stage(SimTime::from_micros(at), Ev::Tag(id));
                } else {
                    e.schedule(SimTime::from_micros(at), Ev::Tag(id));
                }
            }
            // A chain pushed normally, interleaving with staged arrivals.
            e.schedule(SimTime::ZERO, Ev::Chain);
            e.run_until(SimTime::MAX);
            (
                e.model().seen.clone(),
                e.events_processed(),
                e.stats().queue_high_water,
            )
        };
        assert_eq!(run(true), run(false));
    }
}
