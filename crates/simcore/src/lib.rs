//! # simcore — discrete-event simulation substrate
//!
//! This crate is the foundation of the n-tier application simulator used to
//! reproduce *"The Impact of Soft Resource Allocation on n-Tier Application
//! Scalability"* (IPDPS 2011). It provides:
//!
//! * [`SimTime`] — simulated time as integer microseconds (cheap, total-ordered,
//!   no floating-point drift in the event queue).
//! * [`Engine`] / [`EventQueue`] / [`Model`] — a classic event-list simulator:
//!   the model is a plain `&mut` state machine, events are a user-defined enum,
//!   and the engine pops events in `(time, insertion-order)` order. No `Rc`,
//!   no `RefCell`, no dynamic dispatch on the hot path. The future-event list
//!   is a calendar queue ([`queue`]), checked against a binary-heap oracle.
//! * [`rng`] — deterministic, forkable random-number streams so that every
//!   experiment is exactly reproducible and parallel parameter sweeps are
//!   independent of scheduling order.
//! * [`stats`] — streaming statistics: Welford accumulators, fixed and
//!   logarithmic histograms with quantiles, time-weighted integrals (for
//!   utilization), and per-interval series (the "SysStat at one second
//!   granularity" of the paper).
//!
//! The engine is deliberately minimal: all domain behaviour (CPUs, pools,
//! servers, clients) lives in the crates layered on top.

pub mod engine;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod testkit;
pub mod time;

pub use engine::{Engine, EngineStats, Model, StepResult};
pub use profile::{peak_rss_bytes, EngineProfile, ShardLoad};
pub use queue::{EventQueue, Scheduled};
pub use rng::RunRng;
pub use shard::{shard_key, ShardIo, ShardModel, ShardedEngine, SHARD_KEY_BITS};
pub use time::SimTime;
