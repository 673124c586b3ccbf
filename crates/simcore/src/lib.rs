//! # simcore — discrete-event simulation substrate
//!
//! This crate is the foundation of the n-tier application simulator used to
//! reproduce *"The Impact of Soft Resource Allocation on n-Tier Application
//! Scalability"* (IPDPS 2011). It provides:
//!
//! * [`SimTime`] — simulated time as integer microseconds (cheap, total-ordered,
//!   no floating-point drift in the event queue).
//! * [`ShardedEngine`] / [`ShardModel`] / [`ShardIo`] — the event-list
//!   simulator. Each shard of a model is a plain `&mut` state machine, events
//!   are a user-defined enum, and every shard pops its events in `(time,
//!   key)` order, where the key is the scheduling shard's insertion counter.
//!   One shard is the serial simulator; more shards run in lookahead-bounded
//!   barrier rounds ([`shard`]). No `Rc`, no `RefCell`, no dynamic dispatch
//!   on the hot path. Each future-event list is a calendar queue (the
//!   crate-private `queue` module), checked against a binary-heap oracle.
//! * [`rng`] — deterministic, forkable random-number streams so that every
//!   experiment is exactly reproducible and parallel parameter sweeps are
//!   independent of scheduling order.
//! * [`stats`] — streaming statistics: Welford accumulators, a logarithmic
//!   histogram with quantiles, time-weighted integrals (for utilization),
//!   and per-interval series (the "SysStat at one second granularity" of
//!   the paper).
//!
//! The engine is deliberately minimal: all domain behaviour (CPUs, pools,
//! servers, clients) lives in the crates layered on top.

pub mod profile;
mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod testkit;
pub mod time;

pub use profile::{peak_rss_bytes, EngineProfile, EngineStats, ShardLoad};
pub use rng::RunRng;
pub use shard::{shard_key, ShardIo, ShardModel, ShardedEngine, SHARD_KEY_BITS};
pub use time::SimTime;
