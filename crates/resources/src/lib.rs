//! # resources — hardware and soft resource models
//!
//! The paper's central distinction is between *hardware resources* (CPU,
//! memory, disk, network — things that do work) and *soft resources* (threads,
//! connections, locks — things that **synchronize access** to work). This
//! crate models both:
//!
//! * [`PsCpu`] — a multi-core **processor-sharing** CPU using the classic
//!   virtual-time formulation (O(log n) per event), with a rate-freeze hook so
//!   a JVM garbage-collection model can stop the world, and a configurable
//!   per-excess-job overhead that models context-switch/scheduling cost of
//!   large thread pools.
//! * [`FcfsServer`] — a first-come-first-served single server (disk head,
//!   serialized log, …) with exact closed-form completion times.
//! * [`SoftPool`] — a counted resource pool (worker threads, DB connections)
//!   with FIFO waiting, wait-time accounting, occupancy tracking, and the
//!   saturation statistics that the paper's allocation algorithm consumes.
//!
//! All resources are *passive*: they never own the event queue. The server
//! models in the `tiers` crate drive them and schedule the events they derive.

pub mod cpu;
pub mod fcfs;
pub mod pool;

pub use cpu::{CpuConfig, CpuWindows, PsCpu};
pub use fcfs::FcfsServer;
pub use pool::{Acquire, PoolStats, PoolWindows, SoftPool};

/// Identifier for a job inside a resource. The caller owns the namespace.
pub type JobId = u64;
