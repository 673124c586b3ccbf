//! Shard-aware event dispatch: the [`simcore::ShardModel`] face of
//! [`System`].
//!
//! This module is the seam between the tier chain and the sharded engine
//! (DESIGN.md §15). It owns three things:
//!
//! * [`ShardLayout`] — the topology-fixed assignment of tiers (and their
//!   replica nodes) to shards. The layout depends *only* on the topology and
//!   the service parameters; the engine merges the shards' events in exact
//!   `(time, key)` order.
//! * [`SimQueue`] — the facade handlers schedule through. It routes every
//!   event to its owning shard by payload (a `Tier(t, …)` message goes to
//!   `shard_of_tier[t]`, client/timer events to the front shard, node-local
//!   machinery to `shard_of_node`), so handler code never mentions shards.
//! * The [`ShardModel`] impl — the thin match that dispatches events into
//!   `Ctx`/tier-node handlers and ingests cross-shard observations (spans
//!   and GC windows feeding the front shard's flight recorder).
//!
//! The cross-shard *lookahead* is `ServiceParams::hop(300)`: the smallest
//! delivery delay any cross-tier message can have. Every `QueryArrive`/
//! `QueryReply`/`QueryDone`/`ReqArrive` is scheduled at least one such hop
//! in the future, so no shard can still emit an observation stamped more
//! than `lookahead` before the event being handled — the rule that lets
//! observations be delivered late but in a fixed order. A zero-latency
//! configuration has zero lookahead and collapses to one shard (the engine
//! refuses a multi-shard zero-lookahead layout).

use super::{Ctx, Ev, System, TierMsg};
use crate::config::ServiceParams;
use crate::ids::{Tier, Token};
use crate::tier_nodes::TierNode;
use crate::topology::Topology;
use ntier_trace::Span;
use simcore::{ShardIo, ShardModel, SimTime};

/// A passive observation crossing from a back shard to the front shard's
/// flight recorder. Observations ride the engine's dedicated channel: they
/// carry their own key counter, so emitting them never perturbs event
/// ordering, and they are ingested in deterministic `(time, key)` order
/// under the lookahead delay rule.
#[derive(Debug, Clone, Copy)]
pub enum ObsMsg {
    /// A request-level span recorded on a back shard.
    Span(Span),
    /// A stop-the-world GC window on a back-shard node.
    Gc {
        /// Track (server name) the pause happened on.
        track: &'static str,
        /// Pause start.
        start: SimTime,
        /// Pause end.
        end: SimTime,
    },
}

/// The topology-fixed shard layout: which shard owns each tier and node,
/// and the cross-shard lookahead of the observation delivery rule.
///
/// Tiers are assigned whole, in chain order: the front shard (0) owns every
/// request-carrying tier (web + app — they exchange sub-hop pool/CPU events
/// and the client loop), and each query tier (middleware, database) gets its
/// own shard. Replicas of one tier are contiguous in the flat node vector,
/// so each shard owns a contiguous node range.
#[derive(Debug, Clone)]
pub(crate) struct ShardLayout {
    /// Tier id → owning shard.
    pub shard_of_tier: Vec<usize>,
    /// Flat node index → owning shard.
    pub shard_of_node: Vec<usize>,
    /// Minimum cross-shard event delay (`ServiceParams::hop(300)`).
    pub lookahead: SimTime,
}

impl ShardLayout {
    /// Cut `topo` into shards. A zero lookahead (zero net latency) admits no
    /// concurrency and collapses everything onto shard 0.
    pub fn new(topo: &Topology, params: &ServiceParams) -> Self {
        let lookahead = params.hop(300);
        let mut shard_of_tier = Vec::with_capacity(topo.tiers.len());
        let mut shard_of_node = Vec::new();
        let mut next = 0usize;
        for spec in &topo.tiers {
            let s = if lookahead == SimTime::ZERO {
                0
            } else {
                match spec.role {
                    Tier::Web | Tier::App => 0,
                    Tier::Cmw | Tier::Db => {
                        next += 1;
                        next
                    }
                }
            };
            shard_of_tier.push(s);
            for _ in 0..spec.replicas {
                shard_of_node.push(s);
            }
        }
        ShardLayout {
            shard_of_tier,
            shard_of_node,
            lookahead,
        }
    }

    /// Number of shards in the layout (≥ 1).
    pub fn n_shards(&self) -> usize {
        self.shard_of_tier.iter().copied().max().unwrap_or(0) + 1
    }

    /// The shard that must process `ev`. Client machinery (think loop,
    /// responses, timers) lives on the front shard; tier messages go to the
    /// tier's owner; node machinery (CPU checks, GC, crash windows) to the
    /// node's owner; monitoring events are per-shard and stay local.
    pub fn dest_shard(&self, ev: &Ev, from: usize) -> usize {
        match *ev {
            Ev::Tier(t, _) => self.shard_of_tier[t as usize],
            Ev::ThinkDone(_)
            | Ev::ResponseToClient(_)
            | Ev::Reissue(_)
            | Ev::ReqTimeout { .. }
            | Ev::HedgeFire { .. } => 0,
            Ev::CpuCheck { node, .. }
            | Ev::GcEnd { node }
            | Ev::Crash { node }
            | Ev::Recover { node } => self.shard_of_node[node as usize],
            Ev::Sample | Ev::BeginMeasure | Ev::EndMeasure => from,
        }
    }
}

/// The scheduling facade handlers see: shard-routing [`ShardIo`] wrapper.
///
/// Handlers call `schedule`/`schedule_now` without naming a shard; the
/// facade looks up the destination shard from the event payload and sends
/// the event there (a send to the current shard is a local schedule).
pub(crate) struct SimQueue<'a, 'b> {
    pub io: &'a mut ShardIo<'b, Ev, ObsMsg>,
    pub layout: &'a ShardLayout,
}

impl SimQueue<'_, '_> {
    /// Schedule `ev` at absolute time `at` on whichever shard owns it.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, ev: Ev) {
        let dest = self.layout.dest_shard(&ev, self.io.shard());
        self.io.send(dest, at, ev);
    }

    /// Schedule `ev` at the current instant (always shard-local: every
    /// same-instant event in the model addresses state the current shard
    /// owns — cross-shard messages ride a network hop by construction).
    #[inline]
    pub fn schedule_now(&mut self, ev: Ev) {
        let now = self.io.now();
        self.schedule(now, ev);
    }

    /// Forward a passive observation to the front shard's flight recorder,
    /// stamped with the current instant.
    #[inline]
    pub fn observe_front(&mut self, obs: ObsMsg) {
        let now = self.io.now();
        self.io.observe(0, now, obs);
    }
}

/// Pop due CPU completions for node `ni` and hand each to its tier handler.
/// Stale generations (the population changed since scheduling) no-op.
fn on_cpu_check(
    ctx: &mut Ctx,
    tiers: &[Box<dyn TierNode>],
    ni: usize,
    gen: u32,
    now: SimTime,
    q: &mut SimQueue<'_, '_>,
) {
    if ctx.nodes[ni].cpu_gen != gen {
        return; // stale
    }
    let mut done = std::mem::take(&mut ctx.scratch_jobs);
    ctx.nodes[ni].cpu.pop_due_into(now, &mut done);
    ctx.sync_jvm_active(ni);
    let (t, _) = ctx.node_tier[ni];
    for job in done.drain(..) {
        tiers[t].cpu_done(Token::decode(job), ni, now, ctx, q);
    }
    ctx.scratch_jobs = done;
    ctx.reschedule_cpu(ni, now, q);
}

impl ShardModel for System {
    type Event = Ev;
    type Obs = ObsMsg;

    fn handle(&mut self, now: SimTime, event: Ev, io: &mut ShardIo<'_, Ev, ObsMsg>) {
        let System { ctx, tiers, layout } = self;
        let q = &mut SimQueue {
            io,
            layout: &*layout,
        };
        match event {
            Ev::ThinkDone(s) => ctx.on_think_done(s, now, q),
            Ev::Tier(t, msg) => tiers[t as usize].handle(msg, now, ctx, q),
            Ev::ResponseToClient(r) => ctx.on_response_to_client(r, now, q),
            Ev::CpuCheck { node, gen } => on_cpu_check(ctx, tiers, node as usize, gen, now, q),
            Ev::GcEnd { node } => ctx.on_gc_end(node as usize, now, q),
            Ev::Sample => ctx.on_sample(now, q),
            Ev::BeginMeasure => ctx.on_begin_measure(now, q),
            Ev::EndMeasure => ctx.on_end_measure(now),
            Ev::ReqTimeout { r, seq } => ctx.on_req_timeout(r, seq, now, q),
            Ev::Reissue(s) => ctx.on_reissue(s, now, q),
            // Crash/Recover windows are seeded to *every* shard: the owner
            // runs the full crash path (CPU abort, failure wires, crash
            // span); every other shard only flips the replicated liveness
            // bit so its sender-side routing skips the downed replica.
            Ev::Crash { node } => {
                if layout.shard_of_node[node as usize] == ctx.shard {
                    ctx.on_crash(node as usize, now, q);
                } else {
                    ctx.nodes[node as usize].up = false;
                }
            }
            Ev::Recover { node } => ctx.nodes[node as usize].up = true,
            Ev::HedgeFire { r, seq } => ctx.on_hedge_fire(r, seq, now, q),
        }
    }

    fn ingest(&mut self, _at: SimTime, obs: ObsMsg) {
        // Observations only target the front shard; a run without a flight
        // recorder never emits any.
        let Some(f) = self.ctx.flight.as_mut() else {
            return;
        };
        match obs {
            ObsMsg::Span(span) => f.observe(span),
            ObsMsg::Gc { track, start, end } => f.observe_gc(track, start, end),
        }
    }

    fn event_label(event: &Ev) -> &'static str {
        match event {
            Ev::ThinkDone(_) => "think-done",
            Ev::Tier(_, msg) => match msg {
                TierMsg::ReqArrive(_) => "req-arrive",
                TierMsg::PoolGranted(_) => "pool-granted",
                TierMsg::ConnGranted(_) => "conn-granted",
                TierMsg::ReqReply(_) => "req-reply",
                TierMsg::LingerDone(_) => "linger-done",
                TierMsg::QueryArrive(..) => "query-arrive",
                TierMsg::DiskDone(..) => "disk-done",
                TierMsg::QueryReply(_) => "query-reply",
                TierMsg::QueryDone(_) => "query-done",
            },
            Ev::ResponseToClient(_) => "response-to-client",
            Ev::CpuCheck { .. } => "cpu-check",
            Ev::GcEnd { .. } => "gc-end",
            Ev::Sample => "sample",
            Ev::BeginMeasure => "begin-measure",
            Ev::EndMeasure => "end-measure",
            Ev::ReqTimeout { .. } => "req-timeout",
            Ev::Reissue(_) => "reissue",
            Ev::Crash { .. } => "crash",
            Ev::Recover { .. } => "recover",
            Ev::HedgeFire { .. } => "hedge-fire",
        }
    }
}
