//! The n-tier system model: typed message dispatch and request plumbing.
//!
//! One [`System`] is one *shard* of one trial: a slice of the tier chain
//! assembled from a [`crate::topology::Topology`], driven by the
//! sharded engine ([`simcore::ShardedEngine`]; DESIGN.md §15). The
//! front shard additionally owns the closed-loop client population. Each
//! tier node (see `tier_nodes.rs`) handles the typed [`TierMsg`]s addressed
//! to it; the [`simcore::ShardModel`] implementation (see `system/dispatch.rs`)
//! is only a thin dispatcher that routes `Ev::Tier(id, msg)` to `tiers[id]`
//! plus the tier-independent machinery (client think loop, CPU completion
//! checks, GC, monitoring). CPU completions use a generation-guarded check
//! event so each CPU keeps at most one live completion event regardless of
//! how often its population changes.

use crate::config::{MixKind, SystemConfig};
use crate::fault::{FaultSpec, Outcome, OutcomeTotals, ShedPolicy, TopologyError};
use crate::ids::{QueryId, ReqId, Tier, Token};
use crate::nodes::{ApacheProbe, Node};
use crate::output::{ApacheProbes, NodeReport, RunOutput, Telemetry};
use crate::request::{QueryDoneWire, QueryPhase, QueryReplyWire, QueryWire, ReqPhase, Request};
use crate::resilience::{BreakerState, HedgeSpec};
use crate::slab::Slab;
use crate::tier_nodes::{make_tier, TierNode};
use crate::topology::{SelectPolicy, TierId, MAX_TIERS};
use metrics::{FailureKind, MetricsRegistry, RunMetrics, SlaModel};
use ntier_trace::{
    CompletionOutcome, FlightRecorder, Span, TraceId, Tracer, TrackRole, TrackRoles, ENGINE_TRACE,
};
use resources::JobId;
use simcore::{RunRng, SimTime};
use workload::{InteractionCatalog, InteractionId, Mix, RetryBucket, SessionModel, SessionStore};

mod dispatch;
pub(crate) use dispatch::{ObsMsg, ShardLayout, SimQueue};

/// A typed message addressed to one tier of the chain.
#[derive(Debug, Clone, Copy)]
pub enum TierMsg {
    /// An HTTP request arrives at the tier.
    ReqArrive(ReqId),
    /// A queued request is granted a worker/servlet thread.
    PoolGranted(ReqId),
    /// A queued request is granted a DB connection.
    ConnGranted(ReqId),
    /// The downstream tier's response to a request reaches this tier.
    ReqReply(ReqId),
    /// The worker's lingering close completed.
    LingerDone(ReqId),
    /// A SQL query arrives at replica `1` of the tier. The payload is a
    /// self-contained wire record ([`QueryWire`]) because the sender's slab
    /// may live on another shard.
    QueryArrive(QueryWire, u16),
    /// Disk access for the query finished on replica `1` (always
    /// shard-local: the disk belongs to the node executing the query).
    DiskDone(QueryId, u16),
    /// A downstream reply for the query reaches this tier (cross-shard wire;
    /// `dst_qid` addresses the receiving tier's own slab).
    QueryReply(QueryReplyWire),
    /// The fully-assembled query result reaches this tier (cross-shard wire).
    QueryDone(QueryDoneWire),
}

/// The event alphabet of the n-tier model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A session finished thinking and issues its next interaction.
    ThinkDone(u32),
    /// A typed message for tier `0` of the chain.
    Tier(u8, TierMsg),
    /// The response reaches the client.
    ResponseToClient(ReqId),
    /// Generation-guarded CPU completion check for node `node`.
    CpuCheck {
        /// Flat node index.
        node: u16,
        /// Generation at scheduling time; stale if it no longer matches.
        gen: u32,
    },
    /// End of a stop-the-world GC pause on node `node`.
    GcEnd {
        /// Flat node index.
        node: u16,
    },
    /// 1 s monitoring tick.
    Sample,
    /// Open the measurement window.
    BeginMeasure,
    /// Close the measurement window and snapshot reports.
    EndMeasure,
    /// A per-tier deadline fired for request `r`; stale (and ignored) unless
    /// the request still exists and its armed sequence number matches.
    ReqTimeout {
        /// The request the deadline was armed for.
        r: ReqId,
        /// Sequence number at arming time.
        seq: u32,
    },
    /// A client session re-issues its failed interaction (retry policy).
    Reissue(u32),
    /// Scheduled replica crash ([`crate::fault::CrashWindow`]).
    Crash {
        /// Flat node index.
        node: u16,
    },
    /// Scheduled replica recovery.
    Recover {
        /// Flat node index.
        node: u16,
    },
    /// The front tier's hedge delay elapsed for request `r`; stale (and
    /// ignored) unless the request still exists, its armed hedge sequence
    /// matches, and it is still queued for an app-tier thread.
    HedgeFire {
        /// The request the hedge was armed for.
        r: ReqId,
        /// Sequence number at arming time.
        seq: u32,
    },
}

/// Where one tier sits in the chain: its role, replica range in the flat
/// node vector, and routing policy.
#[derive(Debug, Clone)]
pub(crate) struct TierLink {
    /// Role archetype.
    pub role: Tier,
    /// Display name (trace track).
    pub name: &'static str,
    /// Flat node index of replica 0.
    pub base: usize,
    /// Replica count.
    pub replicas: usize,
    /// Replica-selection policy for messages sent *to* this tier.
    pub select: SelectPolicy,
    /// Upstream tier (None for the front tier).
    pub up: Option<TierId>,
    /// Downstream tier (None for the back tier).
    pub down: Option<TierId>,
    /// Whether this tier's workers linger on close.
    pub linger: bool,
    /// Request deadline armed when a request enters this tier.
    pub timeout: Option<SimTime>,
    /// Admission control (meaningful only on the front tier).
    pub shed: ShedPolicy,
    /// Hedged-request policy (meaningful only on the front tier).
    pub hedge: Option<HedgeSpec>,
}

/// Mutable routing state per tier.
#[derive(Debug, Clone)]
pub(crate) struct RouteState {
    /// Round-robin cursor.
    pub rr: usize,
    /// Outstanding jobs per replica (maintained only under
    /// [`SelectPolicy::LeastOutstanding`]).
    pub outstanding: Vec<u32>,
}

/// Shared simulation state every tier node operates on: configuration,
/// sessions, the flat node vector, in-flight request/query slabs, RNG
/// streams, telemetry, and the chain links/routing tables.
///
/// Every shard of a sharded run carries a full `Ctx` (the static tables are
/// cheap and keeping indices global avoids a translation layer), but each
/// shard only *mutates* state it owns: its `owned` node range, its own
/// query slab, and — on the front shard — the sessions, requests, probes,
/// client telemetry, and flight recorder.
pub(crate) struct Ctx {
    pub cfg: SystemConfig,
    /// This context's shard index in the [`ShardLayout`] (0 = front).
    pub shard: usize,
    /// Contiguous flat-node range owned by this shard (tiers are assigned
    /// whole; replicas of one tier are contiguous in `nodes`).
    pub owned: std::ops::Range<usize>,
    /// This back shard must forward its spans/GC observations to the front
    /// shard's flight recorder (set when the run has one; always false on
    /// the front shard, which feeds its recorder directly).
    pub forward_obs: bool,
    pub catalog: InteractionCatalog,
    pub mix: Mix,
    /// Compact per-session state, materialized lazily in chunks as sessions
    /// are first touched (a 1M-user run no longer builds a million session
    /// objects before the first event fires).
    pub sessions: SessionStore,
    pub nodes: Vec<Node>,
    /// Chain links (index = tier id).
    pub links: Vec<TierLink>,
    /// Routing state (index = tier id).
    pub route: Vec<RouteState>,
    /// Flat node index → (tier id, replica).
    pub node_tier: Vec<(TierId, u16)>,
    /// Tier ids that request routing is decided for at birth (web/app roles,
    /// chain order).
    pub req_tiers: Vec<TierId>,
    pub requests: Slab<Request>,
    pub queries: Slab<crate::request::Query>,
    pub rng_demand: RunRng,
    pub rng_linger: RunRng,
    pub rng_route: RunRng,
    /// Dedicated stream for fault injection (connection drops). Forked
    /// unconditionally — forking never mutates the root — but only *drawn*
    /// from when a non-zero drop probability is configured, so a faults-off
    /// run consumes exactly the same random numbers as before the fault
    /// layer existed.
    pub rng_faults: RunRng,
    /// Per-tier fault specs (index = tier id).
    pub faults: Vec<FaultSpec>,
    /// Per-tier circuit breakers (index = tier id; `None` = no breaker, one
    /// `Option` branch per guarded call and nothing else).
    pub breakers: Vec<Option<BreakerState>>,
    /// Fleet-wide retry-budget token bucket (zero tokens and zero arithmetic
    /// when the budget is disabled).
    pub retry_bucket: RetryBucket,
    /// Monotone deadline-timer sequence (0 is reserved for "disarmed").
    pub timeout_seq: u32,
    /// Per-session (interaction, attempt) to re-issue when `Ev::Reissue`
    /// fires; meaningful only while a reissue is scheduled. Interaction ids
    /// are stored compactly as `u16` (the catalog is far smaller than that);
    /// at 1M sessions this table is 4 MB instead of 16.
    pub retry_pending: Vec<(u16, u8)>,
    /// Reusable scratch for CPU completion/abort collection; always empty
    /// between events. Kills the per-`CpuCheck` vector allocation — the
    /// single most frequent event kind under load.
    pub scratch_jobs: Vec<JobId>,
    /// Full-trial terminal outcomes and retry count (not window-scoped;
    /// the measurement-window view lives in [`Telemetry`]).
    pub outcomes: OutcomeTotals,
    pub telemetry: Telemetry,
    /// Windowed client-side metrics, present only when
    /// [`SystemConfig::metrics`] is enabled. Write-only during the run —
    /// nothing in the simulation reads it back, so it cannot perturb
    /// event order or RNG draws.
    pub metrics: Option<Box<MetricsRegistry>>,
    /// The finished windowed series, snapshotted by `EndMeasure`.
    pub metrics_out: Option<Box<RunMetrics>>,
    pub probes: Vec<ApacheProbe>,
    pub tracer: Option<Tracer>,
    /// Tail-sampling flight recorder, armed only when both tracing and
    /// [`SystemConfig::flight`] are enabled. Write-only during the run
    /// (same passivity discipline as `metrics`): it consumes the same spans
    /// the tracer records, draws no randomness, and schedules no events.
    pub flight: Option<Box<FlightRecorder>>,
    pub next_trace: TraceId,
    pub measuring: bool,
    /// When true the closed loop is inert: completed sessions do not think
    /// again, so the event queue drains (conservation testing).
    pub draining: bool,
    pub final_nodes: Vec<NodeReport>,
    pub final_probes: Option<ApacheProbes>,
    pub measure_end: SimTime,
}

impl Ctx {
    fn new(cfg: SystemConfig, shard: usize, layout: &ShardLayout) -> Result<Self, TopologyError> {
        let topo = cfg.effective_topology();
        topo.validate()?;
        let catalog = InteractionCatalog::rubbos();
        let mix = match cfg.mix {
            MixKind::BrowseOnly => Mix::browse_only(&catalog),
            MixKind::ReadWrite => Mix::read_write(&catalog),
        };
        let root = RunRng::new(cfg.seed);
        // Forked streams are order-independent, so the lazily-materialized
        // store draws bit-identically to the eager per-session construction
        // it replaced. Only the front shard runs sessions; back shards carry
        // an empty store (lazy chunks: zero users costs nothing).
        let users_here = if shard == 0 { cfg.workload.users } else { 0 };
        let sessions = SessionStore::new(
            users_here,
            &root,
            SessionModel::Markov,
            cfg.workload.think_time,
        );

        let n_tiers = topo.n_tiers();
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let mut node_tier = Vec::new();
        for (t, spec) in topo.tiers.iter().enumerate() {
            let base = nodes.len();
            for i in 0..spec.replicas {
                nodes.push(Node::from_spec(spec, t, i as u16, &cfg.params)?);
                node_tier.push((t, i as u16));
            }
            links.push(TierLink {
                role: spec.role,
                name: spec.name,
                base,
                replicas: spec.replicas,
                select: spec.select,
                up: t.checked_sub(1),
                down: (t + 1 < n_tiers).then_some(t + 1),
                linger: spec.linger,
                timeout: spec.timeout,
                shed: spec.shed,
                hedge: spec.hedge,
            });
        }
        let faults = topo.tiers.iter().map(|s| s.fault.clone()).collect();
        let breakers = topo
            .tiers
            .iter()
            .map(|s| s.breaker.map(BreakerState::new))
            .collect();
        let route = links
            .iter()
            .map(|l| RouteState {
                rr: 0,
                outstanding: vec![0; l.replicas],
            })
            .collect();
        let req_tiers = links
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.role, Tier::Web | Tier::App))
            .map(|(t, _)| t)
            .collect();

        let sla = SlaModel::new(&cfg.sla_thresholds);
        let origin = cfg.workload.measure_start();
        // The tightest threshold catches SLO deterioration nearest the true
        // saturation onset (what the intervention analysis needs).
        let slo_threshold = *cfg.sla_thresholds.first().expect("non-empty thresholds");
        let telemetry = Telemetry::new(origin, sla.counters(), slo_threshold);
        let metrics = cfg.metrics.window().map(|window| {
            let m = MetricsRegistry::new(window, origin, cfg.workload.runtime, slo_threshold);
            Box::new(match cfg.slo {
                Some(policy) => m.with_slo(policy),
                None => m,
            })
        });
        let probes = if shard == 0 {
            (0..links[0].replicas)
                .map(|_| ApacheProbe::new(origin))
                .collect()
        } else {
            Vec::new()
        };
        let measure_end = cfg.workload.measure_end();
        let tracer = cfg.trace.enabled().then(|| match cfg.trace_capacity {
            Some(cap) => Tracer::with_capacity(cfg.trace, cfg.seed, cap),
            None => Tracer::new(cfg.trace, cfg.seed),
        });
        // The flight recorder needs spans, so it rides on the tracer; its
        // windows align with the metrics cadence when both are configured so
        // exemplars link 1:1 to metric windows.
        let flight = (tracer.is_some() && cfg.flight.enabled())
            .then(|| {
                let mut roles = TrackRoles::new();
                for l in &links {
                    let role = match l.role {
                        Tier::Web => TrackRole::Web,
                        Tier::App => TrackRole::App,
                        Tier::Cmw => TrackRole::Mw,
                        Tier::Db => TrackRole::Db,
                    };
                    roles.insert(l.name, role);
                }
                let fcfg = match cfg.metrics.window() {
                    Some(w) => cfg.flight.with_window(w),
                    None => cfg.flight,
                };
                FlightRecorder::new(fcfg, cfg.seed, origin, roles).map(Box::new)
            })
            .flatten();
        // Back shards feed the front shard's recorder through the engine's
        // observation channel instead of holding one themselves; whether to
        // forward is decided from the same construction the front shard ran,
        // so every shard agrees without communicating.
        let forward_obs = shard != 0 && flight.is_some();
        let flight = if shard == 0 { flight } else { None };

        // Contiguous node range this shard owns (whole tiers, chain order).
        let mut owned = nodes.len()..nodes.len();
        for (ni, &s) in layout.shard_of_node.iter().enumerate() {
            if s == shard {
                if owned.is_empty() {
                    owned.start = ni;
                }
                owned.end = ni + 1;
            }
        }

        // Every shard forks its own RNG streams. The front shard keeps the
        // historical labels; back shards get per-shard suffixed streams, so
        // no draw on one shard can perturb another's sequence.
        let (rng_demand, rng_linger, rng_route, rng_faults) = if shard == 0 {
            (
                root.fork("demand"),
                root.fork("linger"),
                root.fork("route"),
                root.fork("faults"),
            )
        } else {
            (
                root.fork(&format!("demand/s{shard}")),
                root.fork(&format!("linger/s{shard}")),
                root.fork(&format!("route/s{shard}")),
                root.fork(&format!("faults/s{shard}")),
            )
        };

        let users = users_here as usize;
        Ok(Ctx {
            shard,
            owned,
            forward_obs,
            rng_demand,
            rng_linger,
            rng_route,
            rng_faults,
            faults,
            breakers,
            retry_bucket: cfg.retry_budget.bucket(),
            timeout_seq: 0,
            retry_pending: vec![(0u16, 0u8); users],
            scratch_jobs: Vec::new(),
            outcomes: OutcomeTotals::default(),
            cfg,
            catalog,
            mix,
            sessions,
            nodes,
            links,
            route,
            node_tier,
            req_tiers,
            requests: Slab::with_capacity(4096),
            queries: Slab::with_capacity(4096),
            telemetry,
            metrics,
            metrics_out: None,
            probes,
            tracer,
            flight,
            next_trace: ENGINE_TRACE,
            measuring: false,
            draining: false,
            final_nodes: Vec::new(),
            final_probes: None,
            measure_end,
        })
    }

    // ------------------------------------------------------------------
    // helpers shared by every tier node
    // ------------------------------------------------------------------

    /// Lognormal service-time jitter around `mean_ms`, in seconds.
    pub fn jitter_ms(&mut self, mean_ms: f64) -> f64 {
        self.rng_demand
            .lognormal_mean_cv(mean_ms, self.cfg.params.demand_cv)
            / 1e3
    }

    /// One-way hop delay for a message of `bytes` (latency + gigabit
    /// serialization; per-message, uncontended). Delegates to
    /// [`crate::config::ServiceParams::hop`], the same expression the shard
    /// layout derives its lookahead from — no cross-shard event may ever be
    /// scheduled closer than `hop(300)`.
    pub fn hop(&self, bytes: u64) -> SimTime {
        self.cfg.params.hop(bytes)
    }

    /// Pick a replica of tier `t` for a message keyed by `key` (the query id
    /// for hash routing; ignored for round-robin).
    pub fn select_replica(&mut self, t: TierId, key: usize) -> usize {
        let n = self.links[t].replicas;
        match self.links[t].select {
            SelectPolicy::RoundRobin | SelectPolicy::FailFast => {
                let r = self.route[t].rr % n;
                self.route[t].rr += 1;
                r
            }
            SelectPolicy::HashById => key % n,
            SelectPolicy::LeastOutstanding => {
                let r = self.route[t]
                    .outstanding
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &c)| (c, i))
                    .map(|(i, _)| i)
                    .expect("tier has replicas");
                self.route[t].outstanding[r] += 1;
                r
            }
        }
    }

    /// Note a job leaving replica `rep` of tier `t` (no-op unless the tier
    /// routes by least-outstanding).
    pub fn route_departed(&mut self, t: TierId, rep: usize) {
        if self.links[t].select == SelectPolicy::LeastOutstanding {
            let c = &mut self.route[t].outstanding[rep];
            *c = c.saturating_sub(1);
        }
    }

    /// Crash-aware replica selection: when every replica of tier `t` is up
    /// this is exactly [`select_replica`](Self::select_replica) (bit-identical
    /// routing in a healthy run); with replicas down, skipping policies route
    /// around them while [`SelectPolicy::FailFast`] keeps its healthy choice
    /// and lets the down replica reject on arrival. When no healthy replica
    /// exists the natural choice is returned and the arrival-side down check
    /// fails the query — accounting stays uniform either way.
    pub fn select_replica_up(&mut self, t: TierId, key: usize) -> usize {
        let base = self.links[t].base;
        let n = self.links[t].replicas;
        if (0..n).all(|i| self.nodes[base + i].up) {
            return self.select_replica(t, key);
        }
        match self.links[t].select {
            SelectPolicy::RoundRobin => {
                let mut r = self.route[t].rr % n;
                self.route[t].rr += 1;
                for _ in 1..n {
                    if self.nodes[base + r].up {
                        break;
                    }
                    r = self.route[t].rr % n;
                    self.route[t].rr += 1;
                }
                r
            }
            SelectPolicy::FailFast => self.select_replica(t, key),
            SelectPolicy::HashById => {
                let start = key % n;
                (0..n)
                    .map(|i| (start + i) % n)
                    .find(|&r| self.nodes[base + r].up)
                    .unwrap_or(start)
            }
            SelectPolicy::LeastOutstanding => {
                let pick = self.route[t]
                    .outstanding
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| self.nodes[base + i].up)
                    .min_by_key(|&(i, &c)| (c, i))
                    .map(|(i, _)| i);
                match pick {
                    Some(r) => {
                        self.route[t].outstanding[r] += 1;
                        r
                    }
                    None => self.select_replica(t, key),
                }
            }
        }
    }

    /// Arm tier `t`'s request deadline for `r` (no-op without a configured
    /// timeout). Arming overwrites any outer deadline — the innermost armed
    /// deadline is the active one; stale timers no-op on sequence mismatch.
    pub fn arm_timeout(&mut self, r: ReqId, t: TierId, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let Some(deadline) = self.links[t].timeout else {
            return;
        };
        self.timeout_seq += 1;
        let seq = self.timeout_seq;
        self.requests.get_mut(r).timeout_seq = seq;
        q.schedule(now + deadline, Ev::ReqTimeout { r, seq });
    }

    /// Whether tier `t`'s circuit breaker admits a new call at `now`
    /// (always true without a breaker — one `Option` branch, no arithmetic).
    pub fn breaker_admit(&mut self, t: TierId, now: SimTime) -> bool {
        let (ok, transitioned) = match self.breakers[t].as_mut() {
            Some(b) => {
                let before = b.phase();
                let ok = b.admit(now);
                (ok, b.phase() != before)
            }
            None => (true, false),
        };
        if transitioned {
            self.note_breaker_transition(now);
        }
        ok
    }

    /// Record one finished call against tier `t`'s breaker window. Callers
    /// must not report fail-fast rejections here — a breaker fed its own
    /// rejections would latch open.
    pub fn breaker_record(&mut self, t: TierId, now: SimTime, error: bool, latency: SimTime) {
        let transitioned = match self.breakers[t].as_mut() {
            Some(b) => {
                let before = b.phase();
                b.record(now, error, latency);
                b.phase() != before
            }
            None => false,
        };
        if transitioned {
            self.note_breaker_transition(now);
        }
    }

    /// A breaker changed phase (closed↔open↔half-open): surface it in the
    /// windowed client series so operators can line trips up with latency.
    fn note_breaker_transition(&mut self, now: SimTime) {
        if self.measuring && now <= self.measure_end {
            if let Some(m) = self.metrics.as_mut() {
                m.record_breaker_transition(now);
            }
        }
    }

    /// A replica served work in brownout cheap mode: count it in the trial
    /// totals and the windowed client series.
    pub fn record_degraded(&mut self, now: SimTime) {
        self.outcomes.degraded += 1;
        if self.measuring && now <= self.measure_end {
            if let Some(m) = self.metrics.as_mut() {
                m.record_degraded(now);
            }
        }
    }

    /// Arm the front tier's hedge timer for `r` (no-op without a hedge
    /// policy). Called when the front worker forwards the request downstream;
    /// the timer re-dispatches the request to another app replica if it is
    /// still queued for a thread when the delay elapses.
    pub fn arm_hedge(&mut self, r: ReqId, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let Some(h) = self.links[0].hedge else {
            return;
        };
        // Hedge timers share the deadline sequence counter: both only need
        // uniqueness to make stale events no-ops.
        self.timeout_seq += 1;
        let seq = self.timeout_seq;
        self.requests.get_mut(r).hedge_seq = seq;
        q.schedule(now + h.delay, Ev::HedgeFire { r, seq });
    }

    /// The hedge delay elapsed. If the request is still queued for an
    /// app-tier thread ("tied request": the hedge cancels the queued leg the
    /// instant it re-issues, so exactly one leg is ever in service and one
    /// logical interaction still ends in exactly one [`Outcome`]), cancel the
    /// waiter and re-dispatch to the next live app replica in ring order —
    /// deterministic, no RNG draw. Requests already granted a thread are
    /// never hedged: duplicating in-service work can't be cancelled cleanly.
    fn on_hedge_fire(&mut self, r: ReqId, seq: u32, now: SimTime, q: &mut SimQueue<'_, '_>) {
        if !self.requests.contains(r) || self.requests.get(r).hedge_seq != seq {
            return;
        }
        self.requests.get_mut(r).hedge_seq = 0;
        if self.requests.get(r).phase != ReqPhase::WaitAppThread {
            return;
        }
        let app_t = self.req_tiers[1];
        let (rep, trace) = {
            let req = self.requests.get(r);
            (req.route[app_t] as usize, req.trace)
        };
        let ni = self.links[app_t].base + rep;
        let cancelled = self.nodes[ni]
            .pool
            .as_mut()
            .expect("app tier has threads")
            .cancel_waiter(now, r as u64);
        if !cancelled {
            // The pool granted the thread in this same instant (the
            // PoolGranted event is in flight); the original leg won.
            return;
        }
        // The cancelled leg departs its replica; the hedge leg arrives at the
        // next live replica in ring order. Disarm any armed deadline — the
        // stale timer would otherwise fire into the phase it was armed for;
        // the app tier re-arms on arrival.
        self.nodes[ni].departures += 1;
        self.route_departed(app_t, rep);
        let n = self.links[app_t].replicas;
        let mut next_rep = (rep + 1) % n;
        for i in 1..n {
            let cand = (rep + i) % n;
            if self.nodes[self.links[app_t].base + cand].up {
                next_rep = cand;
                break;
            }
        }
        if self.links[app_t].select == SelectPolicy::LeastOutstanding {
            self.route[app_t].outstanding[next_rep] += 1;
        }
        {
            let req = self.requests.get_mut(r);
            req.route[app_t] = next_rep as u16;
            req.timeout_seq = 0;
        }
        self.outcomes.hedged += 1;
        if self.measuring && now <= self.measure_end {
            if let Some(m) = self.metrics.as_mut() {
                m.record_hedge(now);
            }
        }
        let track = self.links[0].name;
        self.req_span(trace, track, ntier_trace::HEDGE, now, now, q);
        q.schedule(
            now + self.hop(512),
            Ev::Tier(app_t as u8, TierMsg::ReqArrive(r)),
        );
    }

    /// Whether a query dispatched to tier `t` is dropped on the wire. Draws
    /// from the fault stream only when the tier has a non-zero drop
    /// probability, so healthy runs consume no fault randomness.
    pub fn drop_query_to(&mut self, t: TierId) -> bool {
        let p = self.faults[t].drop_prob;
        p > 0.0 && self.rng_faults.chance(p)
    }

    /// Terminate request `r` at the app tier with a failure `outcome`: the
    /// held servlet thread is released (with FIFO handoff), conservation
    /// counters are settled, and an error reply travels the normal upstream
    /// path so the front tier serves the error page and every probe stays
    /// balanced. The caller must have already settled any *other* resource
    /// the request held (DB connection, queued waiter slot).
    pub fn fail_at_app(
        &mut self,
        r: ReqId,
        outcome: Outcome,
        now: SimTime,
        q: &mut SimQueue<'_, '_>,
    ) {
        // The chain is validated as Web→App[→Cmw]→Db, so the app tier is the
        // second request-carrying tier.
        let app_t = self.req_tiers[1];
        let (ni, rep, trace) = {
            let req = self.requests.get_mut(r);
            if req.outcome == Outcome::Completed {
                req.outcome = outcome;
            }
            req.timeout_seq = 0;
            req.deadline_exceeded = false;
            (
                self.links[app_t].base + req.route[app_t] as usize,
                req.route[app_t] as usize,
                req.trace,
            )
        };
        match outcome {
            Outcome::TimedOut => self.nodes[ni].timed_out += 1,
            Outcome::Failed => self.nodes[ni].failed += 1,
            _ => {}
        }
        let name = match outcome {
            Outcome::TimedOut => ntier_trace::TIMEOUT,
            _ => ntier_trace::CRASH,
        };
        let track = self.links[app_t].name;
        self.req_span(trace, track, name, now, now, q);
        let pool = self.nodes[ni].pool.as_mut().expect("app tier has threads");
        if let Some(next) = pool.release(now) {
            q.schedule_now(Ev::Tier(app_t as u8, TierMsg::PoolGranted(next as ReqId)));
        }
        self.nodes[ni].departures += 1;
        self.route_departed(app_t, rep);
        let up = self.links[app_t].up.expect("app tier has an upstream");
        q.schedule(
            now + self.hop(2048),
            Ev::Tier(up as u8, TierMsg::ReqReply(r)),
        );
    }

    /// Bump the node's CPU generation and schedule a fresh completion check.
    pub fn reschedule_cpu(&mut self, ni: usize, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let node = &mut self.nodes[ni];
        node.cpu_gen = node.cpu_gen.wrapping_add(1);
        if let Some(t) = node.cpu.next_completion(now) {
            q.schedule(
                t,
                Ev::CpuCheck {
                    node: ni as u16,
                    gen: node.cpu_gen,
                },
            );
        }
    }

    /// Submit a CPU job and (re)arm the completion check.
    pub fn cpu_submit(
        &mut self,
        ni: usize,
        tok: Token,
        demand_secs: f64,
        now: SimTime,
        q: &mut SimQueue<'_, '_>,
    ) {
        // Demand attribution for the flight recorder. Requests charge their
        // own per-tier array directly (front shard only — requests never
        // leave it); queries accumulate on the local mirror and settle
        // upstream via the reply wires, so no shard writes another's slabs.
        // Either way the accumulation is flushed to the recorder in one
        // batch at the client response, keeping this per-submit hot path to
        // a slab hit and an add.
        match tok {
            Token::Req(r) => {
                if self.flight.as_deref().is_some_and(FlightRecorder::armed) {
                    let (t, _) = self.node_tier[ni];
                    self.requests.get_mut(r).demand_secs[t] += demand_secs;
                }
            }
            Token::Query(qid) => {
                if self.forward_obs || self.flight.as_deref().is_some_and(FlightRecorder::armed) {
                    self.queries.get_mut(qid).demand += demand_secs;
                }
            }
        }
        self.nodes[ni].cpu.submit(now, tok.encode(), demand_secs);
        self.sync_jvm_active(ni);
        self.reschedule_cpu(ni, now, q);
    }

    /// Keep the JVM's occupied-connection count in sync with the CPU
    /// population (in-flight request state pins heap).
    pub fn sync_jvm_active(&mut self, ni: usize) {
        let node = &mut self.nodes[ni];
        if let Some(jvm) = node.jvm.as_mut() {
            jvm.set_active(node.cpu.active_jobs());
        }
    }

    /// Push a request-level span segment; no-op for untraced requests
    /// (`trace == 0`) or when the tracer is off. On the front shard the span
    /// also feeds the flight recorder directly; back shards forward it over
    /// the engine's observation channel instead (delivered to the front in
    /// deterministic `(time, key)` order under the lookahead rule).
    pub fn req_span(
        &mut self,
        trace: TraceId,
        track: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        q: &mut SimQueue<'_, '_>,
    ) {
        if trace == ENGINE_TRACE {
            return;
        }
        if let Some(tr) = self.tracer.as_mut() {
            let span = Span {
                trace,
                track,
                name,
                start,
                end,
            };
            tr.push(span);
            if let Some(f) = self.flight.as_mut() {
                f.observe(span);
            } else if self.forward_obs {
                q.observe_front(ObsMsg::Span(span));
            }
        }
    }

    /// Record a transient JVM allocation, triggering stop-the-world GC when
    /// the free heap is exhausted.
    pub fn jvm_alloc(&mut self, ni: usize, bytes: f64, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let pause = {
            let node = &mut self.nodes[ni];
            let Some(jvm) = node.jvm.as_mut() else {
                return;
            };
            let Some(gc) = jvm.on_allocation_traced(bytes) else {
                return;
            };
            node.cpu.freeze(now);
            // Invalidate any scheduled completion; GcEnd re-arms it.
            node.cpu_gen = node.cpu_gen.wrapping_add(1);
            gc.pause
        };
        q.schedule(now + pause, Ev::GcEnd { node: ni as u16 });
        let track = self.nodes[ni].track;
        if let Some(tr) = self.tracer.as_mut() {
            tr.push(Span {
                trace: ENGINE_TRACE,
                track,
                name: ntier_trace::GC_PAUSE,
                start: now,
                end: now + pause,
            });
            if let Some(f) = self.flight.as_mut() {
                f.observe_gc(track, now, now + pause);
            } else if self.forward_obs {
                q.observe_front(ObsMsg::Gc {
                    track,
                    start: now,
                    end: now + pause,
                });
            }
        }
    }

    pub fn free_request_arm(&mut self, r: ReqId) {
        let req = self.requests.get_mut(r);
        req.arms_remaining -= 1;
        if req.arms_remaining == 0 {
            self.requests.remove(r);
        }
    }

    /// Dispatch query `qid` to the database tier `db_t`: reads go to one
    /// replica picked by the tier's selection policy, writes broadcast to
    /// every replica.
    pub fn dispatch_query_to_db(
        &mut self,
        qid: QueryId,
        db_t: TierId,
        now: SimTime,
        q: &mut SimQueue<'_, '_>,
    ) {
        let db_count = self.links[db_t].replicas;
        let hop = self.hop(300);
        let wire = {
            let query = self.queries.get_mut(qid);
            query.phase = QueryPhase::AtDb;
            QueryWire {
                src_qid: qid,
                interaction: query.interaction,
                trace: query.trace,
                is_write: query.is_write,
            }
        };
        if wire.is_write {
            self.queries.get_mut(qid).pending_replies = db_count as u8;
            for db in 0..db_count {
                q.schedule(
                    now + hop,
                    Ev::Tier(db_t as u8, TierMsg::QueryArrive(wire, db as u16)),
                );
            }
        } else {
            // Sender-side replica selection: the routing table for the tier
            // below is owned by this (the accessing) shard, so the pick and
            // the least-outstanding increment both happen here; the chosen
            // replica is echoed back on the reply wire to settle the count.
            self.queries.get_mut(qid).pending_replies = 1;
            let db = self.select_replica_up(db_t, qid as usize) as u16;
            q.schedule(
                now + hop,
                Ev::Tier(db_t as u8, TierMsg::QueryArrive(wire, db)),
            );
        }
    }

    // ------------------------------------------------------------------
    // client
    // ------------------------------------------------------------------

    fn on_think_done(&mut self, s: u32, now: SimTime, q: &mut SimQueue<'_, '_>) {
        if self.draining {
            return;
        }
        let interaction = self.sessions.next_interaction(s, &self.catalog, &self.mix);
        self.issue_request(s, interaction, 1, now, q);
    }

    /// Insert a fresh request for session `s` and send it to the front tier.
    /// `attempt` is 1 for first issues, > 1 for retries (which re-route and
    /// re-enter trace head sampling like any other request).
    fn issue_request(
        &mut self,
        s: u32,
        interaction: InteractionId,
        attempt: u8,
        now: SimTime,
        q: &mut SimQueue<'_, '_>,
    ) {
        let mut req = Request::new(s, interaction, now);
        req.attempt = attempt;
        // Replica routing for every request-carrying tier is decided at
        // birth, in chain order (front first).
        for i in 0..self.req_tiers.len() {
            let t = self.req_tiers[i];
            req.route[t] = self.select_replica(t, s as usize) as u16;
        }
        // Head sampling: the admit decision is made once, at the request's
        // birth, from a monotone id (slab slots are reused; trace ids never
        // are — id 0 is reserved for engine-level spans).
        if let Some(tr) = self.tracer.as_mut() {
            self.next_trace += 1;
            if tr.admit(self.next_trace) {
                req.trace = self.next_trace;
            }
        }
        let r = self.requests.insert(req);
        q.schedule(now + self.hop(512), Ev::Tier(0, TierMsg::ReqArrive(r)));
    }

    fn on_response_to_client(&mut self, r: ReqId, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let (session, t_start, rt, outcome, attempt, interaction, trace, fast_failed, demand) = {
            let req = self.requests.get(r);
            (
                req.session,
                req.t_start,
                now.saturating_sub(req.t_start).as_secs_f64(),
                req.outcome,
                req.attempt,
                req.interaction,
                req.trace,
                req.fast_failed,
                req.demand_secs,
            )
        };
        self.outcomes.count(outcome);
        if trace != ENGINE_TRACE {
            if let Some(f) = self.flight.as_mut() {
                let label = match outcome {
                    Outcome::Completed => "completed",
                    Outcome::TimedOut => "timed-out",
                    Outcome::Shed => "shed",
                    Outcome::Failed => "failed",
                };
                // Hand over the demand this request accumulated across its
                // CPU submits (run-queue carve input) with the completion.
                let mut dm = [("", 0.0f64); MAX_TIERS];
                let mut n = 0;
                for (t, link) in self.links.iter().enumerate() {
                    if demand[t] > 0.0 {
                        dm[n] = (link.name, demand[t]);
                        n += 1;
                    }
                }
                // Only responses inside the measurement window compete for
                // retention; out-of-window traces just free their buffer.
                let retain = self.measuring && now <= self.measure_end;
                f.complete(
                    trace,
                    t_start,
                    now,
                    CompletionOutcome {
                        ok: outcome == Outcome::Completed,
                        label,
                    },
                    retain,
                    &dm[..n],
                );
            }
        }
        // Front-tier breaker signal: every response that actually traversed
        // the system is one window sample. Shed and fast-failed responses
        // never touched the backend and are excluded (recording the
        // breaker's own rejections would latch it open).
        if self.breakers[0].is_some() && !fast_failed && outcome != Outcome::Shed {
            let latency = now.saturating_sub(self.requests.get(r).t_start);
            self.breaker_record(0, now, outcome != Outcome::Completed, latency);
        }
        // Every terminal response earns the fleet `ratio` retry tokens;
        // disabled budgets skip the arithmetic entirely.
        if !self.cfg.retry_budget.is_disabled() {
            let budget = self.cfg.retry_budget;
            self.retry_bucket.deposit(&budget);
        }
        if outcome == Outcome::Completed {
            if self.measuring && now <= self.measure_end {
                self.telemetry.record(now, rt);
                if let Some(m) = self.metrics.as_mut() {
                    m.record_response(now, rt);
                }
            }
            if !self.draining {
                let think = self.sessions.think_time(session);
                q.schedule(now + think, Ev::ThinkDone(session));
            }
            self.free_request_arm(r);
            return;
        }
        // Failure: badput for SLA accounting, then either retry or abandon
        // (back to thinking).
        if self.measuring && now <= self.measure_end {
            self.telemetry.record_failure(now, outcome);
            if let Some(m) = self.metrics.as_mut() {
                let kind = match outcome {
                    Outcome::TimedOut => FailureKind::TimedOut,
                    Outcome::Shed => FailureKind::Shed,
                    _ => FailureKind::Failed,
                };
                m.record_failure(now, kind);
            }
        }
        let will_retry = !self.draining
            && !self.cfg.retry.is_disabled()
            && attempt < self.cfg.retry.max_attempts
            // The budget gate comes last so tokens are only spent on retries
            // that would otherwise happen.
            && (self.cfg.retry_budget.is_disabled() || self.retry_bucket.try_spend());
        if will_retry {
            // The jitter draw comes from the session's own stream, and only
            // on an actual retry — healthy runs never touch it.
            let u = self.sessions.retry_jitter(session);
            let delay = self
                .cfg
                .retry
                .delay(attempt, u)
                .expect("attempt below max_attempts");
            self.retry_pending[session as usize] = (interaction as u16, attempt + 1);
            self.outcomes.retries += 1;
            if self.measuring && now <= self.measure_end {
                if let Some(m) = self.metrics.as_mut() {
                    m.record_retry(now);
                }
            }
            let track = self.links[0].name;
            self.req_span(trace, track, ntier_trace::RETRY, now, now + delay, q);
            q.schedule(now + delay, Ev::Reissue(session));
        } else if !self.draining {
            let think = self.sessions.think_time(session);
            q.schedule(now + think, Ev::ThinkDone(session));
        }
        self.free_request_arm(r);
    }

    fn on_reissue(&mut self, s: u32, now: SimTime, q: &mut SimQueue<'_, '_>) {
        if self.draining {
            return;
        }
        let (interaction, attempt) = self.retry_pending[s as usize];
        self.issue_request(s, interaction as InteractionId, attempt, now, q);
    }

    /// A deadline fired. Stale timers (request gone, sequence mismatch after
    /// re-arming or slab-slot reuse) are ignored; live ones cancel whatever
    /// the request currently holds, or mark it for unwinding at the next
    /// checkpoint when it cannot be cancelled synchronously (CPU slice in the
    /// processor-sharing queue, query outstanding below).
    fn on_req_timeout(&mut self, r: ReqId, seq: u32, now: SimTime, q: &mut SimQueue<'_, '_>) {
        if !self.requests.contains(r) || self.requests.get(r).timeout_seq != seq {
            return;
        }
        match self.requests.get(r).phase {
            ReqPhase::WaitWorker => {
                // Still queued for a front worker: cancel the waiter and
                // answer the client directly (no worker ever served it).
                let (rep, trace) = {
                    let req = self.requests.get_mut(r);
                    req.outcome = Outcome::TimedOut;
                    req.timeout_seq = 0;
                    (req.route[0] as usize, req.trace)
                };
                let ni = self.links[0].base + rep;
                let cancelled = self.nodes[ni]
                    .pool
                    .as_mut()
                    .expect("front tier has workers")
                    .cancel_waiter(now, r as u64);
                let track = self.links[0].name;
                self.req_span(trace, track, ntier_trace::TIMEOUT, now, now, q);
                if !cancelled {
                    // The pool granted this waiter at this same instant (the
                    // grant event is still in flight), so the request is past
                    // the queue: serve it late, exactly as if the deadline had
                    // fired mid-slice.
                    self.nodes[ni].timed_out += 1;
                    return;
                }
                self.nodes[ni].departures += 1;
                self.nodes[ni].timed_out += 1;
                self.route_departed(0, rep);
                // The linger arm never fires for a request without a worker.
                self.free_request_arm(r);
                let hop = self.hop(512);
                q.schedule(now + hop, Ev::ResponseToClient(r));
            }
            ReqPhase::FrontPre | ReqPhase::FrontPost => {
                // The front CPU slice cannot be yanked out of the PS queue;
                // the response will be served, but late — mark it timed out.
                let (rep, trace) = {
                    let req = self.requests.get_mut(r);
                    req.outcome = Outcome::TimedOut;
                    req.timeout_seq = 0;
                    (req.route[0] as usize, req.trace)
                };
                self.nodes[self.links[0].base + rep].timed_out += 1;
                let track = self.links[0].name;
                self.req_span(trace, track, ntier_trace::TIMEOUT, now, now, q);
            }
            ReqPhase::WaitAppThread => {
                // Queued for a servlet thread: cancel the waiter (no thread
                // held, so nothing to release) and error-reply upstream.
                let app_t = self.req_tiers[1];
                let (rep, trace) = {
                    let req = self.requests.get_mut(r);
                    req.outcome = Outcome::TimedOut;
                    req.timeout_seq = 0;
                    (req.route[app_t] as usize, req.trace)
                };
                let ni = self.links[app_t].base + rep;
                let cancelled = self.nodes[ni]
                    .pool
                    .as_mut()
                    .expect("app tier has threads")
                    .cancel_waiter(now, r as u64);
                if !cancelled {
                    // Thread granted at this same instant (grant event in
                    // flight): let the slice start and unwind at the next
                    // checkpoint instead of error-replying a request that is
                    // about to run.
                    let req = self.requests.get_mut(r);
                    req.outcome = Outcome::Completed;
                    req.deadline_exceeded = true;
                    return;
                }
                self.nodes[ni].departures += 1;
                self.nodes[ni].timed_out += 1;
                self.route_departed(app_t, rep);
                let track = self.links[app_t].name;
                self.req_span(trace, track, ntier_trace::TIMEOUT, now, now, q);
                let up = self.links[app_t].up.expect("app tier has an upstream");
                let hop = self.hop(2048);
                q.schedule(now + hop, Ev::Tier(up as u8, TierMsg::ReqReply(r)));
            }
            ReqPhase::WaitDbConn => {
                // Queued for a DB connection with the servlet thread held:
                // cancel the conn waiter, then unwind through the app tier.
                let app_t = self.req_tiers[1];
                let rep = self.requests.get(r).route[app_t] as usize;
                let ni = self.links[app_t].base + rep;
                let cancelled = self.nodes[ni]
                    .conn_pool
                    .as_mut()
                    .expect("app tier has conns")
                    .cancel_waiter(now, r as u64);
                if !cancelled {
                    // Connection granted at this same instant (grant event in
                    // flight): the query will be issued — unwind when it
                    // completes.
                    let req = self.requests.get_mut(r);
                    req.deadline_exceeded = true;
                    req.timeout_seq = 0;
                    return;
                }
                self.fail_at_app(r, Outcome::TimedOut, now, q);
            }
            ReqPhase::AppCpu | ReqPhase::QueryInFlight => {
                // Mid-slice or mid-query: unwind at the next checkpoint
                // (after_slice / query_done).
                let req = self.requests.get_mut(r);
                req.deadline_exceeded = true;
                req.timeout_seq = 0;
            }
            // ToFront cannot happen (deadlines arm at tier entry); a Linger
            // request already answered its client.
            ReqPhase::ToFront | ReqPhase::Linger => {}
        }
    }

    /// A scheduled replica crash: mark the node down and reclaim every job on
    /// its CPU. Lost queries travel *up* through the normal reply events with
    /// the failure flag set — work is never yanked out asynchronously, so
    /// pool, routing, and arrival/departure accounting stay balanced.
    fn on_crash(&mut self, ni: usize, now: SimTime, q: &mut SimQueue<'_, '_>) {
        self.nodes[ni].up = false;
        let mut aborted = std::mem::take(&mut self.scratch_jobs);
        self.nodes[ni].cpu.abort_all_into(now, &mut aborted);
        self.nodes[ni].cpu_gen = self.nodes[ni].cpu_gen.wrapping_add(1);
        self.sync_jvm_active(ni);
        let (t, rep) = self.node_tier[ni];
        if self.tracer.is_some() {
            let end = self.faults[t]
                .crashes
                .iter()
                .find(|w| w.replica == rep && w.crash_at == now)
                .and_then(|w| w.recover_at)
                .unwrap_or(self.measure_end)
                .max(now);
            let track = self.nodes[ni].track;
            if let Some(tr) = self.tracer.as_mut() {
                tr.push(Span {
                    trace: ENGINE_TRACE,
                    track,
                    name: ntier_trace::CRASH,
                    start: now,
                    end,
                });
            }
        }
        let role = self.links[t].role;
        let hop = self.hop(2048);
        for job in aborted.drain(..) {
            let Token::Query(qid) = Token::decode(job) else {
                unreachable!("request token on a crashable tier");
            };
            self.nodes[ni].departures += 1;
            self.nodes[ni].failed += 1;
            let up = self.links[t].up.expect("crashable tiers have an upstream");
            // Sender-side routing: the accessing shard's outstanding count
            // is settled when the failure wire lands there, never here.
            match role {
                // Middleware jobs (routing or merge CPU) have no database
                // work outstanding — fail straight back to the app tier.
                Tier::Cmw => {
                    let wire = {
                        let query = self.queries.get_mut(qid);
                        query.failed = true;
                        QueryDoneWire {
                            dst_qid: query.upstream_qid,
                            failed: true,
                            fast_failed: query.fast_failed,
                            mw_demand: query.demand,
                            db_demand: query.db_demand,
                        }
                    };
                    self.queries.remove(qid);
                    q.schedule(now + hop, Ev::Tier(up as u8, TierMsg::QueryDone(wire)));
                }
                Tier::Db => {
                    let wire = {
                        let query = self.queries.get_mut(qid);
                        query.failed = true;
                        QueryReplyWire {
                            dst_qid: query.upstream_qid,
                            rep,
                            failed: true,
                            t_enter_db: query.t_enter_db,
                            demand: query.demand,
                        }
                    };
                    self.queries.remove(qid);
                    q.schedule(now + hop, Ev::Tier(up as u8, TierMsg::QueryReply(wire)));
                }
                _ => unreachable!("crash scheduled on a request tier"),
            }
        }
        self.scratch_jobs = aborted;
    }

    // ------------------------------------------------------------------
    // CPU / GC machinery
    // ------------------------------------------------------------------

    fn on_gc_end(&mut self, ni: usize, now: SimTime, q: &mut SimQueue<'_, '_>) {
        let node = &mut self.nodes[ni];
        node.jvm
            .as_mut()
            .expect("GcEnd on a node without a JVM")
            .collection_finished();
        node.cpu.unfreeze(now);
        self.reschedule_cpu(ni, now, q);
    }
}

/// One shard of the n-tier system (implements [`simcore::ShardModel`]; see
/// `system/dispatch.rs`): the shared engine context (`Ctx`) plus one tier
/// node per chain position, plus the shard layout the whole run was cut by.
///
/// A serial run is simply the one-shard special case (topologies with zero
/// lookahead collapse to it automatically).
pub struct System {
    ctx: Ctx,
    tiers: Vec<Box<dyn TierNode>>,
    layout: ShardLayout,
}

impl System {
    /// Build the front shard from a configuration (no events scheduled yet).
    /// The tier chain comes from [`SystemConfig::effective_topology`].
    ///
    /// # Panics
    /// On an invalid topology; use [`System::try_new`] to handle the error.
    pub fn new(cfg: SystemConfig) -> Self {
        System::try_new(cfg).unwrap_or_else(|e| panic!("invalid topology: {e}"))
    }

    /// Build the front shard, surfacing topology/fault-spec validation
    /// errors instead of panicking.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, TopologyError> {
        let topo = cfg.effective_topology();
        topo.validate()?;
        let layout = ShardLayout::new(&topo, &cfg.params);
        System::shard(cfg, 0, layout)
    }

    /// Build every shard of the topology's layout, in shard order (shard 0
    /// is the front). The returned vector is what
    /// [`simcore::ShardedEngine::new`] takes.
    pub(crate) fn shards(cfg: SystemConfig) -> Result<Vec<System>, TopologyError> {
        let topo = cfg.effective_topology();
        topo.validate()?;
        let layout = ShardLayout::new(&topo, &cfg.params);
        (0..layout.n_shards())
            .map(|s| System::shard(cfg.clone(), s, layout.clone()))
            .collect()
    }

    fn shard(cfg: SystemConfig, s: usize, layout: ShardLayout) -> Result<Self, TopologyError> {
        let ctx = Ctx::new(cfg, s, &layout)?;
        let tiers = ctx
            .links
            .iter()
            .enumerate()
            .map(|(t, l)| make_tier(l.role, t))
            .collect();
        Ok(System { ctx, tiers, layout })
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.ctx.cfg
    }

    /// The shard layout this system was cut by.
    pub(crate) fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of requests currently in flight (front shard only — requests
    /// live on the shard that owns the client loop).
    pub fn in_flight(&self) -> usize {
        self.ctx.requests.len()
    }
}

mod drain;
mod report;
mod run;

pub use drain::{run_system_to_drain, run_system_to_drain_metered, DrainReport, NodeDrain};
pub use run::{
    run_system, run_system_full, run_system_metered, run_system_profiled, run_system_traced,
    try_run_system, RunTrace,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HardwareConfig, SoftAllocation};
    use crate::topology::Topology;
    use workload::WorkloadConfig;

    fn quick_cfg(users: u32) -> SystemConfig {
        let mut cfg = SystemConfig::new(
            HardwareConfig::one_two_one_two(),
            SoftAllocation::new(400, 150, 60),
            users,
        );
        cfg.workload = WorkloadConfig::quick(users);
        cfg
    }

    #[test]
    fn small_run_completes_requests() {
        let out = run_system(quick_cfg(50));
        assert!(out.completed > 50, "completed={}", out.completed);
        assert!(out.throughput > 1.0, "tp={}", out.throughput);
        // At 50 users nothing is saturated: responses are fast.
        assert!(out.mean_rt < 0.5, "mean_rt={}", out.mean_rt);
        assert!(out.satisfaction[2] > 0.99);
        assert_eq!(out.nodes.len(), 6); // 1+2+1+2
    }

    #[test]
    fn goodput_plus_badput_equals_throughput() {
        let out = run_system(quick_cfg(100));
        for i in 0..out.sla_thresholds.len() {
            let sum = out.goodput[i] + out.badput[i];
            assert!(
                (sum - out.throughput).abs() < 1e-9,
                "partition violated at threshold {i}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_system(quick_cfg(80));
        let b = run_system(quick_cfg(80));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert!((a.mean_rt - b.mean_rt).abs() < 1e-15);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(80);
        cfg.seed = 999;
        let a = run_system(cfg);
        let b = run_system(quick_cfg(80));
        assert_ne!(a.completed, b.completed);
    }

    #[test]
    fn throughput_tracks_interactive_response_time_law() {
        // Closed system, far from saturation: X ≈ N / (Z + R).
        let out = run_system(quick_cfg(200));
        let n = 200.0;
        let z = 7.0;
        let expected = n / (z + out.mean_rt);
        let rel = (out.throughput - expected).abs() / expected;
        assert!(rel < 0.15, "X={} expected≈{}", out.throughput, expected);
    }

    #[test]
    fn littles_law_holds_per_tier() {
        // L = X·R at the Tomcat tier, measured entirely from the logs.
        let out = run_system(quick_cfg(300));
        for node in out.tier_nodes(crate::ids::Tier::App) {
            let x = node.throughput(out.window_secs);
            assert!(x > 1.0);
            let jobs = node.mean_jobs(out.window_secs);
            assert!(jobs > 0.0 && jobs < 300.0);
        }
    }

    #[test]
    fn per_second_series_have_window_length() {
        let cfg = quick_cfg(50);
        let runtime = cfg.workload.runtime.as_secs_f64() as usize;
        let out = run_system(cfg);
        assert_eq!(out.completed_per_sec.len(), runtime);
        for n in &out.nodes {
            assert_eq!(n.cpu_series.len(), runtime, "{}", n.name);
        }
        assert_eq!(out.apache_probes.threads_active.len(), runtime);
    }

    #[test]
    fn metered_run_matches_plain_run_and_fills_series() {
        let plain = run_system(quick_cfg(120));
        let (out, m) = run_system_metered(quick_cfg(120));
        // Passive collection: the summary is identical, not merely close.
        assert_eq!(out.completed, plain.completed);
        assert_eq!(out.events_processed, plain.events_processed);
        assert_eq!(out.mean_rt.to_bits(), plain.mean_rt.to_bits());
        // Default window 100 ms over the quick runtime.
        let runtime = quick_cfg(120).workload.runtime;
        assert_eq!(
            m.n_windows,
            (runtime.as_micros() / metrics::timeseries::DEFAULT_WINDOW.as_micros()) as usize
        );
        assert_eq!(m.replicas.len(), 6); // 1+2+1+2
        for r in &m.replicas {
            assert_eq!(r.cpu_util.len(), m.n_windows, "{}", r.name);
            assert!(r.mean_cpu() > 0.0, "{} never busy", r.name);
        }
        let web = &m.replicas[0];
        assert!(web.threads.is_some() && web.lingering.is_some());
        assert_eq!(m.client.completed.len(), m.n_windows);
        let total: f64 = m.client.completed.iter().sum();
        assert_eq!(total as u64, plain.completed);
        assert!(m.client.overall.count() > 0);
    }

    #[test]
    fn explicit_metrics_window_is_kept() {
        let mut cfg = quick_cfg(60);
        cfg.metrics = metrics::MetricsConfig::windowed(SimTime::from_millis(250));
        let (_, m) = run_system_metered(cfg);
        let runtime = quick_cfg(60).workload.runtime;
        assert_eq!(m.window, SimTime::from_millis(250));
        assert_eq!(m.n_windows, (runtime.as_micros() / 250_000) as usize);
    }

    #[test]
    fn mysql_sees_queries_and_cjdbc_logs_them() {
        let out = run_system(quick_cfg(100));
        let cmw = &out.tier_nodes(crate::ids::Tier::Cmw)[0];
        assert!(cmw.completions > 0, "C-JDBC completed no queries");
        let db_total: u64 = out
            .tier_nodes(crate::ids::Tier::Db)
            .iter()
            .map(|n| n.completions)
            .sum();
        // Browse-only: every C-JDBC query goes to exactly one MySQL.
        let rel = (db_total as f64 - cmw.completions as f64).abs() / cmw.completions as f64;
        assert!(rel < 0.05, "cjdbc={} mysql={}", cmw.completions, db_total);
    }

    #[test]
    fn read_write_mix_broadcasts_writes() {
        let mut cfg = quick_cfg(100);
        cfg.mix = MixKind::ReadWrite;
        let out = run_system(cfg);
        let cmw = out.tier_nodes(crate::ids::Tier::Cmw)[0].completions;
        let db_total: u64 = out
            .tier_nodes(crate::ids::Tier::Db)
            .iter()
            .map(|n| n.completions)
            .sum();
        // Writes are executed on both replicas: MySQL completions > C-JDBC's.
        assert!(
            db_total as f64 > cmw as f64 * 1.01,
            "no broadcast visible: cjdbc={cmw} mysql={db_total}"
        );
    }

    #[test]
    fn no_requests_leak() {
        let cfg = quick_cfg(60);
        let trial_end = cfg.workload.trial_end();
        let mut engine = run::build_engine(cfg);
        run::seed_engine_events(&mut engine);
        engine.run_until(trial_end);
        // Drain: no new think events fire after trial end... they do (closed
        // loop), so instead verify in-flight population is bounded by users.
        // Requests live on the front shard only.
        assert!(engine.model(0).in_flight() <= 60);
    }

    #[test]
    fn deeper_replication_runs_end_to_end() {
        // 1/8/1/8 — not a paper config; pure topology data.
        let mut cfg = SystemConfig::new(
            HardwareConfig::new(1, 8, 1, 8),
            SoftAllocation::rule_of_thumb(),
            120,
        );
        cfg.workload = WorkloadConfig::quick(120);
        let out = run_system(cfg);
        assert_eq!(out.nodes.len(), 18);
        assert!(out.completed > 100);
        assert_eq!(out.tier_nodes(Tier::App).len(), 8);
        assert_eq!(out.tier_nodes(Tier::Db).len(), 8);
    }

    #[test]
    fn three_tier_chain_runs_end_to_end() {
        let soft = SoftAllocation::rule_of_thumb();
        let mut cfg = SystemConfig::new(HardwareConfig::one_two_one_two(), soft, 80);
        cfg.workload = WorkloadConfig::quick(80);
        let cfg = cfg.with_topology(Topology::three_tier(
            1,
            2,
            2,
            soft,
            jvm_gc::GcConfig::jdk6_server(),
        ));
        let out = run_system(cfg);
        assert_eq!(out.nodes.len(), 5); // 1 + 2 + 2, no C-JDBC
        assert!(out.completed > 80, "completed={}", out.completed);
        assert!(out.tier_nodes(Tier::Cmw).is_empty());
        // The app tier still issued queries and the DBs answered them.
        let db_total: u64 = out.tier_nodes(Tier::Db).iter().map(|n| n.completions).sum();
        assert!(db_total > 0);
        assert_eq!(out.label, "1/2/2(400-150-60)@80");
    }

    #[test]
    fn drain_leaves_no_requests_in_flight() {
        let (out, drain) = run_system_to_drain(quick_cfg(60));
        assert!(out.completed > 0);
        assert_eq!(drain.in_flight_requests, 0);
        assert_eq!(drain.in_flight_queries, 0);
        for n in &drain.nodes {
            assert_eq!(n.arrivals, n.departures, "{} leaked jobs", n.name);
            assert_eq!(
                n.pool_in_use + n.pool_waiting,
                0,
                "{} pool unbalanced",
                n.name
            );
            assert_eq!(
                n.conn_in_use + n.conn_waiting,
                0,
                "{} conns unbalanced",
                n.name
            );
        }
    }

    #[test]
    fn least_outstanding_policy_runs() {
        use crate::topology::SelectPolicy;
        let mut cfg = quick_cfg(60);
        let mut topo = cfg.effective_topology();
        topo.tiers[1] = topo.tiers[1]
            .clone()
            .with_select(SelectPolicy::LeastOutstanding);
        topo.tiers[3] = topo.tiers[3]
            .clone()
            .with_select(SelectPolicy::LeastOutstanding);
        cfg.topology = Some(topo);
        let out = run_system(cfg);
        assert!(out.completed > 60);
        // Both app replicas saw work.
        for n in out.tier_nodes(Tier::App) {
            assert!(n.completions > 0, "{} idle", n.name);
        }
    }
}
