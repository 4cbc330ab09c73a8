//! The fabric: the one hop-by-hop network engine.
//!
//! Every loaded experiment — the load test, the fault campaigns, and
//! open-loop batch drains — runs the 21364 router model here, on the
//! kernel's epoch engine ([`alphasim_kernel::shard::EpochExecutor`]):
//!
//! * [`FabricTables`] is the **shared, immutable** routing snapshot — the
//!   topology materialized into plain tables ([`FabricGraph`]), route
//!   tables over the live fabric, link liveness and drain flags. The
//!   worker holds it behind an [`Arc`]; only a barrier coordinator
//!   mutates its master copy (fault strikes) and republishes. Between
//!   barriers the snapshot is constant.
//! * [`RegionNet`] is the fabric's **owned, mutable** state: the [`Link`]
//!   state (queues, occupancy, degradation, pauses) of every directed
//!   link, plus the packets queued on them. A packet in flight between
//!   hops lives inside its pending `Arrive` event — hop handoff is event
//!   handoff.
//! * [`OpenLoop`] is the small batch driver: inject messages, run to
//!   idle, read deliveries and the fabric-wide link reductions
//!   ([`FabricLinks`]).
//!
//! Fidelity choices (see DESIGN.md): routing is minimal adaptive — at each
//! hop a packet takes the minimal-path output with the smallest backlog,
//! while I/O packets route deterministically, as in the 21364. Virtual
//! channels are per-class FIFO queues per link under strict priority
//! arbitration, so responses never block behind requests; queues are
//! unbounded, with a calibrated arbitration penalty per queued packet
//! standing in for head-of-line blocking (what bends Fig. 15's delivered
//! bandwidth back past saturation). A message pays its serialization once
//! (wormhole pipelining) and router + wire latency per hop, while
//! occupying each traversed link for its full transfer time.
//!
//! Simultaneous events are ordered by tiebreaks derived from simulation
//! identities (see the `tb_*` constructors), so a run is deterministic.
//!
//! Link releases are scheduled on demand. A transfer records when its
//! channel frees up ([`Link::free_at`]) and emits a `LinkFree` event only
//! if a packet is already waiting; a packet that queues behind a busy
//! channel books the release then. A channel is busy exactly while its
//! release, keyed `(free_at, tb_link_free(id))`, has not fired — or, where
//! none was scheduled, would not have fired yet — which the kernel answers
//! with [`Outbox::has_passed`]. Every grant therefore happens at the same
//! key as if each transfer had scheduled its own release, and an idle
//! channel costs no event at all.
//!
//! Nor does an idle channel cost a queue. A packet whose chosen link is
//! not held and has nothing queued is granted on the spot, without taking
//! a slab slot: that is the grant the queue would have made at once, so
//! the same `Arrive` and `LinkFree` events, ticket, occupancy and grant
//! count follow. Most hops of a closed-loop run take this path.

use std::sync::Arc;

use alphasim_kernel::shard::{EpochExecutor, Outbox, ShardWorker};
use alphasim_kernel::{SimDuration, SimTime};
use alphasim_telemetry::trace::{PID_LINKS, PID_MESSAGES};
use alphasim_telemetry::{HopBreakdown, Timeline, TraceSink};
use alphasim_topology::route::{RoutePolicy, Routes};
use alphasim_topology::{Coord, Direction, LinkClass, NodeId, Port, Topology};

use crate::link::Link;
use crate::msg::{Delivery, MessageClass, MessageId};
use crate::timing::LinkTiming;

/// Tiebreak kind tag for packet `Arrive` events (low bits: packet uid).
pub fn tb_arrive(uid: u64) -> u64 {
    debug_assert!(uid < 1 << 61, "packet uid overflows the tiebreak");
    (1 << 61) | uid
}

/// Tiebreak kind tag for `LinkFree` events (low bits: global link id).
pub fn tb_link_free(link: usize) -> u64 {
    (2 << 61) | link as u64
}

/// Tiebreak kind tag for coherence timer events (low bits: transaction
/// tag).
pub fn tb_timer(tag: u64) -> u64 {
    debug_assert!(tag < 1 << 61, "timer tag overflows the tiebreak");
    (3 << 61) | tag
}

/// Tiebreak kind tag for window-refill injection events (low bits: cpu
/// index).
pub fn tb_inject(cpu: usize) -> u64 {
    (4 << 61) | cpu as u64
}

/// Why a live fault could not be applied (or survived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// No such link exists in the underlying topology.
    NoSuchLink {
        /// One claimed end of the link.
        a: NodeId,
        /// The other claimed end.
        b: NodeId,
    },
    /// The link is already in the requested liveness state.
    AlreadyInState {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// The state it is already in.
        alive: bool,
    },
    /// Failing the link would disconnect at least one endpoint pair; the
    /// failure was rolled back and the fabric left routable.
    Partitioned {
        /// An endpoint that would lose reachability.
        from: NodeId,
        /// The endpoint it could no longer reach.
        to: NodeId,
    },
    /// The link is in a state that rejects the requested transition (e.g.
    /// degrading a dead link, or corrupting a flit on one).
    BadState {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// Why the transition is rejected.
        what: &'static str,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::NoSuchLink { a, b } => write!(f, "no link {a}<->{b} in the fabric"),
            FaultError::AlreadyInState { a, b, alive } => {
                let state = if *alive { "alive" } else { "dead" };
                write!(f, "link {a}<->{b} is already {state}")
            }
            FaultError::Partitioned { from, to } => {
                write!(
                    f,
                    "failure would partition the fabric: {from} cannot reach {to}"
                )
            }
            FaultError::BadState { a, b, what } => {
                write!(f, "link {a}<->{b} {what}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A message travelling the fabric. A `Packet` is an owned
/// value: queued packets live in the fabric's slab, in-flight
/// packets live inside their pending `Arrive` event, and the closed-loop
/// payload `P` (e.g. a read's issue time, or the served-request telemetry
/// leg a response carries home) rides along.
#[derive(Debug, Clone)]
pub struct Packet<P> {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual-channel class.
    pub class: MessageClass,
    /// Payload size.
    pub bytes: u64,
    /// Caller correlation tag (the coherence transaction id).
    pub tag: u64,
    /// Identity; also the low bits of the packet's
    /// `Arrive` tiebreak. Derived from simulation identities (tag, attempt,
    /// direction), never from slots or arrival order.
    pub uid: u64,
    /// When the packet entered the fabric.
    pub injected_at: SimTime,
    /// Hops taken so far (also the routing progress index).
    pub hops: u32,
    /// Whether the serialization latency has been paid (first hop only).
    pub serialized: bool,
    /// When the packet joined its current output queue.
    pub enqueued_at: SimTime,
    /// Per-hop latency attribution, accumulated across hops.
    pub acc: HopBreakdown,
    /// Closed-loop payload riding the packet.
    pub payload: P,
}

impl<P> Packet<P> {
    /// A fresh packet entering the fabric at `at`, not yet routed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        bytes: u64,
        tag: u64,
        uid: u64,
        at: SimTime,
        payload: P,
    ) -> Box<Self> {
        Box::new(Self::fresh(src, dst, class, bytes, tag, uid, at, payload))
    }

    /// Rebuild this packet, which has left the fabric, in place: exactly
    /// what [`new`](Self::new) would build, reusing the allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn renew(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        bytes: u64,
        tag: u64,
        uid: u64,
        at: SimTime,
        payload: P,
    ) {
        *self = Self::fresh(src, dst, class, bytes, tag, uid, at, payload);
    }

    /// Turn this delivered packet around as its reply, reusing its
    /// allocation: the reply carries the same `tag` from the old
    /// destination back to the old source, entering the fabric at `at`
    /// exactly as [`new`](Self::new) would build it.
    pub fn reply(&mut self, class: MessageClass, bytes: u64, uid: u64, at: SimTime, payload: P) {
        let (src, dst, tag) = (self.dst, self.src, self.tag);
        self.renew(src, dst, class, bytes, tag, uid, at, payload);
    }

    #[allow(clippy::too_many_arguments)]
    fn fresh(
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        bytes: u64,
        tag: u64,
        uid: u64,
        at: SimTime,
        payload: P,
    ) -> Self {
        Packet {
            src,
            dst,
            class,
            bytes,
            tag,
            uid,
            injected_at: at,
            hops: 0,
            serialized: false,
            enqueued_at: at,
            acc: HopBreakdown::default(),
            payload,
        }
    }

    /// End-to-end latency once delivered at `at`.
    pub fn latency(&self, at: SimTime) -> SimDuration {
        at.since(self.injected_at)
    }
}

/// The two fabric events a [`RegionNet`] schedules, expressed in a
/// worker's own event vocabulary: arrivals with tiebreak
/// [`tb_arrive`]`(pkt.uid)`, releases with tiebreak
/// [`tb_link_free`]`(link)`.
pub trait FabricEvent<P>: Sized {
    /// A packet lands on `node`.
    fn arrive(node: NodeId, pkt: Box<Packet<P>>) -> Self;
    /// Link `link`'s channel frees up.
    fn link_free(link: usize) -> Self;
}

/// The packet most recently granted onto a link, for barrier-time drop
/// condemnation. The ticket is *not* cleared on arrival — the coordinator
/// treats a ticket whose `arrive_at` is before the barrier as stale (its
/// `Arrive` already fired, so nothing is on the wire).
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// The packet's identity.
    pub uid: u64,
    /// Its correlation tag.
    pub tag: u64,
    /// When its pending `Arrive` fires.
    pub arrive_at: SimTime,
}

/// A topology materialized into plain tables: name, ports, endpoint flags
/// and planar coordinates. Building one from any [`Topology`] frees the
/// engine (and everything holding its tables) from the topology's type.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricGraph {
    name: String,
    ports: Vec<Vec<Port>>,
    endpoint: Vec<bool>,
    coords: Vec<Option<Coord>>,
}

impl FabricGraph {
    /// Copy `topo`'s structure.
    pub fn of<T: Topology + ?Sized>(topo: &T) -> Self {
        let nodes = (0..topo.node_count()).map(NodeId::new);
        FabricGraph {
            name: topo.name(),
            ports: nodes.clone().map(|n| topo.ports(n).to_vec()).collect(),
            endpoint: nodes.clone().map(|n| topo.is_endpoint(n)).collect(),
            coords: nodes.map(|n| topo.coord(n)).collect(),
        }
    }
}

impl Topology for FabricGraph {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.ports.len()
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, node: NodeId) -> bool {
        self.endpoint[node.index()]
    }

    fn coord(&self, node: NodeId) -> Option<Coord> {
        self.coords[node.index()]
    }
}

/// The shared routing snapshot of a fabric.
///
/// The worker reads it behind an [`Arc`] and never mutates it; a barrier
/// coordinator keeps a master copy, applies fault strikes to that, and
/// republishes a fresh `Arc` to the worker — so a route lookup inside an
/// epoch always sees the fabric as it stood at the last barrier.
#[derive(Debug, Clone)]
pub struct FabricTables {
    graph: FabricGraph,
    policy: RoutePolicy,
    timing: LinkTiming,
    routes: Routes,
    /// The fabric minus its failed links, so route computation and
    /// `minimal_ports` see the same port indexing after a failure.
    live: FabricGraph,
    live_link_of: Vec<Vec<usize>>,
    link_of: Vec<Vec<usize>>,
    /// `(from, to, class, dir)` per global link id.
    link_meta: Vec<(NodeId, NodeId, LinkClass, Option<Direction>)>,
    alive: Vec<bool>,
    drained: Vec<bool>,
    /// A healthy channel's transfer time for each payload size
    /// `0..=TRANSFER_TABLE_BYTES`.
    transfer: Vec<SimDuration>,
    /// The congestion penalty for each capped backlog
    /// `0..=congestion_cap` (at most `PENALTY_TABLE_ROWS` rows).
    penalty: Vec<SimDuration>,
}

/// Largest payload, in bytes, whose transfer time [`FabricTables`] keeps
/// precomputed (coherence packets carry 16–80 B).
const TRANSFER_TABLE_BYTES: u64 = 128;

/// Most congestion-penalty rows [`FabricTables`] precomputes; a larger cap
/// computes the rest per grant.
const PENALTY_TABLE_ROWS: u32 = 1024;

/// The arbitration penalty for `queued` (already capped) waiting packets.
fn penalty_for(timing: &LinkTiming, queued: u32) -> SimDuration {
    SimDuration::from_ns(f64::from(queued) * timing.congestion_ns_per_queued)
}

impl FabricTables {
    /// Tables over a healthy `topo`.
    pub fn new<T: Topology + ?Sized>(topo: &T, timing: LinkTiming, policy: RoutePolicy) -> Self {
        let graph = FabricGraph::of(topo);
        let routes = Routes::compute(&graph, policy);
        let mut link_meta = Vec::new();
        let mut link_of = Vec::with_capacity(graph.node_count());
        for n in 0..graph.node_count() {
            let node = NodeId::new(n);
            let mut ids = Vec::new();
            for p in graph.ports(node) {
                ids.push(link_meta.len());
                link_meta.push((node, p.to, p.class, p.dir));
            }
            link_of.push(ids);
        }
        // The per-grant timing arithmetic, tabulated with the same `f64`
        // expressions a grant would evaluate, so every picosecond matches.
        let transfer = (0..=TRANSFER_TABLE_BYTES)
            .map(|bytes| SimDuration::transfer_time(bytes, timing.bandwidth_gbps))
            .collect();
        let penalty = (0..=timing.congestion_cap.min(PENALTY_TABLE_ROWS))
            .map(|queued| penalty_for(&timing, queued))
            .collect();
        FabricTables {
            transfer,
            penalty,
            live: graph.clone(),
            live_link_of: link_of.clone(),
            alive: vec![true; link_meta.len()],
            drained: vec![false; graph.node_count()],
            graph,
            policy,
            timing,
            routes,
            link_of,
            link_meta,
        }
    }

    /// The materialized topology.
    pub fn topology(&self) -> &FabricGraph {
        &self.graph
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &LinkTiming {
        &self.timing
    }

    /// A healthy channel's transfer time for a `bytes`-byte payload.
    #[inline]
    fn transfer_time(&self, bytes: u64) -> SimDuration {
        match self.transfer.get(bytes as usize) {
            Some(&t) => t,
            None => SimDuration::transfer_time(bytes, self.timing.bandwidth_gbps),
        }
    }

    /// The arbitration penalty for a grant that leaves `backlog` packets
    /// queued behind it.
    #[inline]
    fn congestion_penalty(&self, backlog: u32) -> SimDuration {
        let queued = backlog.min(self.timing.congestion_cap);
        match self.penalty.get(queued as usize) {
            Some(&p) => p,
            None => penalty_for(&self.timing, queued),
        }
    }

    /// Total directed links in the fabric (dead ones included).
    pub fn link_count(&self) -> usize {
        self.link_meta.len()
    }

    /// `(from, to, class, dir)` of global link `id`.
    pub fn link_meta(&self, id: usize) -> (NodeId, NodeId, LinkClass, Option<Direction>) {
        self.link_meta[id]
    }

    /// The *live* directed links sent by `node`, in port order.
    pub fn live_links_from(&self, node: NodeId) -> &[usize] {
        &self.live_link_of[node.index()]
    }

    /// Whether the directed channel `id` is up.
    pub fn is_alive(&self, id: usize) -> bool {
        self.alive[id]
    }

    /// Whether `node` is drained (no new injections).
    pub fn is_drained(&self, node: NodeId) -> bool {
        self.drained[node.index()]
    }

    /// Mark `node` drained or undrained.
    pub fn set_drained(&mut self, node: NodeId, drained: bool) {
        self.drained[node.index()] = drained;
    }

    /// The global ids of both directed channels of the undirected link
    /// `a ↔ b`.
    pub fn link_ids(&self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let la = self
            .directed_link_id(a, b)
            .ok_or(FaultError::NoSuchLink { a, b })?;
        let lb = self
            .directed_link_id(b, a)
            .ok_or(FaultError::NoSuchLink { a, b })?;
        Ok([la, lb])
    }

    fn directed_link_id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from.index() >= self.graph.node_count() {
            return None;
        }
        self.graph
            .ports(from)
            .iter()
            .position(|p| p.to == to)
            .map(|pi| self.link_of[from.index()][pi])
    }

    /// Fail the undirected link `a ↔ b`: both directed channels go dead
    /// and routes are recomputed over the survivors. If
    /// the failure would partition the fabric the tables are left
    /// untouched and the error returned — worker link state has not been
    /// modified yet, so there is nothing to roll back.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let ids = self.link_ids(a, b)?;
        if !self.alive[ids[0]] {
            return Err(FaultError::AlreadyInState { a, b, alive: false });
        }
        for id in ids {
            self.alive[id] = false;
        }
        if let Err(e) = self.rebuild_routes() {
            for id in ids {
                self.alive[id] = true;
            }
            self.rebuild_routes()
                .expect("rollback restores a routable fabric");
            return Err(e);
        }
        Ok(ids)
    }

    /// Bring the dead undirected link `a ↔ b` back and recompute routes.
    /// (Restoring an *alive* but degraded link is a worker-side heal and
    /// never reaches the tables; call sites check liveness first.)
    ///
    /// # Panics
    ///
    /// Panics if restoring somehow partitions the fabric — adding a link
    /// cannot disconnect anything.
    pub fn revive_link(&mut self, a: NodeId, b: NodeId) -> Result<[usize; 2], FaultError> {
        let ids = self.link_ids(a, b)?;
        if self.alive[ids[0]] {
            return Err(FaultError::AlreadyInState { a, b, alive: true });
        }
        for id in ids {
            self.alive[id] = true;
        }
        self.rebuild_routes()
            .expect("restoring a link cannot partition the fabric");
        Ok(ids)
    }

    /// The global id of the directed link `from -> to`, with the same
    /// error shape the flit-corruption fault path expects.
    pub fn directed_link(&self, from: NodeId, to: NodeId) -> Result<usize, FaultError> {
        self.directed_link_id(from, to)
            .ok_or(FaultError::NoSuchLink { a: from, b: to })
    }

    /// Recompute the live port views and the minimal-path route tables
    /// from the current liveness flags; `Err` (with the routes unchanged)
    /// if any endpoint pair would become unreachable.
    fn rebuild_routes(&mut self) -> Result<(), FaultError> {
        for n in 0..self.graph.node_count() {
            let lp = &mut self.live.ports[n];
            let ll = &mut self.live_link_of[n];
            lp.clear();
            ll.clear();
            for (pi, p) in self.graph.ports[n].iter().enumerate() {
                let id = self.link_of[n][pi];
                if self.alive[id] {
                    lp.push(*p);
                    ll.push(id);
                }
            }
        }
        let routes = Routes::compute(&self.live, self.policy);
        let eps = self.graph.endpoints();
        for &from in &eps {
            for &to in &eps {
                if from != to && routes.distance(from, 0, to) == Routes::UNREACHABLE {
                    return Err(FaultError::Partitioned { from, to });
                }
            }
        }
        self.routes = routes;
        Ok(())
    }
}

/// Topology-indexed and time-windowed accumulators for the fabric: where
/// traffic lands (per-node) and when (a fixed-width [`Timeline`]). Where it
/// flows is the links' own meters ([`Link::busy_time`], [`Link::bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetHeat {
    /// Messages delivered at each destination node, indexed by node id.
    pub node_delivered: Vec<u64>,
    /// Windowed counters `net.delivered` / `net.bytes` / `net.link_busy_ps`,
    /// gauge `net.peak_backlog`, histogram `net.latency_ns`.
    pub timeline: Timeline,
}

impl NetHeat {
    /// Zeroed accumulators over `nodes` nodes, windowed at `window_ps`.
    pub fn new(window_ps: u64, nodes: usize) -> Self {
        NetHeat {
            node_delivered: vec![0; nodes],
            timeline: Timeline::new(window_ps),
        }
    }
}

/// The fabric's owned, mutable state: the [`Link`] state of every
/// directed link, the packets queued on them, and the Chrome trace.
#[derive(Debug)]
pub struct RegionNet<P> {
    tables: Arc<FabricTables>,
    /// Indexed by global link id.
    links: Vec<Link>,
    /// Queued packets, addressed by the [`MessageId`]s living in the link
    /// queues. Slot numbering is pure bookkeeping — behavior never depends
    /// on it.
    slab: Vec<Option<Box<Packet<P>>>>,
    free: Vec<u32>,
    tickets: Vec<Option<InFlight>>,
    trace: Option<Box<TraceSink>>,
    heat: Option<Box<NetHeat>>,
}

impl<P> RegionNet<P> {
    /// Idle links over `tables`' fabric.
    pub fn new(tables: Arc<FabricTables>) -> Self {
        let links = (0..tables.link_count())
            .map(|id| {
                let (from, to, class, dir) = tables.link_meta(id);
                Link::new(from, to, class, dir)
            })
            .collect();
        let tickets = vec![None; tables.link_count()];
        RegionNet {
            tables,
            links,
            slab: Vec::new(),
            free: Vec::new(),
            tickets,
            trace: None,
            heat: None,
        }
    }

    /// The shared routing snapshot.
    pub fn tables(&self) -> &FabricTables {
        &self.tables
    }

    /// Install a fresh routing snapshot (barrier republish).
    pub fn set_tables(&mut self, tables: Arc<FabricTables>) {
        self.tables = tables;
    }

    /// CRC retransmits across the fabric's links.
    pub fn crc_retransmits(&self) -> u64 {
        self.links.iter().map(Link::crc_retransmits).sum()
    }

    /// Every directed link, for the fabric-wide reductions.
    pub fn links(&self) -> FabricLinks<'_> {
        FabricLinks {
            tables: &self.tables,
            links: &self.links,
        }
    }

    /// Start collecting Chrome-trace events (complete events only; the
    /// assembler adds lane metadata once, after the run).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// The trace sink, when tracing — for callers charging extra lanes
    /// (e.g. memory service events).
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut()
    }

    /// Detach and return the collected trace, if tracing was on.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take().map(|b| *b)
    }

    /// Start accumulating topology heat and a `window_ps`-wide timeline for
    /// the fabric.
    pub fn enable_heat(&mut self, window_ps: u64) {
        self.heat = Some(Box::new(NetHeat::new(
            window_ps,
            self.tables.topology().node_count(),
        )));
    }

    /// Detach and return the accumulated heat, if it was enabled.
    pub fn take_heat(&mut self) -> Option<NetHeat> {
        self.heat.take().map(|b| *b)
    }

    /// Exclusive access to link `id` (barrier-time fault mutation).
    pub fn link_mut(&mut self, id: usize) -> &mut Link {
        &mut self.links[id]
    }

    /// Brown out `node`'s router until `until`: its live outbound links
    /// stall, then drain their backlogs. No event is needed: each link
    /// holds until at least `until`, a release already booked moves there
    /// when it fires, and a packet that queues behind an idle paused link
    /// books the release at `until`.
    pub fn pause_router(&mut self, node: NodeId, until: SimTime) {
        for &id in self.tables.live_links_from(node) {
            self.links[id].pause(until);
        }
    }

    /// The latest instant a link frees up (`None` if no link has been
    /// held since it was last marked released).
    pub fn latest_release(&self) -> Option<SimTime> {
        self.links.iter().filter_map(Link::free_at).max()
    }

    /// Mark every link released: once every event of a run has fired, no
    /// channel is held, whatever its last release instant.
    pub(crate) fn mark_released(&mut self) {
        for l in &mut self.links {
            l.mark_released();
        }
    }

    /// Shared access to link `id`.
    pub fn link(&self, id: usize) -> &Link {
        &self.links[id]
    }

    /// The drop-condemnation ticket of the packet last granted on `id`.
    pub fn in_flight_ticket(&self, id: usize) -> Option<InFlight> {
        self.tickets[id]
    }

    /// Evict every queued packet from link `id` (highest priority first),
    /// returning the owned packets for barrier-time re-routing.
    pub fn evict_queued(&mut self, id: usize) -> Vec<Box<Packet<P>>> {
        let drained = self.link_mut(id).drain_queued();
        drained.into_iter().map(|mid| self.take_slot(mid)).collect()
    }

    fn alloc_slot(&mut self, pkt: Box<Packet<P>>) -> MessageId {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Some(pkt);
            MessageId(slot)
        } else {
            let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued packets");
            self.slab.push(Some(pkt));
            MessageId(slot)
        }
    }

    fn take_slot(&mut self, id: MessageId) -> Box<Packet<P>> {
        let pkt = self.slab[id.index()].take().expect("slot occupied");
        self.free.push(id.0);
        pkt
    }

    /// Process a packet arriving on `node` at `now`: hand it back if
    /// `node` is its destination, or route it onto the next output link
    /// (granting it at once if the link is idle with nothing queued, else
    /// queuing it and booking the link's release if none is booked),
    /// emitting the follow-up events through `out`.
    pub fn handle_arrive<E: FabricEvent<P>>(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: Box<Packet<P>>,
        out: &mut Outbox<E>,
    ) -> Option<Box<Packet<P>>> {
        if node == pkt.dst {
            if let Some(h) = self.heat.as_deref_mut() {
                h.node_delivered[node.index()] += 1;
                let at = now.as_ps();
                h.timeline.counter_add(at, "net.delivered", 1);
                h.timeline.counter_add(at, "net.bytes", pkt.bytes);
                h.timeline
                    .record(at, "net.latency_ns", pkt.latency(now).as_ps() / 1_000);
            }
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.complete(
                    pkt.class.name(),
                    "msg",
                    PID_MESSAGES,
                    pkt.src.index() as u32,
                    pkt.injected_at.as_ps(),
                    pkt.latency(now).as_ps(),
                    &[
                        ("tag", pkt.tag),
                        ("hops", u64::from(pkt.hops)),
                        ("dst", pkt.dst.index() as u64),
                    ],
                );
            }
            return Some(pkt);
        }
        let link = self.choose_output(node, &pkt, out);
        let l = &mut self.links[link];
        let held = held_until(l, link, out);
        if held.is_none() && l.backlog() == 0 {
            // An idle channel with nothing queued: the grant the queue
            // would make at once, without the queue.
            l.grant_unqueued();
            self.transfer(link, now, pkt, out);
            return None;
        }
        let class = pkt.class;
        let slot = self.alloc_slot(pkt);
        let l = &mut self.links[link];
        l.enqueue(class, slot);
        match held {
            None => self.grant_queued(link, now, out),
            Some(free_at) if !l.release_pending() => {
                // A packet now waits on a held channel: book its release.
                l.set_release_pending(true);
                out.emit(free_at, tb_link_free(link), E::link_free(link));
            }
            Some(_) => {}
        }
        None
    }

    /// Process a booked release of `link` at `now`: move it to the pause
    /// horizon while the router is paused, else grant the next queued
    /// packet if the tables still count the link alive.
    pub fn handle_link_free<E: FabricEvent<P>>(
        &mut self,
        now: SimTime,
        link: usize,
        out: &mut Outbox<E>,
    ) {
        let l = &mut self.links[link];
        if l.pause_until() > now {
            // Still paused: the release (still booked) moves to the pause
            // horizon.
            out.emit(l.pause_until(), tb_link_free(link), E::link_free(link));
            return;
        }
        debug_assert_eq!(
            l.free_at(),
            Some(now),
            "a release fires as its channel frees"
        );
        l.set_release_pending(false);
        if self.tables.is_alive(link) && l.backlog() > 0 {
            self.grant_queued(link, now, out);
        }
    }

    /// Route `pkt` out of `node`: minimal ports over the live fabric, the
    /// least-loaded candidate (backlog, plus one if the channel is held)
    /// for adaptive classes (ties to the lowest port index), the first
    /// minimal port for I/O.
    fn choose_output<E>(&self, node: NodeId, pkt: &Packet<P>, out: &Outbox<E>) -> usize {
        let t = &*self.tables;
        let links = &t.live_link_of[node.index()];
        let mut candidates = t.routes.minimal_ports(node, pkt.hops, pkt.dst);
        let chosen = if pkt.class.may_route_adaptively() {
            candidates.min_by_key(|&pi| {
                let id = links[pi];
                let link = &self.links[id];
                let held = held_until(link, id, out).is_some();
                (link.backlog() + usize::from(held), pi)
            })
        } else {
            candidates.next()
        };
        links[chosen.expect("routing dead end")]
    }

    /// Grant the head-of-queue packet on `link_id` and start its transfer.
    fn grant_queued<E: FabricEvent<P>>(
        &mut self,
        link_id: usize,
        now: SimTime,
        out: &mut Outbox<E>,
    ) {
        let Some(mid) = self.links[link_id].grant() else {
            return;
        };
        let pkt = self.take_slot(mid);
        self.transfer(link_id, now, pkt, out);
    }

    /// Start the transfer of `pkt`, just granted on `link_id`: emit its
    /// arrival, hold the channel for the transfer, and book the channel's
    /// release if another packet waits for it.
    fn transfer<E: FabricEvent<P>>(
        &mut self,
        link_id: usize,
        now: SimTime,
        mut pkt: Box<Packet<P>>,
        out: &mut Outbox<E>,
    ) {
        let l = &mut self.links[link_id];
        // A degraded link stretches everything paced by the wire — transfer
        // occupancy, serialization, and flight — by a fixed factor (1 when
        // healthy). An armed transient costs one extra transfer + flight:
        // the receiver's CRC rejects the flit and the link layer resends it.
        let stretch = l.degrade_factor();
        let retransmit = l.take_corruption();
        let backlog = l.backlog() as u32;
        let link_class = l.class;
        let to = l.to;
        let tables = &*self.tables;
        let timing = &tables.timing;
        let transfer = tables.transfer_time(pkt.bytes).saturating_mul(stretch);
        let penalty = tables.congestion_penalty(backlog);
        let serialization = if pkt.serialized {
            SimDuration::ZERO
        } else {
            pkt.serialized = true;
            transfer
        };
        let wire = timing.wire(link_class).saturating_mul(stretch);
        let resend = if retransmit {
            transfer + wire
        } else {
            SimDuration::ZERO
        };
        let occupancy = transfer
            + penalty
            + if retransmit {
                transfer
            } else {
                SimDuration::ZERO
            };
        // Per-hop latency attribution. The arrival fires at exactly
        // grant + router + wire + serialization + penalty (+ resend), so
        // these integer picosecond charges sum to the end-to-end latency
        // with no rounding; a retransmit is charged as a second
        // serialization plus a second wire flight. `enqueued_at` then moves
        // to the arrival instant, the epoch the next hop's grant wait is
        // measured from (an eviction re-route keeps accruing against it).
        pkt.hops += 1;
        pkt.acc.queued_ps += now.since(pkt.enqueued_at).as_ps();
        pkt.acc.router_ps += timing.router_latency.as_ps();
        pkt.acc.wire_ps += wire.as_ps() + if retransmit { wire.as_ps() } else { 0 };
        pkt.acc.serialization_ps +=
            serialization.as_ps() + if retransmit { transfer.as_ps() } else { 0 };
        pkt.acc.congestion_ps += penalty.as_ps();
        let arrive_at = now + timing.router_latency + wire + serialization + penalty + resend;
        pkt.enqueued_at = arrive_at;
        let (bytes, tag, uid, msg_class) = (pkt.bytes, pkt.tag, pkt.uid, pkt.class);
        let l = &mut self.links[link_id];
        l.account(msg_class, bytes, occupancy);
        l.occupy(now + occupancy);
        l.set_release_pending(backlog > 0);
        self.tickets[link_id] = Some(InFlight {
            uid,
            tag,
            arrive_at,
        });
        if let Some(h) = self.heat.as_deref_mut() {
            let at = now.as_ps();
            h.timeline
                .counter_add(at, "net.link_busy_ps", occupancy.as_ps());
            h.timeline
                .gauge_max(at, "net.peak_backlog", u64::from(backlog));
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.complete(
                msg_class.name(),
                "link",
                PID_LINKS,
                link_id as u32,
                now.as_ps(),
                occupancy.as_ps(),
                &[("tag", tag), ("backlog", u64::from(backlog))],
            );
        }
        out.emit(arrive_at, tb_arrive(uid), E::arrive(to, pkt));
        if backlog > 0 {
            out.emit(
                now + occupancy,
                tb_link_free(link_id),
                E::link_free(link_id),
            );
        }
    }
}

/// When link `id` frees up, if its channel is held at the current
/// instant: if its release, keyed `(free_at, tb_link_free(id))`, has not
/// fired — or, where none was booked, would not have fired yet.
fn held_until<E>(l: &Link, id: usize, out: &Outbox<E>) -> Option<SimTime> {
    l.free_at()
        .filter(|&free_at| !out.has_passed(free_at, tb_link_free(id)))
}

/// Every directed link of a fabric ([`RegionNet::links`]), in global
/// link-id order, for the fabric-wide reductions the load test and the
/// open-loop driver report.
pub struct FabricLinks<'a> {
    tables: &'a FabricTables,
    links: &'a [Link],
}

impl<'a> FabricLinks<'a> {
    /// The links, in global id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Link> + '_ {
        self.links.iter()
    }

    /// Mean cumulative busy time over links the tables count *live* whose
    /// direction satisfies `pred`, for interval sampling (East/West vs
    /// North/South, Fig. 24). Dead links are excluded so a wounded fabric
    /// is not averaged down by wires that cannot carry traffic.
    pub fn mean_busy_where(&self, pred: impl Fn(Option<Direction>) -> bool) -> SimDuration {
        let (sum, n) = self
            .iter()
            .enumerate()
            .filter(|&(id, l)| self.tables.is_alive(id) && pred(l.dir))
            .map(|(_, l)| l)
            .fold((SimDuration::ZERO, 0u64), |(s, n), l| {
                (s + l.busy_time(), n + 1)
            });
        if n == 0 {
            SimDuration::ZERO
        } else {
            sum / n
        }
    }

    /// Total bytes moved over links of the whole fabric.
    pub fn total_bytes(&self) -> u64 {
        self.iter().map(Link::bytes).sum()
    }

    /// Total packet grants across all output arbiters (each hop of each
    /// message is one grant).
    pub fn total_grants(&self) -> u64 {
        self.iter().map(Link::granted).sum()
    }

    /// Fabric bytes moved per message class — the protocol-traffic
    /// breakdown (data responses dominate coherence traffic).
    pub fn class_byte_totals(&self) -> [(MessageClass, u64); 5] {
        MessageClass::ALL.map(|c| (c, self.iter().map(|l| l.class_bytes(c)).sum()))
    }
}

/// The open-loop driver's events.
enum OpenEv {
    Arrive { node: NodeId, pkt: Box<Packet<()>> },
    LinkFree { link: usize },
}

impl FabricEvent<()> for OpenEv {
    fn arrive(node: NodeId, pkt: Box<Packet<()>>) -> Self {
        OpenEv::Arrive { node, pkt }
    }

    fn link_free(link: usize) -> Self {
        OpenEv::LinkFree { link }
    }
}

/// The worker of an [`OpenLoop`] run: the fabric and what landed.
struct OpenWorker {
    net: RegionNet<()>,
    delivered: Vec<Delivery>,
    /// Time of the last event handled, or of the latest link release if
    /// that is later (folded in at each drain).
    now: SimTime,
}

impl ShardWorker for OpenWorker {
    type Event = OpenEv;

    fn handle(&mut self, at: SimTime, ev: OpenEv, out: &mut Outbox<OpenEv>) {
        self.now = at;
        match ev {
            OpenEv::Arrive { node, pkt } => {
                if let Some(pkt) = self.net.handle_arrive(at, node, pkt, out) {
                    self.delivered.push(Delivery {
                        src: pkt.src,
                        dst: pkt.dst,
                        class: pkt.class,
                        bytes: pkt.bytes,
                        tag: pkt.tag,
                        uid: pkt.uid,
                        injected_at: pkt.injected_at,
                        delivered_at: at,
                        hops: pkt.hops,
                        breakdown: pkt.acc,
                    });
                }
            }
            OpenEv::LinkFree { link } => self.net.handle_link_free(at, link, out),
        }
    }
}

/// An open-loop batch driver over the fabric: inject messages,
/// [`drain`](Self::drain) to idle, then read the deliveries and the
/// fabric-wide link statistics.
///
/// It runs on the same engine as every closed loop — one
/// [`EpochExecutor`] worker over its [`FabricTables`] — so message `i` (the
/// `i`-th [`send`](Self::send)) carries uid `i`, and simultaneous events
/// order by `(time, tb_*)`, never by insertion.
///
/// # Examples
///
/// ```
/// use alphasim_net::partition::{FabricTables, OpenLoop};
/// use alphasim_net::{LinkTiming, MessageClass};
/// use alphasim_topology::route::RoutePolicy;
/// use alphasim_topology::{NodeId, Torus2D};
/// use alphasim_kernel::SimTime;
///
/// let tables = FabricTables::new(
///     &Torus2D::new(4, 4),
///     LinkTiming::ev7_torus(),
///     RoutePolicy::Minimal,
/// );
/// let mut net = OpenLoop::new(tables);
/// net.send(SimTime::ZERO, NodeId::new(0), NodeId::new(5), MessageClass::Request, 16, 7);
/// let delivered = net.drain();
/// assert_eq!(delivered.len(), 1);
/// assert_eq!((delivered[0].tag, delivered[0].hops), (7, 2));
/// ```
pub struct OpenLoop {
    exec: EpochExecutor<OpenWorker>,
    sent: u64,
}

impl OpenLoop {
    /// A driver over `tables`.
    pub fn new(tables: FabricTables) -> Self {
        let worker = OpenWorker {
            net: RegionNet::new(Arc::new(tables)),
            delivered: Vec::new(),
            now: SimTime::ZERO,
        };
        OpenLoop {
            exec: EpochExecutor::new(worker),
            sent: 0,
        }
    }

    /// The routing snapshot in force.
    pub fn tables(&self) -> &FabricTables {
        self.exec.worker().net.tables()
    }

    /// Time of the last event processed, or of the latest link release if
    /// that is later (zero before the first drain).
    pub fn now(&self) -> SimTime {
        self.exec.worker().now
    }

    /// Inject a message at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        bytes: u64,
        tag: u64,
    ) {
        let nodes = self.tables().topology().node_count();
        assert!(src.index() < nodes, "bad source");
        assert!(dst.index() < nodes, "bad destination");
        let uid = self.sent;
        self.sent += 1;
        self.exec.seed(
            at,
            tb_arrive(uid),
            OpenEv::Arrive {
                node: src,
                pkt: Packet::new(src, dst, class, bytes, tag, uid, at, ()),
            },
        );
    }

    /// Run until no events remain and return the deliveries since the
    /// last drain, in the order they fired: `(delivered_at, uid)`.
    ///
    /// Once every event has fired no channel is held, so the drain marks
    /// every link released (after folding the latest release into
    /// [`now`](Self::now)) and restarts the engine's record of handled
    /// events: a later [`send`](Self::send), at any time, finds the fabric
    /// idle.
    pub fn drain(&mut self) -> Vec<Delivery> {
        self.exec.run_until_idle();
        let w = self.exec.worker_mut();
        w.now = w.now.max(w.net.latest_release().unwrap_or(SimTime::ZERO));
        w.net.mark_released();
        let delivered = std::mem::take(&mut w.delivered);
        self.exec.forget_handled();
        delivered
    }

    /// The fabric's links, for the link-statistic reductions.
    pub fn links(&self) -> FabricLinks<'_> {
        self.exec.worker().net.links()
    }

    /// Exclusive access to directed link `id` between drains (fault
    /// studies: degrade it, or arm a flit corruption).
    pub fn link_mut(&mut self, id: usize) -> &mut Link {
        self.exec.worker_mut().net.link_mut(id)
    }

    /// Brown out `node`'s router between drains: its live outbound links
    /// stall until `until`, then drain their backlogs.
    pub fn pause_router(&mut self, node: NodeId, until: SimTime) {
        self.exec.worker_mut().net.pause_router(node, until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_kernel::fault::DEGRADE_FACTOR;
    use alphasim_kernel::DetRng;
    use alphasim_topology::Torus2D;

    fn tables_of(cols: usize, rows: usize) -> FabricTables {
        FabricTables::new(
            &Torus2D::new(cols, rows),
            LinkTiming::ev7_torus(),
            RoutePolicy::Minimal,
        )
    }

    fn tables() -> FabricTables {
        tables_of(4, 4)
    }

    fn open4x4() -> OpenLoop {
        OpenLoop::new(tables())
    }

    fn send(
        net: &mut OpenLoop,
        at: SimTime,
        src: usize,
        dst: usize,
        class: MessageClass,
        tag: u64,
    ) {
        net.send(at, NodeId::new(src), NodeId::new(dst), class, 64, tag);
    }

    #[test]
    fn a_reply_is_a_fresh_packet_back_to_the_source() {
        let n = NodeId::new;
        let t = |ns| SimTime::ZERO + SimDuration::from_ns(ns);
        let mut pkt = Packet::new(n(3), n(9), MessageClass::Request, 16, 7, 14, t(1.0), 5u8);
        // Mid-route state a delivered request carries.
        pkt.hops = 4;
        pkt.serialized = true;
        pkt.enqueued_at = t(3.0);
        pkt.acc.queued_ps = 250;
        pkt.reply(MessageClass::BlockResponse, 80, 15, t(9.0), 6);
        let fresh = Packet::new(
            n(9),
            n(3),
            MessageClass::BlockResponse,
            80,
            7,
            15,
            t(9.0),
            6u8,
        );
        assert_eq!(format!("{pkt:?}"), format!("{fresh:?}"));
        // Renewed in place, it is the fresh packet `new` would build.
        pkt.renew(n(5), n(2), MessageClass::Request, 16, 8, 20, t(12.0), 7);
        let fresh = Packet::new(n(5), n(2), MessageClass::Request, 16, 8, 20, t(12.0), 7u8);
        assert_eq!(format!("{pkt:?}"), format!("{fresh:?}"));
    }

    /// Inject a fixed five-message batch (one self-send) at time zero.
    fn send_batch(net: &mut OpenLoop) {
        for (i, (src, dst)) in [(0usize, 15usize), (3, 12), (5, 6), (14, 1), (9, 9)]
            .into_iter()
            .enumerate()
        {
            send(
                net,
                SimTime::ZERO,
                src,
                dst,
                MessageClass::Request,
                i as u64,
            );
        }
    }

    #[test]
    fn heat_accumulators_sum_exactly() {
        let mut net = open4x4();
        net.exec.worker_mut().net.enable_heat(10_000);
        send_batch(&mut net);
        net.drain();
        let heat = net.exec.worker_mut().net.take_heat();
        let heat = heat.expect("heat was enabled");
        let busy_ps: u64 = net.links().iter().map(|l| l.busy_time().as_ps()).sum();
        // All five messages landed, and only at their destinations.
        assert_eq!(heat.node_delivered.iter().sum::<u64>(), 5);
        assert_eq!(heat.node_delivered[15], 1);
        // The windowed counters partition the same totals (exact-sum), and
        // the windowed link occupancy sums to what the link meters hold.
        let totals = heat.timeline.totals();
        assert_eq!(totals.counter("net.delivered"), 5);
        assert_eq!(totals.counter("net.bytes"), 5 * 64);
        assert!(busy_ps > 0);
        assert_eq!(totals.counter("net.link_busy_ps"), busy_ps);
    }

    /// Every ordered pair of a torus, one lone packet at a time: the
    /// delivery time equals the analytic unloaded latency over the classes
    /// of the links the packet actually took (read back from the links'
    /// grant counters).
    fn lone_packets_match_unloaded_latency(cols: usize, rows: usize) {
        let mut net = OpenLoop::new(tables_of(cols, rows));
        let timing = *net.tables().timing();
        let n = cols * rows;
        let mut granted: Vec<u64> = net.links().iter().map(Link::granted).collect();
        for src in 0..n {
            for dst in (0..n).filter(|&d| d != src) {
                let at = net.now();
                send(&mut net, at, src, dst, MessageClass::Request, 0);
                let d = net.drain();
                let now: Vec<u64> = net.links().iter().map(Link::granted).collect();
                let classes: Vec<LinkClass> = (0..now.len())
                    .filter(|&id| now[id] > granted[id])
                    .map(|id| net.tables().link_meta(id).2)
                    .collect();
                granted = now;
                assert_eq!(classes.len() as u32, d[0].hops, "{src}->{dst}");
                assert_eq!(
                    d[0].latency(),
                    timing.unloaded_latency(&classes, 64),
                    "{src}->{dst} over {classes:?}"
                );
            }
        }
    }

    #[test]
    fn lone_packet_latency_is_unloaded_latency_on_4x4_and_8x8() {
        lone_packets_match_unloaded_latency(4, 4);
        lone_packets_match_unloaded_latency(8, 8);
    }

    #[test]
    fn a_lone_packet_handles_one_event_per_hop_and_no_release() {
        let mut net = open4x4();
        send(&mut net, SimTime::ZERO, 0, 10, MessageClass::Request, 0);
        let hops = net
            .tables()
            .routes
            .distance(NodeId::new(0), 0, NodeId::new(10));
        assert_eq!(hops, 4);
        // One arrival per hop plus the delivery: a channel nobody waits
        // for frees up without an event.
        let report = net.exec.run_until_idle();
        assert_eq!(report.processed, u64::from(hops) + 1);
        // Every hop found its link idle and empty, so it was granted on the
        // spot, once per hop, and never took a slab slot.
        assert_eq!(net.links().total_grants(), u64::from(hops));
        assert!(net.exec.worker().net.slab.is_empty());
    }

    /// Grants on node 0's two minimal ports toward node 2 of the 4x4
    /// torus, `(lower, higher)`, when the lower one first carries a lone
    /// packet to its neighbour and a 0 -> 2 request follows at
    /// `at(release)`, where `release` is when the lone packet frees the
    /// lower port.
    fn ports_toward_2(at: impl FnOnce(SimTime) -> SimTime) -> (u64, u64) {
        let mut net = open4x4();
        let t = net.tables();
        let from = t.live_links_from(NodeId::new(0));
        let ports: Vec<usize> = t
            .routes
            .minimal_ports(NodeId::new(0), 0, NodeId::new(2))
            .map(|p| from[p])
            .collect();
        let [low, high] = ports[..] else {
            panic!("two minimal ports expected, got {ports:?}");
        };
        let neighbour = t.link_meta(low).1.index();
        let release = SimTime::ZERO + SimDuration::transfer_time(64, t.timing().bandwidth_gbps);
        send(
            &mut net,
            SimTime::ZERO,
            0,
            neighbour,
            MessageClass::Request,
            0,
        );
        send(&mut net, at(release), 0, 2, MessageClass::Request, 1);
        net.drain();
        let links = net.links();
        (links.links[low].granted(), links.links[high].granted())
    }

    #[test]
    fn an_arrival_at_a_release_instant_sorts_before_the_release() {
        // At the very instant the lower port frees up, the arrival fires
        // first, so that port still reads held and the other one wins.
        assert_eq!(ports_toward_2(|release| release), (1, 1));
        // A picosecond later it is free again and wins the tie.
        assert_eq!(
            ports_toward_2(|release| release + SimDuration::from_ps(1)),
            (2, 0)
        );
    }

    #[test]
    fn a_drained_fabric_is_idle_at_any_send_time() {
        let mut net = open4x4();
        let timing = *net.tables().timing();
        send(&mut net, SimTime::ZERO, 0, 2, MessageClass::Io, 0);
        let first = net.drain()[0];
        // The last hop's channel frees up after the delivery, so `now()`
        // (the later of the two) lies beyond it.
        assert!(first.delivered_at < net.now());
        let links = net.links();
        let last_hop = (0..net.tables().link_count())
            .find(|&id| {
                net.tables().link_meta(id).1 == NodeId::new(2) && links.links[id].granted() > 0
            })
            .expect("the packet entered node 2");
        let (via, _, class, _) = net.tables().link_meta(last_hop);
        let lone = timing.unloaded_latency(&[class], 64);
        // A send over that channel before `now()` starts at once...
        send(
            &mut net,
            first.delivered_at,
            via.index(),
            2,
            MessageClass::Io,
            1,
        );
        assert_eq!(net.drain()[0].latency(), lone);
        // ...and so does one before the first delivery, while a second
        // packet sent with it waits exactly one transfer behind it.
        for tag in [2, 3] {
            send(
                &mut net,
                SimTime::ZERO,
                via.index(),
                2,
                MessageClass::Io,
                tag,
            );
        }
        let d = net.drain();
        assert_eq!(d[0].latency(), lone);
        let transfer = SimDuration::transfer_time(64, timing.bandwidth_gbps);
        assert_eq!(d[1].latency(), lone + transfer);
    }

    #[test]
    fn self_send_is_immediate_and_unattributed() {
        let mut net = open4x4();
        send(&mut net, SimTime::ZERO, 3, 3, MessageClass::Special, 42);
        let d = net.drain();
        assert_eq!((d[0].hops, d[0].latency()), (0, SimDuration::ZERO));
        assert_eq!(d[0].breakdown, HopBreakdown::default());
    }

    #[test]
    fn responses_overtake_queued_requests() {
        // Flood one link with requests, then send a response; it must be
        // granted at the first arbitration after it arrives.
        let mut net = open4x4();
        for i in 0..10 {
            send(&mut net, SimTime::ZERO, 0, 1, MessageClass::Request, i);
        }
        send(
            &mut net,
            SimTime::ZERO,
            0,
            1,
            MessageClass::BlockResponse,
            999,
        );
        let d = net.drain();
        let pos = d.iter().position(|x| x.tag == 999).unwrap();
        assert!(
            pos <= 1,
            "response delivered {pos} deep despite priority VCs"
        );
    }

    /// Bytes granted on the directed link `from -> to`.
    fn link_bytes(net: &OpenLoop, from: usize, to: usize) -> u64 {
        let id = net
            .tables()
            .directed_link(NodeId::new(from), NodeId::new(to))
            .unwrap();
        net.links().links[id].bytes()
    }

    #[test]
    fn adaptive_routing_uses_both_minimal_paths() {
        // 0 -> 5 has minimal first hops East (to 1) and South (to 4).
        let mut net = open4x4();
        for i in 0..20 {
            send(&mut net, SimTime::ZERO, 0, 5, MessageClass::Request, i);
        }
        net.drain();
        let (east, south) = (link_bytes(&net, 0, 1), link_bytes(&net, 0, 4));
        assert!(east > 0 && south > 0, "east={east} south={south}");
        let ratio = east as f64 / south as f64;
        assert!((0.5..=2.0).contains(&ratio), "near-even split: {ratio}");
    }

    #[test]
    fn io_routes_deterministically() {
        let mut net = open4x4();
        for i in 0..20 {
            send(&mut net, SimTime::ZERO, 0, 5, MessageClass::Io, i);
        }
        net.drain();
        let used = net
            .tables()
            .live_links_from(NodeId::new(0))
            .iter()
            .filter(|&&id| net.links().links[id].bytes() > 0)
            .count();
        assert_eq!(used, 1, "I/O must not spread");
    }

    #[test]
    fn congestion_raises_latency() {
        let mut light = open4x4();
        send(&mut light, SimTime::ZERO, 0, 2, MessageClass::Request, 0);
        let light = light.drain()[0].latency();
        let mut heavy = open4x4();
        for i in 0..200 {
            send(&mut heavy, SimTime::ZERO, 0, 2, MessageClass::Request, i);
        }
        let heavy = heavy.drain().iter().map(Delivery::latency).max().unwrap();
        assert!(
            heavy > light * 20,
            "queueing should dominate: {light} vs {heavy}"
        );
    }

    #[test]
    fn link_utilization_bounded_and_direction_filtered() {
        // Traffic only along row 0: horizontal links carry it all.
        let mut net = open4x4();
        for i in 0..100 {
            send(&mut net, SimTime::ZERO, 0, 2, MessageClass::Request, i);
        }
        assert_eq!(net.drain().len(), 100);
        let now = net.now();
        let links = net.links();
        for l in links.iter() {
            assert!((0.0..=1.0).contains(&l.utilization(now)));
        }
        // Node 0's live out-links carry its traffic: their busy time,
        // folded onto node 0, is what Xmesh's IP-link panel shows.
        let node0_busy: SimDuration = net
            .tables()
            .live_links_from(NodeId::new(0))
            .iter()
            .map(|&id| links.iter().nth(id).unwrap().busy_time())
            .sum();
        assert!(node0_busy > SimDuration::ZERO);
        assert_eq!(links.total_bytes(), 100 * 2 * 64);
        assert_eq!(links.total_grants(), 100 * 2);
        let horiz = links.mean_busy_where(|d| d.is_some_and(|d| d.is_horizontal()));
        let vert = links.mean_busy_where(|d| d.is_some_and(|d| !d.is_horizontal()));
        assert!(horiz > SimDuration::ZERO);
        assert_eq!(vert, SimDuration::ZERO);
    }

    #[test]
    fn dead_links_are_excluded_from_the_gauges() {
        // Cut 0 <-> 1, then load node 0's three surviving links: a dead
        // wire must not average node 0's or the fabric's gauges down.
        let mut t = tables();
        let dead = t.fail_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let mut net = OpenLoop::new(t);
        for (i, dst) in [3usize, 4, 12].into_iter().cycle().take(30).enumerate() {
            send(
                &mut net,
                SimTime::ZERO,
                0,
                dst,
                MessageClass::Request,
                i as u64,
            );
        }
        net.drain();
        let links = net.links();
        // Node 0's per-node busy fold (its IP-link panel cell) runs over
        // the live links it sends on: the tables' three survivors, each
        // of which carried traffic, and never the cut one.
        let tables = net.tables();
        let folded: Vec<usize> = (0..tables.link_count())
            .filter(|&id| tables.is_alive(id) && tables.link_meta(id).0 == NodeId::new(0))
            .collect();
        let mut live = tables.live_links_from(NodeId::new(0)).to_vec();
        live.sort_unstable();
        assert_eq!(folded, live);
        assert_eq!(folded.len(), 3);
        assert!(folded.iter().all(|id| !dead.contains(id)));
        assert!(folded
            .iter()
            .all(|&id| links.iter().nth(id).unwrap().busy_time() > SimDuration::ZERO));
        let alive: Vec<SimDuration> = links
            .iter()
            .enumerate()
            .filter(|(id, _)| !dead.contains(id))
            .map(|(_, l)| l.busy_time())
            .collect();
        let fabric = alive.iter().copied().sum::<SimDuration>() / alive.len() as u64;
        assert_eq!(links.mean_busy_where(|_| true), fabric);
        // Averaging the dead wires in would pull the gauge down.
        let every: SimDuration = links.iter().map(|l| l.busy_time()).sum();
        assert!(every / (links.iter().count() as u64) < fabric);
    }

    #[test]
    fn breakdown_sums_exactly_to_latency_under_congestion() {
        // Heavy contended traffic: every delivery's per-stage attribution
        // sums to its end-to-end latency in integer picoseconds — the
        // identity the fig06 decomposition rests on.
        let mut net = open4x4();
        let mut rng = DetRng::seeded(3);
        for i in 0..300u64 {
            let src = rng.index(16);
            let dst = rng.index_excluding(16, src);
            send(
                &mut net,
                SimTime::from_ps(i * 500),
                src,
                dst,
                MessageClass::Request,
                i,
            );
        }
        let deliveries = net.drain();
        assert_eq!(deliveries.len(), 300);
        for d in &deliveries {
            assert_eq!(d.breakdown.total_ps(), d.latency().as_ps(), "tag {}", d.tag);
        }
        assert!(
            deliveries
                .iter()
                .any(|d| d.breakdown.queued_ps > 0 || d.breakdown.congestion_ps > 0),
            "the flood must exercise queue/congestion stages"
        );
    }

    /// Latency of one 64 B request over the single board hop `0 -> 1`.
    fn one_hop(net: &mut OpenLoop) -> Delivery {
        let at = net.now();
        send(net, at, 0, 1, MessageClass::Request, 0);
        net.drain()[0]
    }

    #[test]
    fn degraded_link_stretches_wire_and_serialization_only() {
        let timing = LinkTiming::ev7_torus();
        let healthy = one_hop(&mut open4x4()).latency();
        let mut net = open4x4();
        let id = net
            .tables()
            .directed_link(NodeId::new(0), NodeId::new(1))
            .unwrap();
        net.link_mut(id).set_degrade(DEGRADE_FACTOR);
        let d = one_hop(&mut net);
        let expect = timing.router_latency
            + (healthy - timing.router_latency).saturating_mul(DEGRADE_FACTOR);
        assert_eq!(d.latency(), expect);
        assert_eq!(d.breakdown.total_ps(), d.latency().as_ps());
        // Healing restores full speed without a topology rebuild.
        net.link_mut(id).set_degrade(1);
        assert_eq!(one_hop(&mut net).latency(), healthy);
    }

    #[test]
    fn crc_retransmit_costs_one_extra_transfer_and_flight() {
        let timing = LinkTiming::ev7_torus();
        let healthy = one_hop(&mut open4x4()).latency();
        let mut net = open4x4();
        let id = net
            .tables()
            .directed_link(NodeId::new(0), NodeId::new(1))
            .unwrap();
        net.link_mut(id).arm_corruption();
        let d = one_hop(&mut net);
        // Resend = transfer + wire = healthy minus the router pipeline.
        assert_eq!(d.latency(), healthy + (healthy - timing.router_latency));
        assert_eq!(d.breakdown.total_ps(), d.latency().as_ps());
        assert_eq!(net.links().links[id].crc_retransmits(), 1);
        // The transient fires once; the next flit flies clean.
        assert_eq!(one_hop(&mut net).latency(), healthy);
        assert_eq!(net.links().links[id].crc_retransmits(), 1);
    }

    #[test]
    fn router_pause_stalls_departures_until_the_window_lifts() {
        let pause = SimTime::ZERO + SimDuration::from_ns(200.0);
        let mut net = open4x4();
        net.pause_router(NodeId::new(0), pause);
        for i in 0..10 {
            send(&mut net, SimTime::ZERO, 0, 1, MessageClass::Request, i);
        }
        let d = net.drain();
        assert_eq!(d.len(), 10);
        for x in &d {
            assert!(
                x.delivered_at >= pause,
                "delivery at {} beat the pause",
                x.delivered_at
            );
            assert_eq!(x.breakdown.total_ps(), x.latency().as_ps(), "tag {}", x.tag);
        }
    }

    #[test]
    fn failing_a_link_reroutes_and_restores() {
        let mut master = tables();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let ids = master.fail_link(a, b).expect("first failure applies");
        assert!(!master.is_alive(ids[0]));
        assert_eq!(master.routes.distance(a, 0, b), 3, "0 -> 1 detours");
        assert_eq!(
            master.fail_link(a, b),
            Err(FaultError::AlreadyInState { a, b, alive: false })
        );
        master.revive_link(a, b).expect("revive applies");
        assert!(master.is_alive(ids[0]));
        assert_eq!(master.routes.distance(a, 0, b), 1);
        assert_eq!(
            master.revive_link(a, b),
            Err(FaultError::AlreadyInState { a, b, alive: true })
        );
        assert_eq!(
            master.fail_link(a, NodeId::new(10)),
            Err(FaultError::NoSuchLink {
                a,
                b: NodeId::new(10)
            })
        );
    }

    #[test]
    fn partitioning_failure_is_rejected_and_rolled_back() {
        // Cut three of node 0's four links, then demand the fourth: that
        // would sever node 0 and must be refused with the tables intact.
        let mut master = tables();
        for to in [1usize, 3, 4] {
            master
                .fail_link(NodeId::new(0), NodeId::new(to))
                .expect("fabric survives");
        }
        assert!(matches!(
            master.fail_link(NodeId::new(0), NodeId::new(12)),
            Err(FaultError::Partitioned { .. })
        ));
        // The rollback leaves the last link routable: node 0 still sends,
        // detouring through node 12.
        let ids = master.link_ids(NodeId::new(0), NodeId::new(12)).unwrap();
        assert!(master.is_alive(ids[0]) && master.is_alive(ids[1]));
        let mut net = OpenLoop::new(master);
        send(&mut net, SimTime::ZERO, 0, 5, MessageClass::Request, 7);
        assert!(net.drain()[0].hops >= 3, "must detour through node 12");
    }

    #[test]
    fn ticket_records_the_granted_packet() {
        // Two packets reach node 0's one link toward node 1 at the same
        // instant: the first (lower uid) finds it idle and empty and is
        // granted at once; the second queues and goes one transfer later.
        let mut net = open4x4();
        send(&mut net, SimTime::ZERO, 0, 1, MessageClass::Request, 42);
        send(&mut net, SimTime::ZERO, 0, 1, MessageClass::Request, 43);
        let d = net.drain();
        let id = net
            .tables()
            .directed_link(NodeId::new(0), NodeId::new(1))
            .unwrap();
        let transfer = SimDuration::transfer_time(64, net.tables().timing().bandwidth_gbps);
        assert_eq!([d[0].tag, d[1].tag], [42, 43], "granted in arrival order");
        assert_eq!(d[1].delivered_at, d[0].delivered_at + transfer);
        assert_eq!(net.links().total_grants(), 2);
        // The ticket names the packet granted last; the slab holds the one
        // slot the queued packet took.
        let fabric = &net.exec.worker().net;
        let ticket = fabric.in_flight_ticket(id).expect("granted");
        assert_eq!((ticket.uid, ticket.tag), (d[1].uid, 43));
        assert_eq!(ticket.arrive_at, d[1].delivered_at);
        assert_eq!(fabric.slab.len(), 1);
    }

    #[test]
    fn packet_slab_recycles_slots_across_waves() {
        // Twenty waves of 50 packets from one corner: the slab stays one
        // wave deep, and every recycled slot delivers its own packet.
        let mut net = open4x4();
        for wave in 0..20u64 {
            let at = net.now();
            for i in 0..50u64 {
                let tag = wave * 50 + i;
                let dst = 1 + (tag % 15) as usize;
                send(&mut net, at, 0, dst, MessageClass::Request, tag);
            }
            let d = net.drain();
            assert_eq!(d.len(), 50);
            for x in &d {
                assert_eq!(x.dst.index(), 1 + (x.tag % 15) as usize, "tag {}", x.tag);
            }
        }
        let slab = net.exec.worker().net.slab.len();
        assert!(slab <= 50, "slab grew to {slab} slots");
    }

    #[test]
    fn the_materialized_graph_matches_its_source() {
        let torus = Torus2D::new(4, 2);
        let g = FabricGraph::of(&torus);
        assert_eq!(g.name(), torus.name());
        assert_eq!(g.endpoints(), torus.endpoints());
        for n in 0..torus.node_count() {
            let node = NodeId::new(n);
            assert_eq!(g.ports(node), torus.ports(node));
            assert_eq!(g.coord(node), torus.coord(node));
        }
    }
}
