//! Seeded fault-schedule fuzzing: random [`FaultPlan`] generation, legality
//! validation, and candidate shrinking.
//!
//! The chaos engine (`alphasim_system::chaos`) drives closed-loop fault
//! campaigns under randomized schedules. This module owns the parts that are
//! pure schedule algebra and therefore belong in the kernel:
//!
//! * [`SiteCatalog`] — the fault sites of one machine (node indices and
//!   undirected links), expressed as plain `usize`s because the kernel sits
//!   below the topology crate;
//! * [`ChaosConfig`] — the distribution a plan is drawn from (fault count,
//!   strike window, burst structure, per-kind weights);
//! * [`ChaosConfig::generate`] — a seeded generator that only emits *legal*
//!   schedules (no double-kills, no partitions, repairs only after damage);
//! * [`validate_plan`] — the same legality rules as a checker: the one
//!   rule book every fault campaign checks its plan against before the
//!   first event, and the filter for shrink candidates and reproducers
//!   loaded from disk;
//! * [`shrink_candidates`] — the QuickCheck-style transformations (drop
//!   faults, merge/advance times, shrink sites) the shrinker searches when
//!   minimizing a violating schedule.
//!
//! Everything here is deterministic: the same `(config, seed, catalog)`
//! triple always yields the same plan, and shrink candidates come out in a
//! fixed order.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Maximum RDRAM channels a plan may have failed at one node at a time —
/// the Zbox models a redundant channel plus head-room, and
/// [`validate_plan`] refuses a plan that would strip a node bare.
pub const MAX_CHANNEL_FAULTS_PER_NODE: u32 = 2;

/// The fault sites of one machine: which node indices exist and which
/// undirected links connect them. Produced at the system layer (which can
/// see the topology) and consumed here for generation and validation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCatalog {
    /// Every node index, ascending.
    pub nodes: Vec<usize>,
    /// Every undirected link as `(a, b)` with `a < b`, ascending.
    pub links: Vec<(usize, usize)>,
}

impl SiteCatalog {
    /// A catalog over `nodes` and `links`, normalized (sorted, deduplicated,
    /// endpoints ordered).
    pub fn new(nodes: Vec<usize>, links: Vec<(usize, usize)>) -> Self {
        let mut nodes = nodes;
        nodes.sort_unstable();
        nodes.dedup();
        let mut links: Vec<(usize, usize)> = links
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        links.sort_unstable();
        links.dedup();
        SiteCatalog { nodes, links }
    }
}

/// The fault kinds the generator can draw, in weight-array order.
pub const CHAOS_KINDS: usize = 9;

/// Per-kind draw weights for [`ChaosConfig`]; index with [`KindSlot`].
pub type KindWeights = [u32; CHAOS_KINDS];

/// Index of each fault kind in a [`KindWeights`] array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindSlot {
    /// Weight of [`FaultKind::LinkDown`].
    LinkDown = 0,
    /// Weight of [`FaultKind::LinkUp`].
    LinkUp = 1,
    /// Weight of [`FaultKind::LinkDegrade`].
    LinkDegrade = 2,
    /// Weight of [`FaultKind::FlitCorrupt`].
    FlitCorrupt = 3,
    /// Weight of [`FaultKind::NodeDrain`].
    NodeDrain = 4,
    /// Weight of [`FaultKind::NodeUndrain`].
    NodeUndrain = 5,
    /// Weight of [`FaultKind::RouterPause`].
    RouterPause = 6,
    /// Weight of [`FaultKind::ChannelDown`].
    ChannelDown = 7,
    /// Weight of [`FaultKind::ChannelUp`].
    ChannelUp = 8,
}

const ALL_SLOTS: [KindSlot; CHAOS_KINDS] = [
    KindSlot::LinkDown,
    KindSlot::LinkUp,
    KindSlot::LinkDegrade,
    KindSlot::FlitCorrupt,
    KindSlot::NodeDrain,
    KindSlot::NodeUndrain,
    KindSlot::RouterPause,
    KindSlot::ChannelDown,
    KindSlot::ChannelUp,
];

/// The distribution chaos plans are drawn from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Fewest faults per plan.
    pub min_faults: usize,
    /// Most faults per plan.
    pub max_faults: usize,
    /// Burst starts are spread across this window (bursts may spill a little
    /// past the end; strike times stay strictly increasing).
    pub window: (SimTime, SimTime),
    /// Most faults per burst (clusters of tightly spaced strikes).
    pub burst: usize,
    /// Spacing between strikes inside one burst.
    pub burst_gap: SimDuration,
    /// Router pause lengths are drawn uniformly from this range.
    pub pause: (SimDuration, SimDuration),
    /// Relative draw weight of each fault kind ([`KindSlot`] order); a zero
    /// weight disables the kind.
    pub weights: KindWeights,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            min_faults: 3,
            max_faults: 8,
            window: (
                SimTime::ZERO + SimDuration::from_us(1.0),
                SimTime::ZERO + SimDuration::from_us(40.0),
            ),
            burst: 3,
            burst_gap: SimDuration::from_ns(50.0),
            pause: (SimDuration::from_ns(100.0), SimDuration::from_us(2.0)),
            // Damage outweighs repair so schedules stay adversarial, but
            // every kind (including the transients) stays in the mix.
            weights: [6, 4, 3, 4, 4, 3, 3, 3, 2],
        }
    }
}

/// Running legality state while generating or validating a schedule.
#[derive(Debug, Clone)]
struct SiteState<'a> {
    catalog: &'a SiteCatalog,
    /// Indices into `catalog.links` that are currently dead.
    dead: BTreeSet<usize>,
    /// Indices into `catalog.links` that are currently degraded.
    degraded: BTreeSet<usize>,
    drained: BTreeSet<usize>,
    chan_failed: BTreeMap<usize, u32>,
}

impl<'a> SiteState<'a> {
    fn new(catalog: &'a SiteCatalog) -> Self {
        SiteState {
            catalog,
            dead: BTreeSet::new(),
            degraded: BTreeSet::new(),
            drained: BTreeSet::new(),
            chan_failed: BTreeMap::new(),
        }
    }

    fn link_index(&self, a: usize, b: usize) -> Option<usize> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.catalog.links.binary_search(&key).ok()
    }

    /// Whether the live fabric stays connected with `extra_dead` also cut.
    fn connected_without(&self, extra_dead: Option<usize>) -> bool {
        if self.catalog.nodes.is_empty() {
            return true;
        }
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &(a, b)) in self.catalog.links.iter().enumerate() {
            if self.dead.contains(&i) || extra_dead == Some(i) {
                continue;
            }
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let start = self.catalog.nodes[0];
        let mut seen = BTreeSet::new();
        let mut frontier = vec![start];
        seen.insert(start);
        while let Some(n) = frontier.pop() {
            for &m in adj.get(&n).into_iter().flatten() {
                if seen.insert(m) {
                    frontier.push(m);
                }
            }
        }
        self.catalog.nodes.iter().all(|n| seen.contains(n))
    }

    /// Apply one fault, or explain why it is illegal from this state.
    fn apply(&mut self, kind: FaultKind) -> Result<(), String> {
        match kind {
            FaultKind::LinkDown { a, b } => {
                let i = self
                    .link_index(a, b)
                    .ok_or_else(|| format!("no such link {a}<->{b}"))?;
                if self.dead.contains(&i) {
                    return Err(format!("link {a}<->{b} is already down"));
                }
                if !self.connected_without(Some(i)) {
                    return Err(format!("cutting link {a}<->{b} would partition the fabric"));
                }
                self.dead.insert(i);
                Ok(())
            }
            FaultKind::LinkUp { a, b } => {
                let i = self
                    .link_index(a, b)
                    .ok_or_else(|| format!("no such link {a}<->{b}"))?;
                // A repair heals the cut and the degradation alike.
                let (was_dead, was_degraded) = (self.dead.remove(&i), self.degraded.remove(&i));
                if was_dead || was_degraded {
                    Ok(())
                } else {
                    Err(format!("link {a}<->{b} is already healthy"))
                }
            }
            FaultKind::LinkDegrade { a, b } => {
                let i = self
                    .link_index(a, b)
                    .ok_or_else(|| format!("no such link {a}<->{b}"))?;
                if self.dead.contains(&i) {
                    return Err(format!("cannot degrade dead link {a}<->{b}"));
                }
                if !self.degraded.insert(i) {
                    return Err(format!("link {a}<->{b} is already degraded"));
                }
                Ok(())
            }
            FaultKind::FlitCorrupt { from, to } => {
                let i = self
                    .link_index(from, to)
                    .ok_or_else(|| format!("no such link {from}->{to}"))?;
                if self.dead.contains(&i) {
                    return Err(format!("cannot corrupt a flit on dead link {from}->{to}"));
                }
                Ok(())
            }
            FaultKind::NodeDrain { node } => {
                if self.catalog.nodes.binary_search(&node).is_err() {
                    return Err(format!("no such node {node}"));
                }
                if !self.drained.insert(node) {
                    return Err(format!("node {node} is already drained"));
                }
                // Keep a majority of sources alive so runs stay meaningful.
                if self.drained.len() * 2 > self.catalog.nodes.len() {
                    self.drained.remove(&node);
                    return Err("more than half the nodes would be drained".to_string());
                }
                Ok(())
            }
            FaultKind::NodeUndrain { node } => {
                if self.drained.remove(&node) {
                    Ok(())
                } else {
                    Err(format!("node {node} is not drained"))
                }
            }
            FaultKind::RouterPause { node, ps } => {
                if self.catalog.nodes.binary_search(&node).is_err() {
                    return Err(format!("no such node {node}"));
                }
                if ps == 0 {
                    return Err("zero-length router pause".to_string());
                }
                Ok(())
            }
            FaultKind::ChannelDown { node } => {
                if self.catalog.nodes.binary_search(&node).is_err() {
                    return Err(format!("no such node {node}"));
                }
                let n = self.chan_failed.entry(node).or_insert(0);
                if *n >= MAX_CHANNEL_FAULTS_PER_NODE {
                    return Err(format!("node {node} already lost {n} RDRAM channels"));
                }
                *n += 1;
                Ok(())
            }
            FaultKind::ChannelUp { node } => match self.chan_failed.get_mut(&node) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    Ok(())
                }
                _ => Err(format!("node {node} has no failed RDRAM channel")),
            },
        }
    }

    /// Candidate sites for `slot` from this state (empty = kind illegal now).
    fn candidates(&self, slot: KindSlot) -> Vec<FaultKind> {
        match slot {
            KindSlot::LinkDown => self
                .catalog
                .links
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    !self.dead.contains(i)
                        && !self.degraded.contains(i)
                        && self.connected_without(Some(*i))
                })
                .map(|(_, &(a, b))| FaultKind::LinkDown { a, b })
                .collect(),
            KindSlot::LinkUp => self
                .catalog
                .links
                .iter()
                .enumerate()
                .filter(|(i, _)| self.dead.contains(i) || self.degraded.contains(i))
                .map(|(_, &(a, b))| FaultKind::LinkUp { a, b })
                .collect(),
            KindSlot::LinkDegrade => self
                .catalog
                .links
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.dead.contains(i) && !self.degraded.contains(i))
                .map(|(_, &(a, b))| FaultKind::LinkDegrade { a, b })
                .collect(),
            KindSlot::FlitCorrupt => self
                .catalog
                .links
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.dead.contains(i))
                .flat_map(|(_, &(a, b))| {
                    [
                        FaultKind::FlitCorrupt { from: a, to: b },
                        FaultKind::FlitCorrupt { from: b, to: a },
                    ]
                })
                .collect(),
            KindSlot::NodeDrain => {
                if (self.drained.len() + 1) * 2 > self.catalog.nodes.len() {
                    return Vec::new();
                }
                self.catalog
                    .nodes
                    .iter()
                    .filter(|n| !self.drained.contains(n))
                    .map(|&node| FaultKind::NodeDrain { node })
                    .collect()
            }
            KindSlot::NodeUndrain => self
                .drained
                .iter()
                .map(|&node| FaultKind::NodeUndrain { node })
                .collect(),
            KindSlot::RouterPause => self
                .catalog
                .nodes
                .iter()
                .map(|&node| FaultKind::RouterPause { node, ps: 1 })
                .collect(),
            KindSlot::ChannelDown => self
                .catalog
                .nodes
                .iter()
                .filter(|n| {
                    self.chan_failed.get(n).copied().unwrap_or(0) < MAX_CHANNEL_FAULTS_PER_NODE
                })
                .map(|&node| FaultKind::ChannelDown { node })
                .collect(),
            KindSlot::ChannelUp => self
                .chan_failed
                .iter()
                .filter(|(_, &n)| n > 0)
                .map(|(&node, _)| FaultKind::ChannelUp { node })
                .collect(),
        }
    }
}

impl ChaosConfig {
    /// Draw one legal schedule from this distribution.
    ///
    /// The same `(self, seed, catalog)` always yields the same plan. Strike
    /// times are strictly increasing (bursts use `burst_gap` spacing), and
    /// every emitted fault is legal in sequence: links only die while the
    /// fabric stays connected, repairs only follow damage, at most
    /// [`MAX_CHANNEL_FAULTS_PER_NODE`] channel losses accumulate per node.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or the config window/bounds are
    /// inverted.
    pub fn generate(&self, seed: u64, catalog: &SiteCatalog) -> FaultPlan {
        assert!(!catalog.nodes.is_empty(), "catalog has no nodes");
        assert!(self.min_faults <= self.max_faults, "inverted fault bounds");
        assert!(self.window.0 < self.window.1, "inverted strike window");
        let mut rng = DetRng::seeded(seed ^ 0xC4A0_5EED).split(seed);
        let count = self.min_faults + rng.index(self.max_faults - self.min_faults + 1);
        let span_ps = self.window.1.since(self.window.0).as_ps();
        let mut st = SiteState::new(catalog);
        let mut plan = FaultPlan::new();
        let mut t = self.window.0;
        // A skewed config can exhaust its legal moves early (e.g. all weight
        // on LinkDown once the fabric is one cut from partition); give up
        // after enough consecutive dry draws rather than spin.
        let mut dry_draws = 0usize;
        while plan.len() < count && dry_draws < 16 {
            // Jump forward to the next burst start...
            let max_gap = (span_ps / (count as u64 + 1)).max(1) as usize;
            t += SimDuration::from_ps(1 + rng.index(max_gap) as u64);
            // ...then strike up to `burst` times at tight spacing.
            let burst = (1 + rng.index(self.burst.max(1))).min(count - plan.len());
            for _ in 0..burst {
                match self.draw_kind(&mut rng, &mut st) {
                    Some(kind) => {
                        dry_draws = 0;
                        plan.push(t, kind);
                    }
                    None => dry_draws += 1,
                }
                t += self.burst_gap.max(SimDuration::from_ps(1));
            }
        }
        plan
    }

    /// Pick one legal fault by weighted kind draw, or `None` if nothing is
    /// currently legal (e.g. all weights on repairs with no damage yet).
    fn draw_kind(&self, rng: &mut DetRng, st: &mut SiteState<'_>) -> Option<FaultKind> {
        let mut pool: Vec<(KindSlot, Vec<FaultKind>)> = Vec::new();
        let mut total: u64 = 0;
        for slot in ALL_SLOTS {
            let w = self.weights[slot as usize];
            if w == 0 {
                continue;
            }
            let sites = st.candidates(slot);
            if sites.is_empty() {
                continue;
            }
            total += u64::from(w);
            pool.push((slot, sites));
        }
        if total == 0 {
            return None;
        }
        let mut draw = rng.index(total as usize) as u64;
        for (slot, sites) in pool {
            let w = u64::from(self.weights[slot as usize]);
            if draw >= w {
                draw -= w;
                continue;
            }
            let mut kind = sites[rng.index(sites.len())];
            if let FaultKind::RouterPause { node, .. } = kind {
                let lo = self.pause.0.as_ps().max(1);
                let hi = self.pause.1.as_ps().max(lo + 1);
                let ps = lo + rng.index((hi - lo) as usize) as u64;
                kind = FaultKind::RouterPause { node, ps };
            }
            // Candidates are pre-filtered, so this only rejects the rare
            // stateful interaction (e.g. drain quota raced by the draw).
            return match st.apply(kind) {
                Ok(()) => Some(kind),
                Err(_) => None,
            };
        }
        None
    }
}

/// Check a plan against the same legality rules the generator obeys.
///
/// This is the simulator's only fault rule book. Every fault campaign
/// checks its plan here before the first event and refuses an illegal one
/// with the rule's message, so every strike that reaches the engine is
/// legal by construction. The chaos engine also filters shrink candidates
/// with it, and vets reproducers loaded from disk before it builds a
/// campaign, so a damaged file is an error rather than a panic.
///
/// # Errors
///
/// The first rule a strike breaks, prefixed with its time: a plan out of
/// time order, a site the catalog lacks, a cut of a dead link or one that
/// would partition the fabric, a repair of a healthy link or channel, a
/// degradation of a dead or degraded link, a flit corruption on a dead
/// link, a second drain of a node or a drain of more than half the nodes,
/// an undrain of a node that is not drained, a zero-length router pause,
/// or a channel loss beyond [`MAX_CHANNEL_FAULTS_PER_NODE`].
pub fn validate_plan(catalog: &SiteCatalog, plan: &FaultPlan) -> Result<(), String> {
    let mut st = SiteState::new(catalog);
    let mut last: Option<SimTime> = None;
    for e in plan.events() {
        if let Some(prev) = last {
            if e.at < prev {
                return Err("plan is not time-sorted".to_string());
            }
        }
        last = Some(e.at);
        st.apply(e.kind)
            .map_err(|why| format!("at {}: {}", e.at, why))?;
    }
    Ok(())
}

/// The shrink transformations, in the order the shrinker tries them:
///
/// 1. drop one fault (later faults first — repairs depend on earlier damage,
///    so dropping from the tail is most likely to stay legal);
/// 2. keep only the first or second half;
/// 3. advance/merge times onto a compressed 100 ns grid from the first
///    strike;
/// 4. shrink each fault's site to the catalog's smallest legal site.
///
/// Only legal candidates (per [`validate_plan`]) that differ from `plan`
/// are returned, in deterministic order.
pub fn shrink_candidates(plan: &FaultPlan, catalog: &SiteCatalog) -> Vec<FaultPlan> {
    let evs = plan.events();
    let mut out: Vec<FaultPlan> = Vec::new();
    let push_if_valid = |cand: Vec<FaultEvent>, out: &mut Vec<FaultPlan>| {
        let cand = FaultPlan::from_events(cand);
        if cand != *plan && validate_plan(catalog, &cand).is_ok() && !out.contains(&cand) {
            out.push(cand);
        }
    };
    // 1. Drop one fault.
    for i in (0..evs.len()).rev() {
        let mut cand = evs.to_vec();
        cand.remove(i);
        push_if_valid(cand, &mut out);
    }
    // 2. Halves.
    if evs.len() >= 2 {
        let mid = evs.len() / 2;
        push_if_valid(evs[..mid].to_vec(), &mut out);
        push_if_valid(evs[mid..].to_vec(), &mut out);
    }
    // 3. Compress times onto a 100 ns grid starting at the first strike.
    if let Some(first) = evs.first() {
        let grid = SimDuration::from_ns(100.0);
        let cand: Vec<FaultEvent> = evs
            .iter()
            .enumerate()
            .map(|(i, e)| FaultEvent {
                at: first.at + grid.saturating_mul(i as u64),
                kind: e.kind,
            })
            .collect();
        push_if_valid(cand, &mut out);
    }
    // 4. Shrink sites toward the catalog's smallest.
    for i in 0..evs.len() {
        let small = smallest_site(evs[i].kind, catalog);
        if small != evs[i].kind {
            let mut cand = evs.to_vec();
            cand[i] = FaultEvent {
                at: cand[i].at,
                kind: small,
            };
            push_if_valid(cand, &mut out);
        }
    }
    out
}

/// The same fault kind moved to the catalog's smallest site (first node /
/// first link). Pause lengths also shrink to 1 ns.
fn smallest_site(kind: FaultKind, catalog: &SiteCatalog) -> FaultKind {
    let first_link = catalog.links.first().copied();
    let first_node = catalog.nodes.first().copied();
    match (kind, first_link, first_node) {
        (FaultKind::LinkDown { .. }, Some((a, b)), _) => FaultKind::LinkDown { a, b },
        (FaultKind::LinkUp { .. }, Some((a, b)), _) => FaultKind::LinkUp { a, b },
        (FaultKind::LinkDegrade { .. }, Some((a, b)), _) => FaultKind::LinkDegrade { a, b },
        (FaultKind::FlitCorrupt { .. }, Some((a, b)), _) => {
            FaultKind::FlitCorrupt { from: a, to: b }
        }
        (FaultKind::NodeDrain { .. }, _, Some(node)) => FaultKind::NodeDrain { node },
        (FaultKind::NodeUndrain { .. }, _, Some(node)) => FaultKind::NodeUndrain { node },
        (FaultKind::RouterPause { .. }, _, Some(node)) => FaultKind::RouterPause {
            node,
            ps: SimDuration::from_ns(1.0).as_ps(),
        },
        (FaultKind::ChannelDown { .. }, _, Some(node)) => FaultKind::ChannelDown { node },
        (FaultKind::ChannelUp { .. }, _, Some(node)) => FaultKind::ChannelUp { node },
        (other, _, _) => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-ring plus one chord: small enough to reason about, cyclic enough
    /// that single cuts never partition.
    fn ring4() -> SiteCatalog {
        SiteCatalog::new(
            vec![0, 1, 2, 3],
            vec![(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        )
    }

    #[test]
    fn generation_is_deterministic_and_legal() {
        let cfg = ChaosConfig::default();
        let cat = ring4();
        for seed in 0..40u64 {
            let a = cfg.generate(seed, &cat);
            let b = cfg.generate(seed, &cat);
            assert_eq!(a, b, "seed {seed} must regenerate identically");
            assert!(!a.is_empty(), "seed {seed} produced an empty plan");
            assert!(a.len() <= cfg.max_faults);
            validate_plan(&cat, &a).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for w in a.events().windows(2) {
                assert!(w[0].at <= w[1].at);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ChaosConfig::default();
        let cat = ring4();
        let distinct: BTreeSet<String> = (0..20u64)
            .map(|s| format!("{:?}", cfg.generate(s, &cat)))
            .collect();
        assert!(distinct.len() > 15, "seeds should explore the space");
    }

    #[test]
    fn all_kinds_eventually_appear() {
        let cfg = ChaosConfig {
            min_faults: 8,
            max_faults: 12,
            ..ChaosConfig::default()
        };
        let cat = ring4();
        fn slot_of(kind: &FaultKind) -> usize {
            match kind {
                FaultKind::LinkDown { .. } => 0,
                FaultKind::LinkUp { .. } => 1,
                FaultKind::LinkDegrade { .. } => 2,
                FaultKind::FlitCorrupt { .. } => 3,
                FaultKind::NodeDrain { .. } => 4,
                FaultKind::NodeUndrain { .. } => 5,
                FaultKind::RouterPause { .. } => 6,
                FaultKind::ChannelDown { .. } => 7,
                FaultKind::ChannelUp { .. } => 8,
            }
        }
        let mut seen = BTreeSet::new();
        for seed in 0..200u64 {
            for e in cfg.generate(seed, &cat).events() {
                seen.insert(slot_of(&e.kind));
            }
        }
        assert_eq!(seen.len(), CHAOS_KINDS, "every fault kind must be drawn");
    }

    #[test]
    fn validator_rejects_illegal_sequences() {
        let cat = ring4();
        let t0 = SimTime::ZERO + SimDuration::from_ns(10.0);
        // Double-kill.
        let mut plan = FaultPlan::new();
        plan.push(t0, FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(
            t0 + SimDuration::from_ns(1.0),
            FaultKind::LinkDown { a: 0, b: 1 },
        );
        assert!(validate_plan(&cat, &plan).is_err());
        // Repair before damage.
        let mut plan = FaultPlan::new();
        plan.push(t0, FaultKind::ChannelUp { node: 0 });
        assert!(validate_plan(&cat, &plan).is_err());
        // Unknown site.
        let mut plan = FaultPlan::new();
        plan.push(t0, FaultKind::NodeDrain { node: 99 });
        assert!(validate_plan(&cat, &plan).is_err());
        // Heal twice: a repair of a degraded, then cut, link heals both
        // at once, so a second repair finds it healthy.
        let ns = |n: u64| t0 + SimDuration::from_ns(100.0) * n;
        let mut plan = FaultPlan::new();
        plan.push(ns(0), FaultKind::LinkDegrade { a: 0, b: 1 });
        plan.push(ns(1), FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(ns(2), FaultKind::LinkUp { a: 0, b: 1 });
        let mut twice = plan.clone();
        twice.push(ns(3), FaultKind::LinkUp { a: 0, b: 1 });
        assert_eq!(
            validate_plan(&cat, &twice),
            Err(format!("at {}: link 0<->1 is already healthy", ns(3)))
        );
        // ...and the healed link may degrade again.
        plan.push(ns(3), FaultKind::LinkDegrade { a: 0, b: 1 });
        assert_eq!(validate_plan(&cat, &plan), Ok(()));
        // Partition: cut the chord and three ring links so node 3 isolates.
        let mut plan = FaultPlan::new();
        for (i, (a, b)) in [(0, 2), (2, 3), (0, 3)].into_iter().enumerate() {
            plan.push(
                t0 + SimDuration::from_ns(i as f64),
                FaultKind::LinkDown { a, b },
            );
        }
        assert!(validate_plan(&cat, &plan).is_err());
    }

    #[test]
    fn generator_never_partitions() {
        // Weights forced entirely onto LinkDown: the generator must stop
        // cutting before the fabric separates.
        let cfg = ChaosConfig {
            min_faults: 10,
            max_faults: 10,
            weights: [1, 0, 0, 0, 0, 0, 0, 0, 0],
            ..ChaosConfig::default()
        };
        let cat = ring4();
        for seed in 0..20u64 {
            let plan = cfg.generate(seed, &cat);
            validate_plan(&cat, &plan).expect("generated plan must stay connected");
            // 5 links, spanning tree needs 3, so at most 2 can die.
            assert!(plan.len() <= 2, "seed {seed} cut too deep: {plan:?}");
        }
    }

    #[test]
    fn shrink_candidates_are_legal_smaller_or_simpler() {
        let cfg = ChaosConfig::default();
        let cat = ring4();
        let plan = cfg.generate(11, &cat);
        let cands = shrink_candidates(&plan, &cat);
        assert!(!cands.is_empty(), "a non-trivial plan must have candidates");
        for cand in &cands {
            assert_ne!(cand, &plan);
            assert!(cand.len() <= plan.len());
            validate_plan(&cat, cand).expect("candidates must be legal");
        }
    }

    #[test]
    fn shrinking_reaches_a_fixed_point() {
        let cfg = ChaosConfig::default();
        let cat = ring4();
        let mut plan = cfg.generate(3, &cat);
        // Always adopt the first candidate: must terminate (no cycles).
        for _ in 0..200 {
            let cands = shrink_candidates(&plan, &cat);
            match cands.into_iter().next() {
                Some(next) => plan = next,
                None => return,
            }
        }
        panic!("shrinker cycled without reaching a fixed point");
    }
}
