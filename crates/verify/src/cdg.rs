//! Channel-dependency-graph deadlock analyzer.
//!
//! Dally & Seitz: a routing function is deadlock-free iff its channel
//! dependency graph (CDG) is acyclic. This module builds the *full* CDG of
//! the escape network — one vertex per (directed physical link, dateline
//! virtual channel, coherence class) triple — from the actual routing
//! functions in `alphasim-topology`, adds the cross-class protocol edges of
//! [`MessageClass::may_generate`], and searches it for cycles, reporting the
//! offending channel sequence when one exists.
//!
//! Two kinds of dependency edge:
//!
//! * **Routing edges**: a packet holding channel `a` waits for channel `b`
//!   when `b` is the next hop of some route — every consecutive hop pair of
//!   every (src, dst) path, per class (classes ride disjoint VC lanes, so a
//!   routing edge never crosses classes).
//! * **Protocol edges**: a class-`c` packet arriving at node `v` can cause
//!   the protocol to emit a class-`c'` packet from `v` (`c'` in
//!   `c.may_generate()`), so every final hop of a `c`-route into `v`
//!   depends on every first hop of a `c'`-route out of `v`. The Io → Io
//!   self-generation edge is deliberately excluded: an Io packet is
//!   consumed at its endpoint and the reply is a fresh injection behind the
//!   endpoint's sink buffer, so it cannot hold fabric channels while
//!   waiting — including it would manufacture cycles no real dependency
//!   creates.
//!
//! Healthy tori route with the dimension-order + dateline-VC escape
//! function ([`escape_path`]); degraded (link-cut) fabrics route up*/down*
//! ([`UpDownRoutes`]), which works on any connected graph. The sweep
//! drivers enumerate every single and double link cut the fault campaigns
//! can produce and re-verify each one.

use std::collections::{BTreeMap, BTreeSet};

use alphasim_net::MessageClass;
use alphasim_topology::graph::DistanceMatrix;
use alphasim_topology::route::{escape_path, EscapeChannel};
use alphasim_topology::{Degraded, NodeId, Topology, Torus2D, UpDownError, UpDownRoutes};

/// One CDG vertex: a virtual channel on a directed physical link, owned by
/// one coherence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Channel {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Destination node of the directed link.
    pub to: NodeId,
    /// Dateline / up-down virtual channel (0 or 1).
    pub vc: u8,
    /// Coherence class lane.
    pub class: MessageClass,
}

/// The channel dependency graph of one routed topology.
#[derive(Debug, Clone)]
pub struct Cdg {
    /// Vertices in ascending order; index is the vertex id.
    channels: Vec<Channel>,
    /// Adjacency by vertex id, deterministic order.
    adj: Vec<BTreeSet<usize>>,
}

/// Aggregate size of a CDG, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CdgReport {
    /// Number of (link, VC, class) vertices.
    pub channels: usize,
    /// Number of dependency edges.
    pub edges: usize,
}

/// The outcome of a cycle search.
#[derive(Debug, Clone)]
pub enum CdgVerdict {
    /// No cycle: the routed fabric is deadlock-free.
    Acyclic(CdgReport),
    /// A dependency cycle: the channels in order, with the first repeated
    /// at the end to close the loop.
    Cycle(Vec<Channel>),
}

impl CdgVerdict {
    /// The report, or a panic describing the cycle.
    ///
    /// # Panics
    ///
    /// Panics if the verdict is a cycle.
    pub fn expect_acyclic(self) -> CdgReport {
        match self {
            CdgVerdict::Acyclic(r) => r,
            CdgVerdict::Cycle(c) => panic!("{}", describe_cycle(&c)),
        }
    }

    /// The cycle, or `None` when acyclic.
    pub fn cycle(self) -> Option<Vec<Channel>> {
        match self {
            CdgVerdict::Acyclic(_) => None,
            CdgVerdict::Cycle(c) => Some(c),
        }
    }
}

/// Render a cycle for humans, one channel per line.
pub fn describe_cycle(cycle: &[Channel]) -> String {
    let mut s = String::from("channel dependency cycle:");
    for c in cycle {
        s.push_str(&format!(
            "\n  {} -> {} vc{} [{:?}]",
            c.from.index(),
            c.to.index(),
            c.vc,
            c.class
        ));
    }
    s
}

/// Streaming CDG construction: paths are fed one at a time into a compact
/// *class-less* hop graph, and the per-class expansion happens once at
/// [`finish`](CdgBuilder::finish). Routing is class-oblivious (classes ride
/// disjoint VC lanes of the same physical route), so the hop graph is 5×
/// smaller than the final CDG and the hot per-path loop never touches
/// classes at all. At 32×32 this replaces a ~million-path materialization
/// (hundreds of megabytes) with a graph bounded by the link count.
#[derive(Debug, Default)]
pub struct CdgBuilder {
    /// Hop id by channel; ids are assigned in first-seen order and
    /// re-ranked into ascending order at `finish`.
    hop_id: BTreeMap<EscapeChannel, usize>,
    hops: Vec<EscapeChannel>,
    /// Class-less routing edges between hop ids.
    edges: BTreeSet<(usize, usize)>,
    /// Per-node first hops of some route out of it (hop ids).
    first_from: BTreeMap<NodeId, BTreeSet<usize>>,
    /// Per-node last hops of some route into it (hop ids).
    last_into: BTreeMap<NodeId, BTreeSet<usize>>,
}

impl CdgBuilder {
    /// An empty builder.
    pub fn new() -> CdgBuilder {
        CdgBuilder::default()
    }

    fn intern(&mut self, hop: EscapeChannel) -> usize {
        if let Some(&id) = self.hop_id.get(&hop) {
            return id;
        }
        let id = self.hops.len();
        self.hop_id.insert(hop, id);
        self.hops.push(hop);
        id
    }

    /// Ingest one (src, dst) escape path. Empty paths (src == dst) are
    /// ignored.
    pub fn add_path(&mut self, path: &[EscapeChannel]) {
        let (Some(&first), Some(&last)) = (path.first(), path.last()) else {
            return; // src == dst: no fabric hops
        };
        let fid = self.intern(first);
        let lid = self.intern(last);
        self.first_from.entry(first.from).or_default().insert(fid);
        self.last_into.entry(last.to).or_default().insert(lid);
        let mut prev = fid;
        for &hop in &path[1..] {
            let id = self.intern(hop);
            self.edges.insert((prev, id));
            prev = id;
        }
    }

    /// Expand the class-less hop graph into the full per-class CDG.
    pub fn finish(self) -> Cdg {
        let nclass = MessageClass::ALL.len();
        // Re-rank hops into ascending EscapeChannel order so vertex id
        // `rank * nclass + class` lists channels in ascending Channel
        // order (class is the least-significant Ord component).
        let mut order: Vec<usize> = (0..self.hops.len()).collect();
        order.sort_unstable_by_key(|&i| self.hops[i]);
        let mut rank = vec![0usize; self.hops.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let mut channels = Vec::with_capacity(self.hops.len() * nclass);
        for &i in &order {
            for class in MessageClass::ALL {
                channels.push(lane(self.hops[i], class));
            }
        }
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); channels.len()];
        // Routing edges: consecutive hops of every path, per class lane.
        for &(a, b) in &self.edges {
            for k in 0..nclass {
                adj[rank[a] * nclass + k].insert(rank[b] * nclass + k);
            }
        }
        // Protocol edges: last hop of a c-route into v depends on first
        // hops of c'-routes out of v, for c' generated by c. Io's
        // self-generation is excluded (endpoint-sink assumption, see the
        // module docs) — which `c != c'` covers, since no other class
        // generates itself.
        for (&v, lasts) in &self.last_into {
            let Some(firsts) = self.first_from.get(&v) else {
                continue;
            };
            for (ci, c) in MessageClass::ALL.into_iter().enumerate() {
                for &c2 in c.may_generate() {
                    if c2 == c {
                        continue;
                    }
                    let cj = MessageClass::ALL
                        .iter()
                        .position(|&x| x == c2)
                        .expect("may_generate stays within ALL");
                    for &l in lasts {
                        for &f in firsts {
                            adj[rank[l] * nclass + ci].insert(rank[f] * nclass + cj);
                        }
                    }
                }
            }
        }
        Cdg { channels, adj }
    }
}

impl Cdg {
    /// Build the full CDG from per-pair hop sequences (class-less escape
    /// paths; each is replicated across every coherence class lane).
    /// Convenience wrapper over [`CdgBuilder`] for callers that already
    /// hold the paths.
    pub fn build(paths: &[Vec<EscapeChannel>]) -> Cdg {
        let mut b = CdgBuilder::new();
        for path in paths {
            b.add_path(path);
        }
        b.finish()
    }

    /// Number of vertices.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum()
    }

    /// Search for a dependency cycle (iterative DFS, deterministic order).
    pub fn verdict(&self) -> CdgVerdict {
        let n = self.channels.len();
        let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
                                      // Edges materialized once so the DFS stack stays index-based.
        let out: Vec<Vec<usize>> = self
            .adj
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&(u, i)) = stack.last() {
                if i < out[u].len() {
                    stack.last_mut().expect("stack non-empty").1 += 1;
                    let v = out[u][i];
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => {
                            let pos = stack
                                .iter()
                                .position(|&(w, _)| w == v)
                                .expect("grey vertex is on the stack");
                            let mut cycle: Vec<Channel> = stack[pos..]
                                .iter()
                                .map(|&(w, _)| self.channels[w])
                                .collect();
                            cycle.push(self.channels[v]);
                            return CdgVerdict::Cycle(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
        CdgVerdict::Acyclic(CdgReport {
            channels: self.channel_count(),
            edges: self.edge_count(),
        })
    }
}

fn lane(hop: EscapeChannel, class: MessageClass) -> Channel {
    Channel {
        from: hop.from,
        to: hop.to,
        vc: hop.vc,
        class,
    }
}

/// The CDG of the healthy `cols`×`rows` torus under dimension-order escape
/// routing, with or without the dateline VCs.
pub fn healthy_torus(cols: usize, rows: usize, dateline_vcs: bool) -> Cdg {
    let torus = Torus2D::new(cols, rows);
    let n = torus.node_count();
    let mut b = CdgBuilder::new();
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                b.add_path(&escape_path(
                    &torus,
                    NodeId::new(src),
                    NodeId::new(dst),
                    dateline_vcs,
                ));
            }
        }
    }
    b.finish()
}

/// The CDG of an arbitrary connected topology under up*/down* escape
/// routing (the degraded-fabric fallback).
pub fn degraded<T: Topology + ?Sized>(topo: &T) -> Result<Cdg, UpDownError> {
    let routes = UpDownRoutes::compute(topo)?;
    let mut b = CdgBuilder::new();
    routes.for_each_pair(topo, |path| b.add_path(path));
    Ok(b.finish())
}

/// Every undirected link of `topo`, as `(low, high)` pairs in ascending
/// order — the enumeration the cut sweeps iterate over.
pub fn undirected_links<T: Topology + ?Sized>(topo: &T) -> Vec<(NodeId, NodeId)> {
    let mut links = BTreeSet::new();
    for n in 0..topo.node_count() {
        let a = NodeId::new(n);
        for p in topo.ports(a) {
            let (lo, hi) = if a <= p.to { (a, p.to) } else { (p.to, a) };
            links.insert((lo, hi));
        }
    }
    links.into_iter().collect()
}

/// Aggregate outcome of a cut sweep: every configuration verified acyclic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SweepSummary {
    /// Degraded configurations verified.
    pub configs: usize,
    /// Configurations skipped because the cuts disconnected the fabric
    /// (always 0 on a torus with at most two cuts; kept as a guard).
    pub disconnected: usize,
    /// Largest CDG vertex count across configurations.
    pub max_channels: usize,
    /// Largest CDG edge count across configurations.
    pub max_edges: usize,
}

fn verify_cuts(
    cols: usize,
    rows: usize,
    cuts: &[(NodeId, NodeId)],
    summary: &mut SweepSummary,
) -> Result<(), String> {
    let deg = Degraded::new(Torus2D::new(cols, rows), cuts);
    if !DistanceMatrix::compute(&deg).is_connected() {
        summary.disconnected += 1;
        return Ok(());
    }
    let cdg = degraded(&deg).map_err(|e| format!("cuts {cuts:?}: {e:?}"))?;
    match cdg.verdict() {
        CdgVerdict::Acyclic(r) => {
            summary.configs += 1;
            summary.max_channels = summary.max_channels.max(r.channels);
            summary.max_edges = summary.max_edges.max(r.edges);
            Ok(())
        }
        CdgVerdict::Cycle(c) => Err(format!("cuts {cuts:?}: {}", describe_cycle(&c))),
    }
}

/// Verify every single-link-cut degradation of the `cols`×`rows` torus.
pub fn sweep_single_cuts(cols: usize, rows: usize) -> Result<SweepSummary, String> {
    let links = undirected_links(&Torus2D::new(cols, rows));
    let mut summary = SweepSummary {
        configs: 0,
        disconnected: 0,
        max_channels: 0,
        max_edges: 0,
    };
    for &cut in &links {
        verify_cuts(cols, rows, &[cut], &mut summary)?;
    }
    Ok(summary)
}

/// Verify every double-link-cut degradation of the `cols`×`rows` torus.
pub fn sweep_double_cuts(cols: usize, rows: usize) -> Result<SweepSummary, String> {
    let links = undirected_links(&Torus2D::new(cols, rows));
    let mut summary = SweepSummary {
        configs: 0,
        disconnected: 0,
        max_channels: 0,
        max_edges: 0,
    };
    for i in 0..links.len() {
        for j in (i + 1)..links.len() {
            verify_cuts(cols, rows, &[links[i], links[j]], &mut summary)?;
        }
    }
    Ok(summary)
}

/// The fixed seed every sampled sweep derives its draw from, committed so
/// the sampled configuration set — and therefore the goldens in
/// `results/verify.json` — is reproducible everywhere.
pub const SAMPLE_SEED: u64 = 0x5b21_364c_d61a_0001;

/// SplitMix64: a tiny, fully deterministic generator for the cut samplers
/// (explicitly seeded — never ambient).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first `sample` elements of a seeded Fisher–Yates shuffle of
/// `0..pool` — a uniform, duplicate-free, deterministic index sample.
fn sample_indices(pool: usize, sample: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pool).collect();
    let mut state = seed;
    let take = sample.min(pool);
    for i in 0..take {
        let j = i + (splitmix64(&mut state) as usize) % (pool - i);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx.sort_unstable(); // ascending, so sweep order is by link order
    idx
}

/// Verify a deterministic seeded sample of `sample` single-link cuts of
/// the `cols`×`rows` torus — the coverage strategy where the exhaustive
/// sweep is infeasible (a 32×32 torus has 2048 links, each an up*/down*
/// recompute over 1024 nodes).
pub fn sweep_sampled_single_cuts(
    cols: usize,
    rows: usize,
    sample: usize,
    seed: u64,
) -> Result<SweepSummary, String> {
    let links = undirected_links(&Torus2D::new(cols, rows));
    let mut summary = SweepSummary {
        configs: 0,
        disconnected: 0,
        max_channels: 0,
        max_edges: 0,
    };
    for i in sample_indices(links.len(), sample, seed) {
        verify_cuts(cols, rows, &[links[i]], &mut summary)?;
    }
    Ok(summary)
}

/// Verify a deterministic seeded sample of `sample` double-link cuts of
/// the `cols`×`rows` torus, drawn uniformly from every unordered link
/// pair.
pub fn sweep_sampled_double_cuts(
    cols: usize,
    rows: usize,
    sample: usize,
    seed: u64,
) -> Result<SweepSummary, String> {
    let links = undirected_links(&Torus2D::new(cols, rows));
    let n = links.len();
    let pairs = n * (n - 1) / 2;
    let mut summary = SweepSummary {
        configs: 0,
        disconnected: 0,
        max_channels: 0,
        max_edges: 0,
    };
    for flat in sample_indices(pairs, sample, seed) {
        // Unrank `flat` into the (i, j) pair with i < j, row-major over
        // the strictly-upper-triangular pair matrix.
        let mut i = 0usize;
        let mut base = 0usize;
        while base + (n - 1 - i) <= flat {
            base += n - 1 - i;
            i += 1;
        }
        let j = i + 1 + (flat - base);
        verify_cuts(cols, rows, &[links[i], links[j]], &mut summary)?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_torus_with_datelines_is_acyclic() {
        // Every C×R in 2..=6 × 2..=6, plus the 32P and 64P machines.
        let shapes = (2..=6).flat_map(|c| (2..=6).map(move |r| (c, r)));
        for (c, r) in shapes.chain([(8, 4), (8, 8)]) {
            if let Some(cycle) = healthy_torus(c, r, true).verdict().cycle() {
                panic!("{c}x{r} with dateline VCs: {}", describe_cycle(&cycle));
            }
        }
        let r = healthy_torus(4, 4, true).verdict().expect_acyclic();
        // Every directed link (16 nodes × 4 ports) carries VC0 traffic in
        // all 5 class lanes; the VC1 copies exist only where some path
        // actually crosses a dateline first.
        let vc0_floor = 16 * 4 * 5;
        assert!(
            (vc0_floor..=2 * vc0_floor).contains(&r.channels),
            "channels = {}",
            r.channels
        );
        assert!(r.edges > r.channels);
    }

    #[test]
    fn single_vc_torus_has_a_real_reported_cycle() {
        // The paper's point: a torus (wrap links) deadlocks without VC0/VC1.
        for (c, r) in [(4, 4), (8, 4)] {
            let cdg = healthy_torus(c, r, false);
            let cycle = cdg.verdict().cycle().expect("wrap rings must cycle");
            assert!(cycle.len() >= 3, "{}", describe_cycle(&cycle));
            assert_eq!(
                cycle.first(),
                cycle.last(),
                "cycle must close on its first channel"
            );
            // Every consecutive pair must be a genuine dependency: same class
            // lane, linked head-to-tail through a node or a protocol turn.
            for pair in cycle.windows(2) {
                assert!(
                    pair[0].to == pair[1].from,
                    "consecutive cycle channels must chain through a node: {}",
                    describe_cycle(&cycle)
                );
            }
        }
        // A 2x2 "torus" has no true wrap links, so even one VC suffices.
        healthy_torus(2, 2, false).verdict().expect_acyclic();
    }

    #[test]
    fn every_single_cut_of_the_4x4_torus_is_deadlock_free() {
        let s = sweep_single_cuts(4, 4).expect("all single cuts acyclic");
        assert_eq!(s.configs, 32, "4x4 torus has 32 undirected links");
        assert_eq!(s.disconnected, 0);
        assert!(s.max_channels > 0 && s.max_edges > 0);
    }

    #[test]
    fn double_cut_sweep_covers_every_pair_on_a_small_torus() {
        let s = sweep_double_cuts(3, 3).expect("all double cuts acyclic");
        // 3x3 torus: 18 undirected links, C(18,2) pairs, none disconnecting.
        assert_eq!(s.configs + s.disconnected, 18 * 17 / 2);
        assert_eq!(s.disconnected, 0);
    }

    #[test]
    fn undirected_link_enumeration_matches_the_torus() {
        let t = Torus2D::new(4, 4);
        let links = undirected_links(&t);
        assert_eq!(links.len(), t.link_count() / 2);
        assert!(links.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }

    #[test]
    fn streaming_builder_matches_the_collected_build() {
        let torus = Torus2D::new(4, 4);
        let mut paths = Vec::new();
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    paths.push(escape_path(
                        &torus,
                        NodeId::new(src),
                        NodeId::new(dst),
                        true,
                    ));
                }
            }
        }
        let collected = Cdg::build(&paths);
        let streamed = healthy_torus(4, 4, true);
        assert_eq!(collected.channels, streamed.channels);
        assert_eq!(collected.adj, streamed.adj);
    }

    #[test]
    fn channels_are_sorted_ascending_after_class_expansion() {
        let cdg = healthy_torus(3, 3, true);
        assert!(
            cdg.channels.windows(2).all(|w| w[0] < w[1]),
            "vertex ids must follow ascending Channel order"
        );
    }

    #[test]
    fn large_tori_certify_acyclic() {
        // The 16×16 (256P) healthy escape network; 32×32 runs in the
        // release-mode report binary (this doubles as its smoke test).
        let r = healthy_torus(16, 16, true).verdict().expect_acyclic();
        let vc0_floor = 256 * 4 * 5;
        assert!(r.channels >= vc0_floor, "channels = {}", r.channels);
    }

    #[test]
    fn sampled_indices_are_deterministic_unique_and_in_range() {
        let a = sample_indices(100, 16, SAMPLE_SEED);
        let b = sample_indices(100, 16, SAMPLE_SEED);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let set: BTreeSet<usize> = a.iter().copied().collect();
        assert_eq!(set.len(), 16, "no duplicates");
        assert!(a.iter().all(|&i| i < 100));
        // A different seed draws a different sample (overwhelmingly).
        let c = sample_indices(100, 16, SAMPLE_SEED ^ 1);
        assert_ne!(a, c);
        // Oversampling clamps to the pool.
        assert_eq!(sample_indices(5, 16, SAMPLE_SEED).len(), 5);
    }

    #[test]
    fn sampled_single_cut_sweep_agrees_with_the_exhaustive_sweep() {
        // Sampling the entire pool must reproduce the exhaustive result.
        let all = sweep_single_cuts(4, 4).expect("acyclic");
        let sampled = sweep_sampled_single_cuts(4, 4, 32, SAMPLE_SEED).expect("acyclic");
        assert_eq!(all, sampled);
        // A strict subsample stays acyclic and within the exhaustive maxima.
        let sub = sweep_sampled_single_cuts(4, 4, 8, SAMPLE_SEED).expect("acyclic");
        assert_eq!(sub.configs, 8);
        assert!(sub.max_channels <= all.max_channels);
        assert!(sub.max_edges <= all.max_edges);
    }

    #[test]
    fn sampled_double_cuts_cover_distinct_pairs_on_the_8x8_torus() {
        let s = sweep_sampled_double_cuts(8, 8, 12, SAMPLE_SEED).expect("acyclic");
        assert_eq!(s.configs + s.disconnected, 12);
        assert!(s.max_channels > 0);
    }

    #[test]
    fn double_cut_pair_unranking_is_a_bijection() {
        // Sampling every pair must agree with the exhaustive double sweep.
        let all = sweep_double_cuts(3, 3).expect("acyclic");
        let pairs = 18 * 17 / 2;
        let sampled = sweep_sampled_double_cuts(3, 3, pairs, SAMPLE_SEED).expect("acyclic");
        assert_eq!(all, sampled);
    }
}
