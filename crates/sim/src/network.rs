//! The cognitive radio network instance: topology + per-node channel sets.
//!
//! A [`Network`] captures everything the *environment* knows: which nodes
//! are in radio range of each other, which global channels each node can
//! access, and each node's private local labeling of its channels. Protocol
//! code never sees global channels; the engine translates local labels.
//!
//! The paper's structural parameters are computed as ground truth here:
//! every pair of neighbors shares at least `k` and at most `kmax` channels,
//! the maximum degree is `Δ`, and the diameter is `D` (paper §3).

use crate::bitset::BitSet;
use crate::graph::Graph;
use crate::ids::{Edge, GlobalChannel, LocalChannel, NodeId};
use std::fmt;

/// Errors produced while validating a [`NetworkBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// The network must contain at least one node.
    NoNodes,
    /// A node was given no channels.
    EmptyChannelSet(NodeId),
    /// All nodes must have the same number of channels `c`.
    UnequalChannelCounts {
        /// Offending node.
        node: NodeId,
        /// Its channel count.
        got: usize,
        /// The channel count of node 0.
        expected: usize,
    },
    /// A node's channel list mentions the same global channel twice.
    DuplicateChannel(NodeId, GlobalChannel),
    /// An edge endpoint does not exist.
    UnknownNode(NodeId),
    /// An edge connects a node to itself.
    SelfLoop(NodeId),
    /// Two neighbors share no channel, violating `k ≥ 1`.
    NoSharedChannel(NodeId, NodeId),
    /// A node was not assigned channels at all.
    MissingChannels(NodeId),
    /// More nodes than [`NodeId`]'s `u32` payload can index.
    TooManyNodes(usize),
    /// More channels per node than [`LocalChannel`]'s `u16` payload can
    /// index.
    TooManyChannels(usize),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::NoNodes => write!(f, "network must contain at least one node"),
            NetworkError::EmptyChannelSet(v) => write!(f, "node {v} has an empty channel set"),
            NetworkError::UnequalChannelCounts { node, got, expected } => {
                write!(f, "node {node} has {got} channels but the network uses c={expected}")
            }
            NetworkError::DuplicateChannel(v, g) => {
                write!(f, "node {v} lists channel {g} more than once")
            }
            NetworkError::UnknownNode(v) => write!(f, "edge endpoint {v} does not exist"),
            NetworkError::SelfLoop(v) => write!(f, "self-loop at {v}"),
            NetworkError::NoSharedChannel(u, v) => {
                write!(f, "neighbors {u} and {v} share no channel (k >= 1 required)")
            }
            NetworkError::MissingChannels(v) => write!(f, "node {v} was never assigned channels"),
            NetworkError::TooManyNodes(n) => {
                write!(f, "{n} nodes overflow the u32 node-id space")
            }
            NetworkError::TooManyChannels(c) => {
                write!(f, "{c} channels per node overflow the u16 local-label space")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// How much work [`NetworkBuilder::build`] invests in structural statistics.
///
/// Exact diameter is an all-source BFS — `O(n·m)` — which dwarfs engine time
/// when setting up scenarios with `n ≥ 10⁴`. Large benchmarks opt into
/// [`StatsMode::Approximate`], which replaces it with a double-BFS sweep
/// (`O(n + m)`) whose estimate `est` satisfies `est ≤ D ≤ 2·est` (exact on
/// trees). Everything else (`Δ`, `k`, `kmax`, connectivity, edge counts) is
/// cheap and stays exact in both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StatsMode {
    /// Exact diameter via all-source BFS. The default.
    #[default]
    Exact,
    /// Double-BFS 2-approximation of the diameter
    /// ([`crate::graph::Graph::diameter_double_sweep`]).
    Approximate,
}

/// Ground-truth structural statistics of a network, matching the paper's
/// parameter names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkStats {
    /// Number of nodes `n`.
    pub n: usize,
    /// Channels per node `c`.
    pub c: usize,
    /// Number of distinct global channels in use.
    pub universe: usize,
    /// Number of edges.
    pub edges: usize,
    /// Maximum degree `Δ` (at least 1 by convention so that `lg Δ` schedules
    /// are well defined even on edgeless graphs).
    pub delta: usize,
    /// Minimum pairwise overlap `k` over all edges (`= c` when there are no
    /// edges).
    pub k: usize,
    /// Maximum pairwise overlap `kmax` over all edges (`= 1` when there are
    /// no edges).
    pub kmax: usize,
    /// `true` if the graph is connected.
    pub connected: bool,
    /// Diameter `D` if connected. Under [`StatsMode::Approximate`] this is
    /// the double-sweep estimate (`diameter ≤ D ≤ 2·diameter`).
    pub diameter: Option<u64>,
    /// `true` when `diameter` is the exact value ([`StatsMode::Exact`]).
    pub diameter_is_exact: bool,
}

/// An immutable cognitive radio network instance.
///
/// # Examples
/// ```
/// use crn_sim::{GlobalChannel, Network, NodeId};
/// let mut b = Network::builder(2);
/// b.set_channels(NodeId(0), vec![GlobalChannel(0), GlobalChannel(1)]);
/// b.set_channels(NodeId(1), vec![GlobalChannel(1), GlobalChannel(2)]);
/// b.add_edge(NodeId(0), NodeId(1));
/// let net = b.build()?;
/// assert_eq!(net.stats().k, 1); // the single edge shares exactly {g1}
/// # Ok::<(), crn_sim::NetworkError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    /// Channels per node, the paper's `c`.
    c: usize,
    /// `channels[v*c + l]` = global channel for local label `l` at node `v`
    /// (flat, stride `c`).
    channels: Vec<GlobalChannel>,
    /// Per-node reverse map, flat with stride `c`: `rev_global[v*c..][..c]`
    /// holds node `v`'s globals sorted ascending and `rev_local` the matching
    /// local labels, so global→local is a binary search instead of a
    /// per-node `HashMap`.
    rev_global: Vec<u32>,
    rev_local: Vec<u16>,
    graph: Graph,
    /// Degree-thresholded adjacency rows for the engine hot loop; see
    /// [`AdjIndex`].
    adj: AdjIndex,
    universe: usize,
    stats: NetworkStats,
}

/// Sentinel in [`AdjIndex::row_of`] for nodes without a dense row.
const NO_ROW: u32 = u32::MAX;

/// Dense adjacency rows for high-degree nodes only.
///
/// The old representation kept a `BitSet` row for *every* node — `O(n²)`
/// bits, ~125 GB at `n = 10⁶`. But the engine only profits from a dense row
/// when a node's degree exceeds the row's word count anyway (the
/// listener-centric resolver's `d > words` dispatch), so rows are built only
/// for nodes with `degree ≥ max(64, n/64)`. At most `2m / (n/64)` such nodes
/// exist, bounding total row memory by `16m` bytes — `O(n + m)` overall.
/// Low-degree pairs fall back to a binary search of the shorter CSR slice.
#[derive(Debug, Clone)]
struct AdjIndex {
    /// Minimum degree for a dense row.
    threshold: usize,
    /// `row_of[v]` = index into `rows`, or [`NO_ROW`].
    row_of: Vec<u32>,
    rows: Vec<BitSet>,
}

impl AdjIndex {
    fn build(graph: &Graph) -> AdjIndex {
        let n = graph.len();
        let threshold = (n / 64).max(64);
        let mut row_of = vec![NO_ROW; n];
        let mut rows = Vec::new();
        for (v, row) in row_of.iter_mut().enumerate() {
            if graph.degree(v) >= threshold {
                let mut bits = BitSet::new(n);
                for &w in graph.neighbors(v) {
                    bits.insert(w as usize);
                }
                *row = u32::try_from(rows.len()).expect("row count fits u32");
                rows.push(bits);
            }
        }
        AdjIndex { threshold, row_of, rows }
    }

    #[inline]
    fn row(&self, v: usize) -> Option<&BitSet> {
        match self.row_of[v] {
            NO_ROW => None,
            r => Some(&self.rows[r as usize]),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.row_of.capacity() * std::mem::size_of::<u32>()
            + self.rows.iter().map(|b| b.words().len() * 8).sum::<usize>()
    }
}

/// Where the bytes of a built [`Network`] go — the proof obligation for the
/// million-node path is that this stays `O(n + m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// CSR offsets + targets.
    pub graph_bytes: usize,
    /// Flat channel table plus the sorted reverse maps.
    pub channel_bytes: usize,
    /// Degree-thresholded dense adjacency rows (plus the row index).
    pub adjacency_bytes: usize,
    /// Number of nodes that earned a dense adjacency row.
    pub adjacency_rows: usize,
}

impl MemoryFootprint {
    /// Sum over all components.
    pub fn total_bytes(&self) -> usize {
        self.graph_bytes + self.channel_bytes + self.adjacency_bytes
    }
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
        write!(
            f,
            "graph {:.1} MiB + channels {:.1} MiB + adj {:.1} MiB ({} rows) = {:.1} MiB",
            mib(self.graph_bytes),
            mib(self.channel_bytes),
            mib(self.adjacency_bytes),
            self.adjacency_rows,
            mib(self.total_bytes()),
        )
    }
}

/// Number of common elements of two sorted, duplicate-free slices.
fn sorted_intersection_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut out) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out += 1;
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl Network {
    /// Starts building a network with `n` nodes (identities `0..n`).
    pub fn builder(n: usize) -> NetworkBuilder {
        NetworkBuilder { n, channels: vec![None; n], edges: Vec::new(), stats: StatsMode::Exact }
    }

    /// Assembles a network from a topology and a channel model, deriving the
    /// topology and channel RNG streams from `seed` (streams 1 and 2). The
    /// shared entry point for benches and differential tests that don't
    /// need the full `Scenario` machinery.
    ///
    /// # Errors
    /// Propagates [`NetworkError`] from validation, e.g. when the generated
    /// channel assignment leaves an edge without a shared channel.
    pub fn generate(
        topology: &crate::topology::Topology,
        channels: &crate::channels::ChannelModel,
        seed: u64,
    ) -> Result<Network, NetworkError> {
        Network::generate_with_stats(topology, channels, seed, StatsMode::Exact)
    }

    /// [`Network::generate`] with an explicit [`StatsMode`] — large
    /// benchmarks pass [`StatsMode::Approximate`] so scenario setup stays
    /// `O(n + m)` instead of being dominated by the exact-diameter BFS.
    ///
    /// # Errors
    /// Propagates [`NetworkError`] from validation, as [`Network::generate`].
    pub fn generate_with_stats(
        topology: &crate::topology::Topology,
        channels: &crate::channels::ChannelModel,
        seed: u64,
        stats: StatsMode,
    ) -> Result<Network, NetworkError> {
        let n = topology.num_nodes();
        let sets = channels.assign(n, &mut crate::rng::stream_rng(seed, 2));
        let mut b = Network::builder(n);
        b.stats_mode(stats);
        for (v, set) in sets.into_iter().enumerate() {
            b.set_channels(NodeId(v as u32), set);
        }
        b.add_edges(
            topology
                .edges(&mut crate::rng::stream_rng(seed, 1))
                .into_iter()
                .map(|(a, x)| (NodeId(a), NodeId(x))),
        );
        b.build()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` if the network has no nodes. (Builders reject this, so this is
    /// always `false` for built networks.)
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Channels per node, the paper's `c`.
    pub fn channels_per_node(&self) -> usize {
        self.c
    }

    /// Node `v`'s reverse-map slice of sorted global channel ids.
    #[inline]
    fn rev_globals(&self, v: usize) -> &[u32] {
        &self.rev_global[v * self.c..(v + 1) * self.c]
    }

    /// Number of distinct global channels.
    pub fn universe_size(&self) -> usize {
        self.universe
    }

    /// The underlying connectivity graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Ground-truth statistics (`n`, `c`, `Δ`, `k`, `kmax`, `D`, …).
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Translates node `v`'s local label to the physical channel.
    ///
    /// # Panics
    /// Panics if the label is out of range.
    #[inline]
    pub fn local_to_global(&self, v: NodeId, l: LocalChannel) -> GlobalChannel {
        self.channel_map(v)[l.index()]
    }

    /// Translates a physical channel to node `v`'s local label, if `v` can
    /// access it.
    pub fn global_to_local(&self, v: NodeId, g: GlobalChannel) -> Option<LocalChannel> {
        let s = v.index() * self.c;
        let slice = &self.rev_global[s..s + self.c];
        slice.binary_search(&g.0).ok().map(|i| LocalChannel(self.rev_local[s + i]))
    }

    /// Node `v`'s channel set in local-label order.
    pub fn channel_map(&self, v: NodeId) -> &[GlobalChannel] {
        &self.channels[v.index() * self.c..(v.index() + 1) * self.c]
    }

    /// Sorted neighbor identities of `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.neighbors(v.index()).iter().map(|&w| NodeId(w))
    }

    /// Sorted neighbors of `v` as a contiguous slice of raw indices — the
    /// zero-overhead view the engine's broadcaster-centric sweep walks.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        self.graph.neighbors(v.index())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.graph.degree(v.index())
    }

    /// `true` if `u` and `v` are neighbors.
    ///
    /// High-degree endpoints answer from their dense adjacency row; pairs of
    /// low-degree nodes binary-search the shorter CSR slice.
    #[inline]
    pub fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
        let (ui, vi) = (u.index(), v.index());
        if let Some(row) = self.adj.row(ui) {
            return row.contains(vi);
        }
        if let Some(row) = self.adj.row(vi) {
            return row.contains(ui);
        }
        let (a, b) =
            if self.graph.degree(ui) <= self.graph.degree(vi) { (ui, vi) } else { (vi, ui) };
        self.graph.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// `v`'s adjacency row as a bit set over node indices, if `v`'s degree
    /// crossed the dense-row threshold — the engine's listener-centric
    /// resolver intersects it with the per-channel broadcaster set
    /// word-by-word, and falls back to a CSR walk for low-degree nodes.
    #[inline]
    pub fn adjacency_row(&self, v: NodeId) -> Option<&BitSet> {
        self.adj.row(v.index())
    }

    /// Degree at or above which a node keeps a dense adjacency row.
    pub fn adjacency_row_threshold(&self) -> usize {
        self.adj.threshold
    }

    /// Heap bytes held by the network's index structures, itemized. The
    /// million-node acceptance gate asserts this stays `O(n + m)`.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            graph_bytes: self.graph.memory_bytes(),
            channel_bytes: self.channels.capacity() * std::mem::size_of::<GlobalChannel>()
                + self.rev_global.capacity() * std::mem::size_of::<u32>()
                + self.rev_local.capacity() * std::mem::size_of::<u16>(),
            adjacency_bytes: self.adj.memory_bytes(),
            adjacency_rows: self.adj.rows.len(),
        }
    }

    /// The global channels shared by `u` and `v`, sorted.
    pub fn shared_channels(&self, u: NodeId, v: NodeId) -> Vec<GlobalChannel> {
        let a = self.rev_globals(u.index());
        let b = self.rev_globals(v.index());
        let mut shared = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared.push(GlobalChannel(a[i]));
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// `|shared_channels(u, v)|`, the paper's `k_{u,v}`.
    pub fn overlap(&self, u: NodeId, v: NodeId) -> usize {
        sorted_intersection_count(self.rev_globals(u.index()), self.rev_globals(v.index()))
    }

    /// All edges of the network.
    pub fn edges(&self) -> Vec<Edge> {
        self.graph.edges().into_iter().map(|(a, b)| Edge::new(NodeId(a), NodeId(b))).collect()
    }

    /// Number of `v`'s neighbors that can access global channel `g` — the
    /// paper's `n_ch` ("crowdedness" of a channel from `v`'s perspective).
    pub fn channel_crowd(&self, v: NodeId, g: GlobalChannel) -> usize {
        self.neighbors(v).filter(|&w| self.global_to_local(w, g).is_some()).count()
    }

    /// The number of neighbors of `v` sharing at least `khat` channels with
    /// `v` — used as ground truth for the k̂-neighbor-discovery problem.
    pub fn good_neighbors(&self, v: NodeId, khat: usize) -> Vec<NodeId> {
        self.neighbors(v).filter(|&w| self.overlap(v, w) >= khat).collect()
    }

    /// Maximum over nodes of `good_neighbors(v, khat).len()`, the paper's
    /// `Δ_k̂`.
    pub fn delta_khat(&self, khat: usize) -> usize {
        (0..self.len())
            .map(|v| self.good_neighbors(NodeId(v as u32), khat).len())
            .max()
            .unwrap_or(0)
    }

    /// Renders the network as Graphviz DOT: nodes labeled with their ids,
    /// edges labeled with the shared-channel count. Handy for debugging
    /// generated scenarios (`dot -Tsvg net.dot -o net.svg`).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph crn {\n  node [shape=circle];\n");
        for v in 0..self.len() {
            let _ = writeln!(out, "  n{v} [label=\"{v}\"];");
        }
        for e in self.edges() {
            let _ = writeln!(
                out,
                "  n{} -- n{} [label=\"{}\"];",
                e.lo().0,
                e.hi().0,
                self.overlap(e.lo(), e.hi())
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Builder for [`Network`]. See [`Network::builder`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    n: usize,
    channels: Vec<Option<Vec<GlobalChannel>>>,
    /// Raw `(u, v)` endpoint pairs, in the form [`Graph::from_edges`] reads.
    edges: Vec<(u32, u32)>,
    stats: StatsMode,
}

impl NetworkBuilder {
    /// Chooses how much work [`NetworkBuilder::build`] spends on structural
    /// statistics (default: [`StatsMode::Exact`]).
    pub fn stats_mode(&mut self, mode: StatsMode) -> &mut Self {
        self.stats = mode;
        self
    }

    /// Assigns node `v` its channel set. The order of the vector *is* the
    /// node's local labeling (label `l` ↦ `chs[l]`), so callers can shuffle
    /// it to model arbitrary local labels.
    pub fn set_channels(&mut self, v: NodeId, chs: Vec<GlobalChannel>) -> &mut Self {
        assert!(v.index() < self.n, "node {v} out of range");
        self.channels[v.index()] = Some(chs);
        self
    }

    /// Declares `u` and `v` to be within radio range of each other.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push((u.0, v.0));
        self
    }

    /// Adds many edges at once.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> &mut Self {
        self.edges.extend(edges.into_iter().map(|(u, v)| (u.0, v.0)));
        self
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    /// Returns a [`NetworkError`] if any model constraint is violated:
    /// missing/empty/duplicated channel sets, unequal `c` across nodes,
    /// unknown endpoints, self-loops, or an edge whose endpoints share no
    /// channel.
    pub fn build(&self) -> Result<Network, NetworkError> {
        if self.n == 0 {
            return Err(NetworkError::NoNodes);
        }
        if self.n > u32::MAX as usize {
            return Err(NetworkError::TooManyNodes(self.n));
        }
        for (i, c) in self.channels.iter().enumerate() {
            match c {
                None => return Err(NetworkError::MissingChannels(NodeId(i as u32))),
                Some(list) if list.is_empty() => {
                    return Err(NetworkError::EmptyChannelSet(NodeId(i as u32)))
                }
                Some(_) => {}
            }
        }
        let c = self.channels[0].as_ref().expect("checked above").len();
        if c > u16::MAX as usize {
            return Err(NetworkError::TooManyChannels(c));
        }
        for (i, list) in
            self.channels.iter().map(|l| l.as_ref().expect("checked above")).enumerate()
        {
            if list.len() != c {
                return Err(NetworkError::UnequalChannelCounts {
                    node: NodeId(i as u32),
                    got: list.len(),
                    expected: c,
                });
            }
        }
        // Flatten the channel table and build the sorted reverse maps —
        // per-node (global, local) pairs sorted by global, so global→local
        // lookups binary-search a stride-`c` slice instead of hashing.
        let mut channels = Vec::with_capacity(self.n * c);
        let mut rev_global = Vec::with_capacity(self.n * c);
        let mut rev_local = Vec::with_capacity(self.n * c);
        let mut perm: Vec<(u32, u16)> = Vec::with_capacity(c);
        for (i, list) in
            self.channels.iter().map(|l| l.as_ref().expect("checked above")).enumerate()
        {
            channels.extend(list.iter().copied());
            perm.clear();
            perm.extend(list.iter().enumerate().map(|(l, g)| (g.0, l as u16)));
            perm.sort_unstable();
            if let Some(w) = perm.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(NetworkError::DuplicateChannel(
                    NodeId(i as u32),
                    GlobalChannel(w[0].0),
                ));
            }
            rev_global.extend(perm.iter().map(|p| p.0));
            rev_local.extend(perm.iter().map(|p| p.1));
        }
        for &(u, v) in &self.edges {
            for w in [u, v] {
                if w as usize >= self.n {
                    return Err(NetworkError::UnknownNode(NodeId(w)));
                }
            }
            if u == v {
                return Err(NetworkError::SelfLoop(NodeId(u)));
            }
        }
        let graph = Graph::from_edges(self.n, &self.edges);

        // k / kmax ground truth + the k >= 1 model requirement, via a merge
        // of the two endpoints' sorted reverse slices per edge. The edges are
        // walked in the CSR in `Graph::edges` order, without copying them out:
        // at n = 10⁶ every edge-list copy is a 30 MiB transient.
        let rev_of = |v: usize| &rev_global[v * c..(v + 1) * c];
        let mut k = c;
        let mut kmax = 1usize.min(c);
        let pairs = (0..self.n as u32)
            .flat_map(|a| graph.neighbors(a as usize).iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b);
        for (a, b) in pairs {
            let shared = sorted_intersection_count(rev_of(a as usize), rev_of(b as usize));
            if shared == 0 {
                return Err(NetworkError::NoSharedChannel(NodeId(a), NodeId(b)));
            }
            k = k.min(shared);
            kmax = kmax.max(shared);
        }

        let adj = AdjIndex::build(&graph);

        let mut universe_set: Vec<u32> = rev_global.clone();
        universe_set.sort_unstable();
        universe_set.dedup();

        let diameter = match self.stats {
            StatsMode::Exact => graph.diameter(),
            StatsMode::Approximate => graph.diameter_double_sweep(),
        };
        let stats = NetworkStats {
            n: self.n,
            c,
            universe: universe_set.len(),
            edges: graph.num_edges(),
            delta: graph.max_degree().max(1),
            k,
            kmax,
            connected: graph.is_connected(),
            diameter,
            diameter_is_exact: self.stats == StatsMode::Exact,
        };

        Ok(Network {
            c,
            channels,
            rev_global,
            rev_local,
            graph,
            adj,
            universe: universe_set.len(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: u32) -> GlobalChannel {
        GlobalChannel(v)
    }

    fn two_node_net() -> Network {
        let mut b = Network::builder(2);
        b.set_channels(NodeId(0), vec![g(0), g(1), g(2)]);
        b.set_channels(NodeId(1), vec![g(2), g(3), g(1)]);
        b.add_edge(NodeId(0), NodeId(1));
        b.build().expect("valid network")
    }

    #[test]
    fn builds_and_reports_stats() {
        let net = two_node_net();
        let s = net.stats();
        assert_eq!(s.n, 2);
        assert_eq!(s.c, 3);
        assert_eq!(s.edges, 1);
        assert_eq!(s.delta, 1);
        assert_eq!(s.k, 2); // shared = {g1, g2}
        assert_eq!(s.kmax, 2);
        assert!(s.connected);
        assert_eq!(s.diameter, Some(1));
        assert_eq!(s.universe, 4);
    }

    #[test]
    fn approximate_stats_mode_bounds_the_diameter() {
        // A cycle of 9: D = 4, double-sweep estimate must land in [2, 4].
        let n = 9usize;
        let build = |mode: StatsMode| {
            let mut b = Network::builder(n);
            b.stats_mode(mode);
            for v in 0..n {
                b.set_channels(NodeId(v as u32), vec![g(0)]);
            }
            for v in 0..n {
                b.add_edge(NodeId(v as u32), NodeId(((v + 1) % n) as u32));
            }
            b.build().unwrap()
        };
        let exact = build(StatsMode::Exact).stats();
        let approx = build(StatsMode::Approximate).stats();
        assert!(exact.diameter_is_exact);
        assert!(!approx.diameter_is_exact);
        let d = exact.diameter.unwrap();
        let est = approx.diameter.unwrap();
        assert!(est <= d && d <= 2 * est, "estimate {est} vs exact {d}");
        // Everything except the diameter is identical across modes.
        assert_eq!(
            NetworkStats { diameter: None, diameter_is_exact: true, ..approx },
            NetworkStats { diameter: None, diameter_is_exact: true, ..exact }
        );
    }

    #[test]
    fn generate_with_stats_is_the_same_network() {
        use crate::channels::ChannelModel;
        use crate::topology::Topology;
        let t = Topology::RandomGeometric { n: 30, radius: 0.4 };
        let m = ChannelModel::SharedCore { c: 3, core: 2 };
        let exact = Network::generate(&t, &m, 5).unwrap();
        let approx = Network::generate_with_stats(&t, &m, 5, StatsMode::Approximate).unwrap();
        assert_eq!(exact.edges(), approx.edges(), "same seed, same topology");
        for v in 0..30u32 {
            assert_eq!(exact.channel_map(NodeId(v)), approx.channel_map(NodeId(v)));
        }
        if let (Some(d), Some(est)) = (exact.stats().diameter, approx.stats().diameter) {
            assert!(est <= d && d <= 2 * est);
        }
    }

    #[test]
    fn local_global_round_trip() {
        let net = two_node_net();
        // Node 1's labels are in the order given: l0->g2, l1->g3, l2->g1.
        assert_eq!(net.local_to_global(NodeId(1), LocalChannel(0)), g(2));
        assert_eq!(net.global_to_local(NodeId(1), g(3)), Some(LocalChannel(1)));
        assert_eq!(net.global_to_local(NodeId(1), g(0)), None);
        for l in 0..net.channels_per_node() {
            let l = LocalChannel(l as u16);
            let gg = net.local_to_global(NodeId(0), l);
            assert_eq!(net.global_to_local(NodeId(0), gg), Some(l));
        }
    }

    #[test]
    fn shared_channels_and_overlap() {
        let net = two_node_net();
        assert_eq!(net.shared_channels(NodeId(0), NodeId(1)), vec![g(1), g(2)]);
        assert_eq!(net.overlap(NodeId(0), NodeId(1)), 2);
        assert!(net.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!net.are_neighbors(NodeId(0), NodeId(0)));
    }

    #[test]
    fn rejects_edge_without_shared_channel() {
        let mut b = Network::builder(2);
        b.set_channels(NodeId(0), vec![g(0)]);
        b.set_channels(NodeId(1), vec![g(1)]);
        b.add_edge(NodeId(0), NodeId(1));
        assert_eq!(b.build().unwrap_err(), NetworkError::NoSharedChannel(NodeId(0), NodeId(1)));
    }

    #[test]
    fn rejects_unequal_channel_counts() {
        let mut b = Network::builder(2);
        b.set_channels(NodeId(0), vec![g(0), g(1)]);
        b.set_channels(NodeId(1), vec![g(0)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetworkError::UnequalChannelCounts { .. }));
    }

    #[test]
    fn rejects_duplicate_channels() {
        let mut b = Network::builder(1);
        b.set_channels(NodeId(0), vec![g(0), g(0)]);
        assert_eq!(b.build().unwrap_err(), NetworkError::DuplicateChannel(NodeId(0), g(0)));
    }

    #[test]
    fn rejects_missing_channels_and_self_loops() {
        let b = Network::builder(1);
        assert_eq!(b.build().unwrap_err(), NetworkError::MissingChannels(NodeId(0)));

        let mut b = Network::builder(1);
        b.set_channels(NodeId(0), vec![g(0)]);
        b.add_edge(NodeId(0), NodeId(0));
        assert_eq!(b.build().unwrap_err(), NetworkError::SelfLoop(NodeId(0)));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = Network::builder(1);
        b.set_channels(NodeId(0), vec![g(0)]);
        b.add_edge(NodeId(0), NodeId(5));
        assert_eq!(b.build().unwrap_err(), NetworkError::UnknownNode(NodeId(5)));
    }

    #[test]
    fn rejects_empty_network() {
        assert_eq!(Network::builder(0).build().unwrap_err(), NetworkError::NoNodes);
    }

    #[test]
    fn channel_crowd_counts_neighbors_with_access() {
        // Star: center 0 with 3 leaves; g0 shared by all, g9x private.
        let mut b = Network::builder(4);
        b.set_channels(NodeId(0), vec![g(0), g(1)]);
        b.set_channels(NodeId(1), vec![g(0), g(90)]);
        b.set_channels(NodeId(2), vec![g(0), g(91)]);
        b.set_channels(NodeId(3), vec![g(0), g(1)]);
        b.add_edges([(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))]);
        let net = b.build().unwrap();
        assert_eq!(net.channel_crowd(NodeId(0), g(0)), 3);
        assert_eq!(net.channel_crowd(NodeId(0), g(1)), 1);
        assert_eq!(net.good_neighbors(NodeId(0), 2), vec![NodeId(3)]);
        assert_eq!(net.delta_khat(2), 1);
        assert_eq!(net.delta_khat(1), 3);
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let net = two_node_net();
        let dot = net.to_dot();
        assert!(dot.starts_with("graph crn {"));
        assert!(dot.contains("n0 -- n1"));
        assert!(dot.contains("label=\"2\""), "edge labeled with overlap: {dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = NetworkError::NoSharedChannel(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("share no channel"));
    }

    #[test]
    fn dense_rows_only_for_hubs_and_neighbor_tests_agree() {
        // Star with 200 leaves: only the center crosses the max(64, n/64)
        // threshold, and every pairwise answer matches the edge list.
        let n = 201usize;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(NodeId(v as u32), vec![g(0)]);
        }
        for leaf in 1..n {
            b.add_edge(NodeId(0), NodeId(leaf as u32));
        }
        let net = b.build().unwrap();
        assert!(net.adjacency_row(NodeId(0)).is_some(), "hub should get a dense row");
        assert!(net.adjacency_row(NodeId(1)).is_none(), "leaf should not");
        assert_eq!(net.memory_footprint().adjacency_rows, 1);
        for v in 1..n as u32 {
            assert!(net.are_neighbors(NodeId(0), NodeId(v)));
            assert!(net.are_neighbors(NodeId(v), NodeId(0)), "probe via hub row symmetric");
            assert!(!net.are_neighbors(NodeId(1), NodeId(v)) || v == 1);
            assert!(!net.are_neighbors(NodeId(v), NodeId(v)), "self-non-adjacency");
        }
    }

    #[test]
    fn memory_footprint_is_linear_not_quadratic() {
        // A 4096-node cycle: the old dense representation held n² bits
        // (2 MiB of rows); the thresholded index keeps no rows at all.
        let n = 4096usize;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(NodeId(v as u32), vec![g(0)]);
        }
        for v in 0..n {
            b.add_edge(NodeId(v as u32), NodeId(((v + 1) % n) as u32));
        }
        b.stats_mode(StatsMode::Approximate);
        let net = b.build().unwrap();
        let fp = net.memory_footprint();
        assert_eq!(fp.adjacency_rows, 0, "degree-2 nodes earn no dense rows");
        assert!(fp.total_bytes() < 512 * 1024, "O(n + m) footprint expected, got {fp}");
        assert!(net.are_neighbors(NodeId(0), NodeId(1)));
        assert!(net.are_neighbors(NodeId(0), NodeId((n - 1) as u32)));
        assert!(!net.are_neighbors(NodeId(0), NodeId(2)));
    }
}
