//! The synchronous slot-stepped execution engine.
//!
//! Each slot runs a batched three-stage pipeline:
//!
//! 1. **Batched action collection** — node actions are collected through
//!    the bulk [`Protocol::act_batch`] entry point (scalar [`Protocol::act`]
//!    per node by default; ported protocols draw their randomness from
//!    pre-filled, stream-identical word buffers) into a flat,
//!    channel-bucketed action table: local labels are translated through a
//!    precomputed flat `(node, label) → dense channel` table, per-channel
//!    populations are counted with epoch-stamped first-touch detection
//!    (nothing is ever bulk-cleared), and a counting-sort scatter produces
//!    contiguous per-channel broadcaster and listener buckets (CSR layout,
//!    ascending node order).
//! 2. **Per-channel resolution** — for each touched channel, classify every
//!    listener: it hears a message iff **exactly one** of its neighbors
//!    broadcast on the listened channel. Channels are independent within a
//!    slot.
//! 3. **Batched feedback delivery** — one counting sweep over the packed
//!    outcome array folds the per-outcome counters, then the bulk
//!    [`Protocol::feedback_batch`] entry point (scalar
//!    [`Protocol::feedback`] per node by default) hands each protocol its
//!    outcome, with heard messages passed by reference out of the
//!    broadcasters' action buffer (the engine never clones a payload).
//!
//! Each phase is one function over chunks, and one rule sizes every phase:
//! `min(threads, items)` chunks, where the items are nodes in phases 1 and
//! 3 and touched channels in phase 2, and `threads` is the
//! [`Resolver::ParallelSharded`] count (1 for every other resolver). One
//! chunk runs inline on the calling thread and writes the slot's table,
//! outcomes and counters directly. Several run as chunk 0 on the caller
//! plus one per worker of a persistent [`WorkerPool`] (parked between
//! slots, one atomic-generation wake per phase — see [`crate::pool`]), and
//! a deterministic merge in chunk order reproduces the one-chunk result
//! bit for bit: contiguous node ranges keep first-touch channel order and
//! ascending-node bucket order, resolution is deterministic per channel,
//! and per-chunk counter deltas are sums.
//!
//! This is precisely the communication model of paper §3 (no collision
//! detection, collision ≡ silence, broadcasters hear only themselves).
//!
//! When primary-user spectrum dynamics are installed
//! ([`Engine::set_spectrum`], see [`crate::spectrum`]), a **phase 0**
//! precedes collection: the PU process is advanced once into the new slot,
//! producing a busy mask over the dense channel universe. Phase 2 then
//! treats a busy channel as occupied — its broadcasts are swallowed and
//! every listener on it is resolved to the collision outcome — identically
//! under every resolver and thread count, because the mask is computed
//! sequentially from per-(slot, channel)-keyed streams before any
//! resolution begins.
//!
//! # Slot resolution strategies
//!
//! Resolution cost is where simulation time goes for every Θ(n·polylog n)
//! primitive in this repo, so the resolver adapts per channel and per slot
//! (see [`Resolver`]):
//!
//! * **Broadcaster-centric sweep** — walk each broadcaster's CSR neighbor
//!   slice once, accumulating per-listener hit counts in epoch-stamped
//!   scratch arrays (no per-slot `O(n)` clears). Cost `Σ_b deg(b)`; wins on
//!   dense channels with many listeners (epidemic dissemination workloads).
//! * **Listener-centric probe** — per listener, the cheapest of: scanning
//!   the channel's broadcaster list with pairwise adjacency tests, walking
//!   its own CSR slice against the channel's broadcaster bit set, or
//!   intersecting its adjacency row with that bit set word-by-word
//!   ([`BitSet::intersect_unique`]) — each with early exit at the second
//!   hit (a collision is a collision).
//! * The [`Resolver::Auto`] heuristic compares `Σ_b deg(b)` (weighted for
//!   its scattered writes) against the summed per-listener probe bound
//!   `Σ_l min(B, deg(l), n/64)` and picks the cheaper side for each channel
//!   independently. [`Resolver::ParallelSharded`] applies the same
//!   heuristic inside each chunk.
//!
//! All strategies — including the sharded one at any thread count — produce
//! bit-identical counters, feedbacks, and outputs; `Resolver::Naive` keeps
//! the original quadratic reference implementation for differential testing
//! and benchmarking. Resolution itself is deterministic (the model has no
//! channel noise), which is what makes sharding observationally invisible;
//! any *future* randomized channel effect must draw from the per-(slot,
//! channel) streams of [`Engine::channel_rng`], which are keyed by what is
//! being resolved rather than by visit order, preserving that invariant.
//!
//! # Adjacency and memory layout
//!
//! Phase 2 reads the network's own adjacency, in the same [`NodeId`]s that
//! protocols, RNG streams, collection and delivery use: CSR walks go
//! through [`Network::neighbor_slice`], and word intersections and pairwise
//! tests through [`Network::adjacency_row`], which exists for nodes of
//! degree `≥ max(64, n/64)`. The engine copies no graph. Its only
//! adjacency state is a dense row for every node at `n ≤ 4096` (≤ 2 MiB),
//! which keeps every pairwise test of the listener scan an `O(1)` probe.
//! Buckets hold node ids, and resolution writes each listener's packed
//! `u32` outcome in place.

use crate::bitset::{BitSet, Intersection};
use crate::ids::{GlobalChannel, LocalChannel, NodeId, Slot};
use crate::network::Network;
use crate::pool::WorkerPool;
use crate::protocol::{outcome, Action, BatchCtx, FeedbackBatch, NodeCtx, Protocol};
#[cfg(test)]
use crate::protocol::{Feedback, SlotCtx};
use crate::rng::{channel_slot_rng, stream_rng};
use crate::spectrum::{SpectrumDynamics, SpectrumState};
use rand::rngs::SmallRng;

/// Node count at or below which the engine keeps a dense adjacency row
/// for *every* node, on top of the network's rows for nodes above the
/// degree threshold. The full bit matrix costs n²/8 bytes — ≤ 2 MiB at
/// this bound — and keeps every pairwise adjacency test an O(1) probe,
/// which the listener scan path (and the `Naive` reference resolver) lean
/// on heavily at small n.
const DENSE_ALL_MAX_N: usize = 4096;

/// Aggregate event counters for a run, useful for energy/traffic accounting
/// and for sanity-checking experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Slots executed.
    pub slots: u64,
    /// Broadcast actions.
    pub broadcasts: u64,
    /// Listen actions.
    pub listens: u64,
    /// Sleep actions.
    pub sleeps: u64,
    /// Successful deliveries (listener heard exactly one neighbor).
    pub deliveries: u64,
    /// Listener-slots lost to collision (≥ 2 broadcasting neighbors), or
    /// silenced by primary-user activity on the tuned channel — the two
    /// are indistinguishable to the listener, so they share this counter
    /// (the PU share is broken out in [`Counters::pu_blocked_listens`]).
    pub collisions: u64,
    /// Listener-slots in which no neighbor broadcast on the channel.
    pub idle_listens: u64,
    /// Listener-slots silenced *specifically* by primary-user activity
    /// (always ≤ [`Counters::collisions`]). Zero unless spectrum dynamics
    /// are installed ([`Engine::set_spectrum`]).
    pub pu_blocked_listens: u64,
    /// Broadcast actions transmitted into a PU-busy channel and lost (the
    /// broadcaster cannot tell; these are also counted in
    /// [`Counters::broadcasts`]).
    pub pu_blocked_broadcasts: u64,
    /// (Touched channel, slot) pairs observed PU-busy — channel-slots in
    /// which at least one node tuned to a busy channel.
    pub pu_busy_channel_slots: u64,
}

impl Counters {
    /// Folds one phase-3 counting-sweep delta in (see [`count_outcomes`]).
    fn apply(&mut self, d: DeliverDelta) {
        self.idle_listens += d.idle_listens;
        self.collisions += d.collisions;
        self.pu_blocked_listens += d.pu_blocked_listens;
        self.deliveries += d.deliveries;
    }
}

/// Outcome of [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Slots actually executed.
    pub slots_run: u64,
    /// First slot (1-based count of executed slots) at which the progress
    /// probe returned `true`, if it ever did.
    pub completed_at: Option<u64>,
    /// `true` if every protocol reported [`Protocol::is_complete`] when the
    /// run stopped.
    pub all_protocols_done: bool,
}

/// How the engine resolves deliveries on each channel. All strategies are
/// observationally identical; they differ only in per-slot cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Resolver {
    /// Per channel, pick the cheaper of the broadcaster-centric sweep and
    /// the listener-centric probe by comparing (weighted) `Σ_b deg(b)`
    /// with `Σ_l min(B, deg(l), n/64)`. The right default.
    #[default]
    Auto,
    /// Always walk broadcasters' CSR neighbor slices.
    BroadcasterCentric,
    /// Always probe from the listener side (per listener: broadcaster-list
    /// scan, own-CSR walk, or word intersection — whichever bounds cheapest).
    ListenerCentric,
    /// The original reference implementation: every listener linearly scans
    /// every broadcaster on its channel with a per-pair adjacency test.
    /// Kept for differential testing and as the benchmark baseline.
    Naive,
    /// `sharded(k)` chunks every phase `k` ways: phases 1 and 3 into
    /// `min(k, n)` contiguous node ranges, phase 2 into `min(k, touched)`
    /// cost-balanced channel ranges, each resolved with the
    /// [`Resolver::Auto`] heuristic. Chunk 0 runs on the calling thread,
    /// the others on an engine-owned [`WorkerPool`] of `k − 1` workers that
    /// is spawned on first use, parks between phases, and is torn down on
    /// drop. Every pooled phase pays one worker wake, so this is meant for
    /// huge runs on idle cores; small networks run faster on `Auto`.
    /// Bit-identical to the sequential strategies at any thread count;
    /// `k ≤ 1` is one chunk, i.e. sequential `Auto`.
    ParallelSharded {
        /// Chunks per phase (and threads, counting the caller).
        threads: usize,
    },
}

impl Resolver {
    /// Convenience constructor for [`Resolver::ParallelSharded`].
    pub fn sharded(threads: usize) -> Resolver {
        Resolver::ParallelSharded { threads }
    }

    /// The per-channel strategy this resolver applies once a channel is in
    /// hand (the sharded mode resolves each channel with `Auto`).
    fn per_channel(self) -> Resolver {
        match self {
            Resolver::ParallelSharded { .. } => Resolver::Auto,
            r => r,
        }
    }

    /// The most chunks any phase is split into: the sharded thread count,
    /// 1 for every sequential strategy.
    fn threads(self) -> usize {
        match self {
            Resolver::ParallelSharded { threads } => threads.max(1),
            _ => 1,
        }
    }
}

/// The execution engine. Owns one protocol instance and one RNG stream per
/// node; borrows the immutable [`Network`].
///
/// # Examples
/// ```
/// use crn_sim::*;
///
/// // Two nodes, one shared channel; node 0 beacons, node 1 listens.
/// struct Side { tx: bool, heard: Option<u32> }
/// impl Protocol for Side {
///     type Message = u32;
///     type Output = Option<u32>;
///     fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
///         if self.tx {
///             Action::Broadcast { channel: LocalChannel(0), message: 7 }
///         } else {
///             Action::Listen { channel: LocalChannel(0) }
///         }
///     }
///     fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
///         if let Feedback::Heard(m) = fb { self.heard = Some(*m); }
///     }
///     fn is_complete(&self) -> bool { self.heard.is_some() || self.tx }
///     fn into_output(self) -> Option<u32> { self.heard }
/// }
///
/// let mut b = Network::builder(2);
/// b.set_channels(NodeId(0), vec![GlobalChannel(0)]);
/// b.set_channels(NodeId(1), vec![GlobalChannel(0)]);
/// b.add_edge(NodeId(0), NodeId(1));
/// let net = b.build()?;
/// let mut eng = Engine::new(&net, 1, |ctx| Side { tx: ctx.id == NodeId(0), heard: None });
/// eng.run(10, None);
/// assert_eq!(eng.into_outputs()[1], Some(7));
/// # Ok::<(), crn_sim::NetworkError>(())
/// ```
pub struct Engine<'net, P: Protocol> {
    net: &'net Network,
    protocols: Vec<P>,
    rngs: Vec<SmallRng>,
    slot: u64,
    counters: Counters,
    resolver: Resolver,
    /// Master seed, retained to derive per-(slot, channel) streams.
    seed: u64,
    /// Channels per node.
    c: usize,
    /// Flat `(node, local label) → dense channel` translation table (`n·c`
    /// entries) — one lookup in the hot loop instead of a nested-`Vec`
    /// chase plus a raw-id remap.
    xlate: Vec<u32>,
    /// Dense channel → raw global id (the inverse of the remap behind
    /// `xlate`), kept for consumers that must key by *global* channel —
    /// the spectrum layer's per-(slot, channel) RNG streams.
    dense_to_raw: Vec<u32>,
    /// Primary-user spectrum dynamics, if installed ([`Engine::set_spectrum`]).
    /// `None` ≡ [`SpectrumDynamics::Static`]: every channel idle forever.
    spectrum: Option<SpectrumState>,
    /// Per-node packed plan for the current slot: an index into the
    /// node's chunk-local touched list, with [`BCAST_BIT`] for
    /// broadcasters, or [`SLEEPING`].
    node_plan: Vec<u32>,
    /// Per-node packed resolution results for the current slot (see
    /// [`OC_MIN_SENTINEL`]).
    outcomes: Vec<u32>,
    /// Every node's dense adjacency row at `n ≤ DENSE_ALL_MAX_N`; empty
    /// above, where phase 2 uses the network's hub rows alone.
    dense_rows: Vec<BitSet>,
    /// The slot's channel-bucketed action table. A one-chunk phase 1
    /// writes it directly; a multi-chunk one merges `chunk_tables` into it.
    /// Heard messages are delivered by reference out of its action buffer.
    table: Table<P::Message>,
    /// Per-chunk tables of a multi-chunk phase 1; empty until a slot runs
    /// with more than one chunk.
    chunk_tables: Vec<Table<P::Message>>,
    /// Per-chunk phase-1 stamps and counts; `[0]` belongs to the calling
    /// thread and doubles as the merge's global stamp table.
    stamps: Vec<Stamps>,
    /// Per-chunk phase-2 scratch and outcome buffers; `[0]` belongs to the
    /// calling thread.
    shards: Vec<ShardSlot>,
    /// Per-channel cost proxies and chunk bounds of a multi-chunk phase 2,
    /// kept across slots to avoid reallocation.
    shard_weights: Vec<u64>,
    shard_bounds: Vec<(usize, usize)>,
    /// Worker pool of a multi-chunk engine: `threads − 1` parked workers,
    /// spawned on the first multi-chunk phase (one-chunk engines never pay
    /// for it), re-sized if the thread count changes, torn down on drop.
    pool: Option<WorkerPool>,
    /// Cumulative per-phase wall-clock totals ([`Engine::set_phase_timing`]).
    /// `None` (the default) records nothing; `Some` pays ~5 monotonic clock
    /// reads per slot and is observationally invisible (see
    /// [`PhaseTimings`]).
    phase_timings: Option<PhaseTimings>,
}

/// A progress probe: evaluated every `interval` slots with the slot count
/// and the engine; returning `true` stops the run (ground-truth completion).
pub type Probe<'a, 'b, 'net, P> = (u64, &'a mut (dyn FnMut(u64, &Engine<'net, P>) -> bool + 'b));

/// Cumulative per-phase wall-clock totals for [`Engine::step`], split by
/// whether a phase ran as one chunk or as more than one (see the module
/// docs for the chunking rule). Off by default; enabled with
/// [`Engine::set_phase_timing`] and read with [`Engine::phase_timings`].
///
/// **Observationally invisible by construction:** the timers only *read*
/// the monotonic clock and accumulate into this struct — no engine control
/// flow, counter, RNG stream, or protocol callback depends on a measured
/// value, and the chunk count of every phase is a pure function of the
/// resolver and the slot's items. The guarantee "timers on vs off is
/// bit-identical" is enforced by the lockstep differential in
/// `tests/tests/metrics_equiv.rs` across all resolvers and thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Slots measured (== slots stepped while timing was enabled).
    pub slots: u64,
    /// Phase 0: spectrum/PU process advance (zero when no dynamics are
    /// installed — the phase is skipped entirely).
    pub spectrum_ns: u64,
    /// Phase 1 in slots where it ran as one chunk.
    pub collect_sequential_ns: u64,
    /// Phase 1 in slots where it ran as >1 chunk.
    pub collect_pooled_ns: u64,
    /// Slots whose phase 1 ran as >1 chunk.
    pub collect_pooled_slots: u64,
    /// Phase 2 in slots where it ran as one chunk.
    pub resolve_sequential_ns: u64,
    /// Phase 2 in slots where it ran as >1 chunk.
    pub resolve_sharded_ns: u64,
    /// Slots whose phase 2 ran as >1 chunk.
    pub resolve_sharded_slots: u64,
    /// Phase 3 in slots where it ran as one chunk.
    pub deliver_sequential_ns: u64,
    /// Phase 3 in slots where it ran as >1 chunk.
    pub deliver_pooled_ns: u64,
    /// Slots whose phase 3 ran as >1 chunk.
    pub deliver_pooled_slots: u64,
}

impl PhaseTimings {
    /// Phase-1 total, one chunk or more.
    pub fn collect_ns(&self) -> u64 {
        self.collect_sequential_ns + self.collect_pooled_ns
    }

    /// Phase-2 total, one chunk or more.
    pub fn resolve_ns(&self) -> u64 {
        self.resolve_sequential_ns + self.resolve_sharded_ns
    }

    /// Phase-3 total, one chunk or more.
    pub fn deliver_ns(&self) -> u64 {
        self.deliver_sequential_ns + self.deliver_pooled_ns
    }

    /// Sum over all four phases.
    pub fn total_ns(&self) -> u64 {
        self.spectrum_ns + self.collect_ns() + self.resolve_ns() + self.deliver_ns()
    }

    /// Books `ns` of one phase to its one-chunk total or, with `chunks > 1`,
    /// to its multi-chunk total and slot count.
    fn book(ns: u64, chunks: usize, one: &mut u64, many: &mut u64, many_slots: &mut u64) {
        if chunks > 1 {
            *many += ns;
            *many_slots += 1;
        } else {
            *one += ns;
        }
    }
}

/// Reads the elapsed time since `*mark` and re-arms the mark at the same
/// clock read, so consecutive laps share boundaries (one read per phase
/// boundary, not two). `0` when timing is off (`mark` is `None`).
fn lap(mark: &mut Option<std::time::Instant>) -> u64 {
    match mark {
        Some(prev) => {
            let now = std::time::Instant::now();
            let ns = now.duration_since(*prev).as_nanos() as u64;
            *mark = Some(now);
            ns
        }
        None => 0,
    }
}

/// Per-outcome counter updates accumulated by one phase-3 delivery chunk
/// (see [`count_outcomes`]). Merging the chunks' deltas in chunk order
/// reproduces the scalar loop's totals exactly: each counter is a sum of
/// per-node contributions, the chunks partition the node range, and `u64`
/// addition is associative — no ordering effect can survive the merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DeliverDelta {
    idle_listens: u64,
    collisions: u64,
    pu_blocked_listens: u64,
    deliveries: u64,
}

/// The phase-3 counting sweep: fold a packed-outcome range into per-outcome
/// counter deltas in one branch-predictable pass (comparison masks, no
/// data-dependent branches — the scalar loop's six-way match ran once per
/// node interleaved with the virtual feedback call). `OC_PU_BUSY` counts as
/// both a collision and a PU-blocked listen, exactly as the scalar arms did.
fn count_outcomes(outcomes: &[u32]) -> DeliverDelta {
    let mut d = DeliverDelta::default();
    for &oc in outcomes {
        d.idle_listens += u64::from(oc == OC_IDLE);
        d.collisions += u64::from(oc == OC_COLLISION) + u64::from(oc == OC_PU_BUSY);
        d.pu_blocked_listens += u64::from(oc == OC_PU_BUSY);
        d.deliveries += u64::from(oc < OC_MIN_SENTINEL);
    }
    d
}

/// `node_plan` bit marking a broadcaster.
const BCAST_BIT: u32 = 1 << 31;
/// `node_plan` sentinel for a sleeping node.
const SLEEPING: u32 = u32::MAX;

/// Per-node resolution results are packed into one `u32` each — the
/// struct-of-arrays layout the million-node path needs (half the bytes and
/// no discriminant branch in the scatter loops). Values below
/// [`OC_MIN_SENTINEL`] mean `Heard(broadcaster)`, by node id, so the
/// delivery phase can borrow the message straight out of the action
/// buffer.
///
/// The packing is public API since batched delivery
/// ([`Protocol::feedback_batch`]) hands protocols the raw array; the
/// canonical constants live in [`crate::protocol::outcome`] and are
/// re-bound here under the engine's historical `OC_*` names. A node count
/// must stay strictly below [`OC_MIN_SENTINEL`] so a broadcaster id can
/// never alias a sentinel (asserted at construction).
const OC_SENT: u32 = outcome::SENT;
const OC_SLEPT: u32 = outcome::SLEPT;
const OC_IDLE: u32 = outcome::IDLE;
const OC_COLLISION: u32 = outcome::COLLISION;
const OC_PU_BUSY: u32 = outcome::PU_BUSY;
const OC_MIN_SENTINEL: u32 = outcome::MIN_SENTINEL;

/// Phase 2's view of the adjacency: the network's CSR slices and
/// degree-thresholded rows, plus the engine's all-node rows at
/// `n ≤ DENSE_ALL_MAX_N` (`dense` is empty above).
#[derive(Clone, Copy)]
struct Adjacency<'a> {
    net: &'a Network,
    dense: &'a [BitSet],
}

impl<'a> Adjacency<'a> {
    #[inline]
    fn neighbor_slice(self, v: u32) -> &'a [u32] {
        self.net.neighbor_slice(NodeId(v))
    }

    /// `v`'s dense row: the engine's own at small n, else the network's
    /// (hubs only).
    #[inline]
    fn row(self, v: u32) -> Option<&'a BitSet> {
        self.dense.get(v as usize).or_else(|| self.net.adjacency_row(NodeId(v)))
    }

    /// `true` if `u` and `v` are adjacent: a row probe at small n, else
    /// [`Network::are_neighbors`] (a hub's row, or a binary search of the
    /// shorter CSR slice).
    #[inline]
    fn are(self, u: u32, v: u32) -> bool {
        match self.dense.get(u as usize) {
            Some(row) => row.contains(v as usize),
            None => self.net.are_neighbors(NodeId(u), NodeId(v)),
        }
    }
}

/// Every node's dense adjacency row when `n ≤ DENSE_ALL_MAX_N`, none above.
fn dense_rows(net: &Network) -> Vec<BitSet> {
    let n = net.len();
    if n > DENSE_ALL_MAX_N {
        return Vec::new();
    }
    (0..n as u32)
        .map(|v| {
            let mut bits = BitSet::new(n);
            for &w in net.neighbor_slice(NodeId(v)) {
                bits.insert(w as usize);
            }
            bits
        })
        .collect()
}

/// Epoch-stamped per-thread resolution scratch. Sized to the node count;
/// nothing in it is ever bulk-cleared (a stamp comparison makes stale cells
/// invisible), so shards pay O(work) rather than O(n) per channel.
struct Scratch {
    /// Epoch stamps marking the channel's listeners, whose `hit_count` and
    /// `hit_src` cells the broadcaster-centric sweep accumulates into.
    mark_epoch: Vec<u64>,
    hit_count: Vec<u32>,
    hit_src: Vec<u32>,
    epoch: u64,
    /// Scratch bit set of the broadcasters on the channel being resolved
    /// (built and un-built per channel, O(B) each way).
    bcast_bits: BitSet,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            mark_epoch: vec![0; n],
            hit_count: vec![0; n],
            hit_src: vec![0; n],
            epoch: 0,
            bcast_bits: BitSet::new(n),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.mark_epoch.capacity() * 8
            + (self.hit_count.capacity() + self.hit_src.capacity()) * 4
            + self.bcast_bits.words().len() * 8
    }
}

/// One phase-2 chunk's long-lived resolution state: the epoch-stamped
/// [`Scratch`] plus, in a multi-chunk slot, the outcome buffer the chunk
/// resolves into (listener-position order; scattered into the engine's
/// outcomes after the join). Chunk 0 runs on the calling thread; chunks
/// `1..` are handed to pool workers, each mutating only its own slot.
struct ShardSlot {
    scratch: Scratch,
    out: Vec<u32>,
}

impl ShardSlot {
    fn new(n: usize) -> ShardSlot {
        ShardSlot { scratch: Scratch::new(n), out: Vec::new() }
    }
}

/// A node range's channel-bucketed action table: the range's actions in
/// node order, the dense channels it touched in first-touch order, and
/// its broadcasters and listeners grouped by touched channel (CSR layout,
/// ascending node order within each group).
struct Table<M> {
    actions: Vec<Action<M>>,
    touched: Vec<u32>,
    /// Per touched channel: CSR offsets into the buckets (`touched + 1`
    /// entries).
    b_off: Vec<u32>,
    l_off: Vec<u32>,
    b_nodes: Vec<u32>,
    l_nodes: Vec<u32>,
}

impl<M> Table<M> {
    fn new() -> Table<M> {
        Table {
            actions: Vec::new(),
            touched: Vec::new(),
            b_off: vec![0],
            l_off: vec![0],
            b_nodes: Vec::new(),
            l_nodes: Vec::new(),
        }
    }

    /// Prefix-sums per-touched-channel counts into the CSR offsets, sizes
    /// the buckets, and turns the counts into scatter cursors.
    fn lay_out(&mut self, b_cnt: &mut [u32], l_cnt: &mut [u32]) {
        let t = self.touched.len();
        self.b_off.clear();
        self.l_off.clear();
        self.b_off.push(0);
        self.l_off.push(0);
        let (mut tb, mut tl) = (0u32, 0u32);
        for ti in 0..t {
            tb += b_cnt[ti];
            tl += l_cnt[ti];
            self.b_off.push(tb);
            self.l_off.push(tl);
        }
        self.b_nodes.resize(tb as usize, 0);
        self.l_nodes.resize(tl as usize, 0);
        b_cnt.copy_from_slice(&self.b_off[..t]);
        l_cnt.copy_from_slice(&self.l_off[..t]);
    }

    #[inline]
    fn broadcasters(&self, ti: usize) -> &[u32] {
        &self.b_nodes[self.b_off[ti] as usize..self.b_off[ti + 1] as usize]
    }

    #[inline]
    fn listeners(&self, ti: usize) -> &[u32] {
        &self.l_nodes[self.l_off[ti] as usize..self.l_off[ti + 1] as usize]
    }

    /// Heap bytes (`actions` by capacity × element size — payloads that own
    /// heap of their own are the protocol's memory, not the engine's).
    fn memory_bytes(&self) -> usize {
        self.actions.capacity() * std::mem::size_of::<Action<M>>()
            + (self.touched.capacity()
                + self.b_off.capacity()
                + self.l_off.capacity()
                + self.b_nodes.capacity()
                + self.l_nodes.capacity())
                * 4
    }
}

/// One phase-1 chunk's bookkeeping: a universe-sized first-touch stamp
/// table (nothing is ever bulk-cleared; a stamp from an older epoch reads
/// as untouched), per-touched-channel counts that become scatter cursors,
/// and the chunk's action tallies.
struct Stamps {
    epoch: u64,
    /// Per dense channel: the epoch that last touched it.
    ch_epoch: Vec<u64>,
    /// Per dense channel: its index into the touched list (valid iff
    /// stamped with the current epoch).
    ch_slot: Vec<u32>,
    b_cnt: Vec<u32>,
    l_cnt: Vec<u32>,
    /// Broadcasts, listens and sleeps of the chunk's last slot.
    tally: [u64; 3],
}

impl Stamps {
    fn new(universe: usize) -> Stamps {
        Stamps {
            epoch: 0,
            ch_epoch: vec![0; universe],
            ch_slot: vec![0; universe],
            b_cnt: Vec::new(),
            l_cnt: Vec::new(),
            tally: [0; 3],
        }
    }

    /// Starts a fresh touched list: a new epoch and no counts.
    fn begin(&mut self) {
        self.epoch += 1;
        self.b_cnt.clear();
        self.l_cnt.clear();
    }

    /// Registers dense channel `ch` as touched (idempotent per epoch),
    /// appending first touches to `touched`, and returns its index there.
    #[inline]
    fn touch(&mut self, touched: &mut Vec<u32>, ch: usize) -> usize {
        if self.ch_epoch[ch] != self.epoch {
            self.ch_epoch[ch] = self.epoch;
            debug_assert!(
                (touched.len() as u32) < BCAST_BIT,
                "touched index overflows the role bit"
            );
            self.ch_slot[ch] = touched.len() as u32;
            touched.push(ch as u32);
            self.b_cnt.push(0);
            self.l_cnt.push(0);
        }
        self.ch_slot[ch] as usize
    }

    fn memory_bytes(&self) -> usize {
        self.ch_epoch.capacity() * 8
            + (self.ch_slot.capacity() + self.b_cnt.capacity() + self.l_cnt.capacity()) * 4
    }
}

/// Translates node `v`'s local label through the flat `(node, label) →
/// dense channel` table.
///
/// # Panics
/// Panics if a protocol tunes to a label outside `0..c` — without the
/// check, a bad label would silently alias into the next node's
/// translation row.
#[inline]
fn translate_label(xlate: &[u32], c: usize, v: usize, channel: LocalChannel) -> usize {
    let l = channel.index();
    assert!(l < c, "node {v} tuned to local channel {l} but c = {c}");
    xlate[v * c + l] as usize
}

/// Phase-1 body for one contiguous node chunk `[base, base + len)`:
/// collect the chunk's actions through [`Protocol::act_batch`], translate
/// and count them against the chunk's stamps, and counting-sort the
/// chunk's nodes into `table`'s per-channel buckets. Identical on the
/// calling thread and on a pool worker; touches only the chunk's disjoint
/// slices plus its private table and stamps.
#[allow(clippy::too_many_arguments)]
fn collect_chunk<P: Protocol>(
    slot: Slot,
    base: usize,
    xlate: &[u32],
    c: usize,
    protos: &mut [P],
    rngs: &mut [SmallRng],
    node_plan: &mut [u32],
    outcomes: &mut [u32],
    table: &mut Table<P::Message>,
    st: &mut Stamps,
) {
    table.actions.clear();
    table.touched.clear();
    st.begin();

    let mut ctx = BatchCtx::new(slot, rngs);
    P::act_batch(protos, &mut ctx, &mut table.actions);
    assert_eq!(table.actions.len(), protos.len(), "act_batch must emit one action per node");

    let mut tally = [0u64; 3];
    for (i, action) in table.actions.iter().enumerate() {
        let (packed, outcome) = match action {
            Action::Broadcast { channel, .. } => {
                tally[0] += 1;
                let ti =
                    st.touch(&mut table.touched, translate_label(xlate, c, base + i, *channel));
                st.b_cnt[ti] += 1;
                (ti as u32 | BCAST_BIT, OC_SENT)
            }
            Action::Listen { channel } => {
                tally[1] += 1;
                let ti =
                    st.touch(&mut table.touched, translate_label(xlate, c, base + i, *channel));
                st.l_cnt[ti] += 1;
                (ti as u32, OC_IDLE)
            }
            Action::Sleep => {
                tally[2] += 1;
                (SLEEPING, OC_SLEPT)
            }
        };
        node_plan[i] = packed;
        outcomes[i] = outcome;
    }
    st.tally = tally;

    // Counting-sort scatter into the buckets: ascending node order within
    // each group by construction.
    table.lay_out(&mut st.b_cnt, &mut st.l_cnt);
    for (i, &packed) in node_plan.iter().enumerate() {
        if packed == SLEEPING {
            continue;
        }
        let v = (base + i) as u32;
        if packed & BCAST_BIT != 0 {
            let ti = (packed & !BCAST_BIT) as usize;
            table.b_nodes[st.b_cnt[ti] as usize] = v;
            st.b_cnt[ti] += 1;
        } else {
            let ti = packed as usize;
            table.l_nodes[st.l_cnt[ti] as usize] = v;
            st.l_cnt[ti] += 1;
        }
    }
}

/// Merges the tables of a multi-chunk phase 1 into `table`, using `st`
/// (chunk 0's stamps, free once the chunks have joined) as the global
/// first-touch table:
///
/// * the global touched list is rebuilt by walking the chunk-local lists in
///   chunk order and keeping first occurrences — exactly the one-chunk
///   first-touch order, because chunks cover ascending node ranges and
///   each local list is in node order;
/// * per-channel counts are summed and laid out, and each chunk's bucket
///   segments are copied in chunk order — ascending chunk order × ascending
///   node order within a chunk = ascending node order within every bucket,
///   as one chunk produces;
/// * the chunk actions are appended in node order.
fn merge_tables<M>(table: &mut Table<M>, chunks: &mut [Table<M>], st: &mut Stamps) {
    table.actions.clear();
    table.touched.clear();
    st.begin();
    for part in chunks.iter() {
        for (lti, &ch) in part.touched.iter().enumerate() {
            let ti = st.touch(&mut table.touched, ch as usize);
            st.b_cnt[ti] += part.b_off[lti + 1] - part.b_off[lti];
            st.l_cnt[ti] += part.l_off[lti + 1] - part.l_off[lti];
        }
    }
    table.lay_out(&mut st.b_cnt, &mut st.l_cnt);
    for part in chunks.iter_mut() {
        for (lti, &ch) in part.touched.iter().enumerate() {
            let ti = st.ch_slot[ch as usize] as usize;
            let src = part.broadcasters(lti);
            let cur = st.b_cnt[ti] as usize;
            table.b_nodes[cur..cur + src.len()].copy_from_slice(src);
            st.b_cnt[ti] += src.len() as u32;
            let src = part.listeners(lti);
            let cur = st.l_cnt[ti] as usize;
            table.l_nodes[cur..cur + src.len()].copy_from_slice(src);
            st.l_cnt[ti] += src.len() as u32;
        }
        table.actions.append(&mut part.actions);
    }
}

/// Contiguous node chunks for phases 1 and 3: `(chunk length, chunk
/// count)` for `min(threads, n)` chunks of `⌈n / chunks⌉` nodes, the last
/// possibly shorter (so the count can come out below `min(threads, n)`).
/// One chunk is the whole range, computed without a division: the
/// one-chunk path runs every slot of every sequential engine.
fn node_chunks(n: usize, threads: usize) -> (usize, usize) {
    let chunks = threads.min(n);
    if chunks <= 1 {
        return (n, 1);
    }
    let len = n.div_ceil(chunks);
    (len, n.div_ceil(len))
}

/// Runs `task` on every chunk of a phase with several — chunk 0 on the
/// calling thread plus one per worker of `pool`, which is (re)built with
/// `threads − 1` workers if it does not have them yet — and returns the
/// tasks in chunk order. (A phase with one chunk calls its body inline
/// instead: no pool, no task list.)
fn fork<T: Send>(
    pool: &mut Option<WorkerPool>,
    threads: usize,
    tasks: impl Iterator<Item = T>,
    task: impl Fn(&mut T) + Sync,
) -> Vec<T> {
    if pool.as_ref().map(WorkerPool::workers) != Some(threads - 1) {
        *pool = Some(WorkerPool::new(threads - 1));
    }
    let mut tasks: Vec<T> = tasks.collect();
    let (first, rest) = tasks.split_at_mut(1);
    pool.as_mut().expect("pool built above").run_with(rest, |_, t| task(t), || task(&mut first[0]));
    tasks
}

/// `Σ_v min(deg(v), cap)` over `nodes`, estimated from at most 32
/// evenly-strided samples (exact below that). Deterministic — no RNG, no
/// dependence on thread count — so the `Auto` choice it feeds stays
/// reproducible; and since every strategy is observationally identical,
/// the approximation can only ever change *speed*, never results.
fn approx_degree_sum(net: &Network, nodes: &[u32], cap: usize) -> usize {
    const SAMPLE: usize = 32;
    if nodes.len() <= SAMPLE {
        nodes.iter().map(|&v| net.degree(NodeId(v)).min(cap)).sum()
    } else {
        // Ceiling stride so the samples span the whole bucket — a floor
        // stride of 1 for lengths in (SAMPLE, 2·SAMPLE) would sample only
        // a prefix, and buckets are in ascending node order (hubs first in
        // star-like scenarios).
        let stride = nodes.len().div_ceil(SAMPLE);
        let taken = nodes.len().div_ceil(stride);
        let sampled: usize =
            nodes.iter().step_by(stride).map(|&v| net.degree(NodeId(v)).min(cap)).sum();
        sampled * nodes.len() / taken
    }
}

/// One listener's scan over a channel broadcaster list (shared by the
/// naive reference resolver and the adaptive listener paths).
#[inline]
fn scan_listener(adj: Adjacency<'_>, bcasters: &[u32], l: u32) -> u32 {
    let mut heard_from = 0u32;
    let mut adjacent = 0u32;
    for &b in bcasters {
        if adj.are(l, b) {
            adjacent += 1;
            if adjacent > 1 {
                break;
            }
            heard_from = b;
        }
    }
    match adjacent {
        0 => OC_IDLE,
        1 => heard_from,
        _ => OC_COLLISION,
    }
}

/// Broadcaster-centric sweep: stamp the channel's listeners with a fresh
/// epoch, then walk each broadcaster's CSR neighbor slice once,
/// accumulating hit counts only in stamped cells. `O(L + Σ_b deg(b))`,
/// independent of how many listeners each broadcaster reaches.
fn resolve_broadcaster_centric(
    adj: Adjacency<'_>,
    scratch: &mut Scratch,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    for &l in listeners {
        scratch.mark_epoch[l as usize] = epoch;
        scratch.hit_count[l as usize] = 0;
    }
    for &b in bcasters {
        for &w in adj.neighbor_slice(b) {
            let w = w as usize;
            if scratch.mark_epoch[w] == epoch {
                scratch.hit_count[w] += 1;
                scratch.hit_src[w] = b;
            }
        }
    }
    for (pos, &l) in listeners.iter().enumerate() {
        let outcome = match scratch.hit_count[l as usize] {
            0 => OC_IDLE,
            1 => scratch.hit_src[l as usize],
            _ => OC_COLLISION,
        };
        emit(pos, l, outcome);
    }
}

/// Listener-centric probe, adaptive per listener: each listener takes
/// the cheapest of three equivalent tests, all with early exit at the
/// second hit —
///
/// 1. *scan* the channel's broadcaster list with `O(1)` adjacency bits
///    (cost ≤ `B`, best when the list is shorter than the degree);
/// 2. *walk* its own CSR neighbor slice, testing each neighbor against the
///    channel's broadcaster bit set (cost ≤ `deg(l)` probes into an
///    `n/8`-byte, L1-resident set — for n = 5000 that is 632 bytes, versus
///    the 40 KB an epoch-stamp array would thrash; best for low-degree
///    listeners and crowded channels, where a couple of probes already
///    collide);
/// 3. *word-intersect* its adjacency row with the same broadcaster bit set
///    (cost ≤ `n/64` words, best for high-degree listeners on channels
///    with many broadcasters).
fn resolve_listener_centric(
    adj: Adjacency<'_>,
    scratch: &mut Scratch,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    let nb = bcasters.len();
    let words = scratch.bcast_bits.words().len().max(1);
    // Both the walk and the word path probe the broadcaster bit set; build
    // it once per channel, un-build after (O(B) each way).
    for &b in bcasters {
        scratch.bcast_bits.insert(b as usize);
    }
    for (pos, &l) in listeners.iter().enumerate() {
        let neighbors = adj.neighbor_slice(l);
        let d = neighbors.len();
        // Dense rows only exist above the degree threshold; a listener in
        // the (rare) `words < d < threshold` band without one takes the
        // cheaper of the two remaining tests — any choice is
        // observationally identical.
        let row = adj.row(l);
        let outcome = if nb <= d && (nb <= words || row.is_none()) {
            scan_listener(adj, bcasters, l)
        } else if d <= words || row.is_none() {
            // Walk the listener's own neighbors against the bit set,
            // probing the backing words directly (the slice borrow keeps
            // the base pointer in a register across the walk). Hits are
            // accumulated as data dependencies, not an if-body: whether a
            // neighbor broadcasts is a coin flip the branch predictor
            // cannot learn, and a mispredict costs more than the probe.
            let bits = scratch.bcast_bits.words();
            let mut count = 0u32;
            let mut src = 0u32;
            for &w in neighbors {
                let hit = ((bits[(w >> 6) as usize] >> (w & 63)) & 1) as u32;
                src = if count == 0 && hit != 0 { w } else { src };
                count += hit;
                if count >= 2 {
                    break;
                }
            }
            match count {
                0 => OC_IDLE,
                1 => src,
                _ => OC_COLLISION,
            }
        } else {
            match row.expect("checked above").intersect_unique(&scratch.bcast_bits) {
                Intersection::Empty => OC_IDLE,
                Intersection::Unique(b) => b as u32,
                Intersection::Many => OC_COLLISION,
            }
        };
        emit(pos, l, outcome);
    }
    for &b in bcasters {
        scratch.bcast_bits.remove(b as usize);
    }
}

/// Resolves one channel with a *sequential* strategy, emitting
/// `(position-in-listener-list, listener, outcome)` triples (packed
/// outcomes). The caller guarantees both populations are non-empty.
fn resolve_channel_into(
    adj: Adjacency<'_>,
    scratch: &mut Scratch,
    strategy: Resolver,
    bcasters: &[u32],
    listeners: &[u32],
    emit: &mut impl FnMut(usize, u32, u32),
) {
    debug_assert!(!bcasters.is_empty() && !listeners.is_empty());
    match strategy {
        Resolver::Naive => {
            for (pos, &l) in listeners.iter().enumerate() {
                emit(pos, l, scan_listener(adj, bcasters, l));
            }
        }
        Resolver::BroadcasterCentric => {
            resolve_broadcaster_centric(adj, scratch, bcasters, listeners, emit)
        }
        Resolver::ListenerCentric => {
            resolve_listener_centric(adj, scratch, bcasters, listeners, emit)
        }
        Resolver::Auto => {
            // Broadcaster side: one pass over all broadcasters' neighbor
            // slices — scattered increments, so weight them ~2× against
            // the listener side's sequential probes. Listener side: each
            // listener pays the cheapest of scanning the broadcaster
            // list, walking its own CSR slice, or one word sweep. Degree
            // sums are estimated from a deterministic sample: the choice
            // needs the order of magnitude, and exact sums would cost a
            // random read per node — a measurable slice of dense slots.
            // (Any choice is observationally identical, so sampling can
            // never change results.)
            let nb = bcasters.len();
            let bcast_cost = listeners.len() + 2 * approx_degree_sum(adj.net, bcasters, usize::MAX);
            let words = scratch.bcast_bits.words().len().max(1);
            let listen_cost = 2 * nb + approx_degree_sum(adj.net, listeners, nb.min(words));
            if bcast_cost <= listen_cost {
                resolve_broadcaster_centric(adj, scratch, bcasters, listeners, emit)
            } else {
                resolve_listener_centric(adj, scratch, bcasters, listeners, emit)
            }
        }
        Resolver::ParallelSharded { .. } => {
            unreachable!("sharded resolution dispatches whole slots, not single channels")
        }
    }
}

/// Phase-2 body for touched channels `lo..hi` of `table`: resolves each
/// with `strategy` and emits `(position in the range's listener list,
/// listener, outcome)` triples (packed outcomes). A PU-busy channel
/// swallows its broadcasts and every listener on it hears noise, even with
/// no broadcaster (the primary user itself occupies the medium); a channel
/// with no broadcaster leaves its listeners' provisional `Idle`.
fn resolve_range<M>(
    adj: Adjacency<'_>,
    scratch: &mut Scratch,
    strategy: Resolver,
    busy: Option<&BitSet>,
    table: &Table<M>,
    (lo, hi): (usize, usize),
    emit: &mut impl FnMut(usize, u32, u32),
) {
    let mut base = 0usize;
    for (ti, &ch) in (lo..hi).zip(&table.touched[lo..hi]) {
        let (bs, ls) = (table.broadcasters(ti), table.listeners(ti));
        if busy.is_some_and(|m| m.contains(ch as usize)) {
            for (pos, &l) in ls.iter().enumerate() {
                emit(base + pos, l, OC_PU_BUSY);
            }
        } else if !bs.is_empty() && !ls.is_empty() {
            resolve_channel_into(adj, scratch, strategy, bs, ls, &mut |pos, l, oc| {
                emit(base + pos, l, oc)
            });
        }
        base += ls.len();
    }
}

impl<'net, P: Protocol> Engine<'net, P> {
    /// Creates an engine for `net` with the default [`Resolver::Auto`],
    /// constructing each node's protocol via `make`, and deriving all node
    /// RNG streams from `seed`.
    pub fn new(net: &'net Network, seed: u64, make: impl FnMut(NodeCtx) -> P) -> Self {
        Engine::with_resolver(net, seed, Resolver::Auto, make)
    }

    /// Like [`Engine::new`] but with an explicit resolution strategy —
    /// used by differential tests, resolver benchmarks, and callers opting
    /// into [`Resolver::ParallelSharded`].
    pub fn with_resolver(
        net: &'net Network,
        seed: u64,
        resolver: Resolver,
        mut make: impl FnMut(NodeCtx) -> P,
    ) -> Self {
        let n = net.len();
        let c = net.channels_per_node();
        assert!(
            n < OC_MIN_SENTINEL as usize,
            "{n} nodes collide with the packed-outcome sentinel range"
        );
        // Dense channel remap so scratch vectors are O(universe), not
        // O(max raw id): mark the raw ids present, then number them in
        // ascending raw order (no sort — O(n·c + max_raw)).
        let mut max_raw = 0u32;
        for v in 0..n {
            for g in net.channel_map(NodeId(v as u32)) {
                max_raw = max_raw.max(g.0);
            }
        }
        let mut present = vec![false; max_raw as usize + 1];
        for v in 0..n {
            for g in net.channel_map(NodeId(v as u32)) {
                present[g.index()] = true;
            }
        }
        let mut dense = vec![u32::MAX; max_raw as usize + 1];
        let mut dense_to_raw = Vec::new();
        let mut universe = 0u32;
        for (raw, &p) in present.iter().enumerate() {
            if p {
                dense[raw] = universe;
                dense_to_raw.push(raw as u32);
                universe += 1;
            }
        }
        // Flat translation table: local label l of node v at xlate[v*c + l].
        let mut xlate = vec![0u32; n * c];
        for v in 0..n {
            for (l, g) in net.channel_map(NodeId(v as u32)).iter().enumerate() {
                xlate[v * c + l] = dense[g.index()];
            }
        }
        let universe = universe as usize;

        let protocols = (0..n)
            .map(|v| make(NodeCtx { id: NodeId(v as u32), num_channels: c as u16 }))
            .collect();
        let rngs = (0..n).map(|v| stream_rng(seed, v as u64)).collect();
        Engine {
            net,
            protocols,
            rngs,
            slot: 0,
            counters: Counters::default(),
            resolver,
            seed,
            c,
            xlate,
            dense_to_raw,
            spectrum: None,
            node_plan: vec![SLEEPING; n],
            outcomes: vec![OC_IDLE; n],
            dense_rows: dense_rows(net),
            table: Table::new(),
            chunk_tables: Vec::new(),
            stamps: vec![Stamps::new(universe)],
            shards: vec![ShardSlot::new(n)],
            shard_weights: Vec::new(),
            shard_bounds: Vec::new(),
            pool: None,
            phase_timings: None,
        }
    }

    /// Re-arms the engine for a fresh run on the same network: rebuilds
    /// every node's protocol via `make`, re-derives all node RNG streams
    /// from `seed`, and zeroes the slot counter and [`Counters`].
    ///
    /// Everything expensive survives: the channel translation table, the
    /// action tables, the per-chunk scratch, and — crucially — the
    /// persistent worker pool, whose threads stay parked rather than being
    /// torn down and re-spawned. A reset engine is observationally
    /// indistinguishable from a freshly constructed one (the epoch-stamped
    /// scratch makes stale state invisible by construction; enforced by the
    /// reuse regression test in `tests/tests/engine_equiv.rs`), so trial
    /// harnesses can amortize engine setup across many runs.
    pub fn reset(&mut self, seed: u64, mut make: impl FnMut(NodeCtx) -> P) {
        let n = self.net.len();
        let c = self.c;
        self.protocols = (0..n)
            .map(|v| make(NodeCtx { id: NodeId(v as u32), num_channels: c as u16 }))
            .collect();
        self.rngs = (0..n).map(|v| stream_rng(seed, v as u64)).collect();
        self.seed = seed;
        self.slot = 0;
        self.counters = Counters::default();
        // The spectrum process rewinds to its pre-run state; its draws are
        // keyed by (seed, slot, channel), so a reset engine reproduces a
        // fresh engine's busy masks bit for bit.
        if let Some(sp) = self.spectrum.as_mut() {
            sp.reset();
        }
        // The stamp and scratch epochs keep counting monotonically: stamps
        // only ever compare for equality with the *current* epoch, so
        // continuing the sequence is exactly as invisible as starting over
        // — and cheaper.
    }

    /// The network this engine runs on.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The current slot index (number of slots already executed).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The master seed this engine's streams are currently derived from
    /// (the `seed` of the last [`Engine::new`] / [`Engine::reset`]).
    ///
    /// This is the only value checkpoint/resume machinery needs to
    /// persist to replay a run bit-identically: every node stream, every
    /// per-(slot, channel) stream, and the spectrum process are pure
    /// functions of it (plus the immutable network), so re-running
    /// `reset(seed, make)` reproduces the run exactly.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Aggregate counters so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The active resolution strategy.
    pub fn resolver(&self) -> Resolver {
        self.resolver
    }

    /// Switches the resolution strategy (takes effect from the next slot;
    /// all strategies — sequential and sharded — are observationally
    /// identical, so this never changes results).
    pub fn set_resolver(&mut self, resolver: Resolver) {
        self.resolver = resolver;
    }

    /// Turns per-phase wall-clock timing on or off (off for a fresh
    /// engine). Enabling zeroes any previous totals; disabling discards
    /// them. Costs ~5 monotonic clock reads per slot while on, and is
    /// observationally invisible — counters, traces, and RNG streams are
    /// bit-identical with timing on or off (see [`PhaseTimings`]).
    pub fn set_phase_timing(&mut self, on: bool) {
        self.phase_timings = on.then(PhaseTimings::default);
    }

    /// Cumulative per-phase timings since [`Engine::set_phase_timing`]
    /// enabled them; `None` while timing is off.
    pub fn phase_timings(&self) -> Option<PhaseTimings> {
        self.phase_timings
    }

    /// Heap bytes of every buffer the engine owns: the all-node dense rows
    /// of a small network, the translation tables, per-node RNG streams,
    /// plans and packed outcomes, the slot's action table, and
    /// the per-chunk scratch of phases 1 and 2 — chunk tables and stamp
    /// tables, and resolution scratch (`≈ 16 B/node` per chunk plus a bit
    /// set and an outcome buffer).
    /// Not counted: protocol state, heap owned by message payloads, the
    /// spectrum process, and worker stacks. Reported next to the network
    /// footprint by the huge-sparse bench row to prove `O(n + m)` setup;
    /// the `huge_smoke` CI gate asserts it before and after a multi-chunk
    /// run, since the per-chunk scratch is allocated on first use and is
    /// `O(n · threads)`.
    pub fn internal_memory_bytes(&self) -> usize {
        self.dense_rows.iter().map(|b| b.words().len() * 8).sum::<usize>()
            + (self.xlate.capacity()
                + self.dense_to_raw.capacity()
                + self.node_plan.capacity()
                + self.outcomes.capacity())
                * 4
            + self.rngs.capacity() * std::mem::size_of::<SmallRng>()
            + self.table.memory_bytes()
            + self.chunk_tables.iter().map(Table::memory_bytes).sum::<usize>()
            + self.stamps.iter().map(Stamps::memory_bytes).sum::<usize>()
            + self
                .shards
                .iter()
                .map(|s| s.scratch.memory_bytes() + s.out.capacity() * 4)
                .sum::<usize>()
            + self.shard_weights.capacity() * 8
            + self.shard_bounds.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// Installs primary-user spectrum dynamics (see [`crate::spectrum`]):
    /// from the next slot on, the process is advanced once per slot and
    /// channels it marks busy behave as occupied — broadcasts on them are
    /// lost and listeners hear noise (the existing collision outcome).
    ///
    /// [`SpectrumDynamics::Static`] uninstalls the layer entirely (an
    /// engine with `Static` dynamics is bit-identical to one that never
    /// had any). The process state is derived from the engine's master
    /// seed via the per-(slot, channel) streams of
    /// [`crate::rng::channel_slot_seed`], so results are deterministic and
    /// identical across all [`Resolver`] modes and thread counts; installing
    /// mid-run starts the process fresh at the current slot.
    pub fn set_spectrum(&mut self, dynamics: SpectrumDynamics) {
        self.spectrum = if dynamics.is_static() {
            None
        } else {
            Some(SpectrumState::new(dynamics, &self.dense_to_raw))
        };
    }

    /// The installed spectrum state (utilization, busy history), if any.
    /// `None` when no dynamics are installed (≡ [`SpectrumDynamics::Static`]).
    pub fn spectrum(&self) -> Option<&SpectrumState> {
        self.spectrum.as_ref()
    }

    /// Mutable access to the spectrum state — for knobs like
    /// [`SpectrumState::set_record_history`]. The process itself offers no
    /// public mutators, so determinism is not at risk.
    pub fn spectrum_mut(&mut self) -> Option<&mut SpectrumState> {
        self.spectrum.as_mut()
    }

    /// The deterministic RNG stream belonging to `channel` in the current
    /// slot. Phase-2 resolution is deterministic today; any future
    /// randomized channel effect (fading, capture, external noise) must
    /// draw from this stream, which is keyed by `(run seed, slot, channel)`
    /// — independent of channel visit order and shard thread count — so the
    /// sharded resolver stays bit-identical at any parallelism (see
    /// [`crate::rng::channel_slot_seed`]).
    pub fn channel_rng(&self, channel: GlobalChannel) -> SmallRng {
        channel_slot_rng(self.seed, self.slot, channel.0)
    }

    /// Read access to the protocol instances (for progress probes).
    pub fn protocol(&self, v: NodeId) -> &P {
        &self.protocols[v.index()]
    }

    /// Applies `f` to every protocol in node order.
    pub fn for_each_protocol(&self, mut f: impl FnMut(NodeId, &P)) {
        for (i, p) in self.protocols.iter().enumerate() {
            f(NodeId(i as u32), p);
        }
    }

    /// `true` once every node's protocol reports completion.
    pub fn all_complete(&self) -> bool {
        self.protocols.iter().all(|p| p.is_complete())
    }

    /// Executes exactly one slot.
    ///
    /// The `Send` bounds exist for multi-chunk phase 1, which hands
    /// protocol and message state to worker threads; the `Sync` bound for
    /// multi-chunk phase 3, whose workers share the slot's action buffer
    /// read-only while decoding `Heard` borrows. Every protocol in this
    /// workspace satisfies them.
    pub fn step(&mut self)
    where
        P: Send,
        P::Message: Send + Sync,
    {
        let slot = Slot(self.slot);
        let threads = self.resolver.threads();

        // Optional phase timing: one clock read here plus one per phase
        // boundary (laps share their boundary read). `None` when timing is
        // off — zero clock reads, and nothing below ever branches on a
        // measured value, so enabling this is observationally invisible.
        let mut mark = self.phase_timings.is_some().then(std::time::Instant::now);

        // Phase 0: advance the primary-user spectrum process into this
        // slot (sequential, per-(slot, channel)-keyed draws — the busy
        // mask is identical whatever resolver or thread count follows).
        // With no dynamics installed the phase is a no-op and its time is
        // exactly zero — skipping the lap (one clock read per slot) is
        // both cheaper and more accurate than measuring it.
        let spectrum_ns = if let Some(sp) = self.spectrum.as_mut() {
            sp.advance(self.seed, self.slot);
            lap(&mut mark)
        } else {
            0
        };

        let collect_chunks = self.collect(threads, slot);
        // PU accounting over the touched channels (O(t), charged to phase
        // 1): a busy touched channel swallows its broadcasts. Listener-side
        // effects are applied during resolution.
        if let Some(sp) = &self.spectrum {
            let mask = sp.mask();
            for (ti, &ch) in self.table.touched.iter().enumerate() {
                if mask.contains(ch as usize) {
                    self.counters.pu_busy_channel_slots += 1;
                    self.counters.pu_blocked_broadcasts += self.table.broadcasters(ti).len() as u64;
                }
            }
        }
        let collect_ns = lap(&mut mark);
        let resolve_chunks = self.resolve(threads);
        let resolve_ns = lap(&mut mark);
        let deliver_chunks = self.deliver(threads, slot);
        let deliver_ns = lap(&mut mark);

        if let Some(pt) = self.phase_timings.as_mut() {
            pt.slots += 1;
            pt.spectrum_ns += spectrum_ns;
            PhaseTimings::book(
                collect_ns,
                collect_chunks,
                &mut pt.collect_sequential_ns,
                &mut pt.collect_pooled_ns,
                &mut pt.collect_pooled_slots,
            );
            PhaseTimings::book(
                resolve_ns,
                resolve_chunks,
                &mut pt.resolve_sequential_ns,
                &mut pt.resolve_sharded_ns,
                &mut pt.resolve_sharded_slots,
            );
            PhaseTimings::book(
                deliver_ns,
                deliver_chunks,
                &mut pt.deliver_sequential_ns,
                &mut pt.deliver_pooled_ns,
                &mut pt.deliver_pooled_slots,
            );
        }

        self.slot += 1;
        self.counters.slots += 1;
    }

    /// Phase 1: every chunk runs [`collect_chunk`] over its node range.
    /// One chunk fills the slot's table directly; several fill their own
    /// tables, merged by [`merge_tables`]. Node RNG streams are untouched
    /// by the partition (stream `i` is only ever advanced by node `i`'s own
    /// draws, in slot order). Returns the chunk count.
    fn collect(&mut self, threads: usize, slot: Slot) -> usize
    where
        P: Send,
        P::Message: Send,
    {
        let (len, chunks) = node_chunks(self.net.len(), threads);
        let universe = self.dense_to_raw.len();
        while self.stamps.len() < chunks {
            self.stamps.push(Stamps::new(universe));
        }
        if chunks > 1 {
            while self.chunk_tables.len() < chunks {
                self.chunk_tables.push(Table::new());
            }
        }
        let Engine {
            protocols,
            rngs,
            node_plan,
            outcomes,
            xlate,
            c,
            table,
            chunk_tables,
            stamps,
            pool,
            counters,
            ..
        } = self;
        let (c, xlate) = (*c, &xlate[..]);
        if chunks == 1 {
            let st = &mut stamps[0];
            collect_chunk(slot, 0, xlate, c, protocols, rngs, node_plan, outcomes, table, st);
        } else {
            let tasks = protocols
                .chunks_mut(len)
                .zip(rngs.chunks_mut(len))
                .zip(node_plan.chunks_mut(len))
                .zip(outcomes.chunks_mut(len))
                .zip(chunk_tables.iter_mut().zip(stamps.iter_mut()))
                .enumerate();
            fork(pool, threads, tasks, |(i, ((((protos, rngs), plan), outc), (tab, st)))| {
                collect_chunk(slot, *i * len, xlate, c, protos, rngs, plan, outc, tab, st)
            });
            merge_tables(table, &mut chunk_tables[..chunks], &mut stamps[0]);
        }
        for st in &stamps[..chunks] {
            counters.broadcasts += st.tally[0];
            counters.listens += st.tally[1];
            counters.sleeps += st.tally[2];
        }
        debug_assert_eq!(table.actions.len(), self.net.len());
        chunks
    }

    /// Phase 2: the touched channels split into `min(threads, touched)`
    /// contiguous chunks, balanced by a deterministic per-channel cost
    /// proxy (`1 + L + Σ_b deg(b)`), each resolved by [`resolve_range`]
    /// with private scratch. One chunk writes `self.outcomes` in place;
    /// several resolve into private buffers that are scattered into it
    /// after the join (every listener belongs to exactly one channel, so
    /// the writes are disjoint). Channels are independent within a slot and
    /// resolution is deterministic, so the result is the same at any chunk
    /// count. Returns the chunk count.
    fn resolve(&mut self, threads: usize) -> usize
    where
        P::Message: Sync,
    {
        let t = self.table.touched.len();
        let chunks = threads.min(t).max(1);
        if chunks > 1 {
            self.partition(chunks);
        }
        let n = self.net.len();
        while self.shards.len() < chunks {
            self.shards.push(ShardSlot::new(n));
        }
        let strategy = self.resolver.per_channel();
        let Engine {
            net, dense_rows, table, shards, shard_bounds, outcomes, pool, spectrum, ..
        } = self;
        let adj = Adjacency { net, dense: dense_rows };
        let table: &Table<P::Message> = table;
        let busy = spectrum.as_ref().map(SpectrumState::mask);
        if chunks == 1 {
            resolve_range(
                adj,
                &mut shards[0].scratch,
                strategy,
                busy,
                table,
                (0, t),
                &mut |_, l, oc| outcomes[l as usize] = oc,
            );
            return 1;
        }
        let tasks = shards[..chunks].iter_mut().zip(shard_bounds.iter());
        fork(pool, threads, tasks, |(shard, bounds)| {
            let (lo, hi) = **bounds;
            let listeners = (table.l_off[hi] - table.l_off[lo]) as usize;
            shard.out.clear();
            shard.out.resize(listeners, OC_IDLE);
            let out = &mut shard.out;
            resolve_range(
                adj,
                &mut shard.scratch,
                strategy,
                busy,
                table,
                (lo, hi),
                &mut |pos, _, oc| out[pos] = oc,
            );
        });
        for (&(lo, hi), shard) in shard_bounds.iter().zip(&shards[..chunks]) {
            let ls = &table.l_nodes[table.l_off[lo] as usize..table.l_off[hi] as usize];
            for (&l, &oc) in ls.iter().zip(&shard.out) {
                outcomes[l as usize] = oc;
            }
        }
        chunks
    }

    /// Splits the touched channels into `chunks` contiguous ranges of
    /// roughly equal cost (`1 + L + Σ_b deg(b)` per channel), at least one
    /// channel each, into `self.shard_bounds`.
    fn partition(&mut self, chunks: usize) {
        let t = self.table.touched.len();
        self.shard_weights.clear();
        for ti in 0..t {
            let bs = self.table.broadcasters(ti);
            let nl = self.table.listeners(ti).len() as u64;
            self.shard_weights.push(1 + nl + approx_degree_sum(self.net, bs, usize::MAX) as u64);
        }
        let total: u64 = self.shard_weights.iter().sum();
        self.shard_bounds.clear();
        let mut start = 0usize;
        let mut cum = 0u64;
        for (ti, &w) in self.shard_weights.iter().enumerate() {
            cum += w;
            let g = self.shard_bounds.len() + 1; // chunk being filled (1-based)
            let must_close = t - ti - 1 == chunks - g; // leave one channel per chunk
            if g < chunks && (must_close || cum * chunks as u64 >= total * g as u64) {
                self.shard_bounds.push((start, ti + 1));
                start = ti + 1;
            }
        }
        self.shard_bounds.push((start, t));
        debug_assert_eq!(self.shard_bounds.len(), chunks);
    }

    /// Phase 3: every node chunk folds its outcome range into a counter
    /// delta (see [`count_outcomes`]) and hands its protocols their
    /// outcomes through one `feedback_batch` call; the deltas are folded
    /// into [`Counters`] in chunk order. Every chunk reads the *full*
    /// action buffer, since broadcaster ids are global. A node's feedback
    /// depends only on its own outcome, the action buffer, and its own RNG
    /// stream, so the chunking is invisible. Returns the chunk count.
    fn deliver(&mut self, threads: usize, slot: Slot) -> usize
    where
        P: Send,
        P::Message: Sync,
    {
        let (len, chunks) = node_chunks(self.net.len(), threads);
        let Engine { protocols, rngs, table, outcomes, pool, counters, .. } = self;
        let actions: &[Action<P::Message>] = &table.actions;
        let deliver_chunk = |protos: &mut [P], rngs: &mut [SmallRng], outc: &[u32]| {
            let delta = count_outcomes(outc);
            let mut ctx = BatchCtx::new(slot, rngs);
            P::feedback_batch(protos, &mut ctx, FeedbackBatch::new(outc, actions));
            delta
        };
        if chunks == 1 {
            counters.apply(deliver_chunk(protocols, rngs, outcomes));
            return 1;
        }
        let tasks = protocols
            .chunks_mut(len)
            .zip(rngs.chunks_mut(len))
            .zip(outcomes.chunks(len))
            .map(|chunk| (chunk, DeliverDelta::default()));
        let done = fork(pool, threads, tasks, |(((protos, rngs), outc), delta)| {
            *delta = deliver_chunk(protos, rngs, outc)
        });
        for (_, delta) in done {
            counters.apply(delta);
        }
        chunks
    }

    /// Runs until `max_slots` slots have executed, every protocol is
    /// complete, or the optional probe returns `true`.
    ///
    /// The probe (if provided as `Some((interval, f))`) is evaluated every
    /// `interval` slots with the current slot count, once before the first
    /// slot, and once more when the run ends; it is how experiments measure
    /// *time-to-completion* against external ground truth. The run stops at
    /// the first evaluation that returns `true` — completion-time
    /// experiments don't need the tail of the protocols' schedule.
    pub fn run(&mut self, max_slots: u64, mut probe: Option<Probe<'_, '_, 'net, P>>) -> RunOutcome
    where
        P: Send,
        P::Message: Send + Sync,
    {
        let mut completed_at = None;
        // Evaluate the probe at slot 0 too: some scenarios are trivially
        // complete before any communication.
        if let Some((_, f)) = probe.as_mut() {
            if f(0, self) {
                completed_at = Some(0);
            }
        }
        while completed_at.is_none() && self.slot < max_slots && !self.all_complete() {
            self.step();
            if let Some((interval, f)) = probe.as_mut() {
                if self.slot.is_multiple_of(*interval) && f(self.slot, self) {
                    completed_at = Some(self.slot);
                }
            }
        }
        // One final probe evaluation at the end of the schedule, so that a
        // coarse probe interval cannot miss a completion at the tail.
        if completed_at.is_none() {
            if let Some((_, f)) = probe.as_mut() {
                if f(self.slot, self) {
                    completed_at = Some(self.slot);
                }
            }
        }
        RunOutcome { slots_run: self.slot, completed_at, all_protocols_done: self.all_complete() }
    }

    /// Runs the protocols' full fixed schedule (up to `max_slots`) with no
    /// probe.
    pub fn run_to_completion(&mut self, max_slots: u64) -> RunOutcome
    where
        P: Send,
        P::Message: Send + Sync,
    {
        self.run(max_slots, None)
    }

    /// Consumes the engine and extracts each node's protocol output.
    pub fn into_outputs(self) -> Vec<P::Output> {
        self.protocols.into_iter().map(P::into_output).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LocalChannel;

    const ALL_RESOLVERS: [Resolver; 6] = [
        Resolver::Auto,
        Resolver::BroadcasterCentric,
        Resolver::ListenerCentric,
        Resolver::Naive,
        Resolver::ParallelSharded { threads: 2 },
        Resolver::ParallelSharded { threads: 4 },
    ];

    /// Test protocol: node 0..k broadcast a constant each slot on local
    /// channel `ch`; others listen on local channel `lch`; records hears.
    struct Fixed {
        bcast: bool,
        ch: LocalChannel,
        heard: Vec<u32>,
        id: u32,
    }

    impl Protocol for Fixed {
        type Message = u32;
        type Output = Vec<u32>;
        fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u32> {
            if self.bcast {
                Action::Broadcast { channel: self.ch, message: self.id }
            } else {
                Action::Listen { channel: self.ch }
            }
        }
        fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
            if let Feedback::Heard(m) = fb {
                self.heard.push(*m);
            }
        }
        fn is_complete(&self) -> bool {
            false
        }
        fn into_output(self) -> Vec<u32> {
            self.heard
        }
    }

    /// Star network: node 0 center; all share global channel 0; optionally
    /// extra private channels to make c uniform.
    fn star(leaves: usize) -> Network {
        let n = leaves + 1;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(NodeId(v as u32), vec![GlobalChannel(0), GlobalChannel(1 + v as u32)]);
        }
        for l in 1..n {
            b.add_edge(NodeId(0), NodeId(l as u32));
        }
        b.build().unwrap()
    }

    #[test]
    fn single_broadcaster_is_heard_under_every_resolver() {
        let net = star(1);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            let out = eng.into_outputs();
            assert_eq!(out[0], vec![1], "center hears the lone leaf ({resolver:?})");
            assert!(out[1].is_empty(), "broadcaster hears nothing ({resolver:?})");
        }
    }

    #[test]
    fn two_broadcasters_collide_to_silence() {
        let net = star(2);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id != NodeId(0),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            assert_eq!(eng.counters().collisions, 1, "{resolver:?}");
            let out = eng.into_outputs();
            assert!(out[0].is_empty(), "collision is silence ({resolver:?})");
        }
    }

    #[test]
    fn non_neighbor_broadcasts_are_inaudible() {
        // Path 0-1 plus isolated node 2 broadcasting on the same channel:
        // node 2's broadcast must not interfere at node 0.
        let mut b = Network::builder(3);
        for v in 0..3u32 {
            b.set_channels(NodeId(v), vec![GlobalChannel(0)]);
        }
        b.add_edge(NodeId(0), NodeId(1));
        let net = b.build().unwrap();
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 3, resolver, |ctx| Fixed {
                bcast: ctx.id != NodeId(0),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            let out = eng.into_outputs();
            assert_eq!(out[0], vec![1], "only the true neighbor is audible ({resolver:?})");
        }
    }

    #[test]
    fn different_channels_do_not_interfere() {
        // Node 1 and node 2 broadcast on *different* global channels; the
        // center listens on channel 0 and must cleanly hear node 1.
        let mut b = Network::builder(3);
        b.set_channels(NodeId(0), vec![GlobalChannel(0), GlobalChannel(9)]);
        b.set_channels(NodeId(1), vec![GlobalChannel(0), GlobalChannel(5)]);
        b.set_channels(NodeId(2), vec![GlobalChannel(5), GlobalChannel(0)]);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let net = b.build().unwrap();
        let mut eng = Engine::new(&net, 3, |ctx| Fixed {
            bcast: ctx.id != NodeId(0),
            // Local channel 0 maps to g0 for nodes 0 and 1, but to g5 for
            // node 2 — local labels are node-private.
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.step();
        let out = eng.into_outputs();
        assert_eq!(out[0], vec![1]);
    }

    #[test]
    fn counters_track_actions() {
        let net = star(3);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.step();
        eng.step();
        let c = eng.counters();
        assert_eq!(c.slots, 2);
        assert_eq!(c.broadcasts, 2);
        assert_eq!(c.listens, 6);
        // Center hears leaf 1 twice; leaves 2 and 3 are not adjacent to leaf
        // 1, so they idle-listen.
        assert_eq!(c.deliveries, 2);
        assert_eq!(c.idle_listens, 4);
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        struct Rnd {
            heard: u64,
        }
        impl Protocol for Rnd {
            type Message = u8;
            type Output = u64;
            fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u8> {
                use rand::Rng;
                if ctx.rng.gen_bool(0.5) {
                    Action::Broadcast { channel: LocalChannel(ctx.rng.gen_range(0..2)), message: 1 }
                } else {
                    Action::Listen { channel: LocalChannel(ctx.rng.gen_range(0..2)) }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u8>) {
                if matches!(fb, Feedback::Heard(_)) {
                    self.heard += 1;
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> u64 {
                self.heard
            }
        }
        let net = star(4);
        let run = |seed: u64, resolver: Resolver| {
            let mut eng = Engine::with_resolver(&net, seed, resolver, |_| Rnd { heard: 0 });
            eng.run_to_completion(200);
            (eng.counters(), eng.into_outputs())
        };
        let (c1, o1) = run(42, Resolver::Auto);
        let (c2, o2) = run(42, Resolver::Auto);
        let (c3, _) = run(43, Resolver::Auto);
        assert_eq!(c1, c2);
        assert_eq!(o1, o2);
        assert_ne!(c1, c3, "different seeds should (generically) differ");
        // Every resolver — including the sharded one — is observationally
        // identical.
        for resolver in ALL_RESOLVERS {
            let (c, o) = run(42, resolver);
            assert_eq!(c, c1, "{resolver:?} diverges on counters");
            assert_eq!(o, o1, "{resolver:?} diverges on outputs");
        }
    }

    #[test]
    fn probe_stops_run_early() {
        let net = star(1);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let mut probe = |_slot: u64, eng: &Engine<'_, Fixed>| -> bool {
            !eng.protocol(NodeId(0)).heard.is_empty()
        };
        let outcome = eng.run(1000, Some((1, &mut probe)));
        assert_eq!(outcome.completed_at, Some(1));
        assert_eq!(outcome.slots_run, 1);
    }

    #[test]
    fn run_respects_max_slots() {
        let net = star(1);
        let mut eng = Engine::new(&net, 7, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let outcome = eng.run_to_completion(17);
        assert_eq!(outcome.slots_run, 17);
        assert!(!outcome.all_protocols_done);
    }

    #[test]
    fn sleeping_nodes_neither_send_nor_hear() {
        struct Sleepy;
        impl Protocol for Sleepy {
            type Message = u8;
            type Output = ();
            fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<u8> {
                Action::Sleep
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u8>) {
                assert_eq!(fb, Feedback::Slept);
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) {}
        }
        let net = star(2);
        let mut eng = Engine::new(&net, 7, |_| Sleepy);
        eng.step();
        assert_eq!(eng.counters().sleeps, 3);
    }

    #[test]
    fn heard_messages_are_not_cloned_by_the_engine() {
        // A message type whose clone count is observable: the engine must
        // never clone it, even across many deliveries.
        use std::sync::atomic::{AtomicU64, Ordering};
        static CLONES: AtomicU64 = AtomicU64::new(0);

        #[derive(Debug, PartialEq, Eq)]
        struct Counted(u32);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }

        struct Payload {
            bcast: bool,
            heard: u64,
        }
        impl Protocol for Payload {
            type Message = Counted;
            type Output = u64;
            fn act(&mut self, _ctx: &mut SlotCtx<'_>) -> Action<Counted> {
                if self.bcast {
                    Action::Broadcast { channel: LocalChannel(0), message: Counted(9) }
                } else {
                    Action::Listen { channel: LocalChannel(0) }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, Counted>) {
                if let Feedback::Heard(m) = fb {
                    assert_eq!(m.0, 9);
                    self.heard += 1;
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> u64 {
                self.heard
            }
        }

        // One leaf broadcasting to the center: a delivery in every slot.
        let net = star(1);
        let mut eng = Engine::new(&net, 5, |ctx| Payload { bcast: ctx.id == NodeId(1), heard: 0 });
        for _ in 0..50 {
            eng.step();
        }
        assert_eq!(eng.counters().deliveries, 50);
        let outputs = eng.into_outputs();
        assert_eq!(outputs[0], 50, "center heard every slot");
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "engine cloned a message");
    }

    #[test]
    fn dense_channel_mix_is_resolver_invariant() {
        // A tougher scenario than the unit cases above: several overlapping
        // channels, random roles, non-trivial topology. All resolvers —
        // sequential and sharded — must agree slot-by-slot on every counter
        // and output.
        struct Rnd {
            c: u16,
            heard: Vec<u32>,
        }
        impl Protocol for Rnd {
            type Message = u32;
            type Output = Vec<u32>;
            fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u32> {
                use rand::Rng;
                let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
                if ctx.rng.gen_bool(0.4) {
                    Action::Broadcast { channel, message: ctx.rng.gen_range(0..1000u32) }
                } else {
                    Action::Listen { channel }
                }
            }
            fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u32>) {
                if let Feedback::Heard(m) = fb {
                    self.heard.push(*m);
                }
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn into_output(self) -> Vec<u32> {
                self.heard
            }
        }

        // Wheel graph: hub 0 plus a cycle of 12, all sharing 3 channels.
        let n = 13usize;
        let mut b = Network::builder(n);
        for v in 0..n {
            b.set_channels(
                NodeId(v as u32),
                vec![GlobalChannel(0), GlobalChannel(1), GlobalChannel(2)],
            );
        }
        for v in 1..n as u32 {
            b.add_edge(NodeId(0), NodeId(v));
            let next = if v as usize == n - 1 { 1 } else { v + 1 };
            b.add_edge(NodeId(v), NodeId(next));
        }
        let net = b.build().unwrap();

        let run = |resolver: Resolver| {
            let mut eng =
                Engine::with_resolver(&net, 99, resolver, |_| Rnd { c: 3, heard: Vec::new() });
            eng.run_to_completion(300);
            (eng.counters(), eng.into_outputs())
        };
        let (c0, o0) = run(Resolver::Naive);
        assert!(c0.deliveries > 0, "scenario must exercise deliveries");
        assert!(c0.collisions > 0, "scenario must exercise collisions");
        for resolver in ALL_RESOLVERS {
            let (c, o) = run(resolver);
            assert_eq!(c, c0, "{resolver:?} counters diverge from naive");
            assert_eq!(o, o0, "{resolver:?} outputs diverge from naive");
        }
    }

    #[test]
    fn sharded_resolver_with_one_thread_is_sequential_auto() {
        // threads ≤ 1 must take the sequential path (and still be correct).
        let net = star(5);
        for threads in [0usize, 1] {
            let mut eng = Engine::with_resolver(&net, 7, Resolver::sharded(threads), |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            assert_eq!(eng.counters().deliveries, 1, "threads={threads}");
        }
    }

    #[test]
    fn memory_accounting_counts_per_chunk_resolution_scratch() {
        // Every node listens on its private channel: n touched channels, so
        // a 4-way sharded engine resolves phase 2 in 4 chunks and owns
        // three more resolution scratches (≈ 16 B/node each) than a
        // one-chunk engine.
        let net = star(63);
        let n = net.len();
        let bytes_after_one_slot = |resolver: Resolver| {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: false,
                ch: LocalChannel(1),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.step();
            eng.internal_memory_bytes()
        };
        let sequential = bytes_after_one_slot(Resolver::Auto);
        let sharded = bytes_after_one_slot(Resolver::sharded(4));
        assert!(
            sharded >= sequential + 3 * 16 * n,
            "sharded(4) reports {sharded} bytes, sequential {sequential}: per-chunk scratch \
             is not counted"
        );
    }

    #[test]
    fn pu_busy_channel_blocks_delivery_under_every_resolver() {
        // Lone leaf broadcasting to the center, but the PU camps on the
        // shared channel every slot: no delivery ever, listeners hear
        // noise, and the PU counters account for every blocked slot —
        // identically under every resolver.
        let net = star(1);
        let always_busy = SpectrumDynamics::TraceReplay(vec![vec![GlobalChannel(0)]]);
        for resolver in ALL_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 7, resolver, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            eng.set_spectrum(always_busy.clone());
            for _ in 0..5 {
                eng.step();
            }
            let c = eng.counters();
            assert_eq!(c.deliveries, 0, "{resolver:?}");
            assert_eq!(c.collisions, 5, "{resolver:?}: PU noise is a collision");
            assert_eq!(c.pu_blocked_listens, 5, "{resolver:?}");
            assert_eq!(c.pu_blocked_broadcasts, 5, "{resolver:?}");
            assert_eq!(c.pu_busy_channel_slots, 5, "{resolver:?}");
            assert_eq!(c.broadcasts, 5, "{resolver:?}: the action itself still counts");
            let out = eng.into_outputs();
            assert!(out[0].is_empty(), "{resolver:?}: nothing audible through the PU");
        }
    }

    #[test]
    fn pu_mask_is_per_channel() {
        // Two leaves on different global channels; the PU occupies only
        // channel 0, so the center still hears cleanly on channel 5.
        let mut b = Network::builder(3);
        b.set_channels(NodeId(0), vec![GlobalChannel(0), GlobalChannel(5)]);
        b.set_channels(NodeId(1), vec![GlobalChannel(0), GlobalChannel(9)]);
        b.set_channels(NodeId(2), vec![GlobalChannel(5), GlobalChannel(7)]);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let net = b.build().unwrap();
        // Node 1 broadcasts on g0 (busy), node 2 on g5 (free); the center
        // listens on g5 (its local label 1).
        let mut eng = Engine::new(&net, 3, |ctx| Fixed {
            bcast: ctx.id != NodeId(0),
            ch: if ctx.id == NodeId(0) { LocalChannel(1) } else { LocalChannel(0) },
            heard: Vec::new(),
            id: ctx.id.0,
        });
        eng.set_spectrum(SpectrumDynamics::TraceReplay(vec![vec![GlobalChannel(0)]]));
        eng.step();
        let c = eng.counters();
        assert_eq!(c.deliveries, 1);
        assert_eq!(c.pu_blocked_broadcasts, 1, "only the g0 broadcast is lost");
        assert_eq!(c.pu_blocked_listens, 0, "the center listened on the free channel");
        let out = eng.into_outputs();
        assert_eq!(out[0], vec![2], "channel 5 is unaffected by the PU on channel 0");
    }

    #[test]
    fn static_spectrum_is_observationally_absent() {
        let net = star(3);
        let run = |install: bool| {
            let mut eng = Engine::new(&net, 7, |ctx| Fixed {
                bcast: ctx.id == NodeId(1),
                ch: LocalChannel(0),
                heard: Vec::new(),
                id: ctx.id.0,
            });
            if install {
                eng.set_spectrum(SpectrumDynamics::Static);
                assert!(eng.spectrum().is_none(), "Static uninstalls the layer");
            }
            eng.step();
            eng.step();
            (eng.counters(), eng.into_outputs())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn channel_rng_is_keyed_by_slot_and_channel() {
        use rand::Rng;
        let net = star(1);
        let mut eng = Engine::new(&net, 9, |ctx| Fixed {
            bcast: ctx.id == NodeId(1),
            ch: LocalChannel(0),
            heard: Vec::new(),
            id: ctx.id.0,
        });
        let before: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        let again: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        assert_eq!(before, again, "same (seed, slot, channel) — same stream");
        let other: u64 = eng.channel_rng(GlobalChannel(1)).gen();
        assert_ne!(before, other, "different channels get different streams");
        eng.step();
        let after: u64 = eng.channel_rng(GlobalChannel(0)).gen();
        assert_ne!(before, after, "different slots get different streams");
    }
}
