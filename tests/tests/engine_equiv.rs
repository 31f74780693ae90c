//! Differential equivalence tests for the engine's slot resolvers.
//!
//! The optimized resolution strategies (broadcaster-centric CSR sweep,
//! listener-centric word intersection, the Auto heuristic that mixes them
//! per channel, and the channel-sharded parallel resolver — persistent
//! parked worker pool — at every thread count) must be *observationally
//! identical* to the naive reference resolver — bit-for-bit equal
//! counters, per-slot feedback traces, and outputs — on every network,
//! seed, and action mix. This file drives randomized networks through all
//! resolvers side by side, including a proptest property over
//! topology/channel-count/seed space, slot-by-slot lockstep comparison
//! across repeated `step` calls on one engine instance, and engine reuse
//! via [`Engine::reset`] (pool state must not leak between runs).
//!
//! The same standard applies to the *batched act and feedback pipelines*:
//! a protocol's [`Protocol::act_batch`] / [`Protocol::feedback_batch`]
//! overrides (buffered bulk draws) must be draw-for-draw identical to the
//! scalar [`Protocol::act`] / [`Protocol::feedback`], and the engine's
//! multi-chunk phase-1 collection (node-range chunks on the worker pool,
//! merged by prefix-sum) and multi-chunk phase-3 delivery (same chunking,
//! per-chunk counter deltas merged in chunk order) must be bit-identical
//! to one chunk — all enforced here by running a batched protocol against
//! a scalar-only twin across thread counts, under static and dynamic
//! spectrum alike.

use crn_sim::channels::ChannelModel;
use crn_sim::engine::Resolver;
use crn_sim::rng::stream_rng;
use crn_sim::topology::Topology;
use crn_sim::{
    act_batch_buffered, feedback_batch_buffered, Action, BatchCtx, Counters, Engine, Feedback,
    FeedbackBatch, GlobalChannel, LocalChannel, Network, NodeCtx, Protocol, SlotCtx,
    SpectrumDynamics, StatsMode,
};
use rand::{Rng, RngCore};

/// Owned snapshot of one slot's feedback, so whole traces can be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Sent,
    Heard(u64),
    Silence,
    Slept,
}

/// Randomized traffic: each node picks a random channel and a random role
/// each slot, with a per-scenario broadcast probability; records every
/// feedback it observes.
struct Chatter {
    c: u16,
    p_bcast: f64,
    id: u32,
    trace: Vec<Obs>,
}

impl Chatter {
    fn act_any<R: RngCore>(&mut self, ctx: &mut SlotCtx<'_, R>) -> Action<u64> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(self.p_bcast) {
            // Message encodes (sender, slot) so a delivery from the wrong
            // broadcaster or slot can never compare equal.
            Action::Broadcast { channel, message: ((self.id as u64) << 32) | ctx.slot.0 }
        } else if ctx.rng.gen_bool(0.9) {
            Action::Listen { channel }
        } else {
            Action::Sleep
        }
    }

    fn record(&mut self, fb: Feedback<'_, u64>) {
        self.trace.push(match fb {
            Feedback::Sent => Obs::Sent,
            Feedback::Heard(m) => Obs::Heard(*m),
            Feedback::Silence => Obs::Silence,
            Feedback::Slept => Obs::Slept,
        });
    }
}

impl Protocol for Chatter {
    type Message = u64;
    type Output = Vec<Obs>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        self.act_any(ctx)
    }

    /// Batched act with buffered draws: channel word + role word are
    /// guaranteed every slot (the listen/sleep coin is data-dependent and
    /// falls through to the raw stream). Must be draw-for-draw identical
    /// to the scalar path — that is exactly what the differentials below
    /// check against [`ScalarChatter`].
    fn act_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, out: &mut Vec<Action<u64>>) {
        act_batch_buffered(batch, ctx, out, |_| 2, |p, sctx| p.act_any(sctx));
    }

    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u64>) {
        self.record(fb);
    }

    /// Batched feedback: the recording body never draws, so reserve 0 is
    /// exact. Every differential in this file that pits [`Chatter`]
    /// against [`ScalarChatter`] therefore also proves the batched
    /// delivery path (sequential and pooled) against scalar delegation.
    fn feedback_batch(batch: &mut [Self], ctx: &mut BatchCtx<'_>, fb: FeedbackBatch<'_, u64>) {
        feedback_batch_buffered(batch, ctx, fb, |_| 0, |p, _sctx, f| p.record(f));
    }

    fn is_complete(&self) -> bool {
        false
    }

    fn into_output(self) -> Vec<Obs> {
        self.trace
    }
}

/// [`Chatter`]'s scalar-only twin: byte-for-byte the same state machine,
/// but *without* the `act_batch` / `feedback_batch` overrides, so the
/// engine drives it through the default per-node delegation on both batch
/// hooks. Any divergence between the two is a bug in the batched pipeline
/// (buffered draws, pooled collection, or pooled delivery).
struct ScalarChatter(Chatter);

impl Protocol for ScalarChatter {
    type Message = u64;
    type Output = Vec<Obs>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        self.0.act_any(ctx)
    }

    fn feedback(&mut self, _ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u64>) {
        self.0.record(fb);
    }

    fn is_complete(&self) -> bool {
        false
    }

    fn into_output(self) -> Vec<Obs> {
        self.0.trace
    }
}

fn build_network(topology: &Topology, channels: &ChannelModel, seed: u64) -> Network {
    Network::generate(topology, channels, seed).expect("scenario network must build")
}

fn run(
    net: &Network,
    resolver: Resolver,
    seed: u64,
    c: u16,
    p_bcast: f64,
    slots: u64,
) -> (Counters, Vec<Vec<Obs>>) {
    let mut eng = Engine::with_resolver(net, seed, resolver, |ctx| Chatter {
        c,
        p_bcast,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    eng.run_to_completion(slots);
    (eng.counters(), eng.into_outputs())
}

/// Every optimized resolver, including the sharded one at thread counts
/// {1, 2, 4, 8}. Sequential modes must match `Naive` bit-for-bit; the
/// sharded mode must do so at *every* thread count.
const OPTIMIZED_RESOLVERS: [Resolver; 7] = [
    Resolver::Auto,
    Resolver::BroadcasterCentric,
    Resolver::ListenerCentric,
    Resolver::ParallelSharded { threads: 1 },
    Resolver::ParallelSharded { threads: 2 },
    Resolver::ParallelSharded { threads: 4 },
    Resolver::ParallelSharded { threads: 8 },
];

/// The scenario matrix: all resolvers over randomized topologies, channel
/// assignments, broadcast densities, and seeds.
#[test]
fn all_resolvers_agree_on_randomized_networks() {
    let scenarios: Vec<(Topology, ChannelModel, f64)> = vec![
        // Dense hub: the broadcaster-centric regime.
        (Topology::Star { leaves: 40 }, ChannelModel::Identical { c: 2 }, 0.7),
        // Everyone adjacent, few channels: maximal per-channel crowding.
        (Topology::Complete { n: 24 }, ChannelModel::Identical { c: 3 }, 0.5),
        // Sparse ring with private channels: the listener-centric regime.
        (Topology::Cycle { n: 30 }, ChannelModel::SharedCore { c: 4, core: 2 }, 0.3),
        // Geometric radio topology, mixed overlaps.
        (
            Topology::RandomGeometric { n: 60, radius: 0.35 },
            ChannelModel::SharedCore { c: 3, core: 1 },
            0.5,
        ),
        // Grid with group structure.
        (
            Topology::Grid { rows: 6, cols: 6 },
            ChannelModel::GroupOverlay { c: 4, k: 1, kmax: 2, groups: 3 },
            0.4,
        ),
    ];

    for (si, (topology, channels, p_bcast)) in scenarios.into_iter().enumerate() {
        for seed in [3u64, 17, 91] {
            let net = build_network(&topology, &channels, seed.wrapping_mul(7919) + si as u64);
            let c = net.channels_per_node() as u16;
            let slots = 64;
            let (ref_counters, ref_traces) = run(&net, Resolver::Naive, seed, c, p_bcast, slots);
            assert!(
                ref_counters.deliveries > 0,
                "scenario {si} seed {seed} never delivers — not probing anything"
            );
            for resolver in OPTIMIZED_RESOLVERS {
                let (counters, traces) = run(&net, resolver, seed, c, p_bcast, slots);
                assert_eq!(
                    counters, ref_counters,
                    "scenario {si} seed {seed}: {resolver:?} counters diverge from Naive"
                );
                assert_eq!(
                    traces, ref_traces,
                    "scenario {si} seed {seed}: {resolver:?} feedback traces diverge from Naive"
                );
            }
        }
    }
}

/// Mid-run resolver switches must not perturb the execution: the stream of
/// observations is a function of (network, seed) only.
#[test]
fn switching_resolvers_mid_run_changes_nothing() {
    let net = build_network(
        &Topology::RandomGeometric { n: 50, radius: 0.4 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        1234,
    );
    let c = net.channels_per_node() as u16;

    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 5, c, 0.5, 96);

    let mut eng = Engine::with_resolver(&net, 5, Resolver::Naive, |ctx| Chatter {
        c,
        p_bcast: 0.5,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    let rotation = [
        Resolver::BroadcasterCentric,
        Resolver::ListenerCentric,
        Resolver::Auto,
        Resolver::ParallelSharded { threads: 3 },
        Resolver::Naive,
        Resolver::ParallelSharded { threads: 2 },
    ];
    for i in 0..96 {
        eng.set_resolver(rotation[i % rotation.len()]);
        eng.step();
    }
    assert_eq!(eng.counters(), ref_counters);
    assert_eq!(eng.into_outputs(), ref_traces);
}

/// Slot-by-slot lockstep differential across repeated `step` calls on the
/// *same* engine instance: the pooled sharded engine at threads {1, 2, 4,
/// 8} must agree with a naive-resolver engine after **every** slot, not
/// just at the end of a run — so a divergence introduced by pool state
/// carried between slots (stale shard buffers, a missed wake, a stale
/// generation) is pinned to the exact slot where it appears.
#[test]
fn pooled_engine_stays_in_lockstep_with_naive_across_steps() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        77,
    );
    let c = net.channels_per_node() as u16;
    let make = |ctx: crn_sim::NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };

    for threads in [1usize, 2, 4, 8] {
        let mut reference = Engine::with_resolver(&net, 21, Resolver::Naive, make);
        let mut pooled =
            Engine::with_resolver(&net, 21, Resolver::ParallelSharded { threads }, make);
        for slot in 0..72u64 {
            reference.step();
            pooled.step();
            assert_eq!(
                pooled.counters(),
                reference.counters(),
                "threads={threads}: counters diverge after slot {slot}"
            );
        }
        let (mut ref_traces, mut pooled_traces) = (Vec::new(), Vec::new());
        reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
        pooled.for_each_protocol(|_, p| pooled_traces.push(p.trace.clone()));
        assert_eq!(pooled_traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Batch-vs-scalar lockstep differential: a batched protocol (buffered
/// bulk draws) on a sharded engine must agree with a scalar-only twin on a
/// naive sequential engine after **every** slot, at thread counts
/// {1, 2, 4, 8} (one chunk per phase at 1, several above). This pins any
/// divergence (an over-reserved word buffer, a mis-merged bucket, a chunk
/// boundary error) to the exact slot where it first appears.
#[test]
fn batched_pipeline_stays_in_lockstep_with_scalar() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        77,
    );
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };

    for threads in [1usize, 2, 4, 8] {
        let mut reference =
            Engine::with_resolver(&net, 21, Resolver::Naive, |ctx| ScalarChatter(chatter(ctx)));
        let mut batched =
            Engine::with_resolver(&net, 21, Resolver::ParallelSharded { threads }, chatter);
        for slot in 0..72u64 {
            reference.step();
            batched.step();
            assert_eq!(
                batched.counters(),
                reference.counters(),
                "threads={threads}: counters diverge after slot {slot}"
            );
        }
        let (mut ref_traces, mut batched_traces) = (Vec::new(), Vec::new());
        reference.for_each_protocol(|_, p| ref_traces.push(p.0.trace.clone()));
        batched.for_each_protocol(|_, p| batched_traces.push(p.trace.clone()));
        assert_eq!(batched_traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Phase-3 twin differential: the batched feedback path — one-chunk
/// delivery at threads 1, multi-chunk above — must agree with the
/// scalar-delegation twin on a naive sequential engine after **every**
/// slot, at thread counts {1, 2, 4, 8}. A divergence here is a
/// delivery bug (a mis-decoded outcome word, a counter delta merged out of
/// order, a chunk handed the wrong RNG lane), pinned to the exact slot
/// where it first appears.
#[test]
fn batched_feedback_stays_in_lockstep_with_scalar() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        303,
    );
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };

    for threads in [1usize, 2, 4, 8] {
        let mut reference =
            Engine::with_resolver(&net, 13, Resolver::Naive, |ctx| ScalarChatter(chatter(ctx)));
        let mut batched =
            Engine::with_resolver(&net, 13, Resolver::ParallelSharded { threads }, chatter);
        for slot in 0..72u64 {
            reference.step();
            batched.step();
            assert_eq!(
                batched.counters(),
                reference.counters(),
                "threads={threads}: counters diverge after slot {slot}"
            );
        }
        let (mut ref_traces, mut batched_traces) = (Vec::new(), Vec::new());
        reference.for_each_protocol(|_, p| ref_traces.push(p.0.trace.clone()));
        batched.for_each_protocol(|_, p| batched_traces.push(p.trace.clone()));
        assert_eq!(batched_traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Dynamic-spectrum delivery differential: with a primary-user process
/// installed, multi-chunk phase-3 delivery must fold the `OC_PU_BUSY`
/// outcome into **both** `collisions` and `pu_blocked_listens` exactly as
/// the scalar path does, per slot, across thread counts. The final
/// assertion that the PU actually bit guards the test against silently
/// probing nothing.
#[test]
fn dynamic_spectrum_pu_folding_stays_exact_under_pooled_delivery() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        404,
    );
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let dyn_ = SpectrumDynamics::MarkovOnOff { p_busy: 0.25, p_free: 0.25 };

    let mut reference =
        Engine::with_resolver(&net, 33, Resolver::Naive, |ctx| ScalarChatter(chatter(ctx)));
    reference.set_spectrum(dyn_.clone());

    let mut others: Vec<(usize, Engine<'_, Chatter>)> = Vec::new();
    for threads in [2usize, 4, 8] {
        let mut eng =
            Engine::with_resolver(&net, 33, Resolver::ParallelSharded { threads }, chatter);
        eng.set_spectrum(dyn_.clone());
        others.push((threads, eng));
    }

    for slot in 0..72u64 {
        reference.step();
        for (threads, eng) in &mut others {
            eng.step();
            assert_eq!(
                eng.counters(),
                reference.counters(),
                "threads={threads}: PU counter folding diverges after slot {slot}"
            );
        }
    }
    let counters = reference.counters();
    assert!(counters.deliveries > 0, "scenario must still deliver");
    assert!(counters.pu_blocked_listens > 0, "the PU must actually bite");

    let mut ref_traces = Vec::new();
    reference.for_each_protocol(|_, p| ref_traces.push(p.0.trace.clone()));
    for (threads, eng) in &mut others {
        let mut traces = Vec::new();
        eng.for_each_protocol(|_, p| traces.push(p.trace.clone()));
        assert_eq!(traces, ref_traces, "threads={threads}: feedback traces diverge");
    }
}

/// Multi-chunk delivery composes with engine reuse: the per-chunk delta
/// scratch allocated on first use survives [`Engine::reset`] by design
/// and must be observationally invisible — one engine running pooled
/// delivery twice back-to-back (at *different* thread counts, so the
/// scratch is re-chunked) reproduces the naive scalar reference. n = 29 is
/// prime, so both thread counts produce a ragged final chunk.
#[test]
fn pooled_delivery_survives_reset_and_odd_chunks() {
    let net = build_network(
        &Topology::RandomGeometric { n: 29, radius: 0.45 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        902,
    );
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.4, id: ctx.id.0, trace: Vec::new() };
    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 8, c, 0.4, 64);

    let mut eng = Engine::with_resolver(&net, 8, Resolver::ParallelSharded { threads: 3 }, make);
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters, "first pooled-delivery run diverges");

    // Reset and rerun with a different thread count: the delivery scratch
    // from the first run must be re-sliced, not trusted.
    eng.reset(8, make);
    eng.set_resolver(Resolver::ParallelSharded { threads: 7 });
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters, "post-reset pooled-delivery run diverges");
    let traces: Vec<Vec<Obs>> = eng.into_outputs();
    assert_eq!(traces, ref_traces, "post-reset pooled-delivery traces diverge");
}

/// Multi-chunk phase-1 collection composes with everything else the
/// engine does: resolver switching mid-run, engine reuse via reset, and
/// odd chunking (thread counts that don't divide n).
#[test]
fn pooled_collection_survives_reset_and_odd_chunks() {
    // n = 29 is prime: every thread count in the rotation produces a
    // ragged final chunk.
    let net = build_network(
        &Topology::RandomGeometric { n: 29, radius: 0.45 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        901,
    );
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.4, id: ctx.id.0, trace: Vec::new() };
    let (ref_counters, ref_traces) = run(&net, Resolver::Naive, 8, c, 0.4, 64);

    let mut eng = Engine::with_resolver(&net, 8, Resolver::ParallelSharded { threads: 3 }, make);
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters, "first pooled-collection run diverges");

    // Reset and rerun with a different thread count: shard state, local
    // buckets, and the pool must all be observationally invisible.
    eng.reset(8, make);
    eng.set_resolver(Resolver::ParallelSharded { threads: 7 });
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters, "post-reset pooled run diverges");
    let traces: Vec<Vec<Obs>> = eng.into_outputs();
    assert_eq!(traces, ref_traces, "post-reset pooled traces diverge");
}

/// Engine-reuse regression: one engine, two full executions back-to-back
/// via [`Engine::reset`], must reproduce what two *fresh* engines produce
/// — guarding against pool or scratch state leaking from the first run
/// into the second (the persistent worker pool, shard buffers, and epoch
/// stamps all survive a reset by design and must be observationally
/// invisible).
#[test]
fn engine_reuse_via_reset_matches_fresh_engines() {
    let net = build_network(
        &Topology::RandomGeometric { n: 40, radius: 0.4 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        4242,
    );
    let c = net.channels_per_node() as u16;
    let make = |ctx: crn_sim::NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let slots = 64;

    for resolver in [Resolver::Auto, Resolver::ParallelSharded { threads: 4 }] {
        // Fresh-engine ground truth for both seeds.
        let (fresh1_counters, fresh1_traces) = run(&net, resolver, 9, c, 0.5, slots);
        let (fresh2_counters, fresh2_traces) = run(&net, resolver, 10, c, 0.5, slots);
        assert_ne!(fresh1_traces, fresh2_traces, "seeds must differ for the test to probe");

        // One engine, two executions back-to-back.
        let mut eng = Engine::with_resolver(&net, 9, resolver, make);
        eng.run_to_completion(slots);
        assert_eq!(eng.counters(), fresh1_counters, "{resolver:?}: first run counters");
        let mut traces1 = Vec::new();
        eng.for_each_protocol(|_, p| traces1.push(p.trace.clone()));
        assert_eq!(traces1, fresh1_traces, "{resolver:?}: first run traces");

        eng.reset(10, make);
        assert_eq!(eng.slot(), 0, "reset rewinds the slot counter");
        assert_eq!(eng.counters(), crn_sim::Counters::default(), "reset clears counters");
        eng.run_to_completion(slots);
        assert_eq!(
            eng.counters(),
            fresh2_counters,
            "{resolver:?}: reused engine diverges from a fresh engine"
        );
        let traces2: Vec<Vec<Obs>> = eng.into_outputs();
        assert_eq!(
            traces2, fresh2_traces,
            "{resolver:?}: reused engine's traces diverge from a fresh engine"
        );
    }
}

/// The spectrum-dynamics differential: with a primary-user process
/// installed, every resolver at every thread count must stay in
/// slot-by-slot lockstep with
/// the naive sequential engine running the *same* dynamics. The busy mask
/// is computed once per slot from per-(slot, channel)-keyed streams, so
/// any divergence here is a masking bug (a shard reading a stale mask, a
/// busy channel resolved anyway, a miscounted PU counter), pinned to the
/// slot where it first appears.
#[test]
fn dynamic_spectrum_stays_in_lockstep_across_resolvers() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 48, p: 0.15 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        77,
    );
    let c = net.channels_per_node() as u16;
    let chatter = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };

    let dynamics = [
        SpectrumDynamics::MarkovOnOff { p_busy: 0.2, p_free: 0.3 },
        SpectrumDynamics::PoissonBursts { rate: 0.1, mean_len: 3.0 },
        SpectrumDynamics::TraceReplay(vec![
            vec![GlobalChannel(0)],
            vec![],
            vec![GlobalChannel(1), GlobalChannel(0)],
            vec![],
        ]),
    ];

    for dyn_ in dynamics {
        let mut reference = Engine::with_resolver(&net, 21, Resolver::Naive, chatter);
        reference.set_spectrum(dyn_.clone());

        let mut others: Vec<(Resolver, Engine<'_, Chatter>)> = Vec::new();
        for resolver in OPTIMIZED_RESOLVERS {
            let mut eng = Engine::with_resolver(&net, 21, resolver, chatter);
            eng.set_spectrum(dyn_.clone());
            others.push((resolver, eng));
        }

        for slot in 0..72u64 {
            reference.step();
            for (resolver, eng) in &mut others {
                eng.step();
                assert_eq!(
                    eng.counters(),
                    reference.counters(),
                    "{dyn_:?} {resolver:?}: counters diverge after slot {slot}"
                );
            }
        }
        let counters = reference.counters();
        assert!(counters.deliveries > 0, "{dyn_:?}: scenario must still deliver");
        assert!(counters.pu_blocked_listens > 0, "{dyn_:?}: the PU must actually bite");

        let mut ref_traces = Vec::new();
        reference.for_each_protocol(|_, p| ref_traces.push(p.trace.clone()));
        for (resolver, eng) in &mut others {
            let mut traces = Vec::new();
            eng.for_each_protocol(|_, p| traces.push(p.trace.clone()));
            assert_eq!(traces, ref_traces, "{dyn_:?} {resolver:?}: feedback traces diverge");
        }
    }
}

/// `SpectrumDynamics::Static` must reproduce today's spectrum-free results
/// exactly — same counters (all PU counters zero) and same traces as an
/// engine that never heard of the spectrum layer.
#[test]
fn static_dynamics_reproduce_spectrum_free_results() {
    let net = build_network(
        &Topology::RandomGeometric { n: 40, radius: 0.4 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        4242,
    );
    let c = net.channels_per_node() as u16;
    let (ref_counters, ref_traces) = run(&net, Resolver::Auto, 9, c, 0.5, 64);
    assert_eq!(ref_counters.pu_blocked_listens, 0);

    let mut eng = Engine::with_resolver(&net, 9, Resolver::Auto, |ctx| Chatter {
        c,
        p_bcast: 0.5,
        id: ctx.id.0,
        trace: Vec::new(),
    });
    eng.set_spectrum(SpectrumDynamics::Static);
    eng.run_to_completion(64);
    assert_eq!(eng.counters(), ref_counters);
    assert_eq!(eng.into_outputs(), ref_traces);
}

/// Spectrum state must be reset-invisible: one engine running dynamics
/// twice via [`Engine::reset`] reproduces two fresh engines (the PU draws
/// are keyed by (seed, slot, channel), not by process history).
#[test]
fn spectrum_survives_engine_reset() {
    let net = build_network(
        &Topology::ErdosRenyi { n: 32, p: 0.2 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        55,
    );
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.5, id: ctx.id.0, trace: Vec::new() };
    let dyn_ = SpectrumDynamics::MarkovOnOff { p_busy: 0.25, p_free: 0.25 };
    let slots = 64;

    let fresh = |seed: u64| {
        let mut eng = Engine::with_resolver(&net, seed, Resolver::sharded(4), make);
        eng.set_spectrum(dyn_.clone());
        eng.run_to_completion(slots);
        (eng.counters(), eng.into_outputs())
    };
    let (fresh1, _) = fresh(9);
    let (fresh2, traces2) = fresh(10);
    assert!(fresh1.pu_blocked_listens > 0, "scenario must exercise the mask");

    let mut eng = Engine::with_resolver(&net, 9, Resolver::sharded(4), make);
    eng.set_spectrum(dyn_.clone());
    eng.run_to_completion(slots);
    assert_eq!(eng.counters(), fresh1, "first run");
    eng.reset(10, make);
    eng.run_to_completion(slots);
    assert_eq!(eng.counters(), fresh2, "reused engine diverges from fresh");
    assert_eq!(eng.into_outputs(), traces2, "reused traces diverge from fresh");
}

/// The huge-sparse memory regression: at n = 10⁵ with average degree ≈ 8,
/// network construction must stay linear — a few megabytes, zero dense
/// adjacency rows — where the old eager `Vec<BitSet>` representation
/// allocated ~1.25 GB. The engine on top adds only O(n + m) internal
/// state, `are_neighbors` still answers correctly on both edges and
/// non-edges, and a short sharded run delivers messages.
#[test]
fn huge_sparse_1e5_builds_linear_and_runs() {
    let n = 100_000usize;
    let seed = 4242u64;
    let topology = Topology::SparseErdosRenyi { n, p: 8.0 / (n as f64 - 1.0) };
    let channels = ChannelModel::SharedCore { c: 3, core: 2 };
    let net =
        Network::generate_with_stats(&topology, &channels, seed, StatsMode::Approximate).unwrap();

    let stats = net.stats();
    assert!(stats.edges > n, "expected a few hundred thousand edges, got {}", stats.edges);

    // O(n + m) memory: linear structures only. The dense-adjacency bound
    // this replaces is n²/8 = 1.25 GB; the flat CSR + channel tables for
    // this instance are ~7 MiB. 64 MiB leaves headroom without ever
    // tolerating a quadratic term.
    let fp = net.memory_footprint();
    assert_eq!(fp.adjacency_rows, 0, "avg degree 8 is far below the dense-row threshold");
    assert!(fp.total_bytes() < 64 << 20, "network footprint must stay O(n+m), got {fp}");

    // are_neighbors semantics survive the representation change: true on
    // generated edges, false on (overwhelmingly likely) non-edges.
    let edges = topology.edges(&mut stream_rng(seed, 1));
    assert_eq!(edges.len(), stats.edges);
    for &(a, b) in edges.iter().step_by(edges.len() / 64) {
        use crn_sim::NodeId;
        assert!(net.are_neighbors(NodeId(a), NodeId(b)), "edge ({a},{b}) lost");
        assert!(net.are_neighbors(NodeId(b), NodeId(a)), "edge ({b},{a}) lost");
    }
    {
        use crn_sim::NodeId;
        assert!(!net.are_neighbors(NodeId(0), NodeId(0)), "self-adjacency");
    }

    // The engine's internal state is linear too, and the whole stack
    // actually runs at this size.
    let c = net.channels_per_node() as u16;
    let make = |ctx: NodeCtx| Chatter { c, p_bcast: 0.05, id: ctx.id.0, trace: Vec::new() };
    let mut eng = Engine::with_resolver(&net, 7, Resolver::sharded(4), make);
    assert!(
        eng.internal_memory_bytes() < 64 << 20,
        "engine internal state must stay O(n+m), got {} bytes",
        eng.internal_memory_bytes()
    );
    eng.run_to_completion(4);
    assert!(eng.counters().deliveries > 0, "a 10⁵-node run must deliver something");
}

/// Property over topology/channel-count/seed space: the scalar sequential
/// engine, the batched engine, and the sharded engine at 2, 4, and 8
/// threads are bit-identical (counters *and* full per-slot feedback
/// traces) on randomized networks.
mod sharded_equivalence_property {
    use super::*;
    use proptest::prelude::*;

    fn topology(kind: u8, n: usize) -> Topology {
        match kind % 5 {
            0 => Topology::Star { leaves: n.max(2) - 1 },
            1 => Topology::Cycle { n: n.max(3) },
            2 => Topology::Complete { n: n.max(2) },
            3 => Topology::ErdosRenyi { n: n.max(2), p: 0.2 },
            _ => Topology::RandomGeometric { n: n.max(2), radius: 0.4 },
        }
    }

    /// Like [`run`] but over the scalar-only twin protocol: the engine
    /// takes the default per-node `act` delegation path.
    fn run_scalar(
        net: &Network,
        resolver: Resolver,
        seed: u64,
        c: u16,
        p_bcast: f64,
        slots: u64,
    ) -> (Counters, Vec<Vec<Obs>>) {
        let mut eng = Engine::with_resolver(net, seed, resolver, |ctx| {
            ScalarChatter(Chatter { c, p_bcast, id: ctx.id.0, trace: Vec::new() })
        });
        eng.run_to_completion(slots);
        (eng.counters(), eng.into_outputs())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sharded_and_batched_match_scalar_sequential(
            kind in 0u8..5,
            n in 4usize..40,
            c in 1u16..5,
            core in 1u16..3,
            seed in 0u64..1_000,
            p_bcast in 0.1f64..0.9,
        ) {
            let core = core.min(c) as usize;
            let net = build_network(
                &topology(kind, n),
                &ChannelModel::SharedCore { c: c as usize, core },
                seed.wrapping_mul(0x9E37) ^ kind as u64,
            );
            let c = net.channels_per_node() as u16;
            let slots = 48;
            // Ground truth: scalar act path, sequential auto resolver.
            let (ref_counters, ref_traces) =
                run_scalar(&net, Resolver::Auto, seed, c, p_bcast, slots);
            // Batched act path on the same sequential engine.
            let (counters, traces) = run(&net, Resolver::Auto, seed, c, p_bcast, slots);
            prop_assert_eq!(counters, ref_counters, "batched act diverges on counters");
            prop_assert_eq!(&traces, &ref_traces, "batched act diverges on traces");
            // Sharded engines: several chunks in every phase.
            for threads in [2usize, 4, 8] {
                let resolver = Resolver::ParallelSharded { threads };
                let (counters, traces) = run(&net, resolver, seed, c, p_bcast, slots);
                prop_assert_eq!(counters, ref_counters, "threads={} diverges on counters", threads);
                prop_assert_eq!(
                    &traces, &ref_traces,
                    "threads={} diverges on feedback traces", threads
                );
            }
        }
    }
}
