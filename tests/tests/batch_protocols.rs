//! Batch-vs-scalar differentials for every ported protocol in `crn-core`.
//!
//! The engine always drives protocols through [`Protocol::act_batch`] and
//! [`Protocol::feedback_batch`]; the ported implementations override both
//! with buffered bulk draws that must be *draw-for-draw identical* to their
//! scalar [`Protocol::act`] / [`Protocol::feedback`]. This file proves that
//! per protocol: each one is run side by side with a [`ScalarOnly`] twin —
//! a transparent wrapper that delegates everything *except* the two batch
//! hooks, so the engine falls back to the default per-node scalar
//! delegation for both — and the two executions must produce bit-identical
//! counters and outputs on the same network and seed.
//!
//! The matrix covers the sequential engine and sharded engines at threads
//! {2, 3, 4}, so the chunked dispatch of both batch hooks is exercised,
//! including ragged chunk boundaries.

use crn_core::baselines::{
    FixedRateDiscovery, FixedRateSchedule, NaiveBroadcast, NaiveDiscovery, NaiveDiscoverySchedule,
};
use crn_core::cgcast::{CGCast, UncoloredGcast};
use crn_core::count::{CountProtocol, Role};
use crn_core::exchange::Exchange;
use crn_core::params::{GcastParams, ModelInfo, SeekParams};
use crn_core::seek::CSeek;
use crn_sim::channels::{shuffle_local_labels, ChannelModel};
use crn_sim::rng::stream_rng;
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Counters, Engine, Feedback, LocalChannel, Network, NodeCtx, NodeId, Protocol, Resolver,
    SlotCtx,
};

/// A transparent protocol wrapper that forwards `act`, `feedback`,
/// `is_complete`, and `into_output` — but deliberately **neither**
/// `act_batch` **nor** `feedback_batch`, so the engine uses the trait's
/// default scalar delegation for both batch hooks. Running `P` and
/// `ScalarOnly<P>` side by side is therefore exactly a batched-vs-scalar
/// differential for `P`'s act *and* feedback paths.
struct ScalarOnly<P>(P);

impl<P: Protocol> Protocol for ScalarOnly<P> {
    type Message = P::Message;
    type Output = P::Output;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<P::Message> {
        self.0.act(ctx)
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, P::Message>) {
        self.0.feedback(ctx, fb)
    }

    fn is_complete(&self) -> bool {
        self.0.is_complete()
    }

    fn into_output(self) -> P::Output {
        self.0.into_output()
    }
}

fn build_net(topo: &Topology, model: &ChannelModel, seed: u64) -> Network {
    let mut rng = stream_rng(seed, 999);
    let n = topo.num_nodes();
    let mut sets = model.assign(n, &mut rng);
    shuffle_local_labels(&mut sets, &mut rng);
    let mut b = Network::builder(n);
    for (v, set) in sets.into_iter().enumerate() {
        b.set_channels(NodeId(v as u32), set);
    }
    b.add_edges(topo.edges(&mut rng).into_iter().map(|(a, x)| (NodeId(a), NodeId(x))));
    b.build().unwrap()
}

/// Runs `make`'s protocol batched and its [`ScalarOnly`] twin scalar,
/// across the sequential engine and sharded engines at threads {2, 3, 4},
/// and requires bit-identical counters and outputs everywhere.
fn assert_batch_matches_scalar<P, F>(net: &Network, seed: u64, slots: u64, make: F)
where
    P: Protocol + Send,
    P::Message: Send + Sync,
    P::Output: PartialEq + std::fmt::Debug + Send,
    F: Fn(NodeCtx) -> P + Copy,
{
    let scalar = |resolver: Resolver| -> (Counters, Vec<P::Output>) {
        let mut eng = Engine::with_resolver(net, seed, resolver, |ctx| ScalarOnly(make(ctx)));
        eng.run_to_completion(slots);
        (eng.counters(), eng.into_outputs())
    };
    let batched = |resolver: Resolver| -> (Counters, Vec<P::Output>) {
        let mut eng = Engine::with_resolver(net, seed, resolver, make);
        eng.run_to_completion(slots);
        (eng.counters(), eng.into_outputs())
    };

    let (ref_counters, ref_outputs) = scalar(Resolver::Auto);

    // The scalar twin on a multi-chunk engine: a protocol that overrides
    // neither batch hook (any third-party impl) must survive the chunked
    // default delegation unchanged.
    let (counters, outputs) = scalar(Resolver::ParallelSharded { threads: 3 });
    assert_eq!(counters, ref_counters, "pooled scalar-delegation counters diverge");
    assert_eq!(outputs, ref_outputs, "pooled scalar-delegation outputs diverge");

    // The batched protocol across threads {1, 2, 4} (a 1-thread engine is
    // plain sequential, one chunk per phase).
    for threads in [1usize, 2, 4] {
        let resolver =
            if threads == 1 { Resolver::Auto } else { Resolver::ParallelSharded { threads } };
        let (counters, outputs) = batched(resolver);
        assert_eq!(
            counters, ref_counters,
            "batched counters diverge from scalar (threads {threads})"
        );
        assert_eq!(outputs, ref_outputs, "batched outputs diverge from scalar (threads {threads})");
    }
}

#[test]
fn cseek_batch_matches_scalar() {
    // n = 13 with 3 chunks gives ragged chunk boundaries; history recording
    // on so the full output surface is compared.
    let net = build_net(
        &Topology::RandomGeometric { n: 13, radius: 0.5 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        5,
    );
    let m = ModelInfo::from_stats(&net.stats());
    let sched = SeekParams::default().schedule(&m);
    assert_batch_matches_scalar(&net, 31, sched.total_slots(), |ctx: NodeCtx| {
        CSeek::new(ctx.id, sched, true)
    });
}

#[test]
fn cgcast_batch_matches_scalar() {
    let net = build_net(
        &Topology::Grid { rows: 2, cols: 3 },
        &ChannelModel::SharedCore { c: 3, core: 2 },
        6,
    );
    let m = ModelInfo::from_stats(&net.stats());
    let d = net.stats().diameter.expect("connected network");
    let sched = GcastParams { dissemination_phases: d.max(1), ..Default::default() }.schedule(&m);
    assert_batch_matches_scalar(&net, 19, sched.total_slots(), |ctx: NodeCtx| {
        CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xfeed))
    });
}

#[test]
fn uncolored_gcast_batch_matches_scalar() {
    let net = build_net(&Topology::Path { n: 5 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 2);
    let m = ModelInfo::from_stats(&net.stats());
    let d = net.stats().diameter.expect("connected network");
    let sched =
        GcastParams { dissemination_phases: 2 * d.max(1), ..Default::default() }.schedule(&m);
    // The uncolored variant's schedule is shorter than total_slots; running
    // to protocol completion covers the whole state machine.
    assert_batch_matches_scalar(&net, 23, sched.total_slots(), |ctx: NodeCtx| {
        UncoloredGcast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(0xfeed))
    });
}

#[test]
fn count_batch_matches_scalar() {
    // Clique on one shared channel: node 0 listens, the rest broadcast.
    let n = 9usize;
    let mut b = Network::builder(n);
    for v in 0..n {
        b.set_channels(NodeId(v as u32), vec![crn_sim::GlobalChannel(0)]);
    }
    for a in 0..n as u32 {
        for w in (a + 1)..n as u32 {
            b.add_edge(NodeId(a), NodeId(w));
        }
    }
    let net = b.build().unwrap();
    let sched = crn_core::params::CountParams::default().schedule(&ModelInfo {
        n: 64,
        c: 1,
        delta: 64,
        k: 1,
        kmax: 1,
    });
    assert_batch_matches_scalar(&net, 41, sched.total_slots(), |ctx: NodeCtx| {
        let role = if ctx.id == NodeId(0) { Role::Listener } else { Role::Broadcaster };
        CountProtocol::new(ctx.id, role, sched, LocalChannel(0))
    });
}

#[test]
fn baselines_batch_match_scalar() {
    let net = build_net(&Topology::Cycle { n: 7 }, &ChannelModel::SharedCore { c: 3, core: 2 }, 9);
    let m = ModelInfo::from_stats(&net.stats());

    let naive = NaiveDiscoverySchedule::new(&m, 2.0);
    assert_batch_matches_scalar(&net, 51, naive.total_slots(), |ctx: NodeCtx| {
        NaiveDiscovery::new(ctx.id, naive)
    });

    let fixed = FixedRateSchedule::new(&m, 2.0);
    assert_batch_matches_scalar(&net, 52, fixed.total_slots(), |ctx: NodeCtx| {
        FixedRateDiscovery::new(ctx.id, fixed)
    });

    let slots = NaiveBroadcast::schedule_slots(&m, 3, 2.0);
    assert_batch_matches_scalar(&net, 53, slots, |ctx: NodeCtx| {
        NaiveBroadcast::new(ctx.id, m.c as u16, slots, (ctx.id == NodeId(0)).then_some(42))
    });
}

#[test]
fn exchange_batch_matches_scalar() {
    let net = build_net(
        &Topology::Grid { rows: 3, cols: 3 },
        &ChannelModel::SharedCore { c: 4, core: 2 },
        1,
    );
    let m = ModelInfo::from_stats(&net.stats());
    let sched = SeekParams::default().schedule(&m);
    assert_batch_matches_scalar(&net, 17, sched.total_slots(), |ctx: NodeCtx| {
        Exchange::new(ctx.id, sched, vec![ctx.id.0; 2])
    });
}
