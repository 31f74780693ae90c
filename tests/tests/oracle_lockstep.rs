//! The engine against the independent reference stepper of
//! `crn_integration::oracle`, slot by slot.
//!
//! Every other differential in this crate compares one engine mode with
//! another, so a bug in a piece they all share (action collection, label
//! translation, packed outcomes, PU folding) would be invisible to them.
//! The oracle shares none of those pieces: it is the paper's §3 model
//! written out directly. Here the sequential `Auto` engine and the sharded
//! engine at threads {1, 2, 4, 8} run in lockstep with it over topology ×
//! channel model × spectrum dynamics, and after every slot each node's
//! feedback and the aggregate [`Counters`] must agree. A second case runs
//! two 6000-node networks, large enough that only hubs keep dense
//! adjacency rows.

use crn_integration::oracle::{Observed, Oracle};
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{
    Action, Engine, Feedback, LocalChannel, Network, NodeId, Protocol, Resolver, SlotCtx,
    SpectrumDynamics, StatsMode,
};
use proptest::prelude::*;
use rand::Rng;

/// Random traffic through the scalar hooks only. The message names its
/// sender and slot, so the recorded trace says who was heard.
struct Chatter {
    c: u16,
    p_bcast: f64,
    id: u32,
    trace: Vec<Observed>,
}

impl Protocol for Chatter {
    type Message = u64;
    type Output = Vec<Observed>;

    fn act(&mut self, ctx: &mut SlotCtx<'_>) -> Action<u64> {
        let channel = LocalChannel(ctx.rng.gen_range(0..self.c));
        if ctx.rng.gen_bool(self.p_bcast) {
            Action::Broadcast { channel, message: ((self.id as u64) << 32) | ctx.slot.0 }
        } else if ctx.rng.gen_bool(0.9) {
            Action::Listen { channel }
        } else {
            Action::Sleep
        }
    }

    fn feedback(&mut self, ctx: &mut SlotCtx<'_>, fb: Feedback<'_, u64>) {
        self.trace.push(match fb {
            Feedback::Sent => Observed::Sent,
            Feedback::Heard(m) => {
                assert_eq!(m & 0xffff_ffff, ctx.slot.0, "a message from another slot");
                Observed::HeardFrom(NodeId((m >> 32) as u32))
            }
            Feedback::Silence => Observed::Silence,
            Feedback::Slept => Observed::Slept,
        });
    }

    fn is_complete(&self) -> bool {
        false
    }

    fn into_output(self) -> Vec<Observed> {
        self.trace
    }
}

fn topology(kind: u8, n: usize) -> Topology {
    match kind % 3 {
        0 => Topology::Star { leaves: n - 1 },
        1 => Topology::ErdosRenyi { n, p: 0.25 },
        _ => Topology::RandomGeometric { n, radius: 0.4 },
    }
}

fn channel_model(kind: u8, c: usize) -> ChannelModel {
    match kind % 3 {
        0 => ChannelModel::Identical { c },
        1 => ChannelModel::SharedCore { c, core: (c / 2).max(1) },
        // Any two c-subsets of a (2c − 1)-pool intersect, so every edge
        // keeps a shared channel and the network always builds.
        _ => ChannelModel::RandomPool { c, universe: 2 * c - 1 },
    }
}

const RESOLVERS: [Resolver; 5] = [
    Resolver::Auto,
    Resolver::ParallelSharded { threads: 1 },
    Resolver::ParallelSharded { threads: 2 },
    Resolver::ParallelSharded { threads: 4 },
    Resolver::ParallelSharded { threads: 8 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_the_oracle_slot_by_slot(
        topo in 0u8..3,
        model in 0u8..3,
        markov in any::<bool>(),
        n in 4usize..40,
        c in 1usize..5,
        seed in 0u64..1_000,
        p_bcast in 0.1f64..0.9,
    ) {
        let net = Network::generate(&topology(topo, n), &channel_model(model, c), seed ^ 0x5eed)
            .expect("scenario network must build");
        let c = net.channels_per_node() as u16;
        let make = |ctx: crn_sim::NodeCtx| Chatter { c, p_bcast, id: ctx.id.0, trace: Vec::new() };
        let dynamics = if markov {
            SpectrumDynamics::MarkovOnOff { p_busy: 0.2, p_free: 0.3 }
        } else {
            SpectrumDynamics::Static
        };

        let mut oracle = Oracle::new(&net, seed, make);
        let mut engines: Vec<Engine<'_, Chatter>> = RESOLVERS
            .iter()
            .map(|&r| {
                let mut eng = Engine::with_resolver(&net, seed, r, make);
                eng.set_spectrum(dynamics.clone());
                eng
            })
            .collect();

        for slot in 0..40u64 {
            for eng in &mut engines {
                eng.step();
            }
            let spectrum = engines[0].spectrum();
            let expected = oracle.step(|g| spectrum.is_some_and(|s| s.is_busy(g)));
            for (eng, resolver) in engines.iter().zip(RESOLVERS) {
                prop_assert_eq!(
                    eng.counters(),
                    oracle.counters(),
                    "{:?}: counters diverge from the oracle in slot {}",
                    resolver,
                    slot
                );
                for (v, want) in expected.iter().enumerate() {
                    let got = eng.protocol(NodeId(v as u32)).trace.last().copied();
                    prop_assert_eq!(
                        got,
                        Some(*want),
                        "{:?}: node {} feedback diverges from the oracle in slot {}",
                        resolver,
                        v,
                        slot
                    );
                }
            }
        }
        for v in 0..net.len() {
            let node = NodeId(v as u32);
            prop_assert_eq!(
                &oracle.protocol(node).trace,
                &engines[0].protocol(node).trace,
                "node {} trace diverges from the oracle's own protocol instance",
                v
            );
        }
    }
}

/// Above 4096 nodes the engine keeps a dense adjacency row only for hubs,
/// so resolution takes the sparse paths a million-node run lives on:
/// binary-search adjacency tests, listener walks without a row, and word
/// intersections against hub-only rows. Two 6000-node shapes put them to
/// work — a sparse Erdős–Rényi graph with no rows at all, and a dumbbell
/// whose two hubs are the only rows — each at sparse, light and heavy
/// traffic and under Markov churn, locked to the oracle every slot.
/// `ListenerCentric` runs beside `Auto` and `sharded(2)` because `Auto`
/// rarely picks the listener side on these shapes, and only the listener
/// side scans broadcaster lists with pairwise adjacency tests; the sparse
/// level (a handful of broadcasters per channel) is what makes a listener
/// scan instead of walk.
#[test]
fn sparse_paths_above_the_dense_row_bound_match_the_oracle() {
    let shapes = [
        Topology::SparseErdosRenyi { n: 6000, p: 8.0 / 5999.0 },
        Topology::Dumbbell { legs: 3000 },
    ];
    let traffic = [(0.003, false), (0.05, false), (0.4, false), (0.15, true)];
    let resolvers = [Resolver::Auto, Resolver::sharded(2), Resolver::ListenerCentric];
    for (si, topology) in shapes.iter().enumerate() {
        let net = Network::generate_with_stats(
            topology,
            &ChannelModel::SharedCore { c: 3, core: 2 },
            90 + si as u64,
            StatsMode::Approximate,
        )
        .expect("scenario network must build");
        assert!(net.len() > 4096, "the scenario must sit above the all-rows bound");
        for (ti, &(p_bcast, markov)) in traffic.iter().enumerate() {
            let seed = 300 + 10 * si as u64 + ti as u64;
            let make =
                |ctx: crn_sim::NodeCtx| Chatter { c: 3, p_bcast, id: ctx.id.0, trace: Vec::new() };
            let mut oracle = Oracle::new(&net, seed, make);
            let mut engines: Vec<Engine<'_, Chatter>> = resolvers
                .iter()
                .map(|&r| {
                    let mut eng = Engine::with_resolver(&net, seed, r, make);
                    if markov {
                        eng.set_spectrum(SpectrumDynamics::MarkovOnOff {
                            p_busy: 0.2,
                            p_free: 0.3,
                        });
                    }
                    eng
                })
                .collect();
            for slot in 0..20u64 {
                for eng in &mut engines {
                    eng.step();
                }
                let spectrum = engines[0].spectrum();
                let expected = oracle.step(|g| spectrum.is_some_and(|s| s.is_busy(g)));
                for (eng, resolver) in engines.iter().zip(resolvers) {
                    let tag = format!("{topology:?} p={p_bcast} markov={markov} {resolver:?}");
                    assert_eq!(eng.counters(), oracle.counters(), "{tag}: counters, slot {slot}");
                    for (v, want) in expected.iter().enumerate() {
                        let got = eng.protocol(NodeId(v as u32)).trace.last().copied();
                        assert_eq!(got, Some(*want), "{tag}: node {v} feedback, slot {slot}");
                    }
                }
            }
            assert!(oracle.counters().deliveries > 0, "{topology:?} p={p_bcast}: no deliveries");
            assert!(oracle.counters().collisions > 0, "{topology:?} p={p_bcast}: no collisions");
        }
    }
}
