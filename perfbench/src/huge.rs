//! `huge_cseek_1e6`: the million-node path, from network generation
//! through a fixed budget of CSEEK slots under the default resolver.
//!
//! One episode generates the network, builds the engine and steps the
//! budget. Episodes repeat with the same seed until the run's time is
//! spent (at least [`MIN_EPISODES`]), so set-up is measured several times
//! and every episode must reproduce the first one's counters exactly.

use std::time::Instant;

use crn_core::params::{ModelInfo, SeekParams};
use crn_core::seek::CSeek;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{Engine, Network, Resolver, StatsMode};

use crate::report::Report;
use crate::slots::{self, SlotLog};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{fits, Args, DEFAULT_SEED};

const N: usize = 1_000_000;
const AVG_DEGREE: f64 = 8.0;
/// Slots stepped per episode; with three episodes the slot sample
/// supports a p90 (≥ 100 samples).
const SLOT_BUDGET: u64 = 40;
const MIN_EPISODES: usize = 3;

/// Counter digest of one episode at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x50b5_a950_f302_c294;

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    let topology = Topology::SparseErdosRenyi { n: N, p: AVG_DEGREE / (N as f64 - 1.0) };
    let channels = ChannelModel::SharedCore { c: 3, core: 2 };
    let net_seed = args.seed;
    let engine_seed = args.seed ^ 0x5EED_C5EE;

    let mut setup = Samples::new();
    let mut generate = Samples::new();
    let mut build = Samples::new();
    let mut slots_log = SlotLog::default();
    let mut first: Option<String> = None;
    let mut footprint = 0.0;
    let mut state = 0.0;
    let window = Instant::now();
    let mut episodes = 0;
    // Episodes run while another one still fits in the run's time.
    while episodes < MIN_EPISODES || fits(window, episodes, args.seconds) {
        let t0 = Instant::now();
        let generated =
            Network::generate_with_stats(&topology, &channels, net_seed, StatsMode::Approximate);
        let t1 = Instant::now();
        r.attempted += 1;
        let net = match generated {
            Ok(net) => net,
            Err(e) => {
                r.check("network generates", Err(e.to_string()));
                return;
            }
        };
        let sched = SeekParams::default().schedule(&ModelInfo::from_stats(&net.stats()));
        let t2 = Instant::now();
        let mut eng = Engine::with_resolver(&net, engine_seed, Resolver::Auto, |ctx| {
            CSeek::new(ctx.id, sched, false)
        });
        let t3 = Instant::now();
        let root = tracer.record("episode.setup", None, t0, t3);
        tracer.record("network.generate", root, t0, t1);
        tracer.record("engine.build", root, t2, t3);
        generate.push((t1 - t0).as_secs_f64());
        build.push((t3 - t2).as_secs_f64());
        setup.push((t1 - t0 + (t3 - t2)).as_secs_f64());
        footprint = mib(net.memory_footprint().total_bytes());
        state = mib(eng.internal_memory_bytes());

        let log = slots::step_timed(&mut eng, SLOT_BUDGET, tracer.enabled(), tracer, None);
        r.attempted += SLOT_BUDGET;
        let counters = eng.counters();
        let text =
            format!("n={} m={} {}", net.len(), net.stats().edges, slots::counters_text(&counters));
        match &first {
            None => {
                r.check(
                    "counter invariants",
                    slots::counter_invariants(&counters, N as u64, SLOT_BUDGET),
                );
                r.ensure(
                    "static spectrum: no PU losses",
                    counters.pu_busy_channel_slots == 0,
                    || format!("{counters:?}"),
                );
                r.ensure("messages delivered", counters.deliveries > 0, || "none".into());
                slots::report_counts(r, N as u64 * SLOT_BUDGET, &counters);
                let d = slots::digest(&text);
                r.notes.push(format!("huge digest {d:016x} ({text})"));
                if args.seed == DEFAULT_SEED {
                    r.ensure(
                        "digest matches the stored default-seed digest",
                        d == DEFAULT_DIGEST,
                        || format!("{d:016x} != {DEFAULT_DIGEST:016x}"),
                    );
                }
                first = Some(text);
            }
            Some(f) => r.ensure("episodes repeat episode 0", *f == text, || {
                format!("episode {episodes}: {text} != {f}")
            }),
        }
        slots_log.absorb(log);
        episodes += 1;
    }

    let setup_detail = setup.describe("s");
    r.set_detail("setup_s", setup.median().expect("at least one episode"), setup_detail);
    r.set("network.generate_s", generate.median().expect("episodes ran"));
    r.set("engine.build_s", build.median().expect("episodes ran"));
    r.set("network.footprint_mib", footprint);
    r.set("engine.state_mib", state);
    r.set(
        "node_slots_per_s",
        (N as u64 * slots_log.slots) as f64 / (slots_log.wall_ns as f64 * 1e-9),
    );
    slots_log.report_slots(r, true);
    slots_log.report_phases(r);
    r.notes.push(format!("huge episodes={episodes} slots/episode={SLOT_BUDGET}"));
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
