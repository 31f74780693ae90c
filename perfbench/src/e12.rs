//! `e12_campaign`: the in-process E12 quick campaign (CSEEK, CGCAST and
//! COUNT on small cliques at PU duty 0 / 0.5 / 0.75), journaled, on two
//! threads, with no HTTP in the way.
//!
//! A job here is one campaign call. Each runs the same config into a fresh
//! journal file and must reproduce the first call's report exactly; each
//! is then replayed from its finished journal, which must give the same
//! report again. Set-up is probed on its own by calls that cancel right
//! after restoring. The slot-level numbers come from a replica of the
//! campaign's CGCAST unit at duty 0.5, built from the same public scenario
//! and parameters and checked against the campaign's unit counter for
//! counter.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crn_core::cgcast::CGCast;
use crn_core::params::{GcastParams, ModelInfo};
use crn_core::SpectrumDynamics;
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{Counters, Engine, NodeId, Resolver};
use crn_workloads::campaign::{
    CampaignObserver, CampaignOutcome, CampaignReport, FaultPlan, ProgressSnapshot, TrialState,
};
use crn_workloads::experiments::campaigns::run_e12_observed;
use crn_workloads::experiments::ExpConfig;
use crn_workloads::runner::Trial;
use crn_workloads::scenario::Scenario;

use crate::report::Report;
use crate::slots::{self, SlotLog};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{fits, Args, TempDir, DEFAULT_SEED};

/// One campaign thread: with two, a call ends when the busier thread does,
/// and which thread draws the last long CGCAST unit depends on timing, so
/// call times jump between two modes about one unit apart.
const THREADS: usize = 1;
const TRIALS: usize = 3;
/// Calls per run at the least, so the job latency has a median.
const MIN_CALLS: usize = 3;
/// Calls that cancel right after restoring, before each full call: the
/// set-up samples, spread over the run.
const SETUP_PROBES_PER_CALL: usize = 12;
/// Node count per arm family in quick mode: CSEEK on 6, CGCAST on 5,
/// COUNT with 8 broadcasters around one listener.
const ARM_NODES: [u64; 3] = [6, 5, 9];
/// Arm index of the CGCAST unit at each swept duty (arms are laid out
/// `[CSEEK, CGCAST, COUNT]` per duty).
const CGCAST_AT_DUTY_0: usize = 1;
const CGCAST_AT_DUTY_05: usize = 4;
/// Mean primary-user busy sojourn the E12 sweep uses.
const MEAN_BUSY: f64 = 4.0;

/// Report digest at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x6449_f82e_18aa_075d;

/// Every snapshot, stamped with the host time it arrived; optionally asks
/// the campaign to stop before its first wave.
#[derive(Default)]
struct SnapshotLog {
    snaps: Mutex<Vec<(Instant, ProgressSnapshot)>>,
    cancel: bool,
}

impl CampaignObserver for SnapshotLog {
    fn on_progress(&self, snapshot: &ProgressSnapshot) {
        let now = Instant::now();
        self.snaps.lock().expect("observer lock").push((now, snapshot.clone()));
    }

    fn cancel_requested(&self) -> bool {
        self.cancel
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    let cfg = ExpConfig { quick: true, trials: TRIALS, seed: args.seed };
    let dir = match TempDir::new("e12") {
        Ok(d) => d,
        Err(e) => return r.check("journal dir", Err(e.to_string())),
    };

    let mut setup = Samples::new();
    let mut job_ms = Samples::new();
    let mut restore = Samples::new();
    let mut wave = Samples::new();
    let mut fsync = Samples::new();
    let mut replay = Samples::new();
    let mut tail = Samples::new();
    let mut call_s = 0.0;
    let mut node_slots = 0u64;
    let mut first: Option<CampaignReport> = None;
    let window = Instant::now();
    let mut calls = 0;
    while calls < MIN_CALLS || fits(window, calls, args.seconds) {
        for k in 0..SETUP_PROBES_PER_CALL {
            let journal = dir.path().join(format!("setup{calls}-{k}.crnj"));
            r.attempted += 1;
            match setup_probe(&cfg, &journal, tracer) {
                Ok(s) => setup.push(s),
                Err(why) => return r.check("set-up probes cancel after restoring", Err(why)),
            }
        }
        let journal = dir.path().join(format!("call{calls}.crnj"));
        let log = SnapshotLog::default();
        let t0 = Instant::now();
        let result = run_e12_observed(&cfg, THREADS, Some(&journal), &FaultPlan::none(), &log);
        let t1 = Instant::now();
        r.attempted += 1;
        let report = match result {
            Ok(rep) => rep,
            Err(e) => return r.check("campaign calls succeed", Err(e.to_string())),
        };
        let snaps = log.snaps.into_inner().expect("observer lock");
        let (Some((s0, _)), Some((sn, last))) = (snaps.first(), snaps.last()) else {
            return r.check("campaign emitted snapshots", Err("none".into()));
        };
        // Ledger of a call: restore, waves (computing, then fsync), and
        // the tail after the last snapshot, which is the remainder.
        let fsync_ns = last.fsync_nanos_total;
        let root = tracer.record("campaign.call", None, t0, t1);
        tracer.record("campaign.restore", root, t0, *s0);
        tracer.record("campaign.waves", root, *s0, *sn);
        job_ms.push((t1 - t0).as_secs_f64() * 1e3);
        restore.push((*s0 - t0).as_secs_f64() * 1e3);
        wave.push((*sn - *s0).as_secs_f64() - fsync_ns as f64 * 1e-9);
        tail.push((t1 - *sn).as_secs_f64() * 1e3);
        let mut seen = 0;
        for (_, s) in &snaps {
            if s.fsync_count > seen {
                fsync.push(s.fsync_nanos_last as f64 * 1e-6);
                seen = s.fsync_count;
            }
        }
        call_s += (t1 - t0).as_secs_f64();
        node_slots +=
            unit_trials(&report).map(|(arm, t)| t.slots_run * ARM_NODES[arm % 3]).sum::<u64>();

        let t2 = Instant::now();
        let replayed = run_e12_observed(&cfg, THREADS, Some(&journal), &FaultPlan::none(), &());
        let t3 = Instant::now();
        r.attempted += 1;
        tracer.record("campaign.replay", None, t2, t3);
        replay.push((t3 - t2).as_secs_f64() * 1e3);
        r.check(
            "calls replay from their journal",
            match replayed {
                Ok(again) => same_results(&report, &again).and_then(|()| {
                    again.resumed.then_some(()).ok_or_else(|| "replay did not resume".to_string())
                }),
                Err(e) => Err(e.to_string()),
            },
        );

        match &first {
            None => {
                check_first(args, &report, last, r);
                first = Some(report);
            }
            Some(f) => r.check("calls repeat call 0", same_results(f, &report)),
        }
        calls += 1;
    }
    let Some(first) = first else { return };

    let med = |s: &mut Samples| s.median().expect("calls ran");
    r.set_detail("setup_s", med(&mut setup), setup.describe("s"));
    r.set_detail(
        "job_latency_p50_ms",
        med(&mut job_ms),
        format!("one campaign call; {}", job_ms.describe("ms")),
    );
    r.set_detail("campaign.restore_ms", med(&mut restore), restore.describe("ms"));
    r.set_detail("campaign.wave_s", med(&mut wave), wave.describe("s"));
    r.set_detail("campaign.unaccounted_ms", med(&mut tail), tail.describe("ms"));
    r.set_detail("campaign.fsync_ms_p50", med(&mut fsync), fsync.describe("ms"));
    r.set_detail("campaign.replay_ms_p50", med(&mut replay), replay.describe("ms"));
    r.set("node_slots_per_s", node_slots as f64 / call_s);
    r.notes.push(format!("e12 calls={calls} trials={TRIALS} threads={THREADS}"));

    let mut steps = replica(args, &first, CGCAST_AT_DUTY_05, 0.5, tracer, r);
    steps.report_slots(r, false);
    if tracer.enabled() {
        steps.absorb(replica(args, &first, CGCAST_AT_DUTY_0, 0.0, tracer, r));
        steps.report_phases(r);
    }
}

/// Set-up time of one call: until the campaign has restored and emitted
/// its first snapshot. The call then cancels before running a wave.
fn setup_probe(cfg: &ExpConfig, journal: &Path, tracer: &mut Tracer) -> Result<f64, String> {
    let log = SnapshotLog { cancel: true, ..SnapshotLog::default() };
    let t0 = Instant::now();
    let result = run_e12_observed(cfg, THREADS, Some(journal), &FaultPlan::none(), &log);
    let snapped = log.snaps.into_inner().expect("observer lock").first().map(|(t, _)| *t);
    match (result, snapped) {
        (Ok(rep), Some(t1)) if matches!(rep.outcome, CampaignOutcome::Cancelled { .. }) => {
            tracer.record("campaign.setup_probe", None, t0, t1);
            Ok((t1 - t0).as_secs_f64())
        }
        (other, _) => Err(format!("{:?}", other.map(|rep| rep.outcome))),
    }
}

/// Every `(arm index, trial)` of a report's `Done` units.
fn unit_trials(report: &CampaignReport) -> impl Iterator<Item = (usize, &Trial)> {
    report.arms.iter().enumerate().flat_map(|(a, arm)| {
        arm.trials.iter().filter_map(move |t| match t {
            TrialState::Done(trial) => Some((a, trial)),
            _ => None,
        })
    })
}

fn same_results(a: &CampaignReport, b: &CampaignReport) -> Result<(), String> {
    if a.outcome == b.outcome && a.ticks == b.ticks && a.arms == b.arms {
        Ok(())
    } else {
        Err("campaign reports differ".to_string())
    }
}

/// Checks on the first call: completion, per-unit counter identities, the
/// exact counts, and the stored digest at the default seed.
fn check_first(args: &Args, report: &CampaignReport, last: &ProgressSnapshot, r: &mut Report) {
    let units = report.arms.iter().map(|a| a.trials.len()).sum::<usize>();
    let done = unit_trials(report).count();
    r.ensure(
        "campaign completed every unit",
        report.outcome == CampaignOutcome::Completed && done == units,
        || format!("{:?}, {done}/{units} units done", report.outcome),
    );
    let mut errs = Vec::new();
    let mut total = Counters::default();
    let mut node_slots = 0;
    let mut text = String::new();
    for (arm, t) in unit_trials(report) {
        let c = &t.counters;
        if let Err(e) = slots::counter_invariants(c, ARM_NODES[arm % 3], t.slots_run) {
            errs.push(format!("arm {arm} seed {}: {e}", t.seed));
        }
        if arm < 3 && c.pu_busy_channel_slots != 0 {
            errs.push(format!("arm {arm} at duty 0 saw PU activity"));
        }
        if t.completed_at.is_some_and(|at| at > t.slots_run) {
            errs.push(format!("arm {arm} completed after its last slot"));
        }
        slots::add_counters(&mut total, c);
        node_slots += t.slots_run * ARM_NODES[arm % 3];
        text += &format!(
            "{arm} {} {:?} {} {}\n",
            t.seed,
            t.completed_at,
            t.slots_run,
            slots::counters_text(c)
        );
    }
    r.ensure("unit counter invariants", errs.is_empty(), || errs.join("; "));
    slots::report_counts(r, node_slots, &total);
    r.set("campaign.waves", last.waves as f64);
    r.set("campaign.fsyncs", last.fsync_count as f64);
    let d = slots::digest(&text);
    r.notes.push(format!("e12 digest {d:016x}"));
    if args.seed == DEFAULT_SEED {
        r.ensure("digest matches the stored default-seed digest", d == DEFAULT_DIGEST, || {
            format!("{d:016x} != {DEFAULT_DIGEST:016x}")
        });
    }
}

/// Steps a replica of trial 0 of the CGCAST arm `arm` (PU duty `duty`) for
/// as many slots as the campaign ran it, and checks that it ends with the
/// campaign unit's counters.
fn replica(
    args: &Args,
    report: &CampaignReport,
    arm: usize,
    duty: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> SlotLog {
    let built = Scenario::new(
        "e12-cgcast",
        Topology::Complete { n: ARM_NODES[1] as usize },
        ChannelModel::SharedCore { c: 6, core: 3 },
        args.seed ^ 0x51,
    )
    .build()
    .expect("the E12 CGCAST arena builds");
    let stats = built.net.stats();
    let phases = stats.diameter.expect("a clique is connected");
    let sched = GcastParams { dissemination_phases: phases, ..Default::default() }
        .schedule(&ModelInfo::from_stats(&stats));
    let Some(TrialState::Done(unit)) = report.arms[arm].trials.first() else {
        r.check(format!("replica {arm}: campaign unit exists"), Err("not done".into()));
        return SlotLog::default();
    };
    let mut eng = Engine::with_resolver(&built.net, unit.seed, Resolver::Auto, |ctx| {
        CGCast::new(ctx.id, sched, (ctx.id == NodeId(0)).then_some(5))
    });
    eng.set_spectrum(SpectrumDynamics::markov_with_duty(duty, MEAN_BUSY));
    if let Some(sp) = eng.spectrum_mut() {
        sp.set_record_history(false);
    }
    let log = slots::step_timed(&mut eng, unit.slots_run, tracer.enabled(), tracer, None);
    r.attempted += unit.slots_run;
    r.ensure("CGCAST replicas match the campaign units", eng.counters() == unit.counters, || {
        format!("arm {arm}: {:?} != {:?}", eng.counters(), unit.counters)
    });
    log
}
