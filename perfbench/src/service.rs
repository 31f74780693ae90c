//! `service_e2`: an open loop of E2 quick jobs against an in-process
//! campaign server over loopback HTTP.
//!
//! Arrivals come at a fixed rate whether or not earlier jobs have
//! finished; every [`REPLAY_EVERY`]th arrival resubmits a config that has
//! already completed, which the server serves by replaying its journal. A
//! poller thread sends status GETs on its own fixed schedule and hands
//! finished jobs to the submitting thread, which fetches their results.
//! Every job and poll is timed from when it was due. The load generator is
//! two threads on two keep-alive connections.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crn_core::params::SeekParams;
use crn_core::seek::CSeek;
use crn_server::http::{Limits, Request, RequestParser};
use crn_server::json::{parse, Json};
use crn_server::router::{self, RouterCtx};
use crn_server::{Server, ServerConfig};
use crn_sim::channels::ChannelModel;
use crn_sim::topology::Topology;
use crn_sim::{Counters, Engine, Resolver};
use crn_workloads::campaign::FaultPlan;
use crn_workloads::experiments::campaigns::{e2_spec, run_e2};
use crn_workloads::experiments::ExpConfig;
use crn_workloads::scenario::Scenario;

use crate::http::{request_bytes, Conn};
use crate::report::Report;
use crate::slots::{self, SlotLog};
use crate::stats::{due_latency, lag, Samples};
use crate::trace::Tracer;
use crate::{mix, Args, TempDir};

/// New-job arrivals per second. One E2 quick job takes 25–41 ms, so the
/// single-flight scheduler stays well under saturation.
const RATE_PER_S: f64 = 10.0;
/// Every this-many-th arrival resubmits a completed config.
const REPLAY_EVERY: u64 = 4;
/// Status poll period: detecting a finished job adds at most this much,
/// a small share of a job's run time. It does not divide the arrival
/// period, so detection delays spread evenly over the period instead of
/// locking every job to one phase of the poll grid (which would quantize
/// the job latency percentiles to whole periods).
const POLL_EVERY: Duration = Duration::from_micros(1700);
const TRIALS: usize = 4;
const JOB_THREADS: usize = 2;
const HTTP_WORKERS: usize = 2;
/// A fresh server is started for `setup_s` about this often during the
/// loop, while no job is in flight and at least [`PROBE_SLACK`] before the
/// next arrival, so the set-up samples span the whole run.
const PROBE_EVERY: Duration = Duration::from_millis(150);
const PROBE_SLACK: Duration = Duration::from_millis(5);
/// Every this-many-th new job is compared with a batch reference run.
const CHECK_EVERY: usize = 12;
/// Queued jobs tolerated when arrivals stop; more means the server is not
/// keeping up with the rate and the run is invalid.
const BACKLOG_LIMIT: f64 = 2.0;
/// Generator lateness beyond which the arrival schedule no longer holds.
const LAG_LIMIT_MS: f64 = 25.0;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Ring size of the E2 quick scenario.
const E2_NODES: u64 = 12;
/// Channels per node of the E2 quick arms, in arm order.
const E2_CS: [usize; 2] = [4, 8];
/// In-process samples for the traced router and parser timings.
const INPROC_SAMPLES: usize = 2000;

/// What the poller learned about a finished job.
struct Finished {
    job: usize,
    seen: Instant,
    status: Json,
    /// Send time of the last poll that saw the job queued.
    last_queued: Option<Instant>,
}

/// Jobs the poller should watch, shared with the submitting thread.
#[derive(Default)]
struct Watch {
    outstanding: Vec<(usize, u64)>,
    last_id: Option<u64>,
    stop: bool,
}

#[derive(Default)]
struct PollStats {
    latency_ms: Samples,
    rtt_us: Samples,
    lag_ms: Samples,
    attempted: u64,
    failed: u64,
}

struct Job {
    cfg: usize,
    replay: bool,
    id: u64,
    due: Instant,
    sent: Instant,
    acked: Instant,
}

pub fn run(args: &Args, tracer: &mut Tracer, r: &mut Report) {
    let dir = match TempDir::new("service") {
        Ok(d) => d,
        Err(e) => return r.check("journal dir", Err(e.to_string())),
    };
    r.attempted += 1;
    let server = match start_server(&dir.path().join("main"), tracer) {
        Ok((server, _)) => server,
        Err(e) => return r.check("server starts", Err(e)),
    };

    let mut lp = Loop::new(args, server.addr(), dir.path());
    let outcome = lp.run(tracer, r);
    r.set_detail("setup_s", lp.setup.median().unwrap_or(0.0), lp.setup.describe("s"));
    let metrics_text = lp.conn.request("GET", "/metrics", b"");
    // Both keep-alive connections close before the server shuts down: a
    // worker serving one would otherwise wait out its read timeout.
    lp.conn.close();
    let mut poll = lp.poller.take().expect("poller runs once").join().expect("poller thread");

    r.check("open loop", outcome);
    for v in std::mem::take(&mut lp.lag_ms).into_values() {
        poll.lag_ms.push(v);
    }
    let rtt_us = report_polls(poll, r);
    match metrics_text {
        Ok((200, body)) => {
            let text = String::from_utf8_lossy(&body);
            r.set("server.requests_total", scrape(&text, "crn_http_requests_total"));
            r.set(
                "server.error_responses",
                scrape(&text, "crn_http_responses_4xx_total")
                    + scrape(&text, "crn_http_responses_5xx_total"),
            );
        }
        other => r.check("GET /metrics", Err(format!("{other:?}"))),
    }
    if tracer.enabled() {
        let handle_us = time_router_and_parser(&server, &lp.ids, dir.path(), r);
        if let (Some(rtt), Some(handle)) = (rtt_us, handle_us) {
            r.set("server.transport_us_p50", rtt - handle);
        }
    }
    lp.jobs_report(tracer, r);
    drop(server);

    lp.check_references(r);
    let mut replica = lp.replica(tracer, r);
    replica.report_slots(r, false);
    replica.report_phases(r);
}

/// Set-up as a user sees it: `Server::start` until `GET /` answers.
fn start_server(journal_dir: &Path, tracer: &mut Tracer) -> Result<(Server, Duration), String> {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: HTTP_WORKERS,
        journal_dir: journal_dir.to_path_buf(),
        default_threads: JOB_THREADS,
        ..ServerConfig::default()
    };
    let t0 = Instant::now();
    let started = Server::start(cfg)
        .and_then(|s| Conn::connect(s.addr())?.request("GET", "/", b"").map(|resp| (s, resp)));
    let t1 = Instant::now();
    match started {
        Ok((s, (200, _))) => {
            tracer.record("server.start", None, t0, t1);
            Ok((s, t1 - t0))
        }
        Ok((_, (status, _))) => Err(format!("GET / -> {status}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The open loop's state on the submitting thread.
struct Loop {
    start: Instant,
    /// Directory for the set-up probes' journals.
    dir: PathBuf,
    next_probe: Instant,
    setup: Samples,
    arrivals: u64,
    period: Duration,
    seeds: Vec<u64>,
    /// Seed-derived choice stream for replays.
    pick: u64,
    conn: Conn,
    watch: Arc<Mutex<Watch>>,
    done_rx: Receiver<Finished>,
    poller: Option<thread::JoinHandle<PollStats>>,
    jobs: Vec<Job>,
    /// Submitted jobs whose completion has not been handled yet.
    unfinished: usize,
    ids: Vec<u64>,
    /// First-run results body per completed config.
    bodies: HashMap<usize, Vec<u8>>,
    completed: Vec<usize>,
    active: HashSet<usize>,
    job_ms: Samples,
    replay_ms: Samples,
    queue_ms: Samples,
    run_ms: Samples,
    fetch_ms: Samples,
    replay_run_ms: Samples,
    fsync_ms: Samples,
    lag_ms: Samples,
    unaccounted_ms: Samples,
    /// Job ledgers: due, sent, acked, run start, run end, fetch start,
    /// results received.
    ledgers: Vec<[Instant; 7]>,
    node_slots: u64,
    run_s: f64,
    counters: Counters,
    waves: u64,
    fsyncs: u64,
    backlog: f64,
    replicas: Vec<(u64, u64, u64, Counters)>,
}

impl Loop {
    fn new(args: &Args, addr: SocketAddr, dir: &Path) -> Loop {
        let arrivals = (args.seconds * RATE_PER_S).round().max(REPLAY_EVERY as f64) as u64;
        let mut seen = HashSet::new();
        let seeds = (0..arrivals)
            .filter(|i| i % REPLAY_EVERY != REPLAY_EVERY - 1)
            .map(|i| {
                let mut s = mix(args.seed, i);
                while !seen.insert(s) {
                    s = mix(s, i);
                }
                s
            })
            .collect();
        let watch = Arc::new(Mutex::new(Watch::default()));
        let (tx, done_rx) = mpsc::channel();
        let start = Instant::now() + Duration::from_millis(20);
        let poller = {
            let watch = watch.clone();
            thread::Builder::new()
                .name("bench-poller".into())
                .spawn(move || poll_loop(addr, start, watch, tx))
                .expect("spawn poller")
        };
        Loop {
            start,
            dir: dir.to_path_buf(),
            next_probe: start,
            setup: Samples::new(),
            arrivals,
            period: Duration::from_secs_f64(1.0 / RATE_PER_S),
            seeds,
            pick: mix(args.seed, u64::MAX),
            conn: Conn::connect(addr).expect("connect to the server"),
            watch,
            done_rx,
            poller: Some(poller),
            jobs: Vec::new(),
            unfinished: 0,
            ids: Vec::new(),
            bodies: HashMap::new(),
            completed: Vec::new(),
            active: HashSet::new(),
            job_ms: Samples::new(),
            replay_ms: Samples::new(),
            queue_ms: Samples::new(),
            run_ms: Samples::new(),
            fetch_ms: Samples::new(),
            replay_run_ms: Samples::new(),
            fsync_ms: Samples::new(),
            lag_ms: Samples::new(),
            unaccounted_ms: Samples::new(),
            ledgers: Vec::new(),
            node_slots: 0,
            run_s: 0.0,
            counters: Counters::default(),
            waves: 0,
            fsyncs: 0,
            backlog: 0.0,
            replicas: Vec::new(),
        }
    }

    fn body(&self, cfg: usize) -> String {
        format!(
            "{{\"kind\":\"e2\",\"quick\":true,\"trials\":{TRIALS},\"seed\":{},\"threads\":{JOB_THREADS}}}",
            self.seeds[cfg]
        )
    }

    /// Runs arrivals to the end, then drains; stops the poller either way.
    fn run(&mut self, tracer: &mut Tracer, r: &mut Report) -> Result<(), String> {
        let result = self.arrive_and_drain(tracer, r);
        self.watch.lock().expect("watch lock").stop = true;
        result
    }

    fn arrive_and_drain(&mut self, tracer: &mut Tracer, r: &mut Report) -> Result<(), String> {
        let mut next = 0u64;
        let mut new_jobs = 0usize;
        let mut pending: Option<Finished> = None;
        let mut drain_deadline = None;
        loop {
            let due = (next < self.arrivals).then(|| self.start + self.period * next as u32);
            if due.is_none() && drain_deadline.is_none() {
                // Arrivals stop here: what is still queued is backlog.
                self.backlog = match self.conn.request("GET", "/metrics", b"") {
                    Ok((200, body)) => scrape(&String::from_utf8_lossy(&body), "crn_queue_depth"),
                    other => return Err(format!("GET /metrics at arrival stop: {other:?}")),
                };
                drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
            }
            if due.is_none() && pending.is_none() && self.unfinished == 0 {
                return Ok(());
            }
            let ready = pending.take().or_else(|| self.done_rx.try_recv().ok());
            match (ready, due) {
                (Some(f), Some(d)) if d < f.seen => {
                    pending = Some(f);
                    self.submit(next, &mut new_jobs, d, r);
                    next += 1;
                }
                (Some(f), _) => self.finish(f, r),
                (None, Some(d)) => {
                    let now = Instant::now();
                    if d <= now {
                        self.submit(next, &mut new_jobs, d, r);
                        next += 1;
                    } else if self.next_probe <= now
                        && self.unfinished == 0
                        && d - now >= PROBE_SLACK
                    {
                        let dir = self.dir.join(format!("probe{}", self.setup.len()));
                        r.attempted += 1;
                        match start_server(&dir, tracer) {
                            Ok((_, took)) => self.setup.push(took.as_secs_f64()),
                            Err(e) => r.check("server starts", Err(e)),
                        }
                        self.next_probe = now + PROBE_EVERY;
                    } else {
                        let wake = if self.next_probe > now { d.min(self.next_probe) } else { d };
                        match self.done_rx.recv_timeout(wake - now) {
                            Ok(f) => pending = Some(f),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => {
                                return Err("poller exited".into())
                            }
                        }
                    }
                }
                (None, None) => {
                    let left = drain_deadline
                        .expect("set when arrivals stop")
                        .saturating_duration_since(Instant::now());
                    match self.done_rx.recv_timeout(left) {
                        Ok(f) => pending = Some(f),
                        Err(_) => {
                            return Err(format!(
                                "{} jobs unfinished after the drain timeout",
                                self.unfinished
                            ))
                        }
                    }
                }
            }
        }
    }

    fn submit(&mut self, i: u64, new_jobs: &mut usize, due: Instant, r: &mut Report) {
        let replay = i % REPLAY_EVERY == REPLAY_EVERY - 1;
        let cfg = if replay {
            let candidates: Vec<usize> =
                self.completed.iter().copied().filter(|c| !self.active.contains(c)).collect();
            if candidates.is_empty() {
                r.check("replays find a completed config", Err(format!("arrival {i}: none yet")));
                return;
            }
            self.pick = mix(self.pick, i);
            candidates[(self.pick % candidates.len() as u64) as usize]
        } else {
            *new_jobs += 1;
            *new_jobs - 1
        };
        let body = self.body(cfg);
        let sent = Instant::now();
        self.lag_ms.push(lag(due, sent).as_secs_f64() * 1e3);
        let resp = self.conn.request("POST", "/campaigns", body.as_bytes());
        let acked = Instant::now();
        r.attempted += 1;
        let id = match resp {
            Ok((201, b)) => parse_json(&b).and_then(|j| j.get("id").and_then(Json::as_u64)),
            Ok((status, b)) => {
                r.failed += 1;
                r.notes.push(format!("submit {i} -> {status}: {}", String::from_utf8_lossy(&b)));
                return;
            }
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("submit {i}: {e}"));
                return;
            }
        };
        let Some(id) = id else {
            r.failed += 1;
            return;
        };
        self.active.insert(cfg);
        self.unfinished += 1;
        self.ids.push(id);
        self.jobs.push(Job { cfg, replay, id, due, sent, acked });
        let mut w = self.watch.lock().expect("watch lock");
        w.outstanding.push((self.jobs.len() - 1, id));
        w.last_id = Some(id);
    }

    fn finish(&mut self, f: Finished, r: &mut Report) {
        let (cfg, replay, id, due, sent, acked) = {
            let j = &self.jobs[f.job];
            (j.cfg, j.replay, j.id, j.due, j.sent, j.acked)
        };
        self.active.remove(&cfg);
        self.unfinished -= 1;
        let state = f.status.get("state").and_then(Json::as_str).unwrap_or("?").to_string();
        let resumed = f.status.get("resumed").and_then(Json::as_bool);
        r.ensure("every job completes", state == "completed", || format!("job {id}: {state}"));
        // A leftover journal would silently turn a new job into a replay.
        r.ensure(
            "status resumed=false for new jobs, true for replays",
            resumed == Some(replay),
            || format!("job {id} says resumed={resumed:?}, replay={replay}"),
        );
        let fetch_start = Instant::now();
        let resp = self.conn.request("GET", &format!("/campaigns/{id}/results"), b"");
        let received = Instant::now();
        r.attempted += 1;
        let body = match resp {
            Ok((200, body)) => body,
            other => {
                r.failed += 1;
                r.notes.push(format!("results {id}: {other:?}"));
                return;
            }
        };
        let progress = f.status.get("progress");
        let field = |k: &str| progress.and_then(|p| p.get(k));
        let run =
            Duration::from_secs_f64(field("elapsed_secs").and_then(Json::as_f64).unwrap_or(0.0));
        let latency = due_latency(due, received).as_secs_f64() * 1e3;
        if replay {
            self.replay_ms.push(latency);
            self.replay_run_ms.push(run.as_secs_f64() * 1e3);
            let same = self.bodies.get(&cfg) == Some(&body);
            r.ensure("replay bodies equal their first run", same, || format!("job {id} differs"));
            return;
        }
        self.job_ms.push(latency);
        self.fetch_ms.push((received - fetch_start).as_secs_f64() * 1e3);
        self.run_ms.push(run.as_secs_f64() * 1e3);
        self.run_s += run.as_secs_f64();
        // Queue wait as seen from outside: the job was still queued when
        // the last poll that saw it queued was sent. The poll period bounds
        // how much more it waited; that share stays in the remainder.
        let start = f.last_queued.unwrap_or(sent).max(sent);
        self.queue_ms.push((start - sent).as_secs_f64() * 1e3);
        self.ledgers.push([due, sent, acked, start, start + run, fetch_start, received]);
        let rest = (received - due).as_secs_f64()
            - (sent - due).as_secs_f64()
            - (start - sent).as_secs_f64()
            - run.as_secs_f64()
            - (received - fetch_start).as_secs_f64();
        self.unaccounted_ms.push(rest * 1e3);
        if let Some(n) = field("fsync_nanos_last").and_then(Json::as_u64) {
            self.fsync_ms.push(n as f64 * 1e-6);
        }
        self.waves += field("waves").and_then(Json::as_u64).unwrap_or(0);
        self.fsyncs += field("fsync_count").and_then(Json::as_u64).unwrap_or(0);
        match results_units(&body) {
            Ok(units) => {
                for (arm, seed, slots_run, c) in units {
                    if let Err(e) = slots::counter_invariants(&c, E2_NODES, slots_run) {
                        r.check("served unit counter invariants", Err(format!("job {id}: {e}")));
                    }
                    self.node_slots += slots_run * E2_NODES;
                    slots::add_counters(&mut self.counters, &c);
                    if cfg == 0
                        && self.replicas.len() < E2_CS.len()
                        && arm == self.replicas.len() as u64
                    {
                        self.replicas.push((arm, seed, slots_run, c));
                    }
                }
            }
            Err(e) => r.check("results bodies parse", Err(format!("job {id}: {e}"))),
        }
        self.bodies.insert(cfg, body);
        self.completed.push(cfg);
    }

    fn jobs_report(&mut self, tracer: &mut Tracer, r: &mut Report) {
        let new = self.job_ms.len();
        r.notes.push(format!(
            "service arrivals={} new_jobs={new} replays={} rate={RATE_PER_S}/s poll_every={POLL_EVERY:?}",
            self.arrivals,
            self.replay_ms.len()
        ));
        let detail = self.job_ms.describe("ms");
        for (p, name) in [(50.0, "job_latency_p50_ms"), (90.0, "job_latency_p90_ms")] {
            match self.job_ms.require(p) {
                Ok(v) => r.set_detail(name, v, detail.clone()),
                Err(e) => r.check(format!("{name} sample count"), Err(e)),
            }
        }
        if let Some(v) = self.replay_ms.median() {
            r.set_detail("replay_latency_p50_ms", v, self.replay_ms.describe("ms"));
        }
        let med = |s: &mut Samples| s.median().unwrap_or(0.0);
        r.set_detail(
            "server.queue_wait_ms_p50",
            med(&mut self.queue_ms),
            self.queue_ms.describe("ms"),
        );
        r.set_detail("server.job_run_ms_p50", med(&mut self.run_ms), self.run_ms.describe("ms"));
        r.set_detail(
            "server.results_fetch_ms_p50",
            med(&mut self.fetch_ms),
            self.fetch_ms.describe("ms"),
        );
        r.set_detail(
            "server.unaccounted_ms_p50",
            med(&mut self.unaccounted_ms),
            self.unaccounted_ms.describe("ms"),
        );
        r.set_detail(
            "campaign.fsync_ms_p50",
            med(&mut self.fsync_ms),
            self.fsync_ms.describe("ms"),
        );
        r.set_detail(
            "campaign.replay_ms_p50",
            med(&mut self.replay_run_ms),
            self.replay_run_ms.describe("ms"),
        );
        r.set("campaign.waves", self.waves as f64);
        r.set("campaign.fsyncs", self.fsyncs as f64);
        r.set("loadgen.backlog_jobs", self.backlog);
        r.ensure("no backlog when arrivals stop", self.backlog <= BACKLOG_LIMIT, || {
            format!("{} jobs still queued", self.backlog)
        });
        slots::report_counts(r, self.node_slots, &self.counters);
        if self.run_s > 0.0 {
            r.set("node_slots_per_s", self.node_slots as f64 / self.run_s);
        }
        for l in &self.ledgers {
            let [due, sent, acked, start, end, fetch, received] = *l;
            let root = tracer.record("job", None, due, received);
            tracer.record("loadgen.lag", root, due, sent);
            tracer.record("http.submit", root, sent, acked);
            tracer.record("server.queue_wait", root, sent, start);
            tracer.record("server.run", root, start, end);
            tracer.record("http.results", root, fetch, received);
        }
    }

    /// Byte-compares a fixed sample of new jobs' results with a batch run
    /// of the same config, outside the timed window.
    fn check_references(&self, r: &mut Report) {
        for cfg in (0..self.seeds.len()).step_by(CHECK_EVERY) {
            let Some(body) = self.bodies.get(&cfg) else { continue };
            let ecfg = ExpConfig { quick: true, trials: TRIALS, seed: self.seeds[cfg] };
            let expect = match run_e2(&ecfg, JOB_THREADS, None, &FaultPlan::none()) {
                Ok(rep) => router::results_json("e2", &e2_spec(&ecfg).name, &rep).render(),
                Err(e) => {
                    r.check("sampled results equal the batch reference", Err(e.to_string()));
                    continue;
                }
            };
            r.ensure(
                "sampled results equal the batch reference",
                expect.as_bytes() == body.as_slice(),
                || format!("config {cfg} differs"),
            );
        }
    }

    /// Steps replicas of config 0's trial 0 on each E2 arm and checks they
    /// end with the counters the server returned.
    fn replica(&self, tracer: &mut Tracer, r: &mut Report) -> SlotLog {
        let mut log = SlotLog::default();
        for &(arm, seed, slots_run, counters) in &self.replicas {
            let built = Scenario::new(
                format!("e2-c{}", E2_CS[arm as usize]),
                Topology::Cycle { n: E2_NODES as usize },
                ChannelModel::SharedCore { c: E2_CS[arm as usize], core: 2 },
                self.seeds[0],
            )
            .build()
            .expect("the E2 arena builds");
            let sched = SeekParams::default().schedule(&built.model);
            let mut eng = Engine::with_resolver(&built.net, seed, Resolver::Auto, |ctx| {
                CSeek::new(ctx.id, sched, false)
            });
            log.absorb(slots::step_timed(&mut eng, slots_run, tracer.enabled(), tracer, None));
            r.attempted += slots_run;
            r.ensure("E2 replicas match the served units", eng.counters() == counters, || {
                format!("{:?} != {counters:?}", eng.counters())
            });
        }
        log
    }
}

/// The poller: one status GET per tick, round-robin over unfinished jobs
/// (the latest job when none is unfinished).
fn poll_loop(
    addr: SocketAddr,
    start: Instant,
    watch: Arc<Mutex<Watch>>,
    tx: Sender<Finished>,
) -> PollStats {
    let mut stats = PollStats::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        stats.attempted += 1;
        stats.failed += 1;
        return stats;
    };
    let mut last_queued: HashMap<u64, Instant> = HashMap::new();
    let mut rr = 0usize;
    for tick in 0u32.. {
        let due = start + POLL_EVERY * tick;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let target = {
            let w = watch.lock().expect("watch lock");
            if w.stop {
                break;
            }
            rr += 1;
            if w.outstanding.is_empty() {
                w.last_id.map(|id| (None, id))
            } else {
                let (job, id) = w.outstanding[rr % w.outstanding.len()];
                Some((Some(job), id))
            }
        };
        let Some((job, id)) = target else { continue };
        let sent = Instant::now();
        let resp = conn.request("GET", &format!("/campaigns/{id}"), b"");
        let recv = Instant::now();
        stats.attempted += 1;
        stats.lag_ms.push(lag(due, sent).as_secs_f64() * 1e3);
        stats.latency_ms.push(due_latency(due, recv).as_secs_f64() * 1e3);
        stats.rtt_us.push((recv - sent).as_secs_f64() * 1e6);
        let status = match resp {
            Ok((200, body)) => parse_json(&body),
            _ => None,
        };
        let Some(status) = status else {
            stats.failed += 1;
            continue;
        };
        let Some(job) = job else { continue };
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        if state == "queued" {
            last_queued.insert(id, sent);
        }
        if !matches!(state, "queued" | "running") {
            watch.lock().expect("watch lock").outstanding.retain(|&(j, _)| j != job);
            let finished =
                Finished { job, seen: recv, status, last_queued: last_queued.remove(&id) };
            if tx.send(finished).is_err() {
                break;
            }
        }
    }
    stats
}

/// Reports poll latency and generator lag; returns the median round trip
/// in µs.
fn report_polls(mut poll: PollStats, r: &mut Report) -> Option<f64> {
    r.attempted += poll.attempted;
    r.failed += poll.failed;
    let detail = poll.latency_ms.describe("ms");
    for (p, name) in [(50.0, "poll_latency_p50_ms"), (99.0, "poll_latency_p99_ms")] {
        match poll.latency_ms.require(p) {
            Ok(v) => r.set_detail(name, v, detail.clone()),
            Err(e) => r.check(format!("{name} sample count"), Err(e)),
        }
    }
    r.notes.push(format!("poll round trip {}", poll.rtt_us.describe("us")));
    match poll.lag_ms.require(99.0) {
        Ok(v) => {
            r.set_detail("loadgen.lag_ms_p99", v, poll.lag_ms.describe("ms"));
            r.ensure("load generator kept its schedule", v <= LAG_LIMIT_MS, || {
                format!("poll lag p99 {v} ms")
            });
        }
        Err(e) => r.check("loadgen.lag_ms_p99 sample count", Err(e)),
    }
    poll.rtt_us.median()
}

/// In-process timings of the two layers a status poll crosses before the
/// network: parsing its bytes and routing it. Returns the median handle
/// time in µs.
fn time_router_and_parser(
    server: &Server,
    ids: &[u64],
    journal_dir: &Path,
    r: &mut Report,
) -> Option<f64> {
    let id = *ids.first()?;
    let path = format!("/campaigns/{id}");
    let ctx = RouterCtx {
        store: server.store(),
        metrics: server.metrics(),
        journal_dir,
        default_threads: JOB_THREADS,
    };
    let req = Request::new("GET", &path);
    let mut handle_us = Samples::with_capacity(INPROC_SAMPLES);
    for _ in 0..INPROC_SAMPLES {
        let t = Instant::now();
        let resp = std::hint::black_box(router::handle(std::hint::black_box(&req), &ctx));
        handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert_eq!(resp.status, 200);
    }
    let bytes = request_bytes("GET", &path, b"");
    let mut parse_us = Samples::with_capacity(INPROC_SAMPLES);
    let mut parsed_ok = true;
    for _ in 0..INPROC_SAMPLES {
        let t = Instant::now();
        let mut parser = RequestParser::new(Limits::default());
        parser.feed(std::hint::black_box(&bytes));
        let got = parser.try_next();
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        parsed_ok &= matches!(got, Ok(Some(ref q)) if q.target == path);
    }
    r.ensure("recorded poll bytes parse back to the poll", parsed_ok, || "parser disagreed".into());
    r.set_detail(
        "server.parse_us_p50",
        parse_us.median().expect("sampled"),
        parse_us.describe("us"),
    );
    let handle = handle_us.median().expect("sampled");
    r.set_detail("server.router_handle_us_p50", handle, handle_us.describe("us"));
    Some(handle)
}

fn parse_json(body: &[u8]) -> Option<Json> {
    parse(std::str::from_utf8(body).ok()?).ok()
}

/// Value of an unlabelled sample in a Prometheus exposition.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Every done unit of a `/results` body: `(arm, seed, slots_run, counters)`.
fn results_units(body: &[u8]) -> Result<Vec<(u64, u64, u64, Counters)>, String> {
    let json = parse_json(body).ok_or("results body is not JSON")?;
    let arms = json.get("arms").and_then(Json::as_arr).ok_or("no arms")?;
    let mut out = Vec::new();
    for (a, arm) in arms.iter().enumerate() {
        for t in arm.get("trials").and_then(Json::as_arr).ok_or("no trials")? {
            let trial = t.get("trial").ok_or("unit not done")?;
            let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
            let c = trial.get("counters").ok_or("no counters")?;
            let counters = Counters {
                slots: num(c, "slots")?,
                broadcasts: num(c, "broadcasts")?,
                listens: num(c, "listens")?,
                sleeps: num(c, "sleeps")?,
                deliveries: num(c, "deliveries")?,
                collisions: num(c, "collisions")?,
                idle_listens: num(c, "idle_listens")?,
                pu_blocked_listens: num(c, "pu_blocked_listens")?,
                pu_blocked_broadcasts: num(c, "pu_blocked_broadcasts")?,
                pu_busy_channel_slots: num(c, "pu_busy_channel_slots")?,
            };
            out.push((a as u64, num(trial, "seed")?, num(trial, "slots_run")?, counters));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_reads_unlabelled_samples_only() {
        let text =
            "# HELP x\ncrn_queue_depth 3\ncrn_jobs{state=\"queued\"} 9\ncrn_queue_depth_max 7\n";
        assert_eq!(scrape(text, "crn_queue_depth"), 3.0);
        assert_eq!(scrape(text, "crn_missing"), 0.0);
    }
}
