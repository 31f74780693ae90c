//! Stepping an engine from outside: host time per `Engine::step`, the
//! engine's own opt-in phase counters, and the slot-level report fields
//! every workload shares.

use std::time::Instant;

use crn_sim::{Counters, Engine, PhaseTimings, Protocol};

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};

/// What a stepped run measured.
#[derive(Debug, Default)]
pub struct SlotLog {
    pub step_ms: Samples,
    pub wall_ns: u64,
    pub slots: u64,
    pub phases: PhaseTimings,
}

impl SlotLog {
    /// Folds another run's measurements in.
    pub fn absorb(&mut self, other: SlotLog) {
        let SlotLog { step_ms, wall_ns, slots, phases: p } = other;
        for v in step_ms.into_values() {
            self.step_ms.push(v);
        }
        self.wall_ns += wall_ns;
        self.slots += slots;
        let q = &mut self.phases;
        q.slots += p.slots;
        q.spectrum_ns += p.spectrum_ns;
        q.collect_sequential_ns += p.collect_sequential_ns;
        q.collect_pooled_ns += p.collect_pooled_ns;
        q.collect_pooled_slots += p.collect_pooled_slots;
        q.resolve_sequential_ns += p.resolve_sequential_ns;
        q.resolve_sharded_ns += p.resolve_sharded_ns;
        q.resolve_sharded_slots += p.resolve_sharded_slots;
        q.deliver_sequential_ns += p.deliver_sequential_ns;
        q.deliver_pooled_ns += p.deliver_pooled_ns;
        q.deliver_pooled_slots += p.deliver_pooled_slots;
    }

    /// `slot_ms_p50`/`p90` and, where a slot is the workload's job, the
    /// job latency.
    pub fn report_slots(&mut self, r: &mut Report, slot_is_job: bool) {
        let detail = self.step_ms.describe("ms");
        for (p, slot_name, job_name) in [
            (50.0, "slot_ms_p50", "job_latency_p50_ms"),
            (90.0, "slot_ms_p90", "job_latency_p90_ms"),
        ] {
            match self.step_ms.require(p) {
                Ok(v) => {
                    r.set_detail(slot_name, v, detail.clone());
                    if slot_is_job {
                        r.set_detail(job_name, v, format!("one Engine::step; {detail}"));
                    }
                }
                Err(why) => r.check(format!("{slot_name} sample count"), Err(why)),
            }
        }
    }

    /// The per-slot phase split, when the engine timed its phases. The
    /// remainder is the stepped wall time the four phases do not cover.
    pub fn report_phases(&self, r: &mut Report) {
        let p = self.phases;
        if p.slots > 0 {
            let per = |ns: u64| ns as f64 / p.slots as f64;
            r.set("engine.spectrum_ns_per_slot", per(p.spectrum_ns));
            r.set("engine.collect_ns_per_slot", per(p.collect_ns()));
            r.set("engine.resolve_ns_per_slot", per(p.resolve_ns()));
            r.set("engine.deliver_ns_per_slot", per(p.deliver_ns()));
            let rest = self.wall_ns as f64 - p.total_ns() as f64;
            r.set("engine.unaccounted_ns_per_slot", rest / p.slots as f64);
        }
    }
}

/// Steps `eng` for `slots` slots, timing each step. With `phases` the
/// engine's phase timers run too (they are observationally invisible, but
/// they cost a few clock reads per slot, so untraced runs leave them off).
/// One span per stepped run, not per slot: a span per slot would cost
/// more than the slots of the small workloads.
pub fn step_timed<P>(
    eng: &mut Engine<'_, P>,
    slots: u64,
    phases: bool,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> SlotLog
where
    P: Protocol + Send,
    P::Message: Send + Sync,
{
    eng.set_phase_timing(phases);
    let mut log =
        SlotLog { step_ms: Samples::with_capacity(slots as usize), slots, ..SlotLog::default() };
    let begin = Instant::now();
    let mut last = begin;
    for _ in 0..slots {
        eng.step();
        let now = Instant::now();
        let d = now - last;
        log.wall_ns += d.as_nanos() as u64;
        log.step_ms.push(d.as_secs_f64() * 1e3);
        last = now;
    }
    tracer.record("engine.steps", parent, begin, last);
    if phases {
        log.phases = eng.phase_timings().expect("phase timing was enabled");
        eng.set_phase_timing(false);
    }
    log
}

/// Counter identities that hold for any correct run of `slots` slots on
/// `n` nodes: one action per node per slot, one outcome per listen, and
/// PU losses within the loss counters.
pub fn counter_invariants(c: &Counters, n: u64, slots: u64) -> Result<(), String> {
    let mut errs = Vec::new();
    if c.slots != slots {
        errs.push(format!("slots {} != {slots}", c.slots));
    }
    if c.broadcasts + c.listens + c.sleeps != n * slots {
        errs.push(format!(
            "actions {}+{}+{} != n·slots {}",
            c.broadcasts,
            c.listens,
            c.sleeps,
            n * slots
        ));
    }
    if c.deliveries + c.collisions + c.idle_listens != c.listens {
        errs.push(format!(
            "outcomes {}+{}+{} != listens {}",
            c.deliveries, c.collisions, c.idle_listens, c.listens
        ));
    }
    if c.pu_blocked_listens > c.collisions || c.pu_blocked_broadcasts > c.broadcasts {
        errs.push("PU losses exceed the loss counters".to_string());
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

/// Sets the exact slot-outcome counts from summed counters.
pub fn report_counts(r: &mut Report, node_slots: u64, c: &Counters) {
    r.set("engine.node_slots", node_slots as f64);
    r.set("engine.deliveries_per_slot", c.deliveries as f64 / c.slots.max(1) as f64);
    r.set("engine.delivery_ratio", c.deliveries as f64 / c.listens.max(1) as f64);
    r.set("engine.pu_blocked_listens", c.pu_blocked_listens as f64);
}

/// Sums counters field by field.
pub fn add_counters(acc: &mut Counters, c: &Counters) {
    acc.slots += c.slots;
    acc.broadcasts += c.broadcasts;
    acc.listens += c.listens;
    acc.sleeps += c.sleeps;
    acc.deliveries += c.deliveries;
    acc.collisions += c.collisions;
    acc.idle_listens += c.idle_listens;
    acc.pu_blocked_listens += c.pu_blocked_listens;
    acc.pu_blocked_broadcasts += c.pu_blocked_broadcasts;
    acc.pu_busy_channel_slots += c.pu_busy_channel_slots;
}

/// FNV-1a over `text`: the digest stored for the default seed.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Canonical text of a counter set, the digest's input.
pub fn counters_text(c: &Counters) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {}",
        c.slots,
        c.broadcasts,
        c.listens,
        c.sleeps,
        c.deliveries,
        c.collisions,
        c.idle_listens,
        c.pu_blocked_listens,
        c.pu_blocked_broadcasts,
        c.pu_busy_channel_slots
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_catch_a_lost_action() {
        let good = Counters {
            slots: 2,
            broadcasts: 1,
            listens: 2,
            sleeps: 1,
            deliveries: 1,
            collisions: 1,
            ..Counters::default()
        };
        assert_eq!(counter_invariants(&good, 2, 2), Ok(()));
        let bad = Counters { sleeps: 0, ..good };
        assert!(counter_invariants(&bad, 2, 2).is_err());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
