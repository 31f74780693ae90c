//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in the benchmark, not in the program: each one brackets a
//! public call (`Server` over HTTP, `run_e12_observed`, `Engine::step`, …)
//! or an interval the benchmark derives from what those calls return. A
//! span's self time is its duration minus what its children cover, so the
//! ledger of a root span — children plus self — adds up to its wall-clock
//! by construction, and the self time is the unaccounted remainder.
//!
//! A disabled tracer records nothing; untraced runs carry one so the
//! workload code is the same in both modes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval; `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span { name, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union its direct
    /// children cover (children may overlap; the union is counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let covered = children.get_mut(&i).map_or(0, |c| union_within(c, s));
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `outer`.
fn union_within(intervals: &mut [(u64, u64)], outer: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = outer.start_ns;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(outer.end_ns));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_child_union() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("job", None, at(0), at(100));
        t.record("a", root, at(10), at(40));
        t.record("b", root, at(30), at(50)); // overlaps a by 10 ms
        t.record("c", root, at(90), at(120)); // runs past the root's end
        let selfs = t.self_times();
        assert_eq!(selfs[0], 100_000_000 - 40_000_000 - 10_000_000);
        assert_eq!(selfs[1], 30_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", None, now, now), None);
        assert!(t.spans().is_empty());
    }
}
