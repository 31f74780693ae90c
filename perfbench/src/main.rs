//! The repository benchmark: three workloads that drive the simulator
//! end to end through its public functions, each timed per layer from
//! outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload service_e2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! * `service_e2` — open-loop E2 jobs against an in-process campaign
//!   server over loopback HTTP (http, router, store, scheduler, journal).
//! * `e12_campaign` — the E12 quick campaign in process: the paper's
//!   CSEEK/CGCAST/COUNT under Markov primary-user churn, where the
//!   engine's fixed per-slot cost and phase 0 dominate.
//! * `huge_cseek_1e6` — a 10⁶-node sparse network: generation, engine
//!   construction and a memory-bound slot loop.
//!
//! Standard output carries a readable summary of every metric and check,
//! then one JSON line: `--trace 0` reports the end-to-end metrics,
//! `--trace 1` re-runs the workload with spans and the engine's phase
//! timers on and reports the per-layer metrics. The run exits non-zero
//! when any output check fails.

mod e12;
mod http;
mod huge;
mod report;
mod service;
mod slots;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// The seed whose outputs have stored digests.
pub const DEFAULT_SEED: u64 = 1;

/// Where runs keep their working files (journals, span dumps), relative to the
/// working directory, which is the root of the checkout.
const RUN_DIR: &str = ".bench_tmp";

const WORKLOADS: &[&str] = &["service_e2", "e12_campaign", "huge_cseek_1e6"];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// SplitMix64 of `a` and `b`: the benchmark's input derivation.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` when one more iteration, at the mean length of those so far,
/// ends within `seconds` of `window`.
pub fn fits(window: Instant, done: usize, seconds: f64) -> bool {
    let spent = window.elapsed().as_secs_f64();
    spent + spent / done.max(1) as f64 <= seconds
}

/// A working directory under [`RUN_DIR`], removed when dropped —
/// including while a panic unwinds — so no run sees another's journals.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(RUN_DIR).join(format!("{tag}-{}-{nanos}", std::process::id()));
        if path.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "run directory exists",
            ));
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let mut tracer = Tracer::new(args.trace);
    let mut r = Report::default();
    let wall = std::time::Instant::now();
    match args.workload.as_str() {
        "service_e2" => service::run(&args, &mut tracer, &mut r),
        "e12_campaign" => e12::run(&args, &mut tracer, &mut r),
        "huge_cseek_1e6" => huge::run(&args, &mut tracer, &mut r),
        _ => unreachable!("validated in parse_args"),
    }
    match peak_rss_mib() {
        Some(v) => r.set("peak_rss_mib", v),
        None => r.check("peak RSS readable", Err("no VmHWM in /proc/self/status".into())),
    }
    if tracer.enabled() {
        let path =
            Path::new(RUN_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => r.notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => r.notes.push(format!("spans not written: {e}")),
        }
        let selfs = tracer.self_times();
        let mut by_name = std::collections::BTreeMap::<&str, (u64, u64)>::new();
        for (s, own) in tracer.spans().iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        for (name, (count, own)) in by_name {
            r.notes.push(format!(
                "span {name}: {count} spans, self time {:.3} ms total",
                own as f64 * 1e-6
            ));
        }
    }

    let header = format!(
        "workload={} seed={} seconds={} trace={} wall_s={:.3} parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wall.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    print!("{}", r.summary(&header));
    match r.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if r.all_checks_pass() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload huge_cseek_1e6 --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args { workload: "huge_cseek_1e6".into(), seed: 7, seconds: 12.0, trace: true }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload service_e2 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload service_e2 --seed")).is_err());
        assert!(parse_args(&argv("--workload service_e2 --seconds 0")).is_err());
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
    }

    #[test]
    fn run_dir_is_removed_on_drop_and_on_panic() {
        let kept = TempDir::new("unit").unwrap();
        let path = kept.path().to_path_buf();
        std::fs::write(path.join("j.crnj"), b"x").unwrap();
        drop(kept);
        assert!(!path.exists());
        let path = std::panic::catch_unwind(|| {
            let d = TempDir::new("unit-panic").unwrap();
            let p = d.path().to_path_buf();
            std::panic::panic_any(p);
        })
        .unwrap_err()
        .downcast::<PathBuf>()
        .unwrap();
        assert!(!path.exists());
    }
}
