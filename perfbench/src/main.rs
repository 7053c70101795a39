//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --daemon <path to lll-serve> [--spans <path>]
//! ```
//!
//! Prints one line per metric, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds this binary and the daemon and calls it;
//! see `perfbench/README.md`.

mod check;
mod client;
mod exact;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::{self, Workload};

/// Canary digests pinned at the default seed, one `workload digest`
/// pair per line.
const PINNED: &str = include_str!("../pinned-digests.txt");

/// Run settings.
pub struct Config {
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    daemon_flags: Vec<String>,
    spans: PathBuf,
    threads: usize,
}

/// End-to-end figures, all taken on the client side.
#[derive(Debug, Default, Clone)]
pub struct E2e {
    setup_s: f64,
    ops_per_s: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    peak_rss_mb: f64,
    samples: usize,
}

/// Per-layer figures of a traced run, per op (µs, counts, bytes).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    engine_us: f64,
    engine_p50_us: f64,
    parse_us: f64,
    dimacs_us: f64,
    build_us: f64,
    postcheck_us: f64,
    cache_us: f64,
    cache_hit_ratio: f64,
    schedule_us: f64,
    coloring_rounds: f64,
    sweep_us: f64,
    sweep_steps: f64,
    sweep_classes: f64,
    sweep_rounds: f64,
    audit_us: f64,
    tier_promotes: f64,
    tier_demotes: f64,
    exact_extra_us: f64,
    record_us: f64,
    stream_bytes: f64,
    encode_us: f64,
    response_bytes: f64,
    transport_us: f64,
    residual_frac: f64,
    overhead_frac: f64,
    lag_p99_ms: f64,
}

/// What a run did and found.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    invalid: Vec<String>,
    notes: Vec<String>,
    fatal: bool,
    e2e: E2e,
    layers: Layers,
}

impl Outcome {
    /// Records one failed op.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Marks the run invalid (not slow): its figures must not be used.
    fn invalid(&mut self, why: String) {
        self.invalid.push(why);
    }

    /// Ends a run that could not start.
    fn fatal(mut self, why: String) -> Outcome {
        self.problems.push(why);
        self.fatal = true;
        self
    }

    fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// Compares a canary digest with the pinned one; a mismatch fails
    /// all `ops` canary ops.
    fn check_digest(&mut self, w: Workload, digest: &str, ops: u64) {
        let pinned = PINNED
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some(w.name()))
                    .then(|| parts.next())
                    .flatten()
            });
        if pinned != Some(digest) {
            self.failed += ops;
            self.problems.push(format!(
                "canary digest {digest} != pinned {}",
                pinned.unwrap_or("(none)")
            ));
        }
    }
}

/// (name, value, unit) of every end-to-end metric, in `BENCHMARK.json`
/// order.
fn end_to_end(e: &E2e) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", e.setup_s, "s"),
        ("ops_per_s", e.ops_per_s, "1/s"),
        ("peak_rss_mb", e.peak_rss_mb, "MiB"),
    ]
}

/// (name, value, unit) of every per-layer metric, in `BENCHMARK.json`
/// order. A layer a workload never calls reads 0.
fn per_layer(l: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("engine.us", l.engine_us, "us"),
        ("serve.parse_us", l.parse_us, "us"),
        ("sat.dimacs_us", l.dimacs_us, "us"),
        ("instance.build_us", l.build_us, "us"),
        ("instance.postcheck_us", l.postcheck_us, "us"),
        ("cache.us", l.cache_us, "us"),
        ("cache.hit_ratio", l.cache_hit_ratio, "ratio"),
        ("schedule.us", l.schedule_us, "us"),
        ("schedule.coloring_rounds", l.coloring_rounds, "count"),
        ("sweep.us", l.sweep_us, "us"),
        ("sweep.steps", l.sweep_steps, "count"),
        ("sweep.classes", l.sweep_classes, "count"),
        ("sweep.rounds", l.sweep_rounds, "count"),
        ("audit.us", l.audit_us, "us"),
        ("numeric.tier_promotes", l.tier_promotes, "count"),
        ("numeric.tier_demotes", l.tier_demotes, "count"),
        ("numeric.exact_extra_us", l.exact_extra_us, "us"),
        ("obs.record_us", l.record_us, "us"),
        ("obs.stream_bytes", l.stream_bytes, "bytes"),
        ("response.encode_us", l.encode_us, "us"),
        ("response.bytes", l.response_bytes, "bytes"),
        ("server.transport_us", l.transport_us, "us"),
        ("engine.residual_frac", l.residual_frac, "frac"),
        ("trace.overhead_frac", l.overhead_frac, "frac"),
        ("loadgen.lag_p99_ms", l.lag_p99_ms, "ms"),
    ]
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --daemon <lll-serve binary> [--spans <path>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(Workload, Config)> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cfg = Config {
        seed: gen::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        daemon: PathBuf::new(),
        daemon_flags: vec!["--threads".to_owned(), threads.to_string()],
        spans: PathBuf::new(),
        threads,
    };
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value)?),
            "--seed" => cfg.seed = value.parse().ok()?,
            "--seconds" => cfg.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => cfg.trace = matches!(value.as_str(), "1"),
            "--daemon" => cfg.daemon = PathBuf::from(value),
            "--spans" => cfg.spans = PathBuf::from(value),
            _ => return None,
        }
    }
    let workload = workload?;
    if cfg.spans.as_os_str().is_empty() {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        cfg.spans = PathBuf::from(target).join("perfbench-spans").join(format!(
            "{}-{}.jsonl",
            workload.name(),
            cfg.seed
        ));
    }
    Some((workload, cfg))
}

/// Output of a provenance command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let Some((workload, cfg)) = parse_args() else {
        return usage();
    };
    if workload != Workload::AuditedExact && !cfg.daemon.is_file() {
        eprintln!(
            "perfbench: daemon binary {} not found",
            cfg.daemon.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "provenance {{\"git\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"workload\":\"{}\",\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"daemon_flags\":\"{}\"}}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["--version"]),
        cfg.threads,
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.daemon_flags.join(" ")
    );

    let out = match workload {
        Workload::AuditedExact => exact::run(&cfg),
        w => serve::run(w, &cfg),
    };
    for p in out.problems.iter().take(20) {
        eprintln!("problem: {p}");
    }
    if out.fatal {
        return ExitCode::FAILURE;
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    for i in &out.invalid {
        println!("INVALID RUN: {i}");
    }
    let e = &out.e2e;
    for (name, value, unit) in end_to_end(e) {
        println!("{name:<26} {value:>14.4} {unit}");
    }
    println!("{:<26} {:>14.4} ms", "latency_p50_ms", e.latency_p50_ms);
    println!("{:<26} {:>14.4} ms", "latency_p90_ms", e.latency_p90_ms);
    if matches!(workload, Workload::ServeWarm | Workload::ServeCold) {
        println!("{:<26} {:>14.4} ms", "latency_p99_ms", e.latency_p99_ms);
    }
    println!("{:<26} {:>14} samples", "latency samples", e.samples);
    println!(
        "{:<26} {:>14.6} ({} failed / {} attempted)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if cfg.trace {
        for (name, value, unit) in per_layer(&out.layers) {
            println!("{name:<26} {value:>14.4} {unit}");
        }
    }

    let metrics = if cfg.trace {
        per_layer(&out.layers)
    } else {
        end_to_end(e)
    };
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let correct = out.failed == 0 && out.invalid.is_empty() && finite && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
