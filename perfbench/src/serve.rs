//! The three `lll-serve` workloads: set-up, phase A (pipelined
//! throughput), phase B (open-loop latency), the pinned canary, output
//! checks and, when traced, the in-process layer replay.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lll_apps::sat::CnfFormula;
use lll_core::dist::{
    distributed_fixer2_scheduled, distributed_fixer2_scheduled_traced,
    distributed_fixer3_scheduled, distributed_fixer3_scheduled_traced, CriterionCheck, DistReport,
    Schedule, ScheduleKind,
};
use lll_core::Instance;
use lll_obs::{JsonlRecorder, NullTiming};
use lll_serve::{
    Engine, EngineConfig, OkResponse, Payload as WirePayload, Request, Response, TopologyCache,
};

use crate::check;
use crate::client::{Answer, Daemon, PhaseResult};
use crate::stats::{median, peak_rss_mb, quantile, Digest};
use crate::trace::{span_cost_ns, Tracer};
use crate::{Config, Layers, Outcome};
use perfbench::gen::{op, Stream, Workload, DEFAULT_SEED};
use perfbench::rng::{derive, Rng};

/// Daemons started to time set-up; the last one serves the run.
const SETUPS: usize = 15;
/// Requests in the pinned canary stream.
const CANARY_OPS: u64 = 12;
/// Slices a run alternates phases A and B in.
const SLICES: usize = 4;
/// Op indices reserved per slice (half for each phase); far more than a
/// slice can send.
const SLICE_OPS: u64 = 1 << 32;
/// Share of a slice spent in phase A; phase B takes the rest.
const PHASE_A_SHARE: f64 = 0.3;
/// Requests phase A keeps in flight: two full daemon batches.
const PIPELINE_WINDOW: usize = 32;
/// A run whose writer started writes this late (p99) is invalid.
const LAG_LIMIT_MS: f64 = 50.0;

/// Share of `--seconds` the traced run spends replaying ops in process.
pub const REPLAY_SHARE: f64 = 0.25;

/// Phase B's offered load, as a share of the throughput phase A just
/// measured: tying the rate to the host's current speed keeps queueing
/// at the same utilization whatever the host does.
const UTILIZATION: f64 = 0.65;

/// Runs one serve workload.
pub fn run(w: Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let seed = cfg.seed;
    let deadline = Duration::from_secs_f64(cfg.seconds + 60.0);

    // Set-up: daemon spawn to the response of the set-up request.
    let setup_line = op(w, seed, Stream::Setup, 0).line();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let mut d = match Daemon::spawn(&cfg.daemon, &cfg.daemon_flags) {
            Ok(d) => d,
            Err(e) => return out.fatal(format!("cannot start {}: {e}", cfg.daemon.display())),
        };
        let response = d.request(&setup_line);
        setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if let Err(e) = check::verify(&op(w, seed, Stream::Setup, 0), response.as_deref().ok()) {
            out.fail(format!("set-up request: {e}"));
        }
        if k + 1 < SETUPS {
            if let Err(e) = d.shutdown(Duration::from_secs(10)) {
                out.fail(format!("set-up daemon: {e}"));
            }
        } else {
            daemon = Some(d);
        }
    }
    let mut d = daemon.expect("SETUPS > 0");
    let line = |i: u64| op(w, seed, Stream::Timed, i).line();

    // Phases A and B alternate in slices, so both see the same host
    // conditions; each figure pools its phase's slices.
    let slice = cfg.seconds / SLICES as f64;
    let a_len = Duration::from_secs_f64(slice * PHASE_A_SHARE);
    let b_len = Duration::from_secs_f64(slice * (1.0 - PHASE_A_SHARE));
    let mut arrivals = Rng::new(derive(seed, 0xa771, 0));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut rates = Vec::new();
    for k in 0..SLICES as u64 {
        // Each phase of each slice starts at a fixed op index, so every
        // run sends the same size and kind sequence whatever its speed.
        let r = d.pipelined(k * SLICE_OPS, a_len, PIPELINE_WINDOW, &line, deadline);
        let rate = UTILIZATION * r.answers.len() as f64 / r.wall_s;
        a.push(r);
        if rate <= 0.0 {
            out.fail("phase A got no responses".to_owned());
            continue;
        }
        rates.push(rate);
        // Poisson arrivals; the slice's requests are generated before it
        // starts, so the writer only sleeps and writes.
        let mut offsets = Vec::new();
        let mut at = Duration::ZERO;
        loop {
            at += Duration::from_secs_f64(-(1.0 - arrivals.unit()).ln() / rate);
            if at >= b_len {
                break;
            }
            offsets.push(at);
        }
        let first = k * SLICE_OPS + SLICE_OPS / 2;
        let lines = (first..first + offsets.len() as u64)
            .map(|i| (i, line(i)))
            .collect();
        b.push(d.open_loop(lines, &offsets, deadline));
    }

    // The canary: fixed-seed requests whose response bytes are pinned.
    let mut digest = Digest::new();
    for i in 0..CANARY_OPS {
        let o = op(w, DEFAULT_SEED, Stream::Canary, i);
        out.attempted += 1;
        match d.request(&o.line()) {
            Ok(r) => {
                if let Err(e) = check::verify(&o, Some(&r)) {
                    out.fail(format!("canary {i}: {e}"));
                }
                digest.line(r.as_bytes());
            }
            Err(e) => out.fail(format!("canary {i}: {e}")),
        }
    }
    out.check_digest(w, &digest.hex(), CANARY_OPS);

    let rss = peak_rss_mb(d.pid());
    if let Err(e) = d.shutdown(Duration::from_secs(10)) {
        out.fail(format!("daemon: {e}"));
    }

    // Every timed response, checked against its rebuilt instance.
    let answers: Vec<&Answer> = a.iter().chain(&b).flat_map(|r| &r.answers).collect();
    out.attempted += answers.len() as u64;
    let t = Instant::now();
    for problem in verify_all(w, seed, &answers, cfg.threads) {
        out.fail(problem);
    }
    out.note(format!(
        "checked {} responses in {:.2} s",
        answers.len(),
        t.elapsed().as_secs_f64()
    ));

    let ok = |r: &PhaseResult| {
        r.answers
            .iter()
            .filter(|x| {
                x.line
                    .as_deref()
                    .is_some_and(|l| l.contains("\"status\":\"ok\""))
            })
            .count() as f64
    };
    let latency_ms = |r: &PhaseResult| -> Vec<f64> {
        r.answers
            .iter()
            .filter(|x| x.line.is_some())
            .map(|x| x.latency_s * 1e3)
            .collect()
    };
    let all_latency: Vec<f64> = b.iter().flat_map(latency_ms).collect();
    let lag_ms: Vec<f64> = b
        .iter()
        .flat_map(|r| &r.answers)
        .map(|x| x.lag_s * 1e3)
        .collect();
    let lag_p99 = quantile(&lag_ms, 0.99);
    if lag_p99.is_nan() || lag_p99 > LAG_LIMIT_MS {
        out.invalid(format!(
            "load generator fell behind: writer lag p99 {lag_p99:.3} ms > {LAG_LIMIT_MS} ms"
        ));
    }
    out.e2e.setup_s = median(&setup_s);
    out.e2e.ops_per_s = a.iter().map(ok).sum::<f64>() / a.iter().map(|r| r.wall_s).sum::<f64>();
    out.e2e.latency_p50_ms = quantile(&all_latency, 0.5);
    out.e2e.latency_p90_ms = quantile(&all_latency, 0.9);
    out.e2e.latency_p99_ms = quantile(&all_latency, 0.99);
    out.e2e.peak_rss_mb = rss.unwrap_or(f64::NAN);
    out.e2e.samples = all_latency.len();
    let count = |phase: &[PhaseResult]| phase.iter().map(|r| r.answers.len()).sum::<usize>();
    out.note(format!(
        "{SLICES} slices; phase A: {} requests; phase B: {} requests at {:.1} /s (median)",
        count(&a),
        count(&b),
        median(&rates)
    ));

    if cfg.trace {
        let daemon_lines: HashMap<u64, &str> = answers
            .iter()
            .filter_map(|x| Some((x.index, x.line.as_deref()?)))
            .collect();
        let budget = Duration::from_secs_f64(cfg.seconds * REPLAY_SHARE);
        let ops = answers.len() as u64;
        let mut layers = replay(w, seed, ops, budget, &daemon_lines, &mut out, cfg);
        layers.lag_p99_ms = lag_p99;
        layers.transport_us = out.e2e.latency_p50_ms * 1e3 - layers.engine_p50_us;
        out.layers = layers;
    }
    out
}

/// Checks every answer on `threads` threads; returns the problems.
fn verify_all(w: Workload, seed: u64, answers: &[&Answer], threads: usize) -> Vec<String> {
    let chunk = answers.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = answers
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|x| {
                            let o = op(w, seed, Stream::Timed, x.index);
                            check::verify(&o, x.line.as_deref())
                                .err()
                                .map(|e| format!("op {}: {e}", x.index))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}

/// Replay state shared across ops.
struct Ctx<'a> {
    cache: &'a TopologyCache,
    /// `schema=… engine=…` prefix of the engine's provenance line.
    engine_tag: &'a str,
    misses: u64,
    coloring_rounds: u64,
}

/// What one replayed op computed.
struct Replayed {
    json: String,
    report: DistReport,
    inst: Instance<f64>,
    schedule: Arc<Schedule>,
    id: String,
}

/// Replays timed ops from 0 in process, in the engine's own call order
/// with a span around each layer call, and times `Engine::solve_line`
/// plus `Response::to_json` on the same op in the same run (engine and
/// replay alternate which goes first). Stops after `budget`.
fn replay(
    w: Workload,
    seed: u64,
    ops: u64,
    budget: Duration,
    daemon_lines: &HashMap<u64, &str>,
    out: &mut Outcome,
    cfg: &Config,
) -> Layers {
    let engine = Engine::new(EngineConfig::default());
    let cache = TopologyCache::new();
    let setup = op(w, seed, Stream::Setup, 0).line();
    let setup_json = engine.solve_line(&setup).to_json();
    let engine_tag = check::field(&setup_json, "provenance")
        .and_then(|p| p.split(" fixer=").next())
        .unwrap_or_default()
        .to_owned();
    let mut ctx = Ctx {
        cache: &cache,
        engine_tag: &engine_tag,
        misses: 0,
        coloring_rounds: 0,
    };
    if let Err(e) = replay_op(&setup, &mut ctx, &mut Tracer::new()) {
        out.fail(format!("set-up replay: {e}"));
    }
    ctx.misses = 0;
    ctx.coloring_rounds = 0;

    let mut tracer = Tracer::new();
    let mut engine_us = Vec::new();
    let (mut steps, mut classes, mut rounds, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut record_ns, mut stream_bytes) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while i < ops && (i == 0 || start.elapsed() < budget) {
        let line = op(w, seed, Stream::Timed, i).line();
        let run_engine = || {
            let t = Instant::now();
            let json = engine.solve_line(&line).to_json();
            (json, t.elapsed())
        };
        let (json, took, replayed) = if i % 2 == 0 {
            let (json, took) = run_engine();
            (
                json,
                took,
                tracer.op(i, "op", |t| replay_op(&line, &mut ctx, t)),
            )
        } else {
            let r = tracer.op(i, "op", |t| replay_op(&line, &mut ctx, t));
            let (json, took) = run_engine();
            (json, took, r)
        };
        engine_us.push(took.as_secs_f64() * 1e6);
        if daemon_lines.get(&i).is_some_and(|d| *d != json) {
            out.fail(format!(
                "op {i}: daemon response differs from the in-process engine"
            ));
        }
        let r = match replayed {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("op {i}: replay failed: {e}"));
                i += 1;
                continue;
            }
        };
        let same = check::assignment(&json).as_deref() == Some(r.report.fix.assignment())
            && check::int_field(&json, "steps") == Some(r.report.fix.num_steps() as u64)
            && check::int_field(&json, "rounds") == Some(r.report.rounds as u64)
            && r.json == json;
        if !same {
            out.fail(format!("op {i}: replay differs from Engine::solve_line"));
        }
        steps += r.report.fix.num_steps() as u64;
        classes += r.report.num_classes as u64;
        rounds += r.report.rounds as u64;
        bytes += json.len() as u64;
        // The obs layer: the same sweep again, recorded into memory.
        let t = Instant::now();
        let mut rec = JsonlRecorder::with_request(Vec::new(), r.id.clone());
        let recorded = match r.schedule.kind() {
            ScheduleKind::Edge => distributed_fixer2_scheduled_traced(
                &r.inst,
                &r.schedule,
                CriterionCheck::Enforce,
                1,
                &mut rec,
                &mut NullTiming,
            ),
            ScheduleKind::Distance2 => distributed_fixer3_scheduled_traced(
                &r.inst,
                &r.schedule,
                CriterionCheck::Enforce,
                1,
                &mut rec,
                &mut NullTiming,
            ),
        };
        let took = t.elapsed().as_nanos() as u64;
        match (recorded, rec.finish()) {
            (Ok(rep), Ok(stream)) if rep.fix.assignment() == r.report.fix.assignment() => {
                stream_bytes += stream.len() as u64;
                record_ns += took;
            }
            _ => out.fail(format!("op {i}: recorded sweep differs")),
        }
        i += 1;
    }

    let n = tracer.ops() as f64;
    let selfs = tracer.self_times();
    let per_op = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    let engine_mean = engine_us.iter().sum::<f64>() / n;
    let layer_sum: f64 = LAYERS.iter().map(|l| per_op(l)).sum();
    let sweep_us = per_op("sweep");
    match tracer.write_jsonl(&cfg.spans) {
        Ok(()) => out.note(format!(
            "traced replay: {} ops, {} spans written to {}",
            tracer.ops(),
            tracer.len(),
            cfg.spans.display()
        )),
        Err(e) => out.fail(format!("spans not written: {e}")),
    }
    Layers {
        engine_us: engine_mean,
        engine_p50_us: median(&engine_us),
        parse_us: per_op("serve.request"),
        dimacs_us: per_op("sat"),
        build_us: per_op("instance.build"),
        cache_us: per_op("cache"),
        cache_hit_ratio: 1.0 - ctx.misses as f64 / n,
        schedule_us: per_op("schedule"),
        coloring_rounds: ctx.coloring_rounds as f64 / n,
        sweep_us,
        sweep_steps: steps as f64 / n,
        sweep_classes: classes as f64 / n,
        sweep_rounds: rounds as f64 / n,
        postcheck_us: per_op("instance.postcheck"),
        encode_us: per_op("response.encode"),
        response_bytes: bytes as f64 / n,
        record_us: record_ns as f64 / n / 1e3 - sweep_us,
        stream_bytes: stream_bytes as f64 / n,
        residual_frac: (engine_mean - layer_sum) / engine_mean,
        overhead_frac: span_cost_ns() * (tracer.len() as f64 / n) / (engine_mean * 1e3),
        ..Layers::default()
    }
}

/// The layer spans of a serve op; everything else in the engine is the
/// residual.
const LAYERS: [&str; 8] = [
    "serve.request",
    "sat",
    "instance.build",
    "cache",
    "schedule",
    "sweep",
    "instance.postcheck",
    "response.encode",
];

/// One op through the engine's layers, each call in its own span.
fn replay_op(line: &str, ctx: &mut Ctx<'_>, t: &mut Tracer) -> Result<Replayed, String> {
    let req = match t.span("serve.request", |_| Request::parse(line)) {
        Ok(Request::Solve(req)) => req,
        other => return Err(format!("not a solve request: {other:?}")),
    };
    let inst = match &req.payload {
        WirePayload::Dimacs(text) => {
            let cnf = t
                .span("sat", |_| text.parse::<CnfFormula>())
                .map_err(|e| e.to_string())?;
            t.span("instance.build", |_| cnf.to_instance::<f64>())
                .map_err(|e| e.to_string())?
        }
        WirePayload::Instance(ji) => t
            .span("instance.build", |_| ji.build_instance())
            .map_err(|e| e.to_string())?,
    };
    let g = inst.dependency_graph();
    let seed = req
        .schedule_seed
        .unwrap_or(EngineConfig::default().default_seed);
    let kind = if inst.max_rank() <= 2 {
        ScheduleKind::Edge
    } else {
        ScheduleKind::Distance2
    };
    let Ctx {
        cache,
        engine_tag,
        misses,
        coloring_rounds,
    } = ctx;
    let schedule = t
        .span("cache", |t| {
            cache.get_or_compute(g, seed, kind, || {
                *misses += 1;
                let s = t.span("schedule", |_| match kind {
                    ScheduleKind::Edge => Schedule::edge(g, seed, 1),
                    ScheduleKind::Distance2 => Schedule::distance2(g, seed, 1),
                });
                if let Ok(s) = &s {
                    *coloring_rounds += s.coloring_rounds() as u64;
                }
                s
            })
        })
        .map_err(|e| e.to_string())?;
    let report = t
        .span("sweep", |_| match kind {
            ScheduleKind::Edge => {
                distributed_fixer2_scheduled(&inst, &schedule, CriterionCheck::Enforce, 1)
            }
            ScheduleKind::Distance2 => {
                distributed_fixer3_scheduled(&inst, &schedule, CriterionCheck::Enforce, 1)
            }
        })
        .map_err(|e| e.to_string())?;
    let violated = t
        .span("instance.postcheck", |_| {
            inst.violated_events(report.fix.assignment())
        })
        .map_err(|e| e.to_string())?
        .len();
    let fixer = if kind == ScheduleKind::Edge { 2 } else { 3 };
    let json = t.span("response.encode", |_| {
        Response::Ok(OkResponse {
            id: req.id.clone(),
            assignment: report.fix.assignment().to_vec(),
            steps: report.fix.num_steps(),
            rounds: report.rounds,
            coloring_rounds: report.coloring_rounds,
            classes: report.num_classes,
            violated,
            fingerprint: format!("{:016x}", g.fingerprint()),
            provenance: format!(
                "{engine_tag} fixer={fixer} seed={seed} nodes={} edges={} max_degree={}",
                g.num_nodes(),
                g.num_edges(),
                g.max_degree(),
            ),
        })
        .to_json()
    });
    Ok(Replayed {
        json,
        report,
        schedule,
        id: req.id,
        inst,
    })
}
