//! The `audited-exact` workload: a closed loop of one in-process caller
//! over the audited exact drivers. One op is one cycle of three calls on
//! `BigRational` with zero tolerance.

use std::time::{Duration, Instant};

use lll_core::dist::{
    distributed_fixer2_audited, distributed_fixer2_audited_recorded, distributed_fixer2_scheduled,
    distributed_fixer3_audited, distributed_fixer3_audited_recorded, distributed_fixer3_scheduled,
    CriterionCheck, DistError, DistReport, Schedule,
};
use lll_core::Instance;
use lll_numeric::{BigRational, Num};
use lll_obs::JsonlRecorder;

use crate::stats::{median, peak_rss_mb, quantile, Digest};
use crate::trace::{span_cost_ns, Tracer};
use crate::{Config, Layers, Outcome};
use perfbench::gen::{ExactSet, DEFAULT_SEED};

/// Schedule seed of every call (E22's).
const SCHEDULE_SEED: u64 = 5;
/// Instance builds timed for `setup_s`; the last set serves the run.
const SETUPS: usize = 5;

/// The three calls of a cycle, in order: (instance, rank, `P*` bound).
fn calls<T: Num>(set: &ExactSet<T>) -> [(&Instance<T>, usize, &T); 3] {
    [
        (&set.ring, 2, &set.p_bound[0]),
        (&set.hyper, 3, &set.p_bound[1]),
        (&set.hyper_wide, 3, &set.p_bound[2]),
    ]
}

fn audited<T: Num>(
    inst: &Instance<T>,
    rank: usize,
    p: &T,
    threads: usize,
) -> Result<DistReport, DistError> {
    let zero = T::zero();
    let check = CriterionCheck::Enforce;
    if rank == 2 {
        distributed_fixer2_audited(inst, SCHEDULE_SEED, check, threads, p, &zero)
    } else {
        distributed_fixer3_audited(inst, SCHEDULE_SEED, check, threads, p, &zero)
    }
}

fn schedule(inst: &Instance<impl Num>, rank: usize, threads: usize) -> Schedule {
    let g = inst.dependency_graph();
    if rank == 2 {
        Schedule::edge(g, SCHEDULE_SEED, threads)
    } else {
        Schedule::distance2(g, SCHEDULE_SEED, threads)
    }
    .expect("schedule coloring succeeds on the generated graphs")
}

fn plain<T: Num>(
    inst: &Instance<T>,
    rank: usize,
    s: &Schedule,
    threads: usize,
) -> Result<DistReport, DistError> {
    if rank == 2 {
        distributed_fixer2_scheduled(inst, s, CriterionCheck::Enforce, threads)
    } else {
        distributed_fixer3_scheduled(inst, s, CriterionCheck::Enforce, threads)
    }
}

/// Folds one call's outcome into a cycle digest.
fn digest_report(d: &mut Digest, r: &DistReport) {
    d.line(
        format!(
            "{:?} steps={} rounds={} coloring={} classes={}",
            r.fix.assignment(),
            r.fix.num_steps(),
            r.rounds,
            r.coloring_rounds,
            r.num_classes
        )
        .as_bytes(),
    );
}

/// Runs one cycle; returns its digest, or why it failed. With `check`,
/// each assignment is also re-checked with `violated_events`.
fn cycle(set: &ExactSet<BigRational>, threads: usize, check: bool) -> Result<String, String> {
    let mut d = Digest::new();
    for (n, (inst, rank, p)) in calls(set).into_iter().enumerate() {
        let r = audited(inst, rank, p, threads).map_err(|e| format!("call {n}: {e}"))?;
        if check {
            let v = inst
                .violated_events(r.fix.assignment())
                .map_err(|e| format!("call {n}: {e}"))?;
            if !v.is_empty() {
                return Err(format!("call {n}: {} violated events", v.len()));
            }
        }
        digest_report(&mut d, &r);
    }
    Ok(d.hex())
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let threads = cfg.threads;
    let mut setup_s = Vec::new();
    let mut set = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        set = Some(ExactSet::<BigRational>::build(cfg.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let set = set.expect("SETUPS > 0");

    // The closed loop; the first cycle's outputs are checked in full and
    // every later cycle must reproduce its digest.
    let mut latency_s = Vec::new();
    let mut first: Option<String> = None;
    let mut ok_cycles = 0u32;
    let start = Instant::now();
    while latency_s.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let result = cycle(&set, threads, false);
        latency_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match (result, &first) {
            (Err(e), _) => out.fail(format!("cycle {}: {e}", latency_s.len())),
            (Ok(h), Some(f)) if h != *f => {
                out.fail(format!("cycle {}: digest {h} != {f}", latency_s.len()))
            }
            (Ok(h), None) => {
                first = Some(h);
                ok_cycles += 1;
            }
            (Ok(_), Some(_)) => ok_cycles += 1,
        }
    }
    let rss = peak_rss_mb(std::process::id());
    out.attempted += 1;
    match cycle(&set, threads, true) {
        Ok(h) if Some(&h) == first.as_ref() => {}
        Ok(h) => out.fail(format!("checked cycle digest {h} differs from {first:?}")),
        Err(e) => out.fail(format!("checked cycle: {e}")),
    }

    // The canary: the default-seed (E22) instances, digest pinned.
    let canary = if cfg.seed == DEFAULT_SEED {
        first.clone().ok_or_else(|| "no cycle completed".to_owned())
    } else {
        let pinned_set = ExactSet::<BigRational>::build(DEFAULT_SEED);
        out.attempted += 1;
        cycle(&pinned_set, threads, true)
    };
    match canary {
        Ok(h) => out.check_digest(perfbench::gen::Workload::AuditedExact, &h, 1),
        Err(e) => out.fail(format!("canary: {e}")),
    }

    let ms: Vec<f64> = latency_s.iter().map(|s| s * 1e3).collect();
    out.e2e.setup_s = median(&setup_s);
    // The median cycle, not the mean: a host stall then slows a few
    // cycles instead of the figure.
    out.e2e.ops_per_s = f64::from(ok_cycles) / latency_s.len() as f64 / median(&latency_s);
    out.e2e.latency_p50_ms = quantile(&ms, 0.5);
    out.e2e.latency_p90_ms = quantile(&ms, 0.9);
    out.e2e.peak_rss_mb = rss.unwrap_or(f64::NAN);
    out.e2e.samples = ms.len();
    out.note(format!("{} cycles, driver threads {threads}", ms.len()));

    if cfg.trace {
        let budget = Duration::from_secs_f64(cfg.seconds * crate::serve::REPLAY_SHARE);
        let mut layers = layers(&set, cfg, budget, &mut out);
        layers.build_us = out.e2e.setup_s * 1e6;
        out.layers = layers;
    }
    out
}

/// The traced run: per call, the audited driver (the engine total), its
/// schedule and plain sweep alone, the plain sweep on the `f64` twin of
/// the same shapes, the recorded audited driver, and the post-check.
fn layers(
    set: &ExactSet<BigRational>,
    cfg: &Config,
    budget: Duration,
    out: &mut Outcome,
) -> Layers {
    let threads = cfg.threads;
    let twin = ExactSet::<f64>::build(cfg.seed);
    let mut t = Tracer::new();
    let mut l = Layers::default();
    let (mut engine, mut twin_ns, mut record_ns) = (Vec::new(), 0u64, 0u64);
    let start = Instant::now();
    let mut op = 0;
    while op == 0 || start.elapsed() < budget {
        let mut cycle_ns = 0u64;
        t.op(op, "cycle", |t| {
            for (n, ((inst, rank, p), (inst64, _, _))) in
                calls(set).into_iter().zip(calls(&twin)).enumerate()
            {
                lll_numeric::reset_tier_counters();
                let a = Instant::now();
                let r = t.span("audited", |_| audited(inst, rank, p, threads));
                cycle_ns += a.elapsed().as_nanos() as u64;
                let tiers = lll_numeric::tier_counters();
                l.tier_promotes += tiers.promote as f64;
                l.tier_demotes += tiers.demote as f64;
                let Ok(r) = r else {
                    out.fail(format!("traced call {n} failed"));
                    continue;
                };
                let s = t.span("schedule", |_| schedule(inst, rank, threads));
                let w = t.span("sweep", |_| plain(inst, rank, &s, threads));
                let tw = Instant::now();
                let w64 = plain(inst64, rank, &s, threads);
                twin_ns += tw.elapsed().as_nanos() as u64;
                if w.as_ref().map(|w| w.fix.assignment()).ok() != Some(r.fix.assignment())
                    || w.as_ref().map(|w| w.rounds).ok() != Some(r.rounds)
                    || w64.is_err()
                {
                    out.fail(format!(
                        "traced call {n}: plain sweep differs from the audited run"
                    ));
                }
                let v = t.span("instance.postcheck", |_| {
                    inst.violated_events(r.fix.assignment())
                });
                if !v.is_ok_and(|v| v.is_empty()) {
                    out.fail(format!("traced call {n}: post-check failed"));
                }
                let tr = Instant::now();
                let mut rec = JsonlRecorder::new(Vec::new());
                let zero = BigRational::zero();
                let recorded = if rank == 2 {
                    distributed_fixer2_audited_recorded(
                        inst,
                        SCHEDULE_SEED,
                        CriterionCheck::Enforce,
                        threads,
                        p,
                        &zero,
                        &mut rec,
                    )
                } else {
                    distributed_fixer3_audited_recorded(
                        inst,
                        SCHEDULE_SEED,
                        CriterionCheck::Enforce,
                        threads,
                        p,
                        &zero,
                        &mut rec,
                    )
                };
                record_ns += tr.elapsed().as_nanos() as u64;
                match (recorded, rec.finish()) {
                    (Ok(rr), Ok(stream)) if rr.fix.assignment() == r.fix.assignment() => {
                        l.stream_bytes += stream.len() as f64;
                    }
                    _ => out.fail(format!("traced call {n}: recorded run differs")),
                }
                l.sweep_steps += r.fix.num_steps() as f64;
                l.sweep_classes += r.num_classes as f64;
                l.sweep_rounds += r.rounds as f64;
                l.coloring_rounds += r.coloring_rounds as f64;
            }
        });
        engine.push(cycle_ns as f64 / 1e3);
        op += 1;
    }
    let n = t.ops() as f64;
    let selfs = t.self_times();
    let per_op = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    let audited_us = per_op("audited");
    l.engine_us = engine.iter().sum::<f64>() / n;
    l.engine_p50_us = median(&engine);
    l.schedule_us = per_op("schedule");
    l.sweep_us = per_op("sweep");
    l.audit_us = audited_us - l.schedule_us - l.sweep_us;
    l.postcheck_us = per_op("instance.postcheck");
    l.exact_extra_us = l.sweep_us - twin_ns as f64 / n / 1e3;
    l.record_us = record_ns as f64 / n / 1e3 - audited_us;
    for c in [
        &mut l.tier_promotes,
        &mut l.tier_demotes,
        &mut l.stream_bytes,
        &mut l.sweep_steps,
        &mut l.sweep_classes,
        &mut l.sweep_rounds,
        &mut l.coloring_rounds,
    ] {
        *c /= n;
    }
    // The audit is measured as a difference, so the layers cover the
    // audited call exactly and the residual is zero by construction.
    l.residual_frac = (l.engine_us - (l.schedule_us + l.sweep_us + l.audit_us)) / l.engine_us;
    l.overhead_frac = span_cost_ns() * (t.len() as f64 / n) / (l.engine_us * 1e3);
    match t.write_jsonl(&cfg.spans) {
        Ok(()) => out.note(format!(
            "traced replay: {} cycles, {} spans written to {}",
            t.ops(),
            t.len(),
            cfg.spans.display()
        )),
        Err(e) => out.fail(format!("spans not written: {e}")),
    }
    l
}
