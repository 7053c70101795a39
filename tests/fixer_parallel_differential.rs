//! Differential battery for the color-class-parallel fixing sweep: the
//! `threads` knob on the distributed fixer drivers must change nothing
//! observable — not the assignment, not the round/class bill, not a
//! single byte of the recorded `--obs` stream, and not the audit
//! verdict — at any worker count, on any topology.
//!
//! Coverage: rank-2 instances on rings, a torus and a random regular
//! graph (edge variables, node events); rank-3 instances on hyper-rings
//! and random 3-uniform hypergraphs (hyperedge variables, node events).
//! Each family runs through the plain drivers, the recorded drivers
//! (byte-identity via in-memory `JsonlRecorder<Vec<u8>>` streams), and
//! the audited drivers (verdicts — including the exact `PStarViolated`
//! error under an impossible bound — must match the sequential ones).
//!
//! Worker counts default to `{1, 2, 3, 8}`; CI overrides the list via
//! `LLL_DIFF_THREADS` (comma-separated) to pin a single count per job.

use std::env;

use sharp_lll::core::dist::{
    distributed_fixer2, distributed_fixer2_audited, distributed_fixer2_audited_recorded,
    distributed_fixer3, distributed_fixer3_audited, drive, CriterionCheck, DistError, DistReport,
    RunOpts, Schedule,
};
use sharp_lll::core::{Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, random_3_uniform, random_regular, ring, torus};
use sharp_lll::graphs::{Graph, Hypergraph};
use sharp_lll::local::SimError;
use sharp_lll::obs::{JsonlRecorder, NullRecorder, NullTiming, Recorder};

/// The self-scheduling driver: `color` the dependency graph
/// (`Schedule::edge` or `Schedule::distance2`) and drive the sweep, both
/// on `threads` workers.
fn drive_colored<R: Recorder>(
    color: fn(&Graph, u64, usize) -> Result<Schedule, SimError>,
    inst: &Instance<f64>,
    seed: u64,
    threads: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let schedule = color(inst.dependency_graph(), seed, threads)?;
    let opts = RunOpts {
        threads,
        ..RunOpts::default()
    };
    drive(inst, &schedule, &opts, rec, &mut NullTiming)
}

/// Worker counts to exercise; `LLL_DIFF_THREADS=2` (or `1,2,3,8`, …)
/// overrides, so CI can run the battery once per pinned count.
fn thread_counts() -> Vec<usize> {
    match env::var("LLL_DIFF_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("LLL_DIFF_THREADS is a comma-separated list of positive integers")
            })
            .collect(),
        Err(_) => vec![1, 2, 3, 8],
    }
}

/// Rank-2 instance on an arbitrary graph: one `k`-valued variable per
/// edge affecting its two endpoint events; the bad event at a node is
/// "every incident edge drew 0" (probability `k^-deg`, so `k = 3`
/// stays below `2^-d` up to degree 4).
fn rank2_instance(g: &Graph, k: usize) -> Instance<f64> {
    let n = g.num_nodes();
    let mut b = InstanceBuilder::<f64>::new(n);
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in g.edges() {
        let x = b.add_uniform_variable(&[u, v], k);
        incident[u].push(x);
        incident[v].push(x);
    }
    for (node, vars) in incident.into_iter().enumerate() {
        assert!(!vars.is_empty(), "battery graphs have no isolated nodes");
        b.set_event_predicate(node, move |vals| vars.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

/// Rank-3 instance on a 3-uniform hypergraph: one `k`-valued variable
/// per hyperedge affecting its nodes; the bad event at a node is
/// "every incident hyperedge drew 0" (probability `k^-deg`).
fn rank3_instance(h: &Hypergraph, k: usize) -> Instance<f64> {
    let n = h.num_nodes();
    let mut b = InstanceBuilder::<f64>::new(n);
    let vars: Vec<usize> = (0..h.num_edges())
        .map(|e| b.add_uniform_variable(h.edge(e).nodes(), k))
        .collect();
    for node in 0..n {
        let incident: Vec<usize> = h.incident(node).iter().map(|&e| vars[e]).collect();
        assert!(
            !incident.is_empty(),
            "battery hypergraphs have no isolated nodes"
        );
        b.set_event_predicate(node, move |vals| incident.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

fn rank2_families() -> Vec<(&'static str, Instance<f64>)> {
    vec![
        ("ring(64)", rank2_instance(&ring(64), 3)),
        ("ring(7)", rank2_instance(&ring(7), 3)),
        ("torus(6x8)", rank2_instance(&torus(6, 8), 3)),
        (
            "4-regular(48)",
            rank2_instance(&random_regular(48, 4, 11).expect("generator succeeds"), 3),
        ),
    ]
}

fn rank3_families() -> Vec<(&'static str, Instance<f64>)> {
    vec![
        ("hyper_ring(48)", rank3_instance(&hyper_ring(48), 3)),
        ("hyper_ring(9)", rank3_instance(&hyper_ring(9), 3)),
        (
            "3-uniform(45,deg3)",
            rank3_instance(&random_3_uniform(45, 3, 9).expect("generator succeeds"), 5),
        ),
    ]
}

fn assert_reports_agree(tag: &str, threads: usize, seq: &DistReport, par: &DistReport) {
    assert_eq!(seq.rounds, par.rounds, "{tag} rounds at {threads} threads");
    assert_eq!(
        seq.coloring_rounds, par.coloring_rounds,
        "{tag} coloring rounds at {threads} threads"
    );
    assert_eq!(
        seq.num_classes, par.num_classes,
        "{tag} classes at {threads} threads"
    );
    assert_eq!(
        seq.fix.num_steps(),
        par.fix.num_steps(),
        "{tag} steps at {threads} threads"
    );
    assert_eq!(
        seq.fix.assignment(),
        par.fix.assignment(),
        "{tag} assignment at {threads} threads"
    );
}

/// Byte-compares two in-memory recorded streams; on divergence the
/// panic message carries the `obs::diff` first-divergence triage
/// (event index, kind, field-level delta, context), not just a length.
fn assert_streams_identical(tag: &str, threads: usize, seq: &[u8], par: &[u8]) {
    if seq == par {
        return;
    }
    let seq = std::str::from_utf8(seq).expect("stream is utf-8");
    let par = std::str::from_utf8(par).expect("stream is utf-8");
    let triage = match sharp_lll::obs::diff::diff_streams(seq, par, 3) {
        Some(d) => d.to_string(),
        None => "streams differ only in bytes outside any event line".to_string(),
    };
    panic!("{tag}: recorded sweep diverges at {threads} threads\n{triage}");
}

fn record<R>(run: impl FnOnce(&mut JsonlRecorder<Vec<u8>>) -> R) -> (R, Vec<u8>) {
    let mut rec = JsonlRecorder::new(Vec::new());
    let out = run(&mut rec);
    (out, rec.finish().expect("in-memory stream never fails"))
}

#[test]
fn plain_sweeps_match_reference() {
    for (name, inst) in rank2_families() {
        let seq = distributed_fixer2(&inst, 17, CriterionCheck::Enforce).expect("fixer2");
        assert!(seq.fix.is_success(), "{name} reference run succeeds");
        for threads in thread_counts() {
            let par = drive_colored(Schedule::edge, &inst, 17, threads, &mut NullRecorder)
                .expect("fixer2");
            assert_reports_agree(&format!("fixer2 on {name}"), threads, &seq, &par);
        }
    }
    for (name, inst) in rank3_families() {
        let seq = distributed_fixer3(&inst, 17, CriterionCheck::Enforce).expect("fixer3");
        assert!(seq.fix.is_success(), "{name} reference run succeeds");
        for threads in thread_counts() {
            let par = drive_colored(Schedule::distance2, &inst, 17, threads, &mut NullRecorder)
                .expect("fixer3");
            assert_reports_agree(&format!("fixer3 on {name}"), threads, &seq, &par);
        }
    }
}

#[test]
fn recorded_sweeps_are_byte_identical() {
    for (name, inst) in rank2_families() {
        let (seq, seq_bytes) =
            record(|rec| drive_colored(Schedule::edge, &inst, 5, 1, rec).expect("fixer2"));
        for threads in thread_counts() {
            let (par, par_bytes) = record(|rec| {
                drive_colored(Schedule::edge, &inst, 5, threads, rec).expect("fixer2")
            });
            assert_reports_agree(&format!("recorded fixer2 on {name}"), threads, &seq, &par);
            assert_streams_identical(
                &format!("recorded fixer2 on {name}"),
                threads,
                &seq_bytes,
                &par_bytes,
            );
        }
    }
    for (name, inst) in rank3_families() {
        let (seq, seq_bytes) =
            record(|rec| drive_colored(Schedule::distance2, &inst, 5, 1, rec).expect("fixer3"));
        for threads in thread_counts() {
            let (par, par_bytes) = record(|rec| {
                drive_colored(Schedule::distance2, &inst, 5, threads, rec).expect("fixer3")
            });
            assert_reports_agree(&format!("recorded fixer3 on {name}"), threads, &seq, &par);
            assert_streams_identical(
                &format!("recorded fixer3 on {name}"),
                threads,
                &seq_bytes,
                &par_bytes,
            );
        }
    }
}

#[test]
fn audited_sweeps_match_reference() {
    for (name, inst) in rank2_families() {
        let p = inst.max_event_probability();
        let seq = distributed_fixer2_audited(&inst, 5, CriterionCheck::Enforce, 1, &p, &1e-9)
            .expect("audit passes at the true bound");
        for threads in thread_counts() {
            let par =
                distributed_fixer2_audited(&inst, 5, CriterionCheck::Enforce, threads, &p, &1e-9)
                    .expect("audit passes at the true bound");
            assert_reports_agree(&format!("audited fixer2 on {name}"), threads, &seq, &par);
        }
    }
    for (name, inst) in rank3_families() {
        let p = inst.max_event_probability();
        let seq = distributed_fixer3_audited(&inst, 5, CriterionCheck::Enforce, 1, &p, &1e-9)
            .expect("audit passes at the true bound");
        for threads in thread_counts() {
            let par =
                distributed_fixer3_audited(&inst, 5, CriterionCheck::Enforce, threads, &p, &1e-9)
                    .expect("audit passes at the true bound");
            assert_reports_agree(&format!("audited fixer3 on {name}"), threads, &seq, &par);
        }
    }
}

#[test]
fn audited_recorded_sweeps_are_byte_identical() {
    let (name, inst) = rank2_families().swap_remove(0);
    let p = inst.max_event_probability();
    let (seq, seq_bytes) = record(|rec| {
        distributed_fixer2_audited_recorded(&inst, 5, CriterionCheck::Enforce, 1, &p, &1e-9, rec)
            .expect("audit passes at the true bound")
    });
    for threads in thread_counts() {
        let (par, par_bytes) = record(|rec| {
            distributed_fixer2_audited_recorded(
                &inst,
                5,
                CriterionCheck::Enforce,
                threads,
                &p,
                &1e-9,
                rec,
            )
            .expect("audit passes at the true bound")
        });
        assert_reports_agree(
            &format!("audited recorded fixer2 on {name}"),
            threads,
            &seq,
            &par,
        );
        assert_streams_identical(
            &format!("audited recorded fixer2 on {name}"),
            threads,
            &seq_bytes,
            &par_bytes,
        );
    }
}

#[test]
fn audit_failures_are_identical_at_every_thread_count() {
    // An impossibly tight claimed bound must produce the *same*
    // `PStarViolated` error — same step, same variable, same violation
    // counts — no matter how many workers swept the class.
    let inst = rank2_instance(&ring(40), 3);
    let tight = inst.max_event_probability() / 2.0;
    let base = distributed_fixer2_audited(&inst, 5, CriterionCheck::Enforce, 1, &tight, &0.0)
        .expect_err("the true probability exceeds the claimed bound");
    assert!(matches!(base, DistError::Fixer(_)), "audit verdict error");
    for threads in thread_counts() {
        let err =
            distributed_fixer2_audited(&inst, 5, CriterionCheck::Enforce, threads, &tight, &0.0)
                .expect_err("the true probability exceeds the claimed bound");
        assert_eq!(
            format!("{base:?}"),
            format!("{err:?}"),
            "audit failure at {threads} threads"
        );
    }
}
