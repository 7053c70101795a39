//! Differential battery: the parallel round engine must be bit-for-bit
//! identical to the sequential reference engine — outputs, round bill
//! and message bill — for every program in the workspace, on every
//! topology, at every worker count.
//!
//! Coverage: hand-written probe programs (an arithmetic aggregator, a
//! never-communicating program, ball gathering at radii 0..=3), the
//! coloring stack (Linial, Cole–Vishkin, vertex/edge/distance-2
//! reductions, Luby MIS with its per-node RNGs), and the paper's
//! distributed drivers (rank-2/rank-3 fixers, honest Moser–Tardos).
//!
//! Worker counts default to `{1, 2, 3, 8}`; CI overrides the list via
//! `LLL_DIFF_THREADS` (comma-separated) to pin a single count per job.

use std::env;

use sharp_lll::coloring::{
    cole_vishkin_ring, distance2_coloring, edge_coloring, linial_coloring, luby_mis,
    vertex_coloring, LubyProgram,
};
use sharp_lll::core::dist::{
    distributed_fixer2, distributed_fixer3, drive, CriterionCheck, RunOpts, Schedule,
};
use sharp_lll::core::{Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, path, random_regular, ring};
use sharp_lll::graphs::Graph;
use sharp_lll::local::gather::GatherProgram;
use sharp_lll::local::{broadcast, NodeContext, NodeProgram, RoundResult, Simulator};
use sharp_lll::mt::dist::{distributed_mt, distributed_mt_parallel};
use sharp_lll::numeric::Num;
use sharp_lll::obs::{NullRecorder, NullTiming};

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

/// Rings, a random regular graph, a star and paths: regular topologies,
/// a hub whose shard is heavier than everyone else's, and degree-1
/// endpoints that halt early.
fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("ring(3)", ring(3)),
        ("ring(17)", ring(17)),
        ("ring(64)", ring(64)),
        (
            "4-regular(48)",
            random_regular(48, 4, 11).expect("generator succeeds"),
        ),
        (
            "star(9)",
            Graph::from_edges(9, (1..9).map(|i| (0, i))).expect("valid star"),
        ),
        ("path(2)", path(2)),
        ("path(13)", path(13)),
    ]
}

/// Runs `make` through both engines and asserts the full outcome
/// (outputs, rounds, messages) matches at every worker count. On a
/// mismatch, both engines are re-run with a flight recorder and the
/// failure message carries the `obs::diff` first-divergence triage
/// (event index, kind, field-level delta, context) instead of only the
/// aggregate that happened to differ.
fn assert_engines_agree<P, F>(name: &str, sim: &Simulator<'_>, make: F, max_rounds: usize)
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send + PartialEq + std::fmt::Debug,
    F: Fn(&NodeContext) -> P,
{
    let reference = sim.run(|ctx| make(ctx), max_rounds).expect("reference run");
    for threads in thread_counts() {
        let par = sim
            .run_parallel(threads, |ctx| make(ctx), max_rounds)
            .expect("parallel run");
        if reference.outputs != par.outputs
            || reference.rounds != par.rounds
            || reference.messages != par.messages
        {
            let record = |run: &dyn Fn(&mut sharp_lll::obs::JsonlRecorder<Vec<u8>>)| {
                let mut rec = sharp_lll::obs::JsonlRecorder::new(Vec::new());
                run(&mut rec);
                String::from_utf8(rec.finish().expect("in-memory stream never fails"))
                    .expect("stream is utf-8")
            };
            let seq_stream = record(&|rec| {
                let _ = sim.run_recorded(|ctx| make(ctx), max_rounds, rec);
            });
            let par_stream = record(&|rec| {
                let _ = sim.run_parallel_recorded(threads, |ctx| make(ctx), max_rounds, rec);
            });
            let triage = match sharp_lll::obs::diff::diff_streams(&seq_stream, &par_stream, 3) {
                Some(d) => d.to_string(),
                None => "event streams agree; outcome aggregation diverged".to_string(),
            };
            panic!(
                "{name}: engines diverge at {threads} threads \
                 (rounds {} vs {}, messages {} vs {})\n{triage}",
                reference.rounds, par.rounds, reference.messages, par.messages
            );
        }
    }
}

/// Aggregator probe: floods ids for `ttl` rounds, halts with the
/// running sum of everything heard (exercises multi-round message flow
/// and an order-independent reduction at every node).
#[derive(Debug, Clone)]
struct Pulse {
    ttl: usize,
    acc: u64,
}

impl NodeProgram for Pulse {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<u64>> {
        self.acc = ctx.id;
        broadcast(ctx.id, ctx.degree)
    }

    fn round(&mut self, ctx: &mut NodeContext, inbox: &[Option<u64>]) -> RoundResult<u64, u64> {
        for msg in inbox.iter().flatten() {
            self.acc = self.acc.wrapping_add(*msg);
        }
        self.ttl -= 1;
        if self.ttl == 0 {
            RoundResult::Halt(self.acc)
        } else {
            RoundResult::Continue(broadcast(self.acc, ctx.degree))
        }
    }
}

/// Probe that never communicates: both engines must bill zero rounds.
#[derive(Debug, Clone)]
struct Mute;

impl NodeProgram for Mute {
    type Message = ();
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<()>> {
        vec![None; ctx.degree]
    }

    fn round(&mut self, ctx: &mut NodeContext, _inbox: &[Option<()>]) -> RoundResult<(), u64> {
        RoundResult::Halt(ctx.id * 2)
    }
}

#[test]
fn probe_programs_match_across_engines() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 42);
        for ttl in [1usize, 2, 5] {
            assert_engines_agree(
                &format!("pulse(ttl={ttl}) on {name}"),
                &sim,
                |_| Pulse { ttl, acc: 0 },
                ttl + 2,
            );
        }
        assert_engines_agree(&format!("mute on {name}"), &sim, |_| Mute, 4);
    }
}

#[test]
fn gather_matches_across_engines_at_all_radii() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 7);
        for radius in [0usize, 1, 2, 3] {
            assert_engines_agree(
                &format!("gather(r={radius}) on {name}"),
                &sim,
                |_| GatherProgram::new(radius),
                radius + 2,
            );
        }
    }
}

#[test]
fn luby_program_matches_across_engines() {
    // Program-level: per-node RNG streams must be identical under both
    // engines (seeded from the node id, not from execution order).
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 23).seed(5);
        assert_engines_agree(
            &format!("luby(12 iters) on {name}"),
            &sim,
            |_| LubyProgram::new(12),
            64,
        );
    }
}

#[test]
fn coloring_drivers_match_across_engines() {
    // Driver-level: the `threads` knob on the simulator must not change
    // any field of the returned `Coloring`.
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 3);
        let budget = 10_000 + 4 * g.num_nodes();
        let linial = linial_coloring(&sim, budget).expect("linial");
        let vertex = vertex_coloring(&sim, budget).expect("vertex");
        let dist2 = distance2_coloring(&sim, budget).expect("distance2");
        let edge = (g.num_edges() > 0).then(|| edge_coloring(&sim, budget).expect("edge"));
        for threads in thread_counts() {
            let psim = sim.clone().threads(threads);
            assert_eq!(
                linial,
                linial_coloring(&psim, budget).expect("linial"),
                "linial on {name} at {threads} threads"
            );
            assert_eq!(
                vertex,
                vertex_coloring(&psim, budget).expect("vertex"),
                "vertex on {name} at {threads} threads"
            );
            assert_eq!(
                dist2,
                distance2_coloring(&psim, budget).expect("distance2"),
                "distance2 on {name} at {threads} threads"
            );
            if let Some(edge) = &edge {
                assert_eq!(
                    *edge,
                    edge_coloring(&psim, budget).expect("edge"),
                    "edge on {name} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn cole_vishkin_matches_across_engines() {
    for n in [3usize, 8, 65, 257] {
        let g = ring(n);
        let sim = Simulator::with_shuffled_ids(&g, n as u64);
        let reference = cole_vishkin_ring(&sim, 10_000).expect("cv");
        for threads in thread_counts() {
            let par = cole_vishkin_ring(&sim.clone().threads(threads), 10_000).expect("cv");
            assert_eq!(
                reference, par,
                "cole-vishkin ring({n}) at {threads} threads"
            );
        }
    }
}

#[test]
fn mis_driver_matches_across_engines() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 13);
        let reference = luby_mis(&sim, 99).expect("mis");
        for threads in thread_counts() {
            let par = luby_mis(&sim.clone().threads(threads), 99).expect("mis");
            assert_eq!(reference, par, "luby_mis on {name} at {threads} threads");
        }
    }
}

fn ring_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
        .collect();
    for i in 0..n {
        let (l, r) = (vars[(i + n - 1) % n], vars[i]);
        b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
    }
    b.build().expect("valid instance")
}

fn hyper_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let h = hyper_ring(n);
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for j in 0..n {
        let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
        b.set_event_predicate(j, move |vals| {
            vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
        });
    }
    b.build().expect("valid instance")
}

#[test]
fn fixer_drivers_match_across_engines() {
    let inst2 = ring_instance::<f64>(72, 3);
    let inst3 = hyper_instance::<f64>(48, 3);
    let r2 = distributed_fixer2(&inst2, 17, CriterionCheck::Enforce).expect("fixer2");
    let r3 = distributed_fixer3(&inst3, 17, CriterionCheck::Enforce).expect("fixer3");
    for threads in thread_counts() {
        let opts = RunOpts {
            threads,
            ..RunOpts::default()
        };
        let s2 = Schedule::edge(inst2.dependency_graph(), 17, threads).expect("coloring");
        let p2 = drive(&inst2, &s2, &opts, &mut NullRecorder, &mut NullTiming).expect("fixer2");
        let s3 = Schedule::distance2(inst3.dependency_graph(), 17, threads).expect("coloring");
        let p3 = drive(&inst3, &s3, &opts, &mut NullRecorder, &mut NullTiming).expect("fixer3");
        for (tag, seq, par) in [("fixer2", &r2, &p2), ("fixer3", &r3, &p3)] {
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
                seq.fix.assignment(),
                par.fix.assignment(),
                "{tag} assignment at {threads} threads"
            );
        }
    }
}

#[test]
fn mt_driver_matches_across_engines() {
    let inst = ring_instance::<f64>(56, 4);
    let reference = distributed_mt(&inst, 31, 1 << 20).expect("mt");
    for threads in thread_counts() {
        let par = distributed_mt_parallel(&inst, 31, 1 << 20, threads).expect("mt");
        assert_eq!(reference, par, "distributed MT at {threads} threads");
    }
}
