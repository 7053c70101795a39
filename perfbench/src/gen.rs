//! Request and instance generators, owned by the benchmark.
//!
//! Every request is a pure function of `(workload, run seed, stream,
//! index)`. The seed only chooses polarities and labelings: sizes,
//! widths and the kind mix follow fixed cycles, so any two seeds give
//! the same shape statistics. Nothing here calls the program's own
//! generators (`ring_formula`, `lll_bench::workloads`), so editing those
//! cannot change a workload.

use std::collections::BTreeSet;

use lll_core::{Instance, InstanceBuilder};
use lll_numeric::Num;

use crate::rng::{derive, Rng};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Same-graph rank-3 requests; every timed request hits the cache.
    ServeWarm,
    /// A new dependency graph per request, rank 2 and rank 3.
    ServeCold,
    /// Few wide clauses: the probability layer.
    ServeWide,
    /// The audited exact drivers, in process.
    AuditedExact,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::ServeWide,
        Workload::AuditedExact,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWide => "serve-wide",
            Workload::AuditedExact => "audited-exact",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// Which request stream of a run an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The request that sets a daemon up (and fills the cache).
    Setup,
    /// The timed requests.
    Timed,
    /// The pinned-digest requests.
    Canary,
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Setup => 0x5e70,
            Stream::Timed => 0x71ed,
            Stream::Canary => 0xca4a,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            Stream::Setup => "setup",
            Stream::Timed => "op",
            Stream::Canary => "canary",
        }
    }
}

/// A CNF formula with 1-based DIMACS literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: usize,
    /// Clauses of nonzero literals.
    pub clauses: Vec<Vec<i32>>,
}

/// A rank-2 JSON instance: one `k`-ary variable per edge, one event per
/// node, "all incident variables are 0".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInstance {
    /// Domain size of every variable.
    pub k: usize,
    /// The two events each variable affects, ascending.
    pub affects: Vec<[usize; 2]>,
    /// The variables each event tests, ascending.
    pub events: Vec<Vec<usize>>,
}

/// What one request asks the daemon to solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A DIMACS request.
    Cnf(Cnf),
    /// A JSON-instance request.
    Graph(GraphInstance),
}

/// One request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The request id (a JSON string, without quotes).
    pub id: String,
    /// The instance.
    pub payload: Payload,
}

/// The request `index` of `stream` for a serve workload.
///
/// # Panics
///
/// Panics for [`Workload::AuditedExact`], which sends no requests.
pub fn op(workload: Workload, seed: u64, stream: Stream, index: u64) -> Op {
    let mut rng = Rng::new(derive(seed, workload.tag() ^ stream.tag() << 8, index));
    let i = index as usize;
    let payload = match workload {
        Workload::ServeWarm => Payload::Cnf(ring_cnf(96, 5, &mut rng, false)),
        Workload::ServeWide => Payload::Cnf(ring_cnf(8, 12 + i % 5, &mut rng, false)),
        Workload::ServeCold => {
            let j = i / 4;
            match i % 4 {
                0 => Payload::Cnf(ring_cnf(64 + 64 * (j % 8), 5, &mut rng, true)),
                1 => Payload::Graph(graph_instance(&ring_edges(64 + 64 * (j % 8)), &mut rng)),
                2 => Payload::Cnf(ring_cnf(64 + 64 * ((j + 4) % 8), 6, &mut rng, true)),
                _ => {
                    let (w, h) = TORI[j % TORI.len()];
                    Payload::Graph(graph_instance(&torus_edges(w, h), &mut rng))
                }
            }
        }
        Workload::AuditedExact => panic!("audited-exact sends no requests"),
    };
    Op {
        id: format!("{}-{index}", stream.prefix()),
        payload,
    }
}

/// Torus sizes of the cold mix: 64 to 512 nodes.
const TORI: [(usize, usize); 8] = [
    (8, 8),
    (8, 16),
    (12, 16),
    (16, 16),
    (16, 20),
    (16, 24),
    (20, 24),
    (16, 32),
];

/// `m` clauses of width `w` on a ring: shared variable `s_i` occurs in
/// clauses `i, i+1, i+2` (rank 3, each clause meets 4 others), padded
/// with private variables, random polarities. With `relabel`, clause
/// order and variable numbering are shuffled, so the dependency graph
/// is a fresh labeled graph.
pub fn ring_cnf(m: usize, w: usize, rng: &mut Rng, relabel: bool) -> Cnf {
    assert!(m >= 5 && w >= 4, "ring formulas need m >= 5 and w >= 4");
    let num_vars = m + m * (w - 3);
    let mut next_private = m;
    let mut clauses: Vec<Vec<i32>> = (0..m)
        .map(|i| {
            let shared = (0..3).map(|back| (i + m - back) % m + 1);
            let private = (0..w - 3).map(|_| {
                next_private += 1;
                next_private
            });
            shared
                .chain(private)
                .map(|x| if rng.coin() { x as i32 } else { -(x as i32) })
                .collect()
        })
        .collect();
    if relabel {
        let vars = rng.permutation(num_vars);
        for lit in clauses.iter_mut().flatten() {
            let x = vars[lit.unsigned_abs() as usize - 1] as i32 + 1;
            *lit = if *lit > 0 { x } else { -x };
        }
        let order = rng.permutation(m);
        let mut shuffled = vec![Vec::new(); m];
        for (c, slot) in clauses.into_iter().zip(order) {
            shuffled[slot] = c;
        }
        clauses = shuffled;
    }
    Cnf { num_vars, clauses }
}

/// A ring's edges, each `(u, v)` with `u < v`, sorted.
pub fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    let mut e: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            let j = (i + 1) % n;
            (i.min(j), i.max(j))
        })
        .collect();
    e.sort_unstable();
    e
}

/// A `w × h` torus's edges, each `(u, v)` with `u < v`, sorted.
pub fn torus_edges(w: usize, h: usize) -> Vec<(usize, usize)> {
    let idx = |x: usize, y: usize| y * w + x;
    let mut e = Vec::with_capacity(2 * w * h);
    for y in 0..h {
        for x in 0..w {
            for (a, b) in [
                (idx(x, y), idx((x + 1) % w, y)),
                (idx(x, y), idx(x, (y + 1) % h)),
            ] {
                e.push((a.min(b), a.max(b)));
            }
        }
    }
    e.sort_unstable();
    e
}

/// A ternary variable per edge and an "all incident variables are 0"
/// event per node, with nodes relabeled and variables shuffled.
fn graph_instance(edges: &[(usize, usize)], rng: &mut Rng) -> GraphInstance {
    let n = edges.iter().map(|&(_, v)| v + 1).max().unwrap_or(0);
    let nodes = rng.permutation(n);
    let order = rng.permutation(edges.len());
    let mut affects = vec![[0usize; 2]; edges.len()];
    for (&(u, v), &x) in edges.iter().zip(&order) {
        let (a, b) = (nodes[u], nodes[v]);
        affects[x] = [a.min(b), a.max(b)];
    }
    let mut events = vec![Vec::new(); n];
    for (x, pair) in affects.iter().enumerate() {
        for &e in pair {
            events[e].push(x);
        }
    }
    GraphInstance {
        k: 3,
        affects,
        events,
    }
}

impl Op {
    /// The request line, without the newline.
    pub fn line(&self) -> String {
        match &self.payload {
            Payload::Cnf(cnf) => {
                let mut text = format!("p cnf {} {}\\n", cnf.num_vars, cnf.clauses.len());
                for clause in &cnf.clauses {
                    for lit in clause {
                        text.push_str(&lit.to_string());
                        text.push(' ');
                    }
                    text.push_str("0\\n");
                }
                format!("{{\"id\":\"{}\",\"dimacs\":\"{text}\"}}", self.id)
            }
            Payload::Graph(g) => {
                let join = |xs: &[usize]| {
                    xs.iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let variables: Vec<String> = g
                    .affects
                    .iter()
                    .map(|a| format!("{{\"affects\":[{}],\"k\":{}}}", join(a), g.k))
                    .collect();
                let events: Vec<String> = g
                    .events
                    .iter()
                    .map(|vars| {
                        format!(
                            "{{\"vars\":[{}],\"values\":[{}]}}",
                            join(vars),
                            join(&vec![0; vars.len()])
                        )
                    })
                    .collect();
                format!(
                    "{{\"id\":\"{}\",\"instance\":{{\"variables\":[{}],\"events\":[{}]}}}}",
                    self.id,
                    variables.join(","),
                    events.join(",")
                )
            }
        }
    }

    /// Number of variables (the length a returned assignment must have).
    pub fn num_vars(&self) -> usize {
        match &self.payload {
            Payload::Cnf(cnf) => cnf.num_vars,
            Payload::Graph(g) => g.affects.len(),
        }
    }

    /// The instance rebuilt in this process from the generator's own
    /// description (not from the request text).
    pub fn instance(&self) -> Instance<f64> {
        match &self.payload {
            Payload::Cnf(cnf) => {
                let mut affects = vec![Vec::new(); cnf.num_vars];
                for (c, clause) in cnf.clauses.iter().enumerate() {
                    for lit in clause {
                        affects[lit.unsigned_abs() as usize - 1].push(c);
                    }
                }
                let mut b = InstanceBuilder::<f64>::new(cnf.clauses.len());
                for a in &affects {
                    b.add_uniform_variable(a, 2);
                }
                for (c, clause) in cnf.clauses.iter().enumerate() {
                    let falsifying: Vec<(usize, usize)> = clause
                        .iter()
                        .map(|&l| (l.unsigned_abs() as usize - 1, usize::from(l < 0)))
                        .collect();
                    b.set_event_predicate(c, move |vals| {
                        falsifying.iter().all(|&(x, bad)| vals[x] == bad)
                    });
                }
                b.build().expect("generated formula is a valid instance")
            }
            Payload::Graph(g) => {
                let mut b = InstanceBuilder::<f64>::new(g.events.len());
                for a in &g.affects {
                    b.add_uniform_variable(a, g.k);
                }
                for (e, vars) in g.events.iter().enumerate() {
                    let vars = vars.clone();
                    b.set_event_predicate(e, move |vals| vars.iter().all(|&x| vals[x] == 0));
                }
                b.build().expect("generated graph instance is valid")
            }
        }
    }

    /// Whether `assignment` avoids every bad event, evaluated directly
    /// on the generator's description (no program code involved).
    pub fn satisfied_by(&self, assignment: &[usize]) -> bool {
        if assignment.len() != self.num_vars() {
            return false;
        }
        match &self.payload {
            Payload::Cnf(cnf) => cnf.clauses.iter().all(|clause| {
                clause.iter().any(|&l| {
                    let value = assignment[l.unsigned_abs() as usize - 1];
                    if l > 0 {
                        value == 1
                    } else {
                        value == 0
                    }
                })
            }),
            Payload::Graph(g) => {
                assignment.iter().all(|&v| v < g.k)
                    && g.events
                        .iter()
                        .all(|vars| vars.iter().any(|&x| assignment[x] != 0))
            }
        }
    }
}

/// Tightness of the exact instances (`p·2^d`, as in E22).
pub const EXACT_TIGHTNESS: f64 = 0.9;
/// Default run seed: the instance seed of E22.
pub const DEFAULT_SEED: u64 = 7;

/// The instances of one `audited-exact` cycle, with each call's `P*`
/// bound (its largest event probability).
pub struct ExactSet<T> {
    /// `ring(2048)`, `k = 16`, rank 2.
    pub ring: Instance<T>,
    /// `hyper_ring(512)`, `k = 16`, rank 3.
    pub hyper: Instance<T>,
    /// `hyper_ring(128)`, `k = 32`, rank 3.
    pub hyper_wide: Instance<T>,
    /// `max_event_probability` of each instance, in call order.
    pub p_bound: [T; 3],
}

impl<T: Num> ExactSet<T> {
    /// Builds the three instances for run seed `seed`.
    pub fn build(seed: u64) -> ExactSet<T> {
        let ring = rank2_instance(2048, 16, EXACT_TIGHTNESS, seed);
        let hyper = rank3_instance(512, 16, EXACT_TIGHTNESS, seed);
        let hyper_wide = rank3_instance(128, 32, EXACT_TIGHTNESS, seed);
        let p_bound = [
            ring.max_event_probability(),
            hyper.max_event_probability(),
            hyper_wide.max_event_probability(),
        ];
        ExactSet {
            ring,
            hyper,
            hyper_wide,
            p_bound,
        }
    }
}

/// A rank-2 bad-set instance on `ring(n)`: a `k`-ary variable per edge
/// and, per node, a random bad subset of its support's combinations
/// sized for tightness `t` (`⌊t·k^deg/2^d⌋` combinations).
pub fn rank2_instance<T: Num>(n: usize, k: usize, t: f64, seed: u64) -> Instance<T> {
    let affects: Vec<Vec<usize>> = ring_edges(n).into_iter().map(|(u, v)| vec![u, v]).collect();
    bad_set_instance(n, &affects, 2, k, t, seed)
}

/// A rank-3 bad-set instance on the hyper-ring of `n` nodes (hyperedge
/// `i` = `{i, i+1, i+2}`), sized as in [`rank2_instance`].
pub fn rank3_instance<T: Num>(n: usize, k: usize, t: f64, seed: u64) -> Instance<T> {
    let affects: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut e = vec![i, (i + 1) % n, (i + 2) % n];
            e.sort_unstable();
            e
        })
        .collect();
    bad_set_instance(n, &affects, 4, k, t, seed)
}

fn bad_set_instance<T: Num>(
    n: usize,
    affects: &[Vec<usize>],
    d: i32,
    k: usize,
    t: f64,
    seed: u64,
) -> Instance<T> {
    let mut rng = Rng::new(seed);
    let mut b = InstanceBuilder::<T>::new(n);
    let mut supports = vec![Vec::new(); n];
    for (x, a) in affects.iter().enumerate() {
        b.add_uniform_variable(a, k);
        for &v in a {
            supports[v].push(x);
        }
    }
    for (v, support) in supports.into_iter().enumerate() {
        let total = k.pow(support.len() as u32);
        let bad_count = ((t * total as f64 / 2f64.powi(d)).floor() as usize).min(total);
        let mut bad = BTreeSet::new();
        while bad.len() < bad_count {
            bad.insert(rng.below(total));
        }
        let bad: Vec<usize> = bad.into_iter().collect();
        b.set_event_predicate(v, move |vals| {
            let idx = support.iter().rev().fold(0, |acc, &x| acc * k + vals[x]);
            bad.binary_search(&idx).is_ok()
        });
    }
    b.build().expect("generated exact instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: Workload, seed: u64, n: u64) -> Vec<String> {
        (0..n)
            .map(|i| op(w, seed, Stream::Timed, i).line())
            .collect()
    }

    /// (variables, events, literals or incidences) per op.
    fn shape(o: &Op) -> (usize, usize, usize) {
        match &o.payload {
            Payload::Cnf(c) => (
                c.num_vars,
                c.clauses.len(),
                c.clauses.iter().map(Vec::len).sum(),
            ),
            Payload::Graph(g) => (g.affects.len(), g.events.len(), 2 * g.affects.len()),
        }
    }

    #[test]
    fn same_seed_gives_same_bytes() {
        for w in [
            Workload::ServeWarm,
            Workload::ServeCold,
            Workload::ServeWide,
        ] {
            assert_eq!(lines(w, 11, 40), lines(w, 11, 40), "{}", w.name());
            assert_ne!(lines(w, 11, 40), lines(w, 12, 40), "{}", w.name());
        }
    }

    #[test]
    fn new_seed_keeps_shape_statistics() {
        for w in [
            Workload::ServeWarm,
            Workload::ServeCold,
            Workload::ServeWide,
        ] {
            for i in 0..64 {
                let a = op(w, 1, Stream::Timed, i);
                let b = op(w, 99, Stream::Timed, i);
                assert_eq!(shape(&a), shape(&b), "{} op {i}", w.name());
            }
        }
    }

    #[test]
    fn generated_requests_are_solvable_instances() {
        for w in [
            Workload::ServeWarm,
            Workload::ServeCold,
            Workload::ServeWide,
        ] {
            for i in 0..8 {
                let o = op(w, 3, Stream::Timed, i);
                let inst = o.instance();
                assert!(inst.max_rank() <= 3);
                assert!(
                    inst.satisfies_exponential_criterion(),
                    "{} op {i}",
                    w.name()
                );
                let request = lll_serve::Request::parse(&o.line());
                assert!(request.is_ok(), "{} op {i}: {request:?}", w.name());
            }
        }
    }

    #[test]
    fn cold_requests_bring_new_graphs() {
        let mut seen = BTreeSet::new();
        for i in 0..64 {
            let g = op(Workload::ServeCold, 5, Stream::Timed, i).instance();
            assert!(seen.insert(g.dependency_graph().fingerprint()), "op {i}");
        }
    }

    #[test]
    fn independent_check_agrees_with_violated_events() {
        let o = op(Workload::ServeCold, 2, Stream::Timed, 1);
        let inst = o.instance();
        let mut rng = Rng::new(4);
        for _ in 0..200 {
            let a: Vec<usize> = (0..o.num_vars()).map(|_| rng.below(3)).collect();
            let clean = inst.violated_events(&a).expect("right length").is_empty();
            assert_eq!(clean, o.satisfied_by(&a));
        }
    }
}
