//! At the default seed the `audited-exact` instances must equal E22's:
//! same dependency graph, same event probabilities, and the same bad
//! sets (probed through `violated_events` on random assignments).

use lll_bench::workloads::{random_rank2_instance_in, random_rank3_instance_in};
use lll_core::Instance;
use lll_graphs::gen::{hyper_ring, ring};
use lll_numeric::BigRational;
use perfbench::{gen, rng};

fn assert_same(ours: &Instance<BigRational>, theirs: &Instance<BigRational>, what: &str) {
    assert_eq!(
        ours.dependency_graph(),
        theirs.dependency_graph(),
        "{what}: graph"
    );
    assert_eq!(
        ours.num_variables(),
        theirs.num_variables(),
        "{what}: variables"
    );
    for v in 0..ours.num_events() {
        assert_eq!(
            ours.unconditional_probability(v),
            theirs.unconditional_probability(v),
            "{what}: event {v}"
        );
    }
    let k = ours.variable(0).num_values();
    let mut r = rng::Rng::new(99);
    for _ in 0..64 {
        let a: Vec<usize> = (0..ours.num_variables()).map(|_| r.below(k)).collect();
        assert_eq!(
            ours.violated_events(&a).unwrap(),
            theirs.violated_events(&a).unwrap(),
            "{what}: bad sets"
        );
    }
}

#[test]
fn default_seed_instances_equal_e22() {
    let set = gen::ExactSet::<BigRational>::build(gen::DEFAULT_SEED);
    let t = gen::EXACT_TIGHTNESS;
    let s = gen::DEFAULT_SEED;
    assert_same(
        &set.ring,
        &random_rank2_instance_in(&ring(2048), 16, t, s),
        "ring(2048)",
    );
    assert_same(
        &set.hyper,
        &random_rank3_instance_in(&hyper_ring(512), 16, t, s),
        "hyper_ring(512)",
    );
    assert_same(
        &set.hyper_wide,
        &random_rank3_instance_in(&hyper_ring(128), 32, t, s),
        "hyper_ring(128), k=32",
    );
}

#[test]
fn other_seeds_keep_the_shapes() {
    let a = gen::ExactSet::<f64>::build(1);
    let b = gen::ExactSet::<f64>::build(2);
    assert_eq!(a.ring.dependency_graph(), b.ring.dependency_graph());
    assert_eq!(a.hyper.dependency_graph(), b.hyper.dependency_graph());
    assert_eq!(a.p_bound, b.p_bound);
}
