//! Differential test: a conjunction declared with
//! `set_event_conjunction` (closed-form probability) must answer
//! `probability` and `probability_with` bit-for-bit like the same
//! conjunction written as an opaque predicate (sparse occurring-tuple
//! list up to `TABLE_LIMIT = 2^15`, dense odometer beyond it).
//!
//! Widths 1..=20 with domains k ∈ {1, 2, 3} cross the limit (2^16 and
//! 3^10 exceed it), the probabilities are biased and non-uniform so the
//! `f64` product order matters, and the conditioning partials are random:
//! consistent with the literals, contradicting them, or complete. `f64`
//! compares by `to_bits`, `BigRational` by `==`.

use lll_core::{Instance, InstanceBuilder, PartialAssignment};
use lll_numeric::{BigRational, Num};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Cap on the free part of a partial's value cube, so the dense
/// odometer stays cheap in debug builds.
const FREE_CUBE_CAP: usize = 1 << 12;

/// Partials drawn per (width, k, backend) instance pair.
const PARTIALS: usize = 12;

/// One random conjunction over `width` variables with domain `k` and
/// biased probabilities; `weights[x][y]` is proportional to `Pr[x = y]`.
struct Case {
    k: usize,
    weights: Vec<Vec<u64>>,
    literals: Vec<(usize, usize)>,
}

impl Case {
    fn random(rng: &mut StdRng, width: usize, k: usize) -> Case {
        let weights = (0..width)
            .map(|_| (0..k).map(|_| rng.random_range(1..=97u64)).collect())
            .collect();
        let mut literals: Vec<(usize, usize)> =
            (0..width).map(|x| (x, rng.random_range(0..k))).collect();
        // Repeated literals are legal; a contradicting repeat makes the
        // event impossible, which both paths must agree on.
        if width > 1 && rng.random_bool(0.2) {
            let (x, y) = literals[rng.random_range(0..width)];
            let y = if rng.random_bool(0.5) { y } else { (y + 1) % k };
            literals.push((x, y));
        }
        literals.shuffle(rng);
        Case {
            k,
            weights,
            literals,
        }
    }

    fn build<T: Num>(&self, closed_form: bool, prob: impl Fn(u64, u64) -> T) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(1);
        for w in &self.weights {
            let total: u64 = w.iter().sum();
            b.add_variable(&[0], w.iter().map(|&wi| prob(wi, total)).collect());
        }
        if closed_form {
            b.set_event_conjunction(0, &self.literals);
        } else {
            let lits = self.literals.clone();
            b.set_event_predicate(0, move |vals| lits.iter().all(|&(x, y)| vals[x] == y));
        }
        b.build().unwrap()
    }

    /// A random partial over the event's variables whose free cube stays
    /// within [`FREE_CUBE_CAP`]; fixed values mostly agree with the
    /// literals so the product arm is exercised, not just mismatches.
    fn partial(&self, rng: &mut StdRng) -> PartialAssignment {
        let width = self.weights.len();
        let want: Vec<usize> = (0..width)
            .map(|x| self.literals.iter().find(|l| l.0 == x).unwrap().1)
            .collect();
        let fix_prob = [0.0, 0.3, 0.7, 1.0][rng.random_range(0..4usize)];
        let mut fixed: Vec<bool> = (0..width).map(|_| rng.random_bool(fix_prob)).collect();
        let mut order: Vec<usize> = (0..width).collect();
        order.shuffle(rng);
        let mut cube: usize = fixed.iter().filter(|&&f| !f).map(|_| self.k).product();
        for &x in &order {
            if cube <= FREE_CUBE_CAP {
                break;
            }
            if !fixed[x] {
                fixed[x] = true;
                cube /= self.k;
            }
        }
        let mut partial = PartialAssignment::new(width);
        for x in (0..width).filter(|&x| fixed[x]) {
            let value = if rng.random_bool(0.85) {
                want[x]
            } else {
                rng.random_range(0..self.k)
            };
            partial.fix(x, value);
        }
        partial
    }
}

/// Asserts closed form and predicate path agree on `probability` and on
/// `probability_with` for every value of every free variable.
fn assert_paths_agree<T: Num>(
    closed: &Instance<T>,
    pred: &Instance<T>,
    partial: &PartialAssignment,
    same: impl Fn(&T, &T) -> bool,
    context: &str,
) {
    let (c, p) = (closed.probability(0, partial), pred.probability(0, partial));
    assert!(
        same(&c, &p),
        "probability differs ({context}): {c:?} vs {p:?}"
    );
    for x in (0..closed.num_variables()).filter(|&x| partial.get(x).is_none()) {
        for y in 0..closed.variable(x).num_values() {
            let c = closed.probability_with(0, partial, x, y);
            let p = pred.probability_with(0, partial, x, y);
            assert!(
                same(&c, &p),
                "probability_with x{x}={y} differs ({context}): {c:?} vs {p:?}"
            );
        }
    }
}

#[test]
fn closed_form_matches_the_predicate_path_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC0_4A_11);
    for width in 1..=20 {
        for k in 1..=3 {
            let case = Case::random(&mut rng, width, k);
            let context = |i: usize| format!("width {width}, k {k}, partial {i}");

            let closed = case.build(true, |w, t| w as f64 / t as f64);
            let pred = case.build(false, |w, t| w as f64 / t as f64);
            for i in 0..PARTIALS {
                let partial = case.partial(&mut rng);
                let bits = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
                assert_paths_agree(&closed, &pred, &partial, bits, &context(i));
            }

            let closed = case.build(true, |w, t| BigRational::from_ratio(w as i64, t));
            let pred = case.build(false, |w, t| BigRational::from_ratio(w as i64, t));
            for i in 0..PARTIALS {
                let partial = case.partial(&mut rng);
                let eq = |a: &BigRational, b: &BigRational| a == b;
                assert_paths_agree(&closed, &pred, &partial, eq, &context(i));
            }
        }
    }
}

#[test]
fn a_support_wider_than_the_literals_falls_back_to_the_predicate_path() {
    // x's literal is tested, y affects the event but is not. In f64 the
    // predicate path sums over y: 0.1·0.05 + 0.1·0.25 + 0.1·0.7 rounds
    // to 0.09999999999999999, while a closed form would say 0.1 — so the
    // fallback is observable in the bits.
    let build = |closed_form: bool| {
        let mut b = InstanceBuilder::<f64>::new(1);
        let x = b.add_variable(&[0], vec![0.1, 0.9]);
        let y = b.add_variable(&[0], vec![0.05, 0.25, 0.7]);
        assert_eq!((x, y), (0, 1));
        if closed_form {
            b.set_event_conjunction(0, &[(x, 0)]);
        } else {
            b.set_event_predicate(0, move |vals| vals[x] == 0);
        }
        b.build().unwrap()
    };
    let (conj, pred) = (build(true), build(false));
    assert!(format!("{:?}", conj.event(0)).contains("closed_form: false"));

    let empty = PartialAssignment::new(2);
    let p = conj.unconditional_probability(0);
    assert_eq!(p.to_bits(), pred.unconditional_probability(0).to_bits());
    assert_eq!(p, 0.09999999999999999);
    assert_ne!(p, 0.1);
    for y in 0..3 {
        let c = conj.probability_with(0, &empty, 1, y);
        assert_eq!(
            c.to_bits(),
            pred.probability_with(0, &empty, 1, y).to_bits()
        );
    }
    assert_eq!(conj.violated_events(&[0, 2]).unwrap(), vec![0]);
    assert!(conj.no_event_occurs(&[1, 2]).unwrap());

    // The whole-support conjunction on the same variables is closed-form.
    let mut b = InstanceBuilder::<f64>::new(1);
    b.add_variable(&[0], vec![0.1, 0.9]);
    b.add_variable(&[0], vec![0.05, 0.25, 0.7]);
    b.set_event_conjunction(0, &[(1, 2), (0, 0)]);
    let full = b.build().unwrap();
    assert!(format!("{:?}", full.event(0)).contains("closed_form: true"));
}
