//! End-to-end reproduction of every worked example in the paper:
//! Table 1 → Table 2 (Example 2.2), the Table 3 execution trace
//! (Example 4.1), the natural-join remark, Fig. 4 with Examples 6.1/6.3,
//! and the NP-hardness reduction of Proposition 5.1.

use full_disjunction::baselines::{join_nonempty_direct, oracle_fd};
use full_disjunction::core::sim::TableSim;
use full_disjunction::core::{
    canonicalize, AMin, AProd, ApproxJoin, ExactSim, FdConfig, ProbScores, SimMemo,
};
use full_disjunction::prelude::*;
use full_disjunction::relational::join::natural_join_all;

fn full_disjunction(db: &Database) -> Vec<TupleSet> {
    FdQuery::over(db)
        .run()
        .expect("batch queries are valid")
        .into_sets()
}

fn approx_full_disjunction<A: ApproxJoin + Sync>(db: &Database, a: &A, tau: f64) -> Vec<TupleSet> {
    FdQuery::over(db)
        .approx(a, tau)
        .run()
        .expect("valid approx query")
        .into_sets()
}

const C1: TupleId = TupleId(0);
const C2: TupleId = TupleId(1);
const C3: TupleId = TupleId(2);
const A1: TupleId = TupleId(3);
const A2: TupleId = TupleId(4);
const A3: TupleId = TupleId(5);
const S1: TupleId = TupleId(6);
const S2: TupleId = TupleId(7);
const S3: TupleId = TupleId(8);
const S4: TupleId = TupleId(9);

/// Example 2.2 part 1: the natural join of Table 1 is the single tuple
/// (Canada, London, diverse, Ramada, 3, Air Show).
#[test]
fn natural_join_of_table_1_is_a_single_tuple() {
    let db = tourist_database();
    let join = natural_join_all(&db, &[RelId(0), RelId(1), RelId(2)]);
    assert_eq!(join.len(), 1);
    let row = &join.rows[0];
    let texts: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    for expected in ["Canada", "London", "diverse", "Ramada", "3", "Air Show"] {
        assert!(texts.contains(&expected.to_string()), "missing {expected}");
    }
}

/// Example 2.2 part 2 / Table 2: the full disjunction is exactly the six
/// tuple sets, including {c1, s2} with no Accommodations tuple (blocked
/// by s2's null City).
#[test]
fn full_disjunction_is_table_2() {
    let db = tourist_database();
    let fd = canonicalize(full_disjunction(&db));
    let got: Vec<Vec<TupleId>> = fd.iter().map(|s| s.tuples().to_vec()).collect();
    assert_eq!(
        got,
        vec![
            vec![C1, A1],
            vec![C1, A2, S1],
            vec![C1, S2],
            vec![C2, S3],
            vec![C2, S4],
            vec![C3, A3],
        ]
    );
    // And the brute-force oracle agrees with the definition.
    assert_eq!(fd, oracle_fd(&db));
}

/// Example 4.1 / Table 3: the exact contents of Incomplete and Complete
/// after initialization and after each of the six iterations, and the
/// claim that the loop iterates exactly as many times as there are
/// results.
#[test]
fn execution_trace_is_table_3() {
    let db = tourist_database();
    let mut it = FdiIter::with_config(&db, RelId(0), FdConfig::paper_faithful());

    let (inc, comp) = it.snapshot();
    assert_eq!(inc, vec!["{c1}", "{c2}", "{c3}"]);
    assert!(comp.is_empty());

    let table_3: [(&[&str], &[&str]); 6] = [
        (&["{c1, a2, s1}", "{c1, s2}", "{c2}", "{c3}"], &["{c1, a1}"]),
        (&["{c1, s2}", "{c2}", "{c3}"], &["{c1, a1}", "{c1, a2, s1}"]),
        (&["{c2}", "{c3}"], &["{c1, a1}", "{c1, a2, s1}", "{c1, s2}"]),
        (
            &["{c2, s4}", "{c3}"],
            &["{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}"],
        ),
        (
            &["{c3}"],
            &[
                "{c1, a1}",
                "{c1, a2, s1}",
                "{c1, s2}",
                "{c2, s3}",
                "{c2, s4}",
            ],
        ),
        (
            &[],
            &[
                "{c1, a1}",
                "{c1, a2, s1}",
                "{c1, s2}",
                "{c2, s3}",
                "{c2, s4}",
                "{c3, a3}",
            ],
        ),
    ];
    for (iteration, (want_inc, want_comp)) in table_3.iter().enumerate() {
        assert!(it.next().is_some());
        let (inc, comp) = it.snapshot();
        assert_eq!(&inc, want_inc, "Incomplete, iteration {}", iteration + 1);
        assert_eq!(&comp, want_comp, "Complete, iteration {}", iteration + 1);
    }
    // "the loop over Incomplete iterates exactly the same number of times
    // as there are tuple sets appearing in the result (i.e., 6 times)"
    assert!(it.next().is_none());
    assert_eq!(it.stats().results, 6);
}

/// Fig. 4 + Example 6.1 + Example 6.3, end to end.
#[test]
fn figure_4_and_examples_6_1_6_3() {
    let db = tourist_database();
    let mut sim = TableSim::new(ExactSim);
    sim.set(C1, A2, 0.8);
    sim.set(C1, S1, 0.8);
    sim.set(C1, S2, 0.8);
    sim.set(A2, S1, 1.0);
    sim.set(A2, S2, 0.5);
    let prob = ProbScores::from_fn(&db, |t| match t.0 {
        0 => 0.9,
        4 => 1.0,
        6 => 0.9,
        7 => 0.7,
        _ => 1.0,
    });
    let amin = AMin::new(sim.clone(), prob);
    let aprod = AProd::new(sim);

    // Example 6.1.
    assert!((amin.score(&db, &[C1, A2, S2]) - 0.5).abs() < 1e-12);
    assert!((aprod.score(&db, &[C1, A2, S2]) - 0.32).abs() < 1e-12);

    // Example 6.3: maximal subsets of {c1,s1,a2} ∪ {s2} at τ = 0.4.
    let t = full_disjunction::core::jcc::rebuild(&db, vec![C1, A2, S1]);
    let mut stats = Stats::new();
    let mut subsets = |a: &dyn ApproxJoin| {
        let mut subs: Vec<Vec<TupleId>> = Vec::new();
        a.for_each_maximal_subset(
            &db,
            &SimMemo::default(),
            &t,
            S2,
            0.4,
            &mut Vec::new(),
            &mut stats,
            &mut |m, _| subs.push(m.to_vec()),
        );
        subs
    };
    assert_eq!(subsets(&amin), vec![vec![C1, A2, S2]]);
    let mut m2 = subsets(&aprod);
    m2.sort();
    assert_eq!(m2, vec![vec![C1, S2], vec![A2, S2]]);
}

/// With exact similarity and certain tuples, the approximate full
/// disjunction collapses to the exact one for any τ ∈ (0, 1].
#[test]
fn afd_with_exact_similarity_is_fd() {
    let db = tourist_database();
    let amin = AMin::new(ExactSim, ProbScores::uniform(&db, 1.0));
    for tau in [0.01, 0.5, 1.0] {
        let afd = canonicalize(approx_full_disjunction(&db, &amin, tau));
        let fd = canonicalize(full_disjunction(&db));
        assert_eq!(afd, fd, "τ = {tau}");
    }
}

/// Proposition 5.1's reduction on the running example: with unit
/// importances the best f_sum answer has 3 = n tuples iff the natural
/// join is non-empty.
#[test]
fn proposition_5_1_reduction_on_table_1() {
    let db = tourist_database();
    assert!(join_nonempty_direct(&db));
    assert!(full_disjunction::baselines::join_nonempty_via_fsum(&db));
}
