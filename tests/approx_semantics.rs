//! `APPROXINCREMENTALFD` semantics on generated workloads: agreement
//! with the definitional oracle, Definition 6.2's three axioms, typo
//! recovery with edit-distance similarity, τ monotonicity, and the
//! policy's per-run similarity memo.

use full_disjunction::baselines::oracle_afd;
use full_disjunction::core::sim::{EditDistanceSim, Similarity};
use full_disjunction::core::{canonicalize, AMin, AProd, ApproxJoin, ExactSim};
use full_disjunction::prelude::*;
use full_disjunction::workloads::{chain, random_probability, star, DataSpec};
use std::collections::HashSet;
use std::sync::{Mutex, PoisonError};

fn approx_full_disjunction<A: ApproxJoin + Sync>(db: &Database, a: &A, tau: f64) -> Vec<TupleSet> {
    FdQuery::over(db)
        .approx(a, tau)
        .run()
        .expect("valid approx query")
        .into_sets()
}

fn amin_edit(db: &Database) -> AMin<EditDistanceSim> {
    AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0))
}

#[test]
fn afd_agrees_with_oracle_on_typo_workloads() {
    for seed in [1u64, 2, 3] {
        let db = chain(3, &DataSpec::new(4, 3).seed(seed).typos(0.4));
        let a = amin_edit(&db);
        for tau in [0.6, 0.8, 0.95] {
            let got = canonicalize(approx_full_disjunction(&db, &a, tau));
            let want = oracle_afd(&db, &a, tau);
            assert_eq!(got, want, "seed {seed} τ {tau}");
        }
    }
}

#[test]
fn afd_satisfies_definition_6_2() {
    let db = chain(3, &DataSpec::new(5, 3).seed(4).typos(0.3));
    let a = amin_edit(&db);
    let tau = 0.7;
    let afd = approx_full_disjunction(&db, &a, tau);

    // (ii) every result scores at least τ.
    for s in &afd {
        assert!(a.score(&db, s.tuples()) >= tau);
    }
    // (i) no redundancy.
    for x in &afd {
        for y in &afd {
            if x.tuples() != y.tuples() {
                assert!(!x.is_subset_of(y));
            }
        }
    }
    // (iii) every acceptable singleton is represented.
    for t in db.all_tuples() {
        if a.score(&db, &[t]) >= tau {
            assert!(afd.iter().any(|s| s.contains(t)), "tuple {t} lost");
        }
    }
}

#[test]
fn edit_distance_recovers_typos_that_exact_matching_loses() {
    // A database with heavy typo noise on the join attribute.
    let db = chain(2, &DataSpec::new(12, 3).seed(5).typos(0.6));
    let exact_fd = FdQuery::over(&db).run().unwrap().into_sets();
    let a = amin_edit(&db);
    let afd = approx_full_disjunction(&db, &a, 0.75);
    let pairs = |sets: &[TupleSet]| sets.iter().filter(|s| s.len() >= 2).count();
    assert!(
        pairs(&afd) >= pairs(&exact_fd),
        "approx must recover at least the exact joins"
    );
    // With this much noise, approx joins must strictly beat exact ones.
    assert!(
        pairs(&afd) > pairs(&exact_fd),
        "expected typo'd values to join approximately (afd {} vs fd {})",
        pairs(&afd),
        pairs(&exact_fd)
    );
}

#[test]
fn tau_monotonicity_results_nest() {
    let db = chain(3, &DataSpec::new(5, 3).seed(6).typos(0.3));
    let a = amin_edit(&db);
    let taus = [0.95, 0.8, 0.6];
    let mut previous: Option<Vec<TupleSet>> = None;
    for tau in taus {
        let afd = approx_full_disjunction(&db, &a, tau);
        if let Some(stricter) = &previous {
            // Every stricter-τ result is contained in some looser-τ one.
            for s in stricter {
                assert!(
                    afd.iter().any(|l| s.is_subset_of(l)),
                    "τ nesting violated at {tau}"
                );
            }
        }
        previous = Some(afd);
    }
}

#[test]
fn aprod_agrees_with_oracle_on_small_inputs() {
    for seed in [7u64, 8] {
        let db = chain(2, &DataSpec::new(4, 2).seed(seed).typos(0.4));
        let a = AProd::new(EditDistanceSim);
        for tau in [0.5, 0.8] {
            let got = canonicalize(approx_full_disjunction(&db, &a, tau));
            let want = oracle_afd(&db, &a, tau);
            assert_eq!(got, want, "seed {seed} τ {tau}");
        }
    }
}

#[test]
fn probability_threshold_excludes_uncertain_tuples() {
    let db = chain(2, &DataSpec::new(6, 3).seed(9));
    let prob = random_probability(&db, 0.0, 10);
    let a = AMin::new(ExactSim, prob.clone());
    let tau = 0.5;
    let afd = approx_full_disjunction(&db, &a, tau);
    for t in db.all_tuples() {
        let appears = afd.iter().any(|s| s.contains(t));
        assert_eq!(
            appears,
            prob.prob(t) >= tau,
            "tuple {t} with prob {}",
            prob.prob(t)
        );
    }
}

#[test]
fn tau_zero_is_everything_tau_above_one_is_nothing() {
    let db = chain(2, &DataSpec::new(4, 2).seed(11));
    let a = amin_edit(&db);
    // τ > 1 can never be met — the builder reports it as a typed error
    // (Definition 6.2 restricts τ to [0, 1]) instead of running to an
    // empty answer.
    assert_eq!(
        FdQuery::over(&db).approx(&a, 1.01).run().unwrap_err(),
        FdError::InvalidTau { tau: 1.01 }
    );
    // τ = 0 is met by every connected set; results must cover all tuples.
    let afd = approx_full_disjunction(&db, &a, 0.0);
    for t in db.all_tuples() {
        assert!(afd.iter().any(|s| s.contains(t)));
    }
}

/// Two databases over the same schema and tuple ids (Climates 0–1,
/// Sites 2–3, Hotels 4–5) whose `Country` strings pair differently: in
/// the first, Sites holds the near misses of the Climates countries; in
/// the second, Hotels does. `Portugal`/`Portugel` is one edit in eight
/// letters (similarity 1 − 1/8 = 0.875) and `Madagascar`/`Madagaskar`
/// one in ten (1 − 1/10 = 0.9).
fn twin_databases() -> [Database; 2] {
    let build = |sites: [&str; 2], hotels: [&str; 2]| {
        let mut b = DatabaseBuilder::new();
        b.relation("Climates", &["Country", "Climate"])
            .row(["Portugal", "mild"])
            .row(["Madagascar", "hot"]);
        b.relation("Sites", &["Country", "Site"])
            .row([sites[0], "tower"])
            .row([sites[1], "baobab"]);
        b.relation("Hotels", &["Country", "Hotel"])
            .row([hotels[0], "inn"])
            .row([hotels[1], "spa"]);
        b.build().expect("valid database")
    };
    let near = ["Portugel", "Madagaskar"];
    let far = ["Slovakia", "Slovenia"];
    [build(near, far), build(far, near)]
}

/// The approximate policy memoizes `sim` and line 7's bounds per run, not
/// per join function: one `AMin` value run over two databases with equal
/// tuple ids must give each database its own oracle answer, sequentially
/// and in parallel, at τ on the similarity boundaries of both name
/// lengths. At τ = 0.875 the pair's similarity equals τ exactly. At
/// τ = 0.9 it equals τ too, but 0.9 rounded to `f32` lies below it, so
/// a memo holding rounded values would drop the `Madagascar` join.
#[test]
fn similarity_memo_is_per_run_not_per_join_function() {
    assert!(f64::from(0.9f64 as f32) < 0.9, "the f32 boundary case");
    let dbs = twin_databases();
    let a = amin_edit(&dbs[0]);
    let [c0, c1, s0, s1, h0, h1] = [0, 1, 2, 3, 4, 5].map(TupleId);
    for tau in [0.875, 0.9] {
        let mut answers = Vec::new();
        // First database, second, then the first again.
        for db in [&dbs[0], &dbs[1], &dbs[0]] {
            let want = oracle_afd(db, &a, tau);
            let sequential = canonicalize(approx_full_disjunction(db, &a, tau));
            assert_eq!(sequential, want, "sequential run at τ {tau}");
            let parallel = FdQuery::over(db)
                .approx(&a, tau)
                .parallel(2)
                .run()
                .expect("valid approx query")
                .into_sets();
            assert_eq!(canonicalize(parallel), want, "parallel run at τ {tau}");
            answers.push(want.iter().map(|s| s.tuples().to_vec()).collect::<Vec<_>>());
        }
        assert_eq!(answers[0], answers[2], "τ {tau}");
        // The boundary joins happen, each in its own database.
        let has = |answers: &[Vec<TupleId>], set: &[TupleId]| answers.iter().any(|s| s == set);
        assert!(has(&answers[0], &[c1, s1]) && has(&answers[1], &[c1, h1]));
        assert_eq!(has(&answers[0], &[c0, s0]), tau <= 0.875, "τ {tau}");
        assert_eq!(has(&answers[1], &[c0, h0]), tau <= 0.875, "τ {tau}");
        assert!(!has(&answers[1], &[c1, s1]) && !has(&answers[0], &[c1, h1]));
    }
}

/// `EditDistanceSim` recording every `sim` pair and every line-7 bound
/// (member, relation) key it is asked for, repeats included.
struct CountingSim<'a> {
    pairs: &'a Mutex<Vec<(TupleId, TupleId)>>,
    bounds: &'a Mutex<Vec<(TupleId, RelId)>>,
}

impl Similarity for CountingSim<'_> {
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64 {
        let pair = (t1.min(t2), t1.max(t2));
        self.pairs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(pair);
        EditDistanceSim.sim(db, t1, t2)
    }

    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        self.bounds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((m, rel));
        EditDistanceSim.candidates(db, m, rel, tau, out)
    }
}

/// Each count and its number of distinct entries.
fn calls_and_distinct<T: Copy + Eq + std::hash::Hash>(calls: &Mutex<Vec<T>>) -> (usize, usize) {
    let calls = calls.lock().unwrap_or_else(PoisonError::into_inner);
    (calls.len(), calls.iter().collect::<HashSet<_>>().len())
}

/// A sequential approximate run computes each pair similarity and probes
/// each (member, relation) bound once, and still gives the oracle's
/// answers.
#[test]
fn a_run_computes_each_pair_similarity_and_bound_once() {
    let db = star(3, &DataSpec::new(12, 6).seed(0xFD).typos(0.2));
    let tau = 0.8;
    let (pairs, bounds) = (Mutex::default(), Mutex::default());
    let counting = CountingSim {
        pairs: &pairs,
        bounds: &bounds,
    };
    let a = AMin::new(counting, ProbScores::uniform(&db, 1.0));
    let got = canonicalize(approx_full_disjunction(&db, &a, tau));
    assert_eq!(got, oracle_afd(&db, &amin_edit(&db), tau));
    let (sims, distinct_pairs) = calls_and_distinct(&pairs);
    let (probes, distinct_keys) = calls_and_distinct(&bounds);
    assert!(distinct_pairs > 0 && distinct_keys > 0);
    assert_eq!(sims, distinct_pairs, "a pair similarity computed twice");
    assert_eq!(probes, distinct_keys, "a line-7 bound probed twice");
}

/// `EditDistanceSim` without its line-7 bound: `candidates` keeps the
/// default `false`, so line 7 and lines 2–6's extension scan every
/// relation.
struct UnboundedEditDistance;

impl Similarity for UnboundedEditDistance {
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64 {
        EditDistanceSim.sim(db, t1, t2)
    }
}

/// The extension tries only the tuples within line 7's bound when the
/// similarity gives one, and that loses nothing: the bounded and the
/// scanning run emit the same sets in the same order, the oracle's, and
/// the bounded run tries fewer extension candidates.
#[test]
fn bounded_extension_matches_the_scanning_one() {
    let db = star(3, &DataSpec::new(12, 6).seed(0xFD).typos(0.2));
    let tau = 0.8;
    let (bounded, bounded_scans) = sets_and_extension_scans(&db, &amin_edit(&db), tau);
    let unbounded = AMin::new(UnboundedEditDistance, ProbScores::uniform(&db, 1.0));
    let (scanned, scanned_scans) = sets_and_extension_scans(&db, &unbounded, tau);
    assert_eq!(bounded, scanned, "emission differs");
    assert_eq!(canonicalize(bounded), oracle_afd(&db, &amin_edit(&db), tau));
    assert!(
        bounded_scans < scanned_scans,
        "{bounded_scans} bounded against {scanned_scans} scanned extension candidates"
    );
}

/// One approximate run's sets, in emission order, and its
/// `extension_scans`.
fn sets_and_extension_scans<A: ApproxJoin + Sync>(
    db: &Database,
    a: &A,
    tau: f64,
) -> (Vec<TupleSet>, u64) {
    let result = FdQuery::over(db)
        .approx(a, tau)
        .run()
        .expect("valid approx query");
    let scans = result.stats().extension_scans;
    (result.into_sets(), scans)
}
