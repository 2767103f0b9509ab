//! Tuple-pair similarity functions — the `sim(t, t′)` ingredient of
//! approximate join functions (Section 6).
//!
//! The paper assumes a symmetric `sim` and notes that "the values
//! `sim(t, t′)` can be defined in many different ways, e.g., using edit
//! distance, tf-idf, etc." (footnote 7). We provide:
//!
//! * [`ExactSim`] — 1.0 iff the pair is join consistent in the exact
//!   sense; turns approximate algorithms back into exact ones;
//! * [`EditDistanceSim`] — per-shared-attribute normalized Levenshtein
//!   similarity for strings, relative closeness for numbers, combined by
//!   the minimum over shared attributes;
//! * [`TableSim`] — explicit per-pair overrides on top of a fallback,
//!   used to reproduce Fig. 4 of the paper verbatim.

use crate::getnext::{Exact, Policy};
use crate::jcc::tuples_join_consistent;
use fd_relational::fxhash::FxHashMap;
use fd_relational::{Database, RelId, TupleId, Value};

/// A symmetric tuple-pair similarity in `[0, 1]`.
pub trait Similarity {
    /// `sim(t1, t2)`. Implementations must be symmetric; tuples of the
    /// same relation are never combinable, and callers never ask about
    /// them.
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64;

    /// Bounds line 7's candidates (Figs. 5–6): appends to `out`, in any
    /// order, a superset of the live tuples `tb` of `rel` with
    /// `sim(m, tb) ≥ tau`, and returns `true`. `rel` shares an attribute
    /// with `m`'s relation. Returns `false` when the similarity cannot
    /// bound them; the caller then scans `rel`. The default returns
    /// `false`.
    fn candidates(
        &self,
        _db: &Database,
        _m: TupleId,
        _rel: RelId,
        _tau: f64,
        _out: &mut Vec<TupleId>,
    ) -> bool {
        false
    }
}

/// Exact-match similarity: 1.0 iff every shared attribute is equal and
/// non-null. With `τ > 0` this reduces approximate full disjunctions to
/// exact ones — a key cross-check between the algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSim;

impl Similarity for ExactSim {
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64 {
        if tuples_join_consistent(db, t1, t2) {
            1.0
        } else {
            0.0
        }
    }

    /// For `τ > 0`, `sim(m, tb) ≥ τ` means `tb` agrees with `m` on every
    /// shared attribute: the exact policy's posting-list probe answers.
    /// At `τ ≤ 0` every tuple passes.
    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        if tau.is_nan() || tau <= 0.0 {
            return false;
        }
        Exact.candidates(db, m, rel, out)
    }
}

/// Levenshtein distance with the classic two-row dynamic program. ASCII
/// pairs run over bytes in stack rows; other input runs over `char`s.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return byte_levenshtein(a.as_bytes(), b.as_bytes(), usize::MAX)
            .expect("an unbounded distance is always returned");
    }
    char_levenshtein(a, b)
}

/// [`levenshtein`] over `char`s.
fn char_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// DP rows of at most this many cells live on the stack.
const STACK_ROW: usize = 64;

/// Levenshtein distance of two byte strings, or `None` once it must
/// exceed `k`. The rows run over the shorter string.
fn byte_levenshtein(a: &[u8], b: &[u8], k: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if a.len() - b.len() > k {
        return None;
    }
    let n = b.len();
    if n < STACK_ROW {
        let (mut prev, mut cur) = ([0; STACK_ROW], [0; STACK_ROW]);
        bounded_rows(a, b, k, &mut prev[..=n], &mut cur[..=n])
    } else {
        bounded_rows(a, b, k, &mut vec![0; n + 1], &mut vec![0; n + 1])
    }
}

/// The two-row program of [`byte_levenshtein`] over caller-provided rows
/// of `b.len() + 1` cells.
fn bounded_rows<'r>(
    a: &[u8],
    b: &[u8],
    k: usize,
    mut prev: &'r mut [usize],
    mut cur: &'r mut [usize],
) -> Option<usize> {
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        // Row minima never decrease, so the distance is at least this one.
        if row_min > k {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[b.len()];
    (d <= k).then_some(d)
}

/// Normalized string similarity: `1 − lev(a,b) / max(|a|,|b|)`.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Decides `string_similarity(a, b) >= tau`. ASCII pairs stop the edit
/// distance once it exceeds the largest distance that still reaches
/// `tau`; other input computes the similarity.
fn string_similarity_at_least(a: &str, b: &str, tau: f64) -> bool {
    if !(a.is_ascii() && b.is_ascii()) {
        return string_similarity(a, b) >= tau;
    }
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0 >= tau;
    }
    // `string_similarity`'s own expression, which never increases with
    // the distance `d`: the distances reaching τ are `0..=k`.
    let reaches = |d: usize| 1.0 - d as f64 / max_len as f64 >= tau;
    let Some(k) = (0..=max_len).take_while(|&d| reaches(d)).last() else {
        return false;
    };
    byte_levenshtein(a.as_bytes(), b.as_bytes(), k).is_some()
}

/// Value-level similarity: exact types compare structurally; strings via
/// normalized edit distance; numbers via relative closeness
/// `1 − |x−y| / max(|x|,|y|,1)`; nulls and mismatched types score 0.
pub fn value_similarity(a: &Value, b: &Value) -> f64 {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => 0.0,
        (Value::Str(x), Value::Str(y)) => string_similarity(x, y),
        (Value::Int(x), Value::Int(y)) => numeric_similarity(*x as f64, *y as f64),
        (Value::Float(x), Value::Float(y)) => numeric_similarity(*x, *y),
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => {
            numeric_similarity(*x as f64, *y)
        }
        (Value::Bool(x), Value::Bool(y)) if x == y => 1.0,
        (Value::Bool(_), Value::Bool(_)) => 0.0,
        _ => 0.0,
    }
}

/// Decides `value_similarity(a, b) >= tau`, with a bounded edit
/// distance for strings.
pub fn value_similarity_at_least(a: &Value, b: &Value, tau: f64) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => string_similarity_at_least(x, y, tau),
        _ => value_similarity(a, b) >= tau,
    }
}

fn numeric_similarity(x: f64, y: f64) -> f64 {
    let scale = x.abs().max(y.abs()).max(1.0);
    (1.0 - (x - y).abs() / scale).max(0.0)
}

/// Attribute-wise similarity: the minimum of [`value_similarity`] over
/// the shared attributes of the pair's schemas (0 when the relations
/// share no attribute — such pairs are not connected).
#[derive(Debug, Clone, Copy, Default)]
pub struct EditDistanceSim;

impl Similarity for EditDistanceSim {
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64 {
        let (r1, r2) = (db.rel_of(t1), db.rel_of(t2));
        let shared = db.shared_attrs(r1, r2);
        if shared.is_empty() {
            return 0.0;
        }
        shared
            .iter()
            .map(|&a| {
                let v1 = db.tuple_value(t1, a).expect("shared attr");
                let v2 = db.tuple_value(t2, a).expect("shared attr");
                value_similarity(v1, v2)
            })
            .fold(1.0, f64::min)
    }

    /// The minimum over shared attributes is at most the similarity on
    /// the first one, so the tuples whose value there reaches `τ` against
    /// `m`'s are a superset: one test per distinct value
    /// ([`Database::probe_similar`]). Only for `τ > 0`: nulls are not
    /// indexed, and `value_similarity(⊥, ·) = 0` passes at `τ = 0`. An
    /// approximate run probes each (member, relation) pair once and reads
    /// the answer from its memo after that ([`crate::approx::SimMemo`]).
    fn candidates(
        &self,
        db: &Database,
        m: TupleId,
        rel: RelId,
        tau: f64,
        out: &mut Vec<TupleId>,
    ) -> bool {
        if tau.is_nan() || tau <= 0.0 {
            return false;
        }
        let Some(&attr) = db.shared_attrs(db.rel_of(m), rel).first() else {
            return true;
        };
        let v = db.tuple_value(m, attr).expect("shared attr");
        if !v.is_null() {
            out.extend(db.probe_similar(rel, attr, |w| value_similarity_at_least(v, w, tau)));
        }
        true
    }
}

/// Similarity with explicit per-pair values over a fallback — reproduces
/// the paper's Fig. 4 edge annotations exactly. An override can lift any
/// pair, so it keeps the default [`candidates`](Similarity::candidates)
/// and line 7 scans.
#[derive(Debug, Clone)]
pub struct TableSim<S> {
    overrides: FxHashMap<(TupleId, TupleId), f64>,
    fallback: S,
}

impl<S: Similarity> TableSim<S> {
    /// Builds over a fallback similarity.
    pub fn new(fallback: S) -> Self {
        TableSim {
            overrides: FxHashMap::default(),
            fallback,
        }
    }

    /// Sets `sim(a, b) = sim(b, a) = value`.
    pub fn set(&mut self, a: TupleId, b: TupleId, value: f64) -> &mut Self {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.overrides.insert(key, value);
        self
    }
}

impl<S: Similarity> Similarity for TableSim<S> {
    fn sim(&self, db: &Database, t1: TupleId, t2: TupleId) -> f64 {
        let key = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        match self.overrides.get(&key) {
            Some(&v) => v,
            None => self.fallback.sim(db, t1, t2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relational::tourist_database;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("Canada", "Cannada"), 1);
    }

    /// The `char` program on both paths' inputs, including rows longer
    /// than the stack rows and non-ASCII text.
    #[test]
    fn byte_levenshtein_equals_the_char_program() {
        let long_a = "ab".repeat(40);
        let long_b = format!("{}x{}", "ab".repeat(20), "ba".repeat(19));
        let words = [
            "",
            "a",
            "ab",
            "abc",
            "Canada",
            "Cannada",
            "kitten",
            "sitting",
            "Toronto",
            "London",
            "Londn",
            "Lodnon",
            "xyz",
            "Zürich",
            "Zurich",
            "日本",
            "日本語",
        ];
        let mut pairs: Vec<(String, String)> = Vec::new();
        for a in words {
            for b in words {
                pairs.push((a.into(), b.into()));
            }
        }
        pairs.push((long_a.clone(), long_b.clone()));
        pairs.push((long_a.clone(), "ab".into()));
        pairs.push((long_b, String::new()));
        pairs.push((long_a.clone(), long_a));
        for (a, b) in &pairs {
            assert_eq!(levenshtein(a, b), char_levenshtein(a, b), "{a:?} {b:?}");
        }
    }

    /// Random strings over a small alphabet, so near misses are common.
    fn random_strings(seed: u64, count: usize) -> Vec<String> {
        let alphabet: Vec<char> = "abcab-é".chars().collect();
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        (0..count)
            .map(|i| {
                // Every eighth string is long enough for heap rows.
                let len = if i % 8 == 7 {
                    64 + next() % 8
                } else {
                    next() % 9
                };
                let ascii = i % 3 != 0;
                (0..len)
                    .map(|_| alphabet[next() % (alphabet.len() - usize::from(ascii))])
                    .collect()
            })
            .collect()
    }

    /// `value_similarity_at_least` decides exactly as the similarity it
    /// bounds, with `τ` on every `1 − k/len` boundary of the pair's
    /// length, one ulp either side of it, and outside `(0, 1]`.
    #[test]
    fn bounded_similarity_decides_exactly_like_the_similarity() {
        let mut values: Vec<Value> = random_strings(7, 48).into_iter().map(Value::str).collect();
        values.extend([
            Value::str(""),
            Value::str("Zürich"),
            Value::str("Zurich"),
            Value::Int(10),
            Value::Int(9),
            Value::Int(-3),
            Value::Float(9.5),
            Value::Float(0.0),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
        ]);
        let chars = |v: &Value| match v {
            Value::Str(s) => s.chars().count(),
            _ => 1,
        };
        for a in &values {
            for b in &values {
                let exact = value_similarity(a, b);
                let len = chars(a).max(chars(b)).max(1);
                let mut taus = vec![0.0, 1.0, -0.5, 1.5, f64::NAN];
                for k in 0..=len {
                    let boundary = 1.0 - k as f64 / len as f64;
                    taus.push(boundary);
                    taus.push(f64::from_bits(boundary.to_bits() + 1));
                    if boundary > 0.0 {
                        taus.push(f64::from_bits(boundary.to_bits() - 1));
                    }
                }
                for tau in taus {
                    assert_eq!(
                        value_similarity_at_least(a, b, tau),
                        exact >= tau,
                        "{a} vs {b} at τ = {tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn string_similarity_normalizes() {
        assert_eq!(string_similarity("", ""), 1.0);
        assert!((string_similarity("Canada", "Cannada") - (1.0 - 1.0 / 7.0)).abs() < 1e-12);
        assert_eq!(string_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn value_similarity_cases() {
        assert_eq!(value_similarity(&Value::Null, &Value::Int(1)), 0.0);
        assert_eq!(value_similarity(&Value::Int(10), &Value::Int(10)), 1.0);
        assert!(value_similarity(&Value::Int(10), &Value::Int(9)) > 0.8);
        assert_eq!(value_similarity(&Value::str("a"), &Value::Int(1)), 0.0);
        assert_eq!(
            value_similarity(&Value::Bool(true), &Value::Bool(false)),
            0.0
        );
    }

    #[test]
    fn exact_sim_matches_join_consistency() {
        let db = tourist_database();
        let s = ExactSim;
        assert_eq!(s.sim(&db, TupleId(0), TupleId(3)), 1.0); // c1-a1
        assert_eq!(s.sim(&db, TupleId(3), TupleId(6)), 0.0); // a1-s1 (city)
    }

    #[test]
    fn edit_distance_sim_is_min_over_shared_attrs() {
        let db = tourist_database();
        let s = EditDistanceSim;
        // a2 (Canada, London, …) vs s1 (Canada, London, Air Show): both
        // shared attrs identical ⇒ 1.0.
        assert_eq!(s.sim(&db, TupleId(4), TupleId(6)), 1.0);
        // a1 (Toronto) vs s1 (London): City similarity is low; Country is
        // 1.0 ⇒ min < 0.5.
        assert!(s.sim(&db, TupleId(3), TupleId(6)) < 0.5);
        // s2 has a null City: against a1 the City similarity is 0.
        assert_eq!(s.sim(&db, TupleId(3), TupleId(7)), 0.0);
    }

    #[test]
    fn table_sim_is_symmetric() {
        let db = tourist_database();
        let mut s = TableSim::new(ExactSim);
        s.set(TupleId(0), TupleId(3), 0.8);
        assert_eq!(s.sim(&db, TupleId(0), TupleId(3)), 0.8);
        assert_eq!(s.sim(&db, TupleId(3), TupleId(0)), 0.8);
        // Fallback for unlisted pairs.
        assert_eq!(s.sim(&db, TupleId(0), TupleId(4)), 1.0);
    }
}
