//! Workload definitions and the inputs they generate.
//!
//! The databases, the rankings of the top-k queries and the pools of rows
//! that commits and served blocks insert come from a fixed shape seed, so
//! that the spread between runs measures the program rather than the draw
//! of a new instance: over 8 draws, a fresh `sparse` database moved
//! `full_ms` by ±20%, top-k time varies as much from one ranking to the
//! next, and the p99 of 1,000 commits of freshly drawn rows spread by 60%
//! between runs. The run seed orders the pools. `--shape-seed` draws
//! another instance.

use fd_core::ImpScores;
use fd_relational::{Database, RelId, Value};
use fd_workloads::{chain, random_importance, star, DataSpec};

/// The shape seed the benchmark uses unless `--shape-seed` says
/// otherwise.
pub const DEFAULT_SHAPE_SEED: u64 = 0xFD;

/// Rows each commit inserts (and the next commit deletes).
pub const COMMIT_ROWS: usize = 8;

/// Batches in a pool of rows; commits and served blocks cycle through it.
pub const POOL: usize = 256;

/// Size of every ranked query and of the ranked sessions' window.
pub const K: usize = 10;

/// τ of the approximate queries.
pub const TAU: f64 = 0.85;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sparse,
    Dense,
    Churn,
    Serve,
}

/// The four operation groups every workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Query,
    Approx,
    Commit,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sparse" => Some(Workload::Sparse),
            "dense" => Some(Workload::Dense),
            "churn" => Some(Workload::Churn),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse => "sparse",
            Workload::Dense => "dense",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
        }
    }

    /// The groups this workload exists to measure. They run over the
    /// workload's own database and share the run time; every other group
    /// runs a short pass over the small serve database, so that every
    /// workload reports every end-to-end metric.
    pub fn primary(self) -> &'static [(Group, f64)] {
        match self {
            Workload::Sparse => &[(Group::Query, 1.0)],
            Workload::Dense => &[(Group::Query, 0.3), (Group::Approx, 0.7)],
            Workload::Churn => &[(Group::Commit, 1.0)],
            Workload::Serve => &[(Group::Serve, 1.0)],
        }
    }

    /// The database a group runs over in this workload.
    pub fn db(self, group: Group, shape: u64) -> Shaped {
        if !self.primary().iter().any(|&(g, _)| g == group) {
            return Shaped::small(shape);
        }
        match self {
            Workload::Sparse | Workload::Churn => Shaped::sparse(shape),
            Workload::Dense => Shaped::dense(shape),
            Workload::Serve => Shaped::small(shape),
        }
    }
}

/// A generated database with a description of its shape.
pub struct Shaped {
    pub db: Database,
    pub shape: &'static str,
}

impl Shaped {
    /// Integer `chain(5)`, 128 rows per relation, join domain = rows.
    fn sparse(shape: u64) -> Self {
        Shaped {
            db: chain(5, &DataSpec::new(128, 128).seed(shape)),
            shape: "chain(5) x 128 int, domain 128",
        }
    }

    /// String `star(4)`, 48 rows per relation, join domain 16, 10% typos.
    fn dense(shape: u64) -> Self {
        Shaped {
            db: star(4, &DataSpec::new(48, 16).seed(shape).typos(0.1)),
            shape: "star(4) x 48 str, domain 16, 10% typos",
        }
    }

    /// String `star(4)`, 16 rows per relation (64 tuples), join domain
    /// 8, 10% typos: the serve database.
    fn small(shape: u64) -> Self {
        Shaped {
            db: star(4, &DataSpec::new(16, 8).seed(shape).typos(0.1)),
            shape: "star(4) x 16 str, domain 8, 10% typos",
        }
    }
}

/// The attribute the ranked sessions order by: the payload column of
/// the last relation, so freshly inserted rows (with fresh, larger
/// payloads) enter the top-k window.
pub fn rank_attr(db: &Database) -> String {
    let last = RelId((db.num_relations() - 1) as u16);
    let payload = db
        .relation(last)
        .schema()
        .attrs()
        .iter()
        .copied()
        .find(|&a| db.relations_with_attr(a).len() == 1)
        .expect("every generated relation has a payload column");
    db.attr_name(payload).to_owned()
}

/// The importance scores of the `i`-th ranked query of a run, drawn
/// from the shape seed.
pub fn ranking(db: &Database, seed: u64, i: u64) -> ImpScores {
    random_importance(db, mix(seed, i))
}

/// SplitMix64 of `a` and `b`: independent sub-seeds from one seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rows of [`POOL`] batches, drawn once from the shape seed, which
/// commits (or served blocks) insert in turn, in an order the run seed
/// permutes. A run cycles through the pool several times, so every run
/// samples the same distribution of work.
#[derive(Debug)]
pub struct RowPool {
    batches: Vec<Vec<(RelId, Vec<Value>)>>,
    order: Vec<usize>,
}

impl RowPool {
    /// Batches of `rows` rows each for `db`.
    pub fn new(db: &Database, shape: u64, seed: u64, rows: usize) -> Self {
        let mut gen = RowGen::new(mix(shape, rows as u64));
        let batches = (0..POOL)
            .map(|j| {
                (0..rows)
                    .map(|i| {
                        let rel = RelId(((j * rows + i) % db.num_relations()) as u16);
                        (rel, gen.row(db, rel))
                    })
                    .collect()
            })
            .collect();
        // Fisher-Yates, drawn from the run seed.
        let mut order: Vec<usize> = (0..POOL).collect();
        for i in (1..POOL).rev() {
            order.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
        }
        RowPool { batches, order }
    }

    /// The batch the `k`-th commit (or block) inserts.
    pub fn batch(&self, k: u64) -> &[(RelId, Vec<Value>)] {
        &self.batches[self.order[k as usize % POOL]]
    }
}

/// Fresh rows that attach to a database, deterministic in the seed.
#[derive(Debug)]
struct RowGen {
    seed: u64,
    drawn: u64,
    next_payload: i64,
}

impl RowGen {
    fn new(seed: u64) -> Self {
        RowGen {
            seed,
            drawn: 0,
            next_payload: 10_000_000,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.drawn += 1;
        (mix(self.seed, self.drawn) % n as u64) as usize
    }

    /// A fresh row for relation `rel` of `db`: one join column, chosen
    /// at random, copies the value of a random base tuple, so the row
    /// attaches to existing data; every other column gets a fresh value.
    fn row(&mut self, db: &Database, rel: RelId) -> Vec<Value> {
        let attrs = db.relation(rel).schema().attrs().to_vec();
        let joins = attrs
            .iter()
            .filter(|&&a| db.relations_with_attr(a).len() > 1)
            .count();
        let attach = self.below(joins.max(1));
        let mut join = 0;
        attrs
            .into_iter()
            .map(|attr| {
                let holders = db.relations_with_attr(attr);
                let from = holders[self.below(holders.len())];
                let base = db.base_tuples(from);
                let t = base.start + self.below(base.len()) as u32;
                let existing = db
                    .tuple_value(fd_relational::TupleId(t), attr)
                    .expect("a relation holding attr has a value for it");
                if holders.len() > 1 {
                    join += 1;
                    if join - 1 == attach {
                        return existing.clone();
                    }
                }
                self.next_payload += 1;
                match existing {
                    Value::Str(_) => Value::str(format!("new{}", self.next_payload)),
                    _ => Value::Int(self.next_payload),
                }
            })
            .collect()
    }
}
