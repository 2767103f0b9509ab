//! Instrumentation counters.
//!
//! The paper's complexity results (Theorems 4.8, 4.10, Lemma 5.3) bound
//! the number of JCC checks, list scans and merges. The ablation
//! experiments (Section 7) compare exactly those operation counts across
//! store engines and initialization strategies, so every algorithm in this
//! crate threads a [`Stats`] through and counts its work.

/// Operation counters accumulated during a full-disjunction run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Pairwise or set-level join-consistency+connectivity checks.
    pub jcc_checks: u64,
    /// Tuples examined by the extension loop (Fig. 2 lines 2–6).
    pub extension_scans: u64,
    /// Full passes of the extension fixpoint loop.
    pub extension_passes: u64,
    /// Candidates visited by the `foreach tb` loop (Fig. 2 line 7): every
    /// tuple of the scanned relations, or only the tuples joining a
    /// schema-adjacent member in the runs that take adjacency candidates.
    pub candidate_scans: u64,
    /// Maximal-subset computations (Fig. 2 line 8 / footnote 3).
    pub subset_computations: u64,
    /// Entries of `Complete` examined for the containment check (line 11).
    pub complete_scans: u64,
    /// Entries of `Incomplete` examined for the merge check (line 14).
    pub incomplete_scans: u64,
    /// Successful merges (line 15: replace `S` by `S ∪ T′`).
    pub merges: u64,
    /// Direct insertions into `Incomplete` (line 18).
    pub inserts: u64,
    /// Tuple sets returned as results.
    pub results: u64,
    /// Priority-queue pushes (ranked variant).
    pub heap_pushes: u64,
    /// Priority-queue pops, including stale entries (ranked variant).
    pub heap_pops: u64,
    /// Ranking-function evaluations (ranked variant).
    pub rank_evals: u64,
    /// Approximate-join-function evaluations (approx variant).
    pub approx_evals: u64,
}

impl Stats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sums counters pairwise (used to combine per-run and per-thread
    /// statistics).
    pub fn merge(&mut self, other: &Stats) {
        self.jcc_checks += other.jcc_checks;
        self.extension_scans += other.extension_scans;
        self.extension_passes += other.extension_passes;
        self.candidate_scans += other.candidate_scans;
        self.subset_computations += other.subset_computations;
        self.complete_scans += other.complete_scans;
        self.incomplete_scans += other.incomplete_scans;
        self.merges += other.merges;
        self.inserts += other.inserts;
        self.results += other.results;
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.rank_evals += other.rank_evals;
        self.approx_evals += other.approx_evals;
    }

    /// Total list-scan work — the dominant `f²` factor of Theorem 4.8 that
    /// Section 7's indexing attacks.
    pub fn total_store_scans(&self) -> u64 {
        self.complete_scans + self.incomplete_scans
    }

    /// Every counter as a stable `(name, value)` list, in declaration
    /// order. This is the single source of truth for the counter names:
    /// [`Display`](std::fmt::Display), the `fd --stats` CLI output, the
    /// serve `stats` reply and the Prometheus `fd_ops_total{op=…}`
    /// series all derive from it, so the spellings can never drift
    /// apart.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("jcc_checks", self.jcc_checks),
            ("extension_scans", self.extension_scans),
            ("extension_passes", self.extension_passes),
            ("candidate_scans", self.candidate_scans),
            ("subset_computations", self.subset_computations),
            ("complete_scans", self.complete_scans),
            ("incomplete_scans", self.incomplete_scans),
            ("merges", self.merges),
            ("inserts", self.inserts),
            ("results", self.results),
            ("heap_pushes", self.heap_pushes),
            ("heap_pops", self.heap_pops),
            ("rank_evals", self.rank_evals),
            ("approx_evals", self.approx_evals),
        ]
    }
}

/// One `name=value` line per counter, in declaration order — the stable
/// rendering shared by `fd --stats`, the serve `stats` reply and the
/// metrics exposition.
impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in self.fields() {
            writeln!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Stats {
            jcc_checks: 1,
            merges: 2,
            ..Stats::new()
        };
        let b = Stats {
            jcc_checks: 10,
            inserts: 5,
            ..Stats::new()
        };
        a.merge(&b);
        assert_eq!(a.jcc_checks, 11);
        assert_eq!(a.merges, 2);
        assert_eq!(a.inserts, 5);
    }

    #[test]
    fn store_scan_total() {
        let s = Stats {
            complete_scans: 3,
            incomplete_scans: 4,
            ..Stats::new()
        };
        assert_eq!(s.total_store_scans(), 7);
    }

    #[test]
    fn display_is_one_name_value_line_per_counter() {
        let s = Stats {
            jcc_checks: 12,
            merges: 3,
            ..Stats::new()
        };
        let text = s.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), s.fields().len());
        assert_eq!(lines[0], "jcc_checks=12");
        assert!(lines.contains(&"merges=3"));
        assert!(lines.contains(&"approx_evals=0"));
        // Display and fields() must agree exactly.
        for ((name, value), line) in s.fields().iter().zip(&lines) {
            assert_eq!(*line, format!("{name}={value}"));
        }
    }
}
