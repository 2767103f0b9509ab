//! Allocation budgets of one full `FdQuery::run` over the benchmark's two
//! query shapes: the integer `chain(5)` × 128 rows of the `sparse`
//! workload and the string `star(4)` × 48 rows of `dense`, both at shape
//! seed `0xFD`, plus the approximate run of `dense` (`AMin` over
//! `EditDistanceSim`, τ = 0.85, as the benchmark runs it).
//!
//! `GETNEXTRESULT` carries line 8's `T′` as a member list and builds a
//! tuple set only for what it queues (line 18) or merges (line 14), so
//! the heap traffic of a run is a handful of allocations per result, not
//! per candidate. A regression to per-candidate allocation multiplies
//! the counts below many times over; building a tuple set per candidate
//! costs 225,666 and 1,038,788 on the exact runs.
//!
//! Measured counts (the same under the test and release profiles): 13,631
//! for `sparse`, 21,271 for `dense` and 36,535 for the approximate
//! `dense` run. The exact budgets allow about 10% over them, which still
//! catches one boxed fingerprint per run result (15,514 and 24,873). The
//! approximate budget allows about 25%, which catches a member list per
//! union attempt that clashes on a relation or per scanned extension
//! candidate (315,847, when `Approx::union` built and tested a list
//! before rejecting a clash and lines 2–6 scanned whole relations), a
//! result list per line-7 similarity probe (360,368, when each (member,
//! relation) bound was probed again instead of read from the run's
//! memo), a list per line-8 candidate (584,581, when `ApproxJoin`
//! returned its maximal subsets as a `Vec<Vec<TupleId>>`) and an
//! allocation per `A(·)` score or per line-14 attempt (1,553,985).
//!
//! The allocator counts per thread (every `alloc` and `realloc` call of
//! the calling thread), so tests running in parallel do not pollute each
//! other's counts; the run itself is single-threaded.

use full_disjunction::core::{AMin, EditDistanceSim, FdQuery, ProbScores};
use full_disjunction::relational::Database;
use full_disjunction::workloads::{chain, star, DataSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocation calls.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The shape seed of the benchmark's databases.
const SHAPE_SEED: u64 = 0xFD;

/// Allocation calls of one run of `query`, with its answer count.
fn counted_run(query: FdQuery<'_>) -> (usize, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let answers = query.run().expect("valid query").len();
    (answers, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocation calls of one full run over `db`, with its answer count.
fn full_run(db: &Database) -> (usize, u64) {
    counted_run(FdQuery::over(db))
}

/// The `dense` database.
fn dense() -> Database {
    star(4, &DataSpec::new(48, 16).seed(SHAPE_SEED).typos(0.1))
}

#[test]
fn sparse_full_run_stays_within_its_allocation_budget() {
    let db = chain(5, &DataSpec::new(128, 128).seed(SHAPE_SEED));
    let (answers, allocations) = full_run(&db);
    assert_eq!(answers, 626);
    assert!(
        allocations <= 15_000,
        "{allocations} allocations for {answers} answers"
    );
}

#[test]
fn dense_full_run_stays_within_its_allocation_budget() {
    let (answers, allocations) = full_run(&dense());
    assert_eq!(answers, 945);
    assert!(
        allocations <= 23_400,
        "{allocations} allocations for {answers} answers"
    );
}

#[test]
fn dense_approximate_full_run_stays_within_its_allocation_budget() {
    let db = dense();
    let a = AMin::new(EditDistanceSim, ProbScores::uniform(&db, 1.0));
    let (answers, allocations) = counted_run(FdQuery::over(&db).approx(&a, 0.85));
    assert_eq!(answers, 1_608);
    assert!(
        allocations <= 45_700,
        "{allocations} allocations for {answers} answers"
    );
}
