//! Allocation budgets of one full `FdQuery::run` over the benchmark's two
//! query shapes: the integer `chain(5)` × 128 rows of the `sparse`
//! workload and the string `star(4)` × 48 rows of `dense`, both at shape
//! seed `0xFD`.
//!
//! `GETNEXTRESULT` carries line 8's `T′` as a member list and builds a
//! tuple set only for what it queues (line 18) or merges (line 14), so
//! the heap traffic of a run is a handful of allocations per result, not
//! per candidate. A regression to per-candidate allocation multiplies
//! the counts below many times over; each budget is the measured count
//! (17,396 for `sparse`, 28,470 for `dense`) plus about 25% headroom;
//! building a tuple set per candidate costs 225,666 and 1,038,788.
//!
//! The allocator counts per thread (every `alloc` and `realloc` call of
//! the calling thread), so tests running in parallel do not pollute each
//! other's counts; the run itself is single-threaded.

use full_disjunction::core::FdQuery;
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

/// Allocation calls of one full run over `db`, with its answer count.
fn full_run(db: &Database) -> (usize, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let answers = FdQuery::over(db).run().expect("valid query").len();
    (answers, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn sparse_full_run_stays_within_its_allocation_budget() {
    let db = chain(5, &DataSpec::new(128, 128).seed(SHAPE_SEED));
    let (answers, allocations) = full_run(&db);
    assert_eq!(answers, 626);
    assert!(
        allocations <= 21_700,
        "{allocations} allocations for {answers} answers"
    );
}

#[test]
fn dense_full_run_stays_within_its_allocation_budget() {
    let db = star(4, &DataSpec::new(48, 16).seed(SHAPE_SEED).typos(0.1));
    let (answers, allocations) = full_run(&db);
    assert_eq!(answers, 945);
    assert!(
        allocations <= 35_600,
        "{allocations} allocations for {answers} answers"
    );
}
