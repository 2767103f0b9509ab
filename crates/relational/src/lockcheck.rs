//! Runtime lock-order checking: a named wrapper over [`std::sync::Mutex`]
//! that learns the process's inter-lock acquisition order and panics —
//! naming both locks, with both back-traces — the moment any thread
//! acquires in the reverse order.
//!
//! The workspace's concurrency-heavy subsystems (the serve daemon, the
//! session and the WAL/store) rest their deadlock freedom on a
//! *convention*: locks are always taken in the order declared in the
//! repo-root `LOCK_ORDER.md`. Conventions rot; this module mechanizes
//! the check. Every [`TrackedMutex`] acquisition pushes its lock name
//! onto a per-thread stack and, for each lock already held, records the
//! ordered pair *held → acquiring* in a process-global order graph.
//! Recording a pair whose reverse is already in the graph means two code
//! paths disagree about the order — the classic recipe for an AB/BA
//! deadlock — and the checker panics immediately with the back-trace of
//! **both** acquisition orders, even if the interleaving never actually
//! deadlocked in this run. Every existing concurrency test therefore
//! doubles as a deadlock detector.
//!
//! ## Cost model
//!
//! Tracking is compiled in only under `debug_assertions` (so plain
//! `cargo test` checks by default) or the `lockcheck` cargo feature (so
//! CI can run the suite in any profile with the detector pinned on). In
//! release builds without the feature the wrapper is transparent:
//! [`TrackedMutex::lock`] is an `#[inline]` delegation to the inner
//! `std` primitive and the per-lock cost is one `&'static str` field.
//! With tracking on, the fast path for an already-known pair is a
//! thread-local hash probe — the global graph mutex is touched only the
//! first time a thread sees a new pair.
//!
//! ## What it does not catch
//!
//! Self-deadlock (re-acquiring the same non-reentrant lock) and
//! condition-variable waits are out of scope; the checker reasons only
//! about *order* between distinct named locks. Two locks sharing a name
//! are treated as one, so name locks by role (`"serve.session"`), not
//! by instance.

use std::fmt;
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

/// Is order tracking compiled into this build?
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "lockcheck"));

/// A [`Mutex`] with a stable role name, participating in lock-order
/// detection when [`ENABLED`]. API-compatible with the `std` type for
/// the operations the workspace uses; poison behavior is unchanged
/// (the guard travels inside the [`PoisonError`]).
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value`. `name` identifies the lock's *role* in panic
    /// messages and in `LOCK_ORDER.md` — use one name per role, shared
    /// by every instance that plays it.
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the value (poison surfaces as in
    /// `std`).
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T> TrackedMutex<T> {
    /// The role name this lock was created with.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the mutex, recording the acquisition against every lock
    /// this thread already holds. Panics on a detected order inversion
    /// (see the module docs); otherwise blocks and poisons exactly as
    /// [`Mutex::lock`] does.
    #[inline]
    pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
        let held = order::acquire(self.name);
        match self.inner.lock() {
            Ok(inner) => Ok(TrackedMutexGuard { inner, _held: held }),
            Err(poisoned) => Err(PoisonError::new(TrackedMutexGuard {
                inner: poisoned.into_inner(),
                _held: held,
            })),
        }
    }

    /// Mutable access without locking (the borrow checker proves
    /// exclusivity), as [`Mutex::get_mut`].
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// The guard returned by [`TrackedMutex::lock`]; releases the mutex —
/// and pops the lock from the thread's held stack — on drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    inner: MutexGuard<'a, T>,
    _held: order::Held,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for TrackedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.inner, f)
    }
}

/// Every *held → acquiring* pair recorded so far, for tests and
/// diagnostics. Always available; empty when tracking is compiled out.
pub fn recorded_edges() -> Vec<(&'static str, &'static str)> {
    order::edges()
}

#[cfg(any(debug_assertions, feature = "lockcheck"))]
mod order {
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex, OnceLock};

    thread_local! {
        /// Role names of the locks this thread currently holds, in
        /// acquisition order (duplicates allowed: many readers, or
        /// distinct instances sharing a role).
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        /// Pairs this thread has already pushed to the global graph —
        /// the fast path that keeps the graph mutex off hot loops.
        static KNOWN: RefCell<HashSet<(&'static str, &'static str)>> =
            RefCell::new(HashSet::new());
    }

    /// The process-global order graph: each ordered pair maps to the
    /// back-trace of the acquisition that first established it. (This
    /// mutex is itself a leaf — nothing is acquired while holding it —
    /// so it cannot participate in the cycles it detects.)
    fn graph() -> &'static Mutex<HashMap<(&'static str, &'static str), String>> {
        static GRAPH: OnceLock<Mutex<HashMap<(&'static str, &'static str), String>>> =
            OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// A held-stack entry; popping happens on drop, i.e. when the
    /// tracked guard releases.
    pub(super) struct Held {
        name: &'static str,
    }

    pub(super) fn acquire(name: &'static str) -> Held {
        HELD.with(|h| {
            for &prev in h.borrow().iter() {
                if prev != name {
                    record(prev, name);
                }
            }
            h.borrow_mut().push(name);
        });
        Held { name }
    }

    fn record(before: &'static str, after: &'static str) {
        let fresh = KNOWN.with(|k| k.borrow_mut().insert((before, after)));
        if !fresh {
            return;
        }
        let mut graph = graph().lock().unwrap_or_else(|p| p.into_inner());
        if let Some(reverse) = graph.get(&(after, before)) {
            let here = Backtrace::force_capture();
            panic!(
                "lock-order inversion: acquiring '{after}' while holding '{before}', but another \
                 code path acquires '{before}' while holding '{after}'. Fix one side to follow \
                 LOCK_ORDER.md.\n\
                 --- '{after}' before '{before}' was first recorded here:\n{reverse}\n\
                 --- '{before}' before '{after}' (this thread) recorded here:\n{here}"
            );
        }
        graph
            .entry((before, after))
            .or_insert_with(|| Backtrace::force_capture().to_string());
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        let graph = graph().lock().unwrap_or_else(|p| p.into_inner());
        graph.keys().copied().collect()
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // `rposition`: release the most recent acquisition of this
            // role (guards usually drop LIFO, but nothing forces it).
            let _ = HELD.try_with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&n| n == self.name) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "lockcheck")))]
mod order {
    /// Zero-sized stand-in: no tracking state, no drop glue.
    pub(super) struct Held;

    #[inline(always)]
    pub(super) fn acquire(_name: &'static str) -> Held {
        Held
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tracked_mutex_behaves_like_a_mutex() {
        let m = TrackedMutex::new("test.lockcheck.plain", 41);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 42);
        assert_eq!(m.name(), "test.lockcheck.plain");
        assert_eq!(m.into_inner().unwrap(), 42);
    }

    #[test]
    fn poison_carries_the_guard() {
        let m = Arc::new(TrackedMutex::new("test.lockcheck.poison", 7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let v = *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(v, 7);
    }

    #[cfg(any(debug_assertions, feature = "lockcheck"))]
    #[test]
    fn consistent_order_records_edges_without_panicking() {
        let a = TrackedMutex::new("test.lockcheck.order.a", ());
        let b = TrackedMutex::new("test.lockcheck.order.b", ());
        for _ in 0..3 {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        assert!(recorded_edges().contains(&("test.lockcheck.order.a", "test.lockcheck.order.b")));
    }

    #[cfg(any(debug_assertions, feature = "lockcheck"))]
    #[test]
    fn inversion_panics_naming_both_locks() {
        let a = Arc::new(TrackedMutex::new("test.lockcheck.inv.alpha", ()));
        let b = Arc::new(TrackedMutex::new("test.lockcheck.inv.beta", ()));
        // Establish alpha -> beta on one thread…
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                let _ga = a.lock().unwrap();
                let _gb = b.lock().unwrap();
            })
            .join()
            .unwrap();
        }
        // …then acquire beta -> alpha on another: must panic even
        // though no deadlock actually occurs.
        let err = std::thread::spawn(move || {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        })
        .join()
        .expect_err("the inversion must be detected");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into());
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("test.lockcheck.inv.alpha"), "{msg}");
        assert!(msg.contains("test.lockcheck.inv.beta"), "{msg}");
    }

    #[cfg(any(debug_assertions, feature = "lockcheck"))]
    #[test]
    fn same_role_reacquisition_is_not_an_inversion() {
        // Two instances sharing a role (e.g. per-connection writers)
        // must not trip the detector when nested.
        let outer = TrackedMutex::new("test.lockcheck.samerole", 1);
        let inner = TrackedMutex::new("test.lockcheck.samerole", 2);
        let _go = outer.lock().unwrap();
        let _gi = inner.lock().unwrap();
    }
}
