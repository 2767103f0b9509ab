//! The runtime lock-order detector, exercised through the wrapper that
//! `fd_core` re-exports.
//!
//! Tracking is compiled in under `debug_assertions` (any default test
//! run) or `--features lockcheck` (CI pins it on explicitly so the
//! check survives profile changes); in a release build without the
//! feature these tests compile to nothing.
#![cfg(any(debug_assertions, feature = "lockcheck"))]

use fd_core::obs::lockcheck::TrackedMutex;
use std::sync::Arc;

/// A seeded AB/BA inversion must fire the detector even though the two
/// acquisitions happen on different threads at different times and no
/// actual deadlock occurs — and the panic must name both locks.
#[test]
fn seeded_inversion_is_detected_and_names_both_locks() {
    let a = Arc::new(TrackedMutex::new("core.seeded.first", 0u32));
    let b = Arc::new(TrackedMutex::new("core.seeded.second", 0u32));

    // Establish first -> second.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        })
        .join()
        .unwrap();
    }

    // Violate it: second -> first.
    let err = std::thread::spawn(move || {
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
    })
    .join()
    .expect_err("the seeded inversion must panic");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    assert!(msg.contains("lock-order inversion"), "{msg}");
    assert!(msg.contains("core.seeded.first"), "{msg}");
    assert!(msg.contains("core.seeded.second"), "{msg}");
}
