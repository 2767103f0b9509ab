//! # full-disjunction
//!
//! A complete Rust implementation of **"An incremental algorithm for
//! computing ranked full disjunctions"** (Sara Cohen & Yehoshua Sagiv,
//! PODS 2005 / JCSS 2007): the `INCREMENTALFD`, `PRIORITYINCREMENTALFD`
//! and `APPROXINCREMENTALFD` algorithms, their substrates, baselines and
//! workload generators.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`relational`] — the relational substrate (values, nulls, schemas,
//!   catalogs, joins/outerjoins, acyclicity tests, paged storage);
//! * [`core`] — the paper's algorithms and data structures;
//! * [`baselines`] — brute-force oracle, Rajaraman–Ullman outerjoin
//!   sequences, and a Kanza–Sagiv-2003-style batch algorithm;
//! * [`workloads`] — synthetic schema/data generators for experiments;
//!
//! The dynamic surface lives in [`core`] too: the transactional
//! [`FdSession`](crate::core::FdSession) (batched `DeltaBatch` commits,
//! one maintenance pass per commit, push `EventSink` subscribers). The
//! `fd watch` REPL drives it from the command line, and `fd serve` /
//! `fd connect` ([`core::serve`]) expose one shared session over TCP with
//! commit events fanned out to subscribed clients.
//!
//! ## Quickstart
//!
//! Every enumeration mode is reachable through one typed builder,
//! [`FdQuery`](crate::core::FdQuery):
//!
//! ```
//! use full_disjunction::prelude::*;
//!
//! // Table 1 of the paper: Climates, Accommodations, Sites.
//! let db = tourist_database();
//!
//! // Batch: the full disjunction (Table 2 of the paper), 6 tuple sets.
//! let fd = FdQuery::over(&db).run()?;
//! assert_eq!(fd.len(), 6);
//!
//! // Streaming, tuple set by tuple set with polynomial delay:
//! let first = FdQuery::over(&db).stream()?.next().unwrap()?;
//! assert!(!first.tuples().is_empty());
//!
//! // Ranked: the 2 best answers under an importance assignment, with
//! // engine/page-size knobs honored like in every other mode.
//! let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
//! let top = FdQuery::over(&db)
//!     .engine(StoreEngine::Scan)
//!     .ranked(FMax::new(&imp))
//!     .top_k(2)
//!     .run()?;
//! assert_eq!(top.len(), 2);
//!
//! // Parallel ranked enumeration: the same canonical ranking as the
//! // sequential plan, for any worker count.
//! let par = FdQuery::over(&db)
//!     .ranked(FMax::new(&imp))
//!     .top_k(2)
//!     .parallel(4)
//!     .run()?;
//! assert_eq!(top.sets(), par.sets());
//! assert_eq!(top.ranks(), par.ranks());
//!
//! // Invalid combinations are typed errors, not panics:
//! assert!(FdQuery::over(&db).top_k(3).run().is_err());
//! # Ok::<(), FdError>(())
//! ```
//!
//! The streaming iterator types (`FdIter`, `RankedFdIter`, …) remain
//! public — they are the engines the builder plans run on.

#![deny(rustdoc::broken_intra_doc_links)]

pub use fd_baselines as baselines;
pub use fd_core as core;
pub use fd_relational as relational;
pub use fd_workloads as workloads;

pub mod cli;

/// One-stop imports for applications.
pub mod prelude {
    pub use fd_core::{
        fdi, AMin, AProd, ApproxAllIter, ApproxFdIter, AttrMax, ChannelSink, Commit, CommitTimings,
        Counter, DeleteDelta, EventLog, EventSink, FMax, FPairSum, FSum, FTriple, FdConfig,
        FdError, FdEvent, FdIter, FdQuery, FdResult, FdSession, FdStream, FdiIter, FsyncPolicy,
        Gauge, Histogram, ImpScores, InitStrategy, InsertDelta, MetricsServer, MonotoneCDetermined,
        ProbScores, QueryTimings, RankedFdIter, RankingFunction, Registry, ServeError,
        ServeOptions, Server, SessionHandle, ShutdownHandle, SinkId, Span, Stats, StoreEngine,
        TopKUpdate, TupleSet, VecSink,
    };
    pub use fd_relational::{
        tourist_database, AttrId, Change, Database, DatabaseBuilder, Delta, DeltaBatch, RelId,
        TupleId, Value, NULL,
    };
}
