//! # fd-core
//!
//! The algorithms of **Cohen & Sagiv, "An incremental algorithm for
//! computing ranked full disjunctions"** (PODS 2005 / JCSS 2007).
//!
//! One `GETNEXTRESULT` engine (Fig. 2) runs all of them. It is generic
//! over a consistency [`Policy`] — [`Exact`] join consistency or
//! [`Approx`] `(A, τ)` acceptance — and over a frontier — the FIFO
//! `Incomplete` list of Fig. 1 or one rank heap per relation (Fig. 3).
//! The four combinations are the paper's algorithms:
//!
//! * [`FdiIter`] / [`FdIter`] — `INCREMENTALFD` (Fig. 1–2): the full
//!   disjunction with incremental polynomial delay (Theorems 4.2–4.10);
//! * [`RankedFdIter`] — `PRIORITYINCREMENTALFD` (Fig. 3): answers by
//!   rank for monotonically c-determined ranking functions (Theorem 5.5)
//!   and the threshold variant (Remark 5.6);
//! * [`ApproxFdIter`] / [`ApproxAllIter`] — `APPROXINCREMENTALFD`
//!   (Fig. 5–6): `(A, τ)`-approximate full disjunctions for acceptable,
//!   efficiently computable approximate join functions (Theorem 6.6);
//! * [`RankedApproxFdIter`] — both at once, as Section 6 sketches.
//!
//! Section 7's optimizations (hash-indexed stores, block-based execution,
//! alternative `Incomplete` initializations), the parallel drivers and
//! delta maintenance run on the same engine.
//!
//! All of it is reachable through one typed entry point, [`FdQuery`]:
//! batch, streaming, ranked top-k/threshold, approximate,
//! ranked-approximate, parallel and delta execution share the builder,
//! honor the same [`FdConfig`] knobs, and report invalid combinations as
//! [`FdError`] values instead of panicking.
//!
//! ## Example
//!
//! ```
//! use fd_core::{FdQuery, FMax, ImpScores};
//! use fd_relational::tourist_database;
//!
//! let db = tourist_database();
//! // Table 2 of the paper: six maximal join-consistent connected sets.
//! assert_eq!(FdQuery::over(&db).run()?.len(), 6);
//! // Streaming: first answer after one GETNEXTRESULT call.
//! let first = FdQuery::over(&db).stream()?.next().unwrap()?;
//! assert_eq!(first.label(&db), "{c1, a1}");
//! // Ranked: the two best answers by tuple-id importance.
//! let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
//! let top = FdQuery::over(&db).ranked(FMax::new(&imp)).top_k(2).run()?;
//! assert_eq!(top.len(), 2);
//! # Ok::<(), fd_core::FdError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(rustdoc::broken_intra_doc_links)]

mod getnext;
mod incremental;
mod init;
mod lists;
mod padded;
mod parallel;
mod stats;
mod tupleset;

pub mod approx;
pub mod delta;
pub mod error;
pub mod jcc;
pub mod obs;
pub mod priority;
pub mod query;
pub mod ranking;
pub mod serve;
pub mod session;
pub mod sim;
pub mod store;

pub use approx::{
    AMin, AProd, Approx, ApproxAllIter, ApproxFdIter, ApproxJoin, ProbScores, RankedApproxFdIter,
    SimMemo,
};
pub use delta::{DeleteDelta, InsertDelta};
pub use error::FdError;
pub use getnext::{Exact, Policy};
pub use incremental::{canonicalize, fdi, FdConfig, FdIter, FdiIter, MultiRunIter, RunIter};
pub use init::InitStrategy;
pub use lists::StoreEngine;
pub use obs::{Counter, EventLog, Gauge, Histogram, MetricsServer, QueryTimings, Registry, Span};
pub use padded::{format_results, padded_relation, padded_tuple, padded_tuple_over};
pub use priority::{RankedFdIter, RankedIter};
pub use query::{BoxedApprox, BoxedRanking, FdQuery, FdResult, FdStream, QueryParts};
pub use ranking::{
    canonical_rank_order, FMax, FPairSum, FSum, FTriple, ImpScores, MonotoneCDetermined,
    RankingFunction,
};
pub use serve::{
    trigger_shutdown_on_signals, AttrMax, ServeError, ServeOptions, Server, SessionHandle,
    ShutdownHandle,
};
pub use session::{
    ChannelSink, Commit, CommitTimings, DeltaBatch, EventSink, FdEvent, FdSession, SinkId,
    TopKUpdate, VecSink,
};
pub use sim::{EditDistanceSim, ExactSim, Similarity, TableSim};
pub use stats::Stats;
pub use store::{FsyncPolicy, StoreError};
pub use tupleset::TupleSet;
