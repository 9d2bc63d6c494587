//! # bdrst-core — the local-DRF operational memory model
//!
//! An executable implementation of the operational semantics of
//! *Bounding Data Races in Space and Time* (Dolan, Sivaramakrishnan,
//! Madhavapeddy; PLDI 2018), the memory model adopted by multicore OCaml.
//!
//! Memory maps nonatomic locations to timestamped *histories* and atomic
//! locations to *(frontier, value)* pairs; each thread carries a *frontier*
//! recording the latest write it is guaranteed to see per location
//! ([`store`], [`history`], [`frontier`]). The four memory-operation rules
//! live in [`memop`]; machines and traces in [`machine`] and [`trace`];
//! and the paper's headline guarantees — the local DRF theorem
//! (Theorem 13) and the derived global DRF theorem (Theorem 14) — as
//! executable checkers in [`localdrf`]. Every race check, those checkers
//! and the race detector alike, runs on the one incremental
//! happens-before of [`hb`].
//!
//! Everything above is *checked by exhaustive exploration*, and that
//! exploration is provided by the pluggable [`engine`] layer: an iterative
//! depth-first worklist, canonical states interned to dense
//! `u32` ids ([`engine::StateInterner`]), a work-stealing parallel
//! engine ([`engine::WorkStealingEngine`]) that visits the same state set
//! as the sequential one, and an iterative trace enumerator
//! ([`engine::TraceEngine`]) for the trace-dependent checkers.
//! [`explore::reachable_terminals`] remains as a thin wrapper.
//!
//! ## Quick example: message passing
//!
//! ```
//! use bdrst_core::loc::{LocSet, LocKind, Val};
//! use bdrst_core::machine::{Machine, RecordedExpr, StepLabel};
//! use bdrst_core::engine::EngineConfig;
//! use bdrst_core::explore::reachable_terminals;
//!
//! let mut locs = LocSet::new();
//! let data = locs.fresh("data", LocKind::Nonatomic);
//! let flag = locs.fresh("flag", LocKind::Atomic);
//!
//! // P0: data = 1; flag = 1      P1: r0 = flag; r1 = data
//! let p0 = RecordedExpr::new(vec![
//!     StepLabel::Write(data, Val(1)),
//!     StepLabel::Write(flag, Val(1)),
//! ]);
//! let p1 = RecordedExpr::new(vec![StepLabel::Read(flag), StepLabel::Read(data)]);
//!
//! let m0 = Machine::initial(&locs, [p0, p1]);
//! let finals = reachable_terminals(&locs, m0, EngineConfig::default())?;
//! // flag = 1 implies data = 1: the relaxed outcome (1, 0) never appears.
//! assert!(finals.iter().all(|m| {
//!     let r = &m.threads[1].expr.reads;
//!     !(r[0] == Val(1) && r[1] == Val(0))
//! }));
//! # Ok::<(), bdrst_core::engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod explore;
pub mod frontier;
pub mod hb;
pub mod history;
pub mod loc;
pub mod localdrf;
pub mod machine;
pub mod memop;
pub mod pmap;
pub mod relation;
pub mod store;
pub mod timestamp;
pub mod trace;
pub mod wire;

pub use engine::{
    Control, EngineConfig, EngineError, StateId, StateVisitor, Strategy, TraceEngine, TraceVisitor,
    WorkStealingEngine, WorklistEngine,
};
pub use explore::ExploreStats;
pub use frontier::Frontier;
pub use history::History;
pub use loc::{Action, LabeledAction, Loc, LocKind, LocSet, Val};
pub use machine::{
    semantics_probes, Expr, Machine, StepLabel, Steps, ThreadId, ThreadState, Transition,
    TransitionLabel,
};
pub use pmap::{ContentDigest, PMap};
pub use store::{LocContents, Store};
pub use timestamp::{Ratio, Timestamp};
pub use trace::{LocPredicate, TraceLabels};
pub use wire::{Codec, WireError, SEMANTICS_VERSION};
