//! # bdrst-race — dynamic race detection with bounded witnesses
//!
//! The DRF theorem checkers ([`bdrst_core::localdrf`]) answer *whether*
//! a program is data-race-free; this crate answers *where and when* it
//! races, and what the paper's space/time bounds look like on a concrete
//! execution:
//!
//! * **[`detect`]** — live and replayed detection with
//!   [`bdrst_core::hb::RaceDetector`], the streaming detector built on
//!   the core's one incremental happens-before (Definition 8 — atomic
//!   writes release, atomic accesses acquire, per-thread vector clocks).
//!   The detector is one [`bdrst_core::engine::TraceVisitor`], so it
//!   rides both the **live** [`bdrst_core::engine::TraceEngine`] walk
//!   and the **offline** replay of a recorded
//!   [`bdrst_core::engine::TraceGraph`], which runs zero
//!   transition-semantics steps. Every racy pair becomes a structured
//!   [`RaceWitness`]: the two conflicting accesses, the trace-index
//!   window between them (the *time* bound) and the set of locations
//!   touched inside the window (the *space* bound), with an O(n²)
//!   reference validator.
//! * **[`shrink`]** — ddmin-style delta debugging that minimises the
//!   program and the interleaving while preserving the race
//!   ([`shrink::shrink_witness`]).
//!
//! Detection quantifies over sequentially consistent traces by default,
//! so "some explored trace races" agrees exactly with
//! [`bdrst_core::localdrf::sc_race_freedom`] — which is the same detector
//! stopped at its first witness; the differential suites check this on
//! the whole litmus corpus and on generated programs.
//!
//! ## Example: a store-buffering race and its bounds
//!
//! ```
//! use bdrst_lang::Program;
//! use bdrst_race::{detect_races_program, DetectorConfig};
//!
//! let p = Program::parse(
//!     "nonatomic a b;
//!      thread P0 { a = 1; r0 = b; }
//!      thread P1 { b = 1; r1 = a; }",
//! ).unwrap();
//! let report = detect_races_program(&p, Default::default(), DetectorConfig::default()).unwrap();
//! assert!(report.racy());
//! let w = &report.witnesses[0];
//! assert!(w.validate(&p.locs));
//! assert!(w.time_bound() >= 2);
//! assert!(w.space_bound().contains(&w.loc));
//! ```

#![forbid(unsafe_code)]

pub mod detect;
pub mod shrink;

pub use bdrst_core::hb::{
    Access, DetectorConfig, RaceDetector, RaceReport, RaceWitness, VectorClock,
};
pub use detect::{detect_races, detect_races_replayed};
pub use shrink::{ddmin, run_schedule, shrink_witness, ShrunkRace};

use bdrst_core::engine::{EngineConfig, EngineError};
use bdrst_lang::Program;

/// Live detection over a parsed litmus program (the shape the CLI and
/// the check service consume).
///
/// # Errors
///
/// As [`detect_races`].
pub fn detect_races_program(
    program: &Program,
    engine: EngineConfig,
    config: DetectorConfig,
) -> Result<RaceReport, EngineError> {
    detect_races(&program.locs, program.initial_machine(), engine, config)
}
