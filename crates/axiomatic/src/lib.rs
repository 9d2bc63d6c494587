//! # bdrst-axiomatic — the axiomatic semantics and its equivalence with the
//! operational model
//!
//! Implements §6–§7 of *Bounding Data Races in Space and Time*: events and
//! event graphs ([`event`]), candidate executions with `po`/`rf`/`co` and
//! the consistency axioms Causality, CoWW and CoWR ([`exec`]), event-graph
//! generation from programs under free reads ([`generate`](mod@generate)),
//! the pruned search for consistent executions, with the exhaustive
//! enumeration kept as its oracle ([`enumerate`]), and the
//! mapping `|Σ|` from operational traces to executions together with
//! checkers for Theorems 15/16 ([`equiv`]). The `hb` decomposition (Theorem 17) and the
//! alternative consistency characterisation (Theorem 18) are methods on
//! [`exec::CandidateExecution`].
//!
//! ```
//! use bdrst_axiomatic::{check_equivalence, EnumLimits};
//! use bdrst_lang::Program;
//!
//! let p = Program::parse(
//!     "nonatomic a b;
//!      thread P0 { a = 1; r0 = b; }
//!      thread P1 { b = 1; r1 = a; }",
//! )?;
//! let report = check_equivalence(&p, Default::default(), EnumLimits::default())?;
//! assert!(report.holds()); // Theorems 15 + 16, observably
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod enumerate;
pub mod equiv;
pub mod event;
pub mod exec;
pub mod generate;

pub use enumerate::{
    axiomatic_outcomes, consistent_executions, consistent_executions_streaming, for_each_candidate,
    observable, EnumError, EnumLimits, ProgramExecution,
};
pub use equiv::{
    check_equivalence, check_soundness, check_soundness_replayed, execution_of_trace,
    EquivalenceError, EquivalenceReport, SoundnessError, SoundnessViolation,
};
pub use event::{Event, EventId};
pub use exec::{CandidateExecution, EventSet, WellformednessError};
pub use generate::{generate, GenError, GenLimits, Generated, ThreadAlternative};
