//! # bdrst — Bounding Data Races in Space and Time, in Rust
//!
//! A full reproduction of Dolan, Sivaramakrishnan and Madhavapeddy's
//! PLDI 2018 paper (the memory model adopted by multicore OCaml), as a
//! workspace of executable semantics:
//!
//! * [`core`] — the operational model: histories, frontiers, dense
//!   rational timestamps, weak transitions, happens-before, data races,
//!   exhaustive exploration, and the local/global DRF theorem checkers;
//! * [`lang`] — the litmus language (parser, small-step semantics);
//! * [`axiomatic`] — candidate/consistent executions, `|Σ|`, and the
//!   operational↔axiomatic equivalence checkers (Theorems 15–18);
//! * [`hw`] — x86-TSO and ARMv8 hardware models, the compilation schemes
//!   of Tables 1/2, and empirical soundness checking (Theorems 19/20);
//! * [`opt`] — §7.1's optimisation legality: reorderings, peepholes,
//!   derived passes, and translation validation;
//! * [`litmus`] — the test corpus and multi-model runner;
//! * [`race`] — dynamic race detection: vector-clock happens-before over
//!   live and recorded traces, space/time-bounded witnesses, and a
//!   ddmin witness shrinker;
//! * [`sim`] — the §8 performance evaluation on simulated AArch64/POWER
//!   cores (Figures 5a/5b/5c).
//!
//! ## Quickstart
//!
//! ```
//! use bdrst::lang::Program;
//!
//! // Message passing: an atomic flag publishes a nonatomic payload.
//! let p = Program::parse(
//!     "nonatomic data; atomic flag;
//!      thread writer { data = 42; flag = 1; }
//!      thread reader { r0 = flag; if (r0 == 1) { r1 = data; } }",
//! )?;
//! let outcomes = p.outcomes(Default::default())?;
//! // Local DRF at work: the reader never sees a torn payload.
//! assert!(outcomes.all(|o| {
//!     o.reg_named("reader", "r0") != Some(1) || o.reg_named("reader", "r1") == Some(42)
//! }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use bdrst_axiomatic as axiomatic;
pub use bdrst_core as core;
pub use bdrst_hw as hw;
pub use bdrst_lang as lang;
pub use bdrst_litmus as litmus;
pub use bdrst_opt as opt;
pub use bdrst_race as race;
pub use bdrst_sim as sim;
