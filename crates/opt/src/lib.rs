//! # bdrst-opt — compiler optimisations under the local-DRF model (§7.1)
//!
//! The model constrains compilers through four subrelations of program
//! order: `poat−`, `po−at`, `poRW` and `pocon` must not shrink; everything
//! else (`poRR`, `poWR`, `poWW` across distinct locations) may be
//! reordered, and adjacent same-location operations admit the peepholes
//! Redundant Load, Store Forwarding and Dead Store.
//!
//! * [`reorder`] — pairwise and permutation legality checking;
//! * [`peephole`] — RL, SF, DS;
//! * [`passes`] — CSE, constant propagation, dead-store elimination, LICM
//!   and sequentialisation derived from the primitives, plus the rejected
//!   redundant-store-elimination derivation (`poRW`);
//! * [`validate`] — translation validation against the operational model
//!   in arbitrary parallel contexts.
//!
//! ```
//! use bdrst_lang::Program;
//! use bdrst_opt::passes::cse_loads;
//!
//! let p = Program::parse(
//!     "nonatomic a b; thread P0 { r1 = a * 2; r2 = b; r3 = a * 2; }",
//! )?;
//! let optimised = cse_loads(&p.locs, &p.threads[0].body);
//! assert!(optimised.is_some()); // poRR may be relaxed: CSE is legal
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ir;
pub mod passes;
pub mod peephole;
pub mod reorder;
pub mod validate;

pub use ir::{data_dependent, def, effect, uses, Effect};
pub use passes::{
    attempt_redundant_store_elimination, constant_propagation, cse_loads, dead_store_elimination,
    hoist_loop_invariant_load, sequentialise,
};
pub use peephole::{dead_store, redundant_load, store_forwarding};
pub use reorder::{
    apply_permutation, can_swap, check_permutation, constraints_between, ReorderConstraint,
    ReorderViolation,
};
pub use validate::{context_outcomes, validate_in_context, ContextObservation, ValidationReport};
