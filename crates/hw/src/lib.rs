//! # bdrst-hw — hardware memory models and compilation soundness
//!
//! Implements §7.2–§7.3 of *Bounding Data Races in Space and Time*: the
//! x86-TSO axiomatic model (Fig. 3, [`x86`]), the abridged multi-copy-atomic
//! ARMv8 model (Fig. 4, [`arm`]), the compilation schemes of Table 1 and
//! Tables 2a/2b ([`isa`], [`compile`]), and empirical checkers for the
//! soundness theorems 19/20 ([`soundness`]) — including demonstrations that
//! the *naive* ARM mapping (no branches/barriers) and the bare-`stlr`
//! mapping for atomic stores are unsound for this model (§7.3, §9.2).
//!
//! ```
//! use bdrst_hw::{check_compilation, Target, BAL, NAIVE};
//! use bdrst_lang::Program;
//!
//! let lb = Program::parse(
//!     "nonatomic a b;
//!      thread P0 { r0 = a; b = 1; }
//!      thread P1 { r1 = b; a = 1; }",
//! )?;
//! // Table 2a's scheme is sound; the bare mapping admits load-buffering.
//! assert!(check_compilation(&lb, Target::Arm(BAL), Default::default())?.is_sound());
//! assert!(!check_compilation(&lb, Target::Arm(NAIVE), Default::default())?.is_sound());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod arm;
pub mod compile;
pub mod exec;
pub mod isa;
pub mod soundness;
pub mod x86;

pub use arm::{arm_consistent, bob, ob, obs};
pub use compile::{compile_candidate, Compiled, Target};
pub use exec::HwExecution;
pub use isa::{
    x86_sequence, AccessKind, ArmInstr, ArmMapping, X86Instr, BAL, FBS, NAIVE, SRA, STLR_SC,
};
pub use soundness::{
    check_compilation, hw_outcomes, SoundnessStats, SoundnessVerdict, UnsoundExecution,
};
pub use x86::{ghb, x86_consistent};
