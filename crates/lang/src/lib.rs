//! # bdrst-lang — the litmus programming language
//!
//! A small concurrent language whose threads run on the operational memory
//! model of [`bdrst_core`]: registers, arithmetic, conditionals, bounded
//! loops, and explicit loads/stores on declared atomic or nonatomic
//! locations. The paper leaves expressions abstract, requiring only
//! Proposition 4 (reads accept any value); [`semantics::ThreadState`]
//! satisfies it by construction.
//!
//! ## Surface syntax
//!
//! ```text
//! nonatomic a b;
//! atomic flag;
//! thread P0 { a = 1; flag = 1; }
//! thread P1 { r0 = flag; if (r0 == 1) { r1 = a; } }
//! ```
//!
//! Location reads may appear inside expressions (`b = a + 10;`); the parser
//! hoists them into temporaries in left-to-right order.
//!
//! ## Running a program
//!
//! ```
//! use bdrst_lang::Program;
//!
//! let p = Program::parse(
//!     "nonatomic a; thread P0 { a = 1; } thread P1 { r0 = a; }",
//! )?;
//! let outcomes = p.outcomes(Default::default())?;
//! assert!(outcomes.any(|o| o.reg_named("P1", "r0") == Some(0)));
//! assert!(outcomes.any(|o| o.reg_named("P1", "r0") == Some(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod parser;
pub mod program;
pub mod semantics;

pub use ast::{BinOp, PureExpr, Reg, Stmt, UnOp};
pub use parser::{parse, parse_with_options, ParseError, ParseOptions};
pub use program::{NamedObservation, Observation, Outcomes, Program, ThreadProgram};
pub use semantics::ThreadState;
