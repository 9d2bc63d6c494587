//! # bdrst-sim — the §8 performance-evaluation substrate
//!
//! The paper evaluates its compilation schemes on a Cavium ThunderX
//! (AArch64) and an IBM pSeries (PowerPC) against 29 OCaml benchmarks.
//! Lacking that hardware, this crate substitutes a cycle-cost core
//! simulator ([`cpu`]) driven by synthetic instruction streams whose
//! memory-access mix reproduces Fig. 5a ([`workloads`]), lowered per
//! compilation scheme exactly as §8.2 describes ([`schemes`]), with the
//! Fig. 5 harness in [`harness`]. See DESIGN.md "Substitutions" for why
//! this preserves the evaluation's shape (who wins, by what factor) though
//! not its absolute numbers.
//!
//! ```
//! use bdrst_sim::harness::{figure5b, format_figure5};
//! use bdrst_sim::schemes::Scheme;
//!
//! let fig = figure5b(200);
//! // FBS beats BAL on AArch64; SRA is drastically slower (§8.3).
//! assert!(fig.mean_overhead(Scheme::Fbs) < fig.mean_overhead(Scheme::Bal));
//! assert!(fig.mean_overhead(Scheme::Sra) > 30.0);
//! println!("{}", format_figure5(&fig));
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod harness;
pub mod schemes;
pub mod workloads;

pub use cpu::{Core, CoreModel, SimInstr, POWER, THUNDERX};
pub use harness::{figure5, figure5b, figure5c, format_figure5, format_figure5a, Fig5, Fig5Row};
pub use schemes::{lower, AccessCategory, Scheme};
pub use workloads::{Workload, WORKLOADS};
