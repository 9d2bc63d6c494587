//! # bdrst-litmus — the litmus corpus and multi-model runner
//!
//! A corpus of litmus tests ([`corpus`]) covering the classic shapes (SB,
//! MP, LB, CoRR, CoWW, IRIW) and the paper's running examples (§2
//! Examples 1–3, §9.2), each annotated with the verdict the local-DRF
//! model assigns; and a runner ([`runner`]) that evaluates every test
//! against the operational semantics, the axiomatic semantics, and — on
//! request — the compiled-program behaviours under the x86-TSO and ARMv8
//! hardware models.
//!
//! [`runner::RunConfig::strategy`] selects the exploration engine
//! (DFS / DPOR), and the batched sweep entry points
//! [`runner::run_corpus`] / [`runner::run_corpus_sharded`] run the whole
//! corpus — the sharded variant distributes tests across the core
//! engine's parallel map.
//!
//! ```
//! use bdrst_litmus::{corpus, runner};
//!
//! let report = runner::run_test(&corpus::MP, runner::RunConfig::default())?;
//! assert!(report.passes());
//!
//! let sweep = runner::run_corpus_sharded(runner::RunConfig::default(), 0);
//! assert!(runner::corpus_passes(&sweep));
//! # Ok::<(), bdrst_litmus::runner::RunError>(())
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod runner;

pub use corpus::{all_tests, LitmusTest, OutcomeCheck};
pub use runner::{
    classify_entries, corpus_passes, format_reports, hardware_flags, report_from_outcomes,
    run_corpus, run_corpus_sharded, run_test, CheckVerdict, CorpusEntry, CorpusVerdict, RunConfig,
    RunError, TestReport,
};
