//! # bdrst-bench — the paper's tables and figures
//!
//! This library is empty; the crate is its binaries, each run with
//! `cargo run --release -p bdrst-bench --bin <name>`:
//!
//! * `table1`, `table2` — Tables 1 and 2a/2b, the compilation of the
//!   access kinds to x86-TSO and ARMv8;
//! * `litmus` — the corpus verdict table (§2 Examples 1–3, §5, §9);
//! * `paper_examples` — the §2 examples through the local-DRF checkers;
//! * `soundness` — Theorems 19/20 across the corpus;
//! * `opts` — the §7.1 optimisation catalogue;
//! * `fig5a`, `fig5b`, `fig5c` — Fig. 5 of the §8 evaluation.
//!
//! Its tests pin the model's deterministic counts over the litmus corpus
//! (`tests/corpus_counts.rs`) and bound the exploration hot path's heap
//! allocations (`tests/allocations.rs`). Timings are recorded by the
//! benchmark under `perfbench/` alone.

#![forbid(unsafe_code)]
