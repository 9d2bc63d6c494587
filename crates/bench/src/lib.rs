//! # bdrst-bench — the benchmark harness
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
//! * `fig5a`, `fig5b`, `fig5c` — Fig. 5 of the §8 evaluation;
//! * `engine_baseline OUT_DIR` — the engine performance record: corpus
//!   sweep timings, allocation counts and deterministic engine counts as
//!   JSON, with the host's core count and warn-or-panic gates. The
//!   committed copy under `baselines/` is the perf trajectory later
//!   changes compare against.

#![forbid(unsafe_code)]
