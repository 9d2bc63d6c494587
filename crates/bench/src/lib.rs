//! # bdrst-bench — the benchmark harness
//!
//! Binaries regenerate each table and figure of the paper:
//! `table1`, `table2` (compilation schemes), `litmus` (the §2/§5/§9
//! example verdicts), `soundness` (Theorems 19/20 across the corpus),
//! `opts` (the §7.1 optimisation catalogue), `fig5a`, `fig5b`, `fig5c`
//! (the §8 evaluation).
//!
//! Criterion benches measure the cost of the checkers, the simulator, and
//! the exploration engine; see `benches/`. The `engine` bench compares a
//! sequential litmus corpus sweep with per-test parallel ones, and the
//! `engine_baseline` binary records that comparison as JSON under
//! `baselines/` (with the host's core count, since a single-core host
//! cannot show a parallel win) so later PRs have a perf trajectory.
