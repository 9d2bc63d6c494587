//! Running litmus tests against every model in the repository: the
//! operational semantics, the axiomatic semantics, and the compiled-program
//! behaviours under the x86 and ARM hardware models.

use std::collections::BTreeSet;
use std::fmt;

use bdrst_axiomatic::{axiomatic_outcomes, EnumError, EnumLimits, GenError};
use bdrst_core::engine::{parallel_map_with, EngineConfig, EngineError, Strategy};
use bdrst_hw::{hw_outcomes, Target};
use bdrst_lang::{Observation, Program};

use crate::corpus::LitmusTest;

/// Which models to consult for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunConfig {
    /// Budget for operational exploration.
    pub explore: EngineConfig,
    /// Engine strategy for operational exploration: sequential DFS or
    /// DPOR (see [`bdrst_core::engine::Strategy`]).
    pub strategy: Strategy,
    /// Budget for axiomatic/hardware enumeration.
    pub enumerate: EnumLimits,
    /// Also compute hardware outcome sets (slower).
    pub hardware: bool,
}

/// Errors from a litmus run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// The source failed to parse (a corpus bug).
    Parse(String),
    /// Operational exploration failed in the engine.
    Operational(EngineError),
    /// Axiomatic or hardware enumeration failed.
    Enumeration(EnumError),
}

impl RunError {
    /// True when the run failed because an exploration or enumeration
    /// *budget* was exhausted — a resource failure, retryable with a
    /// bigger budget — as opposed to a parse error or state corruption.
    /// The `bdrst` CLI and the check server map the two classes onto
    /// different exit codes / error kinds.
    pub fn is_budget(&self) -> bool {
        match self {
            RunError::Parse(_) => false,
            RunError::Operational(e) => e.is_budget(),
            RunError::Enumeration(e) => matches!(
                e,
                EnumError::TooManyCandidates | EnumError::Gen(GenError::TooManyAlternatives { .. })
            ),
        }
    }

    /// A short stable tag for the failure class (`"parse"`, `"budget"`,
    /// `"engine"`), used by report rendering and the service protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Parse(_) => "parse",
            _ if self.is_budget() => "budget",
            _ => "engine",
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "parse: {e}"),
            RunError::Operational(e) => write!(f, "operational: {e}"),
            RunError::Enumeration(e) => write!(f, "enumeration: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Verdict of one outcome check against one model's outcome set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckVerdict {
    /// The model observed an outcome satisfying the predicate.
    pub observed: bool,
    /// The paper's model says it should be observable.
    pub expected: bool,
}

impl CheckVerdict {
    /// True when observation matches expectation.
    pub fn passes(&self) -> bool {
        self.observed == self.expected
    }
}

/// The full report for one litmus test.
#[derive(Clone, Debug)]
pub struct TestReport {
    /// The test name.
    pub name: &'static str,
    /// Per-check verdicts under the operational model.
    pub operational: Vec<CheckVerdict>,
    /// Per-check verdicts under the axiomatic model.
    pub axiomatic: Vec<CheckVerdict>,
    /// Observations allowed by compiled execution on x86 (Table 1), if
    /// hardware checking was requested: per-check "observed" flags.
    pub x86: Option<Vec<bool>>,
    /// Same for ARM under the BAL scheme (Table 2a).
    pub arm_bal: Option<Vec<bool>>,
    /// Same for ARM under the naive (unsound) mapping.
    pub arm_naive: Option<Vec<bool>>,
}

impl TestReport {
    /// True iff every operational and axiomatic verdict matches the
    /// paper's expectation, and the two semantics agree with each other.
    pub fn passes(&self) -> bool {
        self.operational.iter().all(CheckVerdict::passes)
            && self.axiomatic.iter().all(CheckVerdict::passes)
    }

    /// True iff the sound hardware mappings never exhibit a forbidden
    /// outcome (vacuously true when hardware was not run).
    pub fn hardware_sound(&self) -> bool {
        let fine = |flags: &Option<Vec<bool>>, expected: &[CheckVerdict]| match flags {
            None => true,
            Some(fs) => fs
                .iter()
                .zip(expected)
                .all(|(observed, v)| v.expected || !observed),
        };
        fine(&self.x86, &self.operational) && fine(&self.arm_bal, &self.operational)
    }
}

fn verdicts(
    program: &Program,
    outcomes: &BTreeSet<Observation>,
    test: &LitmusTest,
) -> Vec<CheckVerdict> {
    test.checks
        .iter()
        .map(|c| CheckVerdict {
            observed: outcomes
                .iter()
                .any(|o| (c.predicate)(&program.name_observation(o))),
            expected: c.allowed,
        })
        .collect()
}

fn observed_flags(
    program: &Program,
    outcomes: &BTreeSet<Observation>,
    test: &LitmusTest,
) -> Vec<bool> {
    test.checks
        .iter()
        .map(|c| {
            outcomes
                .iter()
                .any(|o| (c.predicate)(&program.name_observation(o)))
        })
        .collect()
}

/// Builds a [`TestReport`] from already-computed operational and
/// axiomatic outcome sets — the verdict step of [`run_test`], split out
/// so the result store can re-derive reports from *cached* outcome sets
/// without touching the transition semantics.
pub fn report_from_outcomes(
    test: &LitmusTest,
    program: &Program,
    op: &BTreeSet<Observation>,
    ax: &BTreeSet<Observation>,
) -> TestReport {
    TestReport {
        name: test.name,
        operational: verdicts(program, op, test),
        axiomatic: verdicts(program, ax, test),
        x86: None,
        arm_bal: None,
        arm_naive: None,
    }
}

/// Per-check hardware observation flags: one `Vec<bool>` per target, in
/// (x86, ARM-BAL, ARM-naive) order.
pub type HardwareFlags = (Vec<bool>, Vec<bool>, Vec<bool>);

/// Computes the per-check hardware observation flags (x86, ARM-BAL,
/// ARM-naive, in that order) for one test — the hardware third of
/// [`run_test`], exported so cache-backed services can attach hardware
/// results to a [`report_from_outcomes`] report (hardware outcome sets
/// are enumerated per call; only the operational/axiomatic sets cache).
///
/// # Errors
///
/// Returns [`RunError::Enumeration`] when a hardware enumeration
/// exceeds its limits.
pub fn hardware_flags(
    test: &LitmusTest,
    program: &Program,
    enumerate: EnumLimits,
) -> Result<HardwareFlags, RunError> {
    let x = hw_outcomes(program, Target::X86, enumerate).map_err(RunError::Enumeration)?;
    let b = hw_outcomes(program, Target::Arm(bdrst_hw::BAL), enumerate)
        .map_err(RunError::Enumeration)?;
    let n = hw_outcomes(program, Target::Arm(bdrst_hw::NAIVE), enumerate)
        .map_err(RunError::Enumeration)?;
    Ok((
        observed_flags(program, &x, test),
        observed_flags(program, &b, test),
        observed_flags(program, &n, test),
    ))
}

/// Runs one litmus test against the configured models.
///
/// # Errors
///
/// Returns [`RunError`] if parsing or any exploration fails.
pub fn run_test(test: &LitmusTest, config: RunConfig) -> Result<TestReport, RunError> {
    let program = Program::parse(test.source).map_err(|e| RunError::Parse(e.to_string()))?;
    let (op, _) = program
        .outcomes_with(config.explore, config.strategy)
        .map_err(RunError::Operational)?;
    let op = op.set().clone();
    let ax = axiomatic_outcomes(&program, config.enumerate).map_err(RunError::Enumeration)?;
    let (x86, arm_bal, arm_naive) = if config.hardware {
        let (x, b, n) = hardware_flags(test, &program, config.enumerate)?;
        (Some(x), Some(b), Some(n))
    } else {
        (None, None, None)
    };
    Ok(TestReport {
        x86,
        arm_bal,
        arm_naive,
        ..report_from_outcomes(test, &program, &op, &ax)
    })
}

/// One entry of a corpus sweep: the test name and its report (or error).
pub type CorpusEntry = (&'static str, Result<TestReport, RunError>);

/// Runs the whole corpus sequentially, in corpus order (the one-worker
/// case of [`run_corpus_sharded`]).
pub fn run_corpus(config: RunConfig) -> Vec<CorpusEntry> {
    run_corpus_sharded(config, 1)
}

/// Runs the whole corpus sharded across the engine's parallel map: each
/// litmus test is one work item, claimed dynamically by worker threads
/// (test costs vary by orders of magnitude, so static chunking would
/// straggle). `threads == 0` uses every available core.
///
/// Produces exactly the same entries as [`run_corpus`], in the same
/// (corpus) order — the sweep-equivalence tests assert this.
pub fn run_corpus_sharded(config: RunConfig, threads: usize) -> Vec<CorpusEntry> {
    let tests = crate::corpus::all_tests();
    parallel_map_with(&tests, threads, |t| (t.name, run_test(t, config)))
}

/// True iff every test in a sweep produced a passing report.
pub fn corpus_passes(entries: &[CorpusEntry]) -> bool {
    entries
        .iter()
        .all(|(_, r)| r.as_ref().map(TestReport::passes).unwrap_or(false))
}

/// The overall classification of a corpus sweep, for exit codes: run
/// failures (budget exhaustion, parse errors) are a different failure
/// class than model-mismatch check failures, and must not blur together.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorpusVerdict {
    /// Every test ran and every check matched the model.
    Pass,
    /// Every test ran, but some check disagreed with the model.
    CheckFailed,
    /// Some test did not produce a report at all (budget, parse, engine).
    RunFailed,
}

/// Classifies a sweep: any [`RunError`] dominates (the sweep is not a
/// model verdict at all), then any failing check.
pub fn classify_entries<N>(entries: &[(N, Result<TestReport, RunError>)]) -> CorpusVerdict {
    if entries.iter().any(|(_, r)| r.is_err()) {
        CorpusVerdict::RunFailed
    } else if entries
        .iter()
        .any(|(_, r)| !r.as_ref().is_ok_and(TestReport::passes))
    {
        CorpusVerdict::CheckFailed
    } else {
        CorpusVerdict::Pass
    }
}

/// Renders a run of the whole corpus as a table (used by the `litmus`
/// and `bdrst` binaries and EXPERIMENTS.md).
///
/// Tests that failed to *run* are rendered as explicit `ERROR` rows
/// carrying the failure class ([`RunError::kind`]: `budget` vs `parse`
/// vs `engine`) — distinctly from `✗ MISMATCH`, which marks a test that
/// ran fine and disagreed with the model. Callers that need an exit code
/// should use [`classify_entries`] rather than string-matching this
/// table.
pub fn format_reports<N: AsRef<str>>(reports: &[(N, Result<TestReport, RunError>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<34} {:>8} {:>6} {:>6}\n",
        "test", "outcome", "expect", "op", "ax"
    ));
    for (name, entry) in reports {
        match entry {
            Err(e) => {
                out.push_str(&format!(
                    "{:<10} {:<34} {:>8} {:>6} {:>6}   ⚠ ERROR ({}): {}\n",
                    name.as_ref(),
                    "—",
                    "—",
                    "—",
                    "—",
                    e.kind(),
                    e,
                ));
            }
            Ok(rep) => {
                for (i, (opv, axv)) in rep.operational.iter().zip(&rep.axiomatic).enumerate() {
                    out.push_str(&format!(
                        "{:<10} {:<34} {:>8} {:>6} {:>6}{}\n",
                        rep.name,
                        truncate(descs_of(rep, i), 34),
                        if opv.expected { "allowed" } else { "forbid" },
                        if opv.observed { "seen" } else { "—" },
                        if axv.observed { "seen" } else { "—" },
                        if opv.passes() && axv.passes() {
                            ""
                        } else {
                            "   ✗ MISMATCH"
                        },
                    ));
                }
            }
        }
    }
    out
}

// The corpus stores check descriptions statically; recover them by index.
fn descs_of(rep: &TestReport, i: usize) -> &'static str {
    crate::corpus::all_tests()
        .iter()
        .find(|t| t.name == rep.name)
        .map(|t| t.checks[i].description)
        .unwrap_or("?")
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n - 1).collect::<String>() + "…"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn sb_passes_both_models() {
        let rep = run_test(&corpus::SB, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn mp_passes_both_models() {
        let rep = run_test(&corpus::MP, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn lb_forbidden_everywhere() {
        let rep = run_test(&corpus::LB, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn example1_passes() {
        let rep = run_test(&corpus::EXAMPLE1, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn example3_passes() {
        let rep = run_test(&corpus::EXAMPLE3, RunConfig::default()).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn corpus_outcome_sets_identical_across_strategies() {
        // DFS, DPOR (the lane that answers `check`) and the outcomes read
        // off the sequential state graph produce byte-identical canonical
        // outcome sets on the full corpus.
        for t in corpus::all_tests() {
            let p = Program::parse(t.source).unwrap();
            let cfg = EngineConfig::default();
            let dfs = p.outcomes(cfg).unwrap().set().clone();
            let dpor = p
                .outcomes_with(cfg, Strategy::Dpor)
                .unwrap()
                .0
                .set()
                .clone();
            let (graph, _) = p.state_graph(cfg).unwrap();
            let recorded = p.outcomes_from_graph(&graph).set().clone();
            for (lane, got) in [("DPOR", &dpor), ("state graph", &recorded)] {
                assert_eq!(&dfs, got, "DFS vs {lane} diverge on {}", t.name);
                assert_eq!(
                    format!("{dfs:?}"),
                    format!("{got:?}"),
                    "rendered outcome sets differ under {lane} on {}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn sharded_sweep_matches_sequential_sweep() {
        let seq = run_corpus(RunConfig::default());
        let par = run_corpus_sharded(RunConfig::default(), 4);
        assert_eq!(seq.len(), par.len());
        for ((n1, r1), (n2, r2)) in seq.iter().zip(&par) {
            assert_eq!(n1, n2);
            assert_eq!(
                format!("{r1:?}"),
                format!("{r2:?}"),
                "sweep diverges on {n1}"
            );
        }
        assert!(corpus_passes(&seq), "corpus should pass: {seq:?}");
    }

    #[test]
    fn corpus_graph_replay_outcomes_match_live() {
        // The interner-backed successor graph must reproduce every
        // test's operational outcome set without re-running the
        // semantics: record the graph once, then read outcomes off the
        // cached terminal states.
        for t in corpus::all_tests() {
            let p = Program::parse(t.source).unwrap();
            let live = p.outcomes(EngineConfig::default()).unwrap().set().clone();
            let (graph, _) = p.state_graph(EngineConfig::default()).unwrap();
            let cached = p.outcomes_from_graph(&graph).set().clone();
            assert_eq!(live, cached, "graph replay diverges on {}", t.name);
        }
    }

    #[test]
    fn dpor_strategy_in_run_config() {
        let cfg = RunConfig {
            strategy: Strategy::Dpor,
            ..RunConfig::default()
        };
        let rep = run_test(&corpus::MP, cfg).unwrap();
        assert!(rep.passes(), "{rep:?}");
    }

    #[test]
    fn dpor_sweep_matches_sequential_sweep() {
        // The whole corpus under DPOR, sharded test-by-test over the
        // parallel map: reports must be identical to the fully
        // sequential DFS sweep.
        let dpor = RunConfig {
            strategy: Strategy::Dpor,
            ..RunConfig::default()
        };
        let seq = run_corpus(RunConfig::default());
        let par = run_corpus_sharded(dpor, 4);
        assert_eq!(seq.len(), par.len());
        for ((n1, r1), (n2, r2)) in seq.iter().zip(&par) {
            assert_eq!(n1, n2);
            assert_eq!(
                format!("{r1:?}"),
                format!("{r2:?}"),
                "DPOR sweep diverges on {n1}"
            );
        }
    }

    #[test]
    fn report_from_outcomes_matches_run_test() {
        for t in corpus::all_tests() {
            let program = Program::parse(t.source).unwrap();
            let op = program
                .outcomes(EngineConfig::default())
                .unwrap()
                .set()
                .clone();
            let ax = bdrst_axiomatic::axiomatic_outcomes(&program, Default::default()).unwrap();
            let from_outcomes = report_from_outcomes(t, &program, &op, &ax);
            let live = run_test(t, RunConfig::default()).unwrap();
            assert_eq!(
                format!("{from_outcomes:?}"),
                format!("{live:?}"),
                "reports diverge on {}",
                t.name
            );
        }
    }

    #[test]
    fn run_error_kinds_classify_budget_and_parse() {
        let tiny = RunConfig {
            explore: EngineConfig {
                max_states: 1,
                max_traces: 1,
            },
            ..RunConfig::default()
        };
        let err = run_test(&corpus::SB, tiny).unwrap_err();
        assert!(err.is_budget(), "{err:?}");
        assert_eq!(err.kind(), "budget");
        let parse = RunError::Parse("oops".into());
        assert!(!parse.is_budget());
        assert_eq!(parse.kind(), "parse");
    }

    #[test]
    fn format_reports_surfaces_run_errors_distinctly() {
        let good = run_test(&corpus::SB, RunConfig::default()).unwrap();
        let entries = vec![
            ("SB".to_string(), Ok(good)),
            (
                "BOOM".to_string(),
                Err(RunError::Operational(
                    bdrst_core::engine::EngineError::budget(7),
                )),
            ),
            ("BAD".to_string(), Err(RunError::Parse("nope".into()))),
        ];
        let table = format_reports(&entries);
        assert!(table.contains("ERROR (budget)"), "{table}");
        assert!(table.contains("ERROR (parse)"), "{table}");
        assert!(!table.contains("MISMATCH"), "{table}");
        assert_eq!(classify_entries(&entries), CorpusVerdict::RunFailed);
        let ok_only = vec![entries.into_iter().next().unwrap()];
        assert_eq!(classify_entries(&ok_only), CorpusVerdict::Pass);
    }

    #[test]
    fn naive_arm_shows_lb_on_hardware() {
        let cfg = RunConfig {
            hardware: true,
            ..RunConfig::default()
        };
        let rep = run_test(&corpus::LB, cfg).unwrap();
        // The forbidden outcome is visible under the naive mapping…
        assert!(rep.arm_naive.as_ref().unwrap()[0]);
        // …but not under BAL or x86.
        assert!(!rep.arm_bal.as_ref().unwrap()[0]);
        assert!(!rep.x86.as_ref().unwrap()[0]);
        assert!(rep.hardware_sound());
    }
}
