//! The cache-first check service: the one compute path shared by the CLI
//! and the TCP server.
//!
//! Every query resolves the program's [`CacheKey`](crate::store::CacheKey)
//! (canonical fingerprint plus version tag) and consults the
//! [`ResultStore`] first. On a hit the
//! response is assembled purely from the cached entry — **zero
//! transition-semantics steps**, which the test suite asserts through the
//! engine's probe counter ([`bdrst_core::machine::semantics_probes`]).
//! On a miss the program is explored exactly once through the existing
//! engine machinery (`Program::state_graph` records the interned
//! successor graph; outcomes are read off its terminal states;
//! [`bdrst_axiomatic::axiomatic_outcomes`] supplies the axiomatic set)
//! and the entry is inserted for every later query — including later
//! *processes*, when the store is disk-backed.

use std::collections::BTreeSet;
use std::sync::Arc;

use bdrst_core::engine::{EngineConfig, TraceEngine, TraceGraph};
use bdrst_core::localdrf::{
    check_local_drf, check_local_drf_replayed, sc_race_freedom_reduced, CheckError, DrfStatus,
};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::Program;
use bdrst_litmus::{report_from_outcomes, LitmusTest, RunConfig, RunError, TestReport};
use bdrst_race::{detect_races_program, detect_races_replayed, DetectorConfig, RaceReport};

use crate::store::{version_tag, CacheEntry, CacheStats, ResultStore};

/// A cache-aware checking façade over one (shared) [`ResultStore`] and
/// one [`RunConfig`].
pub struct CheckService {
    store: Arc<ResultStore>,
    config: RunConfig,
    version: u64,
}

/// One resolved query: the parsed program, its store entry, and whether
/// the entry came from the cache.
#[derive(Debug)]
pub struct Checked {
    /// The parsed program (needed for name-based outcome rendering).
    pub program: Program,
    /// The (possibly just-computed) cache entry.
    pub entry: Arc<CacheEntry>,
    /// True iff the entry was served from the store.
    pub cached: bool,
}

impl CheckService {
    /// A service over `store` running every miss under `config`.
    pub fn new(store: Arc<ResultStore>, config: RunConfig) -> CheckService {
        let version = version_tag(&config);
        CheckService {
            store,
            config,
            version,
        }
    }

    /// A sibling service over the same store and configuration.
    pub fn fork(&self) -> CheckService {
        CheckService::new(Arc::clone(&self.store), self.config)
    }

    /// A sibling over the same store under a different run configuration
    /// (per-request budget tightening). The version tag follows the
    /// configuration, so differently-budgeted results live under
    /// disjoint keys.
    pub fn fork_with_config(&self, config: RunConfig) -> CheckService {
        CheckService::new(Arc::clone(&self.store), config)
    }

    /// A sibling with per-request budget caps applied: each present cap
    /// is clamped to this service's own limit (a request can tighten
    /// its budgets, never exceed the server's). `None` fields keep the
    /// server's value.
    pub fn fork_tightened(
        &self,
        max_states: Option<usize>,
        max_traces: Option<usize>,
    ) -> CheckService {
        let mut config = self.config;
        if let Some(s) = max_states {
            config.explore.max_states = config.explore.max_states.min(s);
        }
        if let Some(t) = max_traces {
            config.explore.max_traces = config.explore.max_traces.min(t);
        }
        self.fork_with_config(config)
    }

    /// The run configuration applied to misses.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// The underlying store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Store traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Parses and checks a source program, cache-first.
    ///
    /// # Errors
    ///
    /// [`RunError::Parse`] on syntax errors, [`RunError::Operational`] /
    /// [`RunError::Enumeration`] when a miss fails to compute (budget
    /// exhaustion or corruption) — nothing is cached in that case.
    pub fn check_source(&self, source: &str) -> Result<Checked, RunError> {
        let program = Program::parse(source).map_err(|e| RunError::Parse(e.to_string()))?;
        self.check_program(program)
    }

    /// [`CheckService::check_source`] from an already-parsed program.
    ///
    /// # Errors
    ///
    /// As [`CheckService::check_source`], minus the parse case.
    pub fn check_program(&self, program: Program) -> Result<Checked, RunError> {
        let lookup_span = bdrst_obs::span(bdrst_obs::Phase::CacheLookup);
        let key = self
            .store
            .key_for(&program, self.version)
            .map_err(RunError::Operational)?;
        let canonical = program.to_source();
        if let Some(entry) = self.store.lookup(key, &canonical) {
            return Ok(Checked {
                program,
                entry,
                cached: true,
            });
        }
        drop(lookup_span);
        let (graph, stats) = program
            .state_graph_with(self.config.explore, self.config.strategy)
            .map_err(RunError::Operational)?;
        let op = program.outcomes_from_graph(&graph).set().clone();
        let ax = bdrst_axiomatic::axiomatic_outcomes(&program, self.config.enumerate)
            .map_err(RunError::Enumeration)?;
        let entry = CacheEntry {
            source: canonical,
            op,
            ax,
            visited_states: stats.visited as u64,
            graph: self.store.persist_graphs().then_some(graph),
            global_racefree: std::sync::OnceLock::new(),
            trace: std::sync::OnceLock::new(),
            trace_infeasible: std::sync::OnceLock::new(),
        };
        let entry = self.store.insert(key, entry);
        Ok(Checked {
            program,
            entry,
            cached: false,
        })
    }

    /// The global-DRF verdict (Theorem 14 hypothesis — every sequentially
    /// consistent trace race-free) for a checked program, memoized into
    /// its cache entry and re-persisted on first computation.
    ///
    /// Cache misses run the *partial-order-reduced* SC race scan
    /// ([`sc_race_freedom_reduced`]): the memoized value is a pure
    /// classification, which the reduced walk computes identically to
    /// the full enumeration (the differential suites assert this) in a
    /// fraction of the traces. Queries that need a concrete witness
    /// ([`CheckService::check_races`]) keep the full-tree paths.
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] on trace-budget exhaustion.
    pub fn global_racefree(&self, checked: &Checked) -> Result<bool, RunError> {
        if let Some(v) = checked.entry.global_racefree.get() {
            return Ok(*v);
        }
        let status = sc_race_freedom_reduced(
            &checked.program.locs,
            checked.program.initial_machine(),
            self.engine_config(),
        )
        .map_err(RunError::Operational)?;
        let racefree = matches!(status, DrfStatus::RaceFree);
        if checked.entry.global_racefree.set(racefree).is_ok() {
            if let Ok(key) = self.store.key_for(&checked.program, self.version) {
                self.store.persist(key, &checked.entry);
            }
        }
        Ok(racefree)
    }

    /// The recorded trace tree of a checked program, memoized into its
    /// cache entry (and re-persisted on first recording): record once,
    /// then answer every trace-dependent query — any `L` set of
    /// `check-localdrf`, every `check-races` — by replay, without
    /// re-running the transition semantics.
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] when the *full* (unfiltered) tree
    /// exceeds the trace budget. Callers that can fall back to a
    /// filtered live walk do so on budget errors.
    pub fn trace_graph<'e>(&self, checked: &'e Checked) -> Result<&'e TraceGraph, RunError> {
        if let Some(t) = checked.entry.trace.get() {
            return Ok(t);
        }
        // A previous attempt already proved the full tree does not fit
        // the budget: don't re-run the doomed recording per request.
        if let Some(e) = checked.entry.trace_infeasible.get() {
            return Err(RunError::Operational(*e));
        }
        let graph = match TraceEngine::new(self.engine_config())
            .record(&checked.program.locs, checked.program.initial_machine())
        {
            Ok((graph, _)) => graph,
            Err(e) => {
                if e.is_budget() {
                    let _ = checked.entry.trace_infeasible.set(e);
                }
                return Err(RunError::Operational(e));
            }
        };
        if checked.entry.trace.set(graph).is_ok() {
            if let Ok(key) = self.store.key_for(&checked.program, self.version) {
                self.store.persist(key, &checked.entry);
            }
        }
        Ok(checked.entry.trace.get().expect("just set"))
    }

    /// Checks Theorem 13's derived local-DRF property for the locations
    /// named in `loc_names` (every nonatomic location when empty). The
    /// verdict replays the cached trace tree ([`CheckService::trace_graph`]
    /// — one recording answers every `L` set); only when recording the
    /// full tree exceeds the trace budget does it fall back to a
    /// filtered live walk.
    ///
    /// # Errors
    ///
    /// `Err(Some(..))` style is avoided: returns `Ok(true)` when the
    /// theorem holds, `Ok(false)` with a violation (impossible for the
    /// paper's semantics), or [`RunError`] on unknown locations and
    /// engine failures.
    pub fn local_drf(&self, checked: &Checked, loc_names: &[String]) -> Result<bool, RunError> {
        let program = &checked.program;
        let mut l = LocPredicate::default();
        if loc_names.is_empty() {
            for loc in program.locs.nonatomic() {
                l.insert(loc);
            }
        } else {
            for name in loc_names {
                let loc = program
                    .locs
                    .by_name(name)
                    .ok_or_else(|| RunError::Parse(format!("unknown location `{name}`")))?;
                l.insert(loc);
            }
        }
        let result = match self.trace_graph(checked) {
            Ok(graph) => check_local_drf_replayed(&program.locs, graph, &l, self.engine_config()),
            Err(e) if e.is_budget() => check_local_drf(
                &program.locs,
                program.initial_machine(),
                &l,
                self.engine_config(),
            ),
            Err(e) => return Err(e),
        };
        match result {
            Ok(_) => Ok(true),
            Err(CheckError::Violation(_)) => Ok(false),
            Err(CheckError::Engine(e)) => Err(RunError::Operational(e)),
        }
    }

    /// Dynamic race detection ([`bdrst_race`]) for a checked program:
    /// replays the detector over the cached trace tree (zero
    /// transition-semantics steps when the entry — including its
    /// recording — is warm), falling back to a live walk only when the
    /// full tree exceeds the trace budget.
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] on budget exhaustion.
    pub fn check_races(&self, checked: &Checked) -> Result<RaceReport, RunError> {
        let config = DetectorConfig::default();
        match self.trace_graph(checked) {
            Ok(graph) => {
                detect_races_replayed(&checked.program.locs, graph, self.engine_config(), config)
                    .map_err(RunError::Operational)
            }
            Err(e) if e.is_budget() => {
                detect_races_program(&checked.program, self.engine_config(), config)
                    .map_err(RunError::Operational)
            }
            Err(e) => Err(e),
        }
    }

    /// Builds the [`TestReport`] of a built-in corpus test from a checked
    /// entry's cached outcome sets. When the configuration requests
    /// hardware checking, the hardware outcome flags are enumerated per
    /// call ([`bdrst_litmus::hardware_flags`]) — only the
    /// operational/axiomatic sets are cache-backed.
    ///
    /// # Errors
    ///
    /// [`RunError::Enumeration`] when a requested hardware enumeration
    /// exceeds its limits (never, when `config.hardware` is off).
    pub fn report(&self, test: &LitmusTest, checked: &Checked) -> Result<TestReport, RunError> {
        let mut report =
            report_from_outcomes(test, &checked.program, &checked.entry.op, &checked.entry.ax);
        if self.config.hardware {
            let (x86, arm_bal, arm_naive) =
                bdrst_litmus::hardware_flags(test, &checked.program, self.config.enumerate)?;
            report.x86 = Some(x86);
            report.arm_bal = Some(arm_bal);
            report.arm_naive = Some(arm_naive);
        }
        Ok(report)
    }

    /// Runs the whole built-in corpus through the cache, returning
    /// per-test entries in corpus order.
    pub fn check_corpus(&self) -> Vec<(String, Result<TestReport, RunError>)> {
        bdrst_litmus::all_tests()
            .iter()
            .map(|t| {
                let rep = self
                    .check_source(t.source)
                    .and_then(|checked| self.report(t, &checked));
                (t.name.to_string(), rep)
            })
            .collect()
    }

    fn engine_config(&self) -> EngineConfig {
        self.config.explore
    }
}

/// Convenience: the op/ax outcome sets of an entry as (named) display
/// strings, in set order — the shape both the CLI table and the JSON
/// protocol render.
pub fn outcome_strings(program: &Program, set: &BTreeSet<bdrst_lang::Observation>) -> Vec<String> {
    set.iter()
        .map(|obs| {
            let named = program.name_observation(obs);
            let mut parts = Vec::new();
            for t in &program.threads {
                for r in &t.regs {
                    if let Some(v) = named.reg_named(&t.name, r) {
                        parts.push(format!("{}:{}={}", t.name, r, v));
                    }
                }
            }
            for l in program.locs.iter() {
                parts.push(format!(
                    "{}={}",
                    program.locs.name(l),
                    named.mem_named(program.locs.name(l)).unwrap_or(0)
                ));
            }
            parts.join(" ")
        })
        .collect()
}
