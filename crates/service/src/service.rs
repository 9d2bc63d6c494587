//! The cache-first check service: the one compute path shared by the CLI
//! and the TCP server.
//!
//! Every query resolves the program's [`CacheKey`]
//! (canonical fingerprint plus version tag) and consults the
//! [`ResultStore`] first. On a hit the
//! response is assembled purely from the cached entry — **zero
//! transition-semantics steps**, which the test suite asserts through the
//! engine's probe counter ([`bdrst_core::machine::semantics_probes`]).
//! On a miss the program is explored exactly once, in public steps
//! ([`CheckService::operational_outcomes`] enumerates the outcomes through
//! [`Program::outcomes_with`] under the configured strategy — DPOR in the
//! server's default, which holds no state graph;
//! [`CheckService::axiomatic_outcomes`] supplies the axiomatic set;
//! [`CacheEntry::new`] assembles the entry), and the entry is inserted
//! for every later query — including later *processes*, when the store
//! is disk-backed. The entry's `visited_states` is that walk's size:
//! executed trace extensions under DPOR, bounded by `max_states`.
//!
//! Trace-dependent queries (`check-races`, `check-localdrf`) have one
//! lane: record the trace graph once ([`CheckService::trace_graph`]) and
//! replay it; a request over the trace budget fails with `budget`.

use std::collections::BTreeSet;
use std::sync::Arc;

use bdrst_core::engine::{EngineConfig, ExploreStats, TraceEngine, TraceGraph};
use bdrst_core::localdrf::{
    check_local_drf_replayed, sc_race_freedom_reduced, CheckError, DrfStatus,
};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::{Observation, Program};
use bdrst_litmus::{report_from_outcomes, LitmusTest, RunConfig, RunError, TestReport};
use bdrst_race::{detect_races_replayed, DetectorConfig, RaceReport};

use crate::store::{version_tag, CacheEntry, CacheKey, CacheStats, ResultStore};

/// A cache-aware checking façade over one (shared) [`ResultStore`] and
/// one [`RunConfig`].
pub struct CheckService {
    store: Arc<ResultStore>,
    config: RunConfig,
    version: u64,
}

/// One resolved query: the parsed program, its store key and entry, and
/// whether the entry came from the cache.
#[derive(Debug)]
pub struct Checked {
    /// The parsed program (needed for name-based outcome rendering).
    pub program: Program,
    /// The key the entry is stored (and re-persisted) under.
    pub key: CacheKey,
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
                key,
                entry,
                cached: true,
            });
        }
        drop(lookup_span);
        let (op, stats) = self.operational_outcomes(&program)?;
        let ax = self.axiomatic_outcomes(&program)?;
        let entry = CacheEntry::new(canonical, op, ax, stats.visited as u64);
        let entry = self.store.insert(key, entry);
        Ok(Checked {
            program,
            key,
            entry,
            cached: false,
        })
    }

    /// The operational step of a miss: the outcome set with the
    /// statistics of the walk that found it — the call the litmus runner
    /// makes, [`Program::outcomes_with`] under this service's budgets and
    /// strategy. Under the server's default, [`Strategy::Dpor`], the walk
    /// runs one trace per equivalence class, holds no state graph, and
    /// charges its executed extensions to `max_states`.
    ///
    /// [`Strategy::Dpor`]: bdrst_core::engine::Strategy::Dpor
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] on budget exhaustion or corruption.
    pub fn operational_outcomes(
        &self,
        program: &Program,
    ) -> Result<(BTreeSet<Observation>, ExploreStats), RunError> {
        let (op, stats) = program
            .outcomes_with(self.config.explore, self.config.strategy)
            .map_err(RunError::Operational)?;
        Ok((op.set().clone(), stats))
    }

    /// The axiomatic step of a miss: the observations of the program's
    /// consistent executions under this service's enumeration limits.
    ///
    /// # Errors
    ///
    /// [`RunError::Enumeration`] when the search exceeds its limits.
    pub fn axiomatic_outcomes(&self, program: &Program) -> Result<BTreeSet<Observation>, RunError> {
        bdrst_axiomatic::axiomatic_outcomes(program, self.config.enumerate)
            .map_err(RunError::Enumeration)
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
            self.store.persist(checked.key, &checked.entry);
        }
        Ok(racefree)
    }

    /// The recorded trace graph of a checked program — its trace tree,
    /// one row per distinct machine ([`TraceEngine::record`]) — memoized
    /// into its cache entry (and re-persisted on first recording): record
    /// once, then answer every trace-dependent query — any `L` set of
    /// `check-localdrf`, every `check-races` — by replay, without
    /// re-running the transition semantics.
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] when the tree has more distinct machines
    /// than the trace budget allows. The budget error is memoized in
    /// [`CacheEntry::trace_infeasible`], so a repeat query fails at once.
    pub fn trace_graph<'e>(&self, checked: &'e Checked) -> Result<&'e TraceGraph, RunError> {
        if let Some(t) = checked.entry.trace.get() {
            return Ok(t);
        }
        if let Some(e) = checked.entry.trace_infeasible.get() {
            return Err(RunError::Operational(*e));
        }
        let (graph, _) = TraceEngine::new(self.engine_config())
            .record(&checked.program.locs, checked.program.initial_machine())
            .map_err(|e| {
                if e.is_budget() {
                    let _ = checked.entry.trace_infeasible.set(e);
                }
                RunError::Operational(e)
            })?;
        if checked.entry.trace.set(graph).is_ok() {
            self.store.persist(checked.key, &checked.entry);
        }
        Ok(checked.entry.trace.get().expect("just set"))
    }

    /// Checks Theorem 13's derived local-DRF property for the locations
    /// named in `loc_names` (every nonatomic location when empty) by
    /// replaying the cached trace tree ([`CheckService::trace_graph`] —
    /// one recording answers every `L` set).
    ///
    /// Returns `Ok(true)` when the theorem holds and `Ok(false)` on a
    /// violation (impossible for the paper's semantics).
    ///
    /// # Errors
    ///
    /// [`RunError::Parse`] on an unknown location name, and
    /// [`RunError::Operational`] on engine failures, budget exhaustion
    /// included.
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
        let graph = self.trace_graph(checked)?;
        match check_local_drf_replayed(&program.locs, graph, &l, self.engine_config()) {
            Ok(_) => Ok(true),
            Err(CheckError::Violation(_)) => Ok(false),
            Err(CheckError::Engine(e)) => Err(RunError::Operational(e)),
        }
    }

    /// Dynamic race detection ([`bdrst_race`]) for a checked program:
    /// replays the detector over the cached trace tree (zero
    /// transition-semantics steps when the entry — including its
    /// recording — is warm).
    ///
    /// # Errors
    ///
    /// [`RunError::Operational`] on budget exhaustion.
    pub fn check_races(&self, checked: &Checked) -> Result<RaceReport, RunError> {
        let graph = self.trace_graph(checked)?;
        detect_races_replayed(
            &checked.program.locs,
            graph,
            self.engine_config(),
            DetectorConfig::default(),
        )
        .map_err(RunError::Operational)
    }

    /// Builds the [`TestReport`] of a built-in corpus test from a checked
    /// entry's cached outcome sets.
    pub fn report(&self, test: &LitmusTest, checked: &Checked) -> TestReport {
        report_from_outcomes(test, &checked.program, &checked.entry.op, &checked.entry.ax)
    }

    /// Runs the whole built-in corpus through the cache, returning
    /// per-test entries in corpus order.
    pub fn check_corpus(&self) -> Vec<(String, Result<TestReport, RunError>)> {
        bdrst_litmus::all_tests()
            .iter()
            .map(|t| {
                let rep = self
                    .check_source(t.source)
                    .map(|checked| self.report(t, &checked));
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
