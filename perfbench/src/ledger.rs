//! The traced run's per-layer ledger.
//!
//! [`Chain`] re-issues a request in-process as the chain of public calls
//! the check service makes for it — parse, key and lookup, state graph,
//! axiomatic enumeration, insert, then the reduced race scan or the trace
//! recording and its replay — and [`Recorder`] puts one span on each
//! call, under one parent span per request. Spans stay in memory until
//! the run ends. Each span also records the deltas of the observability
//! counters across its call, so every count is attributed to the layer
//! that did the work.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bdrst_core::engine::{EngineError, TraceEngine, TraceGraph};
use bdrst_core::localdrf::{
    check_local_drf, check_local_drf_replayed, sc_race_freedom_reduced, CheckError, DrfStatus,
};
use bdrst_core::trace::LocPredicate;
use bdrst_lang::Program;
use bdrst_litmus::RunConfig;
use bdrst_obs::Counter;
use bdrst_race::{detect_races_program, detect_races_replayed, DetectorConfig};
use bdrst_service::store::{version_tag, CacheEntry, ResultStore};

use crate::workload::{Cmd, Request, Verdict};

/// A layer of the system, named after the module that implements it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The benchmark's per-request parent span (its self time is the
    /// glue between calls).
    Request,
    /// `lang`: parsing and printing programs.
    Lang,
    /// `core.engine`: state-space exploration into a state graph.
    Engine,
    /// `axiomatic`: candidate-execution enumeration.
    Axiomatic,
    /// `core.dpor`: the partial-order-reduced SC race scan.
    Dpor,
    /// `core.trace`: recording the full trace tree.
    Trace,
    /// `race`: the vector-clock race detector, replayed or live.
    Race,
    /// `core.localdrf`: the local DRF check, replayed or live.
    LocalDrf,
    /// `service.store`: cache keys, lookups, inserts and persistence.
    Store,
}

impl Layer {
    /// Every layer the chain calls into.
    pub const CALLED: [Layer; 8] = [
        Layer::Lang,
        Layer::Engine,
        Layer::Axiomatic,
        Layer::Dpor,
        Layer::Trace,
        Layer::Race,
        Layer::LocalDrf,
        Layer::Store,
    ];

    /// The module name.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Lang => "lang",
            Layer::Engine => "core.engine",
            Layer::Axiomatic => "axiomatic",
            Layer::Dpor => "core.dpor",
            Layer::Trace => "core.trace",
            Layer::Race => "race",
            Layer::LocalDrf => "core.localdrf",
            Layer::Store => "service.store",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// The layer called.
    pub layer: Layer,
    /// The call within the layer (`parse`, `record`, `lookup`, ...).
    pub op: &'static str,
    /// Index of the request the span belongs to.
    pub request: u32,
    /// Index (in [`Recorder::spans`]) of the parent span.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-memory span recorder. When disabled every entry point just runs
/// its closure, so the same chain code serves the untraced pass that
/// measures the recorder's own overhead.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    deltas: BTreeMap<Layer, Vec<u64>>,
    parent: Option<u32>,
    requests: u32,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            deltas: BTreeMap::new(),
            parent: None,
            requests: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs one request under a parent span.
    pub fn request<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            layer: Layer::Request,
            op: "request",
            request: self.requests,
            parent: None,
            start_ns,
            dur_ns: 0,
        });
        self.parent = Some(index);
        let r = f(self);
        self.parent = None;
        self.spans[index as usize].dur_ns = self.now_ns() - start_ns;
        self.requests += 1;
        r
    }

    /// Runs one call into `layer` under a span, attributing the
    /// counter deltas across the call to the layer.
    pub fn span<R>(&mut self, layer: Layer, op: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let before = bdrst_obs::counters_snapshot();
        let start_ns = self.now_ns();
        let r = f();
        let dur_ns = self.now_ns() - start_ns;
        let after = bdrst_obs::counters_snapshot();
        let deltas = self
            .deltas
            .entry(layer)
            .or_insert_with(|| vec![0; after.len()]);
        for (d, ((_, a), (_, b))) in deltas.iter_mut().zip(after.iter().zip(&before)) {
            *d += a.saturating_sub(*b);
        }
        self.spans.push(SpanRec {
            layer,
            op,
            request: self.requests,
            parent: self.parent,
            start_ns,
            dur_ns,
        });
        r
    }

    /// Renames the most recent span (a recording that tripped its
    /// budget is only known to have done so after the call).
    fn relabel_last(&mut self, op: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.op = op;
        }
    }

    /// The total change of `counter` across `layer`'s calls.
    pub fn delta(&self, layer: Layer, counter: Counter) -> u64 {
        self.deltas
            .get(&layer)
            .map_or(0, |d| d.get(counter as usize).copied().unwrap_or(0))
    }

    /// Every counter that changed across `layer`'s calls, with its total
    /// change.
    pub fn deltas(&self, layer: Layer) -> Vec<(&'static str, u64)> {
        let Some(deltas) = self.deltas.get(&layer) else {
            return Vec::new();
        };
        bdrst_obs::counters_snapshot()
            .into_iter()
            .zip(deltas)
            .filter(|(_, d)| **d > 0)
            .map(|((name, _), d)| (name, *d))
            .collect()
    }

    /// Durations (ns) of every span of `layer` named `op`.
    pub fn durations(&self, layer: Layer, op: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Per-layer call count, busy time and self time.
    pub fn layers(&self) -> BTreeMap<Layer, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<Layer, LayerStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_default();
            e.calls += 1;
            e.busy_ns += s.dur_ns;
            e.self_ns += s.dur_ns.saturating_sub(child);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{}}}}}",
                s.op,
                s.layer.module(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.request
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One layer's totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Spans recorded.
    pub calls: u64,
    /// Total span time, nanoseconds.
    pub busy_ns: u64,
    /// Span time not covered by child spans, nanoseconds.
    pub self_ns: u64,
}

/// Counts the chain keeps beside the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Canonical states visited by state-graph explorations.
    pub states: u64,
    /// Traces in the trees recorded whole.
    pub traces: u64,
    /// Traces visited by recordings before they tripped their budget.
    pub tripped_traces: u64,
    /// Recordings that tripped their trace budget.
    pub budget_trips: u64,
}

/// The run configuration a request runs under: the server's, with the
/// request's `max_traces` cap applied the way the server clamps it.
pub fn request_config(base: RunConfig, max_traces: Option<usize>) -> RunConfig {
    let mut config = base;
    if let Some(cap) = max_traces {
        config.explore.max_traces = config.explore.max_traces.min(cap);
    }
    config
}

/// The in-process call chain of the check service, over one store.
pub struct Chain {
    store: Arc<ResultStore>,
    base: RunConfig,
    /// Counts accumulated over every request run so far.
    pub tally: Tally,
}

impl Chain {
    /// A chain over `store` under the server's run configuration `base`.
    pub fn new(store: Arc<ResultStore>, base: RunConfig) -> Chain {
        Chain {
            store,
            base,
            tally: Tally::default(),
        }
    }

    /// Runs `request` under a parent span, returning its verdict.
    ///
    /// # Errors
    ///
    /// Any failure the server would answer with an error line.
    pub fn run(&mut self, rec: &mut Recorder, request: &Request) -> Result<Verdict, String> {
        rec.request(|rec| self.run_calls(rec, request))
    }

    fn run_calls(&mut self, rec: &mut Recorder, request: &Request) -> Result<Verdict, String> {
        let config = request_config(self.base, request.max_traces);
        let version = version_tag(&config);
        let program = rec
            .span(Layer::Lang, "parse", || {
                Program::parse(&request.prog.source)
            })
            .map_err(|e| e.to_string())?;
        if request.cmd == Cmd::Parse {
            rec.span(Layer::Lang, "print", || program.to_source());
            return Ok(Verdict::Parsed(program.threads.len()));
        }
        let store = &*self.store;
        let key = rec
            .span(Layer::Store, "key", || store.key_for(&program, version))
            .map_err(|e| e.to_string())?;
        let (found, canonical) = rec.span(Layer::Store, "lookup", || {
            let canonical = program.to_source();
            (store.lookup(key, &canonical), canonical)
        });
        let entry = match found {
            Some(entry) => entry,
            None => {
                let (graph, stats) = rec
                    .span(Layer::Engine, "state_graph", || {
                        program.state_graph_with(config.explore, config.strategy)
                    })
                    .map_err(|e| e.to_string())?;
                self.tally.states += stats.visited as u64;
                let op = rec.span(Layer::Engine, "outcomes", || {
                    program.outcomes_from_graph(&graph).set().clone()
                });
                let ax = rec
                    .span(Layer::Axiomatic, "enumerate", || {
                        bdrst_axiomatic::axiomatic_outcomes(&program, config.enumerate)
                    })
                    .map_err(|e| e.to_string())?;
                let entry = CacheEntry {
                    source: canonical,
                    op,
                    ax,
                    visited_states: stats.visited as u64,
                    graph: store.persist_graphs().then_some(graph),
                    global_racefree: OnceLock::new(),
                    trace: OnceLock::new(),
                    trace_infeasible: OnceLock::new(),
                };
                rec.span(Layer::Store, "insert", || store.insert(key, entry))
            }
        };
        let persist = |rec: &mut Recorder, entry: &CacheEntry| {
            rec.span(Layer::Store, "persist", || {
                if let Ok(key) = store.key_for(&program, version) {
                    store.persist(key, entry);
                }
            })
        };
        match request.cmd {
            Cmd::Parse => unreachable!("answered above"),
            Cmd::Check => Ok(Verdict::ModelsAgree(entry.op == entry.ax)),
            Cmd::CheckGlobal => {
                if let Some(v) = entry.global_racefree.get() {
                    return Ok(Verdict::RaceFree(*v));
                }
                let status = rec
                    .span(Layer::Dpor, "global", || {
                        sc_race_freedom_reduced(
                            &program.locs,
                            program.initial_machine(),
                            config.explore,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let racefree = matches!(status, DrfStatus::RaceFree);
                if entry.global_racefree.set(racefree).is_ok() {
                    persist(rec, &entry);
                }
                Ok(Verdict::RaceFree(racefree))
            }
            Cmd::CheckRaces => {
                let detector = DetectorConfig::default();
                let report = match self.trace_graph(rec, &program, &entry, config)? {
                    Some(graph) => rec.span(Layer::Race, "replay", || {
                        detect_races_replayed(&program.locs, graph, config.explore, detector)
                    }),
                    None => rec.span(Layer::Race, "live", || {
                        detect_races_program(&program, config.explore, detector)
                    }),
                };
                Ok(Verdict::Racy(report.map_err(|e| e.to_string())?.racy()))
            }
            Cmd::CheckLocalDrf => {
                let mut l = LocPredicate::default();
                for loc in program.locs.nonatomic() {
                    l.insert(loc);
                }
                let result = match self.trace_graph(rec, &program, &entry, config)? {
                    Some(graph) => rec.span(Layer::LocalDrf, "replay", || {
                        check_local_drf_replayed(&program.locs, graph, &l, config.explore)
                    }),
                    None => rec.span(Layer::LocalDrf, "live", || {
                        check_local_drf(
                            &program.locs,
                            program.initial_machine(),
                            &l,
                            config.explore,
                        )
                    }),
                };
                match result {
                    Ok(_) => Ok(Verdict::Holds(true)),
                    Err(CheckError::Violation(_)) => Ok(Verdict::Holds(false)),
                    Err(CheckError::Engine(e)) => Err(e.to_string()),
                }
            }
        }
    }

    /// The entry's recorded trace tree, recording (and persisting) it on
    /// first use; `None` when the full tree does not fit the trace
    /// budget, so the caller walks live.
    fn trace_graph<'e>(
        &mut self,
        rec: &mut Recorder,
        program: &Program,
        entry: &'e CacheEntry,
        config: RunConfig,
    ) -> Result<Option<&'e TraceGraph>, String> {
        if let Some(t) = entry.trace.get() {
            return Ok(Some(t));
        }
        if entry.trace_infeasible.get().is_some() {
            return Ok(None);
        }
        let recorded = rec.span(Layer::Trace, "record", || {
            TraceEngine::new(config.explore).record(&program.locs, program.initial_machine())
        });
        match recorded {
            Ok((graph, _)) => {
                self.tally.traces += graph.len() as u64;
                if entry.trace.set(graph).is_ok() {
                    let store = &*self.store;
                    let version = version_tag(&config);
                    rec.span(Layer::Store, "persist", || {
                        if let Ok(key) = store.key_for(program, version) {
                            store.persist(key, entry);
                        }
                    });
                }
                Ok(entry.trace.get())
            }
            Err(e @ EngineError::BudgetExceeded { visited }) => {
                rec.relabel_last("record-tripped");
                self.tally.tripped_traces += visited as u64;
                self.tally.budget_trips += 1;
                let _ = entry.trace_infeasible.set(e);
                Ok(None)
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Encoded size of an entry's bulk — source, state graph and trace tree —
/// and of its trace tree alone, in bytes: what a disk-backed store writes.
pub fn entry_bytes(entry: &CacheEntry) -> (usize, usize) {
    let mut buf = Vec::new();
    if let Some(g) = &entry.graph {
        g.encode(&mut buf);
    }
    let graph = buf.len();
    buf.clear();
    if let Some(t) = entry.trace.get() {
        t.encode(&mut buf);
    }
    (entry.source.len() + graph + buf.len(), buf.len())
}
