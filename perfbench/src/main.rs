//! Runs one benchmark workload from a seed and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-cold --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it re-issues the same requests in-process, once through
//! the check service and twice through the traced call chain (spans off,
//! then on), and reports the per-layer ledger. The last line of standard
//! output is the result as one JSON object; the exit code is non-zero
//! when any response was wrong or missing.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bdrst_litmus::RunConfig;
use bdrst_obs::Counter;
use bdrst_perfbench::client::{run_cold, run_warm, Conn, Phase, Sample};
use bdrst_perfbench::ledger::{entry_bytes, request_config, Chain, Layer, Recorder};
use bdrst_perfbench::report::{Metrics, END_TO_END, PER_LAYER};
use bdrst_perfbench::stats::{median, tail, Tail, TAIL_LADDER};
use bdrst_perfbench::workload::{verdict_of, warm_pool, Cmd, ColdPlan, Prog, Request, Workload};
use bdrst_service::server::{default_run_config, handle_line, serve, ServeConfig, ServerHandle};
use bdrst_service::service::CheckService;
use bdrst_service::store::{version_tag, ResultStore, StoreConfig};
use bdrst_service::Json;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The tail percentile keeps at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

/// At most this many `serve-warm` connections, however many cores.
const MAX_CONNS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload explore-cold|races-cold|serve-warm \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from(".perfbench-out");
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("perfbench: {failed} request(s) failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A running server and the store behind it.
struct Served {
    handle: ServerHandle,
    store: Arc<ResultStore>,
    dir: Option<PathBuf>,
}

impl Served {
    fn stop(self) {
        self.handle.shutdown();
        if let Some(dir) = self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

fn disk_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        disk_dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    }
}

/// A store as a workload starts against it: empty and in memory for the
/// cold workloads; for `serve-warm`, a disk store in `dir` pre-populated
/// with every pool program's entry (outcomes, global verdict and trace
/// tree) and then reopened, as a restarted server would find it.
fn open_store(pool: Option<&[Arc<Prog>]>, dir: &Path) -> Result<Arc<ResultStore>, String> {
    let Some(pool) = pool else {
        return Ok(Arc::new(ResultStore::in_memory()));
    };
    let _ = fs::remove_dir_all(dir);
    let io = |e: std::io::Error| format!("store at {}: {e}", dir.display());
    let warm = CheckService::new(
        Arc::new(ResultStore::new(disk_config(dir)).map_err(io)?),
        default_run_config(),
    );
    for p in pool {
        let run = |e: bdrst_litmus::RunError| format!("pre-populating {}: {e}", p.label);
        let checked = warm.check_source(&p.source).map_err(run)?;
        warm.global_racefree(&checked).map_err(run)?;
        warm.check_races(&checked).map_err(run)?;
        warm.local_drf(&checked, &[]).map_err(run)?;
    }
    drop(warm);
    Ok(Arc::new(ResultStore::new(disk_config(dir)).map_err(io)?))
}

/// A workload's generated inputs.
enum Inputs {
    /// The cold workloads' program cycles.
    Cold(ColdPlan),
    /// `serve-warm`'s pre-populated pool.
    Warm(Arc<Vec<Arc<Prog>>>),
}

impl Inputs {
    fn pool(&self) -> Option<&[Arc<Prog>]> {
        match self {
            Inputs::Cold(_) => None,
            Inputs::Warm(pool) => Some(pool),
        }
    }
}

/// Set-up: generates the inputs, builds the store and starts the server.
fn set_up(workload: Workload, seed: u64, dir: &Path) -> Result<(Served, Inputs), String> {
    let inputs = match workload {
        Workload::ServeWarm => Inputs::Warm(Arc::new(warm_pool(seed))),
        cold => Inputs::Cold(ColdPlan::new(cold, seed)),
    };
    let store = open_store(inputs.pool(), dir)?;
    let service = Arc::new(CheckService::new(Arc::clone(&store), default_run_config()));
    let handle = serve(service, "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("starting the server: {e}"))?;
    let served = Served {
        handle,
        store,
        dir: inputs.pool().is_some().then(|| dir.to_path_buf()),
    };
    Ok((served, inputs))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<u64, String> {
    fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let tag = format!("{}-{}", std::process::id(), args.workload.name());
    let store_dir = |name: &str| args.out.join(format!("store-{tag}-{name}"));

    // Set up several times; keep the last server, report the median.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for rep in 0..SETUP_REPS {
        if let Some((served, _)) = current.take() {
            Served::stop(served);
        }
        let start = Instant::now();
        current = Some(set_up(
            args.workload,
            args.seed,
            &store_dir(&format!("setup{rep}")),
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (served, inputs) = current.expect("at least one set-up");
    let pool = inputs.pool();
    let addr = served.handle.addr();

    // A traced run replays its socket phase three times in-process, so
    // the socket phase takes a third of the run: the whole run then
    // lasts about as long as an untraced one.
    let socket_s = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let conns = cores().min(MAX_CONNS);
    if let Some(pool) = pool {
        // Derive the pool's answers now, outside set-up and the timed
        // phase, so responses on pool programs are checked as they come.
        for p in pool {
            p.answer()?;
        }
    }
    let phase = match &inputs {
        Inputs::Cold(plan) => run_cold(addr, &served.store, plan, socket_s),
        Inputs::Warm(pool) => run_warm(addr, pool, args.seed, conns, socket_s, args.trace),
    };
    let mut phase = match phase {
        Ok(p) => p,
        Err(e) => {
            served.stop();
            return Err(format!("client: {e}"));
        }
    };
    let server_metrics = if args.trace {
        Conn::connect(addr)
            .and_then(|mut c| c.call("{\"id\":0,\"cmd\":\"metrics\"}"))
            .ok()
            .flatten()
            .and_then(|line| Json::parse(&line).ok())
    } else {
        None
    };
    let socket_stats = served.store.stats();
    let peak_rss_mb = peak_rss_mb();
    served.stop();

    let mut failures = std::mem::take(&mut phase.failures);
    let mut attempted = phase.latencies_s.len() as u64;

    let mut m = Metrics::default();
    let latencies_ms: Vec<f64> = phase.latencies_s.iter().map(|s| s * 1e3).collect();
    let tail_ms = tail(&latencies_ms, TAIL_BEYOND, &TAIL_LADDER);
    let declared: &[(&str, &str)] = if args.trace {
        let (extra_attempted, ledger) =
            traced(args, pool, &phase, &store_dir, &mut m, &mut failures)?;
        attempted += extra_attempted;
        m.put(
            "store.hit_ratio",
            socket_stats.hits as f64 / (socket_stats.hits + socket_stats.misses) as f64,
        );
        m.put("store.disk_errors", socket_stats.disk_errors as f64);
        server_ledger(server_metrics.as_ref(), &mut m);
        print_ledger(args.workload, &ledger);
        &PER_LAYER
    } else {
        m.put("setup_s", median(&setup_s).unwrap_or(0.0));
        m.put("latency_p50_ms", median(&latencies_ms).unwrap_or(0.0));
        // Too few samples for a tail: report the maximum.
        let max = latencies_ms.iter().copied().fold(0.0, f64::max);
        m.put("latency_tail_ms", tail_ms.map_or(max, |t| t.value));
        m.put("throughput_rps", attempted as f64 / phase.elapsed_s);
        m.put("peak_rss_mb", peak_rss_mb);
        &END_TO_END
    };

    let failed = failures.len() as u64;
    println!(
        "workload {} seed {} trace {}: {} requests in {:.3} s over {} connection(s), {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        phase.latencies_s.len(),
        phase.elapsed_s,
        if pool.is_some() { conns } else { 1 },
        failed
    );
    for f in failures.iter().take(10) {
        println!("  FAILED {f}");
    }
    if pool.is_none() {
        print_by_family(&phase.samples);
    }
    let ladder: Vec<String> = [50.0, 90.0, 99.0, 99.9]
        .iter()
        .filter_map(|&p| tail(&latencies_ms, 0, &[p]))
        .map(|t| format!("p{} {:.4}", t.percentile, t.value))
        .collect();
    println!("  latency (ms): {}", ladder.join(", "));
    if let Some(t) = tail_ms {
        println!(
            "  latency_tail_ms is p{} over {} samples ({} beyond it)",
            t.percentile, t.samples, t.beyond
        );
    }
    for (name, unit) in declared {
        println!(
            "  {name:32} {:>16.6} {unit}",
            m.get(name).unwrap_or(f64::NAN)
        );
    }
    let line = m.result_line(declared, attempted, failed);
    write_record(args, tail_ms, &line);
    flush_disk();
    println!("{line}");
    Ok(failed)
}

extern "C" {
    /// `sync(2)`: schedule every dirty page and inode for writing.
    fn sync();
}

/// Waits out the disk work this run caused — `serve-warm` persists
/// thousands of entries and the run then deletes them — so that it does
/// not slow the set-up of whatever runs next.
fn flush_disk() {
    // SAFETY: sync(2) takes no arguments, cannot fail, and touches no
    // memory of this process.
    unsafe { sync() };
}

/// Prints the latency of each (family, command) pair of a cold workload.
fn print_by_family(samples: &[Sample]) {
    let mut by: Vec<(String, Vec<f64>)> = Vec::new();
    for s in samples {
        let r = &s.request;
        let capped = if r.max_traces.is_some() {
            " (capped)"
        } else {
            ""
        };
        let key = format!("{}{capped} {}", r.prog.label, r.cmd.wire());
        match by.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(s.latency_s * 1e3),
            None => by.push((key, vec![s.latency_s * 1e3])),
        }
    }
    println!("  latency by family (ms): count, min, median, max");
    for (key, v) in by {
        let max = v.iter().copied().fold(0.0, f64::max);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "    {key:34} {:4} {:9.3} {:9.3} {:9.3}",
            v.len(),
            min,
            median(&v).unwrap_or(0.0),
            max
        );
    }
}

/// Checks one response line against the request's known answer.
fn check_response(request: &Request, response: Option<&str>) -> Result<(), String> {
    let got = verdict_of(request.cmd, response.ok_or("no response")?)?;
    let want = request.expected()?;
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?}"))
    }
}

/// Consecutive samples on the same program: the cold workloads empty the
/// store after each such group, and the in-process passes do the same.
fn groups(workload: Workload, samples: &[Sample]) -> Vec<&[Sample]> {
    if workload == Workload::ServeWarm {
        return samples.chunks(1).collect();
    }
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=samples.len() {
        if i == samples.len()
            || !Arc::ptr_eq(&samples[i].request.prog, &samples[start].request.prog)
        {
            out.push(&samples[start..i]);
            start = i;
        }
    }
    out
}

/// One layer's row of the traced run's ledger.
struct LedgerRow {
    name: &'static str,
    calls: u64,
    busy_s: f64,
    self_s: f64,
    /// Share of all self time, the server's overhead included.
    share: f64,
    /// The layer's non-zero counter deltas, as `name=value` pairs.
    counters: String,
}

/// The traced run: re-issues the socket phase's requests in-process
/// three times, each against a store in the state the socket phase
/// started from. Returns the number of requests made.
fn traced(
    args: &Args,
    pool: Option<&[Arc<Prog>]>,
    phase: &Phase,
    store_dir: &dyn Fn(&str) -> PathBuf,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> Result<(u64, Vec<LedgerRow>), String> {
    let base = default_run_config();
    let groups = groups(args.workload, &phase.samples);
    let cold = pool.is_none();

    // Pass 1: the same request lines through `CheckService`, in-process.
    let dir = store_dir("service");
    let store = open_store(pool, &dir)?;
    let service = CheckService::new(Arc::clone(&store), base);
    let mut call_s = Vec::with_capacity(phase.samples.len());
    let mut entry_sizes = Vec::new();
    let mut measured = HashSet::new();
    for group in &groups {
        for s in *group {
            let line = s.request.line(0);
            let start = Instant::now();
            let response = handle_line(&service, &line).render();
            call_s.push(start.elapsed().as_secs_f64());
            if let Err(e) = check_response(&s.request, Some(&response)) {
                failures.push(format!("in-process {}: {e}", s.request.prog.label));
            }
        }
        if cold {
            entry_sizes.extend(entry_size(&store, base, &group[0].request));
            store.clear().map_err(|e| e.to_string())?;
        }
    }
    if !cold {
        for s in &phase.samples {
            if measured.insert(Arc::as_ptr(&s.request.prog)) {
                entry_sizes.extend(entry_size(&store, base, &s.request));
            }
        }
    }
    drop(service);
    let _ = fs::remove_dir_all(&dir);

    // Passes 2 and 3: the call chain with spans off, then on.
    let (wall_off, _, _) = chain_pass(pool, &groups, base, false, &store_dir("off"), failures)?;
    bdrst_obs::counters_reset();
    let (wall_on, rec, chain) = chain_pass(pool, &groups, base, true, &store_dir("on"), failures)?;
    let attempted = 3 * phase.samples.len() as u64;

    // Server overhead: socket latency minus the in-process call time of
    // the same request.
    let overhead_s: Vec<f64> = phase
        .samples
        .iter()
        .zip(&call_s)
        .map(|(s, c)| s.latency_s - c)
        .collect();
    let overhead_total_s = overhead_s.iter().sum::<f64>().max(0.0);

    let layers = rec.layers();
    let self_s = |l: Layer| layers.get(&l).map_or(0.0, |s| s.self_ns as f64 / 1e9);
    let busy_s = |l: Layer| layers.get(&l).map_or(0.0, |s| s.busy_ns as f64 / 1e9);
    let calls = |l: Layer| layers.get(&l).map_or(0.0, |s| s.calls as f64);
    let total_self_s: f64 =
        layers.values().map(|s| s.self_ns as f64 / 1e9).sum::<f64>() + overhead_total_s;
    let med =
        |l: Layer, op: &str, scale: f64| median(&rec.durations(l, op)).map_or(0.0, |ns| ns / scale);
    let delta = |l: Layer, c: Counter| rec.delta(l, c) as f64;

    let row = |l: Layer, name: &'static str| LedgerRow {
        name,
        calls: layers.get(&l).map_or(0, |s| s.calls),
        busy_s: busy_s(l),
        self_s: self_s(l),
        share: self_s(l) / total_self_s,
        counters: rec
            .deltas(l)
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
    };
    let mut rows: Vec<LedgerRow> = Layer::CALLED.iter().map(|&l| row(l, l.module())).collect();
    rows.push(LedgerRow {
        name: "service.server (overhead)",
        calls: phase.samples.len() as u64,
        busy_s: overhead_total_s,
        self_s: overhead_total_s,
        share: overhead_total_s / total_self_s,
        counters: String::new(),
    });
    rows.push(row(Layer::Request, "benchmark glue"));

    m.put("lang.parse_us", med(Layer::Lang, "parse", 1e3));
    m.put("lang.calls", calls(Layer::Lang));
    m.put("lang.busy_s", busy_s(Layer::Lang));
    m.put("lang.self_share", self_s(Layer::Lang) / total_self_s);

    let states = chain.tally.states as f64;
    m.put("engine.explore_ms", med(Layer::Engine, "state_graph", 1e6));
    m.put("engine.busy_s", busy_s(Layer::Engine));
    m.put(
        "engine.calls",
        rec.durations(Layer::Engine, "state_graph").len() as f64,
    );
    m.put("engine.states", states);
    m.put("engine.states_per_s", states / busy_s(Layer::Engine));
    let fingerprints = delta(Layer::Engine, Counter::FingerprintCalls);
    m.put("engine.fingerprint_calls", fingerprints);
    m.put(
        "engine.dedup_ratio",
        delta(Layer::Engine, Counter::StatesInterned) / fingerprints,
    );
    let hits = delta(Layer::Engine, Counter::DigestHits);
    m.put(
        "engine.digest_hit_ratio",
        hits / (hits + delta(Layer::Engine, Counter::DigestMisses)),
    );
    m.put(
        "engine.frontier_high_water",
        bdrst_obs::counter_get(Counter::FrontierHighWater) as f64,
    );
    m.put("engine.self_share", self_s(Layer::Engine) / total_self_s);

    m.put(
        "axiomatic.enumerate_ms",
        med(Layer::Axiomatic, "enumerate", 1e6),
    );
    m.put("axiomatic.busy_s", busy_s(Layer::Axiomatic));
    m.put("axiomatic.probes", calls(Layer::Axiomatic));
    m.put(
        "axiomatic.self_share",
        self_s(Layer::Axiomatic) / total_self_s,
    );

    let branches = delta(Layer::Dpor, Counter::DporBranches);
    let blocked = delta(Layer::Dpor, Counter::DporSleepBlocked);
    m.put("dpor.global_ms", med(Layer::Dpor, "global", 1e6));
    m.put("dpor.busy_s", busy_s(Layer::Dpor));
    m.put("dpor.calls", calls(Layer::Dpor));
    m.put("dpor.branches", branches);
    m.put("dpor.sleep_blocked", blocked);
    m.put(
        "dpor.backtrack_points",
        delta(Layer::Dpor, Counter::DporBacktrackPoints),
    );
    m.put("dpor.pruning_ratio", blocked / branches);
    m.put("dpor.self_share", self_s(Layer::Dpor) / total_self_s);

    let recorded = chain.tally.traces as f64;
    let traces = recorded + chain.tally.tripped_traces as f64;
    let trace_bytes: f64 = entry_sizes.iter().map(|(_, t)| *t as f64).sum();
    let wasted_s: f64 = rec
        .durations(Layer::Trace, "record-tripped")
        .iter()
        .sum::<f64>()
        / 1e9;
    m.put("trace.record_ms", med(Layer::Trace, "record", 1e6));
    m.put("trace.busy_s", busy_s(Layer::Trace));
    m.put("trace.calls", calls(Layer::Trace));
    m.put("trace.traces", traces);
    m.put("trace.traces_per_s", traces / busy_s(Layer::Trace));
    m.put("trace.bytes_per_trace", trace_bytes / recorded);
    m.put("trace.budget_trips", chain.tally.budget_trips as f64);
    m.put("trace.wasted_s", wasted_s);
    m.put("trace.self_share", self_s(Layer::Trace) / total_self_s);

    m.put("race.replay_ms", med(Layer::Race, "replay", 1e6));
    m.put("race.live_ms", med(Layer::Race, "live", 1e6));
    m.put("race.busy_s", busy_s(Layer::Race));
    m.put(
        "race.events_replayed",
        delta(Layer::Race, Counter::RaceEventsReplayed),
    );
    m.put(
        "race.events_live",
        delta(Layer::Race, Counter::RaceEventsLive),
    );
    m.put("race.self_share", self_s(Layer::Race) / total_self_s);

    m.put("localdrf.replay_ms", med(Layer::LocalDrf, "replay", 1e6));
    m.put("localdrf.busy_s", busy_s(Layer::LocalDrf));
    m.put(
        "localdrf.self_share",
        self_s(Layer::LocalDrf) / total_self_s,
    );

    m.put("store.key_us", med(Layer::Store, "key", 1e3));
    m.put("store.lookup_us", med(Layer::Store, "lookup", 1e3));
    m.put(
        "store.disk_load_us",
        rec.durations(Layer::Store, "lookup")
            .first()
            .map_or(0.0, |ns| ns / 1e3),
    );
    m.put("store.persist_us", med(Layer::Store, "persist", 1e3));
    m.put(
        "store.entry_bytes",
        entry_sizes.iter().map(|(b, _)| *b as f64).sum::<f64>() / entry_sizes.len() as f64,
    );
    m.put("store.self_share", self_s(Layer::Store) / total_self_s);

    m.put("service.call_us", median(&call_s).map_or(0.0, |s| s * 1e6));
    m.put(
        "server.overhead_us",
        median(&overhead_s).map_or(0.0, |s| s * 1e6),
    );
    m.put("server.overhead_share", overhead_total_s / total_self_s);
    m.put("obs.trace_overhead_ratio", wall_on / wall_off);

    let spans_path = args.out.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = fs::write(&spans_path, rec.chrome_trace()) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }
    Ok((attempted, rows))
}

/// The encoded size of `request`'s entry in `store`, if present.
fn entry_size(store: &ResultStore, base: RunConfig, request: &Request) -> Option<(usize, usize)> {
    if request.cmd == Cmd::Parse {
        return None;
    }
    let program = bdrst_lang::Program::parse(&request.prog.source).ok()?;
    let version = version_tag(&request_config(base, request.max_traces));
    let key = store.key_for(&program, version).ok()?;
    let entry = store.lookup(key, &program.to_source())?;
    Some(entry_bytes(&entry))
}

/// One pass of the call chain over every request, against a fresh store.
/// Returns the pass's wall time, its recorder and its chain.
fn chain_pass(
    pool: Option<&[Arc<Prog>]>,
    groups: &[&[Sample]],
    base: RunConfig,
    traced: bool,
    dir: &Path,
    failures: &mut Vec<String>,
) -> Result<(f64, Recorder, Chain), String> {
    let store = open_store(pool, dir)?;
    let mut chain = Chain::new(Arc::clone(&store), base);
    let mut rec = Recorder::new(traced);
    let start = Instant::now();
    for group in groups {
        for s in *group {
            let outcome = chain.run(&mut rec, &s.request);
            match (outcome, s.request.expected()) {
                (Ok(got), Ok(want)) if got == want => {}
                (got, want) => failures.push(format!(
                    "chain {} on {}: got {got:?}, expected {want:?}",
                    s.request.cmd.wire(),
                    s.request.prog.label
                )),
            }
        }
        if pool.is_none() {
            store.clear().map_err(|e| e.to_string())?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    drop(store);
    let _ = fs::remove_dir_all(dir);
    Ok((wall, rec, chain))
}

/// The server's own counters, read through the public `metrics` command.
fn server_ledger(metrics: Option<&Json>, m: &mut Metrics) {
    let num = |path: &[&str]| match metrics.and_then(|j| j.get_in(path)) {
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Num(x)) => *x,
        _ => 0.0,
    };
    m.put(
        "server.queue_high_water",
        num(&["metrics", "queue", "high_water"]),
    );
    for (cmd, name) in [
        (Cmd::Parse, "server.p50_us.parse"),
        (Cmd::Check, "server.p50_us.check"),
        (Cmd::CheckGlobal, "server.p50_us.check-global"),
        (Cmd::CheckRaces, "server.p50_us.check-races"),
        (Cmd::CheckLocalDrf, "server.p50_us.check-localdrf"),
    ] {
        m.put(name, num(&["metrics", "latency", cmd.wire(), "p50_us"]));
    }
}

/// Prints each layer's calls, busy and self time, share of self time and
/// counter deltas, and whether the workload isolates what it claims to.
fn print_ledger(workload: Workload, rows: &[LedgerRow]) {
    println!("per-layer ledger (traced chain, plus the server's overhead):");
    println!(
        "  {:26} {:>9} {:>10} {:>10} {:>7}  counters",
        "layer", "calls", "busy_s", "self_s", "share"
    );
    for r in rows {
        println!(
            "  {:26} {:>9} {:>10.4} {:>10.4} {:>6.2}%  {}",
            r.name,
            r.calls,
            r.busy_s,
            r.self_s,
            r.share * 100.0,
            r.counters
        );
    }
    let share = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.share)
    };
    let engines = [
        "core.engine",
        "axiomatic",
        "core.dpor",
        "core.trace",
        "race",
        "core.localdrf",
    ];
    let (claim, holds) = match workload {
        Workload::ExploreCold => {
            let top = rows
                .iter()
                .max_by(|a, b| a.share.total_cmp(&b.share))
                .map_or("", |r| r.name);
            (
                "core.engine has the largest self-time share and core.trace none",
                top == "core.engine" && share("core.trace") == 0.0,
            )
        }
        Workload::RacesCold => (
            "core.trace + race exceed half of self time, core.engine under 10%",
            share("core.trace") + share("race") > 0.5 && share("core.engine") < 0.1,
        ),
        Workload::ServeWarm => (
            "service.store + server overhead outweigh every engine layer",
            engines
                .iter()
                .all(|e| share("service.store") + share("service.server (overhead)") > share(e)),
        ),
    };
    println!("isolation: {claim}: {}", if holds { "yes" } else { "NO" });
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// when there is one.
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Writes the run's record — the result line plus the host and build
/// context every number depends on — under the output directory.
fn write_record(args: &Args, tail: Option<Tail>, line: &str) {
    let threads = std::env::var("BDRST_ENGINE_THREADS")
        .map(Json::Str)
        .unwrap_or(Json::Null)
        .render();
    let (percentile, samples) = tail.map_or((0.0, 0), |t| (t.percentile, t.samples));
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"BDRST_ENGINE_THREADS\": {threads}, \
         \"commit\": \"{}\", \"tail_percentile\": {percentile}, \"tail_samples\": {samples}, \
         \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores(),
        commit(),
    );
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::write(&path, record) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
