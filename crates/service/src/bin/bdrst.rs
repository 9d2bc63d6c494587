//! `bdrst` — check litmus programs from the command line, serve them over
//! TCP, and manage the result cache.
//!
//! ```text
//! bdrst check <file.litmus>...      check programs (outcomes + model agreement)
//! bdrst corpus <dir>                run a corpus directory against the built-in checks
//! bdrst races <file|dir>...         dynamic race detection with bounded witnesses
//! bdrst serve                       start the newline-delimited-JSON check server
//! bdrst metrics                     fetch live counters from a running server
//! bdrst status                      fetch in-flight requests + gauges from a running server
//! bdrst cache stats|clear           inspect / wipe the on-disk cache
//! bdrst corpus-export <dir>         (re)generate corpus/ from the built-in tests
//! ```
//!
//! Common flags: `--cache-dir DIR` (persistent cache; omit for
//! memory-only), `--json` (machine-readable output), `--max-states N`,
//! `--max-traces N` (budgets; `--max-states` bounds the DPOR walk behind
//! `check`'s outcomes, whose executed extensions are the `states` it
//! reports), `--shrink` (`races` only: ddmin the
//! program and interleaving of each first witness), `--progress`
//! (`check`/`corpus`/`races`: the run's work units on stderr every 4096
//! units, and the total at the end; a unit is a DFS state, a DPOR
//! extension, a recorded trace row or a replayed extension).
//!
//! `serve` flags: `--max-conns N`, `--queue-depth N` (admission /
//! backpressure bounds), `--rate-per-sec N` + `--burst N`
//! (per-connection token bucket; 0 = unlimited), `--slow-ms N` (count
//! and log requests whose enqueue → flush time reaches N ms, with a
//! flight dump when one is installed), `--trace-dir DIR` (install the
//! flight recorder; its dumps land here), `--log-level
//! error|warn|info` (default `warn`; no log site emits below `info`) +
//! `--log-dir DIR` (structured JSON-lines logging). `bdrst
//! metrics --addr HOST:PORT` asks a running server for its live
//! counters over the wire; `bdrst status --addr HOST:PORT` for the
//! live in-flight request table.
//!
//! Exit codes: 0 success / all checks pass / no races, 1 model
//! mismatch, 2 run failure (parse error or budget exhaustion — reported
//! distinctly), 3 races found (`races` only — distinguishable from both
//! a mismatch and a run error), 64 usage.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use bdrst_litmus::{classify_entries, format_reports, CorpusVerdict, RunError};
use bdrst_service::corpusdir;
use bdrst_service::json::Json;
use bdrst_service::server::{self, stats_json, ServeConfig};
use bdrst_service::service::{outcome_strings, CheckService};
use bdrst_service::store::{ResultStore, StoreConfig};

struct Opts {
    json: bool,
    cache_dir: Option<PathBuf>,
    addr: String,
    workers: usize,
    max_states: Option<usize>,
    max_traces: Option<usize>,
    shrink: bool,
    max_conns: Option<usize>,
    queue_depth: Option<usize>,
    rate_per_sec: u32,
    burst: Option<u32>,
    profile: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    slow_ms: Option<u64>,
    log_level: Option<String>,
    log_dir: Option<PathBuf>,
    progress: bool,
    prom: bool,
    args: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bdrst <check <file>... | corpus <dir> | races <file|dir>... | serve | metrics | status | cache <stats|clear> | corpus-export <dir>>\n\
         flags: --json --cache-dir DIR --addr HOST:PORT --workers N --max-states N --max-traces N --shrink\n\
         profiling: --profile OUT.json (check/corpus/races: Chrome trace export + summary on stderr)\n\
         \x20          --progress (check/corpus/races: work units on stderr every 4096, and the total)\n\
         serve flags: --max-conns N --queue-depth N --rate-per-sec N --burst N\n\
         \x20              --slow-ms N (count, log and flight-dump requests slower than N ms) --trace-dir DIR (flight dumps)\n\
         \x20              --log-level error|warn|info (default warn) --log-dir DIR (JSON-lines log files; default stderr)\n\
         metrics flags: --prom (Prometheus text exposition)\n\
         exit codes: 0 pass/no races · 1 model mismatch · 2 run error (parse/budget/engine) · 3 races found · 64 usage"
    );
    ExitCode::from(64)
}

fn parse_opts(mut argv: std::env::Args) -> Option<(String, Opts)> {
    let _bin = argv.next();
    let cmd = argv.next()?;
    let mut opts = Opts {
        json: false,
        cache_dir: None,
        addr: "127.0.0.1:7433".to_string(),
        workers: 0,
        max_states: None,
        max_traces: None,
        shrink: false,
        max_conns: None,
        queue_depth: None,
        rate_per_sec: 0,
        burst: None,
        profile: None,
        trace_dir: None,
        slow_ms: None,
        log_level: None,
        log_dir: None,
        progress: false,
        prom: false,
        args: Vec::new(),
    };
    let mut argv = argv.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(argv.next()?)),
            "--addr" => opts.addr = argv.next()?,
            "--workers" => opts.workers = argv.next()?.parse().ok()?,
            "--max-states" => opts.max_states = Some(argv.next()?.parse().ok()?),
            "--max-traces" => opts.max_traces = Some(argv.next()?.parse().ok()?),
            "--shrink" => opts.shrink = true,
            "--max-conns" => opts.max_conns = Some(argv.next()?.parse().ok()?),
            "--queue-depth" => opts.queue_depth = Some(argv.next()?.parse().ok()?),
            "--rate-per-sec" => opts.rate_per_sec = argv.next()?.parse().ok()?,
            "--burst" => opts.burst = Some(argv.next()?.parse().ok()?),
            "--profile" => opts.profile = Some(PathBuf::from(argv.next()?)),
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(argv.next()?)),
            "--slow-ms" => opts.slow_ms = Some(argv.next()?.parse().ok()?),
            "--log-level" => opts.log_level = Some(argv.next()?),
            "--log-dir" => opts.log_dir = Some(PathBuf::from(argv.next()?)),
            "--progress" => opts.progress = true,
            "--prom" => opts.prom = true,
            _ if a.starts_with("--") => return None,
            _ => opts.args.push(a),
        }
    }
    Some((cmd, opts))
}

fn service_for(opts: &Opts) -> Result<CheckService, String> {
    let store = ResultStore::new(StoreConfig {
        disk_dir: opts.cache_dir.clone(),
        ..StoreConfig::default()
    })
    .map_err(|e| format!("cache dir: {e}"))?;
    let mut config = server::default_run_config();
    if let Some(s) = opts.max_states {
        config.explore.max_states = s;
    }
    if let Some(t) = opts.max_traces {
        config.explore.max_traces = t;
    }
    Ok(CheckService::new(Arc::new(store), config))
}

fn run_failure(e: &RunError) -> ExitCode {
    eprintln!("error ({}): {e}", e.kind());
    ExitCode::from(2)
}

/// Runs a command under the span recorder when `--profile OUT.json` was
/// given: the Chrome trace goes to the file, the per-phase summary to
/// stderr (so `--json` output on stdout stays machine-readable).
fn with_profile(profile: Option<&PathBuf>, f: impl FnOnce() -> ExitCode) -> ExitCode {
    let Some(path) = profile else {
        return f();
    };
    bdrst_obs::Recorder::install();
    let code = f();
    let prof = bdrst_obs::Recorder::stop_and_collect();
    if let Err(e) = std::fs::write(path, prof.to_chrome_json().render()) {
        eprintln!("profile {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprint!("{}", prof.render_summary());
    eprintln!("profile written to {}", path.display());
    code
}

fn cmd_check(opts: &Opts) -> ExitCode {
    if opts.args.is_empty() {
        return usage();
    }
    let service = match service_for(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut agree = true;
    let mut out_json = Vec::new();
    for path in &opts.args {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        };
        let checked = match service.check_source(&source) {
            Ok(c) => c,
            Err(e) => return run_failure(&e),
        };
        let models_agree = checked.entry.op == checked.entry.ax;
        agree &= models_agree;
        if opts.json {
            out_json.push(named("file", path, server::check_json(&checked)));
        } else {
            println!(
                "{path}: {} DPOR extensions{}, operational/axiomatic {}",
                checked.entry.visited_states,
                if checked.cached { " (cached)" } else { "" },
                if models_agree { "AGREE" } else { "DIVERGE" },
            );
            for o in outcome_strings(&checked.program, &checked.entry.op) {
                println!("  {o}");
            }
        }
    }
    if opts.json {
        println!(
            "{}",
            Json::obj([
                ("checks", Json::Arr(out_json)),
                ("cache", stats_json(service.store())),
            ])
            .render()
        );
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn cmd_corpus(opts: &Opts) -> ExitCode {
    let Some(dir) = opts.args.first() else {
        return usage();
    };
    let service = match service_for(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let files = match corpusdir::load_dir(std::path::Path::new(dir)) {
        Ok(f) if !f.is_empty() => f,
        Ok(_) => {
            eprintln!("{dir}: no .litmus files");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let builtin = bdrst_litmus::all_tests();
    let mut entries: Vec<(String, Result<bdrst_litmus::TestReport, RunError>)> = Vec::new();
    // Per-test global-DRF verdicts from the DPOR-reduced analysis
    // (memoized into each cache entry, so warm sweeps stay zero-probe).
    let mut drf: Vec<(String, Option<bool>)> = Vec::new();
    for f in &files {
        let result = match builtin.iter().find(|t| t.name == f.name) {
            None => Err(RunError::Parse(format!(
                "no built-in checks for test named {:?}",
                f.name
            ))),
            Some(test) => service.check_source(&f.source).map(|checked| {
                drf.push((f.name.clone(), service.global_racefree(&checked).ok()));
                service.report(test, &checked)
            }),
        };
        entries.push((f.name.clone(), result));
    }
    let verdict = classify_entries(&entries);
    let stats = service.stats();
    if opts.json {
        let mut out = server::corpus_json(&entries, service.store());
        if let Json::Obj(fields) = &mut out {
            fields.push((
                "global_drf".to_string(),
                Json::Obj(
                    drf.iter()
                        .map(|(name, v)| (name.clone(), v.map(Json::Bool).unwrap_or(Json::Null)))
                        .collect(),
                ),
            ));
        }
        println!("{}", out.render());
    } else {
        print!("{}", format_reports(&entries));
        let racefree = drf.iter().filter(|(_, v)| *v == Some(true)).count();
        let racy = drf.iter().filter(|(_, v)| *v == Some(false)).count();
        println!("global DRF: {racefree} race-free, {racy} racy");
        println!(
            "cache: {} hits, {} misses, {} entries{}",
            stats.hits,
            stats.misses,
            stats.entries,
            if stats.disk_errors > 0 {
                format!(", {} corrupt entries recomputed", stats.disk_errors)
            } else {
                String::new()
            }
        );
    }
    match verdict {
        CorpusVerdict::Pass => ExitCode::SUCCESS,
        CorpusVerdict::CheckFailed => ExitCode::from(1),
        CorpusVerdict::RunFailed => ExitCode::from(2),
    }
}

/// A response body with `key: value` put first — how `check --json` and
/// `races --json` name the file or program each entry is about.
fn named(key: &str, value: &str, body: Json) -> Json {
    let mut fields = vec![(key.to_string(), Json::Str(value.to_string()))];
    if let Json::Obj(rest) = body {
        fields.extend(rest);
    }
    Json::Obj(fields)
}

/// Collects the `.litmus` inputs of `races`: directories are swept via
/// [`corpusdir::load_dir`], plain paths are read as single programs.
fn race_inputs(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut inputs = Vec::new();
    for arg in args {
        let path = std::path::Path::new(arg);
        if path.is_dir() {
            let files = corpusdir::load_dir(path).map_err(|e| format!("{arg}: {e}"))?;
            if files.is_empty() {
                return Err(format!("{arg}: no .litmus files"));
            }
            for f in files {
                inputs.push((f.name, f.source));
            }
        } else {
            let source = std::fs::read_to_string(path).map_err(|e| format!("{arg}: {e}"))?;
            // Same naming as a directory sweep: the `// name:` header
            // wins, so `races corpus/sb.litmus` and `races corpus/`
            // report the same file under the same name.
            let name = corpusdir::header_name(&source)
                .map(str::to_string)
                .unwrap_or_else(|| arg.clone());
            inputs.push((name, source));
        }
    }
    Ok(inputs)
}

fn cmd_races(opts: &Opts) -> ExitCode {
    if opts.args.is_empty() {
        return usage();
    }
    let service = match service_for(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let inputs = match race_inputs(&opts.args) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut any_racy = false;
    let mut any_failed = false;
    let mut out_json = Vec::new();
    // Per-file run errors are reported in place and the sweep continues
    // — matching `corpus`, where one budget-tripped test never hides
    // the rest of the results. A run error dominates the exit code.
    for (name, source) in &inputs {
        let result = service.check_source(source).and_then(|checked| {
            server::races_json(&service, &checked).map(|(json, r)| (checked, json, r))
        });
        let (checked, json, report) = match result {
            Ok(ok) => ok,
            Err(e) => {
                any_failed = true;
                if opts.json {
                    out_json.push(Json::obj([
                        ("name", Json::Str(name.clone())),
                        (
                            "error",
                            Json::obj([
                                ("kind", Json::Str(e.kind().to_string())),
                                ("message", Json::Str(e.to_string())),
                            ]),
                        ),
                    ]));
                } else {
                    println!("{name}: ⚠ ERROR ({}): {e}", e.kind());
                }
                continue;
            }
        };
        any_racy |= report.racy();
        let shrunk = if opts.shrink && report.racy() {
            match bdrst_race::shrink_witness(
                &checked.program,
                &report.witnesses[0],
                service.config().explore,
            ) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("{name}: shrink failed: {e}");
                    None
                }
            }
        } else {
            None
        };
        if opts.json {
            let mut entry = named("name", name, json);
            if let (Some(s), Json::Obj(fields)) = (&shrunk, &mut entry) {
                fields.push((
                    "shrunk".to_string(),
                    Json::obj([
                        ("program", Json::Str(s.program.to_source())),
                        ("witness", server::witness_json(&s.program, &s.witness)),
                    ]),
                ));
            }
            out_json.push(entry);
        } else if report.racy() {
            println!(
                "{name}: RACY — {} witness(es) over {} events",
                report.witnesses.len(),
                report.events
            );
            for w in &report.witnesses {
                print!("{}", w.render(&checked.program.locs));
            }
            if let Some(s) = &shrunk {
                println!("  shrunk program:");
                for line in s.program.to_source().lines() {
                    println!("    {line}");
                }
                print!("{}", s.witness.render(&s.program.locs));
            }
        } else {
            println!("{name}: race-free ({} events scanned)", report.events);
        }
    }
    if opts.json {
        println!(
            "{}",
            Json::obj([
                ("races", Json::Arr(out_json)),
                ("cache", stats_json(service.store())),
            ])
            .render()
        );
    }
    // Exit precedence mirrors `classify_entries`: a run failure means
    // the sweep is not a complete verdict, so it dominates; races found
    // (3) stays distinguishable from both it and a model mismatch.
    if any_failed {
        ExitCode::from(2)
    } else if any_racy {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// The server log level: `--log-level`, or the library default (warn).
fn log_level_for(opts: &Opts) -> Result<bdrst_obs::log::Level, String> {
    match &opts.log_level {
        Some(s) => {
            bdrst_obs::log::Level::parse(s).ok_or_else(|| format!("--log-level {s}: unknown level"))
        }
        None => Ok(bdrst_obs::log::LogConfig::default().level),
    }
}

fn cmd_serve(opts: &Opts) -> ExitCode {
    let level = match log_level_for(opts) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if let Err(e) = bdrst_obs::log::install(bdrst_obs::log::LogConfig {
        level,
        dir: opts.log_dir.clone(),
        ..bdrst_obs::log::LogConfig::default()
    }) {
        eprintln!("log dir: {e}");
        return ExitCode::from(2);
    }
    let service = match service_for(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: opts.workers,
        max_conns: opts.max_conns.unwrap_or(defaults.max_conns),
        queue_depth: opts.queue_depth.unwrap_or(defaults.queue_depth),
        rate_per_sec: opts.rate_per_sec,
        burst: opts.burst.unwrap_or(defaults.burst),
        trace_dir: opts.trace_dir.clone(),
        slow_ms: opts.slow_ms,
        ..defaults
    };
    match server::serve(Arc::new(service), &opts.addr, config) {
        Ok(handle) => {
            println!("bdrst serving on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Serve until killed.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("bind {}: {e}", opts.addr);
            ExitCode::from(2)
        }
    }
}

/// One request line to the server at `--addr`: connects, writes `req`,
/// reads one response line and parses it. Returns the response and its
/// raw line, or exit code 2 after printing why there is none (no
/// connection, no or malformed response, or an `ok: false` reply).
fn round_trip(addr: &str, req: Json) -> Result<(Json, String), ExitCode> {
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| {
        eprintln!("connect {addr}: {e}");
        ExitCode::from(2)
    })?;
    if writeln!(stream, "{}", req.render()).is_err() {
        eprintln!("{addr}: write failed");
        return Err(ExitCode::from(2));
    }
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line).is_err() || line.trim().is_empty() {
        eprintln!("{addr}: no response");
        return Err(ExitCode::from(2));
    }
    let Ok(resp) = Json::parse(line.trim()) else {
        eprintln!("{addr}: malformed response: {line}");
        return Err(ExitCode::from(2));
    };
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        eprintln!("{addr}: {}", line.trim());
        return Err(ExitCode::from(2));
    }
    Ok((resp, line))
}

/// `bdrst metrics`: one `{"cmd":"metrics"}` round-trip against a
/// running server; renders the counters humanly (p50/p95/p99 computed
/// client-side from the latency histograms), the full response line
/// with `--json`, or the Prometheus text exposition with `--prom`.
fn cmd_metrics(opts: &Opts) -> ExitCode {
    let mut req = vec![("cmd", Json::Str("metrics".into()))];
    if opts.prom {
        req.push(("format", Json::Str("prom".into())));
    }
    let (resp, line) = match round_trip(&opts.addr, Json::obj(req)) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if opts.prom {
        match resp.get("prom").and_then(Json::as_str) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("{}: response carries no exposition: {line}", opts.addr);
                return ExitCode::from(2);
            }
        }
    } else if opts.json {
        println!("{}", resp.render());
    } else {
        match resp.get("metrics") {
            Some(m) => print!("{}", bdrst_service::metrics::render_human(m)),
            None => {
                eprintln!("{}: response carries no metrics: {line}", opts.addr);
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// `bdrst status`: one `{"cmd":"status"}` round-trip against a running
/// server; renders the in-flight request table and server gauges humanly
/// or the full response line with `--json`.
fn cmd_status(opts: &Opts) -> ExitCode {
    let req = Json::obj([("cmd", Json::Str("status".into()))]);
    let (resp, line) = match round_trip(&opts.addr, req) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if opts.json {
        println!("{}", resp.render());
    } else {
        match resp.get("status") {
            Some(s) => print!("{}", bdrst_service::metrics::render_status_human(s)),
            None => {
                eprintln!("{}: response carries no status: {line}", opts.addr);
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Work units between two `--progress` lines: often enough to show a
/// long walk is alive, rarely enough to keep the terminal readable.
const PROGRESS_EVERY: u64 = 4096;

/// `--progress`: runs `run` under a meter that prints the run's own work
/// units, with the budget fraction of the walk that crossed the period,
/// every [`PROGRESS_EVERY`] units, and the total when `run` returns.
fn with_progress(run: impl FnOnce() -> ExitCode) -> ExitCode {
    let meter = Arc::new(bdrst_obs::Meter::with_hook(PROGRESS_EVERY, |r| {
        eprintln!(
            "progress: {} work units, budget {:.0}%",
            r.units,
            r.budget_fraction() * 100.0
        )
    }));
    let code = bdrst_obs::metered(&meter, run);
    eprintln!("progress: {} work units, done", meter.units());
    code
}

fn cmd_cache(opts: &Opts) -> ExitCode {
    let Some(action) = opts.args.first().map(String::as_str) else {
        return usage();
    };
    let Some(dir) = opts.cache_dir.clone() else {
        eprintln!("cache {action}: --cache-dir is required");
        return usage();
    };
    let store = match ResultStore::new(StoreConfig {
        disk_dir: Some(dir.clone()),
        ..StoreConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cache dir: {e}");
            return ExitCode::from(2);
        }
    };
    match action {
        "stats" => {
            let (mut files, mut bytes) = (0u64, 0u64);
            if let Ok(rd) = std::fs::read_dir(&dir) {
                for e in rd.filter_map(|e| e.ok()) {
                    if e.path().extension().is_some_and(|x| x == "bdrst") {
                        files += 1;
                        bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
                    }
                }
            }
            if opts.json {
                println!(
                    "{}",
                    Json::obj([
                        ("dir", Json::Str(dir.display().to_string())),
                        ("files", Json::Int(files as i64)),
                        ("bytes", Json::Int(bytes as i64)),
                        ("cache", stats_json(&store)),
                    ])
                    .render()
                );
            } else {
                println!("{}: {files} entries, {bytes} bytes", dir.display());
            }
            ExitCode::SUCCESS
        }
        "clear" => match store.clear() {
            Ok(n) => {
                if opts.json {
                    println!("{}", Json::obj([("removed", Json::Int(n as i64))]).render());
                } else {
                    println!("removed {n} entries");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("clear: {e}");
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}

fn cmd_corpus_export(opts: &Opts) -> ExitCode {
    let Some(dir) = opts.args.first() else {
        return usage();
    };
    match corpusdir::export_builtin(std::path::Path::new(dir)) {
        Ok(files) => {
            println!("wrote {} files to {dir}", files.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corpus-export: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let Some((cmd, opts)) = parse_opts(std::env::args()) else {
        return usage();
    };
    let instrumented = |command: fn(&Opts) -> ExitCode| {
        let run = || with_profile(opts.profile.as_ref(), || command(&opts));
        if opts.progress {
            with_progress(run)
        } else {
            run()
        }
    };
    match cmd.as_str() {
        "check" => instrumented(cmd_check),
        "corpus" => instrumented(cmd_corpus),
        "races" => instrumented(cmd_races),
        "serve" => cmd_serve(&opts),
        "metrics" => cmd_metrics(&opts),
        "status" => cmd_status(&opts),
        "cache" => cmd_cache(&opts),
        "corpus-export" => cmd_corpus_export(&opts),
        _ => usage(),
    }
}
