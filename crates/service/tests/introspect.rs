//! Socket-level tests of the live-introspection surface: `status` during
//! an in-flight check must report that request's ID, phase, and a
//! monotonically increasing states-visited figure; `health` reports the
//! admission gauges; `dump` writes a flight snapshot on demand; and a
//! request over the `--slow-ms` threshold provokes a throttled
//! slow-request flight dump in the trace directory. Three more servers
//! check that each one dumps into its own trace directory, and another
//! that each request's `states_visited` counts its own work only.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdrst_service::json::Json;
use bdrst_service::server::{self, serve, ServeConfig};
use bdrst_service::service::CheckService;
use bdrst_service::store::ResultStore;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "bdrst-introspect-{tag}-{}-{seq}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Json) -> Json {
    writeln!(stream, "{}", req.render()).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn get_i64(doc: &Json, key: &str) -> i64 {
    match doc.get(key) {
        Some(Json::Int(n)) => *n,
        other => panic!("missing/odd field {key}: {other:?}"),
    }
}

/// A program whose writes carry distinct values across shared variables,
/// so interleavings don't collapse into each other and exploration has
/// to grind through a large state space — long enough for `status` to
/// catch it mid-execute.
const BIG_SRC: &str = "nonatomic a; nonatomic b; nonatomic c; nonatomic d; \
     thread P0 { a = 1; b = 2; c = 3; d = 4; a = 5; b = 6; } \
     thread P1 { b = 7; c = 8; d = 9; a = 10; b = 11; c = 12; } \
     thread P2 { c = 13; d = 14; a = 15; b = 16; c = 17; d = 18; } \
     thread P3 { d = 19; a = 20; b = 21; c = 22; d = 23; a = 24; }";

/// Flight dump files written under the trace dir for `reason`.
fn flight_dumps(dir: &std::path::Path, reason: &str) -> Vec<PathBuf> {
    let suffix = format!("-{reason}.json");
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(&suffix))
        })
        .collect()
}

#[test]
fn status_health_dump_and_slow_flight() {
    let dir = temp_dir("live");
    // Bounded budget: the big program is guaranteed to exhaust it rather
    // than run unbounded, so execute lasts long enough to observe and
    // the request still completes deterministically.
    let mut config = server::default_run_config();
    config.explore.max_states = 200_000;
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), config);
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            trace_dir: Some(dir.clone()),
            slow_ms: Some(0),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Conn A carries the long-running check; the response is read only
    // after status has been observed mid-flight.
    let slow_stream = TcpStream::connect(handle.addr()).unwrap();
    let mut slow_reader = BufReader::new(slow_stream.try_clone().unwrap());
    let mut slow_stream = slow_stream;
    let check_req = Json::obj([
        ("cmd", Json::Str("check".into())),
        ("id", Json::Str("big-1".into())),
        ("source", Json::Str(BIG_SRC.into())),
    ]);
    writeln!(slow_stream, "{}", check_req.render()).unwrap();
    slow_stream.flush().unwrap();

    // Conn B polls `status` until the check shows up in the execute
    // phase with engine progress, then again until progress advanced.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let status_req = Json::obj([("cmd", Json::Str("status".into()))]);
    let find_big = |status: &Json| -> Option<(String, i64, f64)> {
        let Some(Json::Arr(entries)) = status.get("inflight") else {
            panic!("status lacks inflight array: {status:?}");
        };
        entries
            .iter()
            .find(|e| e.get("id").and_then(Json::as_str) == Some("big-1"))
            .map(|e| {
                let phase = e
                    .get("phase")
                    .and_then(Json::as_str)
                    .expect("entry lacks phase")
                    .to_string();
                let states = get_i64(e, "states_visited");
                let elapsed = match e.get("elapsed_ms") {
                    Some(Json::Num(ms)) => *ms,
                    other => panic!("odd elapsed_ms: {other:?}"),
                };
                (phase, states, elapsed)
            })
    };

    let deadline = Instant::now() + Duration::from_secs(60);
    let first_states = loop {
        let resp = request(&mut stream, &mut reader, &status_req);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "bad status: {resp:?}"
        );
        let status = resp.get("status").expect("response lacks status");
        assert!(
            get_i64(status, "workers") == 2,
            "status workers: {status:?}"
        );
        if let Some((phase, states, elapsed)) = find_big(status) {
            assert!(
                status.get_in(&["queue", "capacity"]).is_some(),
                "status lacks queue gauges: {status:?}"
            );
            if phase == "execute" && states > 0 {
                assert!(elapsed >= 0.0, "negative elapsed: {elapsed}");
                break states;
            }
        }
        assert!(
            Instant::now() < deadline,
            "check never observed in execute phase with progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    // A later snapshot must show strictly more engine progress: the
    // per-request figure is a monotone counter delta.
    loop {
        let resp = request(&mut stream, &mut reader, &status_req);
        let status = resp.get("status").expect("response lacks status");
        match find_big(status) {
            Some((_, states, _)) if states > first_states => break,
            // Already completed and retired from the table: monotone
            // progress can no longer be sampled — only acceptable after
            // we saw it executing once, but keep polling briefly in case
            // a snapshot lands first.
            None => break,
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "states_visited never advanced past {first_states}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The long check completes (budget-bounded), successfully or with a
    // budget error — either way it must answer and leave the table.
    let mut line = String::new();
    slow_reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(
        resp.get("id").and_then(Json::as_str),
        Some("big-1"),
        "check response does not echo the client id: {resp:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = request(&mut stream, &mut reader, &status_req);
        let status = resp.get("status").expect("response lacks status");
        if find_big(status).is_none() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "completed request never left the inflight table"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // health: admission gauges, degraded flags, and the cache block.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("cmd", Json::Str("health".into()))]),
    );
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "bad health: {resp:?}"
    );
    let health = resp.get("health").expect("response lacks health");
    let verdict = health.get("status").and_then(Json::as_str).unwrap();
    assert!(
        verdict == "ok" || verdict == "degraded",
        "odd health status: {verdict}"
    );
    assert!(get_i64(health, "queue_capacity") > 0);
    assert!(get_i64(health, "max_conns") > 0);
    assert_eq!(get_i64(health, "workers"), 2);
    assert!(get_i64(health, "conns_active") >= 1, "we are connected");
    assert!(
        health.get_in(&["cache", "hits"]).is_some(),
        "health lacks cache stats: {health:?}"
    );

    // dump: an explicit protocol-triggered flight snapshot — a valid
    // Chrome trace carrying the dump reason and the recent-log ring.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("cmd", Json::Str("dump".into()))]),
    );
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "bad dump: {resp:?}"
    );
    let path = PathBuf::from(resp.get("path").and_then(Json::as_str).unwrap());
    let dump = Json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    assert!(
        matches!(dump.get("traceEvents"), Some(Json::Arr(_))),
        "flight dump lacks traceEvents: {}",
        path.display()
    );
    assert_eq!(
        dump.get_in(&["otherData", "flight_reason"])
            .and_then(Json::as_str),
        Some("protocol")
    );
    assert!(
        matches!(
            dump.get_in(&["otherData", "recent_logs"]),
            Some(Json::Arr(_))
        ),
        "flight dump lacks the recent-log ring"
    );

    // slow-ms: with the threshold at zero every completed request is
    // slow, so a slow-request flight dump must have landed (throttled,
    // but at least one) and the slow_requests counter must be live in
    // the metrics snapshot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while flight_dumps(&dir, "slow-request").is_empty() {
        assert!(
            Instant::now() < deadline,
            "no slow-request flight dump appeared in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let slow_dump = &flight_dumps(&dir, "slow-request")[0];
    let dump = Json::parse(std::fs::read_to_string(slow_dump).unwrap().trim()).unwrap();
    assert_eq!(
        dump.get_in(&["otherData", "flight_reason"])
            .and_then(Json::as_str),
        Some("slow-request")
    );
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("cmd", Json::Str("metrics".into()))]),
    );
    let slow = resp
        .get_in(&["metrics", "slow_requests"])
        .expect("metrics lacks slow_requests");
    assert!(
        matches!(slow, Json::Int(n) if *n > 0),
        "slow_requests never counted: {slow:?}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Servers sharing a process each dump into their own trace directory,
/// and one without a trace directory refuses `dump` whatever the others
/// installed.
#[test]
fn each_server_dumps_into_its_own_trace_dir() {
    let dirs = [temp_dir("own-a"), temp_dir("own-b")];
    let start = |trace_dir: Option<PathBuf>| {
        let service = CheckService::new(
            Arc::new(ResultStore::in_memory()),
            server::default_run_config(),
        );
        serve(
            Arc::new(service),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                trace_dir,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    };
    let handles = [
        start(Some(dirs[0].clone())),
        start(Some(dirs[1].clone())),
        start(None),
    ];
    let dump = |handle: &server::ServerHandle| {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        request(
            &mut stream,
            &mut reader,
            &Json::obj([("cmd", Json::Str("dump".into()))]),
        )
    };
    for (handle, dir) in handles.iter().zip(&dirs) {
        let resp = dump(handle);
        let path = PathBuf::from(
            resp.get("path")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("bad dump: {resp:?}")),
        );
        assert_eq!(path.parent(), Some(dir.as_path()), "{resp:?}");
        assert!(path.is_file(), "{}", path.display());
    }
    let resp = dump(&handles[2]);
    assert_eq!(
        resp.get_in(&["error", "kind"]).and_then(Json::as_str),
        Some("proto"),
        "{resp:?}"
    );
    for handle in handles {
        handle.shutdown();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A client that resets its connection while its request executes
/// leaves nothing in `status`: the response, with no connection to go
/// to, retires the request's registry entry when it reaches the reactor.
#[test]
fn reset_connection_leaves_no_inflight_request() {
    let mut config = server::default_run_config();
    config.explore.max_states = 200_000;
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), config);
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut doomed = TcpStream::connect(handle.addr()).unwrap();
    let batch = format!(
        "{}\n{}\n",
        Json::obj([("cmd", Json::Str("cache-stats".into()))]).render(),
        Json::obj([
            ("cmd", Json::Str("check".into())),
            ("id", Json::Str("orphan".into())),
            ("source", Json::Str(BIG_SRC.into())),
        ])
        .render()
    );
    doomed.write_all(batch.as_bytes()).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let status_req = Json::obj([("cmd", Json::Str("status".into()))]);
    let orphan = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        let resp = request(stream, reader, &status_req);
        readings(resp.get("status").expect("status"), &["orphan"]).remove(0)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while orphan(&mut stream, &mut reader).map(|(phase, _)| phase) != Some("execute".into()) {
        assert!(Instant::now() < deadline, "the check never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The ping's answer sits unread, so closing now resets the
    // connection instead of half-closing it.
    doomed.peek(&mut [0u8; 1]).unwrap();
    drop(doomed);

    while let Some(reading) = orphan(&mut stream, &mut reader) {
        assert!(
            Instant::now() < deadline,
            "the reset client's request stayed in flight: {reading:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

/// Sends `req` without reading its response.
fn send(stream: &mut TcpStream, req: &Json) {
    writeln!(stream, "{}", req.render()).unwrap();
    stream.flush().unwrap();
}

/// Reads one response line.
fn read_response(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// The `status` readings `(phase, states_visited)` of the requests with
/// client `id`s in `ids`, in the order of `ids`.
fn readings(status: &Json, ids: &[&str]) -> Vec<Option<(String, i64)>> {
    let Some(Json::Arr(entries)) = status.get("inflight") else {
        panic!("status lacks inflight array: {status:?}");
    };
    ids.iter()
        .map(|id| {
            entries
                .iter()
                .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
                .map(|e| {
                    let phase = e.get("phase").and_then(Json::as_str).unwrap();
                    (phase.to_string(), get_i64(e, "states_visited"))
                })
        })
        .collect()
}

/// Polls `status` until none of `ids` is in flight, checking every
/// reading of `ids[i]` against `caps[i]`. Returns, per request, the
/// largest figure it showed while executing.
fn watch(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    ids: &[&str],
    caps: &[i64],
) -> Vec<i64> {
    let status_req = Json::obj([("cmd", Json::Str("status".into()))]);
    let mut seen = vec![0i64; ids.len()];
    let mut started = vec![false; ids.len()];
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = request(stream, reader, &status_req);
        let status = resp.get("status").expect("response lacks status");
        let now = readings(status, ids);
        for (i, reading) in now.iter().enumerate() {
            if let Some((phase, states)) = reading {
                started[i] = true;
                assert!(
                    *states <= caps[i],
                    "{} read {states} states, over its own cap {}",
                    ids[i],
                    caps[i]
                );
                if phase == "execute" {
                    seen[i] = seen[i].max(*states);
                }
            }
        }
        if started.iter().all(|s| *s) && now.iter().all(Option::is_none) {
            return seen;
        }
        assert!(Instant::now() < deadline, "{ids:?} never finished: {now:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Six threads writing six private locations each: DPOR runs one trace
/// of 36 extensions, while the trace recording has 7^6 distinct machines,
/// long enough for `status` to catch it executing.
fn private_writes() -> String {
    let mut src = String::new();
    for t in 0..6 {
        src += &format!("nonatomic x{t}; ");
    }
    for t in 0..6 {
        src += &format!("thread P{t} {{ ");
        for v in 1..=6 {
            src += &format!("x{t} = {v}; ");
        }
        src += "} ";
    }
    src
}

#[test]
fn status_counts_each_requests_own_work() {
    let handle = serve(
        Arc::new(CheckService::new(
            Arc::new(ResultStore::in_memory()),
            server::default_run_config(),
        )),
        "127.0.0.1:0",
        // Two workers for the concurrent checks, one for `status`.
        ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let connect = || {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };

    // Two long checks at once, under different caps. A figure that
    // counted the other request's work would pass the smaller cap.
    let caps = [20_000i64, 150_000];
    let ids = ["small", "large"];
    let sources = [BIG_SRC.to_string(), BIG_SRC.replace("a = 24", "a = 25")];
    let mut conns: Vec<_> = (0..2).map(|_| connect()).collect();
    for (i, (stream, _)) in conns.iter_mut().enumerate() {
        send(
            stream,
            &Json::obj([
                ("cmd", Json::Str("check".into())),
                ("id", Json::Str(ids[i].into())),
                ("source", Json::Str(sources[i].clone())),
                ("max_states", Json::Int(caps[i])),
            ]),
        );
    }
    let (mut stream, mut reader) = connect();
    let seen = watch(&mut stream, &mut reader, &ids, &caps);
    for (i, (_, reader)) in conns.iter_mut().enumerate() {
        assert!(seen[i] > 0, "{} never showed work while executing", ids[i]);
        let resp = read_response(reader);
        assert_eq!(
            resp.get_in(&["error", "kind"]).and_then(Json::as_str),
            Some("budget"),
            "{}: {resp:?}",
            ids[i]
        );
    }

    // A check-races on an entry whose outcomes are cached runs no DPOR
    // walk: what `status` shows is its trace recording's rows. Budgets
    // are part of the cache key, so the `check` carries the same cap.
    let source = private_writes();
    let rows = 20_000;
    let (conn, conn_reader) = &mut conns[0];
    let checked = request(
        conn,
        conn_reader,
        &Json::obj([
            ("cmd", Json::Str("check".into())),
            ("source", Json::Str(source.clone())),
            ("max_traces", Json::Int(rows)),
        ]),
    );
    assert_eq!(checked.get("ok"), Some(&Json::Bool(true)), "{checked:?}");
    send(
        conn,
        &Json::obj([
            ("cmd", Json::Str("check-races".into())),
            ("id", Json::Str("races".into())),
            ("source", Json::Str(source)),
            ("max_traces", Json::Int(rows)),
        ]),
    );
    let seen = watch(&mut stream, &mut reader, &["races"], &[rows]);
    assert!(
        seen[0] > 0,
        "the recording never showed work while executing"
    );
    let resp = read_response(conn_reader);
    assert_eq!(
        resp.get_in(&["error", "kind"]).and_then(Json::as_str),
        Some("budget"),
        "{resp:?}"
    );

    // `status` itself runs no walk.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("cmd", Json::Str("status".into())),
            ("id", Json::Str("me".into())),
        ]),
    );
    let me = readings(resp.get("status").unwrap(), &["me"]);
    assert_eq!(me[0].as_ref().map(|(_, n)| *n), Some(0), "{resp:?}");
    handle.shutdown();
}
