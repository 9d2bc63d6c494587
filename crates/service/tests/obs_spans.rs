//! Socket-level test of per-request tracing: the server splits each
//! request's lifetime into queue-wait, execute, and write-back events in
//! the span rings, tagged with the request's ID, and the split must be
//! consistent with what the client observes end to end. The split is
//! read back from a `dump` flight file.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdrst_litmus::RunConfig;
use bdrst_service::json::Json;
use bdrst_service::server::{serve, ServeConfig};
use bdrst_service::service::CheckService;
use bdrst_service::store::ResultStore;

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bdrst-obs-{tag}-{}-{seq}", std::process::id()));
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

fn get_u64(doc: &Json, key: &str) -> u64 {
    match doc.get(key) {
        Some(Json::Int(n)) => *n as u64,
        other => panic!("missing/odd field {key}: {other:?}"),
    }
}

/// A Chrome-trace duration (microseconds, three decimals) in nanoseconds.
fn dur_ns(event: &Json) -> u64 {
    match event.get("dur") {
        Some(Json::Num(us)) => (us * 1000.0).round() as u64,
        Some(Json::Int(us)) => *us as u64 * 1000,
        other => panic!("odd dur: {other:?}"),
    }
}

#[test]
fn per_request_traces_are_consistent_with_observed_latency() {
    let dir = temp_dir("traces");
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            trace_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;

    let src = "nonatomic a; thread P0 { a = 1; } thread P1 { a = 2; }";
    let outcomes_req = Json::obj([
        ("cmd", Json::Str("outcomes".into())),
        ("source", Json::Str(src.into())),
    ]);
    let metrics_req = Json::obj([("cmd", Json::Str("metrics".into()))]);

    // One sequential connection alternating real work with metrics
    // probes, so request IDs rise in the order of the client's timings.
    const ROUNDS: usize = 4;
    let mut e2e: Vec<Duration> = Vec::new();
    let mut high_water: Vec<u64> = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let resp = request(&mut stream, &mut reader, &outcomes_req);
        e2e.push(start.elapsed());
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "bad outcomes reply: {resp:?}"
        );

        let start = Instant::now();
        let resp = request(&mut stream, &mut reader, &metrics_req);
        e2e.push(start.elapsed());
        let queue = resp
            .get_in(&["metrics", "queue"])
            .expect("metrics reply lacks queue");
        high_water.push(get_u64(queue, "high_water"));
    }

    // Queue-depth high water is a running maximum: monotone non-decreasing
    // across successive metrics reads.
    for pair in high_water.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "queue high-water regressed: {high_water:?}"
        );
    }

    // Each request's queue-wait and execute events are emitted before
    // the worker hands its response over, and its write-back event when
    // the reactor flushes it, before the reactor reads the next line of
    // this connection. So the dump holds all three for every request.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("cmd", Json::Str("dump".into()))]),
    );
    let path = resp
        .get("path")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("bad dump reply: {resp:?}"));
    let dump = Json::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap();
    let Some(Json::Arr(events)) = dump.get("traceEvents") else {
        panic!("flight dump lacks traceEvents");
    };
    // Request ID → (queue-wait, execute, write-back) durations.
    let mut split: BTreeMap<u64, [Option<u64>; 3]> = BTreeMap::new();
    for e in events {
        let slot = match e.get("name").and_then(Json::as_str) {
            Some("queue-wait") => 0,
            Some("execute") => 1,
            Some("write-back") => 2,
            _ => continue,
        };
        let req_id = get_u64(e.get("args").expect("event lacks args"), "arg");
        split.entry(req_id).or_default()[slot] = Some(dur_ns(e));
    }

    // Requests were strictly sequential on one connection and this
    // binary runs no other server, so the splits sorted by request ID
    // line up with the client-side timings.
    assert_eq!(split.len(), e2e.len(), "request splits: {split:?}");
    for ((req_id, phases), observed) in split.iter().zip(&e2e) {
        let [Some(queue_wait), Some(execute), Some(_)] = *phases else {
            panic!("req {req_id}: incomplete split {phases:?}");
        };
        // The server's queue-wait + execute window sits strictly inside
        // the client's request/response round trip. (Write-back is not
        // bounded by it: its stamp can postdate the client's read.)
        let observed_ns = observed.as_nanos() as u64;
        assert!(
            queue_wait + execute <= observed_ns,
            "req {req_id}: queue-wait {queue_wait} + execute {execute} exceeds \
             observed e2e {observed_ns}"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
