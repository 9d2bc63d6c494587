//! End-to-end tests of the TCP check server: real sockets on localhost,
//! newline-delimited JSON, concurrent clients, and verdict agreement with
//! the sequential in-process runner.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bdrst_litmus::{run_corpus, RunConfig};
use bdrst_service::json::Json;
use bdrst_service::server::{handle_line, serve, ServeConfig};
use bdrst_service::service::CheckService;
use bdrst_service::store::ResultStore;

fn start_server() -> bdrst_service::server::ServerHandle {
    // DFS strategy so in-process comparisons use the default runner
    // config. The server default, DPOR (`server::default_run_config`),
    // is covered in `tests/service.rs` and `tests/introspect.rs`.
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            queue_depth: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Json) -> Json {
    writeln!(stream, "{}", req.render()).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn concurrent_clients_agree_with_the_sequential_runner() {
    let handle = start_server();
    let addr = handle.addr();

    // The reference: the plain sequential in-process sweep.
    let reference: Vec<(String, bool)> = run_corpus(RunConfig::default())
        .into_iter()
        .map(|(name, r)| (name.to_string(), r.map(|rep| rep.passes()).unwrap_or(false)))
        .collect();

    // ≥4 simultaneous connections, each sweeping the whole corpus in its
    // own order, all racing the shared store.
    let clients: Vec<std::thread::JoinHandle<Vec<(String, bool)>>> = (0..4)
        .map(|shift: usize| {
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let tests = bdrst_litmus::all_tests();
                let n = tests.len();
                let mut out = vec![(String::new(), false); n];
                for i in 0..n {
                    let idx = (i + shift * 3) % n;
                    let t = tests[idx];
                    let req = Json::obj([
                        ("id", Json::Int(idx as i64)),
                        ("cmd", Json::Str("check".into())),
                        ("name", Json::Str(t.name.into())),
                        ("source", Json::Str(t.source.into())),
                    ]);
                    let resp = request(&mut stream, &mut reader, &req);
                    assert_eq!(
                        resp.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{}: {resp:?}",
                        t.name
                    );
                    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(idx as i64));
                    out[idx] = (
                        t.name.to_string(),
                        resp.get("passed").and_then(Json::as_bool).unwrap(),
                    );
                }
                out
            })
        })
        .collect();
    for client in clients {
        let got = client.join().unwrap();
        assert_eq!(got.len(), reference.len());
        for ((n1, p1), (n2, p2)) in reference.iter().zip(&got) {
            assert_eq!(n1, n2);
            assert_eq!(p1, p2, "server verdict diverges on {n1}");
        }
    }
    handle.shutdown();
}

#[test]
fn protocol_covers_every_command_and_error_class() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(handle.addr());
    let mp = "nonatomic a; atomic f;
        thread P0 { a = 1; f = 1; }
        thread P1 { r0 = f; r1 = a; }";

    // parse
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("cmd", Json::Str("parse".into())),
            ("source", Json::Str(mp.into())),
        ]),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("threads").and_then(Json::as_i64), Some(2));
    let canonical = resp.get("canonical").and_then(Json::as_str).unwrap();
    assert!(canonical.contains("thread P0 {"));

    // outcomes: cold then cached.
    let req = Json::obj([
        ("cmd", Json::Str("outcomes".into())),
        ("source", Json::Str(mp.into())),
    ]);
    let cold = request(&mut stream, &mut reader, &req);
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    let warm = request(&mut stream, &mut reader, &req);
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("operational"), warm.get("operational"));
    assert_eq!(cold.get("models_agree").and_then(Json::as_bool), Some(true));
    // MP forbids r0=1 ∧ r1=0; the outcome strings must not contain it.
    for o in cold.get("operational").unwrap().as_arr().unwrap() {
        let s = o.as_str().unwrap();
        assert!(
            !(s.contains("P1:r0=1") && s.contains("P1:r1=0")),
            "forbidden MP outcome served: {s}"
        );
    }

    // check-localdrf (named and default L).
    for locs in [
        Json::Arr(vec![Json::Str("a".into())]),
        Json::Arr(Vec::new()),
    ] {
        let resp = request(
            &mut stream,
            &mut reader,
            &Json::obj([
                ("cmd", Json::Str("check-localdrf".into())),
                ("source", Json::Str(mp.into())),
                ("locs", locs),
            ]),
        );
        assert_eq!(
            resp.get("holds").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
    }

    // check-global: MP is racy on `a`… actually MP synchronises; verify
    // verdict matches the in-process checker either way.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("cmd", Json::Str("check-global".into())),
            ("source", Json::Str(mp.into())),
        ]),
    );
    let served = resp.get("racefree").and_then(Json::as_bool).unwrap();
    let program = bdrst_lang::Program::parse(mp).unwrap();
    let expect = matches!(
        bdrst_core::localdrf::sc_race_freedom(
            &program.locs,
            program.initial_machine(),
            Default::default(),
        )
        .unwrap(),
        bdrst_core::localdrf::DrfStatus::RaceFree
    );
    assert_eq!(served, expect);

    // corpus over the wire.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("cmd", Json::Str("corpus".into()))]),
    );
    assert_eq!(resp.get("verdict").and_then(Json::as_str), Some("pass"));
    assert_eq!(
        resp.get("tests").and_then(Json::as_arr).map(<[Json]>::len),
        Some(bdrst_litmus::all_tests().len())
    );

    // Per-request budget: tight max_states must fail with kind "budget".
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("id", Json::Int(99)),
            ("cmd", Json::Str("outcomes".into())),
            ("source", Json::Str(mp.into())),
            ("max_states", Json::Int(2)),
        ]),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(99));
    let err = resp.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("budget"));

    // Parse errors and protocol errors classify distinctly.
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("cmd", Json::Str("outcomes".into())),
            ("source", Json::Str("thread P0 {".into())),
        ]),
    );
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("parse")
    );
    writeln!(stream, "this is not json").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("proto")
    );

    handle.shutdown();
}

#[test]
fn check_races_over_the_wire() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(handle.addr());
    let sb = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";

    let req = Json::obj([
        ("cmd", Json::Str("check-races".into())),
        ("source", Json::Str(sb.into())),
    ]);
    let cold = request(&mut stream, &mut reader, &req);
    assert_eq!(
        cold.get("ok").and_then(Json::as_bool),
        Some(true),
        "{cold:?}"
    );
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(cold.get("racy").and_then(Json::as_bool), Some(true));
    let witnesses = cold.get("witnesses").and_then(Json::as_arr).unwrap();
    assert!(!witnesses.is_empty());
    for w in witnesses {
        // The bound fields are present and mutually consistent.
        let window = w.get("window").and_then(Json::as_arr).unwrap();
        let (first, second) = (window[0].as_i64().unwrap(), window[1].as_i64().unwrap());
        assert!(first < second);
        assert_eq!(
            w.get("time_bound").and_then(Json::as_i64),
            Some(second - first + 1)
        );
        let space: Vec<&str> = w
            .get("space")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let loc = w.get("loc").and_then(Json::as_str).unwrap();
        assert!(space.contains(&loc), "{w:?}");
    }
    // Warm: the entry AND its trace recording come from the store.
    let warm = request(&mut stream, &mut reader, &req);
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("witnesses"), cold.get("witnesses"));

    // A synchronised program is race-free over the same protocol.
    let mp = "nonatomic a; atomic f;
        thread P0 { a = 1; f = 1; }
        thread P1 { r0 = f; if (r0 == 1) { r1 = a; } }";
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([
            ("cmd", Json::Str("check-races".into())),
            ("source", Json::Str(mp.into())),
        ]),
    );
    assert_eq!(resp.get("racy").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("witnesses")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    handle.shutdown();
}

#[test]
fn connection_limit_rejects_cleanly() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_conns: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Two admitted connections, both verifiably serving.
    let (mut s1, mut r1) = connect(addr);
    let (mut s2, mut r2) = connect(addr);
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);
    assert_eq!(
        request(&mut s1, &mut r1, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        request(&mut s2, &mut r2, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );

    // The third gets one clean `overloaded` error line, then EOF.
    let (s3, mut r3) = connect(addr);
    let mut line = String::new();
    r3.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("overloaded")
    );
    line.clear();
    assert_eq!(
        r3.read_line(&mut line).unwrap(),
        0,
        "rejected conn not closed"
    );
    drop((s3, r3));

    // Releasing a slot re-admits new clients (the reactor frees it when
    // it observes the close — poll briefly).
    drop((s1, r1));
    let mut admitted = false;
    for _ in 0..100 {
        // A still-rejected attempt may see its socket closed mid-write
        // (broken pipe) or get the overloaded line — both mean "retry".
        let (mut s, mut r) = connect(addr);
        let mut line = String::new();
        if writeln!(s, "{}", ping.render()).is_ok()
            && s.flush().is_ok()
            && r.read_line(&mut line).is_ok()
        {
            if let Ok(resp) = Json::parse(line.trim()) {
                if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                    admitted = true;
                    break;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(admitted, "slot was never released");
    handle.shutdown();
}

/// The reactor holds its full cap: 320 sequential connect-and-ping
/// attempts against a 256-connection cap, every admitted connection held
/// open, admit exactly 256 and reject the rest.
#[test]
fn reactor_holds_its_full_connection_cap() {
    const CAP: usize = 256;
    const ATTEMPTS: usize = 320;
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_conns: CAP,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]).render();
    let mut held = Vec::new();
    let mut rejected = 0;
    for _ in 0..ATTEMPTS {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            rejected += 1;
            continue;
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        let admitted = writeln!(stream, "{ping}").is_ok()
            && reader.read_line(&mut line).is_ok()
            && Json::parse(line.trim())
                .ok()
                .and_then(|r| r.get("ok").and_then(Json::as_bool))
                == Some(true);
        if admitted {
            held.push((stream, reader));
        } else {
            rejected += 1;
        }
    }
    assert_eq!(held.len(), CAP, "admitted connections");
    assert_eq!(rejected, ATTEMPTS - CAP, "rejected connections");
    assert_eq!(handle.metrics().conns_high_water(), CAP as u64);
    drop(held);
    handle.shutdown();
}

#[test]
fn oversized_requests_are_rejected() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_request_bytes: 1024,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A request within the cap still works on the same server.
    let (mut s, mut r) = connect(handle.addr());
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);
    assert_eq!(
        request(&mut s, &mut r, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );

    // A 4 KiB line — with a second request pipelined behind it in the
    // same send — gets `too-large`, and the close is clean even though
    // the server never processes the queued request (it is drained, so
    // no RST can destroy the error response in flight).
    let big = "x".repeat(4096);
    write!(s, "{big}\n{}\n", ping.render()).unwrap();
    s.flush().unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("too-large")
    );
    line.clear();
    assert_eq!(
        r.read_line(&mut line).unwrap(),
        0,
        "oversized conn not closed"
    );
    handle.shutdown();
}

/// Regression (admission check-then-act race): a barrier-released burst
/// of connects far over the cap. The old accept loop did a `load` then a
/// separate `fetch_add`, so racing accepts could both pass the check;
/// the metrics high-water mark is the observable witness that the
/// atomic admission never exceeds `max_conns`.
#[test]
fn admission_burst_never_exceeds_max_conns() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_conns: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let barrier = Arc::new(std::sync::Barrier::new(16));
    let clients: Vec<_> = (0..16)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let Ok(stream) = TcpStream::connect(addr) else {
                    return;
                };
                // Exercise the admitted path (a full round-trip) or
                // read the rejection; either way hold the socket
                // until the server answered, maximising overlap.
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);
                let _ = writeln!(stream, "{}", ping.render());
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                if !line.trim().is_empty() {
                    let resp = Json::parse(line.trim()).expect("well-formed line");
                    if resp.get("ok").and_then(Json::as_bool) == Some(false) {
                        assert_eq!(
                            resp.get_in(&["error", "kind"]).and_then(Json::as_str),
                            Some("overloaded")
                        );
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let high_water = handle.metrics().conns_high_water();
    assert!(
        high_water <= 4,
        "{high_water} simultaneous connections over a max_conns=4 cap"
    );
    assert!(high_water > 0, "nothing was ever admitted");
    handle.shutdown();
}

/// Regression (shutdown silently dropped queued responses): a client
/// pipelines more requests than one worker can finish before shutdown.
/// Every accepted request must still produce exactly one well-formed
/// response line — computed answers for what the workers drained, a
/// `shutting-down` error for the rest — and then EOF. The old shutdown
/// closed the queue with jobs still inside and the clients hung.
#[test]
fn shutdown_answers_every_accepted_request() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (mut stream, mut reader) = connect(handle.addr());

    // One slow request to occupy the single worker, then a pile of
    // cheap ones that end up queued or pending behind it.
    let slow = bdrst_litmus::all_tests()[0].source;
    let total = 12;
    let mut batch = format!(
        "{}\n",
        Json::obj([
            ("id", Json::Int(0)),
            ("cmd", Json::Str("outcomes".into())),
            ("source", Json::Str(slow.into())),
        ])
        .render()
    );
    for i in 1..total {
        batch.push_str(&format!(
            "{}\n",
            Json::obj([
                ("id", Json::Int(i)),
                ("cmd", Json::Str("cache-stats".into())),
            ])
            .render()
        ));
    }
    stream.write_all(batch.as_bytes()).unwrap();
    stream.flush().unwrap();
    // Let the server ingest the batch, then shut down with work queued.
    std::thread::sleep(std::time::Duration::from_millis(200));
    handle.shutdown();

    let mut responses = 0;
    let mut line = String::new();
    while {
        line.clear();
        reader.read_line(&mut line).unwrap() > 0
    } {
        let resp = Json::parse(line.trim())
            .unwrap_or_else(|e| panic!("malformed response line {line:?}: {e}"));
        match resp.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => assert_eq!(
                resp.get_in(&["error", "kind"]).and_then(Json::as_str),
                Some("shutting-down"),
                "{resp:?}"
            ),
            None => panic!("response without ok: {resp:?}"),
        }
        responses += 1;
    }
    assert_eq!(
        responses, total,
        "every accepted request gets exactly one response line"
    );
}

/// Regression (malformed budget fields silently ignored): a
/// present-but-non-integer `max_states`/`max_traces` used to be dropped
/// by `and_then(as_i64)`, so the request ran under the server's full
/// budgets while the client believed it had tightened them.
#[test]
fn malformed_budget_fields_are_proto_errors() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let src = "nonatomic a; thread P0 { a = 1; }";
    for bad in [
        r#""max_states":"abc""#,
        r#""max_states":"10""#,
        r#""max_traces":true"#,
        r#""max_traces":[3]"#,
    ] {
        let resp = handle_line(
            &service,
            &format!(r#"{{"cmd":"outcomes","source":"{src}",{bad}}}"#),
        );
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad} accepted: {resp:?}"
        );
        assert_eq!(
            resp.get_in(&["error", "kind"]).and_then(Json::as_str),
            Some("proto"),
            "{bad}: {resp:?}"
        );
    }
    // Integer budgets still work (and still clamp).
    let resp = handle_line(
        &service,
        &format!(r#"{{"cmd":"outcomes","source":"{src}","max_states":50}}"#),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
}

/// Regression (overloaded rejection destroyed by RST): the rejected
/// client pipelines a request *before* reading, so its bytes sit unread
/// in the server's kernel buffer when the server closes. Without the
/// bounded drain the close could RST the error line away; with it the
/// client reliably reads `overloaded` then EOF.
#[test]
fn overloaded_rejection_survives_pipelined_request() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_conns: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Occupy the only slot with a verified round-trip.
    let (mut s1, mut r1) = connect(addr);
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);
    assert_eq!(
        request(&mut s1, &mut r1, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );

    // The rejected client writes before reading.
    let (mut s2, mut r2) = connect(addr);
    writeln!(s2, "{}", ping.render()).unwrap();
    s2.flush().unwrap();
    let mut line = String::new();
    r2.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim())
        .unwrap_or_else(|e| panic!("overloaded line destroyed: {line:?} ({e})"));
    assert_eq!(
        resp.get_in(&["error", "kind"]).and_then(Json::as_str),
        Some("overloaded"),
        "{resp:?}"
    );
    line.clear();
    assert_eq!(r2.read_line(&mut line).unwrap(), 0, "not closed");
    handle.shutdown();
}

/// The per-connection token bucket: an over-limit request is answered
/// with a `rate-limited` error carrying a retry hint (never silently
/// dropped), the connection stays open, and waiting out the hint makes
/// the next request succeed.
#[test]
fn rate_limited_requests_get_a_retry_hint() {
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let handle = serve(
        Arc::new(service),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            rate_per_sec: 2,
            burst: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (mut stream, mut reader) = connect(handle.addr());
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);

    // Burst of 1: the first request drains the bucket…
    assert_eq!(
        request(&mut stream, &mut reader, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    // …so an immediate second one is over the limit.
    let resp = request(&mut stream, &mut reader, &ping);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get_in(&["error", "kind"]).and_then(Json::as_str),
        Some("rate-limited"),
        "{resp:?}"
    );
    let retry_ms = resp
        .get_in(&["error", "retry_after_ms"])
        .and_then(Json::as_i64)
        .expect("retry hint present");
    assert!(retry_ms > 0 && retry_ms <= 500, "2/s refill: {retry_ms}ms");

    // The connection survived; waiting out the hint refills the bucket.
    std::thread::sleep(std::time::Duration::from_millis(retry_ms as u64 + 50));
    assert_eq!(
        request(&mut stream, &mut reader, &ping)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    assert!(handle.metrics().conns_high_water() >= 1);
    handle.shutdown();
}

/// The `metrics` command over the wire: live counters in the same
/// response shape as `cache-stats`, reflecting the requests that came
/// before it. Without a running server the command is a `proto` error.
#[test]
fn metrics_command_serves_live_counters() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(handle.addr());

    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);
    request(&mut stream, &mut reader, &ping);
    request(&mut stream, &mut reader, &ping);
    let resp = request(
        &mut stream,
        &mut reader,
        &Json::obj([("id", Json::Int(7)), ("cmd", Json::Str("metrics".into()))]),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(7));
    let m = resp.get("metrics").expect("metrics object");
    assert_eq!(
        m.get_in(&["requests", "cache-stats"])
            .and_then(Json::as_i64),
        Some(2)
    );
    assert_eq!(
        m.get_in(&["requests", "metrics"]).and_then(Json::as_i64),
        Some(1),
        "the metrics request counts itself"
    );
    assert!(m.get_in(&["conns", "admitted"]).and_then(Json::as_i64) >= Some(1));
    assert_eq!(
        m.get_in(&["conns", "high_water"]).and_then(Json::as_i64),
        Some(1)
    );
    // The two finished pings landed somewhere in the histogram.
    let lat = m.get_in(&["latency", "cache-stats"]).expect("histogram");
    let total: i64 = [
        "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
    ]
    .iter()
    .filter_map(|b| lat.get(b).and_then(Json::as_i64))
    .sum();
    assert_eq!(total, 2);

    // In-process dispatch has no live counters: proto error, not a panic.
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let resp = handle_line(&service, r#"{"cmd":"metrics"}"#);
    assert_eq!(
        resp.get_in(&["error", "kind"]).and_then(Json::as_str),
        Some("proto")
    );
    handle.shutdown();
}

#[test]
fn handle_line_is_usable_without_sockets() {
    // The dispatch layer is pure: exercised directly for coverage of
    // unknown commands and missing fields.
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let resp = handle_line(&service, r#"{"cmd":"nope"}"#);
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("proto")
    );
    let resp = handle_line(&service, r#"{"cmd":"outcomes"}"#);
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("proto")
    );
    let resp = handle_line(&service, r#"{"cmd":"cache-stats"}"#);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    // An unknown built-in test name on `check` is an error, not a silent
    // success with the `passed` field missing.
    let resp = handle_line(
        &service,
        r#"{"cmd":"check","name":"SB-typo","source":"thread P0 { r0 = 1; }"}"#,
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("proto")
    );
}

#[test]
fn reactor_latency_has_no_idle_poll_floor() {
    // The reactor parks idle cycles on a wakeup pipe and polls eagerly
    // right after activity, so a lone in-flight request must NOT pay the
    // 500µs idle-poll cadence on either the read or the write side. The
    // sleep-driven loop this replaced cost ~½ a poll cycle to notice the
    // request plus ~½ to notice the worker's response — ≥ ~500µs per
    // sequential round-trip in expectation, ≥ 25ms for the 50 pings
    // below. With the wakeup path a cheap `cache-stats` ping is bounded
    // by scheduling noise, not the poll clock; the *median* (immune to a
    // loaded runner stalling a few pings) must come in well under one
    // poll cycle.
    let handle = start_server();
    let (mut stream, mut reader) = connect(handle.addr());
    stream.set_nodelay(true).unwrap();
    let ping = Json::obj([("cmd", Json::Str("cache-stats".into()))]);

    // Warm-up: connection admitted, worker pool paged in.
    for _ in 0..3 {
        let resp = request(&mut stream, &mut reader, &ping);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    }

    let mut micros: Vec<u128> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let resp = request(&mut stream, &mut reader, &ping);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            t0.elapsed().as_micros()
        })
        .collect();
    micros.sort_unstable();
    let median = micros[micros.len() / 2];
    assert!(
        median < 350,
        "median ping latency {median}µs has an idle-poll floor in it: {micros:?}"
    );
    handle.shutdown();
}
