//! The closed-loop socket client: each connection sends its next request
//! only after the previous response line arrived, and every request is
//! timed from writing its line to reading its response line.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use bdrst_service::store::ResultStore;

use crate::workload::{verdict_of, ColdPlan, Prog, Request, Verdict, WarmStream};

/// One newline-delimited JSON connection to the check server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connects to `addr` with Nagle's algorithm off (one small line per
    /// request, so batching would only add latency).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
        })
    }

    /// Sends one request line and reads its response line. `None` when
    /// the server closed the connection instead of answering.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn call(&mut self, line: &str) -> io::Result<Option<String>> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Ok(None);
        }
        Ok(Some(response.trim_end().to_string()))
    }

    /// Sends `request` with a fresh id, timing the round trip: returns
    /// the send time (seconds since `phase_start`), the latency in
    /// seconds, and the response line if one arrived.
    pub fn timed(&mut self, request: &Request, phase_start: Instant) -> (f64, f64, Option<String>) {
        self.next_id += 1;
        let line = request.line(self.next_id);
        let start = Instant::now();
        let response = self.call(&line).unwrap_or(None);
        let latency_s = start.elapsed().as_secs_f64();
        (
            start.duration_since(phase_start).as_secs_f64(),
            latency_s,
            response,
        )
    }
}

/// One timed request, kept for the traced run's in-process replay.
#[derive(Clone, Debug)]
pub struct Sample {
    /// What was sent.
    pub request: Request,
    /// When it was sent, in seconds since the phase began.
    pub start_s: f64,
    /// Write-to-response time in seconds.
    pub latency_s: f64,
}

/// What one timed phase observed.
#[derive(Default)]
pub struct Phase {
    /// Every request's latency, in seconds.
    pub latencies_s: Vec<f64>,
    /// The kept requests, sorted by send time.
    pub samples: Vec<Sample>,
    /// Every wrong, failed or missing response, described.
    pub failures: Vec<String>,
    /// Wall time of the whole phase, in seconds.
    pub elapsed_s: f64,
    /// Responses whose program's answer the oracle has yet to derive.
    deferred: Vec<(Request, Verdict)>,
}

impl Phase {
    /// Records one request. The response is checked as it arrives when
    /// the answer is already known, so only a verdict — not the
    /// response line — is held; returns false when no response came.
    fn record(
        &mut self,
        request: &Request,
        (start_s, latency_s, response): (f64, f64, Option<String>),
        keep: bool,
    ) -> bool {
        self.latencies_s.push(latency_s);
        if keep {
            self.samples.push(Sample {
                request: request.clone(),
                start_s,
                latency_s,
            });
        }
        let answered = response.is_some();
        let verdict = response
            .ok_or_else(|| "no response".to_string())
            .and_then(|line| verdict_of(request.cmd, &line));
        match verdict {
            Ok(got) if request.prog.is_known() => self.settle(request, got),
            Ok(got) => self.deferred.push((request.clone(), got)),
            Err(e) => self.fail(request, e),
        }
        answered
    }

    fn settle(&mut self, request: &Request, got: Verdict) {
        match request.expected() {
            Ok(want) if want == got => {}
            Ok(want) => self.fail(request, format!("got {got:?}, expected {want:?}")),
            Err(e) => self.fail(request, e),
        }
    }

    fn fail(&mut self, request: &Request, why: String) {
        self.failures.push(format!(
            "{} on {}: {why}",
            request.cmd.wire(),
            request.prog.label
        ));
    }

    /// Merges another connection's observations and settles every
    /// deferred response against the oracle.
    fn finish(mut self, others: Vec<Phase>, elapsed_s: f64) -> Phase {
        for o in others {
            self.latencies_s.extend(o.latencies_s);
            self.samples.extend(o.samples);
            self.failures.extend(o.failures);
            self.deferred.extend(o.deferred);
        }
        for (request, got) in std::mem::take(&mut self.deferred) {
            self.settle(&request, got);
        }
        self.samples.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        self.elapsed_s = elapsed_s;
        self
    }
}

/// Runs a cold workload over one connection: whole cycles of its
/// programs until `seconds` have passed. After each program's requests
/// the store is emptied, so every program meets an empty store and the
/// process holds at most one program's entry at a time.
///
/// Stopping only at a cycle boundary keeps the mix of families, and so
/// the throughput and latency distribution, the same in every run.
///
/// # Errors
///
/// Failure to connect.
pub fn run_cold(
    addr: SocketAddr,
    store: &ResultStore,
    plan: &ColdPlan,
    seconds: f64,
) -> io::Result<Phase> {
    let mut conn = Conn::connect(addr)?;
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut cycle = 0u64;
    while cycle == 0 || start.elapsed().as_secs_f64() < seconds {
        for group in plan.cycle(cycle) {
            for request in &group {
                phase.record(request, conn.timed(request, start), true);
            }
            store.clear()?;
        }
        cycle += 1;
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(phase.finish(Vec::new(), elapsed_s))
}

/// Runs `serve-warm`: `conns` connections, each a closed loop over its
/// own request stream, until `seconds` have passed. Requests are kept
/// for replay only when `keep` is set.
///
/// # Errors
///
/// Failure to connect.
pub fn run_warm(
    addr: SocketAddr,
    pool: &Arc<Vec<Arc<Prog>>>,
    seed: u64,
    conns: usize,
    seconds: f64,
    keep: bool,
) -> io::Result<Phase> {
    let mut links = (0..conns)
        .map(|_| Conn::connect(addr))
        .collect::<io::Result<Vec<Conn>>>()?;
    let start = Instant::now();
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut stream = WarmStream::new(Arc::clone(pool), seed, c as u64);
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    while start.elapsed().as_secs_f64() < seconds {
                        let request = stream.next_request(start.elapsed().as_secs_f64());
                        if !phase.record(&request, conn.timed(&request, start), keep) {
                            break;
                        }
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(Phase::default().finish(phases, elapsed_s))
}
