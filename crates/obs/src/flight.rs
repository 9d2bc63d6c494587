//! The flight recorder: dumps a Chrome-trace + recent-log snapshot of
//! the newest spans to disk when something goes wrong — a slow request,
//! a worker panic, or an explicit `dump` protocol command — so the
//! *cause* of an anomaly is captured without running with full
//! profiling on.
//!
//! It keeps no buffer of its own. [`install`] turns on span capture
//! into the per-thread rings the profiler also reads (see `recorder`),
//! and [`dump`] drains the newest 2048 events of each with the same
//! tear-free seqlock read, under the same thread ids a profile uses. A
//! profiling session neither clears nor hides them.
//!
//! Dumps are written whole to a temp file and renamed into place
//! (`flight-<seq>-<reason>.json`), retain at most `keep` files (oldest
//! deleted), and count in [`Counter::FlightDumps`]. Automatic triggers
//! go through [`dump_throttled`] so a burst of slow requests costs one
//! snapshot, not one per request.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::counters::{counter_add, Counter};
use crate::recorder::{drain_rings, FLIGHT, SINKS};

/// Newest events per thread a dump holds.
const FLIGHT_WINDOW: u64 = 2048;

/// Minimum gap between automatic dumps ([`dump_throttled`]).
const THROTTLE_NS: u64 = 250_000_000;

static STATE: OnceLock<DumpState> = OnceLock::new();

struct DumpState {
    dir: PathBuf,
    keep: usize,
    dumps: Mutex<Vec<PathBuf>>,
    seq: AtomicU64,
    last_dump_ns: AtomicU64,
}

/// True once [`install`] has run: span sites feed the thread rings.
#[inline]
pub fn active() -> bool {
    SINKS.load(Ordering::Relaxed) & FLIGHT != 0
}

/// Installs the flight recorder: dumps land under `dir`, at most `keep`
/// retained. Idempotent after the first call (which fixes the
/// directory); capture starts immediately.
pub fn install(dir: PathBuf, keep: usize) -> std::io::Result<()> {
    if STATE.get().is_none() {
        std::fs::create_dir_all(&dir)?;
        let _ = STATE.set(DumpState {
            dir,
            keep: keep.max(1),
            dumps: Mutex::new(Vec::new()),
            seq: AtomicU64::new(1),
            last_dump_ns: AtomicU64::new(0),
        });
    }
    SINKS.fetch_or(FLIGHT, Ordering::SeqCst);
    Ok(())
}

/// Snapshots every thread ring's newest events plus the logger's recent
/// lines and writes one Chrome-trace JSON file
/// (`flight-<seq>-<reason>.json`, temp-file + rename) under the installed
/// directory, recreating it if it vanished, and deletes the oldest dump
/// past the retention cap. Returns the final path.
pub fn dump(reason: &str) -> std::io::Result<PathBuf> {
    let state = STATE
        .get()
        .ok_or_else(|| std::io::Error::other("flight recorder not installed"))?;
    let mut profile = drain_rings(FLIGHT_WINDOW, |_| 0);
    profile.events.sort_by_key(|e| e.start_ns);

    let mut extra = String::from(",\"flight_reason\":\"");
    crate::log::escape_into(&mut extra, reason);
    extra.push_str("\",\"recent_logs\":[");
    // Emitted log lines are themselves JSON objects, so they embed
    // verbatim as array elements.
    extra.push_str(&crate::log::recent_lines().join(","));
    extra.push(']');
    let body = profile.to_chrome_json_with_extra(&extra);

    let seq = state.seq.fetch_add(1, Ordering::Relaxed);
    let safe_reason: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = state.dir.join(format!("flight-{seq}-{safe_reason}.json"));
    let tmp = state.dir.join(format!(".flight-{seq}.tmp"));
    std::fs::create_dir_all(&state.dir)?;
    std::fs::write(&tmp, &body)?;
    std::fs::rename(&tmp, &path)?;
    counter_add(Counter::FlightDumps, 1);

    let mut dumps = state.dumps.lock().unwrap();
    dumps.push(path.clone());
    while dumps.len() > state.keep {
        let old = dumps.remove(0);
        let _ = std::fs::remove_file(old);
    }
    Ok(path)
}

/// [`dump`], but rate limited for automatic triggers: at most one dump
/// per 250 ms, `None` when throttled (or not installed).
pub fn dump_throttled(reason: &str) -> Option<PathBuf> {
    let state = STATE.get()?;
    let now = crate::now_ns();
    let last = state.last_dump_ns.load(Ordering::Relaxed);
    if now.saturating_sub(last) < THROTTLE_NS && last != 0 {
        return None;
    }
    if state
        .last_dump_ns
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return None;
    }
    dump(reason).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::recorder::TEST_LOCK;
    use crate::Recorder;

    fn test_dir() -> PathBuf {
        std::env::temp_dir().join(format!("bdrst-flight-test-{}", std::process::id()))
    }

    // One test drives the dump lifecycle: the dump directory is fixed by
    // the first install, so dump accounting is process-global.
    #[test]
    fn ring_wraps_dumps_throttle_and_retention() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir();
        let _ = std::fs::remove_dir_all(&dir);
        install(dir.clone(), 2).unwrap();
        assert!(active());
        // Overfill this thread's window so it slides.
        for i in 0..FLIGHT_WINDOW + 10 {
            crate::event(Phase::Execute, i, 1, i);
        }
        let path = dump("unit-test").unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .ends_with(".json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\":["));
        assert!(body.contains("\"flight_reason\":\"unit-test\""));
        assert!(body.contains("\"recent_logs\":["));
        // Only the newest FLIGHT_WINDOW survive, and the older count is
        // reported.
        assert!(body.contains("\"dropped_events\":10"));

        // Automatic triggers coalesce: one dump per throttle window.
        let first = dump_throttled("burst");
        let second = dump_throttled("burst");
        assert!(first.is_some());
        assert!(second.is_none(), "second dump inside 250ms is throttled");

        // Retention: more dumps cap the directory at `keep`.
        dump("unit-test").unwrap();
        dump("unit-test").unwrap();
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("flight-"))
            })
            .collect();
        assert_eq!(dumps.len(), 2, "retention cap keeps the newest 2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiling_session_and_dump_share_the_rings() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(test_dir(), 2).unwrap();
        let spawn = |name: &str, arg: u64| {
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || crate::event(Phase::Parse, arg, 1, arg))
                .unwrap()
                .join()
                .unwrap()
        };
        // The pre-session window: this thread and a worker that exits.
        crate::event(Phase::Parse, 1001, 1, 1001);
        spawn("pre-session", 1002);

        Recorder::install();
        crate::event(Phase::Explore, 2001, 1, 2001);
        drop(crate::span_arg(Phase::Execute, 2002));
        spawn("in-session", 2003);
        let profile = Recorder::stop_and_collect();

        let mut args: Vec<u64> = profile.events.iter().map(|e| e.arg).collect();
        args.sort();
        assert_eq!(
            args,
            [2001, 2002, 2003],
            "every session span, nothing older"
        );
        assert_eq!(profile.dropped, 0);
        let me = profile.events.iter().find(|e| e.arg == 2001).unwrap().tid;

        let body = std::fs::read_to_string(dump("shared-session").unwrap()).unwrap();
        // The dump still holds the pre-session window, and every event
        // sits under the tid the profile gave its thread.
        assert!(body.contains(&format!(
            "\"tid\":{me},\"ts\":1.001,\"dur\":0.001,\"args\":{{\"arg\":1001}}"
        )));
        assert!(body.contains("\"args\":{\"arg\":1002}"));
        for e in &profile.events {
            let arg = format!("\"args\":{{\"arg\":{}}}", e.arg);
            let at = body.find(&arg).expect("session event in the dump");
            let record = &body[body[..at].rfind('{').unwrap()..at];
            assert!(record.contains(&format!("\"tid\":{},", e.tid)), "{record}");
        }
        for (tid, name) in &profile.threads {
            assert!(body.contains(&format!("\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}")));
        }
        let _ = std::fs::remove_dir_all(test_dir());
    }
}
