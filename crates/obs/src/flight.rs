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
//! (`flight-<seq>-<reason>.json`) under the directory the caller names,
//! so each server's dumps land in its own trace directory. Each
//! directory retains at most 16 dumps (oldest deleted), and every
//! dump counts in [`Counter::FlightDumps`]. Automatic triggers go
//! through [`dump_throttled`] so a burst of slow requests costs one
//! snapshot per directory, not one per request.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::counters::{counter_add, Counter};
use crate::json::Json;
use crate::recorder::{drain_rings, FLIGHT, SINKS};

/// Newest events per thread a dump holds.
const FLIGHT_WINDOW: u64 = 2048;

/// Dumps retained per directory.
const KEEP: usize = 16;

/// Minimum gap between automatic dumps into one directory
/// ([`dump_throttled`]).
const THROTTLE_NS: u64 = 250_000_000;

/// Process-unique dump sequence number.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// Per-directory bookkeeping: the retained dumps, oldest first, and the
/// time of the last automatic dump (0 = none yet).
#[derive(Default)]
struct DirState {
    dumps: Vec<PathBuf>,
    last_auto_ns: u64,
}

static DIRS: Mutex<BTreeMap<PathBuf, DirState>> = Mutex::new(BTreeMap::new());

/// Turns on span capture into the thread rings a dump drains. Idempotent.
pub fn install() {
    SINKS.fetch_or(FLIGHT, Ordering::SeqCst);
}

/// Snapshots every thread ring's newest events plus the logger's recent
/// records and writes one Chrome-trace JSON file
/// (`flight-<seq>-<reason>.json`, temp-file + rename) under `dir`,
/// creating it if needed, and deletes `dir`'s oldest dump past the 16
/// it retains. Returns the final path.
pub fn dump(dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
    let mut profile = drain_rings(FLIGHT_WINDOW, |_| 0);
    profile.events.sort_by_key(|e| e.start_ns);

    let mut trace = profile.to_chrome_json();
    if let Json::Obj(members) = &mut trace {
        if let Some((_, Json::Obj(other))) = members.iter_mut().find(|(k, _)| k == "otherData") {
            other.push(("flight_reason".into(), Json::Str(reason.to_string())));
            other.push((
                "recent_logs".into(),
                Json::Arr(crate::log::recent_records()),
            ));
        }
    }
    let body = trace.render();

    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let safe_reason: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("flight-{seq}-{safe_reason}.json"));
    let tmp = dir.join(format!(".flight-{seq}.tmp"));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&tmp, &body)?;
    std::fs::rename(&tmp, &path)?;
    counter_add(Counter::FlightDumps, 1);

    let mut dirs = DIRS.lock().unwrap_or_else(|e| e.into_inner());
    let dumps = &mut dirs.entry(dir.to_path_buf()).or_default().dumps;
    dumps.push(path.clone());
    while dumps.len() > KEEP {
        let old = dumps.remove(0);
        let _ = std::fs::remove_file(old);
    }
    Ok(path)
}

/// [`dump`], but rate limited for automatic triggers: at most one dump
/// into `dir` per 250 ms, `None` when throttled (or the dump failed).
pub fn dump_throttled(dir: &Path, reason: &str) -> Option<PathBuf> {
    {
        let now = crate::now_ns();
        let mut dirs = DIRS.lock().unwrap_or_else(|e| e.into_inner());
        let state = dirs.entry(dir.to_path_buf()).or_default();
        if state.last_auto_ns != 0 && now.saturating_sub(state.last_auto_ns) < THROTTLE_NS {
            return None;
        }
        state.last_auto_ns = now;
    }
    dump(dir, reason).ok()
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

    #[test]
    fn ring_wraps_dumps_throttle_and_retention() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir();
        let _ = std::fs::remove_dir_all(&dir);
        install();
        assert!(SINKS.load(Ordering::Relaxed) & FLIGHT != 0);
        // Overfill this thread's window so it slides.
        for i in 0..FLIGHT_WINDOW + 10 {
            crate::event(Phase::Execute, i, 1, i);
        }
        let path = dump(&dir, "unit-test").unwrap();
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

        // Automatic triggers coalesce per directory: one dump per
        // throttle window, while another directory is not held back.
        let other = dir.join("other");
        let first = dump_throttled(&dir, "burst");
        let second = dump_throttled(&dir, "burst");
        assert!(first.is_some());
        assert!(second.is_none(), "second dump inside 250ms is throttled");
        let elsewhere = dump_throttled(&other, "burst").expect("other directory's own throttle");
        assert_eq!(elsewhere.parent(), Some(other.as_path()));

        // Retention: more dumps cap the directory at `KEEP`, and leave
        // the other directory's dump alone.
        for _ in 0..KEEP {
            dump(&dir, "unit-test").unwrap();
        }
        let count = |d: &Path| {
            std::fs::read_dir(d)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with("flight-"))
                })
                .count()
        };
        assert_eq!(count(&dir), KEEP, "retention cap keeps the newest KEEP");
        assert_eq!(count(&other), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiling_session_and_dump_share_the_rings() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install();
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

        let body = std::fs::read_to_string(dump(&test_dir(), "shared-session").unwrap()).unwrap();
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
