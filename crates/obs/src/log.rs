//! Structured JSON-lines logging, std-only and always compiled.
//!
//! One line per record: `{"ts_us":...,"mono_ns":...,"level":"warn",
//! "target":"reactor","msg":"...",<fields>}`. The escaper emits exactly
//! the escape repertoire the service's `json.rs` parser accepts, so
//! every logged string round-trips (property-tested from the service
//! crate, which owns the parser).
//!
//! Cost model, matching the span recorder's discipline:
//!
//! * The level gate is one `Relaxed` load of an `AtomicU8` (0 =
//!   uninstalled). Until [`install`] runs — or for records below the
//!   installed level — a log site is a load and a branch: no clock
//!   read, no allocation, no lock.
//! * Past the gate, rendering allocates and the sink takes a mutex;
//!   log sites therefore belong on control paths (accept errors, slow
//!   requests, shutdown), never in engine hot loops.
//!
//! Each record passes a **per-target rate limiter** (at most
//! [`LogConfig::rate_per_sec`] lines per second per target; overflow is
//! counted, not written, and surfaces as one summary line when the
//! window rolls — the [`Counter::LogRateLimited`] gauge counts every
//! suppression). Emitted lines also land in a bounded in-memory ring
//! ([`recent_lines`]) so a flight-recorder dump can include the seconds
//! of log context preceding an anomaly.
//!
//! With a directory configured, lines append to `bdrst.log` and rotate
//! by **rename**: when the active file would exceed
//! [`LogConfig::rotate_bytes`], it is renamed to `bdrst.log.<n>` and a
//! fresh `bdrst.log` is created. Every line is written whole to exactly
//! one file — rotation happens only at line boundaries, so no line is
//! ever split across files.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::counters::{counter_add, Counter};

/// Lines the in-memory recent-lines ring retains for flight dumps.
const RECENT_CAPACITY: usize = 256;

/// Severity, ordered: a record is emitted when its level is at or above
/// the installed threshold (`Error` is the most severe).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Anomalies the server survives (slow requests, worker panics).
    Warn = 2,
    /// Lifecycle events (bind, shutdown, flight dumps).
    Info = 3,
    /// Per-connection and per-request detail.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// The level's lowercase name, as rendered in the `level` field.
    pub const fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `--log-level` / `BDRST_LOG` value, case-insensitive.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// One structured field value. Strings are escaped at render time;
/// non-finite floats render as `null` so the line stays parseable.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// A string value.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (`null` when not finite).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

/// Logger configuration for [`install`].
pub struct LogConfig {
    /// Threshold: records below this level are dropped at the gate.
    pub level: Level,
    /// Log directory; `None` writes to stderr.
    pub dir: Option<PathBuf>,
    /// Rotate the active file before it exceeds this many bytes.
    pub rotate_bytes: u64,
    /// Per-target lines per second before suppression.
    pub rate_per_sec: u64,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            level: Level::Warn,
            dir: None,
            rotate_bytes: 4 << 20,
            rate_per_sec: 64,
        }
    }
}

enum Sink {
    Stderr,
    File {
        dir: PathBuf,
        file: std::fs::File,
        bytes: u64,
        rotate_bytes: u64,
        seq: u64,
    },
}

struct Window {
    start_ns: u64,
    count: u64,
    suppressed: u64,
}

struct State {
    sink: Mutex<Sink>,
    limiter: Mutex<HashMap<&'static str, Window>>,
    recent: Mutex<VecDeque<String>>,
    rate_per_sec: u64,
}

/// 0 = uninstalled; otherwise the installed [`Level`] as `u8`. The one
/// relaxed load every log site pays.
static LEVEL: AtomicU8 = AtomicU8::new(0);
static STATE: OnceLock<State> = OnceLock::new();

/// Installs the logger process-wide (atomic, like `Recorder::install`).
/// The first call fixes the sink; later calls only move the level, so a
/// test or a long-lived server can tighten/loosen verbosity live.
pub fn install(config: LogConfig) -> std::io::Result<()> {
    if STATE.get().is_none() {
        let sink = match &config.dir {
            None => Sink::Stderr,
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join("bdrst.log");
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?;
                let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                // Resume numbering after any rotated files already there.
                let seq = std::fs::read_dir(dir)?
                    .filter_map(|e| e.ok())
                    .filter_map(|e| {
                        e.file_name()
                            .to_str()
                            .and_then(|n| n.strip_prefix("bdrst.log.").map(str::to_string))
                    })
                    .filter_map(|n| n.parse::<u64>().ok())
                    .max()
                    .map_or(1, |n| n + 1);
                Sink::File {
                    dir: dir.clone(),
                    file,
                    bytes,
                    rotate_bytes: config.rotate_bytes.max(1),
                    seq,
                }
            }
        };
        let _ = STATE.set(State {
            sink: Mutex::new(sink),
            limiter: Mutex::new(HashMap::new()),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAPACITY)),
            rate_per_sec: config.rate_per_sec.max(1),
        });
    }
    LEVEL.store(config.level as u8, Ordering::Relaxed);
    Ok(())
}

/// Moves the level threshold without touching the sink.
pub fn set_level(level: Level) {
    if STATE.get().is_some() {
        LEVEL.store(level as u8, Ordering::Relaxed);
    }
}

/// The installed threshold, or `None` before [`install`].
pub fn level() -> Option<Level> {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// True when a record at `l` would pass the gate.
#[inline]
pub fn log_enabled(l: Level) -> bool {
    l as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Escapes `s` into `out` exactly as the service's `json.rs` renderer
/// does: `"`, `\`, `\n`, `\r`, `\t` named, every other control char as
/// `\u00XX` — the repertoire its parser reverses losslessly.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn render(level: Level, target: &str, msg: &str, fields: &[(&str, Field)]) -> String {
    let wall_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(96 + msg.len());
    out.push_str(&format!(
        "{{\"ts_us\":{wall_us},\"mono_ns\":{},\"level\":\"{}\",\"target\":\"",
        crate::now_ns(),
        level.name()
    ));
    escape_into(&mut out, target);
    out.push_str("\",\"msg\":\"");
    escape_into(&mut out, msg);
    out.push('"');
    for (key, value) in fields {
        out.push_str(",\"");
        escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            Field::Str(s) => {
                out.push('"');
                escape_into(&mut out, s);
                out.push('"');
            }
            Field::U64(n) => out.push_str(&n.to_string()),
            Field::I64(n) => out.push_str(&n.to_string()),
            Field::F64(f) if f.is_finite() => out.push_str(&format!("{f}")),
            Field::F64(_) => out.push_str("null"),
            Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

fn emit(state: &State, line: String) {
    counter_add(Counter::LogLines, 1);
    {
        let mut recent = state.recent.lock().unwrap();
        if recent.len() == RECENT_CAPACITY {
            recent.pop_front();
        }
        recent.push_back(line.clone());
    }
    let mut sink = state.sink.lock().unwrap();
    match &mut *sink {
        Sink::Stderr => {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
        Sink::File {
            dir,
            file,
            bytes,
            rotate_bytes,
            seq,
        } => {
            let line_bytes = line.len() as u64 + 1;
            // Rotate between lines only: rename the active file away and
            // start a fresh one, so no line straddles two files.
            if *bytes > 0 && *bytes + line_bytes > *rotate_bytes {
                let active = dir.join("bdrst.log");
                let rotated = dir.join(format!("bdrst.log.{seq}"));
                if std::fs::rename(&active, &rotated).is_ok() {
                    *seq += 1;
                    if let Ok(fresh) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&active)
                    {
                        *file = fresh;
                        *bytes = 0;
                    }
                }
            }
            if writeln!(file, "{line}").is_ok() {
                *bytes += line_bytes;
            }
        }
    }
}

/// Emits one structured record. `target` names the subsystem (the rate
/// limiter's key); `fields` append as extra JSON members after `msg`.
pub fn log(level: Level, target: &'static str, msg: &str, fields: &[(&str, Field)]) {
    if !log_enabled(level) {
        return;
    }
    let Some(state) = STATE.get() else {
        return;
    };
    let now = crate::now_ns();
    let released = {
        let mut limiter = state.limiter.lock().unwrap();
        let w = limiter.entry(target).or_insert(Window {
            start_ns: now,
            count: 0,
            suppressed: 0,
        });
        let mut released = 0;
        if now.saturating_sub(w.start_ns) >= 1_000_000_000 {
            released = w.suppressed;
            *w = Window {
                start_ns: now,
                count: 0,
                suppressed: 0,
            };
        }
        if w.count >= state.rate_per_sec {
            w.suppressed += 1;
            counter_add(Counter::LogRateLimited, 1);
            return;
        }
        w.count += 1;
        released
    };
    if released > 0 {
        emit(
            state,
            render(
                Level::Warn,
                target,
                "rate limiter released",
                &[("suppressed", Field::U64(released))],
            ),
        );
    }
    emit(state, render(level, target, msg, fields));
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &'static str, msg: &str, fields: &[(&str, Field)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &'static str, msg: &str, fields: &[(&str, Field)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &'static str, msg: &str, fields: &[(&str, Field)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &'static str, msg: &str, fields: &[(&str, Field)]) {
    log(Level::Debug, target, msg, fields);
}

/// The most recent emitted lines (oldest first), for flight dumps.
pub fn recent_lines() -> Vec<String> {
    STATE
        .get()
        .map(|s| s.recent.lock().unwrap().iter().cloned().collect())
        .unwrap_or_default()
}

/// Renders a record to its JSON line without emitting it — the escaping
/// surface the round-trip property tests target.
pub fn render_line(level: Level, target: &str, msg: &str, fields: &[(&str, Field)]) -> String {
    render(level, target, msg, fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_escapes_and_fields() {
        let line = render_line(
            Level::Warn,
            "test",
            "a \"quoted\"\nmessage\twith\u{1}ctrl",
            &[
                ("s", Field::Str("v\\x")),
                ("u", Field::U64(7)),
                ("i", Field::I64(-3)),
                ("f", Field::F64(1.5)),
                ("nan", Field::F64(f64::NAN)),
                ("b", Field::Bool(true)),
            ],
        );
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"quoted\\\"\\nmessage\\twith\\u0001ctrl"));
        assert!(line.contains("\"s\":\"v\\\\x\""));
        assert!(line.contains("\"u\":7"));
        assert!(line.contains("\"i\":-3"));
        assert!(line.contains("\"f\":1.5"));
        assert!(line.contains("\"nan\":null"));
        assert!(line.contains("\"b\":true"));
        assert!(!line.contains('\n'), "a record is exactly one line");
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
    }
}
