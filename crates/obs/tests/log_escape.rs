//! Property tests for the observability output of `bdrst-obs`: every
//! log record, every thread name in a Chrome trace and every
//! flight-dump reason is built as a [`Json`] value, and its rendered
//! line must parse back through [`Json::parse`] intact. Plus a rotation
//! test: rotation happens only at line boundaries, so no line is ever
//! split across `bdrst.log*` files.

use proptest::prelude::*;

use bdrst_obs::json::Json;
use bdrst_obs::log::{record, Level, LogConfig};
use bdrst_obs::Profile;

/// Arbitrary Unicode strings biased toward the troublemakers: the whole
/// ASCII block (quotes, backslashes, every control character) plus a
/// spread across the BMP and astral planes. Unassigned scalar values are
/// fine — only surrogates are filtered, by `char::from_u32`.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![(0u32..0x80).boxed(), (0x80u32..0x11_0000).boxed(),],
        0..24,
    )
    .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn logged_strings_round_trip(
        target in arb_string(),
        msg in arb_string(),
        val in arb_string(),
    ) {
        let line = record(Level::Info, &target, &msg, &[("v", Json::Str(val.clone()))]).render();
        let doc = Json::parse(&line)
            .unwrap_or_else(|e| panic!("rendered line does not parse: {e} in {line:?}"));
        prop_assert_eq!(doc.get("target").and_then(Json::as_str), Some(target.as_str()));
        prop_assert_eq!(doc.get("msg").and_then(Json::as_str), Some(msg.as_str()));
        prop_assert_eq!(doc.get("v").and_then(Json::as_str), Some(val.as_str()));
        prop_assert_eq!(doc.get("level").and_then(Json::as_str), Some("info"));
    }

    #[test]
    fn scalar_fields_round_trip(
        u in 0u64..1_000_000_000_000,
        i in -1_000_000_000_000i64..1_000_000_000_000,
    ) {
        let line = record(
            Level::Warn,
            "t",
            "m",
            &[
                ("u", Json::Int(u as i64)),
                ("i", Json::Int(i)),
                ("nan", Json::Num(f64::NAN)),
                ("yes", Json::Bool(true)),
            ],
        )
        .render();
        let doc = Json::parse(&line)
            .unwrap_or_else(|e| panic!("rendered line does not parse: {e} in {line:?}"));
        prop_assert_eq!(doc.get("u"), Some(&Json::Int(u as i64)));
        prop_assert_eq!(doc.get("i"), Some(&Json::Int(i)));
        prop_assert_eq!(doc.get("nan"), Some(&Json::Null));
        prop_assert_eq!(doc.get("yes"), Some(&Json::Bool(true)));
    }

    #[test]
    fn trace_thread_names_round_trip(name in arb_string()) {
        let profile = Profile {
            threads: vec![(1, name.clone())],
            ..Profile::default()
        };
        let json = profile.to_chrome_json().render();
        let doc = Json::parse(&json)
            .unwrap_or_else(|e| panic!("trace does not parse: {e} in {json:?}"));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(
            events[0].get_in(&["args", "name"]).and_then(Json::as_str),
            Some(name.as_str())
        );
    }

    #[test]
    fn flight_dump_reasons_round_trip(reason in arb_string()) {
        let dir = std::env::temp_dir().join(format!("bdrst-flight-escape-{}", std::process::id()));
        bdrst_obs::flight::install();
        let path = bdrst_obs::flight::dump(&dir, &reason).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        // The next dump recreates the directory.
        let _ = std::fs::remove_dir_all(&dir);
        let doc = Json::parse(&body)
            .unwrap_or_else(|e| panic!("dump does not parse: {e} in {body:?}"));
        prop_assert_eq!(
            doc.get_in(&["otherData", "flight_reason"]).and_then(Json::as_str),
            Some(reason.as_str())
        );
    }
}

#[test]
fn level_names_round_trip() {
    for level in [Level::Error, Level::Warn, Level::Info] {
        assert_eq!(Level::parse(level.name()), Some(level));
    }
    assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
    // No log site emits below `info`, so there is no level below it.
    for name in ["debug", "trace", "nope"] {
        assert_eq!(Level::parse(name), None, "{name}");
    }
}

/// One install per process: this is the binary's only test that touches
/// the global logger state.
#[test]
fn rotation_never_splits_a_line() {
    let dir = std::env::temp_dir().join(format!("bdrst-log-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    bdrst_obs::log::install(LogConfig {
        level: Level::Info,
        dir: Some(dir.clone()),
        rotate_bytes: 1 << 10,
        rate_per_sec: 1 << 20,
    })
    .unwrap();

    let pad = "x".repeat(64);
    for i in 0..200i64 {
        bdrst_obs::log::info(
            "rotate-test",
            "padding line for the rotation property",
            &[("i", Json::Int(i)), ("pad", Json::Str(pad.clone()))],
        );
    }

    let files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("bdrst.log"))
        })
        .collect();
    assert!(
        files.len() > 1,
        "200 padded lines over a 1 KiB rotate threshold should rotate; \
         got {} file(s)",
        files.len()
    );
    let mut lines = 0usize;
    for path in &files {
        let content = std::fs::read_to_string(path).unwrap();
        assert!(
            content.ends_with('\n'),
            "{}: rotated mid-line (no trailing newline)",
            path.display()
        );
        for line in content.lines() {
            Json::parse(line).unwrap_or_else(|e| {
                panic!("{}: unparseable line: {e} in {line:?}", path.display())
            });
            lines += 1;
        }
    }
    assert_eq!(lines, 200, "every emitted line lands in exactly one file");
    let _ = std::fs::remove_dir_all(&dir);
}
