//! Property tests for `bdrst-obs`'s one JSON string escaper: every line
//! `obs::log` renders, every thread name in a Chrome trace and every
//! flight-dump reason must parse back through the service's own
//! std-only JSON parser intact — the two escapers were written against
//! the same repertoire, and this is the test that keeps them aligned.
//! Plus a rotation test: rotation happens only at line boundaries, so no
//! line is ever split across `bdrst.log*` files.

use proptest::prelude::*;

use bdrst_obs::log::{render_line, Field, Level, LogConfig};
use bdrst_obs::Profile;
use bdrst_service::json::Json;

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
        let line = render_line(Level::Info, &target, &msg, &[("v", Field::Str(&val))]);
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
        let line = render_line(
            Level::Warn,
            "t",
            "m",
            &[
                ("u", Field::U64(u)),
                ("i", Field::I64(i)),
                ("nan", Field::F64(f64::NAN)),
                ("yes", Field::Bool(true)),
            ],
        );
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
        let json = profile.to_chrome_json();
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
    for level in [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ] {
        assert_eq!(Level::parse(level.name()), Some(level));
    }
    assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
    assert_eq!(Level::parse("nope"), None);
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
    for i in 0..200u64 {
        bdrst_obs::log::info(
            "rotate-test",
            "padding line for the rotation property",
            &[("i", Field::U64(i)), ("pad", Field::Str(&pad))],
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
