//! Integration suite for the result store and check service: cache hits
//! must be bit-identical to fresh computation, warm runs must never touch
//! the transition semantics, and *no* defective cache state (truncation,
//! version flips, fingerprint collisions) may ever surface as a wrong
//! verdict — only as a recompute.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bdrst_core::engine::{EngineConfig, EngineError, Strategy};
use bdrst_lang::Program;
use bdrst_litmus::{run_corpus, RunConfig, RunError};
use bdrst_service::server::default_run_config;
use bdrst_service::service::CheckService;
use bdrst_service::store::{version_tag, ResultStore, StoreConfig, ENTRY_FORMAT_VERSION};

static TEMP_SEQ: AtomicU32 = AtomicU32::new(0);

/// A unique scratch directory per test invocation.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bdrst-svc-{tag}-{}-{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_memory_service() -> CheckService {
    CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default())
}

fn disk_service(dir: &std::path::Path) -> CheckService {
    let store = ResultStore::new(StoreConfig {
        disk_dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .unwrap();
    CheckService::new(Arc::new(store), RunConfig::default())
}

#[test]
fn cache_hits_are_bit_identical_to_fresh_runs_corpus_wide() {
    let service = in_memory_service();
    let cold = service.check_corpus();
    let warm = service.check_corpus();
    // Every second-pass query hit the cache…
    let stats = service.stats();
    assert_eq!(stats.hits as usize, warm.len(), "{stats:?}");
    assert_eq!(stats.collisions, 0, "{stats:?}");
    // …and reproduced the cold reports exactly.
    assert_eq!(cold.len(), warm.len());
    for ((n1, r1), (n2, r2)) in cold.iter().zip(&warm) {
        assert_eq!(n1, n2);
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "verdict drift on {n1}"
        );
    }
    // …and both match the plain sequential runner (no cache at all).
    let fresh = run_corpus(RunConfig::default());
    assert_eq!(fresh.len(), warm.len());
    for ((n1, r1), (n2, r2)) in fresh.iter().zip(&warm) {
        assert_eq!(*n1, n2.as_str());
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "cached verdict diverges from the sequential runner on {n1}"
        );
    }
    // Outcome sets round-trip the cache bit-identically.
    for t in bdrst_litmus::all_tests() {
        let a = service.check_source(t.source).unwrap();
        let b = in_memory_service().check_source(t.source).unwrap();
        assert!(a.cached);
        assert!(!b.cached);
        assert_eq!(a.entry.op, b.entry.op, "{}", t.name);
        assert_eq!(a.entry.ax, b.entry.ax, "{}", t.name);
        assert_eq!(a.entry.visited_states, b.entry.visited_states, "{}", t.name);
    }
}

#[test]
fn disk_cache_survives_process_restart_simulation() {
    let dir = temp_dir("disk");
    let cold_entries = {
        let service = disk_service(&dir);
        service.check_corpus()
    };
    // A brand-new store (fresh memory) over the same directory: every
    // lookup must come off disk, with identical verdicts. (The
    // zero-semantics-probes claim for warm runs lives in
    // `tests/warm_probes.rs` — the probe counter is process-global, so
    // it can only be asserted in a binary with a single test.)
    let service = disk_service(&dir);
    let warm_entries = service.check_corpus();
    let stats = service.stats();
    assert_eq!(stats.disk_hits as usize, warm_entries.len(), "{stats:?}");
    for ((n1, r1), (_, r2)) in cold_entries.iter().zip(&warm_entries) {
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "disk drift on {n1}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every poisoning mode must recompute — correct verdicts, never trust.
#[test]
fn poisoned_disk_entries_recompute_instead_of_trusting() {
    let src = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";
    // Truncation: chop every persisted file in half.
    {
        let dir = temp_dir("trunc");
        let baseline = {
            let s = disk_service(&dir);
            s.check_source(src).unwrap().entry.op.clone()
        };
        for f in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let bytes = std::fs::read(f.path()).unwrap();
            std::fs::write(f.path(), &bytes[..bytes.len() / 2]).unwrap();
        }
        let s = disk_service(&dir);
        let checked = s.check_source(src).unwrap();
        assert!(!checked.cached, "served a truncated entry");
        assert_eq!(checked.entry.op, baseline);
        assert!(s.stats().disk_errors > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Version flip: rename the entry file so its embedded tag no longer
    // matches the name under which it is found (a stale-semantics file).
    {
        let dir = temp_dir("version");
        let old_config = RunConfig::default();
        let baseline = {
            let s = disk_service(&dir);
            s.check_source(src).unwrap().entry.op.clone()
        };
        // Compute where a *different* version tag would look.
        let mut tight = old_config;
        tight.explore.max_states = old_config.explore.max_states - 1;
        let (old_tag, new_tag) = (version_tag(&old_config), version_tag(&tight));
        assert_ne!(old_tag, new_tag);
        for f in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let name = f.file_name().to_string_lossy().into_owned();
            let renamed = name.replace(&format!("{old_tag:016x}"), &format!("{new_tag:016x}"));
            assert_ne!(name, renamed, "version tag not in file name: {name}");
            std::fs::rename(f.path(), dir.join(renamed)).unwrap();
        }
        // The tight-config service finds files at its key but their
        // embedded version tag disagrees: must recompute.
        let store = ResultStore::new(StoreConfig {
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        })
        .unwrap();
        let s = CheckService::new(Arc::new(store), tight);
        let checked = s.check_source(src).unwrap();
        assert!(!checked.cached, "served an entry across a version flip");
        assert_eq!(checked.entry.op, baseline);
        assert!(s.stats().disk_errors > 0, "{:?}", s.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Format bump: entries whose header names any earlier entry format —
    // 3 among them, the trace tree with a row per node before rows were
    // shared between paths to one machine — are found where this build
    // looks. They must be a miss that recomputes everything, the trace
    // graph included — never an error or a verdict read from the old
    // bytes.
    for old_format in 1..ENTRY_FORMAT_VERSION {
        let dir = temp_dir(&format!("format{old_format}"));
        let (baseline, racy) = {
            let s = disk_service(&dir);
            let checked = s.check_source(src).unwrap();
            let racy = s.check_races(&checked).unwrap().racy();
            assert!(
                checked.entry.trace.get().is_some(),
                "no trace graph persisted"
            );
            (checked.entry.op.clone(), racy)
        };
        for f in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
            let mut bytes = std::fs::read(f.path()).unwrap();
            // Magic, then the little-endian format version.
            assert_eq!(&bytes[..4], b"BDRS");
            assert_eq!(bytes[4..8], ENTRY_FORMAT_VERSION.to_le_bytes());
            bytes[4..8].copy_from_slice(&old_format.to_le_bytes());
            std::fs::write(f.path(), bytes).unwrap();
        }
        let s = disk_service(&dir);
        let checked = s.check_source(src).unwrap();
        assert!(!checked.cached, "served an entry of format {old_format}");
        assert_eq!(checked.entry.op, baseline);
        assert!(
            checked.entry.trace.get().is_none(),
            "loaded a format-{old_format} trace graph"
        );
        assert_eq!(s.check_races(&checked).unwrap().racy(), racy);
        assert!(
            checked.entry.trace.get().is_some(),
            "the trace graph was not re-recorded"
        );
        assert!(s.stats().disk_errors > 0, "{:?}", s.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn forced_fingerprint_collisions_recompute_not_alias() {
    // Mask every fingerprint to 0: all programs collide on one key, both
    // in memory and on disk. Verdicts must still be per-program exact.
    let dir = temp_dir("collide");
    let store = ResultStore::new(StoreConfig {
        disk_dir: Some(dir.clone()),
        fingerprint_mask: 0,
    })
    .unwrap();
    let service = CheckService::new(Arc::new(store), RunConfig::default());
    let reference = in_memory_service();
    for t in bdrst_litmus::all_tests() {
        let collided = service.check_source(t.source).unwrap();
        let fresh = reference.check_source(t.source).unwrap();
        assert_eq!(collided.entry.op, fresh.entry.op, "{}", t.name);
        assert_eq!(collided.entry.ax, fresh.entry.ax, "{}", t.name);
    }
    let stats = service.stats();
    assert!(
        stats.collisions > 0,
        "mask 0 never collided — the test is vacuous: {stats:?}"
    );
    // The *last* checked program owns the single key; re-checking it hits,
    // re-checking any other collides and recomputes (still correct).
    let last = bdrst_litmus::all_tests().last().unwrap().source;
    assert!(service.check_source(last).unwrap().cached);
    let first = bdrst_litmus::all_tests()[0].source;
    let again = service.check_source(first).unwrap();
    assert!(!again.cached);
    assert_eq!(
        again.entry.op,
        reference.check_source(first).unwrap().entry.op
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_failures_are_not_cached_and_surface_distinctly() {
    let mut tight = RunConfig::default();
    tight.explore.max_states = 2;
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), tight);
    let src = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";
    let err = service.check_source(src).unwrap_err();
    assert!(err.is_budget(), "{err:?}");
    assert_eq!(err.kind(), "budget");
    assert_eq!(service.stats().insertions, 0, "a failure was cached");
    // Parse errors classify separately.
    let err = service.check_source("thread P0 {").unwrap_err();
    assert!(matches!(err, RunError::Parse(_)));
    assert_eq!(err.kind(), "parse");
}

#[test]
fn dpor_check_is_bounded_by_max_states_and_keeps_no_graph() {
    // The server's configuration answers a cold `check` with DPOR, whose
    // walk executes 12 extensions on SB (DFS visits 14 canonical states).
    let src = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";
    let (_, stats) = Program::parse(src)
        .unwrap()
        .outcomes_with(EngineConfig::default(), Strategy::Dpor)
        .unwrap();
    let extensions = stats.visited;
    assert_eq!(extensions, 12);
    let service = |max_states| {
        let mut config = default_run_config();
        assert_eq!(config.strategy, Strategy::Dpor);
        config.explore.max_states = max_states;
        CheckService::new(Arc::new(ResultStore::in_memory()), config)
    };
    let fits = service(extensions);
    let checked = fits.check_source(src).unwrap();
    assert!(!checked.cached);
    assert!(checked.entry.graph.is_none(), "a miss kept a state graph");
    assert_eq!(checked.entry.visited_states, extensions as u64);
    assert_eq!(
        checked.entry.op,
        in_memory_service().check_source(src).unwrap().entry.op,
        "DPOR and DFS outcome sets differ"
    );
    // One extension short: the `budget` error, and nothing cached.
    let short = service(extensions - 1);
    let err = short.check_source(src).unwrap_err();
    assert_eq!(err.kind(), "budget");
    assert_eq!(
        err,
        RunError::Operational(EngineError::budget(extensions)),
        "{err:?}"
    );
    assert_eq!(short.stats().insertions, 0, "a failure was cached");
}

#[test]
fn local_drf_checks_run_per_request_with_named_locations() {
    let service = in_memory_service();
    let checked = service
        .check_source(
            "nonatomic a; atomic f;
             thread P0 { a = 1; f = 1; }
             thread P1 { r0 = f; r1 = a; }",
        )
        .unwrap();
    assert!(service.local_drf(&checked, &[]).unwrap());
    assert!(service.local_drf(&checked, &["a".to_string()]).unwrap());
    let err = service
        .local_drf(&checked, &["zz".to_string()])
        .unwrap_err();
    assert!(matches!(err, RunError::Parse(_)), "{err:?}");
}

#[test]
fn infeasible_trace_recordings_are_memoized() {
    // A trace budget the recording cannot fit: the first trace-dependent
    // query proves infeasibility, and later ones must answer from the
    // memo instead of re-running the doomed recording.
    let mut config = RunConfig::default();
    config.explore.max_traces = 4; // SB's trace tree has 14 rows
    let service = CheckService::new(Arc::new(ResultStore::in_memory()), config);
    let checked = service
        .check_source(
            "nonatomic a b;
             thread P0 { a = 1; r0 = b; }
             thread P1 { b = 1; r1 = a; }",
        )
        .unwrap();
    let first = service.trace_graph(&checked).unwrap_err();
    assert!(first.is_budget(), "{first:?}");
    assert!(
        checked.entry.trace_infeasible.get().is_some(),
        "budget failure was not memoized"
    );
    let second = service.trace_graph(&checked).unwrap_err();
    assert_eq!(first, second);
    assert!(checked.entry.trace.get().is_none());
    // Both trace-dependent requests fail with that budget error.
    assert_eq!(service.check_races(&checked).unwrap_err(), first);
    assert_eq!(service.local_drf(&checked, &[]).unwrap_err(), first);
}
