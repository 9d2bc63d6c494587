//! The acceptance bar of the result store, asserted the same way the
//! `*_replayed` checker suites prove replays are semantics-free: count
//! transition-semantics probes ([`bdrst_core::machine::semantics_probes`])
//! around the warm pass and demand the counter does not move.
//!
//! The probe counter is process-global, so this file deliberately holds a
//! **single** test — sibling tests in the same binary would race it.

use std::sync::Arc;

use bdrst_core::machine::semantics_probes;
use bdrst_litmus::RunConfig;
use bdrst_service::service::CheckService;
use bdrst_service::store::{ResultStore, StoreConfig};

#[test]
fn warm_runs_perform_zero_transition_semantics_steps() {
    let dir = std::env::temp_dir().join(format!("bdrst-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_store = |dir: &std::path::Path| {
        ResultStore::new(StoreConfig {
            disk_dir: Some(dir.to_path_buf()),
            ..StoreConfig::default()
        })
        .unwrap()
    };

    // Cold pass: populate memory + disk — outcome sets, global-DRF
    // verdicts, trace recordings (via the race and local-DRF queries).
    let service = CheckService::new(Arc::new(disk_store(&dir)), RunConfig::default());
    let cold = service.check_corpus();
    let mut cold_races = Vec::new();
    for t in bdrst_litmus::all_tests() {
        let checked = service.check_source(t.source).unwrap();
        service.global_racefree(&checked).unwrap();
        cold_races.push(service.check_races(&checked).unwrap().racy());
        service.local_drf(&checked, &[]).unwrap();
    }

    // Warm pass over the live store: zero probes.
    let before = semantics_probes();
    let warm = service.check_corpus();
    for (t, racy) in bdrst_litmus::all_tests().iter().zip(&cold_races) {
        let checked = service.check_source(t.source).unwrap();
        assert!(checked.cached, "{} missed the warm cache", t.name);
        service.global_racefree(&checked).unwrap();
        assert_eq!(service.check_races(&checked).unwrap().racy(), *racy);
        service.local_drf(&checked, &[]).unwrap();
    }
    assert_eq!(
        semantics_probes(),
        before,
        "warm in-memory run invoked the transition semantics"
    );

    // Warm pass through a *fresh* store over the same disk directory
    // (process-restart simulation): still zero probes — the trace
    // recordings ride the wire codec back in.
    let restarted = CheckService::new(Arc::new(disk_store(&dir)), RunConfig::default());
    let before = semantics_probes();
    let disk_warm = restarted.check_corpus();
    for (t, racy) in bdrst_litmus::all_tests().iter().zip(&cold_races) {
        let checked = restarted.check_source(t.source).unwrap();
        assert!(checked.cached);
        restarted.global_racefree(&checked).unwrap();
        assert_eq!(restarted.check_races(&checked).unwrap().racy(), *racy);
        restarted.local_drf(&checked, &[]).unwrap();
    }
    assert_eq!(
        semantics_probes(),
        before,
        "disk-warm run invoked the transition semantics"
    );

    // And the warm verdicts are the cold verdicts.
    for pass in [&warm, &disk_warm] {
        assert_eq!(cold.len(), pass.len());
        for ((n1, r1), (_, r2)) in cold.iter().zip(pass.iter()) {
            assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "drift on {n1}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A capped request answers by replay. SB's trace tree has 14 rows and
    // 36 extensions; a budget of 20 records it and replays both checkers
    // to the uncapped verdicts, and the repeat query runs no semantics.
    let sb = "nonatomic a b;
        thread P0 { a = 1; r0 = b; }
        thread P1 { b = 1; r1 = a; }";
    let uncapped = CheckService::new(Arc::new(ResultStore::in_memory()), RunConfig::default());
    let capped = uncapped.fork_tightened(None, Some(20));
    let full = uncapped.check_source(sb).unwrap();
    let races = uncapped.check_races(&full).unwrap();
    let holds = uncapped.local_drf(&full, &[]).unwrap();
    let first = capped.check_source(sb).unwrap();
    let graph = capped.trace_graph(&first).unwrap();
    assert_eq!((graph.rows(), graph.len()), (14, 36));
    let before = semantics_probes();
    let checked = capped.check_source(sb).unwrap();
    assert!(checked.cached, "the capped query missed the cache");
    let report = capped.check_races(&checked).unwrap();
    assert_eq!(report.witnesses, races.witnesses);
    assert_eq!(report.events, races.events);
    assert_eq!(capped.local_drf(&checked, &[]).unwrap(), holds);
    assert_eq!(semantics_probes(), before, "the repeat capped query probed");
}
