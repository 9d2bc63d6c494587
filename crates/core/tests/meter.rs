//! Every walk publishes its own work units to the meter installed on its
//! thread: the meter's total after a walk under `metered` is that walk's
//! unit count — `visited` for the DFS, DPOR, live trace and replay
//! walks, the row count for a recording — and a refused unit of a
//! tripped budget is not counted. A walk started where no meter is
//! installed publishes nothing.

use std::sync::Arc;

use bdrst_core::engine::{
    Control, DporEngine, EngineConfig, StateId, Step, TraceEngine, TraceVisitor, WorklistEngine,
};
use bdrst_core::machine::Machine;
use bdrst_core::trace::TraceLabels;
use bdrst_lang::{Program, ThreadState};
use bdrst_obs::{metered, Meter};

/// Three threads over two nonatomics and an atomic flag: large enough
/// that the DPOR, recording and trace walks publish more than one batch.
const SRC: &str = "nonatomic a; nonatomic b; atomic F; \
    thread P0 { a = 1; F = 1; r0 = b; } \
    thread P1 { b = 1; r1 = F; r2 = a; } \
    thread P2 { a = 2; b = 2; F = 2; }";

struct Walk;

impl TraceVisitor for Walk {
    fn visit(&mut self, _: &TraceLabels, _: Step<'_>) -> Control {
        Control::Continue
    }
}

/// Runs `walk` under a fresh meter and returns (its unit count, the
/// meter's total).
fn under_meter(walk: impl FnOnce() -> usize) -> (usize, u64) {
    let meter = Arc::new(Meter::new());
    let units = metered(&meter, walk);
    (units, meter.units())
}

#[test]
fn each_walk_publishes_its_own_units() {
    let p = Program::parse(SRC).unwrap();
    let config = EngineConfig::default();
    let m0 = || p.initial_machine();

    let dfs = under_meter(|| {
        WorklistEngine::new(config)
            .explore(
                &p.locs,
                m0(),
                &mut |_: &Machine<ThreadState>, _: StateId| Control::Continue,
            )
            .unwrap()
            .visited
    });
    let dpor = under_meter(|| {
        DporEngine::new(config)
            .explore(&p.locs, m0(), &mut Walk)
            .unwrap()
            .visited
    });
    let live = under_meter(|| {
        TraceEngine::new(config)
            .explore(&p.locs, m0(), &mut Walk)
            .unwrap()
            .visited
    });
    let (graph, _) = TraceEngine::new(config).record(&p.locs, m0()).unwrap();
    let record = under_meter(|| {
        let (graph, _) = TraceEngine::new(config).record(&p.locs, m0()).unwrap();
        graph.rows()
    });
    let replay = under_meter(|| graph.replay(config, &mut Walk).unwrap().visited);

    for (name, (units, metered)) in [
        ("dfs", dfs),
        ("dpor", dpor),
        ("live", live),
        ("record", record),
        ("replay", replay),
    ] {
        assert_eq!(metered, units as u64, "{name}");
    }
    assert_eq!(live, replay, "replay shows the live walk's extensions");
    assert!(live.0 > 1024, "one batch only: {}", live.0);
}

#[test]
fn a_tripped_budget_publishes_exactly_its_cap() {
    let p = Program::parse(SRC).unwrap();
    let cap = 1500;
    let config = EngineConfig {
        max_states: cap,
        max_traces: cap,
    };
    let meter = Arc::new(Meter::new());
    metered(&meter, || {
        let err = TraceEngine::new(config)
            .explore(&p.locs, p.initial_machine(), &mut Walk)
            .unwrap_err();
        assert!(err.is_budget(), "{err:?}");
    });
    assert_eq!(meter.units(), cap as u64);
}

#[test]
fn walks_without_an_installed_meter_publish_nothing() {
    let p = Program::parse(SRC).unwrap();
    let meter = Arc::new(Meter::new());
    let walk = || {
        TraceEngine::new(EngineConfig::default())
            .explore(&p.locs, p.initial_machine(), &mut Walk)
            .unwrap()
    };
    // Before and after `metered`, and on another thread during it.
    walk();
    metered(&meter, || {
        std::thread::scope(|s| {
            s.spawn(walk).join().unwrap();
        });
    });
    walk();
    assert_eq!(meter.units(), 0);
}
