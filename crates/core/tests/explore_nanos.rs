//! A state or DPOR walk that trips its budget still charges its wall time to
//! `ExploreNanos`. Its visited states were already counted, so a walk
//! that charged no time would inflate the states-per-second gauge that
//! `metrics` and `--profile` derive from the two counters.
//!
//! The counters are process-wide, so this binary holds a single test.

use std::path::Path;

use bdrst_core::engine::{Control, EngineConfig, EngineError, StateId, Strategy, WorklistEngine};
use bdrst_core::machine::Machine;
use bdrst_lang::{Program, ThreadState};
use bdrst_obs::{counter_get, Counter};

#[test]
fn tripped_walks_charge_explore_nanos() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/iriw-at.litmus");
    let p = Program::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let tiny = EngineConfig {
        max_states: 20,
        ..EngineConfig::default()
    };
    let assert_charged = |name: &str, walk: &dyn Fn() -> Result<(), EngineError>| {
        let states = counter_get(Counter::ExploreVisits);
        let nanos = counter_get(Counter::ExploreNanos);
        let result = walk();
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "{name}: expected a budget trip, got {result:?}"
        );
        assert!(
            counter_get(Counter::ExploreVisits) > states,
            "{name}: visited no states"
        );
        assert!(
            counter_get(Counter::ExploreNanos) > nanos,
            "{name}: charged no explore time"
        );
    };
    assert_charged("sequential walk", &|| {
        WorklistEngine::new(tiny)
            .explore(
                &p.locs,
                p.initial_machine(),
                &mut |_: &Machine<ThreadState>, _: StateId| Control::Continue,
            )
            .map(drop)
    });
    assert_charged("sequential recorder", &|| {
        WorklistEngine::new(tiny)
            .explore_graph(&p.locs, p.initial_machine())
            .map(drop)
    });
    assert_charged("DPOR walk", &|| {
        p.outcomes_with(tiny, Strategy::Dpor).map(drop)
    });
}
