//! The §5 reasoning patterns, executed: the three §2 examples verified
//! with the local-DRF machinery (outcome sets, L-stability, Theorem 13).
//!
//! Run with `cargo run --example local_drf_demo`.

use bdrst::core::engine::EngineConfig;
use bdrst::core::localdrf::{check_local_drf, is_l_stable_for_prefix};
use bdrst::core::trace::LocPredicate;
use bdrst::lang::Program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Example 1 (§2.1): a data race on c may not corrupt b = a + 10.
    let ex1 = Program::parse(
        "nonatomic a b c;
         thread P0 { c = a + 10; b = a + 10; }
         thread P1 { c = 1; }",
    )?;
    let outcomes = ex1.outcomes(EngineConfig::default())?;
    assert!(outcomes.all(|o| o.mem_named("b") == Some(10)));
    println!("Example 1: b = a + 10 holds in every outcome (races bounded in space)");

    // §5's rule of thumb: take L = the locations the fragment accesses.
    let l: LocPredicate = [
        ex1.locs.by_name("a").unwrap(),
        ex1.locs.by_name("b").unwrap(),
    ]
    .into_iter()
    .collect();
    // The initial state is L-stable (empty prefix: nothing races yet)…
    assert!(is_l_stable_for_prefix(
        &ex1.locs,
        &[],
        ex1.initial_machine(),
        &l,
        Default::default()
    )?);
    // …so Theorem 13 guarantees L-sequential behaviour:
    let stats = check_local_drf(&ex1.locs, ex1.initial_machine(), &l, Default::default())
        .map_err(|e| format!("{e}"))?;
    println!(
        "Theorem 13 verified for L = {{a, b}} over {} L-sequential prefixes",
        stats.visited
    );

    // Example 3 (§2.2): a *future* race cannot reach back in time.
    let ex3 = Program::parse(
        "nonatomic x g out;
         thread P0 { x = 42; out = x; g = 1; }
         thread P1 { r = g; if (r == 1) { x = 7; } }",
    )?;
    let outcomes = ex3.outcomes(EngineConfig::default())?;
    assert!(outcomes.all(|o| o.mem_named("out") == Some(42)));
    println!("Example 3: the fragment reads 42 despite the future race on x");
    Ok(())
}
