//! `BENCHMARK.json` declares exactly the metrics the benchmark prints.

use bdrst_perfbench::report::{END_TO_END, PER_LAYER};
use bdrst_perfbench::workload::Workload;
use bdrst_service::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_manifest() {
    let json = manifest();
    assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn every_manifest_workload_exists() {
    // `serve-warm` runs but is not gated: see README.md, "Noise".
    let json = manifest();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["explore-cold", "races-cold"]);
    assert!(names.iter().all(|n| Workload::from_name(n).is_some()));
}
