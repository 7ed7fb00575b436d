//! `BENCHMARK.json` and the code must name the same workloads and metrics.

use std::path::Path;

use bench_e2e::json::Json;
use bench_e2e::ledger::ledger;
use bench_e2e::measure::END_TO_END;
use bench_e2e::micro::unit_costs;
use bench_e2e::workloads::{Rep, Workload};
use spyker_simnet::Metrics;

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn workloads_match() {
    let listed: Vec<String> = benchmark()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let coded: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, coded);
}

#[test]
fn end_to_end_metrics_match() {
    let b = benchmark();
    let listed = names_and_units(b.get("end_to_end").expect("end_to_end"));
    let coded: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, coded);
    for m in b.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

#[test]
fn per_layer_metrics_match_the_ledger_on_every_workload() {
    let listed = names_and_units(benchmark().get("per_layer").expect("per_layer"));
    let empty = Rep {
        setup_s: 0.0,
        setup_parts: Vec::new(),
        wall_s: 1.0,
        events: 0,
        quality: None,
        time_to_target_s: None,
        rtt_ms: Vec::new(),
        metrics: Metrics::new(),
        problems: Vec::new(),
        spans: Vec::new(),
    };
    let costs = unit_costs(8, 1);
    for w in Workload::ALL {
        let coded: Vec<(String, String)> = ledger(w, &[], &empty, &costs, 0.0)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed, coded, "{}", w.name());
    }
}
