//! `BENCHMARK.json` names exactly the metrics the benchmark prints, with
//! the same units, and keeps within the limits its format allows.

mod common;

use gmsbench::layers::{self, TracedRun};
use gmsbench::probe::Probe;
use gmsbench::run::{summarize, Summary};
use gmsbench::workload::{Bench, Workload};

fn listed(section: &str) -> Vec<(String, String)> {
    common::metrics(section).into_iter().map(|(name, unit, _)| (name, unit)).collect()
}

fn printed(metrics: Vec<gmsbench::report::Metric>) -> Vec<(String, String)> {
    metrics.into_iter().map(|m| (m.name, m.unit.to_string())).collect()
}

#[test]
fn end_to_end_metrics_match() {
    let listed = listed("end_to_end");
    assert_eq!(printed(Summary::default().end_to_end(1.0, 1.0)), listed);
    let bounds: Vec<f64> = common::metrics("end_to_end").into_iter().filter_map(|m| m.2).collect();
    assert_eq!(bounds.len(), listed.len(), "every end-to-end metric has a bound");
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
}

#[test]
fn per_layer_metrics_match_a_traced_round() {
    let (bench, times) = Bench::setup(Workload::WarpSmallTraced, 1, true).expect("set-up");
    let mut probe = Probe::new(bench.managers.len());
    let before = layers::read(&bench);
    let rounds = vec![bench.round(0, Some(&mut probe)).expect("output check passes")];
    let after = layers::read(&bench);
    let metrics = TracedRun {
        bench: &bench,
        setup: &times,
        probe: &probe,
        rounds: &rounds,
        before: &before,
        after: &after,
        untraced_round_ms: summarize(&rounds).round_ms_p50,
    }
    .metrics();
    let listed = listed("per_layer");
    assert!(listed.len() <= 128);
    assert_eq!(printed(metrics), listed);
}

#[test]
fn workloads_match() {
    let text = common::benchmark_json();
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())), "{} listed", w.name());
    }
}
