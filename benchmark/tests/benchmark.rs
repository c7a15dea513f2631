//! Tests of the benchmark itself: its statistics, its declared metrics,
//! and that seed 0 measures the modules `reproduce` evaluates.

use pythia_benchmark::json::{self, Json};
use pythia_benchmark::metrics::{MetricDef, Trace, END_TO_END, PER_LAYER};
use pythia_benchmark::program;
use pythia_benchmark::stats::{median, quartiles};
use pythia_benchmark::workloads::{self, Options, Workload};
use pythia_ir::printer::print_module;
use pythia_workloads::{generate, nginx_module, profile_by_name, SizeTier, SPEC_PROFILES};

fn declaration() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String, String)> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn as_triples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
        .collect()
}

#[test]
fn median_and_quartiles_match_python() {
    // statistics.median / statistics.quantiles(n=4) on the same inputs.
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
    let (q1, q3) = quartiles(&[7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 6.0, 4.0, 10.0]);
    assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
}

#[test]
fn declared_metrics_are_the_ones_the_code_reports() {
    let doc = declaration();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    assert_eq!(e2e, as_triples(&END_TO_END));
    assert_eq!(layers, as_triples(&PER_LAYER));
    let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.0.as_str()).collect();
    for n in &names {
        assert!(
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name `{n}`"
        );
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), e2e.len() + layers.len(), "metric names repeat");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_per_layer_metric_has_a_formula() {
    let t = Trace::default();
    for d in PER_LAYER {
        t.layer_metric(d.name); // panics on a metric without a formula
    }
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = workloads::run(
                w,
                &Options {
                    seed: 0,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                },
            );
            assert!(o.correct, "{} trace={trace}: {:?}", w.name(), o.notes);
            assert_eq!(o.failed, 0);
            assert!(o.attempted > 0);
            let got: Vec<&str> = o.metrics.iter().map(|m| m.def.name).collect();
            let want: Vec<&str> = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
            .iter()
            .map(|d| d.name)
            .collect();
            assert_eq!(got, want, "{} trace={trace}", w.name());
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.def.name);
                if m.def.unit == "s" || !trace {
                    assert!(m.value > 0.0, "{} {} is zero", w.name(), m.def.name);
                }
            }
            let line = pythia_benchmark::result_json(&o);
            let doc = json::parse(&line).expect("result line is JSON");
            let keys: Vec<&str> = doc
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn seed_zero_measures_the_modules_reproduce_evaluates() {
    let mut t = Trace::default();
    let suite = program::suite(SizeTier::Standard, 0, &mut t);
    assert_eq!(suite.len(), SPEC_PROFILES.len() + 1);
    for (s, p) in suite.iter().zip(SPEC_PROFILES.iter()) {
        assert_eq!(
            print_module(&s.module),
            print_module(&generate(p)),
            "{}",
            p.name
        );
        assert_eq!(s.seed, p.seed);
    }
    let nginx = suite.last().expect("nginx entry");
    assert_eq!(print_module(&nginx.module), print_module(&nginx_module(60)));
    for s in program::campaign_subjects(SizeTier::Standard, 0, &mut t) {
        let p = profile_by_name(&s.name).expect("campaign profile");
        assert_eq!(
            print_module(&s.module),
            print_module(&generate(p)),
            "{}",
            s.name
        );
    }
    // Any other seed derives new modules.
    let other = program::suite(SizeTier::Standard, 7, &mut t);
    assert_ne!(
        print_module(&other[0].module),
        print_module(&suite[0].module)
    );
}
