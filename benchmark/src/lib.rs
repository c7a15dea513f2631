//! A single-lane benchmark of the Pythia reproduction, timed from outside
//! its public API. See `benchmark/README.md` for the workloads, the metric
//! glossary and how to run it.

pub mod json;
pub mod metrics;
pub mod program;
pub mod stats;
pub mod workloads;
pub mod yardstick;

use workloads::Outcome;

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics` (each metric as `{"value": v, "unit": u}`).
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.def.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json::quote(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
