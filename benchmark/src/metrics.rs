//! The metric catalogue (mirrored by `BENCHMARK.json`) and the trace that
//! per-layer metrics are derived from.

use std::collections::BTreeMap;
use std::time::Instant;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics of an untraced run, identical for every workload.
pub const END_TO_END: [MetricDef; 3] = [
    def("setup_s", "s", "lower"),
    def("pass_rel", "yardsticks", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics of a traced run. Times (`_s`) are seconds summed over
/// the traced setup and one traced pass.
pub const PER_LAYER: [MetricDef; 47] = [
    def("workloads.generate_s", "s", "lower"),
    def("ir.verify_s", "s", "lower"),
    def("ir.static_insts", "count", "lower"),
    def("analysis.slice_context_s", "s", "lower"),
    def("analysis.ctx_solve_s", "s", "lower"),
    def("analysis.slicing_s", "s", "lower"),
    def("analysis.channels_s", "s", "lower"),
    def("analysis.points_to_fs_s", "s", "lower"),
    def("analysis.points_to_fi_s", "s", "lower"),
    def("analysis.reach_s", "s", "lower"),
    def("analysis.intervals_s", "s", "lower"),
    def("analysis.contexts", "count", "lower"),
    def("analysis.summaries", "count", "lower"),
    def("analysis.slices", "count", "lower"),
    def("analysis.memo_hit_ratio", "ratio", "higher"),
    def("analysis.redundancy", "ratio", "lower"),
    def("passes.prune_s", "s", "lower"),
    def("passes.instrument_s", "s", "lower"),
    def("passes.instrument_dry_s", "s", "lower"),
    def("passes.dry_run_share", "ratio", "lower"),
    def("passes.obligations_pruned", "count", "higher"),
    def("passes.pa_static", "count", "lower"),
    def("lint.cpa_s", "s", "lower"),
    def("lint.pythia_s", "s", "lower"),
    def("lint.dfi_s", "s", "lower"),
    def("lint.obligations", "count", "higher"),
    def("lint.obligations_per_s", "1/s", "higher"),
    def("vm.decode_s", "s", "lower"),
    def("vm.setup_s", "s", "lower"),
    def("vm.setup_us", "us", "lower"),
    def("vm.run_s", "s", "lower"),
    def("vm.insts", "count", "lower"),
    def("vm.sim_cycles", "count", "lower"),
    def("vm.retire_minst_s", "Minst/s", "higher"),
    def("vm.attack_run_share", "ratio", "lower"),
    def("heap.shared_reuse_ratio", "ratio", "higher"),
    def("scheme.vanilla_s", "s", "lower"),
    def("scheme.cpa_s", "s", "lower"),
    def("scheme.pythia_s", "s", "lower"),
    def("scheme.dfi_s", "s", "lower"),
    def("attacks.launched", "count", "higher"),
    def("attacks.detected", "count", "higher"),
    def("server.slices_per_request", "ratio", "lower"),
    def("server.insts_per_request", "count", "lower"),
    def("server.vm_setup_share", "ratio", "lower"),
    def("trace.overhead_ratio", "ratio", "lower"),
    def("trace.coverage", "ratio", "higher"),
];

/// Named sums recorded around calls into the program.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
    /// Seconds spent inside [`Trace::time`] calls: the part of a traced
    /// pass its timers account for.
    covered: f64,
}

impl Trace {
    /// Run `f`, adding its wall-clock seconds to `key`.
    pub fn time<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_keys(&[key], f)
    }

    /// Run `f`, adding its wall-clock seconds to each of `keys` (a leaf
    /// time and the subtotals it belongs to) but covering them once.
    pub fn time_keys<R>(&mut self, keys: &[&'static str], f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        for k in keys {
            self.add(k, secs);
        }
        self.covered += secs;
        r
    }

    /// Add `v` to `key`. Unlike [`Trace::time`] this does not count as
    /// covered time, so aggregates that overlap leaf timers go here.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_default() += v;
    }

    /// The recorded sum, if anything was recorded under `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Seconds covered by leaf timers.
    pub fn covered(&self) -> f64 {
        self.covered
    }

    /// Add every value of `other` into `self`.
    pub fn merge(&mut self, other: &Trace) {
        for (k, v) in &other.values {
            self.add(k, *v);
        }
    }

    /// The value of per-layer metric `name`, or `None` when this trace did
    /// not exercise the layer it measures.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`]'s formulas (a catalogue bug).
    pub fn layer_metric(&self, name: &str) -> Option<f64> {
        let g = |k: &str| self.get(k);
        let z = |k: &str| self.get(k).unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let lint_s = || {
            [
                "lint.vanilla_s",
                "lint.cpa_s",
                "lint.pythia_s",
                "lint.dfi_s",
            ]
            .iter()
            .map(|k| z(k))
            .sum::<f64>()
        };
        Some(match name {
            "analysis.slices" => g("analysis.memo_misses")?,
            "analysis.memo_hit_ratio" => {
                let hits = g("analysis.memo_hits")?;
                ratio(hits, hits + z("analysis.memo_misses"))
            }
            "analysis.redundancy" => ratio(g("analysis.runs")?, z("analysis.modules")),
            "passes.dry_run_share" => {
                let dry = g("passes.instrument_dry_s")?;
                ratio(dry, dry + z("passes.instrument_s"))
            }
            "lint.obligations" => {
                g("lint.cpa_s")?;
                z("lint.obligations")
            }
            "lint.obligations_per_s" => {
                g("lint.cpa_s")?;
                ratio(z("lint.obligations"), lint_s())
            }
            "vm.setup_us" => ratio(g("vm.setup_s")?, z("vm.constructions")) * 1e6,
            "vm.insts" | "vm.sim_cycles" => {
                g("vm.run_s")?;
                z(name)
            }
            "vm.retire_minst_s" => ratio(z("vm.insts"), g("vm.run_s")?) / 1e6,
            "vm.attack_run_share" => ratio(z("vm.attack_run_s"), g("vm.run_s")?),
            "heap.shared_reuse_ratio" => ratio(z("heap.fastbin_hits"), z("heap.shared_allocs")),
            "attacks.launched" | "attacks.detected" => z(name),
            "server.slices_per_request" => ratio(z("server.slices"), z("server.retired")),
            "server.insts_per_request" => ratio(z("server.insts"), z("server.retired")),
            "server.vm_setup_share" => {
                // An estimate: every slice constructs one VM, at the mean
                // cost the construction probe measured.
                let setup_secs = ratio(z("vm.setup_s"), z("vm.constructions"));
                ratio(z("server.slices") * setup_secs, z("server.loop_s"))
            }
            "workloads.generate_s"
            | "ir.verify_s"
            | "ir.static_insts"
            | "analysis.slice_context_s"
            | "analysis.ctx_solve_s"
            | "analysis.slicing_s"
            | "analysis.channels_s"
            | "analysis.points_to_fs_s"
            | "analysis.points_to_fi_s"
            | "analysis.reach_s"
            | "analysis.intervals_s"
            | "analysis.contexts"
            | "analysis.summaries"
            | "passes.prune_s"
            | "passes.instrument_s"
            | "passes.instrument_dry_s"
            | "passes.obligations_pruned"
            | "passes.pa_static"
            | "lint.cpa_s"
            | "lint.pythia_s"
            | "lint.dfi_s"
            | "vm.decode_s"
            | "vm.setup_s"
            | "vm.run_s"
            | "scheme.vanilla_s"
            | "scheme.cpa_s"
            | "scheme.pythia_s"
            | "scheme.dfi_s"
            | "trace.overhead_ratio"
            | "trace.coverage" => g(name)?,
            other => panic!("per-layer metric `{other}` has no formula"),
        })
    }
}
