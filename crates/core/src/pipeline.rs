//! The end-to-end evaluation pipeline: analyze a module once, derive every
//! protection scheme from the same analysis, execute each variant, and
//! aggregate the numbers the paper's figures report.

use pythia_analysis::{CtxPolicy, PrunedObligations};
use pythia_ir::{verify, IcCategory, Module, PythiaError};
use pythia_lint::VariantBuilder;
use pythia_passes::{InstrumentationStats, Scheme};
use pythia_vm::{DecodedModule, ExitReason, InputPlan, Profile, RunMetrics, Vm, VmConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Results of running one scheme's variant of a benchmark.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: Scheme,
    /// What the pass did statically.
    pub stats: InstrumentationStats,
    /// How the run ended (benign runs should return normally).
    pub exit: ExitReason,
    /// Dynamic counters.
    pub metrics: RunMetrics,
    /// The VM's execution profile for this variant (opcode/intrinsic
    /// histograms, PA/shadow counters, heap stats — see `pythia-vm`).
    pub profile: Profile,
    /// Protection obligations statically certified by `pythia-lint`
    /// before the variant was allowed to execute (0 for vanilla).
    pub lint_checks: usize,
    /// Static PA instructions the scheme would have emitted *without*
    /// obligation pruning, counted from the scheme's obligation plan
    /// (`VariantBuilder::unpruned_pa`). `stats.pa_total()` vs this is the
    /// precision win.
    pub pa_static_unpruned: usize,
}

/// Static analysis facts about a benchmark (independent of scheme).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSummary {
    /// Conditional branch count.
    pub branches: usize,
    /// Fractions of branches unaffected / directly / indirectly affected
    /// by input channels.
    pub unaffected: f64,
    /// Directly affected fraction.
    pub direct: f64,
    /// Indirectly affected fraction.
    pub indirect: f64,
    /// Branch-security fractions (Fig. 7b).
    pub pythia_secured: f64,
    /// DFI's fraction.
    pub dfi_secured: f64,
    /// Mean attack distances (Def. 2.4): input channel, DFI, Pythia.
    pub ic_distance: f64,
    /// DFI protection distance.
    pub dfi_distance: f64,
    /// Pythia protection distance.
    pub pythia_distance: f64,
    /// Fraction of all values CPA marks vulnerable (Fig. 6a).
    pub cpa_value_fraction: f64,
    /// Fraction of all values Pythia marks vulnerable.
    pub pythia_value_fraction: f64,
    /// Mean fraction of pointer values in backslices (Fig. 7a).
    pub slice_pointer_fraction: f64,
    /// Input-channel category histogram (Fig. 5b).
    pub ic_histogram: BTreeMap<IcCategory, usize>,
    /// Total input channels.
    pub ic_total: usize,
    /// Vulnerable stack variables (canary count under Pythia).
    pub stack_vulns: usize,
    /// Vulnerable heap allocation sites.
    pub heap_vulns: usize,
    /// Static instruction count.
    pub insts: usize,
    /// Backward slices computed across the whole evaluation: one per
    /// branch and slicing mode. The instrumentation passes and the lint
    /// gate consume the resulting report instead of re-slicing, so this
    /// is `2 × branches`.
    pub slices: u64,
    /// Mean points-to set size under the field-sensitive relation (set
    /// sizes of values with at least one pointee).
    pub avg_points_to: f64,
    /// Abstract objects the field-sensitive solver split out of
    /// struct-typed allocation sites (0 under a field-insensitive run).
    pub field_objects: usize,
    /// What obligation pruning removed and the provenance behind it
    /// (overflow reach, proven geps, the context solve that ran).
    pub pruned: PrunedObligations,
}

/// One phase of a benchmark evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Shared static analysis (points-to, slicing, vulnerability report).
    Analysis,
    /// Instrumentation of one scheme variant.
    Instrument,
    /// Static certification of one instrumented variant (`pythia-lint`).
    Lint,
    /// Lowering one variant into the VM's block-cached form (building the
    /// `DecodedModule` with every block decoded here rather than lazily
    /// during execution).
    Decode,
    /// VM execution of one variant.
    Execute,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Analysis,
        Phase::Instrument,
        Phase::Lint,
        Phase::Decode,
        Phase::Execute,
    ];

    /// Stable lower-case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Analysis => "analysis",
            Phase::Instrument => "instrument",
            Phase::Lint => "lint",
            Phase::Decode => "decode",
            Phase::Execute => "execute",
        }
    }
}

/// One timed span of an evaluation: which phase, for which scheme
/// (`None` for work shared by every variant), and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Which pipeline phase.
    pub phase: Phase,
    /// The scheme variant the span belongs to (`None` = shared work: the
    /// analysis, and the lint certifier's scheme-independent baseline).
    pub scheme: Option<Scheme>,
    /// Wall-clock duration.
    pub secs: f64,
}

/// Wall-clock phase spans of one benchmark evaluation. Purely
/// observational: never part of rendered reports, so serial and parallel
/// runs stay byte-identical in report text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timings {
    /// Every timed span: one `Analysis` span, one scheme-less `Lint`
    /// span for the certifier's baseline (absent when only vanilla is
    /// evaluated), then an `Instrument`, `Lint`, `Decode` and `Execute`
    /// span per scheme variant, in scheme order.
    pub spans: Vec<PhaseSpan>,
}

impl Timings {
    /// Total wall-clock of one phase across all schemes.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.secs)
            .sum()
    }

    /// Total wall-clock attributed to one scheme across all phases.
    pub fn scheme_secs(&self, scheme: Scheme) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.scheme == Some(scheme))
            .map(|s| s.secs)
            .sum()
    }

    /// Analysis phase (points-to, slicing, vulnerability report).
    pub fn analysis_secs(&self) -> f64 {
        self.phase_secs(Phase::Analysis)
    }

    /// Instrumentation, summed across all scheme variants.
    pub fn instrument_secs(&self) -> f64 {
        self.phase_secs(Phase::Instrument)
    }

    /// Static certification (`pythia-lint`), summed across all variants.
    pub fn lint_secs(&self) -> f64 {
        self.phase_secs(Phase::Lint)
    }

    /// Block-cache decode (module lowering), summed across all variants.
    pub fn decode_secs(&self) -> f64 {
        self.phase_secs(Phase::Decode)
    }

    /// VM execution, summed across all scheme variants.
    pub fn execute_secs(&self) -> f64 {
        self.phase_secs(Phase::Execute)
    }

    /// Sum of all phases (analysis + instrument + lint + decode +
    /// execute).
    pub fn total_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.secs).sum()
    }
}

/// A fully evaluated benchmark: one entry per requested scheme.
#[derive(Debug, Clone)]
pub struct BenchEvaluation {
    /// Benchmark name.
    pub name: String,
    /// Static analysis facts.
    pub analysis: AnalysisSummary,
    /// Per-scheme results (always includes `Scheme::Vanilla`).
    pub results: Vec<SchemeResult>,
    /// Where the wall-clock time went.
    pub timings: Timings,
}

impl BenchEvaluation {
    /// The result entry for `scheme`.
    pub fn result(&self, scheme: Scheme) -> Option<&SchemeResult> {
        self.results.iter().find(|r| r.scheme == scheme)
    }

    /// Runtime overhead of `scheme` relative to vanilla (`0.13` = +13 %).
    pub fn overhead(&self, scheme: Scheme) -> f64 {
        let (Some(v), Some(s)) = (self.result(Scheme::Vanilla), self.result(scheme)) else {
            return 0.0;
        };
        let base = v.metrics.cycles();
        if base == 0 {
            return 0.0;
        }
        s.metrics.cycles() as f64 / base as f64 - 1.0
    }

    /// IPC degradation of `scheme` relative to vanilla (positive = worse).
    pub fn ipc_degradation(&self, scheme: Scheme) -> f64 {
        let (Some(v), Some(s)) = (self.result(Scheme::Vanilla), self.result(scheme)) else {
            return 0.0;
        };
        let base = v.metrics.ipc();
        if base == 0.0 {
            return 0.0;
        }
        1.0 - s.metrics.ipc() / base
    }

    /// Binary-size growth of `scheme` (static instructions).
    pub fn binary_growth(&self, scheme: Scheme) -> f64 {
        self.result(scheme)
            .map(|r| r.stats.binary_growth())
            .unwrap_or(0.0)
    }

    /// Static PA instruction reduction factor of Pythia over CPA (Fig. 6b).
    pub fn pa_reduction(&self) -> f64 {
        let (Some(c), Some(p)) = (self.result(Scheme::Cpa), self.result(Scheme::Pythia)) else {
            return 1.0;
        };
        let pythia_pa = p.stats.pa_total().max(1);
        c.stats.pa_total() as f64 / pythia_pa as f64
    }

    /// Total protection obligations certified across all scheme variants
    /// (the lint gate runs on every instrumented variant before the VM).
    pub fn lint_checks(&self) -> usize {
        self.results.iter().map(|r| r.lint_checks).sum()
    }
}

/// Every knob a run is configured by. A binary resolves it once from
/// its flags and environment and passes it down; library code never
/// reads the environment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// VM configuration, engine included.
    pub vm: VmConfig,
    /// Context policy every analysis of the run is built with.
    pub ctx_policy: CtxPolicy,
    /// Width of the harness's one worker pool: how many benchmarks a
    /// suite, nginx workers the nginx sweep, or event loops the server
    /// scenario run at once. [`evaluate_with`] itself is always serial.
    pub threads: usize,
}

impl Default for RunConfig {
    /// The block engine, summary-based 2-CFA and one thread.
    fn default() -> Self {
        RunConfig {
            vm: VmConfig::default(),
            ctx_policy: CtxPolicy::default(),
            threads: 1,
        }
    }
}

/// [`evaluate_with`] under `cfg` and the default context policy.
///
/// # Errors
///
/// As [`evaluate_with`].
pub fn evaluate(
    module: &Module,
    schemes: &[Scheme],
    seed: u64,
    cfg: &VmConfig,
) -> Result<BenchEvaluation, PythiaError> {
    let run = RunConfig {
        vm: cfg.clone(),
        ..RunConfig::default()
    };
    evaluate_with(module, schemes, seed, &run)
}

/// Evaluate one module under the given schemes (vanilla is always added).
///
/// The module is verified first and analyzed under `run.ctx_policy`
/// by one [`VariantBuilder`]; each scheme variant is then instrumented
/// from its pruned report, statically certified by `pythia-lint`
/// against the builder's [`Certifier`](pythia_lint::Certifier) (any
/// protection-invariant violation aborts that variant with a setup
/// error before it executes), and executed with the same benign input
/// plan/seed. Variants run serially
/// on the caller's thread (`run.threads` sizes the pool that calls this,
/// not anything inside it), each panic-isolated: a panicking variant
/// becomes a typed error instead of unwinding into the caller.
///
/// # Errors
///
/// [`PythiaError::Setup`] for a module that fails verification, an
/// instrumented variant that fails static certification, or a run
/// rejected by the VM; [`PythiaError::Internal`] if a scheme worker
/// panicked.
pub fn evaluate_with(
    module: &Module,
    schemes: &[Scheme],
    seed: u64,
    run: &RunConfig,
) -> Result<BenchEvaluation, PythiaError> {
    let cfg = &run.vm;
    let t_analysis = Instant::now();
    verify::verify_module(module)?;
    // Every variant below instruments (and is linted) from the pruned
    // report; the unpruned one is kept for the before/after accounting.
    let build = VariantBuilder::new(module, run.ctx_policy);
    let span = |phase, scheme, start: Instant| PhaseSpan {
        phase,
        scheme,
        secs: start.elapsed().as_secs_f64(),
    };
    let mut spans = vec![span(Phase::Analysis, None, t_analysis)];

    let mut all = vec![Scheme::Vanilla];
    for s in schemes {
        if !all.contains(s) {
            all.push(*s);
        }
    }

    // The certification baseline is scheme-independent: derive it once,
    // timed as its own scheme-less lint span so the per-variant lint
    // spans below measure only their own checks. Vanilla promises
    // nothing, so a vanilla-only evaluation certifies nothing.
    let t_cert = Instant::now();
    let certifier = (all.len() > 1).then(|| build.certifier());
    if certifier.is_some() {
        spans.push(span(Phase::Lint, None, t_cert));
    }

    // Instrument, certify and execute one variant from the shared
    // analysis, timing each phase as its own span.
    let mut run_variant = |scheme: Scheme| -> Result<SchemeResult, PythiaError> {
        let t = Instant::now();
        // The "pa_static before" column of the precision tables, counted
        // from the unpruned report's obligation plan.
        let unpruned_pa = build.unpruned_pa(scheme);
        let inst = build.instrument(scheme);
        spans.push(span(Phase::Instrument, Some(scheme), t));
        // Static certification gate: the instrumented variant
        // must satisfy every protection invariant before it is
        // allowed anywhere near the VM. A violation is a setup
        // error, not a measurement. Timed as its own phase —
        // folding it into instrumentation under-reported where
        // evaluation time goes.
        let t = Instant::now();
        let lint_checks = match &certifier {
            Some(cert) => build.certify(cert, &inst)?,
            None => 0,
        };
        spans.push(span(Phase::Lint, Some(scheme), t));
        // Decode phase: lower the instrumented module into the VM's
        // block-cached form, every block up front, so the execute span
        // stays pure execution.
        let t = Instant::now();
        let decoded = DecodedModule::eager(&inst.module);
        spans.push(span(Phase::Decode, Some(scheme), t));
        // VM construction (memory image, cache model, shadow
        // state) is setup, not execution — keeping it outside
        // the execute span keeps retirement rates comparable
        // across engines with very different execute times.
        let mut vm = Vm::with_decoded(&inst.module, decoded, cfg.clone(), InputPlan::benign(seed));
        let t = Instant::now();
        let r = vm.run("main", &[])?;
        spans.push(span(Phase::Execute, Some(scheme), t));
        Ok(SchemeResult {
            scheme,
            stats: inst.stats,
            exit: r.exit,
            metrics: r.metrics,
            profile: r.profile,
            lint_checks,
            pa_static_unpruned: unpruned_pa,
        })
    };

    // Variants run one after another on the caller's thread, each
    // panic-isolated: a panicking variant becomes a typed error instead
    // of unwinding into the caller. Parallelism lives one level up, in
    // the worker pool that runs whole benchmarks, so the phase spans
    // above are never diluted by sibling variants sharing a core.
    let results = all
        .into_iter()
        .map(|scheme| {
            PythiaError::catch_panic(|| run_variant(scheme))
                .map_err(|e| e.with_function(format!("{}/{scheme:?}", module.name)))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // Snapshot the slice counter once every consumer is done.
    let (ctx, report) = (build.ctx(), build.report());
    let analysis = AnalysisSummary {
        branches: report.num_branches(),
        unaffected: report.effect_fraction(pythia_analysis::IcEffect::Unaffected),
        direct: report.effect_fraction(pythia_analysis::IcEffect::Direct),
        indirect: report.effect_fraction(pythia_analysis::IcEffect::Indirect),
        pythia_secured: report.pythia_secured_fraction(),
        dfi_secured: report.dfi_secured_fraction(),
        ic_distance: report.mean_ic_distance(),
        dfi_distance: report.mean_dfi_distance(),
        pythia_distance: report.mean_pythia_distance(),
        cpa_value_fraction: report.cpa_value_fraction(),
        pythia_value_fraction: report.pythia_value_fraction(),
        slice_pointer_fraction: report.mean_slice_pointer_fraction(),
        ic_histogram: ctx.channels.histogram(),
        ic_total: ctx.channels.total(),
        stack_vulns: report.num_stack_vulns(),
        heap_vulns: report.heap_vulns.len(),
        insts: module.num_insts(),
        slices: ctx.slices(),
        avg_points_to: ctx.points_to.avg_points_to_size(),
        field_objects: ctx.points_to.num_field_objects(),
        pruned: build.pruned().pruned,
    };

    Ok(BenchEvaluation {
        name: module.name.clone(),
        analysis,
        results,
        timings: Timings { spans },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::{generate, profile_by_name};

    #[test]
    fn evaluation_runs_all_schemes_cleanly() {
        let m = generate(profile_by_name("lbm").unwrap());
        let ev = evaluate(
            &m,
            &[Scheme::Cpa, Scheme::Pythia, Scheme::Dfi],
            1,
            &VmConfig::default(),
        )
        .unwrap();
        assert_eq!(ev.results.len(), 4);
        for r in &ev.results {
            assert!(
                matches!(r.exit, ExitReason::Returned(_)),
                "{:?} did not complete: {:?}",
                r.scheme,
                r.exit
            );
        }
    }

    #[test]
    fn instrumented_runs_cost_more() {
        let m = generate(profile_by_name("mcf").unwrap());
        let ev = evaluate(&m, &[Scheme::Cpa, Scheme::Pythia], 1, &VmConfig::default()).unwrap();
        assert!(ev.overhead(Scheme::Cpa) > 0.0);
        assert!(ev.overhead(Scheme::Pythia) > 0.0);
        assert!(ev.binary_growth(Scheme::Cpa) > 0.0);
        assert_eq!(ev.overhead(Scheme::Vanilla), 0.0);
    }

    #[test]
    fn lint_gate_certifies_every_instrumented_variant() {
        let m = generate(profile_by_name("lbm").unwrap());
        let ev = evaluate(
            &m,
            &[Scheme::Cpa, Scheme::Pythia, Scheme::Dfi],
            1,
            &VmConfig::default(),
        )
        .unwrap();
        for r in &ev.results {
            if r.scheme == Scheme::Vanilla {
                assert_eq!(r.lint_checks, 0, "vanilla has no protection obligations");
            } else {
                assert!(
                    r.lint_checks > 0,
                    "{:?} ran without any certified obligation",
                    r.scheme
                );
            }
        }
        assert!(ev.lint_checks() > 0);
    }

    #[test]
    fn phase_spans_cover_all_phases() {
        let m = generate(profile_by_name("lbm").unwrap());
        let ev = evaluate(
            &m,
            &[Scheme::Cpa, Scheme::Pythia, Scheme::Dfi],
            1,
            &VmConfig::default(),
        )
        .unwrap();
        // One analysis span, one certifier-baseline lint span, plus
        // instrument/lint/decode/execute per variant.
        assert_eq!(ev.timings.spans.len(), 2 + 4 * ev.results.len());
        let shared: Vec<Phase> = ev
            .timings
            .spans
            .iter()
            .filter(|s| s.scheme.is_none())
            .map(|s| s.phase)
            .collect();
        assert_eq!(shared, [Phase::Analysis, Phase::Lint]);
        for phase in Phase::ALL {
            assert!(
                ev.timings.phase_secs(phase) > 0.0,
                "{phase:?} phase was not timed"
            );
        }
        // total_secs is exactly the sum of the phases: neither the lint
        // gate nor the decode tier is silently dropped from accounting.
        let by_phase: f64 = Phase::ALL.iter().map(|&p| ev.timings.phase_secs(p)).sum();
        assert!((ev.timings.total_secs() - by_phase).abs() < 1e-12);
        for s in &ev.results {
            assert!(ev.timings.scheme_secs(s.scheme) > 0.0);
        }
    }

    #[test]
    fn every_branch_is_sliced_once_per_mode() {
        // The analysis slices each branch once for Pythia and once for
        // DFI; the instrumentation passes and the lint gate read the one
        // VulnerabilityReport instead of re-slicing. A consumer that
        // re-queried a slice would push the count above 2 × branches.
        let mut modules: Vec<Module> = pythia_workloads::generate_all()
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        modules.push(pythia_workloads::nginx_module(20));
        for m in &modules {
            let ev = evaluate(m, &Scheme::ALL, 1, &VmConfig::default()).unwrap();
            let a = &ev.analysis;
            assert_eq!(
                a.slices,
                2 * a.branches as u64,
                "{}: {} slices for {} branches",
                m.name,
                a.slices,
                a.branches
            );
            // The count is schedule-independent: a rerun agrees exactly.
            let again = evaluate(m, &Scheme::ALL, 1, &VmConfig::default()).unwrap();
            assert_eq!(a.slices, again.analysis.slices);
        }
    }

    #[test]
    fn precision_counters_surface_in_results() {
        let m = generate(profile_by_name("lbm").unwrap());
        let ev = evaluate(&m, &[Scheme::Cpa], 1, &VmConfig::default()).unwrap();
        let a = &ev.analysis;
        assert!(a.avg_points_to > 0.0, "the solver must bind some pointers");
        let cpa = ev.result(Scheme::Cpa).unwrap();
        assert!(
            cpa.stats.pa_total() <= cpa.pa_static_unpruned,
            "pruning can only shrink the static PA count ({} vs {})",
            cpa.stats.pa_total(),
            cpa.pa_static_unpruned
        );
        assert_eq!(
            cpa.stats.obligations_pruned,
            a.pruned.total(),
            "the per-scheme counter and the analysis summary must agree"
        );
        if a.pruned.reach_top {
            assert_eq!(a.pruned.total(), 0, "⊤ reach must prune nothing");
        }
    }

    #[test]
    fn unverifiable_module_is_a_setup_error() {
        let mut m = Module::new("bad");
        let b = pythia_ir::FunctionBuilder::new("main", vec![], pythia_ir::Ty::I64);
        m.add_function(b.finish()); // empty entry block fails verification
        let err = evaluate(&m, &[Scheme::Pythia], 1, &VmConfig::default()).unwrap_err();
        assert_eq!(err.variant(), "setup");
        assert!(err.to_string().contains("verif") || err.to_string().contains("block"));
    }

    #[test]
    fn analysis_summary_is_sane() {
        let m = generate(profile_by_name("gcc").unwrap());
        let ev = evaluate(&m, &[], 1, &VmConfig::default()).unwrap();
        // Vanilla-only: no certifier, so no scheme-less lint span.
        assert_eq!(ev.timings.spans.len(), 1 + 4);
        assert_eq!(ev.timings.spans[0].phase, Phase::Analysis);
        let a = &ev.analysis;
        assert!(a.branches > 50);
        let total = a.unaffected + a.direct + a.indirect;
        assert!((total - 1.0).abs() < 1e-9);
        assert!(a.pythia_secured >= a.dfi_secured);
        assert!(a.pythia_distance >= a.dfi_distance);
        assert!(a.cpa_value_fraction >= a.pythia_value_fraction);
        assert!(a.ic_total > 0);
    }
}
