//! The end-to-end evaluation pipeline: analyze a module once, derive every
//! protection scheme from the same analysis, execute each variant, and
//! aggregate the numbers the paper's figures report.

use pythia_analysis::{InputChannels, SliceContext, VulnerabilityReport};
use pythia_ir::{verify, IcCategory, Module, PythiaError};
use pythia_lint::Certifier;
use pythia_passes::{instrument_with, prune_obligations, InstrumentationStats, Scheme};
use pythia_vm::{DecodedModule, Engine, ExitReason, InputPlan, Profile, RunMetrics, Vm, VmConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
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
    /// obligation pruning (a dry instrumentation run against the unpruned
    /// report). `stats.pa_total()` vs this is the precision win.
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
    /// Backward-slice memo-table hits (warm re-queries of an already
    /// computed `(func, branch, mode)` key) across the whole evaluation.
    ///
    /// Typically small: analysis computes each slice once and the
    /// instrumentation passes and lint gate consume the resulting
    /// report instead of re-slicing — surfacing the counter is what
    /// makes that claim checkable. Deterministic despite the concurrent
    /// scheme workers: the memo counts a miss only when a computation
    /// actually inserts its key (a lost race counts as a hit), so
    /// `misses` = distinct keys regardless of scheduling.
    pub memo_hits: u64,
    /// Backward-slice memo-table misses (distinct slices computed).
    pub memo_misses: u64,
    /// Mean points-to set size under the field-sensitive relation (set
    /// sizes of values with at least one pointee).
    pub avg_points_to: f64,
    /// Abstract objects the field-sensitive solver split out of
    /// struct-typed allocation sites (0 under a field-insensitive run).
    pub field_objects: usize,
    /// Root objects an attacker-driven overflow-capable write may corrupt
    /// (the seed set obligation pruning keeps).
    pub reach_objects: usize,
    /// The overflow-reach analysis hit ⊤ (a store through a statically
    /// unknown pointer) — nothing was prunable.
    pub reach_top: bool,
    /// Variable-index stores the interval analysis proved in-bounds
    /// (each one removes a derived overflow source).
    pub proven_gep_stores: usize,
    /// Obligations dropped by `prune_obligations` across all schemes'
    /// sets (CPA slots + CPA sign values + Pythia heap + DFI objects).
    pub obligations_pruned: usize,
    /// Calling contexts the 1-CFA points-to solver explored (0 when the
    /// solver fell back before cloning anything).
    pub contexts: usize,
    /// The 1-CFA solver abandoned context sensitivity (node budget
    /// exhausted or object remap divergence) and the analysis ran on the
    /// insensitive relation alone.
    pub ctx_fallback: bool,
    /// Pythia heap-section objects whose obligations were pruned (heap
    /// vulnerables provably out of overflow reach).
    pub pythia_heap_pruned: usize,
    /// DFI setdef/chkdef objects whose obligations were pruned.
    pub dfi_pruned: usize,
    /// Reporting label of the context policy that actually ran
    /// (`"insensitive"` whenever the context solve fell back, whatever
    /// `PYTHIA_CTX_POLICY` requested).
    pub policy: &'static str,
    /// Distinct per-function summaries the summary solver gathered (0
    /// for the clone/insensitive engines).
    pub summaries: usize,
    /// Call-edge instantiations served by an already-instantiated
    /// summary instead of a fresh constraint-graph clone.
    pub summary_reuse: usize,
    /// Store instructions dropped by flow-sensitive strong updates.
    pub strong_updates: usize,
}

impl AnalysisSummary {
    /// Memo-table hit rate of the analysis phase, in `[0, 1]`.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
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
    /// `DecodedModule`; under the block engine every block is decoded
    /// here rather than lazily during execution).
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

    /// Fraction of statically-inserted PA instructions that actually
    /// executed at least once (the paper reports ~50 %).
    pub fn dynamic_pa_fraction(&self, scheme: Scheme) -> f64 {
        let Some(r) = self.result(scheme) else {
            return 0.0;
        };
        let static_pa = r.stats.pa_total();
        if static_pa == 0 {
            return 0.0;
        }
        // Dynamic PA executions tell how *often* they ran; to estimate
        // coverage we compare against the loop trip counts implied by the
        // run: a static site that ran contributes >= 1 execution. We use
        // the conservative proxy min(1, dyn/static) per-site aggregated as
        // dyn-sites ≈ static * coverage; with uniform loops this reduces
        // to the ratio of *distinct* sites executed, which the VM does not
        // track per-site — so we report the bounded ratio.
        (r.metrics.pa_insts as f64 / static_pa as f64).min(1.0)
    }
}

/// Whether [`evaluate`] should run its per-scheme workers serially:
/// `PYTHIA_THREADS=1` pins the whole harness to one lane, and on one
/// lane concurrency only distorts per-phase wall-clock attribution.
fn serial_schemes() -> bool {
    std::env::var("PYTHIA_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        == Some(1)
}

/// Instrument `module` with `scheme` from a shared analysis
/// context/report and statically certify the result against `cert` —
/// the same instrument→lint gate [`evaluate`] applies per variant, as a
/// standalone step for scenario drivers (the event-loop server
/// instruments once and then retires ~10⁶ requests per variant, so the
/// full per-run `evaluate` path is the wrong shape for it). Build `cert`
/// once per module from the same `ctx` and pass it to every variant.
///
/// Returns the certified module and the number of protection obligations
/// the lint checked.
///
/// # Errors
///
/// [`PythiaError::Setup`] when the instrumented variant violates a
/// protection invariant (the lint gate).
pub fn instrument_certified(
    module: &Module,
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    cert: &Certifier<'_>,
    scheme: Scheme,
) -> Result<(Module, usize), PythiaError> {
    let inst = instrument_with(module, ctx, report, scheme);
    let lint = cert.check(report, &inst.module, scheme);
    if !lint.is_clean() {
        return Err(lint.into_setup_error());
    }
    Ok((inst.module, lint.checks))
}

/// Evaluate one module under the given schemes (vanilla is always added).
///
/// The module is verified first; each scheme variant is then instrumented
/// from the shared context/report, statically certified by `pythia-lint`
/// against one shared [`Certifier`] (any protection-invariant violation
/// aborts that variant with a setup error before it executes), and
/// executed on its own worker thread
/// (the same benign input plan/seed per variant, so results are
/// deterministic and ordered regardless of scheduling). Workers are
/// panic-isolated: a panicking variant becomes a typed error instead of
/// unwinding into (and poisoning) the caller.
///
/// # Errors
///
/// [`PythiaError::Setup`] for a module that fails verification, an
/// instrumented variant that fails static certification, or a run
/// rejected by the VM; [`PythiaError::Internal`] if a scheme worker
/// panicked.
pub fn evaluate(
    module: &Module,
    schemes: &[Scheme],
    seed: u64,
    cfg: &VmConfig,
) -> Result<BenchEvaluation, PythiaError> {
    let t_analysis = Instant::now();
    verify::verify_module(module)?;
    let ctx = SliceContext::new(module);
    let report = VulnerabilityReport::analyze(&ctx);
    // Precision stage: drop obligations on provably uncorruptible objects.
    // Every variant below instruments (and is linted) from the pruned
    // report; the unpruned one is kept for the before/after accounting.
    let pruned = prune_obligations(&ctx, &report);
    let channels = InputChannels::find(module);
    let analysis_secs = t_analysis.elapsed().as_secs_f64();

    let mut analysis = AnalysisSummary {
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
        ic_histogram: channels.histogram(),
        ic_total: channels.total(),
        stack_vulns: report.num_stack_vulns(),
        heap_vulns: report.heap_vulns.len(),
        insts: module.num_insts(),
        memo_hits: 0,
        memo_misses: 0,
        avg_points_to: ctx.points_to.avg_points_to_size(),
        field_objects: ctx.points_to.num_field_objects(),
        reach_objects: pruned.pruned.reachable_objects,
        reach_top: pruned.pruned.reach_top,
        proven_gep_stores: pruned.pruned.proven_gep_stores,
        obligations_pruned: pruned.pruned.total(),
        contexts: pruned.pruned.contexts,
        ctx_fallback: pruned.pruned.ctx_fallback,
        pythia_heap_pruned: pruned.pruned.pythia_heap_objects,
        dfi_pruned: pruned.pruned.dfi_objects,
        policy: pruned.pruned.policy,
        summaries: pruned.pruned.summaries,
        summary_reuse: pruned.pruned.summary_reuse,
        strong_updates: pruned.pruned.strong_updates,
    };

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
    let certifier = (all.len() > 1).then(|| Certifier::new(module, &ctx));
    let cert_secs = t_cert.elapsed().as_secs_f64();

    // Instrument + execute every variant concurrently; the analysis
    // context and report are shared read-only. Joining in spawn order
    // keeps `results` deterministic. Each worker body runs under
    // `catch_unwind` so one panicking variant cannot poison the others:
    // the join below always succeeds and the panic payload is converted
    // into a typed error.
    let worker = |scheme: Scheme| -> Result<(SchemeResult, [f64; 4]), PythiaError> {
        {
            let ctx = &ctx;
            let report = &report;
            let pruned = &pruned;
            let certifier = certifier.as_ref();
            {
                    let t_inst = Instant::now();
                    // Dry run against the unpruned report: its stats are the
                    // "pa_static before" column of the precision tables.
                    let unpruned_pa = instrument_with(module, ctx, report, scheme)
                        .stats
                        .pa_total();
                    let inst = instrument_with(module, ctx, pruned, scheme);
                    let instrument_secs = t_inst.elapsed().as_secs_f64();
                    // Static certification gate: the instrumented variant
                    // must satisfy every protection invariant before it is
                    // allowed anywhere near the VM. A violation is a setup
                    // error, not a measurement. Timed as its own phase —
                    // folding it into instrumentation under-reported where
                    // evaluation time goes.
                    let t_lint = Instant::now();
                    let mut lint_checks = 0;
                    if let Some(cert) = certifier {
                        let lint = cert.check(pruned, &inst.module, scheme);
                        if !lint.is_clean() {
                            return Err(lint.into_setup_error());
                        }
                        lint_checks = lint.checks;
                    }
                    let lint_secs = t_lint.elapsed().as_secs_f64();
                    // Decode phase: lower the instrumented module into the
                    // VM's block-cached form. Under the block engine every
                    // block is force-decoded here so the execute span stays
                    // pure execution; the legacy engine only needs the
                    // frame layouts (decode stays cheap and lazy).
                    let t_decode = Instant::now();
                    let decoded = Arc::new(DecodedModule::new(&inst.module));
                    if cfg.engine == Engine::Block {
                        decoded.decode_all(&inst.module);
                    }
                    let decode_secs = t_decode.elapsed().as_secs_f64();
                    // VM construction (memory image, cache model, shadow
                    // state) is setup, not execution — keeping it outside
                    // the execute span keeps retirement rates comparable
                    // across engines with very different execute times.
                    let mut vm =
                        Vm::with_decoded(&inst.module, decoded, cfg.clone(), InputPlan::benign(seed));
                    let t_exec = Instant::now();
                    let r = vm.run("main", &[])?;
                    let execute_secs = t_exec.elapsed().as_secs_f64();
                    Ok((
                        SchemeResult {
                            scheme,
                            stats: inst.stats,
                            exit: r.exit,
                            metrics: r.metrics,
                            profile: r.profile,
                            lint_checks,
                            pa_static_unpruned: unpruned_pa,
                        },
                        [instrument_secs, lint_secs, decode_secs, execute_secs],
                    ))
            }
        }
    };
    let worker = &worker;

    // On a single-CPU measurement box (`PYTHIA_THREADS=1`) the variants
    // run serially: concurrent variants time-share the core, so every
    // execute span absorbs the other variants' work. That both inflates
    // the phase table and — because the dilution lands proportionally
    // harder on short spans — compresses cross-engine retirement ratios.
    // Workers are deterministic and joined in spawn order, so the
    // results (and any report rendered from them) are identical either
    // way; only the timings change.
    type Joined = Result<(SchemeResult, [f64; 4]), PythiaError>;
    let outcomes: Vec<(Scheme, Joined)> = if serial_schemes() {
        all.into_iter()
            .map(|scheme| {
                let joined = catch_unwind(AssertUnwindSafe(|| worker(scheme)))
                    .unwrap_or_else(|p| Err(PythiaError::from_panic(p.as_ref())));
                (scheme, joined)
            })
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = all
                .into_iter()
                .map(|scheme| {
                    (
                        scheme,
                        s.spawn(move || catch_unwind(AssertUnwindSafe(|| worker(scheme)))),
                    )
                })
                .collect();
            handles
                .into_iter()
                .map(|(scheme, h)| {
                    let joined = match h.join() {
                        Ok(Ok(r)) => r,
                        Ok(Err(p)) => Err(PythiaError::from_panic(p.as_ref())),
                        Err(p) => Err(PythiaError::from_panic(p.as_ref())),
                    };
                    (scheme, joined)
                })
                .collect()
        })
    };
    let mut results = Vec::with_capacity(outcomes.len());
    let mut scheme_spans = Vec::new();
    for (scheme, joined) in outcomes {
        let (r, [instrument, lint, decode, execute]) =
            joined.map_err(|e| e.with_function(format!("{}/{scheme:?}", module.name)))?;
        results.push(r);
        for (phase, secs) in [
            (Phase::Instrument, instrument),
            (Phase::Lint, lint),
            (Phase::Decode, decode),
            (Phase::Execute, execute),
        ] {
            scheme_spans.push(PhaseSpan {
                phase,
                scheme: Some(scheme),
                secs,
            });
        }
    }

    let mut spans = vec![PhaseSpan {
        phase: Phase::Analysis,
        scheme: None,
        secs: analysis_secs,
    }];
    if certifier.is_some() {
        spans.push(PhaseSpan {
            phase: Phase::Lint,
            scheme: None,
            secs: cert_secs,
        });
    }
    spans.append(&mut scheme_spans);

    // Snapshot the memo counters once every consumer is done. The memo
    // counts a miss only when a computation actually inserts its key, so
    // `misses` = distinct slices computed and `hits` = warm re-queries —
    // both independent of worker scheduling, safe to report after the
    // concurrent phase.
    let (memo_hits, memo_misses) = ctx.memo_stats();
    analysis.memo_hits = memo_hits;
    analysis.memo_misses = memo_misses;

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
    fn schemes_preserve_benign_results() {
        // Protection must not change what the program computes.
        let m = generate(profile_by_name("x264").unwrap());
        let ev = evaluate(
            &m,
            &[Scheme::Cpa, Scheme::Pythia, Scheme::Dfi],
            3,
            &VmConfig::default(),
        )
        .unwrap();
        let vanilla = ev.result(Scheme::Vanilla).unwrap().exit;
        for r in &ev.results {
            assert_eq!(
                r.exit, vanilla,
                "{:?} changed the program's benign result",
                r.scheme
            );
        }
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
    fn memo_counters_surface_in_analysis_summary() {
        // Regression for the PR 1 cache claim being unobservable: the
        // slice-memo counters must reach AnalysisSummary. Surfacing them
        // is the point — it makes cache effectiveness *measurable*
        // instead of assumed (downstream consumers read the
        // VulnerabilityReport rather than re-slicing, so a pipeline
        // evaluation legitimately reports few or zero hits; the direct
        // second-identical-slice regression is
        // `backward_slice_is_memoized` in pythia-analysis).
        let m = generate(profile_by_name("lbm").unwrap());
        let ev = evaluate(&m, &[Scheme::Pythia], 1, &VmConfig::default()).unwrap();
        let a = &ev.analysis;
        assert!(a.memo_misses > 0, "analysis must compute at least one slice");
        assert!(a.memo_hit_rate() >= 0.0);
        assert!(a.memo_hit_rate() < 1.0);
        // The counters are schedule-independent: misses count distinct
        // keys (only the inserting computation counts one), so a rerun
        // agrees exactly.
        let again = evaluate(&m, &[Scheme::Pythia], 1, &VmConfig::default()).unwrap();
        assert_eq!(a.memo_hits, again.analysis.memo_hits);
        assert_eq!(a.memo_misses, again.analysis.memo_misses);
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
            cpa.stats.obligations_pruned, a.obligations_pruned,
            "the per-scheme counter and the analysis summary must agree"
        );
        if a.reach_top {
            assert_eq!(a.obligations_pruned, 0, "⊤ reach must prune nothing");
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
