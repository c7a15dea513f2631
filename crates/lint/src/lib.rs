//! **pythia-lint** — static certification that an instrumented module
//! actually upholds the protection invariants its scheme promises.
//!
//! The instrumentation passes (`pythia-passes`) *intend* to enforce the
//! paper's Algorithms 2–4; this crate independently *checks* that they
//! did, by re-deriving each scheme's obligations from the original
//! module's analysis facts and verifying them against the instrumented
//! module with the generic dataflow solver from `pythia-analysis`.
//! A clean lint report is a machine-checked proof sketch that the
//! instrumented binary cannot silently lack a protection the evaluation
//! claims it has — exactly the gap a buggy pass (or a bad merge) would
//! otherwise open between the paper's numbers and the artifact.
//!
//! # Rules
//!
//! | Code   | Scheme | Invariant |
//! |--------|--------|-----------|
//! | CPA-01 | CPA    | every store of a vulnerable slot writes a `pacsign(Da)` value, and every writing input channel into signed slots is followed by a re-sign (Alg. 2 / §6.2) |
//! | CPA-02 | CPA    | every load of a vulnerable slot is authenticated before any use escapes |
//! | PY-01  | Pythia | canary authentication post-dominates each channel use (and, for interprocedural channels, every return) (Alg. 3) |
//! | PY-02  | Pythia | each same-function input channel is immediately preceded by canary re-randomization (§4.4) |
//! | PY-03  | Pythia | each vulnerable stack buffer sits at the overflow-exposed frame end, immediately followed by its canary slot (Alg. 3's re-layout) |
//! | DFI-01 | DFI    | the runtime `chkdef` set of every protected load equals the static reaching-store set (Castro et al.) |
//! | OPT-01 | all    | every obligation the precision stage pruned is provably dispensable: its object is overflow-unreachable and shares no access with a retained obligation |
//! | OPT-02 | all    | on budget-small modules, the summary-composed context-sensitive points-to equals a direct per-context reference solve (same strong-update kill set, independent solving strategy) |
//!
//! PY-01/PY-02 are *must* dataflow problems (intersection meet) solved
//! with [`pythia_analysis::solve`]; DFI-01 additionally cross-checks the
//! emitted sets against the flow-sensitive [`ReachingStores`] analysis.
//! OPT-01 compares each variant against the analysis's *unpruned*
//! obligation sets and re-derives the [`OverflowReach`] fixpoint itself —
//! independently of `prune_obligations` — so a pruner bug surfaces as a
//! diagnostic rather than a silent protection hole.
//!
//! That baseline (and OPT-02's verdict) depends on the module, not on the
//! scheme, so a [`Certifier`] holds it once per module and checks every
//! instrumented variant against it. [`VariantBuilder`] is the one place
//! that analyzes a module, prunes its obligations, instruments its
//! variants and hands out their certifier.

use pythia_analysis::{
    opt02_equivalence, solve, CtxPolicy, DataflowAnalysis, DefUse, Direction, IcSite,
    MemObjectKind, ObjId, OverflowReach, PrunedObligations, ReachingStores, SliceContext,
    SliceMode, SolveResult, VulnerabilityReport,
};
use pythia_ir::{
    dfi_def_id, BlockId, Callee, FuncId, Function, Inst, Module, PaKey, Placement, PythiaError, Ty,
    ValueId,
};
use pythia_passes::common::{collect_accesses, stable_signable};
use pythia_passes::{instrument_with, prune_obligations, Instrumented, ObligationPlan, Scheme};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Stable diagnostic codes, one per certified invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleCode {
    /// Unsigned vulnerable store under CPA.
    Cpa01,
    /// Unauthenticated input-channel load under CPA.
    Cpa02,
    /// Canary check does not post-dominate a vulnerable frame's returns.
    Py01,
    /// Input channel not preceded by canary re-randomization.
    Py02,
    /// Vulnerable stack buffer not at the overflow-exposed frame end.
    Py03,
    /// Runtime check-set disagrees with the static reaching-store set.
    Dfi01,
    /// A pruned obligation is still required (overflow-reachable object,
    /// or coupled to a retained obligation through a shared access).
    Opt01,
    /// The summary-composed points-to solve disagrees with a direct
    /// per-context reference solve on a budget-small module.
    Opt02,
}

impl RuleCode {
    /// All rules, in report order.
    pub const ALL: [RuleCode; 8] = [
        RuleCode::Cpa01,
        RuleCode::Cpa02,
        RuleCode::Py01,
        RuleCode::Py02,
        RuleCode::Py03,
        RuleCode::Dfi01,
        RuleCode::Opt01,
        RuleCode::Opt02,
    ];

    /// The stable textual code (`"CPA-01"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::Cpa01 => "CPA-01",
            RuleCode::Cpa02 => "CPA-02",
            RuleCode::Py01 => "PY-01",
            RuleCode::Py02 => "PY-02",
            RuleCode::Py03 => "PY-03",
            RuleCode::Dfi01 => "DFI-01",
            RuleCode::Opt01 => "OPT-01",
            RuleCode::Opt02 => "OPT-02",
        }
    }

    /// One-line description of the invariant the rule certifies.
    pub fn summary(self) -> &'static str {
        match self {
            RuleCode::Cpa01 => "unsigned vulnerable store",
            RuleCode::Cpa02 => "unauthenticated input-channel load",
            RuleCode::Py01 => "canary check does not post-dominate",
            RuleCode::Py02 => "input channel without re-randomization",
            RuleCode::Py03 => "vulnerable buffer not at frame end",
            RuleCode::Dfi01 => "check-set / reaching-store mismatch",
            RuleCode::Opt01 => "pruned obligation is still required",
            RuleCode::Opt02 => "summary composition disagrees with the reference solve",
        }
    }

    /// Which scheme the rule applies to; `None` for scheme-independent
    /// rules that can fire under any instrumented scheme.
    pub fn scheme(self) -> Option<Scheme> {
        match self {
            RuleCode::Cpa01 | RuleCode::Cpa02 => Some(Scheme::Cpa),
            RuleCode::Py01 | RuleCode::Py02 | RuleCode::Py03 => Some(Scheme::Pythia),
            RuleCode::Dfi01 => Some(Scheme::Dfi),
            RuleCode::Opt01 | RuleCode::Opt02 => None,
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is. Every current rule is a hard soundness
/// violation, so everything is an error; the variant exists so future
/// advisory rules don't need a format change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The protection invariant is violated.
    Error,
    /// Advisory only.
    Warning,
}

impl Severity {
    /// Lower-case name as rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violated obligation, with enough context to jump to the site.
/// The location fields mirror [`pythia_ir::ErrorContext`] so a diagnostic
/// converts losslessly into a typed [`PythiaError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code.
    pub code: RuleCode,
    /// Severity (always `Error` for the shipped rules).
    pub severity: Severity,
    /// Function the obligation belongs to.
    pub function: String,
    /// Block of the anchoring instruction, when placed.
    pub block: Option<BlockId>,
    /// The instruction the obligation anchors to.
    pub instruction: Option<ValueId>,
    /// Human-readable account of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.function)?;
        if let Some(bb) = self.block {
            write!(f, "/{bb}")?;
        }
        if let Some(iv) = self.instruction {
            write!(f, "/{iv}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of linting one instrumented variant.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Scheme the module was instrumented with.
    pub scheme: Scheme,
    /// Module name.
    pub module: String,
    /// Number of obligations examined (clean or not).
    pub checks: usize,
    /// Violated obligations, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} [{}]: {} obligation(s) checked, {} violation(s)\n",
            self.module,
            self.scheme.name(),
            self.checks,
            self.diagnostics.len()
        );
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Machine-readable JSON (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"module\": {}, \"scheme\": \"{}\", \"checks\": {}, \"clean\": {}, \"diagnostics\": [",
            json_str(&self.module),
            self.scheme.name(),
            self.checks,
            self.is_clean()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"code\": \"{}\", \"severity\": \"{}\", \"function\": {}, \"block\": {}, \"instruction\": {}, \"message\": {}}}",
                d.code,
                d.severity,
                json_str(&d.function),
                d.block.map_or("null".to_owned(), |b| b.0.to_string()),
                d.instruction.map_or("null".to_owned(), |v| v.0.to_string()),
                json_str(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Convert a failed report into the `Setup`-class error the pipeline
    /// raises: the run was misconfigured at birth (the instrumented
    /// artifact does not implement its scheme), not a detection and not a
    /// harness bug. The first diagnostic supplies the error context.
    pub fn into_setup_error(self) -> PythiaError {
        let n = self.diagnostics.len();
        let Some(first) = self.diagnostics.into_iter().next() else {
            return PythiaError::setup(format!(
                "lint of `{}` under {} failed with no diagnostics",
                self.module,
                self.scheme.name()
            ));
        };
        let mut err = PythiaError::setup(format!(
            "instrumentation failed static certification under {} ({} violation(s); first: [{}] {})",
            self.scheme.name(),
            n,
            first.code,
            first.message
        ))
        .with_function(first.function);
        if let Some(iv) = first.instruction {
            err = err.with_instruction(iv.0);
        }
        err
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// OPT-02 context-plan node cap: modules whose summary plan (Σ contexts ×
/// function values) exceeds this skip the differential reference solve.
/// All 17 suite benchmarks fit under it at both the standard and the ref
/// tier, so every suite module gets a verdict and pays the flat
/// per-context fixpoint, once per [`Certifier`]. Lowering the cap would
/// trade that cost for silently dropped OPT-02 coverage.
const OPT02_NODE_CAP: usize = 200_000;

/// The scheme-independent certification baseline of one module, shared
/// by every instrumented variant it checks.
///
/// The baseline is the module's *unpruned* [`VulnerabilityReport`] — the
/// one the analysis already computed, never `prune_obligations` output —
/// plus the OPT-02 verdict and (on first need) the [`OverflowReach`]
/// fixpoint, which the certifier derives itself. Checking each variant's
/// (possibly pruned) report against those unpruned sets and its own
/// reach is what keeps OPT-01 an independent check of the pruner rather
/// than a replay of it. The variants of a module are checked one after
/// another against it; [`VariantBuilder::certifier`] hands out the one a
/// build ships through.
pub struct Certifier<'a> {
    original: &'a Module,
    ctx: &'a SliceContext<'a>,
    /// The unpruned vulnerability report OPT-01 compares each variant's
    /// (possibly pruned) report against.
    baseline: &'a VulnerabilityReport,
    /// The context policy OPT-02 ran under, and its verdict (`None`: the
    /// rule does not apply to this module/policy).
    opt02: (CtxPolicy, Option<bool>),
    /// Computed only when some variant actually dropped an obligation,
    /// so modules that prune nothing never pay for the fixpoint.
    reach: OnceCell<OverflowReach>,
}

impl<'a> Certifier<'a> {
    /// A certifier for `original`, whose analysis context is `ctx` and
    /// whose unpruned report (`VulnerabilityReport::analyze(ctx)`) is
    /// `baseline`.
    ///
    /// # Panics
    ///
    /// If `baseline` went through `prune_obligations` (which always
    /// stamps its provenance, even when it drops nothing): OPT-01 would
    /// compare each pruned variant against the pruned sets and pass
    /// vacuously.
    pub fn new(
        original: &'a Module,
        ctx: &'a SliceContext<'a>,
        baseline: &'a VulnerabilityReport,
    ) -> Self {
        assert!(
            baseline.pruned == PrunedObligations::default(),
            "the certification baseline must be the unpruned report"
        );
        Certifier {
            original,
            ctx,
            baseline,
            opt02: opt02_verdict(original, ctx, None),
            reach: OnceCell::new(),
        }
    }

    /// Meta-test hook: re-derive the OPT-02 verdict with the `kill`-th
    /// strong-update kill dropped from the summary side only, keeping
    /// every other cached fact. Tests use it to prove the rule still
    /// distinguishes the solvers on an already-used certifier.
    #[doc(hidden)]
    pub fn with_opt02_mutation(mut self, kill: usize) -> Self {
        self.opt02 = opt02_verdict(self.original, self.ctx, Some(kill));
        self
    }

    /// Lint one instrumented variant against the analysis facts of the
    /// *original* module (`EditPlan` only appends values, so original
    /// instruction ids remain valid in the instrumented module — the
    /// keystone that lets obligations derived from `ctx`/`report` be
    /// discharged directly against `instrumented`). `report` is the one
    /// the variant was instrumented from, pruned or not.
    pub fn check(
        &self,
        report: &VulnerabilityReport,
        instrumented: &Module,
        scheme: Scheme,
    ) -> LintReport {
        let mut linter = Linter {
            cert: self,
            original: self.original,
            ctx: self.ctx,
            report,
            instrumented,
            homes: HashMap::new(),
            checks: 0,
            diagnostics: Vec::new(),
        };
        match scheme {
            Scheme::Vanilla => {} // nothing is promised, nothing to certify
            Scheme::Cpa => linter.check_cpa(),
            Scheme::Pythia => linter.check_pythia(),
            Scheme::Dfi => linter.check_dfi(),
        }
        if scheme != Scheme::Vanilla {
            linter.check_pruning(scheme);
            linter.check_summary_composition();
        }
        LintReport {
            scheme,
            module: instrumented.name.clone(),
            checks: linter.checks,
            diagnostics: linter.diagnostics,
        }
    }

    /// The certifier's own overflow-reach fixpoint, computed on first
    /// use. It runs its own taint and reach state; only the in-bounds
    /// proof answers come from the context's memo, which the pruner's
    /// fixpoint over the same context already filled.
    pub fn reach(&self) -> &OverflowReach {
        self.reach.get_or_init(|| OverflowReach::compute(self.ctx))
    }
}

/// Lint a single variant, instrumented from `report`, with a fresh
/// [`Certifier`] whose unpruned baseline it analyzes from `ctx`. Callers
/// certifying several variants of one module should go through a
/// [`VariantBuilder`] instead, which analyzes once and shares one
/// certifier.
pub fn lint_instrumented(
    original: &Module,
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    instrumented: &Module,
    scheme: Scheme,
) -> LintReport {
    if scheme == Scheme::Vanilla {
        // Nothing is promised: skip deriving a baseline nothing reads.
        return LintReport {
            scheme,
            module: instrumented.name.clone(),
            checks: 0,
            diagnostics: Vec::new(),
        };
    }
    let baseline = VulnerabilityReport::analyze(ctx);
    Certifier::new(original, ctx, &baseline).check(report, instrumented, scheme)
}

/// The one way to build a protected variant of a module: analyze it once
/// under a context policy, prune its obligations, instrument every scheme
/// from the pruned report, and certify each variant against the
/// [`Certifier`] this build hands out — whose baseline is the unpruned
/// report of the same analysis, so every backward slice is computed once.
///
/// The evaluation pipeline, attack adjudication, the campaign, the server
/// scenario, the report's sweeps, [`lint_module`] and the CLI all build
/// their variants here, so what is measured, attacked, served and
/// certified is the same binary.
pub struct VariantBuilder<'m> {
    module: &'m Module,
    ctx: SliceContext<'m>,
    report: VulnerabilityReport,
    pruned: VulnerabilityReport,
}

impl<'m> VariantBuilder<'m> {
    /// Analyze `module` under `policy` and prune its obligations.
    pub fn new(module: &'m Module, policy: CtxPolicy) -> Self {
        let ctx = SliceContext::with_policy(module, policy);
        let report = VulnerabilityReport::analyze(&ctx);
        let pruned = prune_obligations(&ctx, &report);
        VariantBuilder {
            module,
            ctx,
            report,
            pruned,
        }
    }

    /// The analysis context every variant is derived from.
    pub fn ctx(&self) -> &SliceContext<'m> {
        &self.ctx
    }

    /// The unpruned report: the certifier's baseline and the
    /// before-pruning accounting.
    pub fn report(&self) -> &VulnerabilityReport {
        &self.report
    }

    /// The pruned report every variant is instrumented from.
    pub fn pruned(&self) -> &VulnerabilityReport {
        &self.pruned
    }

    /// The certifier of this build's variants. Build it once and pass it
    /// to [`Self::certify`] for every variant.
    pub fn certifier(&self) -> Certifier<'_> {
        Certifier::new(self.module, &self.ctx, &self.report)
    }

    /// Instrument `scheme`'s variant from the pruned report.
    pub fn instrument(&self, scheme: Scheme) -> Instrumented {
        instrument_with(self.module, &self.ctx, &self.pruned, scheme)
    }

    /// The static PA count of `scheme`'s variant had nothing been pruned
    /// (the "pa_static before" column): the PA counter of the unpruned
    /// report's [`ObligationPlan`]. No module is built. Vanilla and DFI
    /// add no PA instruction by construction, so they derive nothing.
    pub fn unpruned_pa(&self, scheme: Scheme) -> usize {
        match scheme {
            Scheme::Vanilla | Scheme::Dfi => 0,
            Scheme::Cpa | Scheme::Pythia => ObligationPlan::derive(&self.ctx, &self.report, scheme)
                .stats()
                .pa_total(),
        }
    }

    /// Certify a variant [`Self::instrument`] produced against `cert`
    /// (from [`Self::certifier`]), returning the number of protection
    /// obligations checked.
    ///
    /// # Errors
    ///
    /// [`PythiaError::Setup`] when the variant violates a protection
    /// invariant.
    pub fn certify(
        &self,
        cert: &Certifier<'_>,
        variant: &Instrumented,
    ) -> Result<usize, PythiaError> {
        debug_assert!(std::ptr::eq(cert.ctx, &self.ctx), "a foreign certifier");
        let lint = cert.check(&self.pruned, &variant.module, variant.scheme);
        if !lint.is_clean() {
            return Err(lint.into_setup_error());
        }
        Ok(lint.checks)
    }
}

/// Lint every requested scheme's variant of `m` as the evaluation builds
/// it ([`VariantBuilder`] under the default context policy) — so
/// certification covers exactly the builds the evaluation ships,
/// including the OPT-01 re-derivation of the pruning decisions.
/// Convenience entry for the CLI and tests.
pub fn lint_module(m: &Module, schemes: &[Scheme]) -> Vec<LintReport> {
    let build = VariantBuilder::new(m, CtxPolicy::default());
    let cert = build.certifier();
    schemes
        .iter()
        .map(|&s| cert.check(&build.pruned, &build.instrument(s).module, s))
        .collect()
}

/// OPT-02's differential solve under the context policy `ctx` was built
/// with.
fn opt02_verdict(
    original: &Module,
    ctx: &SliceContext<'_>,
    mutation: Option<usize>,
) -> (CtxPolicy, Option<bool>) {
    let policy = ctx.ctx_policy();
    let cap = OPT02_NODE_CAP;
    (
        policy,
        opt02_equivalence(original, &ctx.points_to, policy, cap, mutation),
    )
}

struct Linter<'a> {
    cert: &'a Certifier<'a>,
    original: &'a Module,
    ctx: &'a SliceContext<'a>,
    report: &'a VulnerabilityReport,
    instrumented: &'a Module,
    /// Value → block index of each instrumented function, built on first
    /// lookup.
    homes: HashMap<FuncId, Placement>,
    checks: usize,
    diagnostics: Vec<Diagnostic>,
}

impl<'a> Linter<'a> {
    fn diag(&mut self, code: RuleCode, fid: FuncId, iv: Option<ValueId>, message: String) {
        let block = iv.and_then(|v| self.home(fid, v));
        self.diagnostics.push(Diagnostic {
            code,
            severity: Severity::Error,
            function: self.instrumented.func(fid).name.clone(),
            block,
            instruction: iv,
            message,
        });
    }

    /// The block of the instrumented function `fid` that holds `v`.
    fn home(&mut self, fid: FuncId, v: ValueId) -> Option<BlockId> {
        let f = self.instrumented.func(fid);
        self.homes
            .entry(fid)
            .or_insert_with(|| f.placement())
            .block_of(v)
    }

    // -----------------------------------------------------------------
    // CPA (Algorithm 2): sign at every vulnerable store, authenticate at
    // every vulnerable load, re-sign after writing input channels.
    // -----------------------------------------------------------------

    fn check_cpa(&mut self) {
        let signable = stable_signable(self.ctx, &self.report.cpa_slot_objects);
        let plan = collect_accesses(self.ctx, &signable);
        let mut defuse: HashMap<FuncId, DefUse> = HashMap::new();

        // CPA-01: the stored value of every vulnerable store must be a
        // Da-signed value.
        for &(fid, st, _ptr, _value) in &plan.stores {
            self.checks += 1;
            let f = self.instrumented.func(fid);
            let signed = matches!(
                f.inst(st),
                Some(Inst::Store { value, .. })
                    if matches!(f.inst(*value), Some(Inst::PacSign { key: PaKey::Da, .. }))
            );
            if !signed {
                self.diag(
                    RuleCode::Cpa01,
                    fid,
                    Some(st),
                    format!("store {st} writes a vulnerable slot with an unsigned value"),
                );
            }
        }

        // CPA-01 (channel leg): a writing input channel deposits raw bytes
        // into signed slots; without a trailing re-sign store the next
        // authenticated load of a *legitimate* value would trap.
        for site in &self.ctx.channels.sites {
            if !site.writes_memory() {
                continue;
            }
            let Some(dest) = site.dest_ptr(self.ctx.module) else {
                continue;
            };
            let pts = self.ctx.points_to.points_to(site.func, dest);
            if pts.unknown || pts.objects.is_empty() {
                continue;
            }
            if !pts.objects.iter().all(|o| signable.contains(o)) {
                continue;
            }
            self.checks += 1;
            if !self.resigned_after(site, PaKey::Da) {
                self.diag(
                    RuleCode::Cpa01,
                    site.func,
                    Some(site.call),
                    format!(
                        "input channel `{}` writes signed slot(s) but is not followed by a pacsign(Da) re-sign store",
                        site.intrinsic
                    ),
                );
            }
        }

        // CPA-02: every vulnerable load must feed a Da-authentication, and
        // the raw loaded value must not escape to any other user.
        for &(fid, ld, _ptr) in &plan.loads {
            self.checks += 1;
            let f = self.instrumented.func(fid);
            let du = defuse.entry(fid).or_insert_with(|| DefUse::compute(f));
            let mut authed = false;
            let mut raw: Option<ValueId> = None;
            for &u in du.users(ld) {
                match f.inst(u) {
                    Some(Inst::PacAuth {
                        value,
                        key: PaKey::Da,
                        ..
                    }) if *value == ld => authed = true,
                    _ => {
                        raw.get_or_insert(u);
                    }
                }
            }
            if !authed {
                self.diag(
                    RuleCode::Cpa02,
                    fid,
                    Some(ld),
                    format!("load {ld} of a vulnerable slot is never authenticated (pacauth Da)"),
                );
            } else if let Some(u) = raw {
                self.diag(
                    RuleCode::Cpa02,
                    fid,
                    Some(ld),
                    format!("raw value of vulnerable load {ld} escapes unauthenticated to {u}"),
                );
            }
        }
    }

    /// Is `site.call` followed, within its block, by a store of a
    /// `key`-signed value (the re-sign emitted after writing channels)?
    fn resigned_after(&mut self, site: &IcSite, key: PaKey) -> bool {
        let f = self.instrumented.func(site.func);
        let Some(bb) = self.home(site.func, site.call) else {
            return false;
        };
        let insts = &f.block(bb).insts;
        let Some(pos) = insts.iter().position(|&iv| iv == site.call) else {
            return false;
        };
        insts[pos + 1..].iter().any(|&iv| {
            matches!(
                f.inst(iv),
                Some(Inst::Store { value, .. })
                    if matches!(f.inst(*value), Some(Inst::PacSign { key: k, .. }) if *k == key)
            )
        })
    }

    // -----------------------------------------------------------------
    // Pythia (Algorithm 3): frame re-layout with adjacent canaries,
    // randomize-before / authenticate-after each channel use, and
    // return-time checks for interprocedural channels.
    // -----------------------------------------------------------------

    fn check_pythia(&mut self) {
        for (&fid, vulns) in &self.report.stack_vulns {
            if vulns.is_empty() {
                continue;
            }
            let orig_values = self.original.func(fid).num_values() as u32;
            let f = self.instrumented.func(fid);
            let entry = f.entry();
            let entry_insts = f.block(entry).insts.clone();
            let vuln_set: BTreeSet<ValueId> = vulns.iter().map(|v| v.alloca).collect();

            // PY-03: each vulnerable buffer must be immediately followed by
            // a freshly created one-slot canary alloca...
            let mut canary_of: BTreeMap<ValueId, ValueId> = BTreeMap::new();
            let mut layout_ok = true;
            for &v in &vuln_set {
                self.checks += 1;
                let can = entry_insts
                    .iter()
                    .position(|&iv| iv == v)
                    .and_then(|p| entry_insts.get(p + 1))
                    .copied()
                    .filter(|&c| {
                        c.0 >= orig_values
                            && matches!(
                                f.inst(c),
                                Some(Inst::Alloca {
                                    elem: Ty::I64,
                                    count: 1
                                })
                            )
                    });
                match can {
                    Some(c) => {
                        canary_of.insert(v, c);
                    }
                    None => {
                        if layout_ok {
                            self.diag(
                                RuleCode::Py03,
                                fid,
                                Some(v),
                                format!(
                                    "vulnerable stack buffer {v} is not immediately followed by a fresh canary slot in the entry frame"
                                ),
                            );
                        }
                        layout_ok = false;
                    }
                }
            }
            // ...and no innocent local may sit above the vulnerable group
            // (frame order is entry-block order; overflows write upward).
            if let Some(first) = entry_insts.iter().position(|iv| vuln_set.contains(iv)) {
                self.checks += 1;
                let misplaced = entry_insts[first..].iter().find(|&&iv| {
                    iv.0 < orig_values
                        && !vuln_set.contains(&iv)
                        && matches!(f.inst(iv), Some(Inst::Alloca { .. }))
                });
                if let Some(&iv) = misplaced {
                    if layout_ok {
                        self.diag(
                            RuleCode::Py03,
                            fid,
                            Some(iv),
                            format!(
                                "non-vulnerable local {iv} is laid out above a vulnerable buffer — an overflow can reach it"
                            ),
                        );
                    }
                    layout_ok = false;
                }
            }
            if !layout_ok {
                // Without the buffer→canary map the lifecycle obligations
                // below would only produce cascading noise.
                continue;
            }

            let canaries: BTreeSet<ValueId> = canary_of.values().copied().collect();
            let checked = certified(solve(
                f,
                &CanaryChecked {
                    canaries: &canaries,
                },
            ));
            let fresh = certified(solve(
                f,
                &CanaryFresh {
                    canaries: &canaries,
                },
            ));

            for &v in &vuln_set {
                // Mirror the pass: the first vuln entry for this alloca
                // owns the channel-use list.
                let info = vulns
                    .iter()
                    .find(|s| s.alloca == v)
                    .expect("vuln_set is built from vulns");
                let can = canary_of[&v];
                let mut seen: BTreeSet<ValueId> = BTreeSet::new();
                for site in &info.ic_uses {
                    if site.func != fid || !seen.insert(site.call) {
                        continue;
                    }
                    let Some(bb) = self.home(fid, site.call) else {
                        continue;
                    };
                    // PY-02: the canary must hold a fresh random value on
                    // every path reaching the channel call.
                    self.checks += 1;
                    if !fact_before_call(f, &fresh, &canaries, bb, site.call).contains(&can) {
                        self.diag(
                            RuleCode::Py02,
                            fid,
                            Some(site.call),
                            format!(
                                "input channel `{}` is not preceded by re-randomization of canary {can}",
                                site.intrinsic
                            ),
                        );
                    }
                    // PY-01: an authentication of the canary must
                    // post-dominate the channel call.
                    self.checks += 1;
                    if !fact_after_call(f, &checked, &canaries, bb, site.call).contains(&can) {
                        self.diag(
                            RuleCode::Py01,
                            fid,
                            Some(site.call),
                            format!(
                                "canary {can} is not authenticated on every path from input channel `{}` to function exit",
                                site.intrinsic
                            ),
                        );
                    }
                }
                // PY-01 (interprocedural leg): a channel in a callee can
                // overflow this frame while the call is in flight, so the
                // canary must be checked on every path to every return.
                let interproc = info.ic_uses.iter().any(|s| s.func != fid);
                if interproc {
                    self.checks += 1;
                    if !checked.output(entry).contains(&can) {
                        self.diag(
                            RuleCode::Py01,
                            fid,
                            Some(v),
                            format!(
                                "canary {can} guards an interprocedural channel but its check does not post-dominate the frame's returns"
                            ),
                        );
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // DFI (Castro et al.): every protected store is tagged, every
    // protected load checks exactly the static reaching-writer set.
    // Mirrors `dfi::derive`: all queries run against the field-insensitive
    // relation ([`SliceMode::Dfi`]), whose object ids are the roots the
    // protected set is expressed in.
    // -----------------------------------------------------------------

    fn check_dfi(&mut self) {
        const MODE: SliceMode = SliceMode::Dfi;
        let protected = &self.report.dfi_objects;
        let mut done_stores: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
        let mut done_loads: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
        let mut reaching: HashMap<FuncId, ReachingStores> = HashMap::new();

        for &o in protected.iter() {
            for &(fid, st) in self.ctx.stores_of_in(MODE, o) {
                if !done_stores.insert((fid, st)) {
                    continue;
                }
                let Some(Inst::Store { ptr, .. }) = self.ctx.module.func(fid).inst(st) else {
                    continue;
                };
                let ptr = *ptr;
                self.checks += 1;
                let f = self.instrumented.func(fid);
                let tagged = self.home(fid, st).is_some_and(|bb| {
                    let insts = &f.block(bb).insts;
                    let pos = insts
                        .iter()
                        .position(|&iv| iv == st)
                        .expect("block_of is consistent");
                    insts[pos + 1..].iter().any(|&iv| {
                        matches!(
                            f.inst(iv),
                            Some(Inst::SetDef { ptr: p, def_id })
                                if *p == ptr && *def_id == dfi_def_id(fid, st)
                        )
                    })
                });
                if !tagged {
                    self.diag(
                        RuleCode::Dfi01,
                        fid,
                        Some(st),
                        format!(
                            "store {st} of a protected object is not tagged with setdef({})",
                            dfi_def_id(fid, st)
                        ),
                    );
                }
            }

            for &(fid, ld) in self.ctx.loads_of_in(MODE, o) {
                if !done_loads.insert((fid, ld)) {
                    continue;
                }
                let Some(Inst::Load { ptr }) = self.ctx.module.func(fid).inst(ld) else {
                    continue;
                };
                let ptr = *ptr;
                // The expected allowed-writer set: stores and writing
                // channels of every protected object the pointer may read.
                let pts = self.ctx.relation(MODE).points_to(fid, ptr);
                let mut expected: BTreeSet<u32> = BTreeSet::new();
                for &q in pts.objects.iter().filter(|q| protected.contains(q)) {
                    for &(sf, sv) in self.ctx.stores_of_in(MODE, q) {
                        expected.insert(dfi_def_id(sf, sv));
                    }
                    for site in self.ctx.ics_writing_in(MODE, q) {
                        expected.insert(dfi_def_id(site.func, site.call));
                    }
                }

                self.checks += 1;
                let f = self.instrumented.func(fid);
                let guard = self.home(fid, ld).and_then(|bb| {
                    let insts = &f.block(bb).insts;
                    let pos = insts
                        .iter()
                        .position(|&iv| iv == ld)
                        .expect("block_of is consistent");
                    insts[..pos].iter().rev().find_map(|&iv| match f.inst(iv) {
                        Some(Inst::ChkDef { ptr: p, allowed }) if *p == ptr => {
                            Some((iv, allowed.clone()))
                        }
                        _ => None,
                    })
                });
                let Some((chk, allowed)) = guard else {
                    self.diag(
                        RuleCode::Dfi01,
                        fid,
                        Some(ld),
                        format!("load {ld} of a protected object is not guarded by a chkdef"),
                    );
                    continue;
                };
                let allowed_set: BTreeSet<u32> = allowed.iter().copied().collect();
                if allowed_set != expected {
                    let missing = expected.difference(&allowed_set).count();
                    let extra = allowed_set.difference(&expected).count();
                    self.diag(
                        RuleCode::Dfi01,
                        fid,
                        Some(chk),
                        format!(
                            "chkdef guard of load {ld} disagrees with the static reaching-store set ({missing} legitimate writer(s) missing, {extra} spurious)"
                        ),
                    );
                    continue;
                }

                // Flow-sensitive cross-check: every same-function store
                // that can actually reach this load must be allowed, or a
                // benign run would trip the check (solved with the shared
                // ReachingStores analysis).
                self.checks += 1;
                let rs = reaching.entry(fid).or_insert_with(|| {
                    let mut by_ptr: HashMap<ValueId, Vec<u32>> = HashMap::new();
                    for &q in protected.iter() {
                        for &(sf, sv) in self.ctx.stores_of_in(MODE, q) {
                            if sf != fid {
                                continue;
                            }
                            if let Some(Inst::Store { ptr: sp, .. }) =
                                self.ctx.module.func(sf).inst(sv)
                            {
                                by_ptr.entry(*sp).or_default().push(q);
                            }
                        }
                    }
                    ReachingStores::compute(self.ctx.module.func(fid), move |p| {
                        by_ptr.get(&p).cloned().unwrap_or_default()
                    })
                });
                let Some(bb) = self.ctx.placement(fid).block_of(ld) else {
                    continue;
                };
                let escaped = pts
                    .objects
                    .iter()
                    .filter(|q| protected.contains(q))
                    .find_map(|&q| {
                        rs.reaching(bb, q)
                            .into_iter()
                            .find(|&sv| !allowed_set.contains(&dfi_def_id(fid, sv)))
                            .map(|sv| (q, sv))
                    });
                if let Some((q, sv)) = escaped {
                    self.diag(
                        RuleCode::Dfi01,
                        fid,
                        Some(chk),
                        format!(
                            "store {sv} reaches load {ld} of object {q} but is missing from its chkdef set"
                        ),
                    );
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // OPT-01: re-derive the pruning decisions from scratch. The
    // certifier holds the analysis's unpruned obligation sets and
    // computes the overflow-reach fixpoint itself (it never consults
    // `prune_obligations` or the report's `pruned` counters), once per
    // module. Each variant must then show that every obligation it
    // dropped is (a) overflow-unreachable and (b) uncoupled —
    // sharing no memory access with any retained obligation, because
    // the instrumentation's consistency fixpoints treat access groups
    // atomically. A report that was never pruned has no dropped
    // obligations and passes vacuously.
    // -----------------------------------------------------------------

    fn check_pruning(&mut self, scheme: Scheme) {
        let baseline = self.cert.baseline;
        let (mode, candidates, kept): (SliceMode, BTreeSet<ObjId>, BTreeSet<ObjId>) = match scheme {
            Scheme::Cpa => (
                SliceMode::Pythia,
                baseline.cpa_slot_objects.clone(),
                self.report.cpa_slot_objects.clone(),
            ),
            Scheme::Pythia => {
                // Only the PA-signed heap sectioning is prunable; stack
                // canaries and secure_malloc key off IC destinations.
                let heap: BTreeSet<ObjId> = baseline
                    .pythia_objects
                    .iter()
                    .copied()
                    .filter(|&o| {
                        matches!(self.ctx.points_to.obj_kind(o), MemObjectKind::Heap { .. })
                    })
                    .collect();
                (SliceMode::Pythia, heap, self.report.pythia_objects.clone())
            }
            Scheme::Dfi => (
                SliceMode::Dfi,
                baseline.dfi_objects.clone(),
                self.report.dfi_objects.clone(),
            ),
            Scheme::Vanilla => return,
        };
        // Pythia's non-heap obligations are never legitimately prunable.
        let illegal: Vec<ObjId> = if scheme == Scheme::Pythia {
            baseline
                .pythia_objects
                .iter()
                .filter(|o| !kept.contains(o) && !candidates.contains(o))
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let dropped: Vec<ObjId> = candidates
            .iter()
            .filter(|o| !kept.contains(o))
            .copied()
            .collect();
        let dropped_signs: Vec<(FuncId, ValueId)> = if scheme == Scheme::Cpa {
            baseline
                .cpa_sign_values
                .difference(&self.report.cpa_sign_values)
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        if dropped.is_empty() && dropped_signs.is_empty() && illegal.is_empty() {
            return; // nothing was pruned for this scheme
        }

        for &o in &illegal {
            self.checks += 1;
            self.diag_obj(
                o,
                format!(
                    "non-heap Pythia obligation for object {o} was pruned — only provably uncorruptible heap objects are prunable"
                ),
            );
        }

        let reach = self.cert.reach();
        let pt = self.ctx.relation(mode);
        // Access groups over the *unpruned* candidate set: each memory
        // access maps to every candidate it may touch.
        let mut by_access: HashMap<(FuncId, ValueId), Vec<ObjId>> = HashMap::new();
        for &o in &candidates {
            for &(fid, iv) in self
                .ctx
                .loads_of_in(mode, o)
                .iter()
                .chain(self.ctx.stores_of_in(mode, o).iter())
            {
                by_access.entry((fid, iv)).or_default().push(o);
            }
        }

        for &o in &dropped {
            self.checks += 1;
            if reach.top {
                self.diag_obj(
                    o,
                    format!(
                        "obligation for object {o} was pruned although overflow reach is unbounded — nothing is provably uncorruptible"
                    ),
                );
            } else if reach.is_reachable(pt, o) {
                self.diag_obj(
                    o,
                    format!(
                        "pruned obligation guards object {o}, which an overflow-capable write can still corrupt"
                    ),
                );
            } else if let Some(&q) = by_access
                .values()
                .filter(|g| g.contains(&o))
                .flat_map(|g| g.iter())
                .find(|q| kept.contains(q))
            {
                self.diag_obj(
                    o,
                    format!(
                        "pruned obligation for object {o} shares a memory access with retained object {q} — the access group must be kept atomically"
                    ),
                );
            }
        }

        for (fid, v) in dropped_signs {
            self.checks += 1;
            let dispensable = !reach.top
                && matches!(
                    self.ctx.module.func(fid).inst(v),
                    Some(Inst::Load { ptr })
                        if {
                            let pts = self.ctx.points_to.points_to(fid, *ptr);
                            !pts.unknown
                                && !pts.objects.is_empty()
                                && pts
                                    .objects
                                    .iter()
                                    .all(|&o| !reach.is_reachable(&self.ctx.points_to, o))
                        }
                );
            if !dispensable {
                self.diag(
                    RuleCode::Opt01,
                    fid,
                    Some(v),
                    format!(
                        "sign/auth obligation for {v} was pruned but the value may still carry attacker-controlled data"
                    ),
                );
            }
        }
    }

    /// OPT-02: on budget-small modules, re-solve the context-sensitive
    /// points-to *directly* — one flat round-robin fixpoint over every
    /// (function, context) instance — and demand the summary-composed
    /// worklist solve produced the exact same value and memory relations.
    /// The two solvers share per-instruction semantics and the
    /// strong-update kill set by construction, so a mismatch isolates a
    /// composition bug (a lost callsite binding, a stale summary reuse, a
    /// skipped kill). Modules whose context plan exceeds
    /// [`OPT02_NODE_CAP`] are skipped (`opt02_equivalence` returns
    /// `None`), as are contexts built with the insensitive policy — the
    /// rule is a differential proof harness, not a production solver.
    ///
    /// The verdict is module-level, solved once by the [`Certifier`];
    /// every variant re-states it as one obligation of its own.
    fn check_summary_composition(&mut self) {
        let (policy, verdict) = self.cert.opt02;
        match verdict {
            None => {} // insensitive policy, or module too big for the cap
            Some(true) => self.checks += 1,
            Some(false) => {
                self.checks += 1;
                self.diagnostics.push(Diagnostic {
                    code: RuleCode::Opt02,
                    severity: Severity::Error,
                    function: "<module>".into(),
                    block: None,
                    instruction: None,
                    message: format!(
                        "summary-composed {} points-to differs from the direct per-context reference solve",
                        policy.name()
                    ),
                });
            }
        }
    }

    /// OPT-01 diagnostics anchor to the pruned object's allocation site.
    fn diag_obj(&mut self, o: ObjId, message: String) {
        let pt = &self.ctx.points_to;
        match pt.obj_kind(pt.base_object(o)) {
            MemObjectKind::Stack { func, value } | MemObjectKind::Heap { func, value } => {
                self.diag(RuleCode::Opt01, func, Some(value), message);
            }
            MemObjectKind::Global(_) => {
                self.diagnostics.push(Diagnostic {
                    code: RuleCode::Opt01,
                    severity: Severity::Error,
                    function: "<module>".into(),
                    block: None,
                    instruction: None,
                    message,
                });
            }
            MemObjectKind::Field { .. } => unreachable!("base_object returns a root"),
        }
    }
}

// ---------------------------------------------------------------------
// The two canary lifecycle analyses (must-problems on the new solver).
// ---------------------------------------------------------------------

/// `sol`, or, if it stopped unconverged (only a broken client does), a
/// solution that certifies nothing: a fact cut short could vouch for an
/// unchecked path, so every fact is emptied and each obligation it would
/// have discharged is reported instead.
fn certified(mut sol: SolveResult<BTreeSet<ValueId>>) -> SolveResult<BTreeSet<ValueId>> {
    if !sol.converged {
        for fact in sol.input.iter_mut().chain(&mut sol.output) {
            fact.clear();
        }
    }
    sol
}

/// Backward must-analysis: the set of canaries authenticated on *every*
/// path from a program point to the function's returns. `Unreachable`
/// exits are vacuous (no return is reached), so their boundary is the
/// full set.
struct CanaryChecked<'a> {
    canaries: &'a BTreeSet<ValueId>,
}

impl DataflowAnalysis for CanaryChecked<'_> {
    type Fact = BTreeSet<ValueId>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self, f: &Function, bb: BlockId) -> Self::Fact {
        match f.block(bb).insts.last().and_then(|&iv| f.inst(iv)) {
            Some(Inst::Ret { .. }) => BTreeSet::new(),
            _ => self.canaries.clone(),
        }
    }
    fn top(&self, _f: &Function) -> Self::Fact {
        self.canaries.clone()
    }
    fn height(&self, _f: &Function) -> usize {
        self.canaries.len()
    }
    fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        acc.retain(|c| other.contains(c));
    }
    fn transfer_into(&self, f: &Function, bb: BlockId, fact: &Self::Fact, out: &mut Self::Fact) {
        out.clone_from(fact);
        for &iv in f.block(bb).insts.iter().rev() {
            checked_step(f, self.canaries, iv, out);
        }
    }
}

fn checked_step(
    f: &Function,
    canaries: &BTreeSet<ValueId>,
    iv: ValueId,
    fact: &mut BTreeSet<ValueId>,
) {
    if let Some(Inst::PacAuth {
        key: PaKey::Ga,
        modifier,
        ..
    }) = f.inst(iv)
    {
        if canaries.contains(modifier) {
            fact.insert(*modifier);
        }
    }
}

/// Fact at the point *just after* `call`: walk the block backward from its
/// exit fact, stopping when the call is reached.
fn fact_after_call(
    f: &Function,
    sol: &SolveResult<BTreeSet<ValueId>>,
    canaries: &BTreeSet<ValueId>,
    bb: BlockId,
    call: ValueId,
) -> BTreeSet<ValueId> {
    let mut fact = sol.input(bb).clone();
    for &iv in f.block(bb).insts.iter().rev() {
        if iv == call {
            break;
        }
        checked_step(f, canaries, iv, &mut fact);
    }
    fact
}

/// Forward must-analysis: the set of canaries holding a *fresh* signed
/// random value (a `store pacsign(rnd, Ga, can) -> can` executed with no
/// intervening clobber). Any call that may write memory — a writing
/// library channel or an arbitrary callee — conservatively staleness-es
/// every canary, which is exactly why the pass re-randomizes immediately
/// before each channel use.
struct CanaryFresh<'a> {
    canaries: &'a BTreeSet<ValueId>,
}

impl DataflowAnalysis for CanaryFresh<'_> {
    type Fact = BTreeSet<ValueId>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, _f: &Function, _bb: BlockId) -> Self::Fact {
        BTreeSet::new()
    }
    fn top(&self, _f: &Function) -> Self::Fact {
        self.canaries.clone()
    }
    fn height(&self, _f: &Function) -> usize {
        self.canaries.len()
    }
    fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        acc.retain(|c| other.contains(c));
    }
    fn transfer_into(&self, f: &Function, bb: BlockId, fact: &Self::Fact, out: &mut Self::Fact) {
        out.clone_from(fact);
        for &iv in &f.block(bb).insts {
            fresh_step(f, self.canaries, iv, out);
        }
    }
}

fn fresh_step(
    f: &Function,
    canaries: &BTreeSet<ValueId>,
    iv: ValueId,
    fact: &mut BTreeSet<ValueId>,
) {
    match f.inst(iv) {
        Some(Inst::Store { ptr, value }) if canaries.contains(ptr) => {
            let signed = matches!(
                f.inst(*value),
                Some(Inst::PacSign {
                    key: PaKey::Ga,
                    modifier,
                    ..
                }) if modifier == ptr
            );
            if signed {
                fact.insert(*ptr);
            } else {
                fact.remove(ptr);
            }
        }
        Some(Inst::Call { callee, .. }) => {
            let clobbers = match callee {
                Callee::Intrinsic(i) => i.writes_memory(),
                Callee::Func(_) | Callee::Indirect(_) => true,
            };
            if clobbers {
                fact.clear();
            }
        }
        _ => {}
    }
}

/// Fact at the point *just before* `call`: walk the block forward from its
/// entry fact up to (excluding) the call.
fn fact_before_call(
    f: &Function,
    sol: &SolveResult<BTreeSet<ValueId>>,
    canaries: &BTreeSet<ValueId>,
    bb: BlockId,
    call: ValueId,
) -> BTreeSet<ValueId> {
    let mut fact = sol.input(bb).clone();
    for &iv in &f.block(bb).insts {
        if iv == call {
            break;
        }
        fresh_step(f, canaries, iv, &mut fact);
    }
    fact
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::FunctionBuilder;

    #[test]
    fn an_unconverged_canary_solve_certifies_nothing() {
        let can: BTreeSet<ValueId> = [ValueId(3)].into();
        let solved = |converged| SolveResult {
            input: vec![can.clone(), can.clone()],
            output: vec![can.clone(), BTreeSet::new()],
            converged,
        };
        let cut = certified(solved(false));
        assert!(cut.input.iter().chain(&cut.output).all(BTreeSet::is_empty));
        let kept = certified(solved(true));
        assert_eq!(kept.input, solved(true).input);
        assert_eq!(kept.output, solved(true).output);
    }

    /// The `privilege` exemplar from the passes crate: a stack buffer
    /// written by `gets` guarding a privileged branch — every scheme
    /// instruments it, so every rule family has obligations to discharge.
    fn vulnerable_module() -> Module {
        let mut m = Module::new("lint-demo");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let input = b.alloca(Ty::array(Ty::I8, 8));
        let user = b.alloca(Ty::I64);
        let fmt = b.alloca(Ty::array(Ty::I8, 4));
        b.call_intrinsic(pythia_ir::Intrinsic::Scanf, vec![fmt, user], Ty::I64);
        b.call_intrinsic(pythia_ir::Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
        let lvl = b.load(user);
        let thresh = b.const_i64(1000);
        let is_admin = b.icmp(pythia_ir::CmpPred::Sgt, lvl, thresh);
        let (t, e) = (b.new_block("super"), b.new_block("normal"));
        b.br(is_admin, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        b.ret(Some(one));
        b.switch_to(e);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn all_schemes_lint_clean_on_the_exemplar() {
        let m = vulnerable_module();
        for report in lint_module(&m, &Scheme::ALL) {
            assert!(
                report.is_clean(),
                "{:?} not clean:\n{}",
                report.scheme,
                report.render()
            );
            if report.scheme != Scheme::Vanilla {
                assert!(report.checks > 0, "{:?} checked nothing", report.scheme);
            }
        }
    }

    #[test]
    fn vanilla_is_trivially_clean() {
        let m = vulnerable_module();
        let reports = lint_module(&m, &[Scheme::Vanilla]);
        assert!(reports[0].is_clean());
        assert_eq!(reports[0].checks, 0);
    }

    #[test]
    fn diagnostics_render_with_full_context() {
        let d = Diagnostic {
            code: RuleCode::Cpa01,
            severity: Severity::Error,
            function: "main".into(),
            block: Some(BlockId(2)),
            instruction: Some(ValueId(17)),
            message: "store %17 writes a vulnerable slot with an unsigned value".into(),
        };
        assert_eq!(
            d.to_string(),
            "error[CPA-01] main/bb2/%17: store %17 writes a vulnerable slot with an unsigned value"
        );
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = LintReport {
            scheme: Scheme::Cpa,
            module: "demo \"x\"".into(),
            checks: 3,
            diagnostics: vec![Diagnostic {
                code: RuleCode::Dfi01,
                severity: Severity::Error,
                function: "main".into(),
                block: None,
                instruction: Some(ValueId(4)),
                message: "line1\nline2".into(),
            }],
        };
        let j = report.to_json();
        assert!(j.contains("\"module\": \"demo \\\"x\\\"\""));
        assert!(j.contains("\"code\": \"DFI-01\""));
        assert!(j.contains("\"block\": null"));
        assert!(j.contains("\"instruction\": 4"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn failed_report_becomes_a_setup_error_with_context() {
        let report = LintReport {
            scheme: Scheme::Pythia,
            module: "demo".into(),
            checks: 1,
            diagnostics: vec![Diagnostic {
                code: RuleCode::Py01,
                severity: Severity::Error,
                function: "worker".into(),
                block: Some(BlockId(0)),
                instruction: Some(ValueId(9)),
                message: "canary %8 is not authenticated".into(),
            }],
        };
        let err = report.into_setup_error();
        assert_eq!(err.variant(), "setup");
        assert_eq!(err.context().function.as_deref(), Some("worker"));
        assert_eq!(err.context().instruction, Some(9));
        assert!(err.to_string().contains("PY-01"));
    }

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = RuleCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            codes,
            ["CPA-01", "CPA-02", "PY-01", "PY-02", "PY-03", "DFI-01", "OPT-01", "OPT-02"]
        );
        for c in RuleCode::ALL {
            assert!(!c.summary().is_empty());
            assert_ne!(c.scheme(), Some(Scheme::Vanilla));
        }
        assert_eq!(
            RuleCode::Opt01.scheme(),
            None,
            "OPT-01 is scheme-independent"
        );
    }
}
