//! One function per paper table/figure (see DESIGN.md §4 for the index).
//!
//! Every experiment renders a text section; [`render_all`] stitches them
//! into the report that EXPERIMENTS.md records. Numbers are *measured* — the
//! suite is analyzed, instrumented and executed on the spot.

use crate::pool;
use crate::table::{frac, pct, Table};
use pythia_core::{
    adjudicate, evaluate_with, BenchEvaluation, Engine, PythiaError, RunConfig, Scheme,
    VariantBuilder,
};
use pythia_ir::{IcCategory, Module};
use pythia_pa::{brute_force_probability, expected_tries, PaContext, PacConfig};
use pythia_workloads::{
    all_scenarios, generate, nginx_module, profile_by_name, run_worker, BenchProfile, NginxRun,
    SizeTier, SPEC_PROFILES,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The three instrumented schemes, in figure order.
pub const SCHEMES: [Scheme; 3] = [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi];

/// One suite slot: the benchmark's name plus either its evaluation or the
/// typed error that stopped it. One failing benchmark never erases the
/// rest of the suite — reports render the survivors and list the errors.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Benchmark name (stable even when the evaluation failed).
    pub name: String,
    /// The evaluation, or why it could not be produced.
    pub outcome: Result<BenchEvaluation, PythiaError>,
}

impl SuiteEntry {
    /// The evaluation, if the benchmark succeeded.
    pub fn evaluation(&self) -> Option<&BenchEvaluation> {
        self.outcome.as_ref().ok()
    }

    /// The error, if the benchmark failed.
    pub fn error(&self) -> Option<&PythiaError> {
        self.outcome.as_ref().err()
    }
}

/// The successful evaluations of a suite, in order (cloned so the render
/// functions can keep their `&[BenchEvaluation]` signatures).
pub fn ok_evaluations(suite: &[SuiteEntry]) -> Vec<BenchEvaluation> {
    suite
        .iter()
        .filter_map(|e| e.evaluation().cloned())
        .collect()
}

/// Render the per-benchmark error section, or an empty string when every
/// benchmark evaluated cleanly.
pub fn errors_section(suite: &[SuiteEntry]) -> String {
    let failed: Vec<&SuiteEntry> = suite.iter().filter(|e| e.outcome.is_err()).collect();
    if failed.is_empty() {
        return String::new();
    }
    let mut t = Table::new(vec!["benchmark", "class", "error"]);
    for e in &failed {
        if let Some(err) = e.error() {
            t.row(vec![
                e.name.clone(),
                err.variant().to_owned(),
                err.to_string(),
            ]);
        }
    }
    format!(
        "## errors — {} of {} benchmarks failed to evaluate\n\n{}",
        failed.len(),
        suite.len(),
        t.render()
    )
}

/// Seed of the nginx suite entry.
const NGINX_SEED: u64 = 0x9137;

/// One unit of suite work: generate a module and evaluate it.
#[derive(Debug, Clone)]
enum SuiteJob<'a> {
    /// A SPEC-like profile (owned: tier scaling produces non-`'static`
    /// profiles, and `BenchProfile` is `Copy` anyway).
    Profile(BenchProfile),
    /// The nginx server workload with a fixed request count.
    Nginx { requests: u64 },
    /// A caller-supplied module (test injection, ad-hoc suites).
    Module {
        name: &'a str,
        module: &'a Module,
        seed: u64,
    },
    /// A name that matched no profile — evaluates to a setup error.
    Missing { name: &'a str },
}

impl<'a> SuiteJob<'a> {
    /// The benchmark `name` at `tier`: `nginx` serving `nginx_requests`
    /// (scaled by the tier's input-channel volume factor), else the
    /// SPEC-like profile it names (partial names match), or a setup-error
    /// job when no profile matches.
    fn named(name: &'a str, tier: SizeTier, nginx_requests: u64) -> SuiteJob<'a> {
        if name == "nginx" {
            return SuiteJob::Nginx {
                requests: tier.scale_volume(nginx_requests),
            };
        }
        match profile_by_name(name) {
            Some(p) => SuiteJob::Profile(p.at_tier(tier)),
            None => SuiteJob::Missing { name },
        }
    }

    fn name(&self) -> String {
        match self {
            SuiteJob::Profile(p) => p.name.to_owned(),
            SuiteJob::Nginx { .. } => "nginx".to_owned(),
            SuiteJob::Module { name, .. } | SuiteJob::Missing { name } => (*name).to_owned(),
        }
    }

    fn run(&self, run: &RunConfig) -> Result<BenchEvaluation, PythiaError> {
        match self {
            SuiteJob::Profile(p) => {
                let m = generate(p);
                evaluate_with(&m, &SCHEMES, p.seed, run)
            }
            SuiteJob::Nginx { requests } => {
                let m = nginx_module(*requests);
                evaluate_with(&m, &SCHEMES, NGINX_SEED, run)
            }
            SuiteJob::Module { module, seed, .. } => evaluate_with(module, &SCHEMES, *seed, run),
            SuiteJob::Missing { name } => {
                Err(PythiaError::setup(format!("unknown profile `{name}`")))
            }
        }
    }
}

/// Which benchmarks a suite run evaluates.
#[derive(Debug, Clone, Default)]
pub enum Selection {
    /// All 16 SPEC-like benchmarks plus nginx, in report order.
    #[default]
    Full,
    /// The reduced smoke set: two fast SPEC-like profiles plus a short
    /// nginx run — enough to cross every pipeline layer.
    Smoke,
    /// These (possibly partial) benchmark names, in this order; `"nginx"`
    /// selects the server workload. A name matching no benchmark yields
    /// a setup-error entry in its slot.
    Only(Vec<String>),
    /// Caller-supplied `(name, module, seed)` triples, evaluated as they
    /// are (the tier scales only the VM budget): the injection point for
    /// robustness tests and ad-hoc suites.
    Modules(Vec<(String, Module, u64)>),
}

impl Selection {
    /// The jobs this selection evaluates at `tier`, in report order.
    fn jobs(&self, tier: SizeTier) -> Vec<SuiteJob<'_>> {
        let (names, nginx_requests): (Vec<&str>, u64) = match self {
            Selection::Full => (valid_only_names(), 60),
            Selection::Smoke => (vec!["519.lbm_r", "505.mcf_r", "nginx"], 10),
            Selection::Only(names) => (names.iter().map(String::as_str).collect(), 60),
            Selection::Modules(modules) => {
                return modules
                    .iter()
                    .map(|(name, module, seed)| SuiteJob::Module {
                        name,
                        module,
                        seed: *seed,
                    })
                    .collect()
            }
        };
        names
            .into_iter()
            .map(|n| SuiteJob::named(n, tier, nginx_requests))
            .collect()
    }
}

/// The benchmark names `--only` accepts: every SPEC-like profile plus
/// `nginx` — the full suite, in report order.
pub fn valid_only_names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = SPEC_PROFILES.iter().map(|p| p.name).collect();
    v.push("nginx");
    v
}

/// Validate `--only` names eagerly: each must be `nginx` or resolve to a
/// SPEC profile (partial names match, like the suite's own resolution).
/// Returns the first offending name so the CLI can reject it up front
/// with the valid list, instead of burying an "unknown profile" error in
/// the report after the rest of the suite already ran.
///
/// # Errors
///
/// The first name that resolves to no benchmark.
pub fn validate_only_names(names: &[String]) -> Result<(), String> {
    match names
        .iter()
        .find(|n| n.as_str() != "nginx" && profile_by_name(n).is_none())
    {
        Some(bad) => Err(bad.clone()),
        None => Ok(()),
    }
}

/// `run` with its VM instruction budget scaled by `tier`'s factor — the
/// ref tier's ~36× dynamic size would exhaust the standard 50 M budget
/// on the larger profiles.
fn at_tier(run: &RunConfig, tier: SizeTier) -> RunConfig {
    let mut run = run.clone();
    run.vm.max_insts = run.vm.max_insts.saturating_mul(tier.inst_budget_factor());
    run
}

/// Timing envelope of one suite run (for `BENCH_suite.json`).
#[derive(Debug, Clone, Copy)]
pub struct SuiteTiming {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock of the suite run.
    pub total_secs: f64,
}

/// What to run and how, for [`run_suite`].
#[derive(Debug, Clone, Default)]
pub struct SuiteSpec {
    /// Which benchmarks to evaluate.
    pub selection: Selection,
    /// Benchmark size tier.
    pub tier: SizeTier,
    /// Engine, context policy and worker count. The VM instruction
    /// budget is scaled by `tier`.
    pub run: RunConfig,
}

/// Everything one suite run produced.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// One entry per benchmark, in report order, execution profiles
    /// included.
    pub entries: Vec<SuiteEntry>,
    /// Wall-clock envelope.
    pub timing: SuiteTiming,
    /// The tier the suite ran at.
    pub tier: SizeTier,
    /// The `BENCH_suite.json` document.
    pub json: String,
    /// The rendered profile section (`profile.md`).
    pub profile_md: String,
}

/// Run a suite: generate → analyze → instrument → lint → execute every
/// selected benchmark on the worker pool, then render `BENCH_suite.json`
/// and the profile section from the entries. Every job is deterministic
/// (fixed generator and VM seeds) and the pool returns entries in input
/// order, so the entries — and every report rendered from them — are
/// identical for every worker count.
pub fn run_suite(spec: &SuiteSpec) -> SuiteRun {
    let run = at_tier(&spec.run, spec.tier);
    let jobs = spec.selection.jobs(spec.tier);
    let start = Instant::now();
    let outcomes = pool::run(&jobs, run.threads, |job| job.run(&run));
    let timing = SuiteTiming {
        threads: run.threads,
        total_secs: start.elapsed().as_secs_f64(),
    };
    let entries: Vec<SuiteEntry> = jobs
        .iter()
        .map(SuiteJob::name)
        .zip(outcomes)
        .map(|(name, outcome)| SuiteEntry { name, outcome })
        .collect();
    SuiteRun {
        json: render_json(&entries, &timing, spec.tier, run.vm.engine),
        profile_md: render_profile(&entries, run.vm.engine),
        entries,
        timing,
        tier: spec.tier,
    }
}

/// `s` as the body of a JSON string: quotes, backslashes and control
/// characters escaped (error rows can carry multi-line panic payloads).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Instructions retired by one evaluation, summed across its schemes.
fn retired_insts(ev: &BenchEvaluation) -> u64 {
    ev.results.iter().map(|r| r.metrics.insts).sum()
}

/// Retirement rate of one evaluation in millions of instructions per
/// second of execute-phase wall-clock (0 when nothing was timed).
fn retirement_of(ev: &BenchEvaluation) -> f64 {
    let secs = ev.timings.execute_secs();
    if secs > 0.0 {
        retired_insts(ev) as f64 / secs / 1e6
    } else {
        0.0
    }
}

/// Aggregate retirement rate of a suite: instructions retired across
/// every scheme of every successful benchmark, per second of summed
/// execute-phase wall-clock, in Minsts/s. The headline number of the
/// block-cached engine (ISSUE 6 demands ≥10× over the legacy
/// interpreter on the suite aggregate).
pub fn retirement_minsts_per_sec(suite: &[SuiteEntry]) -> f64 {
    let evs: Vec<&BenchEvaluation> = suite.iter().filter_map(|e| e.evaluation()).collect();
    let insts: u64 = evs.iter().map(|e| retired_insts(e)).sum();
    let secs: f64 = evs.iter().map(|e| e.timings.execute_secs()).sum();
    if secs > 0.0 {
        insts as f64 / secs / 1e6
    } else {
        0.0
    }
}

/// One scheme's profile as a single JSON line, so shell gates can grep
/// e.g. `"scheme": "cpa"` together with `"pa_executed": 0` or
/// `"pa_static_match": false` without a JSON parser.
fn scheme_profile_json(r: &pythia_core::SchemeResult) -> String {
    let (p, m) = (&r.profile, &r.metrics);
    let top: Vec<String> = p
        .top_opcodes(5)
        .into_iter()
        .map(|(op, n)| format!("[\"{op}\", {n}]"))
        .collect();
    let pa_static_match = p.pa.static_sign_auth() == r.stats.pa_total() as u64;
    format!(
        "{{ \"scheme\": \"{}\", \"pa_executed\": {}, \"pa_signs\": {}, \"pa_auths\": {}, \"pa_strips\": {}, \"pa_auth_failures\": {}, \"pa_static\": {}, \"pa_static_unpruned\": {}, \"obligations_pruned\": {}, \"pa_static_match\": {}, \"dfi_setdefs\": {}, \"dfi_chkdefs\": {}, \"shadow_bulk_tags\": {}, \"mem_faults\": {}, \"resident_bytes\": {}, \"heap_allocs\": {}, \"heap_frees\": {}, \"heap_peak_bytes\": {}, \"heap_fastbin_hits\": {}, \"heap_coalesces\": {}, \"intrinsic_calls\": {}, \"top_opcodes\": [{}] }}",
        r.scheme.name(),
        p.pa.executed(),
        p.pa.signs,
        p.pa.auths,
        p.pa.strips,
        p.pa.auth_failures,
        p.pa.static_sign_auth(),
        r.pa_static_unpruned,
        r.stats.obligations_pruned,
        pa_static_match,
        p.shadow.setdefs,
        p.shadow.chkdefs,
        p.shadow.bulk_tags,
        p.mem_faults,
        p.resident_bytes,
        m.heap_shared.allocs + m.heap_isolated.allocs,
        m.heap_shared.frees + m.heap_isolated.frees,
        m.heap_shared.peak_bytes + m.heap_isolated.peak_bytes,
        m.heap_shared.fastbin_hits + m.heap_isolated.fastbin_hits,
        m.heap_shared.coalesces + m.heap_isolated.coalesces,
        p.intrinsics.values().sum::<u64>(),
        top.join(", "),
    )
}

/// Version of the `BENCH_suite.json` layout (DESIGN.md §5g lists the
/// fields). Bumped whenever a field is added, removed or renamed.
pub const SUITE_SCHEMA: u32 = 3;

/// Render one benchmark's JSON record (no trailing comma/newline).
fn json_row(entry: &SuiteEntry) -> String {
    let name = json_escape(&entry.name);
    let ev = match &entry.outcome {
        Ok(ev) => ev,
        Err(e) => {
            // The pipeline's certification error message is stable
            // (pythia-lint's `into_setup_error`), so it doubles as the
            // discriminator between "lint rejected this" and "the
            // benchmark never reached the lint gate".
            let lint = if e.to_string().contains("static certification") {
                "violated"
            } else {
                "not-reached"
            };
            return format!(
                "    {{ \"name\": \"{name}\", \"status\": \"{}\", \"error\": \"{}\", \"lint\": \"{lint}\" }}",
                e.variant(),
                json_escape(&e.to_string()),
            );
        }
    };
    let t = &ev.timings;
    // Per-benchmark memory and phase-share summary: the peak VM resident
    // set across schemes (deterministic — counted from touched pages, not
    // host RSS), and where the wall-clock went.
    let total = t.total_secs();
    let share = |s: f64| if total > 0.0 { s / total } else { 0.0 };
    let peak_resident: u64 = ev
        .results
        .iter()
        .map(|r| r.profile.resident_bytes)
        .max()
        .unwrap_or(0);
    let pruned = &ev.analysis.pruned;
    // An `ok` evaluation implies the lint gate passed: every instrumented
    // variant was certified before it executed.
    let mut out = format!(
        "    {{ \"name\": \"{name}\", \"status\": \"ok\", \"analysis_secs\": {:.6}, \"instrument_secs\": {:.6}, \"lint_secs\": {:.6}, \"decode_secs\": {:.6}, \"execute_secs\": {:.6}, \"retirement_minsts_per_sec\": {:.3}, \"analysis_share\": {:.3}, \"execute_share\": {:.3}, \"peak_resident_bytes\": {peak_resident}, \"proven_geps\": {}, \"obligations_pruned\": {}, \"reach_top\": {}, \"contexts\": {}, \"ctx_fallback\": {}, \"pythia_heap_pruned\": {}, \"dfi_pruned\": {}, \"policy\": \"{}\", \"summaries\": {}, \"summary_reuse\": {}, \"strong_updates\": {}, \"lint\": \"certified\", \"lint_checks\": {},\n",
        t.analysis_secs(),
        t.instrument_secs(),
        t.lint_secs(),
        t.decode_secs(),
        t.execute_secs(),
        retirement_of(ev),
        share(t.analysis_secs()),
        share(t.execute_secs()),
        pruned.proven_gep_stores,
        pruned.total(),
        pruned.reach_top,
        pruned.contexts,
        pruned.ctx_fallback,
        pruned.pythia_heap_objects,
        pruned.dfi_objects,
        pruned.policy,
        pruned.summaries,
        pruned.summary_reuse,
        pruned.strong_updates,
        ev.lint_checks(),
    );
    out.push_str(&format!(
        "      \"profile\": {{ \"slices\": {}, \"schemes\": [\n",
        ev.analysis.slices
    ));
    for (j, r) in ev.results.iter().enumerate() {
        let c = if j + 1 < ev.results.len() { "," } else { "" };
        out.push_str(&format!("        {}{c}\n", scheme_profile_json(r)));
    }
    out.push_str("      ] } }");
    out
}

/// Render `BENCH_suite.json`: the schema version, total and per-phase
/// wall-clock, then one record per benchmark with a `status` field (`ok`,
/// or the error's taxonomy variant — `scripts/check.sh` fails the build
/// on any `internal`), its certification status, peak resident bytes,
/// analysis/execute wall-clock shares, and a `profile` block: the
/// backward-slice count and one line per scheme with PA/DFI/shadow/heap
/// counters plus the top-5 opcode histogram. DESIGN.md §5g lists every
/// field. Hand-rolled JSON — the workspace is offline and carries no
/// serde.
fn render_json(
    suite: &[SuiteEntry],
    timing: &SuiteTiming,
    tier: SizeTier,
    engine: Engine,
) -> String {
    let sum = |f: &dyn Fn(&pythia_core::Timings) -> f64| -> f64 {
        suite
            .iter()
            .filter_map(|e| e.evaluation())
            .map(|e| f(&e.timings))
            .sum()
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {SUITE_SCHEMA},\n"));
    out.push_str(&format!("  \"threads\": {},\n", timing.threads));
    out.push_str(&format!("  \"tier\": \"{}\",\n", tier.name()));
    out.push_str(&format!("  \"total_secs\": {:.6},\n", timing.total_secs));
    out.push_str(&format!("  \"engine\": \"{}\",\n", engine.name()));
    out.push_str(&format!(
        "  \"retirement_minsts_per_sec\": {:.3},\n",
        retirement_minsts_per_sec(suite)
    ));
    out.push_str(&format!(
        "  \"per_phase\": {{ \"analysis\": {:.6}, \"instrument\": {:.6}, \"lint\": {:.6}, \"decode\": {:.6}, \"execute\": {:.6} }},\n",
        sum(&|t| t.analysis_secs()),
        sum(&|t| t.instrument_secs()),
        sum(&|t| t.lint_secs()),
        sum(&|t| t.decode_secs()),
        sum(&|t| t.execute_secs())
    ));
    out.push_str("  \"benchmarks\": [\n");
    let rows: Vec<String> = suite.iter().map(json_row).collect();
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Per-scheme dynamic counter sums for the profile section.
#[derive(Debug, Clone, Copy, Default)]
struct SchemeSums {
    n: usize,
    signs: u64,
    auths: u64,
    strips: u64,
    statics: u64,
    unpruned: u64,
    pruned: u64,
    setdefs: u64,
    chkdefs: u64,
    allocs: u64,
    coalesces: u64,
    resident: u64,
}

impl SchemeSums {
    fn add(&mut self, r: &pythia_core::SchemeResult) {
        let (p, m) = (&r.profile, &r.metrics);
        self.n += 1;
        self.signs += p.pa.signs;
        self.auths += p.pa.auths;
        self.strips += p.pa.strips;
        self.statics += p.pa.static_sign_auth();
        self.unpruned += r.pa_static_unpruned as u64;
        self.pruned += r.stats.obligations_pruned as u64;
        self.setdefs += p.shadow.setdefs;
        self.chkdefs += p.shadow.chkdefs;
        self.allocs += m.heap_shared.allocs + m.heap_isolated.allocs;
        self.coalesces += m.heap_shared.coalesces + m.heap_isolated.coalesces;
        self.resident += p.resident_bytes;
    }
}

/// Human-readable cost-attribution report from the VM profiles: phase
/// wall-clock, per-scheme PA/DFI/heap counters, the pooled opcode
/// histogram, and backward slices per benchmark, labelled with the
/// `engine` the suite ran under. Rendered *outside* `report.md` (wall-clock seconds
/// are not deterministic) — `reproduce --bench-json` writes it to
/// `profile.md` next to `BENCH_suite.json`.
fn render_profile(suite: &[SuiteEntry], engine: Engine) -> String {
    use crate::table::count;
    use pythia_core::Phase;

    let mut out = String::from(
        "## profile — execution cost attribution (observational; not part of the determinism surface)\n\n",
    );
    let evs: Vec<&BenchEvaluation> = suite.iter().filter_map(SuiteEntry::evaluation).collect();
    if evs.is_empty() {
        out.push_str("no successful evaluations to profile\n");
        return out;
    }
    let sum = |f: &dyn Fn(&BenchEvaluation) -> f64| -> f64 { evs.iter().map(|e| f(e)).sum() };

    // Phase wall-clock, summed across benchmarks.
    let total_secs = sum(&|e| e.timings.total_secs());
    let mut t = Table::new(vec!["phase", "secs", "share"]);
    for phase in Phase::ALL {
        let secs = sum(&|e| e.timings.phase_secs(phase));
        t.row(vec![
            phase.name().to_owned(),
            format!("{secs:.3}"),
            frac(if total_secs > 0.0 {
                secs / total_secs
            } else {
                0.0
            }),
        ]);
    }
    out.push_str(&format!(
        "### phase wall-clock across {} benchmarks\n\n{}\n",
        evs.len(),
        t.render()
    ));

    // Retirement rate: the block-cached engine's headline metric.
    // Decode amortization context rides along — the one-time lowering
    // cost must stay well under the execute time it saves.
    let mut t = Table::new(vec![
        "engine",
        "insts retired",
        "execute secs",
        "decode secs",
        "Minsts/s",
    ]);
    t.row(vec![
        engine.name().to_owned(),
        count(evs.iter().map(|e| retired_insts(e)).sum()),
        format!("{:.3}", sum(&|e| e.timings.execute_secs())),
        format!("{:.3}", sum(&|e| e.timings.decode_secs())),
        format!("{:.2}", retirement_minsts_per_sec(suite)),
    ]);
    out.push_str(&format!(
        "### retirement rate, all schemes pooled (`scripts/bench.sh` compares engines; decode is the one-time block-lowering cost)\n\n{}\n",
        t.render()
    ));

    // Per-scheme dynamic counters, summed across benchmarks. The
    // `pa unpruned` column is what each scheme would have emitted
    // without the precision stage; `pa static` is what survived
    // pruning and `pruned` the dropped obligation count — the
    // executed-PA reduction the field-sensitive points-to + bounds
    // proofs buy.
    let mut t = Table::new(vec![
        "scheme",
        "pa sign",
        "pa auth",
        "pa strip",
        "pa static",
        "pa unpruned",
        "pruned",
        "dfi setdef",
        "dfi chkdef",
        "heap allocs",
        "coalesces",
        "resident KiB",
    ]);
    let results = || evs.iter().flat_map(|e| &e.results);
    for scheme in Scheme::ALL {
        let mut s = SchemeSums::default();
        results()
            .filter(|r| r.scheme == scheme)
            .for_each(|r| s.add(r));
        if s.n == 0 {
            continue;
        }
        t.row(vec![
            scheme.name().to_owned(),
            count(s.signs),
            count(s.auths),
            count(s.strips),
            count(s.statics),
            count(s.unpruned),
            count(s.pruned),
            count(s.setdefs),
            count(s.chkdefs),
            count(s.allocs),
            count(s.coalesces),
            count(s.resident / 1024),
        ]);
    }
    out.push_str(&format!(
        "### per-scheme dynamic counters (summed; `pa static` = sign/auth sites in the instrumented module after pruning, `pa unpruned` = without the precision stage)\n\n{}\n",
        t.render()
    ));

    // Context-sensitive points-to digest per benchmark: which policy
    // the solver ran under, how many contexts it explored, whether it
    // fell back to the insensitive relation, whether overflow reach hit
    // ⊤, the summary instantiations shared across callsites, the
    // singleton stores flow-sensitivity killed, and the heap/DFI
    // obligations the sharper relation pruned.
    let mut t = Table::new(vec![
        "benchmark",
        "policy",
        "reach",
        "contexts",
        "summaries",
        "fallback",
        "reuse",
        "kills",
        "heap pruned",
        "dfi pruned",
    ]);
    let (mut ctx_total, mut fb_total, mut hp_total, mut dfi_total) = (0usize, 0usize, 0, 0);
    let (mut reuse_total, mut kill_total, mut sum_total) = (0usize, 0usize, 0usize);
    for ev in &evs {
        let d = &ev.analysis.pruned;
        ctx_total += d.contexts;
        fb_total += d.ctx_fallback as usize;
        hp_total += d.pythia_heap_objects;
        dfi_total += d.dfi_objects;
        sum_total += d.summaries;
        reuse_total += d.summary_reuse;
        kill_total += d.strong_updates;
        t.row(vec![
            ev.name.clone(),
            d.policy.to_owned(),
            if d.reach_top { "TOP" } else { "ok" }.to_owned(),
            d.contexts.to_string(),
            d.summaries.to_string(),
            if d.ctx_fallback { "yes" } else { "no" }.to_owned(),
            d.summary_reuse.to_string(),
            d.strong_updates.to_string(),
            d.pythia_heap_objects.to_string(),
            d.dfi_objects.to_string(),
        ]);
    }
    t.row(vec![
        "TOTAL".to_owned(),
        String::new(),
        String::new(),
        ctx_total.to_string(),
        sum_total.to_string(),
        fb_total.to_string(),
        reuse_total.to_string(),
        kill_total.to_string(),
        hp_total.to_string(),
        dfi_total.to_string(),
    ]);
    out.push_str(&format!(
        "### context solver (policy, contexts explored, budget fallbacks, summary reuse, strong-update kills, heap/DFI obligations pruned)\n\n{}\n",
        t.render()
    ));

    // Pooled opcode histogram: executions and attributed cycles across
    // every scheme of every benchmark.
    let mut execs: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut mc: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in results() {
        for (op, n) in &r.profile.opcodes {
            *execs.entry(op).or_default() += n;
        }
        for (op, m) in &r.profile.opcode_mc {
            *mc.entry(op).or_default() += m;
        }
    }
    let mut ranked: Vec<(&'static str, u64)> = execs.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut t = Table::new(vec!["opcode", "execs", "cycles"]);
    for (op, n) in ranked.into_iter().take(10) {
        let cycles = pythia_vm::CostModel::to_cycles_f64(mc.get(op).copied().unwrap_or(0));
        t.row(vec![op.to_owned(), count(n), format!("{cycles:.0}")]);
    }
    out.push_str(&format!(
        "### top opcodes, all schemes pooled (base-cost attribution)\n\n{}\n",
        t.render()
    ));

    // Backward slices per benchmark: the analysis slices each branch once
    // per mode (Pythia and DFI) and every consumer reads its report.
    let mut t = Table::new(vec!["benchmark", "branches", "slices"]);
    let (mut tb, mut ts) = (0u64, 0u64);
    for ev in &evs {
        let a = &ev.analysis;
        tb += a.branches as u64;
        ts += a.slices;
        t.row(vec![
            ev.name.clone(),
            count(a.branches as u64),
            count(a.slices),
        ]);
    }
    t.row(vec!["TOTAL".to_owned(), count(tb), count(ts)]);
    out.push_str(&format!(
        "### backward slices (one per branch and slicing mode)\n\n{}",
        t.render()
    ));
    out
}

fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    // Stream count+sum in one pass; no intermediate Vec.
    let (mut sum, mut n) = (0.0f64, 0u64);
    for v in vals {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Fig. 4(a): runtime overhead per benchmark, CPA vs Pythia.
pub fn fig4a(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "cpa", "pythia", "dfi"]);
    for ev in suite {
        t.row(vec![
            ev.name.clone(),
            pct(ev.overhead(Scheme::Cpa)),
            pct(ev.overhead(Scheme::Pythia)),
            pct(ev.overhead(Scheme::Dfi)),
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        pct(mean(suite.iter().map(|e| e.overhead(Scheme::Cpa)))),
        pct(mean(suite.iter().map(|e| e.overhead(Scheme::Pythia)))),
        pct(mean(suite.iter().map(|e| e.overhead(Scheme::Dfi)))),
    ]);
    format!(
        "## fig4a — runtime overhead vs vanilla (paper: CPA 47.88% avg / 69.8% max, Pythia 13.07% avg / 25.4% max)\n\n{}",
        t.render()
    )
}

/// Fig. 4(b): binary-size (static instruction) growth.
pub fn fig4b(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "insts", "cpa", "pythia"]);
    for ev in suite {
        t.row(vec![
            ev.name.clone(),
            ev.analysis.insts.to_string(),
            pct(ev.binary_growth(Scheme::Cpa)),
            pct(ev.binary_growth(Scheme::Pythia)),
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        String::new(),
        pct(mean(suite.iter().map(|e| e.binary_growth(Scheme::Cpa)))),
        pct(mean(suite.iter().map(|e| e.binary_growth(Scheme::Pythia)))),
    ]);
    format!(
        "## fig4b — binary size growth (paper: CPA +21.56% avg / 33.2% max, Pythia +10.37% avg / 17.99% max)\n\n{}",
        t.render()
    )
}

/// Fig. 5(a): IPC degradation.
pub fn fig5a(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "vanilla-ipc", "cpa", "pythia"]);
    for ev in suite {
        let v = ev
            .result(Scheme::Vanilla)
            .map(|r| r.metrics.ipc())
            .unwrap_or(0.0);
        t.row(vec![
            ev.name.clone(),
            format!("{v:.2}"),
            pct(ev.ipc_degradation(Scheme::Cpa)),
            pct(ev.ipc_degradation(Scheme::Pythia)),
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        String::new(),
        pct(mean(suite.iter().map(|e| e.ipc_degradation(Scheme::Cpa)))),
        pct(mean(
            suite.iter().map(|e| e.ipc_degradation(Scheme::Pythia)),
        )),
    ]);
    format!(
        "## fig5a — IPC degradation (paper: CPA 4.9% avg / 13% max, Pythia lower by 2.8% on avg)\n\n{}",
        t.render()
    )
}

/// Fig. 5(b): input-channel category distribution.
pub fn fig5b(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "total",
        "print",
        "scan",
        "move/copy",
        "get",
        "put",
        "map",
    ]);
    let mut totals = [0usize; 6];
    let mut grand = 0usize;
    for ev in suite {
        let h = &ev.analysis.ic_histogram;
        let get = |c: IcCategory| h.get(&c).copied().unwrap_or(0);
        let cats = [
            IcCategory::Print,
            IcCategory::Scan,
            IcCategory::MoveCopy,
            IcCategory::Get,
            IcCategory::Put,
            IcCategory::Map,
        ];
        for (i, c) in cats.iter().enumerate() {
            totals[i] += get(*c);
        }
        grand += ev.analysis.ic_total;
        t.row(vec![
            ev.name.clone(),
            ev.analysis.ic_total.to_string(),
            get(IcCategory::Print).to_string(),
            get(IcCategory::Scan).to_string(),
            get(IcCategory::MoveCopy).to_string(),
            get(IcCategory::Get).to_string(),
            get(IcCategory::Put).to_string(),
            get(IcCategory::Map).to_string(),
        ]);
    }
    let share = |n: usize| {
        if grand == 0 {
            "0%".to_owned()
        } else {
            frac(n as f64 / grand as f64)
        }
    };
    t.row(vec![
        "TOTAL".to_owned(),
        grand.to_string(),
        share(totals[0]),
        share(totals[1]),
        share(totals[2]),
        share(totals[3]),
        share(totals[4]),
        share(totals[5]),
    ]);
    format!(
        "## fig5b — input-channel distribution (paper: 25,326 ICs; print 31.5%, move/copy 65.9%, rest 2.6%)\n\n{}",
        t.render()
    )
}

/// Fig. 6(a): vulnerable-variable fractions, CPA vs Pythia.
pub fn fig6a(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "values",
        "cpa-vuln",
        "pythia-vuln",
        "reduction",
    ]);
    for ev in suite {
        let c = ev.analysis.cpa_value_fraction;
        let p = ev.analysis.pythia_value_fraction;
        let red = if p > 0.0 { c / p } else { f64::NAN };
        t.row(vec![
            ev.name.clone(),
            ev.analysis.insts.to_string(),
            frac(c),
            frac(p),
            if red.is_finite() {
                format!("{red:.1}x")
            } else {
                "-".to_owned()
            },
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        String::new(),
        frac(mean(suite.iter().map(|e| e.analysis.cpa_value_fraction))),
        frac(mean(suite.iter().map(|e| e.analysis.pythia_value_fraction))),
        String::new(),
    ]);
    format!(
        "## fig6a — vulnerable variables (paper: CPA ~29% of variables; Pythia ~4.5x fewer, ~5.1% marked)\n\n{}",
        t.render()
    )
}

/// Fig. 6(b): static PA instruction decrease, Pythia over CPA.
pub fn fig6b(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "cpa-pa", "pythia-pa", "reduction"]);
    let mut cpa_total = 0usize;
    let mut pythia_total = 0usize;
    for ev in suite {
        let c = ev
            .result(Scheme::Cpa)
            .map(|r| r.stats.pa_total())
            .unwrap_or(0);
        let p = ev
            .result(Scheme::Pythia)
            .map(|r| r.stats.pa_total())
            .unwrap_or(0);
        cpa_total += c;
        pythia_total += p;
        t.row(vec![
            ev.name.clone(),
            c.to_string(),
            p.to_string(),
            format!("{:.2}x", ev.pa_reduction()),
        ]);
    }
    t.row(vec![
        "TOTAL".to_owned(),
        cpa_total.to_string(),
        pythia_total.to_string(),
        format!("{:.2}x", cpa_total as f64 / pythia_total.max(1) as f64),
    ]);
    format!(
        "## fig6b — static PA instructions (paper: 4.25x fewer under Pythia; CPA total ~5e5)\n\n{}",
        t.render()
    )
}

/// Fig. 7(a): pointer share of backslices + branch density.
pub fn fig7a(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "branches", "ptr-in-slice", "branch/inst"]);
    for ev in suite {
        t.row(vec![
            ev.name.clone(),
            ev.analysis.branches.to_string(),
            frac(ev.analysis.slice_pointer_fraction),
            frac(ev.analysis.branches as f64 / ev.analysis.insts.max(1) as f64),
        ]);
    }
    format!(
        "## fig7a — pointers in backslices & conditional-branch density\n\n{}",
        t.render()
    )
}

/// Fig. 7(b): branches secured, DFI vs Pythia.
pub fn fig7b(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "branches", "dfi", "pythia", "delta"]);
    let mut full_dfi = 0usize;
    let mut full_pythia = 0usize;
    for ev in suite {
        let d = ev.analysis.dfi_secured;
        let p = ev.analysis.pythia_secured;
        if (d - 1.0).abs() < 1e-12 {
            full_dfi += 1;
        }
        if (p - 1.0).abs() < 1e-12 {
            full_pythia += 1;
        }
        t.row(vec![
            ev.name.clone(),
            ev.analysis.branches.to_string(),
            frac(d),
            frac(p),
            pct(p - d),
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        String::new(),
        frac(mean(suite.iter().map(|e| e.analysis.dfi_secured))),
        frac(mean(suite.iter().map(|e| e.analysis.pythia_secured))),
        String::new(),
    ]);
    format!(
        "## fig7b — branches secured (paper: DFI 86.6% avg, Pythia 92% avg; DFI fully secures 1 benchmark, Pythia 3)\n\n{}\nfully secured: dfi={full_dfi} pythia={full_pythia}\n",
        t.render()
    )
}

/// §6.2 attack-distance comparison (Definition 2.4).
pub fn dist(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec!["benchmark", "ic-dist", "dfi-dist", "pythia-dist"]);
    for ev in suite {
        t.row(vec![
            ev.name.clone(),
            format!("{:.1}", ev.analysis.ic_distance),
            format!("{:.1}", ev.analysis.dfi_distance),
            format!("{:.1}", ev.analysis.pythia_distance),
        ]);
    }
    t.row(vec![
        "MEAN".to_owned(),
        format!("{:.1}", mean(suite.iter().map(|e| e.analysis.ic_distance))),
        format!("{:.1}", mean(suite.iter().map(|e| e.analysis.dfi_distance))),
        format!(
            "{:.1}",
            mean(suite.iter().map(|e| e.analysis.pythia_distance))
        ),
    ]);
    format!(
        "## dist — attack distance in static instructions (paper: IC 83.29, DFI 113.95, Pythia 127.35; ordering IC < DFI < Pythia)\n\n{}",
        t.render()
    )
}

/// §6.3 nginx throughput degradation over three run lengths, on the
/// pruned, certified builds the pipeline ships. Every (size, scheme,
/// worker) run goes through the worker pool.
pub fn nginx(run: &RunConfig) -> String {
    const WORKERS: usize = 12;
    let variants: Vec<(u64, Scheme, Result<Module, PythiaError>)> = [60u64, 600, 6000]
        .into_iter()
        .flat_map(|requests| {
            let m = nginx_module(requests);
            let build = VariantBuilder::new(&m, run.ctx_policy);
            let cert = build.certifier();
            [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia].map(|scheme| {
                let inst = build.instrument(scheme);
                let certified = build.certify(&cert, &inst).map(|_| inst.module);
                (requests, scheme, certified)
            })
        })
        .collect();
    let tasks: Vec<(&Module, usize)> = variants
        .iter()
        .filter_map(|(_, _, m)| m.as_ref().ok())
        .flat_map(|m| (0..WORKERS).map(move |t| (m, t)))
        .collect();
    let worker = |&(m, t): &(&Module, usize)| run_worker(m, t, 0x9e, &run.vm);
    let mut outcomes = pool::run(&tasks, run.threads, worker).into_iter();

    let mut t = Table::new(vec!["requests", "scheme", "throughput", "degradation"]);
    let mut base = 0.0f64;
    for (requests, scheme, built) in &variants {
        let workers = match built {
            Ok(_) => NginxRun::from_workers(outcomes.by_ref().take(WORKERS).collect()),
            Err(e) => Err(e.clone()),
        };
        // Each size's degradation is relative to its own vanilla run.
        if *scheme == Scheme::Vanilla {
            base = workers.as_ref().map_or(0.0, NginxRun::throughput);
        }
        let cells = match workers {
            Ok(w) => {
                let tp = w.throughput();
                let deg = if base > 0.0 { 1.0 - tp / base } else { 0.0 };
                [format!("{tp:.2}"), frac(deg)]
            }
            Err(e) => [format!("ERROR: {e}"), String::new()],
        };
        let mut row = vec![requests.to_string(), scheme.name().to_owned()];
        row.extend(cells);
        t.row(row);
    }
    format!(
        "## nginx — 12-worker throughput degradation (paper: CPA 49.13%, Pythia 20.15%)\n\n{}",
        t.render()
    )
}

/// §6.3 motivating examples: detection matrix.
pub fn motiv(run: &RunConfig) -> String {
    let mut t = Table::new(vec!["scenario", "scheme", "benign", "attack-result"]);
    for s in all_scenarios() {
        for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let o = match adjudicate(&s, scheme, run) {
                Ok(o) => o,
                Err(e) => {
                    t.row(vec![
                        s.name.to_owned(),
                        scheme.name().to_owned(),
                        "ERROR".to_owned(),
                        e.to_string(),
                    ]);
                    continue;
                }
            };
            let verdict = if o.bent {
                "BENT (attack succeeded)".to_owned()
            } else if let Some(m) = o.detected {
                format!("DETECTED ({m:?})")
            } else {
                format!("{:?}", o.attack_exit)
            };
            t.row(vec![
                s.name.to_owned(),
                scheme.name().to_owned(),
                if o.benign_ok { "ok" } else { "BROKEN" }.to_owned(),
                verdict,
            ]);
        }
    }
    format!(
        "## motiv — Listings 1-3 (paper: Pythia detects all three at the input channel)\n\n{}",
        t.render()
    )
}

/// §4.4 Eq. 6: brute-force canary probability, analytic + Monte-Carlo.
pub fn eq6() -> String {
    let mut out = String::from("## eq6 — brute-forcing PA canaries (paper Eq. 6)\n\n");
    out.push_str(&format!(
        "analytic, 24-bit PAC: P(forge one canary per attempt) = {:.3e} (paper: 1 in 16 million)\n",
        brute_force_probability(1, 24)
    ));
    out.push_str(&format!(
        "analytic, expected attempts for one canary = {:.0} (paper: ~16.7 million)\n",
        expected_tries(24)
    ));
    out.push_str(&format!(
        "analytic, k=10 canaries: P = {:.3e}\n\n",
        brute_force_probability(10, 24)
    ));
    // Monte-Carlo at reduced widths so the game is playable, compared with
    // the analytic prediction at the same width.
    let mut t = Table::new(vec![
        "pac-bits",
        "campaigns",
        "budget",
        "measured",
        "analytic",
    ]);
    let mut rng = SmallRng::seed_from_u64(0xEC6);
    for bits in [8u32, 12, 16] {
        let ctx = PaContext::from_seed(42).with_config(PacConfig {
            va_bits: 40,
            pac_bits: bits,
        });
        let budget = 2u64.pow(bits) / 4;
        let campaigns = 300u64;
        let rate = pythia_pa::brute::empirical_success_rate(&ctx, &mut rng, campaigns, budget);
        let analytic = 1.0 - (1.0 - 1.0 / 2f64.powi(bits as i32)).powi(budget as i32);
        t.row(vec![
            bits.to_string(),
            campaigns.to_string(),
            budget.to_string(),
            format!("{rate:.3}"),
            format!("{analytic:.3}"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Eq. 1 vs Eq. 5: instrumentation-count accounting.
pub fn models(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "cpa-pa",
        "pythia-pa",
        "canaries",
        "sec-mallocs",
        "pythia/cpa",
    ]);
    for ev in suite {
        let c = ev.result(Scheme::Cpa).map(|r| r.stats).unwrap_or_default();
        let p = ev
            .result(Scheme::Pythia)
            .map(|r| r.stats)
            .unwrap_or_default();
        t.row(vec![
            ev.name.clone(),
            format!("{}+{}", c.pa_signs, c.pa_auths),
            format!("{}+{}", p.pa_signs, p.pa_auths),
            p.canaries.to_string(),
            p.secure_malloc_rewrites.to_string(),
            format!("{:.2}", p.pa_total() as f64 / c.pa_total().max(1) as f64),
        ]);
    }
    format!(
        "## models — Eq.1/Eq.5 accounting: CPA adds sign-per-store + auth-per-load over the unrefined set; Pythia adds canary signing at channel boundaries over the refined set (v' << v)\n\n{}",
        t.render()
    )
}

/// Precision stage: what the field-sensitive points-to and the interval
/// bounds proofs bought. No paper counterpart — the paper's alias
/// analysis is field-insensitive and keeps every obligation; this table
/// shows the average points-to set size, the struct-field objects the
/// solver split, the overflow-corruptible object count (`TOP` when one
/// unresolvable channel forces the conservative fixpoint), the
/// variable-index stores proven in-bounds, and the CPA sign/auth sites
/// dropped because their objects are unreachable from any overflow. The
/// last two columns carry the security context: branch-coverage and
/// attack-distance deltas of Pythia over DFI, which pruning must not
/// erode (the soundness regression attacks both builds).
pub fn precision(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "avg-pts",
        "field-objs",
        "reach",
        "ctxs",
        "proven-geps",
        "cpa-pa",
        "cpa-unpruned",
        "pruned",
        "heap-pruned",
        "dfi-pruned",
        "sec-delta",
        "dist-delta",
    ]);
    let (mut kept_total, mut unpruned_total, mut pruned_total) = (0usize, 0usize, 0usize);
    let (mut heap_total, mut dfi_total, mut ctx_total) = (0usize, 0usize, 0usize);
    for ev in suite {
        let a = &ev.analysis;
        let c_kept = ev
            .result(Scheme::Cpa)
            .map(|r| r.stats.pa_total())
            .unwrap_or(0);
        let c_un = ev
            .result(Scheme::Cpa)
            .map(|r| r.pa_static_unpruned)
            .unwrap_or(0);
        kept_total += c_kept;
        unpruned_total += c_un;
        pruned_total += a.pruned.total();
        heap_total += a.pruned.pythia_heap_objects;
        dfi_total += a.pruned.dfi_objects;
        ctx_total += a.pruned.contexts;
        t.row(vec![
            ev.name.clone(),
            format!("{:.2}", a.avg_points_to),
            a.field_objects.to_string(),
            if a.pruned.reach_top {
                "TOP".to_owned()
            } else {
                a.pruned.reachable_objects.to_string()
            },
            if a.pruned.ctx_fallback {
                format!("{}!", a.pruned.contexts)
            } else {
                a.pruned.contexts.to_string()
            },
            a.pruned.proven_gep_stores.to_string(),
            c_kept.to_string(),
            c_un.to_string(),
            a.pruned.total().to_string(),
            a.pruned.pythia_heap_objects.to_string(),
            a.pruned.dfi_objects.to_string(),
            pct(a.pythia_secured - a.dfi_secured),
            format!("{:+.1}", a.pythia_distance - a.dfi_distance),
        ]);
    }
    let dropped = unpruned_total.saturating_sub(kept_total);
    let share = if unpruned_total > 0 {
        dropped as f64 / unpruned_total as f64
    } else {
        0.0
    };
    t.row(vec![
        "TOTAL".to_owned(),
        format!(
            "{:.2}",
            mean(suite.iter().map(|e| e.analysis.avg_points_to))
        ),
        String::new(),
        String::new(),
        ctx_total.to_string(),
        String::new(),
        kept_total.to_string(),
        unpruned_total.to_string(),
        pruned_total.to_string(),
        heap_total.to_string(),
        dfi_total.to_string(),
        String::new(),
        String::new(),
    ]);
    format!(
        "## precision — context-sensitive points-to (default policy) + relational bounds proofs prune PA obligations (no paper counterpart; pruning drops {dropped} of {unpruned_total} CPA sign/auth sites = {}; `ctxs` = calling contexts, `!` = budget fallback to the insensitive relation)\n\n{}",
        frac(share),
        t.render()
    )
}

/// Policy-comparison precision table: the same suite analysed under each
/// context policy (no paper counterpart — the paper's analysis is
/// context-insensitive). Per benchmark and policy it re-runs only the
/// analysis pipeline (base points-to → vulnerability report → overflow
/// reach → obligation pruning) over a [`pythia_analysis::SliceContext`]
/// built with that policy. Columns are the total obligations pruned under
/// each policy; the refinement contract requires each column to be ≥ the
/// one to its left, and strong updates plus k=2 chains give the
/// summary-2cfa column its edge on nested-helper shapes.
pub fn policies() -> String {
    use pythia_analysis::CtxPolicy;

    const POLICIES: [(CtxPolicy, &str); 3] = [
        (CtxPolicy::Insensitive, "insens"),
        (CtxPolicy::KCfa(1), "summary-1cfa"),
        (CtxPolicy::KCfa(2), "summary-2cfa"),
    ];
    let mut cols = vec!["benchmark".to_owned()];
    for (_, label) in POLICIES {
        cols.push(format!("pruned@{label}"));
        cols.push(format!("ctxs@{label}"));
    }
    let mut t = Table::new(cols);
    let mut totals = [0usize; POLICIES.len()];
    let mut modules: Vec<(String, Module)> = SPEC_PROFILES
        .iter()
        .map(|p| (p.name.to_owned(), generate(p)))
        .collect();
    modules.push(("nginx".to_owned(), nginx_module(20)));
    for (name, m) in &modules {
        let mut row = vec![name.clone()];
        for (i, (policy, _)) in POLICIES.iter().enumerate() {
            let pruned = VariantBuilder::new(m, *policy).pruned().pruned;
            totals[i] += pruned.total();
            row.push(pruned.total().to_string());
            row.push(pruned.contexts.to_string());
        }
        t.row(row);
    }
    let mut total_row = vec!["TOTAL".to_owned()];
    for n in totals {
        total_row.push(n.to_string());
        total_row.push(String::new());
    }
    t.row(total_row);
    format!(
        "## policies — obligations pruned per context policy (refinement chain: insens ≤ summary-1cfa ≤ summary-2cfa per row; `summary-2cfa` is the default `PYTHIA_CTX_POLICY`; per-policy wall-clock lives in `scripts/bench.sh`'s trend line, keeping this table deterministic)\n\n{}",
        t.render()
    )
}

/// §6.2: fraction of static PA sites that executed dynamically.
pub fn dynpa(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "scheme",
        "static-pa",
        "sites-run",
        "fraction",
    ]);
    for ev in suite {
        for scheme in [Scheme::Cpa, Scheme::Pythia] {
            if let Some(r) = ev.result(scheme) {
                let st = r.stats.pa_total();
                if st == 0 {
                    continue;
                }
                t.row(vec![
                    ev.name.clone(),
                    scheme.name().to_owned(),
                    st.to_string(),
                    r.metrics.pa_sites.to_string(),
                    frac(r.metrics.pa_sites as f64 / st as f64),
                ]);
            }
        }
    }
    format!(
        "## dynpa — static PA sites that executed (paper: ~50%; our drivers eventually exercise most sites)\n\n{}",
        t.render()
    )
}

/// §6.2: heap sectioning overhead, including channel-free benchmarks.
pub fn heap(suite: &[BenchEvaluation]) -> String {
    let mut t = Table::new(vec![
        "benchmark",
        "heap-vulns",
        "sec-mallocs",
        "iso-allocs",
        "init-calls",
    ]);
    for ev in suite {
        let p = ev.result(Scheme::Pythia);
        t.row(vec![
            ev.name.clone(),
            ev.analysis.heap_vulns.to_string(),
            p.map(|r| r.stats.secure_malloc_rewrites)
                .unwrap_or(0)
                .to_string(),
            p.map(|r| r.metrics.heap_isolated.allocs)
                .unwrap_or(0)
                .to_string(),
            p.map(|r| r.metrics.heap_init_calls)
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    format!(
        "## heap — sectioning activity (paper: even no-heap-vuln benchmarks pay the ~126ns setup; isolated section sized by vulnerable allocations)\n\n{}",
        t.render()
    )
}

/// Ablations (DESIGN.md §4): remove each Pythia ingredient and show the
/// security regression, using the config-driven pass. The passes
/// instrument from unpruned reports, so only `run.vm` matters here.
pub fn ablations(run: &RunConfig) -> String {
    use pythia_passes::{instrument_pythia_ablated, PythiaConfig};
    use pythia_vm::Vm;

    let mut t = Table::new(vec!["ablation", "scenario", "attack result"]);

    let run_attack = |m: &pythia_ir::Module, s: &pythia_workloads::Scenario| {
        let mut vm = Vm::new(m, run.vm.clone(), s.attack.clone());
        let r = match vm.run("main", &[]) {
            Ok(r) => r,
            Err(e) => return format!("ERROR: {e}"),
        };
        match r.detected() {
            Some(mech) => format!("DETECTED ({mech:?})"),
            None => {
                if r.exit.value() == Some(s.bent_return) {
                    "BENT (attack succeeded)".to_owned()
                } else {
                    format!("{:?}", r.exit)
                }
            }
        }
    };

    let listing1 = &all_scenarios()[0];
    let heap = &pythia_workloads::extended_scenarios()[0];
    let interproc = &pythia_workloads::extended_scenarios()[1];

    let full = PythiaConfig::default();
    let cases: [(&str, &pythia_workloads::Scenario, PythiaConfig); 6] = [
        ("full pythia", listing1, full),
        (
            "no stack re-layout",
            listing1,
            PythiaConfig {
                relayout: false,
                ..full
            },
        ),
        (
            "no re-randomization",
            listing1,
            PythiaConfig {
                rerandomize: false,
                ..full
            },
        ),
        ("full pythia", heap, full),
        (
            "no heap sectioning",
            heap,
            PythiaConfig {
                heap_sectioning: false,
                ..full
            },
        ),
        (
            "no ret checks",
            interproc,
            PythiaConfig {
                ret_checks: false,
                ..full
            },
        ),
    ];
    for (name, scenario, config) in cases {
        let inst = instrument_pythia_ablated(&scenario.module, config);
        t.row(vec![
            name.to_owned(),
            scenario.name.to_owned(),
            run_attack(&inst.module, scenario),
        ]);
    }

    // Refinement ablation is a static comparison: CPA = no refinement.
    let m = generate(&SPEC_PROFILES[1]); // gcc
    let cpa = pythia_core::instrument(&m, Scheme::Cpa);
    let pyt = pythia_core::instrument(&m, Scheme::Pythia);
    format!(
        "## ablations — each Pythia ingredient removed in turn\n\n{}\nabl-refine: without IC refinement (CPA) gcc needs {} PA ops; refined Pythia needs {} (+{} canaries)\n",
        t.render(),
        cpa.stats.pa_total(),
        pyt.stats.pa_total(),
        pyt.stats.canaries,
    )
}

/// Dynamic attack campaign (threat model §2.5): smash a sample of channel
/// executions on three representative benchmarks under every scheme,
/// each module analyzed once under `run.ctx_policy`.
pub fn campaign(run: &RunConfig) -> String {
    use pythia_core::run_campaign_with;
    let mut t = Table::new(vec![
        "benchmark",
        "scheme",
        "attacks",
        "detected",
        "silent-bend",
        "crashed",
        "harmless",
        "rate",
    ]);
    for name in ["505.mcf_r", "502.gcc_r", "510.parest_r"] {
        let p = pythia_workloads::profile_by_name(name).expect("profile");
        let m = generate(p);
        let build = VariantBuilder::new(&m, run.ctx_policy);
        let (ctx, pruned) = (build.ctx(), build.pruned());
        for scheme in [Scheme::Vanilla, Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let r = match run_campaign_with(&m, ctx, pruned, scheme, p.seed, 64, 32, &run.vm) {
                Ok(r) => r,
                Err(e) => {
                    t.row(vec![
                        name.to_owned(),
                        scheme.name().to_owned(),
                        format!("ERROR: {e}"),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                        String::new(),
                    ]);
                    continue;
                }
            };
            t.row(vec![
                name.to_owned(),
                scheme.name().to_owned(),
                r.attacks.to_string(),
                r.detected().to_string(),
                r.silently_bent().to_string(),
                r.count("crashed").to_string(),
                r.count("harmless").to_string(),
                format!("{:.0}%", r.detection_rate() * 100.0),
            ]);
        }
    }
    format!(
        "## campaign — smash every sampled channel execution (threat model §2.5): detection rate of *effective* attacks

{}",
        t.render()
    )
}

/// What a `reproduce` section is rendered from.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// The evaluated suite's successful benchmarks.
    Suite(fn(&[BenchEvaluation]) -> String),
    /// The suite run's cost attribution (`profile.md`); never part of
    /// the report, whose bytes must not carry wall-clock seconds.
    Profile,
    /// Modules of its own, analyzed and run under the run's config.
    Run(fn(&RunConfig) -> String),
    /// Closed-form numbers only.
    Fixed(fn() -> String),
}

impl Render {
    /// Whether the section needs the evaluated suite.
    pub fn needs_suite(self) -> bool {
        matches!(self, Render::Suite(_) | Render::Profile)
    }

    /// Render the section. `suite` and `profile_md` come from the suite
    /// run and are read only by the variants that need it.
    pub fn render(self, suite: &[BenchEvaluation], profile_md: &str, run: &RunConfig) -> String {
        match self {
            Render::Suite(f) => f(suite),
            Render::Profile => profile_md.to_owned(),
            Render::Run(f) => f(run),
            Render::Fixed(f) => f(),
        }
    }
}

/// Every `reproduce` section by name, in report order. The table drives
/// section-name validation, single-section output and [`render_all`].
pub const SECTIONS: [(&str, Render); 20] = [
    ("fig4a", Render::Suite(fig4a)),
    ("fig4b", Render::Suite(fig4b)),
    ("fig5a", Render::Suite(fig5a)),
    ("fig5b", Render::Suite(fig5b)),
    ("fig6a", Render::Suite(fig6a)),
    ("fig6b", Render::Suite(fig6b)),
    ("fig7a", Render::Suite(fig7a)),
    ("fig7b", Render::Suite(fig7b)),
    ("dist", Render::Suite(dist)),
    ("precision", Render::Suite(precision)),
    ("policies", Render::Fixed(policies)),
    ("dynpa", Render::Suite(dynpa)),
    ("heap", Render::Suite(heap)),
    ("models", Render::Suite(models)),
    ("nginx", Render::Run(nginx)),
    ("motiv", Render::Run(motiv)),
    ("campaign", Render::Run(campaign)),
    ("eq6", Render::Fixed(eq6)),
    ("ablations", Render::Run(ablations)),
    ("profile", Render::Profile),
];

/// The renderer of section `name`, if there is such a section.
pub fn section(name: &str) -> Option<Render> {
    SECTIONS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// Render the full report from an already-evaluated suite (lets callers
/// reuse one suite run for both the report and `BENCH_suite.json`): a
/// leading error section when a benchmark failed, then every section of
/// [`SECTIONS`] but the profile, one blank line apart. Figures render
/// from the survivors; the sections that analyze or run modules of their
/// own do so under `run`.
pub fn render_all(entries: &[SuiteEntry], run: &RunConfig) -> String {
    let suite = ok_evaluations(entries);
    let errors = errors_section(entries);
    let mut parts: Vec<String> = (!errors.is_empty()).then_some(errors).into_iter().collect();
    parts.extend(
        SECTIONS
            .iter()
            .filter(|(_, r)| !matches!(r, Render::Profile))
            .map(|&(_, r)| r.render(&suite, "", run)),
    );
    parts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_escape("a \"b\" \\ c\nd\te\u{1}f é"),
            "a \\\"b\\\" \\\\ c\\nd\\te\\u0001f é"
        );
    }
}
