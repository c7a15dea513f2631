//! Every call the benchmark makes into the program under test.
//!
//! The rest of the crate sees only the items below, so an API change in
//! the repository's crates is absorbed in this one adapter. The untraced
//! entry points ([`evaluate`], [`campaign`], [`serve`]) call one public
//! function each. The `*_mirrored` functions repeat, call for call, what
//! such a function does inside, with a [`Trace`] timer around each call;
//! `trace.coverage` and `trace.overhead_ratio` show when a mirror has
//! drifted from the code it copies.

use crate::metrics::Trace;
use pythia_analysis::{
    value_ranges, InputChannels, OverflowReach, PointsTo, Precision, SliceContext,
    VulnerabilityReport,
};
use pythia_core::{run_campaign, CampaignResult};
use pythia_ir::verify::verify_module;
use pythia_lint::lint_instrumented;
use pythia_passes::{instrument_with, prune_obligations};
use pythia_vm::{
    AttackSpec, DecodedModule, DetectionMechanism, Engine, ExitReason, InputPlan, RunResult, Vm,
};
use pythia_workloads::server::sched::stream_seed;
use pythia_workloads::{
    generate, nginx_module, profile_by_name, run_event_loop, server_module, EventLoopConfig,
    SPEC_PROFILES, WINDOW_OFFSETS,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

pub use pythia_ir::{Module, PythiaError};
pub use pythia_passes::Scheme;
pub use pythia_vm::VmConfig;
pub use pythia_workloads::SizeTier;

/// Every scheme, vanilla first (the order `evaluate` reports them in).
pub const SCHEMES: [Scheme; 4] = Scheme::ALL;

/// The protected schemes `reproduce` evaluates beside vanilla.
const PROTECTED: [Scheme; 3] = [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi];

/// `reproduce`'s canonical seeds and sizes.
const NGINX_SEED: u64 = 0x9137;
const NGINX_REQUESTS: u64 = 60;
const SERVER_SEED: u64 = 0x5EB0_517E;
const CAMPAIGN_PROFILES: [&str; 3] = ["505.mcf_r", "502.gcc_r", "510.parest_r"];
const SMASH_BYTES: usize = 64;
const SMASHES: u64 = 32;

/// Connection slots of the server's event loop.
const CONNECTIONS: usize = 8;

/// The seed a run uses for an input whose canonical seed is `canonical`:
/// seed 0 keeps the canonical one, so the modules are the ones
/// `reproduce` evaluates; any other seed derives an independent stream.
pub fn derive_seed(canonical: u64, seed: u64) -> u64 {
    if seed == 0 {
        canonical
    } else {
        stream_seed(canonical, seed)
    }
}

/// A generated module and the seed its evaluation runs under.
pub struct Subject {
    /// Benchmark name.
    pub name: String,
    /// The uninstrumented module.
    pub module: Module,
    /// Input-plan seed of its runs (and generator seed for SPEC profiles).
    pub seed: u64,
}

/// The 16 SPEC-like profiles plus nginx at `tier`, as `reproduce` builds
/// its suite, with seeds derived from `seed`.
pub fn suite(tier: SizeTier, seed: u64, t: &mut Trace) -> Vec<Subject> {
    let mut out: Vec<Subject> = SPEC_PROFILES
        .iter()
        .map(|p| {
            let mut p = p.at_tier(tier);
            p.seed = derive_seed(p.seed, seed);
            Subject {
                name: p.name.to_owned(),
                module: t.time("workloads.generate_s", || generate(&p)),
                seed: p.seed,
            }
        })
        .collect();
    let requests = tier.scale_volume(NGINX_REQUESTS);
    out.push(Subject {
        name: "nginx".to_owned(),
        module: t.time("workloads.generate_s", || nginx_module(requests)),
        seed: derive_seed(NGINX_SEED, seed),
    });
    t.add("analysis.modules", out.len() as f64);
    out
}

/// The campaign section's three benchmarks at `tier`.
pub fn campaign_subjects(tier: SizeTier, seed: u64, t: &mut Trace) -> Vec<Subject> {
    t.add("analysis.modules", CAMPAIGN_PROFILES.len() as f64);
    CAMPAIGN_PROFILES
        .iter()
        .map(|name| {
            let mut p = profile_by_name(name)
                .expect("campaign profiles exist")
                .at_tier(tier);
            p.seed = derive_seed(p.seed, seed);
            Subject {
                name: p.name.to_owned(),
                module: t.time("workloads.generate_s", || generate(&p)),
                seed: p.seed,
            }
        })
        .collect()
}

/// The VM configuration of a suite run at `tier`: the block engine, with
/// the instruction budget scaled as `reproduce --tier` scales it.
pub fn suite_config(tier: SizeTier) -> VmConfig {
    let mut cfg = VmConfig {
        engine: Engine::Block,
        ..VmConfig::default()
    };
    cfg.max_insts = cfg.max_insts.saturating_mul(tier.inst_budget_factor());
    cfg
}

/// What one scheme variant of an evaluation produced; equal across
/// repeated evaluations of the same module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantDigest {
    /// The scheme.
    pub scheme: Scheme,
    /// How the benign run ended.
    pub exit: String,
    /// Instructions retired.
    pub insts: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Static PA instructions of the pruned build.
    pub pa_static: usize,
    /// Obligations the lint gate certified.
    pub lint_checks: usize,
    /// Obligations dropped by pruning.
    pub pruned: usize,
}

fn exit_label(e: &ExitReason) -> String {
    format!("{e:?}")
}

/// `pythia_core::evaluate` under vanilla, CPA, Pythia and DFI.
///
/// # Errors
///
/// Whatever `evaluate` returns.
pub fn evaluate(s: &Subject, cfg: &VmConfig) -> Result<Vec<VariantDigest>, PythiaError> {
    let ev = pythia_core::evaluate(&s.module, &PROTECTED, s.seed, cfg)?;
    Ok(ev
        .results
        .iter()
        .map(|r| VariantDigest {
            scheme: r.scheme,
            exit: exit_label(&r.exit),
            insts: r.metrics.insts,
            cycles: r.metrics.cycles(),
            pa_static: r.stats.pa_total(),
            lint_checks: r.lint_checks,
            pruned: r.stats.obligations_pruned,
        })
        .collect())
}

fn lint_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Vanilla => "lint.vanilla_s",
        Scheme::Cpa => "lint.cpa_s",
        Scheme::Pythia => "lint.pythia_s",
        Scheme::Dfi => "lint.dfi_s",
    }
}

/// Trace key of the time spent on one scheme's variant.
pub fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Vanilla => "scheme.vanilla_s",
        Scheme::Cpa => "scheme.cpa_s",
        Scheme::Pythia => "scheme.pythia_s",
        Scheme::Dfi => "scheme.dfi_s",
    }
}

/// Shared analysis of one module: the slice context with its context
/// solve forced, the vulnerability report and its pruned copy.
fn analyze<'m>(
    m: &'m Module,
    t: &mut Trace,
) -> (SliceContext<'m>, VulnerabilityReport, VulnerabilityReport) {
    let ctx = t.time("analysis.slice_context_s", || SliceContext::new(m));
    t.time("analysis.ctx_solve_s", || {
        ctx.ctx_points_to();
    });
    let report = t.time("analysis.slicing_s", || VulnerabilityReport::analyze(&ctx));
    let pruned = t.time("passes.prune_s", || prune_obligations(&ctx, &report));
    t.add("analysis.runs", 1.0);
    t.add("analysis.contexts", pruned.pruned.contexts as f64);
    t.add("analysis.summaries", pruned.pruned.summaries as f64);
    t.add("passes.obligations_pruned", pruned.pruned.total() as f64);
    (ctx, report, pruned)
}

fn record_memo(ctx: &SliceContext<'_>, t: &mut Trace) {
    let (hits, misses) = ctx.memo_stats();
    t.add("analysis.memo_hits", hits as f64);
    t.add("analysis.memo_misses", misses as f64);
}

fn record_run(r: &RunResult, t: &mut Trace) {
    t.add("vm.constructions", 1.0);
    t.add("vm.insts", r.metrics.insts as f64);
    t.add("vm.sim_cycles", r.metrics.cycles() as f64);
}

/// Shared-section reuse of a whole-program run. The server records its
/// event loop's arena counters instead, so its single-request probe VMs
/// stay out of the ratio.
fn record_heap(r: &RunResult, t: &mut Trace) {
    t.add("heap.shared_allocs", r.metrics.heap_shared.allocs as f64);
    t.add(
        "heap.fastbin_hits",
        r.metrics.heap_shared.fastbin_hits as f64,
    );
}

/// Decode every block of `m` up front, as the block engine's callers do.
fn decode(m: &Module, t: &mut Trace) -> Arc<DecodedModule> {
    t.time("vm.decode_s", || {
        let d = Arc::new(DecodedModule::new(m));
        d.decode_all(m);
        d
    })
}

/// [`evaluate`], mirrored: the calls `pythia_core::evaluate` makes, in its
/// order, each under a timer.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_mirrored(
    s: &Subject,
    cfg: &VmConfig,
    t: &mut Trace,
) -> Result<Vec<VariantDigest>, PythiaError> {
    let m = &s.module;
    t.time("ir.verify_s", || verify_module(m))?;
    t.add("ir.static_insts", m.num_insts() as f64);
    let (ctx, report, pruned) = analyze(m, t);
    t.time("analysis.channels_s", || black_box(InputChannels::find(m)));
    let mut out = Vec::with_capacity(SCHEMES.len());
    for scheme in SCHEMES {
        let before = t.covered();
        black_box(t.time("passes.instrument_dry_s", || {
            instrument_with(m, &ctx, &report, scheme).stats.pa_total()
        }));
        let inst = t.time("passes.instrument_s", || {
            instrument_with(m, &ctx, &pruned, scheme)
        });
        let lint = t.time(lint_key(scheme), || {
            lint_instrumented(m, &ctx, &pruned, &inst.module, scheme)
        });
        if !lint.is_clean() {
            return Err(lint.into_setup_error());
        }
        t.add("lint.obligations", lint.checks as f64);
        let decoded = decode(&inst.module, t);
        let mut vm = t.time("vm.setup_s", || {
            Vm::with_decoded(
                &inst.module,
                decoded,
                cfg.clone(),
                InputPlan::benign(s.seed),
            )
        });
        let r = t.time("vm.run_s", || vm.run("main", &[]))?;
        record_run(&r, t);
        record_heap(&r, t);
        t.add("passes.pa_static", inst.stats.pa_total() as f64);
        t.add(scheme_key(scheme), t.covered() - before);
        out.push(VariantDigest {
            scheme,
            exit: exit_label(&r.exit),
            insts: r.metrics.insts,
            cycles: r.metrics.cycles(),
            pa_static: inst.stats.pa_total(),
            lint_checks: lint.checks,
            pruned: inst.stats.obligations_pruned,
        });
    }
    record_memo(&ctx, t);
    Ok(out)
}

/// What one campaign produced; equal across repeated campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignDigest {
    /// Attacks launched.
    pub attacks: u64,
    /// Attacks a defense detected.
    pub detected: u64,
    /// Detected share of the attacks that changed behaviour.
    pub rate: f64,
    /// Outcome histogram.
    pub outcomes: BTreeMap<&'static str, u64>,
}

impl From<CampaignResult> for CampaignDigest {
    fn from(r: CampaignResult) -> Self {
        CampaignDigest {
            attacks: r.attacks,
            detected: r.detected(),
            rate: r.detection_rate(),
            outcomes: r.outcomes,
        }
    }
}

/// The VM configuration of a campaign run.
fn campaign_config() -> VmConfig {
    suite_config(SizeTier::Standard)
}

/// `pythia_core::run_campaign` as `reproduce`'s campaign section calls it.
///
/// # Errors
///
/// Whatever `run_campaign` returns.
pub fn campaign(s: &Subject, scheme: Scheme) -> Result<CampaignDigest, PythiaError> {
    run_campaign(
        &s.module,
        scheme,
        s.seed,
        SMASH_BYTES,
        SMASHES,
        &campaign_config(),
    )
    .map(CampaignDigest::from)
}

/// [`campaign`], mirrored: the analysis `run_campaign` runs, then the
/// benign reference run and every smash of `run_campaign_with`.
///
/// # Errors
///
/// As [`campaign`].
pub fn campaign_mirrored(
    s: &Subject,
    scheme: Scheme,
    t: &mut Trace,
) -> Result<CampaignDigest, PythiaError> {
    let m = &s.module;
    let cfg = campaign_config();
    let before = t.covered();
    let (ctx, _, pruned) = analyze(m, t);
    let inst = t.time("passes.instrument_s", || {
        instrument_with(m, &ctx, &pruned, scheme)
    });
    t.add("passes.pa_static", inst.stats.pa_total() as f64);
    record_memo(&ctx, t);
    let decoded = decode(&inst.module, t);
    let run = |t: &mut Trace, plan: InputPlan, keys| -> Result<RunResult, PythiaError> {
        let mut vm = t.time("vm.setup_s", || {
            Vm::with_decoded(&inst.module, Arc::clone(&decoded), cfg.clone(), plan)
        });
        let r = t
            .time_keys(keys, || vm.run("main", &[]))
            .map_err(|e| e.with_function(m.name.clone()))?;
        record_run(&r, t);
        record_heap(&r, t);
        Ok(r)
    };
    let benign = run(t, InputPlan::benign(s.seed), &["vm.run_s"])?;
    let total_channels = benign.metrics.ic_writes;
    let step = (total_channels / SMASHES).max(1);
    let mut result = CampaignResult {
        scheme,
        attacks: 0,
        outcomes: BTreeMap::new(),
    };
    let mut target = 0;
    while target < total_channels && result.attacks < SMASHES {
        let plan = InputPlan::with_attack(s.seed, AttackSpec::smash(target, SMASH_BYTES));
        let r = run(t, plan, &["vm.run_s", "vm.attack_run_s"])?;
        let label = match r.detected() {
            Some(DetectionMechanism::Canary) => "detected-canary",
            Some(DetectionMechanism::DataPac) => "detected-pac",
            Some(DetectionMechanism::Dfi) => "detected-dfi",
            None => match (&r.exit, &benign.exit) {
                (ExitReason::Trapped(_), _) => "crashed",
                (a, b) if a == b => "harmless",
                _ => "silently-bent",
            },
        };
        *result.outcomes.entry(label).or_insert(0) += 1;
        result.attacks += 1;
        target += step;
    }
    let digest = CampaignDigest::from(result);
    t.add("attacks.launched", digest.attacks as f64);
    t.add("attacks.detected", digest.detected as f64);
    t.add(scheme_key(scheme), t.covered() - before);
    Ok(digest)
}

/// One certified scheme variant of the server module.
pub struct Variant {
    /// The scheme.
    pub scheme: Scheme,
    module: Module,
    decoded: Arc<DecodedModule>,
}

/// The server scenario's set-up: the handler module and its certified,
/// decoded variants.
pub struct Server {
    /// The uninstrumented handler module (seeded like the loop).
    pub subject: Subject,
    /// One variant per scheme, in [`SCHEMES`] order.
    pub variants: Vec<Variant>,
}

/// Build the server scenario as `reproduce --scenario server` does:
/// generate and verify the handler module, analyze and prune it once,
/// then instrument, lint-certify and decode each scheme's variant.
///
/// # Errors
///
/// Verification or lint failures.
pub fn server_setup(seed: u64, t: &mut Trace) -> Result<Server, PythiaError> {
    let module = t.time("workloads.generate_s", server_module);
    t.time("ir.verify_s", || verify_module(&module))?;
    t.add("ir.static_insts", module.num_insts() as f64);
    t.add("analysis.modules", 1.0);
    let variants = {
        let (ctx, _, pruned) = analyze(&module, t);
        let mut variants = Vec::with_capacity(SCHEMES.len());
        // `instrument_certified`, call for call.
        for scheme in SCHEMES {
            let inst = t.time("passes.instrument_s", || {
                instrument_with(&module, &ctx, &pruned, scheme)
            });
            let lint = t.time(lint_key(scheme), || {
                lint_instrumented(&module, &ctx, &pruned, &inst.module, scheme)
            });
            if !lint.is_clean() {
                return Err(lint.into_setup_error());
            }
            t.add("lint.obligations", lint.checks as f64);
            t.add("passes.pa_static", inst.stats.pa_total() as f64);
            let decoded = decode(&inst.module, t);
            variants.push(Variant {
                scheme,
                module: inst.module,
                decoded,
            });
        }
        record_memo(&ctx, t);
        variants
    };
    Ok(Server {
        subject: Subject {
            name: module.name.clone(),
            module,
            seed: derive_seed(SERVER_SEED, seed),
        },
        variants,
    })
}

/// Detections at one delivery offset of the server's attack sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetDigest {
    /// Offset as a fraction of the epoch: numerator, denominator.
    pub fraction: (u64, u64),
    /// Attacks delivered.
    pub attacks: u64,
    /// Attacks detected.
    pub detected: u64,
}

/// What one event loop produced; equal across repeated loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedDigest {
    /// Requests retired.
    pub retired: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests the clients abandoned.
    pub cancelled: u64,
    /// Budget slices executed.
    pub slices: u64,
    /// Setup failures, benign traps and stuck requests.
    pub internal_errors: u64,
    /// Wrapping sum of every response.
    pub response_sum: u64,
    /// Instructions of the background traffic.
    pub insts: u64,
    /// Simulated cycles of the background traffic.
    pub cycles: u64,
    /// Shared-section arena allocations.
    pub shared_allocs: u64,
    /// Shared-section allocations served from a fastbin.
    pub shared_reuse: u64,
    /// The detection curve.
    pub offsets: Vec<OffsetDigest>,
}

/// `pythia_workloads::run_event_loop` over `v` until `requests` retire,
/// with [`CONNECTIONS`] slots.
///
/// # Errors
///
/// Whatever `run_event_loop` returns.
pub fn serve(server: &Server, v: &Variant, requests: u64) -> Result<ServedDigest, PythiaError> {
    let cfg = EventLoopConfig::standard(CONNECTIONS, requests, server.subject.seed, Engine::Block);
    let s = run_event_loop(&v.module, Arc::clone(&v.decoded), &cfg)?;
    Ok(ServedDigest {
        retired: s.retired,
        admitted: s.admitted,
        cancelled: s.cancelled,
        slices: s.slices,
        internal_errors: s.internal_errors,
        response_sum: s.response_sum,
        insts: s.insts,
        cycles: s.cycles,
        shared_allocs: s.arena_shared.allocs,
        shared_reuse: s.arena_shared.fastbin_hits,
        offsets: s
            .offsets
            .iter()
            .zip(WINDOW_OFFSETS)
            .map(|(o, (num, den, _))| OffsetDigest {
                fraction: (num, den),
                attacks: o.attacks,
                detected: o.detected(),
            })
            .collect(),
    })
}

/// Construct and run `runs` benign single-request VMs of `v`, configured
/// as the event loop configures its request VMs but without a slice
/// budget: the per-construction and per-run cost behind the loop.
///
/// # Errors
///
/// A request VM that fails to set up or does not return.
pub fn server_vm_probe(
    server: &Server,
    v: &Variant,
    runs: u64,
    t: &mut Trace,
) -> Result<(), PythiaError> {
    let seed = server.subject.seed;
    for i in 0..runs {
        let cfg = VmConfig {
            seed: stream_seed(seed, i),
            max_call_depth: 64,
            profile: false,
            engine: Engine::Block,
            inline_exec: true,
            ..VmConfig::default()
        };
        let plan = InputPlan::benign(stream_seed(seed, 0x5EED_0000_0000 | i));
        let mut vm = t.time("vm.setup_s", || {
            Vm::with_decoded(&v.module, Arc::clone(&v.decoded), cfg, plan)
        });
        let args = [(i % CONNECTIONS as u64) as i64, i as i64];
        let r = t.time("vm.run_s", || vm.run("handle_request", &args))?;
        if r.exit.value().is_none() {
            return Err(PythiaError::setup(format!(
                "benign {} request {i} ended in {:?}",
                v.scheme, r.exit
            )));
        }
        record_run(&r, t);
    }
    Ok(())
}

/// Time the analysis components the mirrored stages contain, each on its
/// own: both points-to precisions, the overflow-reach fixpoint (with the
/// context solve it reads already done) and interval ranges of every
/// function.
pub fn component_probes(m: &Module, t: &mut Trace) {
    t.time("analysis.points_to_fs_s", || {
        black_box(PointsTo::analyze_with(m, Precision::FieldSensitive))
    });
    t.time("analysis.points_to_fi_s", || {
        black_box(PointsTo::analyze_with(m, Precision::FieldInsensitive))
    });
    let ctx = SliceContext::new(m);
    ctx.ctx_points_to();
    t.time("analysis.reach_s", || {
        black_box(OverflowReach::compute(&ctx))
    });
    t.time("analysis.intervals_s", || {
        for f in m.functions() {
            black_box(value_ranges(f));
        }
    });
}
