//! The four workloads, and the run that measures one of them.
//!
//! A run sets a workload up several times, then repeats the untraced
//! calls of a pass, in order, for the requested number of seconds, setting
//! the workload up again every few tenths of a second in between; it
//! reports the median set-up time. Each call is timed against the
//! [`Yardstick`] measured beside it, and the pass cost sums each call's
//! median quotient. Every call is checked against its first repeat, so a
//! run that produces different outputs from the same inputs is reported as
//! failed.
//! A traced run then repeats the set-up and one pass through the
//! mirrored calls of [`crate::program`], and times the analysis
//! components and any layer the workload never calls in separate probes.

use crate::metrics::{MetricDef, Trace, END_TO_END, PER_LAYER};
use crate::program::{self, Scheme, Server, SizeTier, Subject, VmConfig, SCHEMES};
use crate::stats::{median, quartiles};
use crate::yardstick::Yardstick;
use std::time::Instant;

/// A benchmark workload. The names are stable: results cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 17-module suite at the standard tier through `evaluate`:
    /// compile-side work (analysis, instrumentation, lint) dominates.
    Standard,
    /// The same suite at the ref tier: execution dominates.
    Ref,
    /// The event-loop server over its certified variants: the VM's
    /// per-request construction and restart slicing dominate.
    Server,
    /// Attack campaigns on three benchmarks: repeated analysis and many
    /// short attacked runs that end in traps.
    Campaign,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Standard,
        Workload::Ref,
        Workload::Server,
        Workload::Campaign,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Standard => "standard",
            Workload::Ref => "ref",
            Workload::Server => "server",
            Workload::Campaign => "campaign",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed (0 = the canonical inputs `reproduce` uses).
    pub seed: u64,
    /// Length of the measured window of untraced passes.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Shrink every input to the smoke tier (tests only).
    pub smoke: bool,
}

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its declaration.
    pub def: &'static MetricDef,
    /// The measured value.
    pub value: f64,
    /// Measured by a probe on the workload's modules because the
    /// workload's own pass never calls that layer.
    pub probe: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation failed and every self-check held.
    pub correct: bool,
    /// Operations attempted (evaluations, campaign calls or admitted
    /// requests).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts, digests, failed checks.
    pub notes: Vec<String>,
}

/// Requests each scheme's event loop retires per pass.
const SERVER_REQUESTS: u64 = 600;
/// VM constructions (and benign runs) per server variant in the trace's
/// construction probe.
const SERVER_PROBE_RUNS: u64 = 1000;
/// Set-ups before the first pass; `setup_s` is the median of these and
/// of the ones made during the window.
const SETUP_REPEATS: usize = 5;
/// During the window, one more set-up follows any call that ends at least
/// this many seconds after the previous set-up, so the set-up samples
/// spread evenly over the window rather than bunching at its start.
const SETUP_EVERY_S: f64 = 0.2;
/// Passes a run makes even when the window is shorter.
const MIN_PASSES: usize = 2;

/// Benign exits known to differ from vanilla's, with the cause. CPA signs
/// the 8-byte method word nginx copies in from each request, and signing
/// keeps only the bits below the virtual-address width, so CPA parses a
/// different status mix and nginx returns a different byte count. That is
/// a defect of the CPA model. Every run that meets it prints a
/// `KNOWN DIFFERENCE` note instead of failing, and the per-pass digest
/// still pins the exit. Any other difference fails the run.
const KNOWN_EXIT_DIFFERENCES: [(&str, Scheme, &str); 1] = [(
    "nginx",
    Scheme::Cpa,
    "CPA model: signing keeps only the address bits of nginx's 8-byte method word",
)];

enum Setup {
    Suite {
        subjects: Vec<Subject>,
        cfg: VmConfig,
    },
    Campaign {
        subjects: Vec<Subject>,
    },
    Server {
        server: Server,
        requests: u64,
    },
}

impl Setup {
    fn new(w: Workload, o: &Options, t: &mut Trace) -> Result<Setup, program::PythiaError> {
        let tier = |t: SizeTier| if o.smoke { SizeTier::Smoke } else { t };
        Ok(match w {
            Workload::Standard | Workload::Ref => {
                let tier = tier(if w == Workload::Ref {
                    SizeTier::Ref
                } else {
                    SizeTier::Standard
                });
                Setup::Suite {
                    subjects: program::suite(tier, o.seed, t),
                    cfg: program::suite_config(tier),
                }
            }
            Workload::Campaign => Setup::Campaign {
                subjects: program::campaign_subjects(tier(SizeTier::Standard), o.seed, t),
            },
            Workload::Server => Setup::Server {
                server: program::server_setup(o.seed, t)?,
                requests: if o.smoke { 512 } else { SERVER_REQUESTS },
            },
        })
    }

    /// Top-level calls in one pass.
    fn calls(&self) -> usize {
        match self {
            Setup::Suite { subjects, .. } => subjects.len(),
            Setup::Campaign { subjects } => subjects.len() * SCHEMES.len(),
            Setup::Server { server, .. } => server.variants.len(),
        }
    }

    fn modules(&self) -> Vec<&Subject> {
        match self {
            Setup::Suite { subjects, .. } | Setup::Campaign { subjects } => {
                subjects.iter().collect()
            }
            Setup::Server { server, .. } => vec![&server.subject],
        }
    }
}

/// One top-level call of a pass.
struct Op {
    label: String,
    secs: f64,
    /// Everything the call produced that must repeat exactly.
    digest: String,
    attempted: u64,
    /// Units of work completed (evaluations, campaigns, retired requests).
    done: u64,
    problems: Vec<String>,
    /// Differences listed in [`KNOWN_EXIT_DIFFERENCES`]: printed, not failed.
    known: Vec<String>,
    /// A campaign's detection rate.
    rate: Option<f64>,
}

impl Op {
    fn new(label: String, secs: f64, attempted: u64) -> Op {
        Op {
            label,
            secs,
            digest: String::new(),
            attempted,
            done: 0,
            problems: Vec::new(),
            known: Vec::new(),
            rate: None,
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn failed(&self) -> u64 {
        if self.problems.is_empty() {
            0
        } else {
            self.attempted
        }
    }
}

/// Run `f` and return its result with its wall-clock seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn suite_op(
    s: &Subject,
    secs: f64,
    r: Result<Vec<program::VariantDigest>, program::PythiaError>,
) -> Op {
    let mut op = Op::new(s.name.clone(), secs, 1);
    match r {
        Err(e) => op.problems.push(format!("evaluate failed: {e}")),
        Ok(variants) => {
            op.done = 1;
            let vanilla = &variants[0].exit;
            op.check(vanilla.starts_with("Returned"), || {
                format!("vanilla did not return: {vanilla}")
            });
            for v in &variants[1..] {
                if &v.exit != vanilla {
                    let what = format!(
                        "{} exit {} differs from vanilla {vanilla}",
                        v.scheme, v.exit
                    );
                    match KNOWN_EXIT_DIFFERENCES
                        .iter()
                        .find(|(name, scheme, _)| *name == s.name && *scheme == v.scheme)
                    {
                        Some((_, _, cause)) => op.known.push(format!("{what} ({cause})")),
                        None => op.problems.push(what),
                    }
                }
                op.check(v.lint_checks > 0, || {
                    format!("{} certified no obligation", v.scheme)
                });
            }
            op.digest = format!("{variants:?}");
        }
    }
    op
}

fn campaign_op(
    s: &Subject,
    scheme: Scheme,
    secs: f64,
    r: Result<program::CampaignDigest, program::PythiaError>,
) -> Op {
    let mut op = Op::new(format!("{}/{scheme}", s.name), secs, 1);
    match r {
        Err(e) => op.problems.push(format!("campaign failed: {e}")),
        Ok(c) => {
            op.done = 1;
            op.check(c.attacks > 0, || "no attack launched".to_owned());
            if scheme == Scheme::Vanilla {
                op.check(c.detected == 0, || {
                    format!("vanilla detected {}", c.detected)
                });
            }
            op.digest = format!("{c:?}");
            op.rate = Some(c.rate);
        }
    }
    op
}

/// Pythia's detection rate must reach CPA's and DFI's on every module of
/// a whole campaign pass.
fn check_campaign_ranking(ops: &mut [Op]) {
    for chunk in ops.chunks_mut(SCHEMES.len()) {
        let rates: Vec<Option<f64>> = chunk.iter().map(|op| op.rate).collect();
        if let [_, Some(cpa), Some(pythia), Some(dfi)] = rates[..] {
            if pythia < cpa || pythia < dfi {
                for op in chunk.iter_mut() {
                    op.problems.push(format!(
                        "pythia detection rate {pythia:.3} below cpa {cpa:.3} or dfi {dfi:.3}"
                    ));
                }
            }
        }
    }
}

fn server_op(
    scheme: Scheme,
    requests: u64,
    secs: f64,
    r: Result<program::ServedDigest, program::PythiaError>,
) -> Op {
    let mut op = Op::new(scheme.to_string(), secs, requests);
    match r {
        Err(e) => op.problems.push(format!("event loop failed: {e}")),
        Ok(s) => {
            op.attempted = s.admitted;
            op.done = s.retired;
            op.check(s.internal_errors == 0, || {
                format!("{} internal errors", s.internal_errors)
            });
            op.check(s.retired == requests, || {
                format!("retired {} of {requests}", s.retired)
            });
            check_detection_curve(&mut op, scheme, &s.offsets);
            op.digest = format!("{s:?}");
        }
    }
    op
}

/// The detection-vs-offset curve keeps its shape: vanilla detects
/// nothing, CPA and DFI everything, Pythia everything at the epoch
/// boundary, less (or equal) at each later offset and nothing from half an
/// epoch on.
fn check_detection_curve(op: &mut Op, scheme: Scheme, offsets: &[program::OffsetDigest]) {
    let mut last_rate = f64::INFINITY;
    for o in offsets {
        let (num, den) = o.fraction;
        let ok = match scheme {
            Scheme::Vanilla => o.detected == 0,
            Scheme::Cpa | Scheme::Dfi => o.detected == o.attacks,
            Scheme::Pythia if num == 0 => o.detected == o.attacks,
            Scheme::Pythia if 2 * num >= den => o.detected == 0,
            Scheme::Pythia => true,
        };
        op.check(ok, || {
            format!(
                "offset {num}/{den}: {} of {} detected",
                o.detected, o.attacks
            )
        });
        if o.attacks > 0 {
            let rate = o.detected as f64 / o.attacks as f64;
            op.check(rate <= last_rate, || {
                format!("detection rises at offset {num}/{den}")
            });
            last_rate = rate;
        }
    }
}

/// Make call `i` of a pass. With a trace, the call goes through its
/// mirror in [`crate::program`] instead.
fn run_call(setup: &Setup, i: usize, trace: Option<&mut Trace>) -> Op {
    match setup {
        Setup::Suite { subjects, cfg } => {
            let s = &subjects[i];
            let (r, secs) = timed(|| match trace {
                Some(t) => program::evaluate_mirrored(s, cfg, t),
                None => program::evaluate(s, cfg),
            });
            suite_op(s, secs, r)
        }
        Setup::Campaign { subjects } => {
            let s = &subjects[i / SCHEMES.len()];
            let scheme = SCHEMES[i % SCHEMES.len()];
            let (r, secs) = timed(|| match trace {
                Some(t) => program::campaign_mirrored(s, scheme, t),
                None => program::campaign(s, scheme),
            });
            campaign_op(s, scheme, secs, r)
        }
        Setup::Server { server, requests } => {
            let v = &server.variants[i];
            let serve = || program::serve(server, v, *requests);
            let Some(t) = trace else {
                let (r, secs) = timed(serve);
                return server_op(v.scheme, *requests, secs, r);
            };
            let (r, secs) = timed(|| t.time(program::scheme_key(v.scheme), serve));
            if let Ok(s) = &r {
                t.add("server.loop_s", secs);
                t.add("server.retired", s.retired as f64);
                t.add("server.slices", s.slices as f64);
                t.add("server.insts", s.insts as f64);
                t.add("heap.shared_allocs", s.shared_allocs as f64);
                t.add("heap.fastbin_hits", s.shared_reuse as f64);
                for o in &s.offsets {
                    t.add("attacks.launched", o.attacks as f64);
                    t.add("attacks.detected", o.detected as f64);
                }
            }
            server_op(v.scheme, *requests, secs, r)
        }
    }
}

/// Checks that need a whole pass: the campaign ranking.
fn check_pass(setup: &Setup, ops: &mut [Op]) {
    if let Setup::Campaign { .. } = setup {
        check_campaign_ranking(ops);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn digest_hash(ops: &[Op]) -> u64 {
    // FNV-1a over every digest: a short fingerprint to
    // compare runs of one commit (never across commits).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops {
        for b in op.label.bytes().chain(op.digest.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Run workload `w` as `o` asks.
pub fn run(w: Workload, o: &Options) -> Outcome {
    let mut notes = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut setup_secs = Vec::new();
    let mut set_up = || {
        let (s, secs) = timed(|| Setup::new(w, o, &mut Trace::default()));
        setup_secs.push(secs);
        s
    };
    for _ in 1..if o.smoke { 1 } else { SETUP_REPEATS } {
        let _ = set_up();
    }
    let setup = match set_up() {
        Ok(s) => s,
        Err(e) => {
            return Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                notes: vec![format!("set-up failed: {e}")],
            }
        }
    };

    // Calls repeat in pass order, round and round, until the next one would
    // overrun the window, and every call is made at least MIN_PASSES times.
    // The last pass may stop partway, so the whole window is used however
    // long a pass takes. Set-ups are interleaved every SETUP_EVERY_S. The
    // yardstick is measured before the first call and after every call, so
    // call j lies between yards[j] and yards[j + 1].
    let n = setup.calls();
    let min_calls = n * if o.smoke { 1 } else { MIN_PASSES };
    // Call i of pass p is ops[p * n + i].
    let mut ops: Vec<Op> = Vec::new();
    let mut fastest = vec![f64::INFINITY; n];
    let mut yardstick = Yardstick::default();
    let mut yards = vec![yardstick.measure()];
    // Each call's seconds over the mean yardstick around it.
    let mut rel = Vec::new();
    let mut last_setup = Instant::now();
    let window = Instant::now();
    loop {
        let i = ops.len() % n;
        let next_s = fastest[i] + yards[yards.len() - 1];
        if ops.len() >= min_calls && window.elapsed().as_secs_f64() + next_s > o.seconds {
            break;
        }
        let mut op = run_call(&setup, i, None);
        fastest[i] = fastest[i].min(op.secs);
        yards.push(yardstick.measure());
        rel.push(op.secs / ((yards[yards.len() - 2] + yards[yards.len() - 1]) / 2.0));
        if let Some(first) = ops.get(i) {
            if op.digest != first.digest {
                op.problems
                    .push("output differs from the first pass".to_owned());
            }
        }
        ops.push(op);
        if ops.len() == n {
            check_pass(&setup, &mut ops);
        }
        if !o.smoke && last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            let _ = set_up();
            last_setup = Instant::now();
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let first_pass = &ops[..n];

    // The host's speed drifts by tens of percent within seconds, so neither
    // a call's fastest nor its median repeat in seconds is steady from run
    // to run; its median quotient over the yardstick beside it is.
    let per_call = |xs: &[f64], i: usize| -> f64 {
        let samples: Vec<f64> = xs.iter().skip(i).step_by(n).copied().collect();
        median(&samples)
    };
    let secs: Vec<f64> = ops.iter().map(|op| op.secs).collect();
    let call_s: Vec<f64> = (0..n).map(|i| per_call(&secs, i)).collect();
    let pass_rel: f64 = (0..n).map(|i| per_call(&rel, i)).sum();
    // Seconds of a pass: notes, and the base of `trace.overhead_ratio`.
    let pass_s: f64 = call_s.iter().sum();
    let (setup_q1, setup_q3) = quartiles(&setup_secs);
    let (yard_q1, yard_q3) = quartiles(&yards);
    notes.push(format!(
        "{} calls ({:.2} passes of {n}) in {window_s:.2} s; pass of per-call medians {pass_s:.4} s; \
         {} set-ups, quartiles {setup_q1:.6} .. {setup_q3:.6} s; \
         {} yardsticks, median {:.6} s, quartiles {yard_q1:.6} .. {yard_q3:.6} s",
        ops.len(),
        ops.len() as f64 / n as f64,
        setup_secs.len(),
        yards.len(),
        median(&yards)
    ));
    let (slowest, slowest_secs) = first_pass
        .iter()
        .zip(&call_s)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("a pass makes at least one call");
    notes.push(format!(
        "slowest call {} {slowest_secs:.4} s; output_digest {:016x}",
        slowest.label,
        digest_hash(first_pass)
    ));
    if let Setup::Server { .. } = setup {
        for (op, secs) in first_pass.iter().zip(&call_s) {
            notes.push(format!("rps.{} {:.1}", op.label, op.done as f64 / secs));
        }
    }
    for op in first_pass {
        for k in &op.known {
            notes.push(format!("KNOWN DIFFERENCE {}: {k}", op.label));
        }
    }

    let metrics = if o.trace {
        traced(w, o, &setup, first_pass, pass_s, &mut problems, &mut notes)
    } else {
        let rss = peak_rss_mib();
        if rss.is_none() {
            problems.push("VmHWM unavailable".to_owned());
        }
        let values = [median(&setup_secs), pass_rel, rss.unwrap_or(0.0)];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric {
                def,
                value,
                probe: false,
            })
            .collect()
    };

    let attempted: u64 = ops.iter().map(|op| op.attempted).sum();
    let failed: u64 = ops.iter().map(Op::failed).sum();
    for (k, op) in ops.iter().enumerate() {
        for what in &op.problems {
            problems.push(format!("pass {} {}: {what}", k / n, op.label));
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.def.name));
        }
    }
    notes.push(format!(
        "fail_ratio {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    ));
    notes.extend(problems.iter().map(|p| format!("FAILED {p}")));
    Outcome {
        correct: failed == 0 && problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    }
}

/// The traced part of a run: a timed set-up, one mirrored pass, and the
/// probes. Returns every per-layer metric.
fn traced(
    w: Workload,
    o: &Options,
    setup: &Setup,
    reference: &[Op],
    untraced_pass_s: f64,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut t = Trace::default();
    if let Err(e) = Setup::new(w, o, &mut t) {
        problems.push(format!("traced set-up failed: {e}"));
    }

    let mut pass_trace = Trace::default();
    let (mut ops, wall) = timed(|| {
        (0..setup.calls())
            .map(|i| run_call(setup, i, Some(&mut pass_trace)))
            .collect::<Vec<Op>>()
    });
    check_pass(setup, &mut ops);
    for (op, r) in ops.iter().zip(reference) {
        if op.digest != r.digest || !op.problems.is_empty() {
            problems.push(format!(
                "traced {} differs from the program: {:?}",
                op.label, op.problems
            ));
        }
    }
    let coverage = pass_trace.covered() / wall;
    let overhead = wall / untraced_pass_s - 1.0;
    if coverage < 0.9 {
        notes.push(format!(
            "mirror stale: timers cover {coverage:.3} of the traced pass"
        ));
    }
    t.merge(&pass_trace);
    t.add("trace.coverage", coverage);
    t.add("trace.overhead_ratio", overhead);

    for s in setup.modules() {
        program::component_probes(&s.module, &mut t);
    }
    if let Setup::Server { server, .. } = setup {
        let runs = if o.smoke { 50 } else { SERVER_PROBE_RUNS };
        for v in &server.variants {
            if let Err(e) = program::server_vm_probe(server, v, runs, &mut t) {
                problems.push(format!("server probe failed: {e}"));
            }
        }
    }

    // A layer the workload never calls is measured by running the suite
    // mirror once over the workload's own modules.
    let mut gap: Option<Trace> = None;
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in &PER_LAYER {
        let (value, probe) = match t.layer_metric(def.name) {
            Some(v) => (v, false),
            None => {
                let gap = gap.get_or_insert_with(|| {
                    let mut g = Trace::default();
                    let cfg = program::suite_config(SizeTier::Standard);
                    for s in setup.modules() {
                        if let Err(e) = program::evaluate_mirrored(s, &cfg, &mut g) {
                            problems.push(format!("probe of {} failed: {e}", s.name));
                        }
                    }
                    g
                });
                (gap.layer_metric(def.name).unwrap_or(f64::NAN), true)
            }
        };
        metrics.push(Metric { def, value, probe });
    }
    metrics
}
