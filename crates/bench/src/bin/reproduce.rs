//! Regenerate the paper's tables and figures (see DESIGN.md §4).
//!
//! Usage: `reproduce [--out <dir>] [--engine <legacy|block>]
//! [--tier <smoke|standard|ref>] [--only <name[,name...]>]
//! [--scenario server [--connections N] [--requests M] [--seed S]]
//! [--bench-json] [--smoke] [section...]`
//! where a section is one of `fig4a fig4b fig5a fig5b fig6a fig6b fig7a
//! fig7b dist precision policies dynpa heap campaign models nginx motiv
//! eq6 ablations profile` — or nothing for the full report. Every
//! section name is checked before any work: an unknown one exits 2 with
//! nothing on stdout.
//!
//! `--tier` selects the benchmark size tier (DESIGN.md §5g): `standard`
//! (default) is the historical suite size, `ref` scales every profile to
//! ~3× static / ~36× dynamic size (with the VM instruction budget scaled
//! to match), `smoke` shrinks them for quick health checks. The report
//! stays byte-identical across worker counts within a tier.
//!
//! `--only <name[,name...]>` restricts the suite to the named benchmarks
//! (partial SPEC names match; `nginx` selects the server workload) —
//! `scripts/check.sh` uses this for the fast ref-tier gate. Unknown
//! names are rejected before anything runs, with the valid list printed.
//!
//! `--scenario server` skips the suite and runs the event-loop
//! multi-tenant server workload instead (DESIGN.md §5i): one event loop
//! per protection scheme multiplexing `--connections` slots over
//! `--requests` requests each (defaults 64 and 250,000 — 1M simulated
//! requests across the 4 schemes), with attack payloads delivered at
//! swept offsets inside the canary re-randomization window. Fewer than
//! 256 requests or more than 4096 connections exit 2 up front. Writes
//! `BENCH_server.json` (byte-identical across runs and engines) into
//! `--out`/cwd, prints the detection-vs-offset table to stdout, and the
//! engine-dependent wall-clock requests/sec to stderr.
//!
//! `--bench-json` additionally writes `BENCH_suite.json` and `profile.md`
//! (into the `--out` directory when given, else the working directory).
//! The JSON (schema listed in DESIGN.md §5g) carries the suite's total
//! and per-phase wall-clock timings, the worker count, and per benchmark
//! a `status` field (`ok` or the error variant), its static-certification
//! status (`"lint": "certified"` plus the number of protection
//! obligations `pythia-lint` checked, `"violated"` when the lint gate
//! rejected a variant, `"not-reached"` when an earlier error stopped the
//! benchmark) and its execution profile (per-scheme PA sign/auth/strip
//! counters with the static-site cross-check, opcode histograms, heap
//! allocator stats, backward slices computed — DESIGN.md §5d).
//! `profile.md` is the human-readable cost-attribution section, which
//! the `profile` section also prints. `report.md` never includes it, so
//! determinism diffs keep working.
//!
//! `--smoke` evaluates only a tiny suite (lbm, mcf, a short nginx run)
//! and skips the sections that need the full suite — a CI-speed health
//! check, used by `scripts/check.sh`.
//!
//! `--engine <legacy|block>` selects the VM execution engine (default:
//! the block-cached engine). Both engines are observation-equivalent —
//! `report.md` is byte-identical either way; only the wall-clock numbers
//! in `BENCH_suite.json` and `profile.md` move. `scripts/check.sh` and
//! `scripts/bench.sh` use this to diff the engines against each other.
//!
//! Two environment variables complete the run's configuration, read once
//! here and passed down as a [`RunConfig`]:
//!
//! - `PYTHIA_CTX_POLICY` ∈ {`insensitive`, `summary-1cfa`,
//!   `summary-2cfa`} selects the context policy of every analysis the
//!   run makes (default `summary-2cfa`; DESIGN.md §5j).
//! - `PYTHIA_THREADS` (a positive integer) sets the width of the one
//!   worker pool (default: available parallelism): how many suite
//!   benchmarks, nginx-sweep workers or server event loops run at once.
//!   Each benchmark's scheme variants always run serially.
//!
//! An invalid `--engine`, policy or thread count exits 2 and names the
//! valid values.
//!
//! A benchmark that fails to evaluate does not abort the run: it shows up
//! in the report's error section (and in `BENCH_suite.json` as its error
//! variant), the remaining benchmarks render normally, and the process
//! exits with status 1.

use pythia_bench::experiments as exp;
use pythia_core::{CtxPolicy, Engine, RunConfig, VmConfig};

/// Print `msg` and exit with the usage status.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The run's configuration: `engine` from `--engine`, the context policy
/// and worker count from the environment. Exits 2 on an invalid value.
fn run_config(engine: Engine) -> RunConfig {
    let ctx_policy = match std::env::var("PYTHIA_CTX_POLICY") {
        Err(std::env::VarError::NotPresent) => CtxPolicy::default(),
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("PYTHIA_CTX_POLICY: {e}"))),
        Err(e) => usage_error(&format!("PYTHIA_CTX_POLICY: {e}")),
    };
    let threads = match std::env::var("PYTHIA_THREADS") {
        Err(std::env::VarError::NotPresent) => {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!(
                "PYTHIA_THREADS: bad value `{s}` (expected a positive integer)"
            )),
        },
        Err(e) => usage_error(&format!("PYTHIA_THREADS: {e}")),
    };
    RunConfig {
        vm: VmConfig {
            engine,
            ..VmConfig::default()
        },
        ctx_policy,
        threads,
    }
}

/// Pop `flag <value>` from the argument list; exits 2 with `missing`
/// when the value is absent.
fn take_flag(args: &mut Vec<String>, flag: &str, missing: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage_error(missing);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pop a bare `flag` from the argument list; whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(i);
    true
}

/// Pop a server-scenario `flag <positive integer>`; exits 2 on a
/// missing/bad value or when the flag appears without `--scenario`.
fn take_value(args: &mut Vec<String>, flag: &str, scenario_active: bool) -> Option<u64> {
    let v = take_flag(args, flag, &format!("{flag} needs a value"))?;
    if !scenario_active {
        usage_error(&format!("{flag} only applies with --scenario server"));
    }
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => usage_error(&format!(
            "{flag}: bad value `{v}` (expected a positive integer)"
        )),
    }
}

/// Run `--scenario server`: write BENCH_server.json (deterministic,
/// engine-free), print the detection table to stdout and the
/// engine-dependent wall-clock throughput to stderr. Exit code 1 when
/// any event loop recorded an internal error.
fn run_server(spec: &pythia_bench::ServerScenarioSpec, out_dir: Option<&str>) -> i32 {
    let run = match pythia_bench::run_server_scenario(spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce: server scenario failed: {e}");
            return 1;
        }
    };
    let dir = out_dir.unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create out dir");
    let path = std::path::Path::new(dir).join("BENCH_server.json");
    std::fs::write(&path, &run.json).expect("write BENCH_server.json");
    println!("{}", run.table);
    let engine = spec.run.vm.engine.name();
    for r in &run.runs {
        eprintln!(
            "server[{engine}] {}: {:.0} wall req/s ({} requests, {:.2}s)",
            r.scheme.name(),
            r.stats.retired as f64 / r.wall_secs.max(1e-9),
            r.stats.retired,
            r.wall_secs
        );
    }
    eprintln!(
        "wrote {} ({} requests total, {:.2}s)",
        path.display(),
        run.total_requests,
        run.wall_secs
    );
    if run.internal_errors > 0 {
        eprintln!(
            "reproduce: server scenario recorded {} internal errors",
            run.internal_errors
        );
        return 1;
    }
    0
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--out <dir>` writes the report to <dir>/report.md instead of stdout.
    let out_dir = take_flag(&mut args, "--out", "--out needs a directory");
    let engine = match take_flag(
        &mut args,
        "--engine",
        "--engine needs a value (legacy|block)",
    ) {
        None => Engine::Block,
        Some(name) => match name.as_str() {
            "legacy" => Engine::Legacy,
            "block" => Engine::Block,
            other => usage_error(&format!("unknown engine `{other}` (expected legacy|block)")),
        },
    };
    let run = run_config(engine);
    let tier = match take_flag(
        &mut args,
        "--tier",
        "--tier needs a value (smoke|standard|ref)",
    ) {
        None => pythia_workloads::SizeTier::Standard,
        Some(t) => pythia_workloads::SizeTier::parse(&t).unwrap_or_else(|| {
            usage_error(&format!("unknown tier `{t}` (expected smoke|standard|ref)"))
        }),
    };
    let only: Option<Vec<String>> = take_flag(
        &mut args,
        "--only",
        "--only needs a comma-separated benchmark list",
    )
    .map(|names| {
        let names: Vec<String> = names.split(',').map(str::to_owned).collect();
        // Reject unknown names up front, before any benchmark runs —
        // a typo'd --only must not burn a whole suite pass to report
        // one "unknown profile" row.
        if let Err(bad) = exp::validate_only_names(&names) {
            usage_error(&format!(
                "unknown benchmark `{bad}` for --only (partial SPEC names match); valid names: {}",
                exp::valid_only_names().join(", ")
            ));
        }
        names
    });
    // `--scenario server [--connections N] [--requests M] [--seed S]`
    // runs the event-loop server scenario (DESIGN.md §5i) instead of the
    // suite: writes BENCH_server.json, prints the detection-vs-offset
    // table to stdout and per-engine wall throughput to stderr.
    let scenario = take_flag(&mut args, "--scenario", "--scenario needs a name (server)");
    let mut spec = pythia_bench::ServerScenarioSpec {
        run: run.clone(),
        ..Default::default()
    };
    if let Some(v) = take_value(&mut args, "--connections", scenario.is_some()) {
        spec.connections = v as usize;
    }
    if let Some(v) = take_value(&mut args, "--requests", scenario.is_some()) {
        spec.requests = v;
    }
    if let Some(v) = take_value(&mut args, "--seed", scenario.is_some()) {
        spec.seed = v;
    }
    let bench_json = take_switch(&mut args, "--bench-json");
    let smoke = take_switch(&mut args, "--smoke");
    // Every remaining argument must name a section; check them all before
    // any work, so a typo (or a removed switch) costs nothing.
    let sections: Vec<exp::Render> = args.iter().map_while(|a| exp::section(a)).collect();
    if let Some(bad) = args.get(sections.len()) {
        let kind = if bad.starts_with('-') {
            "option"
        } else {
            "section"
        };
        usage_error(&format!("unknown {kind} `{bad}`"));
    }
    if let Some(name) = &scenario {
        if name != "server" {
            usage_error(&format!("unknown scenario `{name}` (expected: server)"));
        }
        if let Err(e) = spec.loop_config().validate() {
            usage_error(&format!("--scenario server: {e}"));
        }
        std::process::exit(run_server(&spec, out_dir.as_deref()));
    }

    // Experiments that need the evaluated suite share one run.
    let run_suite_now = args.is_empty() || bench_json || sections.iter().any(|r| r.needs_suite());
    let suite = run_suite_now.then(|| {
        let selection = match only {
            Some(names) => exp::Selection::Only(names),
            None if smoke => exp::Selection::Smoke,
            None => exp::Selection::Full,
        };
        let suite = exp::run_suite(&exp::SuiteSpec {
            selection,
            tier,
            run: run.clone(),
        });
        if bench_json {
            let dir = std::path::Path::new(out_dir.as_deref().unwrap_or("."));
            std::fs::create_dir_all(dir).expect("create out dir");
            std::fs::write(dir.join("BENCH_suite.json"), &suite.json)
                .expect("write BENCH_suite.json");
            std::fs::write(dir.join("profile.md"), &suite.profile_md).expect("write profile.md");
            eprintln!(
                "wrote {} and profile.md ({} tier, {} threads, {:.2}s total)",
                dir.join("BENCH_suite.json").display(),
                suite.tier.name(),
                suite.timing.threads,
                suite.timing.total_secs
            );
        }
        suite
    });

    // One failed benchmark must not hide the others, but it must not
    // look like success either: report every failure on stderr and exit 1.
    let mut failed = false;
    for entry in suite.iter().flat_map(|s| &s.entries) {
        if let Some(e) = entry.error() {
            eprintln!("reproduce: `{}` failed to evaluate: {e}", entry.name);
            failed = true;
        }
    }

    if args.is_empty() {
        let entries = &suite.as_ref().unwrap().entries;
        let report = if smoke {
            // The full report's non-suite sections (campaign, ablations,
            // nginx sweep, ...) defeat the point of a smoke run; render
            // just the suite-backed health summary.
            let evals = exp::ok_evaluations(entries);
            let mut r = exp::errors_section(entries);
            if !r.is_empty() {
                r.push('\n');
            }
            r.push_str(&exp::fig4a(&evals));
            r
        } else {
            exp::render_all(entries, &run)
        };
        // The profile section never joins report.md: report bytes are the
        // determinism surface that scripts/bench.sh diffs serial vs
        // parallel, and wall-clock seconds would break it.
        match out_dir {
            Some(dir) => {
                std::fs::create_dir_all(&dir).expect("create out dir");
                let path = std::path::Path::new(&dir).join("report.md");
                std::fs::write(&path, &report).expect("write report");
                eprintln!("wrote {}", path.display());
            }
            None => println!("{report}"),
        }
        std::process::exit(i32::from(failed));
    }
    let evals = suite
        .as_ref()
        .map(|s| exp::ok_evaluations(&s.entries))
        .unwrap_or_default();
    let profile_md = suite.as_ref().map_or("", |s| s.profile_md.as_str());
    for r in sections {
        println!("{}", r.render(&evals, profile_md, &run));
    }
    std::process::exit(i32::from(failed));
}
