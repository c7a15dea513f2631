//! `pythia-cli` — work with textual PIR programs from the command line.
//!
//! ```text
//! pythia-cli print      <file.pir>                 parse, verify, pretty-print
//! pythia-cli analyze    <file.pir>                 vulnerability report
//! pythia-cli opt        <file.pir> [-o out.pir]    optimize (fold/DCE/simplify)
//! pythia-cli instrument <file.pir> --scheme S [-o out.pir]
//! pythia-cli run        <file.pir> [--seed N] [--entry F] [--arg V]... [--trace N]
//! pythia-cli attack     <file.pir> --ic N --len L [--value V] [--scheme S]
//! pythia-cli gen        <profile>  [-o out.pir]    emit a benchmark module
//! ```
//!
//! Schemes: `vanilla`, `cpa`, `pythia`, `dfi`. `instrument` and `attack`
//! build the variant the evaluation ships — instrumented from the pruned
//! obligations and statically certified — and exit 1 if it fails
//! certification.

use pythia::analysis::{CtxPolicy, SliceContext, VulnerabilityReport};
use pythia::ir::{parser, printer, verify, Module};
use pythia::lint::VariantBuilder;
use pythia::passes::{optimize_module, Instrumented, Scheme};
use pythia::vm::{AttackSpec, InputPlan, Vm, VmConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "print" => cmd_print(rest),
        "analyze" => cmd_analyze(rest),
        "opt" => cmd_opt(rest),
        "instrument" => cmd_instrument(rest),
        "run" => cmd_run(rest),
        "attack" => cmd_attack(rest),
        "gen" => cmd_gen(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: pythia-cli <print|analyze|opt|instrument|run|attack|gen> ... (see --help)".to_owned()
}

/// Positional + `--flag value` argument scanning.
struct Opts<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

fn parse_opts(args: &[String]) -> Result<Opts<'_>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name, v.as_str()));
            i += 2;
        } else if a == "-o" {
            let v = args.get(i + 1).ok_or("-o needs a value")?;
            flags.push(("out", v.as_str()));
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok(Opts { positional, flags })
}

impl<'a> Opts<'a> {
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
    fn file(&self) -> Result<&'a str, String> {
        self.positional
            .first()
            .copied()
            .ok_or_else(|| "missing input file".to_owned())
    }
}

fn load(path: &str) -> Result<Module, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let m = parser::parse_module(&src).map_err(|e| format!("{path}: {e}"))?;
    if let Err(errs) = verify::verify_module(&m) {
        return Err(format!(
            "{path}: module does not verify: {}",
            errs.first().map(ToString::to_string).unwrap_or_default()
        ));
    }
    Ok(m)
}

fn emit(m: &Module, opts: &Opts<'_>) -> Result<(), String> {
    let text = printer::print_module(m);
    match opts.flag("out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn parse_scheme(s: Option<&str>) -> Result<Scheme, String> {
    match s.unwrap_or("pythia") {
        "vanilla" => Ok(Scheme::Vanilla),
        "cpa" => Ok(Scheme::Cpa),
        "pythia" => Ok(Scheme::Pythia),
        "dfi" => Ok(Scheme::Dfi),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let m = load(opts.file()?)?;
    emit(&m, &opts)
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let m = load(opts.file()?)?;
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    println!("module            {}", m.name);
    println!("functions         {}", m.functions().len());
    println!("instructions      {}", m.num_insts());
    println!("branches          {}", report.num_branches());
    println!(
        "  unaffected      {:.1}%",
        report.effect_fraction(pythia::analysis::IcEffect::Unaffected) * 100.0
    );
    println!(
        "  direct          {:.1}%",
        report.effect_fraction(pythia::analysis::IcEffect::Direct) * 100.0
    );
    println!(
        "  indirect        {:.1}%",
        report.effect_fraction(pythia::analysis::IcEffect::Indirect) * 100.0
    );
    println!("input channels    {}", ctx.channels.total());
    println!(
        "vulnerable vars   cpa {:.1}%  pythia {:.1}%",
        report.cpa_value_fraction() * 100.0,
        report.pythia_value_fraction() * 100.0
    );
    println!(
        "stack/heap vulns  {} / {}",
        report.num_stack_vulns(),
        report.heap_vulns.len()
    );
    println!(
        "branches secured  pythia {:.1}%  dfi {:.1}%",
        report.pythia_secured_fraction() * 100.0,
        report.dfi_secured_fraction() * 100.0
    );
    println!(
        "attack distance   ic {:.1}  dfi {:.1}  pythia {:.1}",
        report.mean_ic_distance(),
        report.mean_dfi_distance(),
        report.mean_pythia_distance()
    );
    Ok(())
}

fn cmd_opt(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let mut m = load(opts.file()?)?;
    let stats = optimize_module(&mut m);
    eprintln!(
        "folded {} / dce {} / branches {} / dead blocks {}",
        stats.folded, stats.dce_removed, stats.branches_folded, stats.blocks_neutralized
    );
    emit(&m, &opts)
}

/// `scheme`'s variant of `m` as the evaluation ships it: instrumented
/// from the pruned report and statically certified.
fn certified(m: &Module, scheme: Scheme) -> Result<Instrumented, String> {
    let build = VariantBuilder::new(m, CtxPolicy::default());
    let inst = build.instrument(scheme);
    build
        .certify(&build.certifier(), &inst)
        .map_err(|e| e.to_string())?;
    Ok(inst)
}

fn cmd_instrument(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let m = load(opts.file()?)?;
    let scheme = parse_scheme(opts.flag("scheme"))?;
    let inst = certified(&m, scheme)?;
    eprintln!(
        "{}: {} -> {} instructions, {} PA ops, {} canaries, {} setdef/chkdef",
        scheme,
        inst.stats.insts_before,
        inst.stats.insts_after,
        inst.stats.pa_total(),
        inst.stats.canaries,
        inst.stats.dfi_total(),
    );
    emit(&inst.module, &opts)
}

fn vm_config(opts: &Opts<'_>) -> Result<VmConfig, String> {
    let mut cfg = VmConfig::default();
    if let Some(s) = opts.flag("seed") {
        cfg.seed = s.parse().map_err(|_| "bad --seed")?;
    }
    if let Some(t) = opts.flag("trace") {
        cfg.trace_limit = t.parse().map_err(|_| "bad --trace")?;
    }
    Ok(cfg)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let m = load(opts.file()?)?;
    let cfg = vm_config(&opts)?;
    let entry = opts.flag("entry").unwrap_or("main");
    let vm_args: Vec<i64> = opts
        .flags
        .iter()
        .filter(|(n, _)| *n == "arg")
        .map(|(_, v)| v.parse().map_err(|_| format!("bad --arg {v}")))
        .collect::<Result<_, _>>()?;
    let seed = cfg.seed;
    let mut vm = Vm::new(&m, cfg, InputPlan::benign(seed));
    let r = vm.run(entry, &vm_args).map_err(|e| e.to_string())?;
    println!("exit        {:?}", r.exit);
    println!("instructions {}", r.metrics.insts);
    println!("cycles      {}", r.metrics.cycles());
    println!("ipc         {:.2}", r.metrics.ipc());
    println!("pa ops      {}", r.metrics.pa_insts);
    println!("ic calls    {}", r.metrics.ic_calls);
    if !vm.trace().is_empty() {
        println!("--- trace ---");
        for e in vm.trace() {
            println!("{:>12}  {}::{}", e.mnemonic, m.func(e.func).name, e.value);
        }
    }
    Ok(())
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let m = load(opts.file()?)?;
    let scheme = parse_scheme(opts.flag("scheme"))?;
    let ic: u64 = opts
        .flag("ic")
        .ok_or("--ic <n> required (which writing-channel execution)")?
        .parse()
        .map_err(|_| "bad --ic")?;
    let len: usize = opts
        .flag("len")
        .ok_or("--len <bytes> required")?
        .parse()
        .map_err(|_| "bad --len")?;
    let spec = match opts.flag("value") {
        Some(v) => AttackSpec::aimed(ic, len, v.parse().map_err(|_| "bad --value")?),
        None => AttackSpec::smash(ic, len),
    };
    let cfg = vm_config(&opts)?;
    let inst = certified(&m, scheme)?;
    let seed = cfg.seed;
    let mut vm = Vm::new(&inst.module, cfg, InputPlan::with_attack(seed, spec));
    let r = vm
        .run(opts.flag("entry").unwrap_or("main"), &[])
        .map_err(|e| e.to_string())?;
    match r.detected() {
        Some(mech) => println!("DETECTED by {mech:?} ({:?})", r.exit),
        None => println!("not detected: {:?}", r.exit),
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let name = opts
        .positional
        .first()
        .ok_or("missing profile name (e.g. `gcc`, `519.lbm_r`, `nginx`)")?;
    let m = if *name == "nginx" {
        pythia::workloads::nginx_module(
            opts.flag("requests")
                .map(|r| r.parse().map_err(|_| "bad --requests"))
                .transpose()?
                .unwrap_or(60),
        )
    } else {
        let p = pythia::workloads::profile_by_name(name)
            .ok_or_else(|| format!("no profile matching `{name}`"))?;
        pythia::workloads::generate(p)
    };
    emit(&m, &opts)
}
