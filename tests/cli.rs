//! End-to-end tests of the `pythia-cli` binary: generate → analyze →
//! instrument → run → attack, all through the textual PIR format on disk.

use pythia::core::{evaluate, Scheme, VmConfig};
use pythia::ir::parser;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pythia-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pythia-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn ok(out: &Output) -> String {
    assert!(
        out.status.success(),
        "cli failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gen_print_roundtrip() {
    let dir = tmpdir("roundtrip");
    let f = dir.join("lbm.pir");
    ok(&cli()
        .args(["gen", "lbm", "-o", f.to_str().unwrap()])
        .output()
        .unwrap());
    let printed = ok(&cli().args(["print", f.to_str().unwrap()]).output().unwrap());
    assert!(printed.contains("module \"519.lbm_r\""));
    assert!(printed.contains("func @main"));
}

#[test]
fn instrument_ships_the_evaluations_pa_count() {
    // `instrument` must emit the pruned, certified build `evaluate`
    // measures, not the unpruned one.
    let dir = tmpdir("shipped");
    let f = dir.join("mcf.pir");
    ok(&cli()
        .args(["gen", "505.mcf_r", "-o", f.to_str().unwrap()])
        .output()
        .unwrap());
    let out = cli()
        .args(["instrument", f.to_str().unwrap(), "--scheme", "cpa"])
        .output()
        .unwrap();
    ok(&out);
    let summary = String::from_utf8_lossy(&out.stderr);
    let pa: usize = summary
        .split(", ")
        .find_map(|part| part.strip_suffix(" PA ops"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no PA count in {summary:?}"));
    let m = parser::parse_module(&std::fs::read_to_string(&f).unwrap()).unwrap();
    let ev = evaluate(&m, &[Scheme::Cpa], 1, &VmConfig::default()).unwrap();
    assert_eq!(pa, ev.result(Scheme::Cpa).unwrap().stats.pa_total());
}

#[test]
fn analyze_reports_summary() {
    let dir = tmpdir("analyze");
    let f = dir.join("mcf.pir");
    ok(&cli()
        .args(["gen", "mcf", "-o", f.to_str().unwrap()])
        .output()
        .unwrap());
    let text = ok(&cli()
        .args(["analyze", f.to_str().unwrap()])
        .output()
        .unwrap());
    assert!(text.contains("branches"));
    assert!(text.contains("input channels"));
    assert!(text.contains("branches secured"));
}

#[test]
fn instrument_then_run() {
    let dir = tmpdir("instr");
    let f = dir.join("xz.pir");
    let g = dir.join("xz.pythia.pir");
    ok(&cli()
        .args(["gen", "xz", "-o", f.to_str().unwrap()])
        .output()
        .unwrap());
    ok(&cli()
        .args([
            "instrument",
            f.to_str().unwrap(),
            "--scheme",
            "pythia",
            "-o",
            g.to_str().unwrap(),
        ])
        .output()
        .unwrap());
    let run = ok(&cli().args(["run", g.to_str().unwrap()]).output().unwrap());
    assert!(run.contains("exit        Returned"), "{run}");
    assert!(run.contains("pa ops"));
}

#[test]
fn opt_reduces_or_keeps_instructions() {
    let dir = tmpdir("opt");
    let f = dir.join("nab.pir");
    let g = dir.join("nab.opt.pir");
    ok(&cli()
        .args(["gen", "nab", "-o", f.to_str().unwrap()])
        .output()
        .unwrap());
    ok(&cli()
        .args(["opt", f.to_str().unwrap(), "-o", g.to_str().unwrap()])
        .output()
        .unwrap());
    let before = std::fs::read_to_string(&f).unwrap().lines().count();
    let after = std::fs::read_to_string(&g).unwrap().lines().count();
    assert!(after <= before);
    // The optimized module must still run.
    let run = ok(&cli().args(["run", g.to_str().unwrap()]).output().unwrap());
    assert!(run.contains("Returned"));
}

#[test]
fn attack_detected_under_pythia_cli() {
    // A hand-written vulnerable program through the full CLI path.
    let dir = tmpdir("attack");
    let f = dir.join("vuln.pir");
    std::fs::write(
        &f,
        r#"
module "vuln"
global @fmt : [3 x i8] = str "%d"
func @main() -> i64 {
bb0:
  %0 = alloca [8 x i8] x 1
  %1 = alloca i64 x 1
  %2 = call! scanf(@fmt, %1) : i64
  %3 = call! gets(%0) : i8*
  %4 = load %1 : i64
  %5 = icmp sgt %4, 1000:i64
  br %5, bb1, bb2
bb1:
  ret 1:i64
bb2:
  ret 0:i64
}
"#,
    )
    .unwrap();
    // Unprotected: the overflow (writing channel #1 = gets) bends it.
    let vanilla = ok(&cli()
        .args([
            "attack",
            f.to_str().unwrap(),
            "--scheme",
            "vanilla",
            "--ic",
            "1",
            "--len",
            "24",
            "--value",
            "2000",
        ])
        .output()
        .unwrap());
    assert!(vanilla.contains("not detected"), "{vanilla}");
    assert!(vanilla.contains("Returned(1)"), "{vanilla}");

    // Pythia: canary trap.
    let pythia = ok(&cli()
        .args([
            "attack",
            f.to_str().unwrap(),
            "--scheme",
            "pythia",
            "--ic",
            "1",
            "--len",
            "24",
            "--value",
            "2000",
        ])
        .output()
        .unwrap());
    assert!(pythia.contains("DETECTED by Canary"), "{pythia}");
}

#[test]
fn bad_input_fails_cleanly() {
    let dir = tmpdir("bad");
    let f = dir.join("junk.pir");
    std::fs::write(&f, "this is not PIR").unwrap();
    let out = cli().args(["print", f.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_with_trace_prints_instructions() {
    let dir = tmpdir("trace");
    let f = dir.join("t.pir");
    std::fs::write(
        &f,
        "module \"t\"\nfunc @main() -> i64 {\nbb0:\n  %0 = alloca i64 x 1\n  store 7:i64, %0\n  %1 = load %0 : i64\n  ret %1\n}\n",
    )
    .unwrap();
    let out = ok(&cli()
        .args(["run", f.to_str().unwrap(), "--trace", "10"])
        .output()
        .unwrap());
    assert!(out.contains("--- trace ---"), "{out}");
    assert!(out.contains("alloca"), "{out}");
    assert!(out.contains("ret"), "{out}");
    assert!(out.contains("Returned(7)"), "{out}");
}
