//! Command line of the benchmark (normally started through `run.sh`).
//!
//! ```text
//! pythia-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! pythia-benchmark --compare DIR_A DIR_B
//! ```
//!
//! The first form runs one workload and prints its metrics, then the
//! result object as the last line of standard output (and into
//! `DIR/<workload>[.trace].json`). The second prints the relative change of
//! every metric between two such directories. Exit status: 0 when every
//! check held, 1 when one failed, 2 on bad arguments or environment.

use pythia_benchmark::json::{self, Json};
use pythia_benchmark::workloads::{self, Options, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 28.0;

/// Knobs that would silently change what is measured.
const FORBIDDEN_ENV: [&str; 3] = ["PYTHIA_ENGINE", "PYTHIA_CTX_POLICY", "PYTHIA_CTX_BUDGET"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("pythia-benchmark: {msg}");
    eprintln!(
        "usage: pythia-benchmark --workload {{standard|ref|server|campaign}} [--seed S] \
         [--seconds T] [--trace 0|1] [--out DIR]\n       pythia-benchmark --compare DIR_A DIR_B"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if let Some(k) = FORBIDDEN_ENV.iter().find(|k| std::env::var_os(k).is_some()) {
        return usage(&format!(
            "{k} is set; unset it so the measured pipeline is the default one"
        ));
    }
    // One lane: `evaluate` runs its scheme variants serially under this
    // setting, so at most the VM's interpreter thread runs beside this one.
    std::env::set_var("PYTHIA_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage("--compare takes two directories"),
        };
    }

    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => opts.seconds = s,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not `{value}`")),
            },
            "--out" => out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    println!(
        "# workload {} seed {} seconds {} trace {} nproc {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = workloads::run(workload, &opts);
    for m in &outcome.metrics {
        println!(
            "{} = {} {}{}",
            m.def.name,
            m.value,
            m.def.unit,
            if m.probe { " (probe)" } else { "" }
        );
    }
    for n in &outcome.notes {
        println!("# {n}");
    }
    let line = pythia_benchmark::result_json(&outcome);
    if let Some(dir) = out {
        let file = dir.join(format!(
            "{}{}.json",
            workload.name(),
            if opts.trace { ".trace" } else { "" }
        ));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, &line)) {
            eprintln!("pythia-benchmark: cannot write {}: {e}", file.display());
            return ExitCode::from(1);
        }
    }
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The metrics of one result file, by name.
fn read_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{}: no metrics object", path.display()))?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Print `(b - a) / a` for every metric of every result file in both
/// directories.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let mut files: Vec<PathBuf> = match std::fs::read_dir(a) {
        Ok(d) => d.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => return usage(&format!("{}: {e}", a.display())),
    };
    files.sort();
    println!(
        "{:<40} {:>14} {:>14} {:>9}",
        "workload/metric", "a", "b", "change"
    );
    for fa in files
        .iter()
        .filter(|f| f.extension().is_some_and(|x| x == "json"))
    {
        let name = fa.file_name().expect("listed files have names");
        let fb = b.join(name);
        let (ma, mb) = match (read_metrics(fa), read_metrics(&fb)) {
            (Ok(ma), Ok(mb)) => (ma, mb),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("pythia-benchmark: {e}");
                return ExitCode::from(1);
            }
        };
        let stem = name.to_string_lossy().trim_end_matches(".json").to_owned();
        for (k, va) in &ma {
            if let Some((_, vb)) = mb.iter().find(|(kb, _)| kb == k) {
                let change = if *va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va.abs()
                };
                println!(
                    "{:<40} {va:>14.6} {vb:>14.6} {:>8.1}%",
                    format!("{stem}/{k}"),
                    change * 100.0
                );
            }
        }
    }
    ExitCode::SUCCESS
}
