//! Malformed run knobs fail loudly: `reproduce` rejects an invalid
//! `--engine`, `PYTHIA_CTX_POLICY`, `PYTHIA_THREADS`, section name,
//! switch or server-scenario size with exit status 2 and names the
//! problem, before any benchmark runs.

use pythia_workloads::EventLoopConfig;
use std::path::Path;
use std::process::Command;

/// Run `reproduce` with `args` and the knob environment cleared except
/// for `env`; returns the exit code, stdout and stderr.
fn reproduce(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(args)
        .env_remove("PYTHIA_CTX_POLICY")
        .env_remove("PYTHIA_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn reproduce");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_context_policies_exit_2_with_the_valid_list() {
    for bad in ["objsens", "1cfa", "bogus"] {
        let (code, _, err) = reproduce(&["eq6"], &[("PYTHIA_CTX_POLICY", bad)]);
        assert_eq!(code, Some(2), "PYTHIA_CTX_POLICY={bad}: {err}");
        assert!(err.contains(bad), "PYTHIA_CTX_POLICY={bad}: {err}");
        assert!(
            err.contains("insensitive|summary-1cfa|summary-2cfa"),
            "PYTHIA_CTX_POLICY={bad} must name the valid policies: {err}"
        );
    }
}

#[test]
fn bad_thread_counts_exit_2() {
    for bad in ["0", "abc"] {
        let (code, _, err) = reproduce(&["eq6"], &[("PYTHIA_THREADS", bad)]);
        assert_eq!(code, Some(2), "PYTHIA_THREADS={bad}: {err}");
        assert!(err.contains("positive integer"), "PYTHIA_THREADS={bad}: {err}");
    }
}

#[test]
fn unknown_engine_exits_2() {
    let (code, _, err) = reproduce(&["--engine", "blok", "eq6"], &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("legacy|block"), "{err}");
}

#[test]
fn section_names_are_checked_before_any_work() {
    // A valid section ahead of the bad one must not run (and print)
    // first: the suite fig4a needs would otherwise be evaluated.
    let (code, out, err) = reproduce(&["--smoke", "fig4a", "bogus"], &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(out.is_empty(), "nothing may reach stdout:\n{out}");
    assert!(err.contains("unknown section `bogus`"), "{err}");
}

#[test]
fn removed_switches_exit_2() {
    // `--bench-json` now always records lint status and the profile.
    for removed in ["--lint", "--profile"] {
        let (code, out, err) = reproduce(&["--smoke", removed, "eq6"], &[]);
        assert_eq!(code, Some(2), "{removed}: {err}");
        assert!(out.is_empty(), "{removed}: nothing may reach stdout:\n{out}");
        assert!(err.contains(&format!("unknown option `{removed}`")), "{err}");
    }
}

#[test]
fn server_sizes_the_loop_cannot_run_exit_2_before_any_work() {
    let max = EventLoopConfig::max_connections();
    let over = (max + 1).to_string();
    let bound = format!("1..={max} connections");
    for (connections, requests, why) in [
        ("8", "100", "requests >= 4 * epoch_len"),
        (over.as_str(), "256", bound.as_str()),
    ] {
        let argv = [
            "--scenario",
            "server",
            "--connections",
            connections,
            "--requests",
            requests,
        ];
        let (code, out, err) = reproduce(&argv, &[]);
        assert_eq!(code, Some(2), "{argv:?}: {err}");
        assert!(out.is_empty(), "{argv:?}: nothing may reach stdout:\n{out}");
        assert!(err.contains(why), "{argv:?}: {err}");
    }
}

/// An end-to-end smoke run at the accepted maximum: 256 requests close
/// too few connections to fragment the isolated section, so the churn
/// headroom in the bound is checked by the workloads unit test
/// `scratch_churn_fits_the_isolated_section_at_max_connections`.
#[test]
fn server_runs_the_largest_accepted_connection_count_cleanly() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("knobs-max-connections");
    let max = EventLoopConfig::max_connections().to_string();
    let argv = [
        "--scenario",
        "server",
        "--connections",
        &max,
        "--requests",
        "256",
        "--out",
        dir.to_str().unwrap(),
    ];
    let (code, _, err) = reproduce(&argv, &[("PYTHIA_THREADS", "1")]);
    assert_eq!(code, Some(0), "{err}");
    let json = std::fs::read_to_string(dir.join("BENCH_server.json")).unwrap();
    let errors: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"internal_errors\""))
        .collect();
    assert_eq!(errors.len(), 4, "one loop per scheme:\n{json}");
    for line in errors {
        assert_eq!(line.trim(), "\"internal_errors\": 0,");
    }
}
