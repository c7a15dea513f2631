//! Malformed run knobs fail loudly: `reproduce` rejects an invalid
//! `--engine`, `PYTHIA_CTX_POLICY` or `PYTHIA_THREADS` with exit status 2
//! and names the valid values, before any benchmark runs.

use std::process::Command;

/// Run `reproduce eq6` with `args` and the knob environment cleared except
/// for `env`; returns the exit code and stderr.
fn reproduce(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(args)
        .arg("eq6")
        .env_remove("PYTHIA_CTX_POLICY")
        .env_remove("PYTHIA_THREADS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn reproduce");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_context_policies_exit_2_with_the_valid_list() {
    for bad in ["objsens", "1cfa", "bogus"] {
        let (code, err) = reproduce(&[], &[("PYTHIA_CTX_POLICY", bad)]);
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
        let (code, err) = reproduce(&[], &[("PYTHIA_THREADS", bad)]);
        assert_eq!(code, Some(2), "PYTHIA_THREADS={bad}: {err}");
        assert!(err.contains("positive integer"), "PYTHIA_THREADS={bad}: {err}");
    }
}

#[test]
fn unknown_engine_exits_2() {
    let (code, err) = reproduce(&["--engine", "blok"], &[]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("legacy|block"), "{err}");
}
