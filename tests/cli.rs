//! The `parsweep` binary as a user runs it: exit codes of `check` on the
//! committed benchmark pairs.

use std::process::Command;

/// Runs `parsweep check` on the benchmark pair `name` with extra
/// arguments and returns its exit code.
fn check(name: &str, args: &[&str]) -> i32 {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/inputs");
    let out = Command::new(env!("CARGO_BIN_EXE_parsweep"))
        .arg("check")
        .arg(format!("{dir}/{name}.L.aig"))
        .arg(format!("{dir}/{name}.R.aig"))
        .args(args)
        .output()
        .expect("parsweep runs");
    out.status.code().expect("parsweep exits with a code")
}

#[test]
fn budget_bounds_the_sim_engine_and_the_combined_flow() {
    // A spent budget leaves both engines undecided (exit 2), though each
    // proves the pair given time.
    for engine in ["sim", "combined"] {
        assert_eq!(
            check("multiplier_w10_1xd", &["--engine", engine, "--budget", "0"]),
            2,
            "{engine}"
        );
    }
    assert_eq!(check("multiplier_w10_1xd", &["--budget", "60"]), 0);
}

#[test]
fn check_honours_parsweep_trace() {
    // With the collector compiled in, the trace lands at the named path;
    // without it, `check` warns and runs as usual.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/inputs");
    let path = std::env::temp_dir().join(format!("parsweep-cli-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_parsweep"))
        .arg("check")
        .arg(format!("{dir}/sqrt_w4_1xd.L.aig"))
        .arg(format!("{dir}/sqrt_w4_1xd.R.aig"))
        .env("PARSWEEP_TRACE", &path)
        .output()
        .expect("parsweep runs");
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    if cfg!(feature = "trace") {
        assert!(written
            .expect("trace written")
            .contains("\"engine.p.windows\""));
    } else {
        assert!(written.is_err(), "no trace without the collector");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("lacks the 'trace' feature"), "{stderr}");
    }
}
