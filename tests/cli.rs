//! The `parsweep` binary as a user runs it: exit codes of `check` on the
//! committed benchmark pairs, its input-error contract, and the one-pass
//! miter reader it uses on every committed pair.

use std::process::{Command, Output, Stdio};

use parsweep::aig::{miter, read_aiger_file, read_miter};
use parsweep::sim::Cex;

const INPUTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/inputs");

/// Runs `parsweep check` on the benchmark files `left.aig` and
/// `right.aig` with extra arguments.
fn run_check(left: &str, right: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parsweep"))
        .arg("check")
        .arg(format!("{INPUTS}/{left}.aig"))
        .arg(format!("{INPUTS}/{right}.aig"))
        .args(args)
        .output()
        .expect("parsweep runs")
}

/// Runs `parsweep check` on the benchmark pair `name` with extra
/// arguments and returns its exit code.
fn check(name: &str, args: &[&str]) -> i32 {
    let out = run_check(&format!("{name}.L"), &format!("{name}.R"), args);
    out.status.code().expect("parsweep exits with a code")
}

#[test]
fn portfolio_engine_proves_and_prints_a_firing_counter_example() {
    let args = ["--engine", "portfolio", "--budget", "10"];
    assert_eq!(check("multiplier_w4_1xd", &args), 0);
    let (left, right) = ("sqrt_w10_1xd.L", "sqrt_w10_1xd.flip.R");
    let out = run_check(left, right, &args);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counter-example: "))
        .unwrap_or_else(|| panic!("no counter-example printed: {stdout}"));
    let bits = printed.trim_matches(['[', ']']).split(", ");
    let cex = Cex::new(bits.map(|b| b == "true").collect());
    let load = |name: &str| read_aiger_file(format!("{INPUTS}/{name}.aig")).unwrap();
    let m = miter(&load(left), &load(right)).unwrap();
    assert_eq!(cex.inputs().len(), m.num_pis());
    assert!(cex.fires(&m), "the printed counter-example must fire");
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
    let path = std::env::temp_dir().join(format!("parsweep-cli-trace-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_parsweep"))
        .arg("check")
        .arg(format!("{INPUTS}/sqrt_w4_1xd.L.aig"))
        .arg(format!("{INPUTS}/sqrt_w4_1xd.R.aig"))
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

#[test]
fn a_closed_stdout_keeps_the_verdicts_exit_code() {
    // The reader is gone before `check` prints its report: the verdict
    // still sets the exit code, and nothing panics.
    let mut child = Command::new(env!("CARGO_BIN_EXE_parsweep"))
        .arg("check")
        .arg(format!("{INPUTS}/sqrt_w10_1xd.L.aig"))
        .arg(format!("{INPUTS}/sqrt_w10_1xd.rare.R.aig"))
        .args(["--budget", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("parsweep runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("parsweep exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn input_errors_exit_65_with_the_message() {
    let out = run_check("sqrt_w4_1xd.L", "multiplier_w4_1xd.R", &[]);
    assert_eq!(out.status.code(), Some(65));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "error: primary output counts differ: 8 vs 16\n");

    // A missing file on either side is named, whatever the other holds.
    let missing = format!("{INPUTS}/no_such_pair.L.aig");
    let present = format!("{INPUTS}/sqrt_w4_1xd.L.aig");
    for pair in [[&missing, &present], [&present, &missing]] {
        let out = Command::new(env!("CARGO_BIN_EXE_parsweep"))
            .arg("check")
            .args(pair)
            .output()
            .expect("parsweep runs");
        assert_eq!(out.status.code(), Some(65));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: {missing}: i/o error: ")),
            "{stderr}"
        );
    }
}

#[test]
fn read_miter_builds_the_two_step_miter_on_every_committed_pair() {
    let mut pairs = 0;
    for entry in std::fs::read_dir(INPUTS).expect("benchmark inputs") {
        let name = entry.expect("directory entry").file_name();
        let Some(base) = name.to_str().and_then(|n| n.strip_suffix(".L.aig")) else {
            continue;
        };
        for right in ["R", "rare.R", "flip.R"] {
            let right = format!("{INPUTS}/{base}.{right}.aig");
            if !std::path::Path::new(&right).exists() {
                continue;
            }
            let left = format!("{INPUTS}/{base}.L.aig");
            let open = |path: &str| std::fs::File::open(path).expect("input opens");
            let m = read_miter(open(&left), open(&right)).expect("pair reads");
            let want = miter(
                &read_aiger_file(&left).expect("left reads"),
                &read_aiger_file(&right).expect("right reads"),
            )
            .expect("pair miters");
            assert_eq!(m.nodes(), want.nodes(), "{right}");
            assert_eq!(m.pis(), want.pis(), "{right}");
            assert_eq!(m.pos(), want.pos(), "{right}");
            pairs += 1;
        }
    }
    assert_eq!(pairs, 26, "every committed pair and mutant");
}
