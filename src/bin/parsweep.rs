//! The `parsweep` command-line tool: equivalence checking and AIG
//! utilities over AIGER files.
//!
//! ```text
//! parsweep check <left.aig> <right.aig> [--engine sim|sat|portfolio|combined] [--budget <s>]
//! parsweep stats <file.aig>
//! parsweep optimize <in.aig> <out.aig>
//! parsweep convert <in.aag|aig> <out.aag|aig>
//! parsweep double <in.aig> <out.aig> --times <n>
//! parsweep fraig <in.aig> <out.aig>
//! parsweep verilog <in.aig> [out.v]
//! parsweep dot <in.aig> [out.dot]
//! ```
//!
//! Exit codes for `check`: 0 equivalent, 1 not equivalent, 2 undecided,
//! also when stdout closes early (`parsweep check … | head`): output past
//! that point is dropped, the verdict's code is kept.
//!
//! `check` honours `PARSWEEP_TRACE=<path>`: in a build with the `trace`
//! feature it records spans (engine phases and steps, kernel launches, SAT)
//! and writes them as a Chrome trace to `<path>` at exit.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parsweep::aig::{
    aiger, dot, read_miter, verilog, Aig, NetworkStats, ParseAigerError, ReadMiterError,
};
use parsweep::engine::{
    combined_check_cancellable, sim_sweep_cancellable, CombinedConfig, EngineConfig, Report,
    Verdict,
};
use parsweep::par::{CancelToken, Executor};
use parsweep::sat::{portfolio_check, sat_sweep, PortfolioConfig, SweepConfig};
use parsweep::synth::resyn2;
use parsweep_trace as trace;

/// Writes `text` to stdout, the one path every stdout write of the
/// binary takes. Once a write fails (a reader such as `head` has
/// exited) later output is dropped, so the command still ends with its
/// own exit code; a failure other than a closed pipe is noted on stderr.
fn write_stdout(text: std::fmt::Arguments) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("parsweep: stdout: {e}");
        }
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  parsweep check <left> <right> [--engine sim|sat|portfolio|combined] [--budget <s>]\n  \
         parsweep stats <file>\n  \
         parsweep optimize <in> <out>\n  \
         parsweep convert <in> <out>\n  \
         parsweep double <in> <out> --times <n>\n  \
         parsweep fraig <in> <out>\n  \
         parsweep verilog <in> [out]\n  \
         parsweep dot <in> [out]"
    );
    ExitCode::from(64)
}

fn load(path: &str) -> Result<Aig, String> {
    aiger::read_aiger_file(path).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(65)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "check" => with_env_trace(|| cmd_check(&args[1..])),
        "stats" => {
            let [path] = &args[1..] else {
                return Ok(usage());
            };
            let aig = load(path)?;
            outln!("{}", NetworkStats::of(&aig));
            Ok(ExitCode::SUCCESS)
        }
        "optimize" => {
            let [input, output] = &args[1..] else {
                return Ok(usage());
            };
            let aig = load(input)?;
            let opt = resyn2(&aig);
            outln!(
                "{} -> {} ANDs, depth {} -> {}",
                aig.num_ands(),
                opt.num_ands(),
                aig.depth(),
                opt.depth()
            );
            aiger::write_aiger_file(&opt, output).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "convert" => {
            let [input, output] = &args[1..] else {
                return Ok(usage());
            };
            let aig = load(input)?;
            aiger::write_aiger_file(&aig, output).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "double" => {
            let mut times = 1usize;
            let mut files: Vec<&String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--times" {
                    times = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--times needs a number")?;
                } else {
                    files.push(a);
                }
            }
            let [input, output] = files[..] else {
                return Ok(usage());
            };
            let aig = load(input)?;
            let doubled = aig.double_times(times);
            outln!(
                "{} ANDs -> {} ANDs ({} copies)",
                aig.num_ands(),
                doubled.num_ands(),
                1usize << times
            );
            aiger::write_aiger_file(&doubled, output).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "fraig" => {
            let [input, output] = &args[1..] else {
                return Ok(usage());
            };
            let aig = load(input)?;
            let exec = Executor::new();
            let r =
                parsweep::engine::fraig(&aig, &exec, &parsweep::engine::EngineConfig::default());
            outln!(
                "{} -> {} ANDs ({} equivalences merged)",
                aig.num_ands(),
                r.reduced.num_ands(),
                r.stats.proved_pairs
            );
            aiger::write_aiger_file(&r.reduced, output).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "verilog" => {
            let input = args.get(1).ok_or("verilog needs an input file")?;
            let aig = load(input)?;
            match args.get(2) {
                Some(out) => {
                    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
                    verilog::write_verilog(&aig, "parsweep_dut", file)
                        .map_err(|e| e.to_string())?;
                }
                None => write_stdout(format_args!(
                    "{}",
                    verilog::to_verilog_string(&aig, "parsweep_dut")
                )),
            }
            Ok(ExitCode::SUCCESS)
        }
        "dot" => {
            let input = args.get(1).ok_or("dot needs an input file")?;
            let aig = load(input)?;
            match args.get(2) {
                Some(out) => {
                    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
                    dot::write_dot(&aig, file).map_err(|e| e.to_string())?;
                }
                None => write_stdout(format_args!("{}", dot::to_dot_string(&aig))),
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

/// Runs `f` with the span collector on when `PARSWEEP_TRACE` names an
/// output path, then writes the Chrome trace there.
fn with_env_trace<T>(f: impl FnOnce() -> T) -> T {
    let path = trace::env_trace_path();
    if path.is_some() && !trace::compiled() {
        eprintln!(
            "parsweep: PARSWEEP_TRACE is set but this build lacks the 'trace' feature; \
             no spans will be recorded"
        );
    }
    let path = path.filter(|_| trace::compiled());
    if path.is_some() {
        trace::enable();
    }
    let out = f();
    if let Some(path) = path {
        trace::disable();
        match trace::write_chrome_trace(&path) {
            Ok(()) => eprintln!("parsweep: wrote Chrome trace to {path}"),
            Err(e) => eprintln!("parsweep: failed to write trace {path}: {e}"),
        }
    }
    out
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let mut engine = "combined".to_string();
    let mut budget = Duration::from_secs(300);
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => {
                engine = it.next().ok_or("--engine needs a value")?.clone();
            }
            "--budget" => {
                budget = Duration::from_secs(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--budget needs seconds")?,
                );
            }
            _ => files.push(a),
        }
    }
    let [left_path, right_path] = files[..] else {
        return Err("check needs exactly two AIGER files".into());
    };
    let open = |path: &str| {
        std::fs::File::open(path).map_err(|e| format!("{path}: {}", ParseAigerError::Io(e)))
    };
    let m = read_miter(open(left_path)?, open(right_path)?).map_err(|e| match e {
        ReadMiterError::Left(e) => format!("{left_path}: {e}"),
        ReadMiterError::Right(e) => format!("{right_path}: {e}"),
        ReadMiterError::Interface(e) => e.to_string(),
    })?;
    let exec = Executor::new();
    // `sim` and `combined` poll one deadline for the whole check; `sat`
    // and `portfolio` take the budget as their sweeper's wall budget.
    let token = CancelToken::with_deadline(budget);
    let sat_cfg = SweepConfig {
        wall_budget: Some(budget),
        ..SweepConfig::default()
    };
    let verdict = match engine.as_str() {
        "sim" => {
            let r = sim_sweep_cancellable(&m, &exec, &EngineConfig::default(), &token);
            outln!("{}", Report::new(&r));
            r.verdict
        }
        "sat" => sat_sweep(&m, &exec, &sat_cfg).verdict,
        "portfolio" => {
            portfolio_check(
                &m,
                &exec,
                &PortfolioConfig {
                    sweep: sat_cfg,
                    ..PortfolioConfig::default()
                },
            )
            .verdict
        }
        "combined" => {
            let r = combined_check_cancellable(&m, &exec, &CombinedConfig::default(), &token);
            outln!("{}", Report::new(&r.engine));
            if matches!(r.engine.verdict, Verdict::Undecided) {
                outln!("sat fallback: {:.3}s", r.sat_seconds);
            }
            r.verdict
        }
        other => return Err(format!("unknown engine {other:?}")),
    };
    match verdict {
        Verdict::Equivalent => {
            outln!("EQUIVALENT");
            Ok(ExitCode::SUCCESS)
        }
        Verdict::NotEquivalent(cex) => {
            outln!("NOT EQUIVALENT");
            outln!("counter-example: {:?}", cex.inputs());
            let d = parsweep::engine::diagnose(&m, &cex);
            outln!("firing output pairs: {:?}", d.firing_pos);
            outln!("minimized pattern:   {:?}", d.minimized.inputs());
            Ok(ExitCode::from(1))
        }
        Verdict::Undecided => {
            outln!("UNDECIDED (budget exhausted)");
            Ok(ExitCode::from(2))
        }
    }
}
