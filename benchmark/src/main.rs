//! The parsweep benchmark: time-to-verdict and jobs/s end to end through
//! the shipped binaries, a per-layer budget underneath. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's contract)
//! benchmark [--seed N] [--repeats K] [--trace] [--smoke] [--seconds S] [--out FILE]
//!                                                           every workload, every metric by name
//! benchmark gen                                             rebuild the frozen inputs
//! benchmark compare A.json B.json                           two result files against the bounds
//! benchmark spec                                            print BENCHMARK.json
//! ```

mod compare;
mod eng;
mod inputs;
mod json;
mod layers;
mod net;
mod run;
mod spans;
mod spec;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::{Env, Length, Report};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The benchmark's own directory: `run.sh` exports it; from a checkout
/// root it is `benchmark`.
fn bench_dir() -> PathBuf {
    std::env::var_os("PARSWEEP_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// The shipped binaries sit next to this one in the target directory.
fn environment() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.parent().ok_or("benchmark binary has no directory")?;
    let dir = bench_dir();
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let env = Env {
        parsweep: bin.join("parsweep"),
        net: bin.join("net"),
        inputs: dir.join("inputs"),
        out: dir.join("out"),
    };
    for program in [&env.parsweep, &env.net] {
        if !program.is_file() {
            return Err(format!("{}: not built (use run.sh)", program.display()));
        }
    }
    Ok(env)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let dir = bench_dir().join("inputs");
            inputs::generate_frozen(&dir)?;
            let digests = run::derived_digests(&dir, &bench_dir().join("out/gen"))?;
            inputs::record_derived(&dir, &digests)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare needs two result files".into());
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            Ok(if compare::compare(&read(a)?, &read(b)?) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let flags = Flags::parse(args)?;
            match &flags.workload {
                Some(workload) => single(&flags, workload),
                None => suite(&flags),
            }
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    repeats: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            workload: None,
            seed: 1,
            repeats: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out: None,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
                v.parse().map_err(|_| format!("{name}: bad number '{v}'"))
            }
            match arg.as_str() {
                "--workload" => flags.workload = Some(value("--workload")?.clone()),
                "--seed" => flags.seed = num("--seed", value("--seed")?)?,
                "--repeats" => flags.repeats = num("--repeats", value("--repeats")?)?,
                "--seconds" => flags.seconds = num("--seconds", value("--seconds")?)?,
                "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
                "--smoke" => flags.smoke = true,
                // `--trace` alone, or the driver's `--trace 0|1`.
                "--trace" => {
                    flags.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(flags)
    }
}

/// Runs one workload once, traced or not, and checks that exactly the
/// metrics of the contract came back.
fn measure(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Report, String> {
    spec::workload(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let (outcome, expected) = if trace {
        (layers::run(env, workload, seed, smoke)?, spec::PER_LAYER)
    } else {
        let length = if smoke { Length::Smoke } else { Length::Full };
        (
            run::run(env, workload, seed, seconds, length)?,
            spec::END_TO_END,
        )
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name).collect();
    if names != wanted {
        return Err(format!(
            "{workload}: emitted metrics {names:?} are not the contract's {wanted:?}"
        ));
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{workload}: {name} is {value}"));
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("benchmark: failed: {failure}");
    }
    Ok(outcome)
}

/// The driver's contract: one run, the result as the last line of stdout.
fn single(flags: &Flags, workload: &str) -> Result<ExitCode, String> {
    let env = environment()?;
    let outcome = measure(
        &env,
        workload,
        flags.seed,
        flags.seconds,
        flags.trace,
        flags.smoke,
    )?;
    let table = if flags.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    // `measure` checked that the metrics are the table's, in its order.
    let metrics = outcome.metrics.iter().zip(table).map(|((name, value), m)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
        )
    });
    eprint!("{}", outcome.detail.pretty());
    let line = Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Run hygiene, recorded with every result file.
fn header(flags: &Flags) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(cores as f64)),
        ("cpu", Json::str(sys::cpu_model())),
        ("load_average_at_start", Json::str(sys::load_average())),
        ("seed", Json::Num(flags.seed as f64)),
        ("repeats", Json::Num(flags.repeats as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("smoke", Json::Bool(flags.smoke)),
        ("server_flags", Json::str(net::SERVER_FLAGS.join(" "))),
        (
            "client_shape",
            Json::str(format!(
                "closed loop, {} connections x window {}",
                run::CONNECTIONS,
                run::WINDOW
            )),
        ),
    ])
}

fn committed_spec_matches() -> Result<(), String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if committed != spec::benchmark_json() {
        return Err(format!(
            "{} differs from `benchmark spec`: regenerate it",
            path.display()
        ));
    }
    Ok(())
}

/// Names are what the driver and `compare` key on.
fn check_charset() -> Result<(), String> {
    let ok = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        if !ok(m.name, "_.-", 64) || !ok(m.unit, "_/%.-", 16) {
            return Err(format!(
                "metric '{}' ({}) breaks the naming rules",
                m.name, m.unit
            ));
        }
    }
    for w in spec::WORKLOADS {
        if !ok(w.name, "_.-", 64) || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("workload '{}' breaks the naming rules", w.name));
        }
    }
    Ok(())
}

/// Every workload: each metric by name with its unit on stdout, the
/// samples behind it in the result file.
fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let env = environment()?;
    check_charset()?;
    if flags.smoke {
        committed_spec_matches()?;
    }
    let header = header(flags);
    println!(
        "# parsweep benchmark{}",
        if flags.smoke { " (smoke)" } else { "" }
    );
    for (key, value) in header.as_obj().unwrap_or_default() {
        println!("# {key}: {}", value.compact());
    }
    let seconds = if flags.smoke {
        flags.seconds / 20.0
    } else {
        flags.seconds
    };
    let mut failed_total = 0;
    let mut workloads = Vec::new();
    for spec::Workload {
        name: workload,
        why,
        ..
    } in spec::WORKLOADS
    {
        println!("\n## {workload}: {why}");
        let mut sections = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        let mut details = Vec::new();
        for (section, table, traced) in [
            ("end_to_end", spec::END_TO_END, false),
            ("per_layer", spec::PER_LAYER, true),
        ] {
            if traced && !flags.trace && !flags.smoke {
                continue;
            }
            let mut columns: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
            for repeat in 0..flags.repeats.max(1) {
                let o = measure(
                    &env,
                    workload,
                    flags.seed + repeat,
                    seconds,
                    traced,
                    flags.smoke,
                )?;
                attempted += o.attempted;
                failed += o.failures.len() as u64;
                for (column, (_, value)) in columns.iter_mut().zip(&o.metrics) {
                    column.push(*value);
                }
                details.push(o.detail);
            }
            let mut rows = Vec::new();
            for (metric, values) in table.iter().zip(&columns) {
                let median = stats::median(values);
                let spread = stats::quartile_spread(values);
                println!(
                    "{workload:<11} {:<26} {median:>16.6} {:<9} spread {:>5.1}% of {} runs",
                    metric.name,
                    metric.unit,
                    100.0 * spread,
                    values.len()
                );
                rows.push((
                    metric.name,
                    Json::obj([
                        ("unit", Json::str(metric.unit)),
                        ("median", Json::Num(median)),
                        ("spread", Json::Num(spread)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ]),
                ));
            }
            sections.push((section, Json::obj(rows)));
        }
        let share = failed as f64 / attempted.max(1) as f64;
        println!(
            "{workload:<11} {:<26} {share:>16.6} ratio     {failed} of {attempted} operations",
            "failed_share"
        );
        failed_total += failed;
        let mut fields = vec![
            ("why", Json::str(*why)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("failed_share", Json::Num(share)),
        ];
        fields.extend(sections);
        fields.push(("runs", Json::Arr(details)));
        workloads.push((*workload, Json::obj(fields)));
    }
    let results = Json::obj([("header", header), ("workloads", Json::obj(workloads))]);
    let out = flags.out.clone().unwrap_or_else(|| {
        env.out.join(if flags.smoke {
            "smoke.json"
        } else {
            "results.json"
        })
    });
    write_file(&out, &results.pretty())?;
    println!("\n# results: {}", out.display());
    if flags.trace && !flags.smoke {
        let layers = env.out.join("layers.json");
        write_file(&layers, &layers_view(&results).pretty())?;
        println!("# layers:  {}", layers.display());
    }
    if failed_total > 0 {
        return Err(format!("{failed_total} operations failed"));
    }
    Ok(ExitCode::SUCCESS)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `layers.json`: per workload, the per-layer table and the self time of
/// every span of its first traced run.
fn layers_view(results: &Json) -> Json {
    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    Json::obj(workloads.iter().map(|(name, w)| {
        let spans = w
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|runs| runs.iter().find_map(|r| r.get("spans")))
            .cloned()
            .unwrap_or(Json::Null);
        (
            name.as_str(),
            Json::obj([
                (
                    "per_layer",
                    w.get("per_layer").cloned().unwrap_or(Json::Null),
                ),
                ("spans", spans),
            ]),
        )
    }))
}
