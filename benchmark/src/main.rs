//! The one benchmark of the athena-fusion stack. See README.md.
//!
//! ```text
//! fusion-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, in this process
//! fusion-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace] [--check]
//!                                                     the suite: a fresh process per run
//! fusion-benchmark --calibrate                        capacity probe of the service workloads
//! fusion-benchmark --manifest                         print BENCHMARK.json
//! ```

mod json;
mod manifest;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::{metric_value, J};
use manifest::{END_TO_END, EXACT_BYTES_ON, RUN_SECONDS};
use report::Setup;
use workloads::{Shape, Workload, NAMES};

/// Untimed seconds before the timed interval of every run.
const WARMUP_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: one run in this process, as the driver asks for it.
    trace_value: Option<bool>,
    /// Bare `--trace`: the suite also makes a traced run per workload.
    trace_suite: bool,
    check: bool,
    /// Set by the suite on its child runs: exit 3 if a response was wrong
    /// or the offered load was invalid. A driver run without it exits 0
    /// whenever it printed a result line; `correct` carries the verdict.
    strict: bool,
    calibrate: bool,
    manifest: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        seconds: RUN_SECONDS as f64,
        out: PathBuf::from("benchmark/out"),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" | "--duration" => {
                args.seconds = value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("{flag} must be in (0, 600]"));
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") | Some("1") => args.trace_value = Some(it.next().as_deref() == Some("1")),
                _ => args.trace_suite = true,
            },
            "--check" => args.check = true,
            "--strict" => args.strict = true,
            "--calibrate" => args.calibrate = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !NAMES.iter().any(|(n, _)| n == w) {
            let names: Vec<_> = NAMES.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// What is stamped into every result: identical on both sides of any
/// comparison, or the comparison is void.
fn settings(args: &Args, workload: &Workload) -> J {
    let admission = fusion_service::AdmissionConfig::default();
    let mut fields = vec![
        ("seed", J::Int(args.seed)),
        ("tpcds_scale", J::Num(workloads::SCALE)),
        ("parallelism", J::Int(workloads::PARALLELISM as u64)),
        (
            "nproc",
            J::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "commit",
            J::str(std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "rustc",
            J::str(std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        ("warmup_s", J::Num(WARMUP_S)),
        ("seconds", J::Num(args.seconds)),
        ("setups", J::Int(SETUPS as u64)),
        ("fusion", J::Bool(true)),
        ("pipelines", J::Bool(true)),
        ("reuse", J::Bool(workload.reuse)),
        ("read_latency_ms", J::Int(0)),
    ];
    if let Shape::Service(spec) = &workload.shape {
        fields.extend([
            ("offered_qps", J::Num(spec.rate_qps)),
            ("zipf_exponent", J::Num(spec.zipf.unwrap_or(0.0))),
            ("tenants", J::Int(workloads::TENANTS as u64)),
            ("templates", J::Int(workload.pool.len() as u64)),
            (
                "max_window_queries",
                J::Int(admission.max_window_queries as u64),
            ),
            (
                "max_window_wait_ms",
                J::Num(admission.max_window_wait.as_secs_f64() * 1e3),
            ),
            (
                "reuse_cache_max_bytes",
                J::Int(spec.reuse_config().cache.max_bytes as u64),
            ),
        ]);
    }
    J::obj(fields)
}

fn detail_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "run-{workload}{}.json",
        if traced { "-trace" } else { "" }
    ))
}

/// One workload, measured in this process. Prints the report and, last,
/// the result line.
fn run_one(args: &Args, name: &str, traced: bool) -> Result<bool, String> {
    let workload =
        workloads::build(name, args.seed).ok_or_else(|| format!("unknown workload {name}"))?;
    let (world, setup_s) = world::set_up(args.seed, &workload, SETUPS)?;
    let setup = Setup {
        setup_s,
        times: SETUPS,
        datagen_s: world.datagen_s,
        register_s: world.register_s,
        reference_s: world.reference_s,
    };
    let settings = settings(args, &workload);
    let mut tracer = traced.then(trace::Tracer::new);
    let (rec, info) = run::run(
        world,
        &workload,
        args.seed,
        Duration::from_secs_f64(WARMUP_S),
        Duration::from_secs_f64(args.seconds),
        tracer.as_mut(),
    );
    let end_to_end = report::end_to_end(&rec, &setup).ok_or("the run completed no query")?;
    let layers = tracer
        .as_ref()
        .map(|tr| report::per_layer(tr, &rec, info.as_ref(), &setup));

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if let Some(tr) = &tracer {
        let path = args.out.join(format!("trace-{name}.jsonl"));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // A traced run reports the per-layer metrics: its end-to-end numbers
    // carry the replay's interference.
    let reported = layers.as_ref().map_or(&end_to_end, |l| &l.metrics);
    let report = report::Report {
        workload: name,
        traced,
        metrics: reported,
        rec: &rec,
        info: info.as_ref(),
        layers: layers.as_ref(),
    };
    report.print();
    let path = detail_path(&args.out, name, traced);
    std::fs::write(&path, report.detail(settings, &setup).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(!args.strict || (rec.failed == 0 && info.is_none_or(|i| i.valid)))
}

/// What the suite keeps of one child run.
struct ChildRun {
    workload: &'static str,
    result_line: String,
    detail: String,
    ok: bool,
}

/// Run one workload in a fresh process and echo its report.
fn spawn_run(args: &Args, workload: &'static str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--strict",
            "--out",
        ])
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result_line = stdout.lines().last().unwrap_or_default().to_string();
    let detail =
        std::fs::read_to_string(detail_path(&args.out, workload, traced)).unwrap_or_default();
    // Exit 3 is a run whose outputs were wrong or whose load was invalid:
    // it still has a report worth keeping.
    if !output.status.success() && output.status.code() != Some(3) {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    Ok(ChildRun {
        workload,
        result_line,
        detail,
        ok: output.status.success(),
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    NAMES
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every selected workload, each in a fresh process; with `trace_suite`,
/// a traced run of each as well, and what tracing cost.
fn suite(args: &Args) -> Result<(Vec<ChildRun>, bool), String> {
    let mut runs = Vec::new();
    let mut all_ok = true;
    for workload in selected(args) {
        let plain = spawn_run(args, workload, false)?;
        all_ok &= plain.ok;
        if args.trace_suite {
            let traced = spawn_run(args, workload, true)?;
            all_ok &= traced.ok;
            let untraced_ms = metric_value(&plain.result_line, "geomean_p50_ms").unwrap_or(0.0);
            let traced_ms = metric_value(&traced.result_line, "trace.op_p50_ms").unwrap_or(0.0);
            println!(
                "trace[{workload}]: overhead {:.3} (traced {traced_ms:.3} ms / untraced {untraced_ms:.3} ms geomean_p50_ms), coverage {:.3}",
                traced_ms / untraced_ms.max(1e-12),
                metric_value(&traced.result_line, "trace.coverage").unwrap_or(0.0)
            );
            runs.push(traced);
        }
        runs.push(plain);
    }
    Ok((runs, all_ok))
}

fn write_result(args: &Args, runs: &[ChildRun]) -> Result<(), String> {
    let result = J::obj([
        (
            "benchmark",
            J::str("athena-fusion: one benchmark for the whole stack"),
        ),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        (
            "runs",
            J::Arr(
                runs.iter()
                    .map(|r| {
                        J::obj([
                            ("workload", J::str(r.workload)),
                            (
                                "result",
                                J::Raw(if r.result_line.starts_with('{') {
                                    r.result_line.clone()
                                } else {
                                    "null".into()
                                }),
                            ),
                            (
                                "detail",
                                J::Raw(if r.detail.is_empty() {
                                    "null".into()
                                } else {
                                    r.detail.clone()
                                }),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = args.out.join("result.json");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    std::fs::write(&path, result.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The suite twice; every gated metric of every workload must agree
/// within its bound, and `bytes_scanned_per_query` exactly where one
/// client and no timer make it a pure count.
fn check(args: &Args) -> Result<bool, String> {
    if args.trace_suite {
        return Err("--check compares untraced runs; drop --trace".into());
    }
    let (first, ok_first) = suite(args)?;
    let (second, ok_second) = suite(args)?;
    let mut agree = ok_first && ok_second;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (
                metric_value(&a.result_line, m.name),
                metric_value(&b.result_line, m.name),
            ) else {
                return Err(format!("{}: no {} in the result line", a.workload, m.name));
            };
            let diff = (y - x).abs() / x.abs().max(1e-12);
            let exact = m.name == "bytes_scanned_per_query"
                && EXACT_BYTES_ON.iter().any(|p| a.workload.starts_with(p));
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            let verdict = if diff <= bound { "" } else { "  DIFFERS" };
            agree &= diff <= bound;
            println!(
                "{:<16} {:<26} {x:>14.4} {y:>14.4} {diff:>9.4} {bound:>7.2}{verdict}",
                a.workload, m.name
            );
        }
    }
    write_result(args, &second)?;
    Ok(agree)
}

/// Closed-loop capacity of the two service configurations, to choose the
/// offered rates frozen in `workloads.rs`. Not part of a normal run.
fn calibrate(args: &Args) -> Result<(), String> {
    for name in ["service.idle", "service.busy"] {
        let workload = workloads::build(name, args.seed).ok_or("service workload missing")?;
        let (world, _) = world::set_up(args.seed, &workload, 1)?;
        let qps = run::capacity(world, &workload, args.seed, 16, args.seconds);
        println!("{name}: capacity {qps:.1} queries/s with 16 closed-loop clients; 10% = {:.1}, 60% = {:.1}", qps * 0.1, qps * 0.6);
    }
    Ok(())
}

/// `BENCHMARK.json` must be what `--manifest` prints, when run from a
/// checkout that has one.
fn manifest_in_sync() -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(on_disk) if on_disk != manifest::render() => {
            Err("BENCHMARK.json differs from `fusion-benchmark --manifest`; regenerate it".into())
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("fusion-benchmark: refusing to measure a debug build; use run.sh or cargo build --release");
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", manifest::render());
            return Ok(true);
        }
        manifest_in_sync()?;
        if args.calibrate {
            return calibrate(&args).map(|()| true);
        }
        if let (Some(name), Some(traced)) = (&args.workload, args.trace_value) {
            return run_one(&args, name, traced);
        }
        if args.check {
            return check(&args);
        }
        let (runs, ok) = suite(&args)?;
        write_result(&args, &runs)?;
        Ok(ok)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "fusion-benchmark: a run was incorrect, invalid, or out of bounds (see above)"
            );
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("fusion-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
