//! The repo's benchmark: four workloads over the public API of the
//! runtime crates, one process per workload, single-threaded.
//!
//! ```text
//! tao-benchmark --workload W --seed S --seconds T --trace 0|1 [--scale full|smoke] [--out DIR]
//! tao-benchmark --compare A B
//! ```
//!
//! Every metric is printed as a `workload metric value unit` line; the
//! last line of standard output is the JSON object the builder's
//! contract reads. See `README.md` for what each metric means.

mod compare;
mod harness;
mod json;
mod metrics;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use harness::{peak_rss_mib, Config, Report, Scale};
use json::Json;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

const USAGE: &str =
    "usage: tao-benchmark --workload <fig_build|route_replay|churn_mix|scale_churn> \
    [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out DIR]\n       \
    tao-benchmark --compare DIR_A DIR_B";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in [0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The metrics of this run as `(name, value, unit)`: every end-to-end
/// metric untraced, every per-layer metric traced.
fn contract_metrics(report: &Report, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    if traced {
        return metrics::per_layer()
            .map(|(name, unit, _)| {
                (
                    name,
                    report.per_layer.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect();
    }
    let e = &report.end_to_end;
    let values = [
        report.setup_s,
        peak_rss_mib(),
        e.primary_per_s,
        e.secondary_per_s,
        e.op_p50_ms,
    ];
    metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name, v, unit))
        .collect()
}

fn write_file(path: &Path, contents: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        scale: args.scale,
    };
    let tr = Tracer::new(args.trace);
    let Some(mut report) = workloads::run(&args.workload, &cfg, &tr) else {
        eprintln!(
            "--workload must be one of {}\n{USAGE}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        report.layer("trace.wall_s", tr.rounds_wall_s());
        metrics::fill_from_trace(&tr, &mut report);
    }

    let w = &args.workload;
    let metrics = contract_metrics(&report, args.trace);
    for (name, value, unit) in &metrics {
        println!("{w} {name} {value} {unit}");
    }
    for (name, value, unit) in &report.notes {
        println!("{w} {name} {value} {unit}");
    }
    println!("{w} rounds {} count", report.rounds);
    println!("{w} measured_s {} s", report.wall_s);
    println!("{w} ops_attempted {} count", report.checks.attempted);
    println!("{w} ops_failed {} count", report.checks.failed);
    let fingerprint = report.fingerprints.first().copied().unwrap_or(0);
    println!(
        "{w} fingerprint {fingerprint:#018x} (round 0 of {})",
        report.fingerprints.len()
    );
    if args.trace {
        println!("\n{}\n{}", tr.layer_table(), tr.span_table());
    }

    let correct = report.checks.failed == 0 && report.checks.attempted > 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Int(report.checks.attempted.max(1) as i64),
        ),
        ("failed", Json::Int(report.checks.failed as i64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ]);

    // The result file `--compare` reads: the contract line plus what
    // identifies the run and its per-round fingerprints.
    let mut record = vec![
        ("workload".to_string(), Json::Str(w.clone())),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        (
            "scale".to_string(),
            Json::Str(
                if args.scale == Scale::Full {
                    "full"
                } else {
                    "smoke"
                }
                .into(),
            ),
        ),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("rounds".to_string(), Json::Int(report.rounds as i64)),
        (
            "fingerprints".to_string(),
            Json::Arr(
                report
                    .fingerprints
                    .iter()
                    .map(|f| Json::Str(format!("{f:#018x}")))
                    .collect(),
            ),
        ),
    ];
    if let Json::Obj(members) = &line {
        record.extend(members.iter().cloned());
    }
    let stem = if args.trace {
        format!("layers-{w}")
    } else {
        w.clone()
    };
    write_file(
        &args.out.join(format!("{stem}.json")),
        &(Json::Obj(record).emit() + "\n"),
    );
    if args.trace {
        write_file(
            &args.out.join(format!("trace-{w}.json")),
            &(tr.dump().emit() + "\n"),
        );
    }

    println!("{}", line.emit());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse(argv.into_iter()) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
