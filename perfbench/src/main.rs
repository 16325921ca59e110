//! The repository benchmark: end-to-end and per-layer numbers for the
//! QS-DNN plan service and inference pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-plans|hot-plans|execute> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric untraced,
//! every per-layer metric traced). The line before it is a detail record
//! with host facts, request counts, per-network figures and every metric
//! the run computed. A traced run (`--trace 1`) first repeats the workload
//! untraced, to report tracing overhead, and writes its spans to
//! `perfbench/out/`.

mod execute;
mod report;
mod scenarios;
mod serve_load;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde::Value;

use report::{object, per_layer, Report, END_TO_END};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <cold-plans|hot-plans|execute> --seed <n> --seconds <s> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPlans,
    HotPlans,
    Execute,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold-plans" => Some(Workload::ColdPlans),
            "hot-plans" => Some(Workload::HotPlans),
            "execute" => Some(Workload::Execute),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdPlans => "cold-plans",
            Workload::HotPlans => "hot-plans",
            Workload::Execute => "execute",
        }
    }

    fn run(self, args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
        match self {
            Workload::ColdPlans => serve_load::cold_plans(args, tracer),
            Workload::HotPlans => serve_load::hot_plans(args, tracer),
            Workload::Execute => execute::execute(args, tracer),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the benchmark was built from, when the tree is a git
/// checkout (an exported tree has no history to name).
fn git_hash() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Runs the workload untraced, then traced, and adds the trace figures:
/// per-layer span totals, self times and unattributed remainders, span
/// count, and the traced run's primary latency over the untraced one's.
fn traced(args: &Args, origin: Instant) -> Result<(Report, Tracer), String> {
    let untraced = args.workload.run(args, &mut Tracer::new(origin, false))?;
    let mut tracer = Tracer::new(origin, true);
    let mut report = args.workload.run(args, &mut tracer)?;
    for (layer, t) in tracer.layer_times() {
        report.set(format!("trace.{layer}.total_ms"), t.total_ms);
        report.set(format!("trace.{layer}.self_ms"), t.self_ms);
        report.set(format!("trace.{layer}.unattributed_ms"), t.unattributed_ms);
    }
    report.set("trace.spans", tracer.spans().len() as f64);
    let base = untraced
        .metrics
        .get("latency_p50_ms")
        .copied()
        .unwrap_or(0.0);
    let with = report.metrics.get("latency_p50_ms").copied().unwrap_or(0.0);
    report.set("trace.overhead_ms", with - base);
    if base > 0.0 {
        report.set("trace.overhead_share", (with - base) / base);
    }
    report.note("untraced_latency_p50_ms", Value::Float(base));
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    report.wrong += untraced.wrong;
    report.errors.extend(untraced.errors);
    Ok((report, tracer))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let result = if args.trace {
        traced(&args, origin).map(|(r, t)| (r, Some(t)))
    } else {
        args.workload
            .run(&args, &mut Tracer::new(origin, false))
            .map(|r| (r, None))
    };
    let (report, tracer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let mut spans_file = Value::Null;
    if let Some(tracer) = &tracer {
        let path = out_dir().join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            let json = serde_json::to_string(&tracer.to_json()).map_err(std::io::Error::other)?;
            std::fs::write(&path, json)
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        spans_file = Value::String(path.display().to_string());
    }

    let catalogue: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match report.metrics.get(&name) {
            Some(&v) if v.is_finite() => v,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            _ => {
                eprintln!("perfbench: {} did not measure {name}", args.workload.name());
                return ExitCode::FAILURE;
            }
        };
        metrics.push((
            name,
            object([
                ("value", Value::Float(value)),
                ("unit", Value::String(unit.to_string())),
            ]),
        ));
    }

    let host = object([
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Value::String(env!("PERFBENCH_RUSTC").into())),
        ("git", Value::String(git_hash())),
    ]);
    let requests = object([
        ("sent", Value::UInt(report.attempted)),
        (
            "succeeded",
            Value::UInt(report.attempted.saturating_sub(report.failed)),
        ),
        ("failed", Value::UInt(report.failed)),
        ("wrong_outputs", Value::UInt(report.wrong)),
    ]);
    let mut detail = vec![
        (
            "workload".to_string(),
            Value::String(args.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds.as_secs_f64())),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host),
        ("requests".into(), requests),
        (
            "errors".into(),
            Value::Array(report.errors.iter().cloned().map(Value::String).collect()),
        ),
        ("spans_file".into(), spans_file),
    ];
    detail.extend(report.detail);
    detail.push((
        "all_metrics".into(),
        object(
            report
                .metrics
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Float(v))),
        ),
    ));
    let detail = object([("perfbench", Value::Object(detail))]);
    let result = object([
        ("correct", Value::Bool(report.wrong == 0)),
        ("attempted", Value::UInt(report.attempted)),
        ("failed", Value::UInt(report.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    for line in [detail, result] {
        match serde_json::to_string(&line) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("perfbench: encoding output: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload hot-plans --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::HotPlans);
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload execute --trace 2").is_err());
        assert!(args("--workload execute --seconds 0").is_err());
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = serde_json::parse(&text).expect("valid JSON");
        let doc = doc.as_object().expect("object");
        let list = |key: &str| -> Vec<(String, String)> {
            Value::get_field(doc, key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("metric object");
                    let s = |k| match Value::get_field(m, k) {
                        Some(Value::String(s)) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
    }
}
