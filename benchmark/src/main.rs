#![forbid(unsafe_code)]

//! `ldp-benchmark`: the repository's one benchmark. It runs named
//! workloads against the real `ldp-cli serve` process (or, for
//! `figure-offline`, the mechanisms in process), checks every output
//! against an in-process reference, and prints each metric as
//! `workload metric value unit`, ending with one JSON result line.
//!
//! ```text
//! ldp-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                   [--trace-out FILE] [--server-bin PATH] [--out FILE]
//! ldp-benchmark compare --parent FILE... --change FILE...
//! ```
//!
//! See `benchmark/README.md` for the workloads, metrics and bounds.

mod compare;
mod harness;
#[cfg(test)]
mod json;
mod metrics;
mod proc;
mod replay;
mod stats;
mod trace;
mod workloads;

use crate::harness::{Ctx, Outcome};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  ldp-benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                    [--trace-out FILE] [--server-bin PATH] [--out FILE]
  ldp-benchmark compare --parent FILE... --change FILE...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => std::env::current_dir()
            .map_err(|e| format!("cannot read the working directory: {e}"))
            .and_then(|root| run(&root, &args[1..])),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` options.
struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    server_bin: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        server_bin: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workloads.push(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--trace-out" => parsed.trace_out = Some(value()?.into()),
            "--server-bin" => parsed.server_bin = Some(value()?.into()),
            "--out" => parsed.out = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    for name in &parsed.workloads {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name:?}; expected one of {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    // Run them in the table's order (see `workloads::NAMES`), each once.
    let requested = std::mem::take(&mut parsed.workloads);
    parsed.workloads = workloads::NAMES
        .iter()
        .filter(|name| requested.is_empty() || requested.iter().any(|r| r == *name))
        .map(|name| (*name).to_string())
        .collect();
    Ok(parsed)
}

/// The benchmark's environment stamp: core count, commit and compiler.
fn stamp(root: &Path, nproc: usize) -> Vec<String> {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // Only ask git about a checkout that is itself a repository, never
    // one that merely sits inside another.
    let commit = root
        .join(".git")
        .exists()
        .then(|| output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = output("rustc", &["-V"]).unwrap_or_else(|| "rustc unknown".to_string());
    vec![
        format!("# commit {commit}"),
        format!("# {rustc}"),
        format!("env nproc {nproc} count"),
    ]
}

/// The final result line: every reported metric with its unit. Metric
/// keys carry a `workload/` prefix when several workloads ran.
fn result_json(outcomes: &[Outcome]) -> String {
    let prefix = outcomes.len() > 1;
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |(name, value)| {
                let key = if prefix {
                    format!("{}/{name}", o.workload)
                } else {
                    (*name).to_string()
                };
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                let unit = metrics::unit_of(name).unwrap_or("-");
                format!("\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(|o| o.correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// `run`: every requested workload in turn. Prints metric lines and the
/// JSON result line on stdout; returns whether every check passed.
fn run(root: &Path, args: &[String]) -> Result<bool, String> {
    let (lines, json, correct) = run_collect(root, args)?;
    for line in &lines {
        println!("{line}");
    }
    println!("{json}");
    Ok(correct)
}

/// [`run`] without printing: the metric lines, the result line, and
/// whether every check passed.
fn run_collect(root: &Path, args: &[String]) -> Result<(Vec<String>, String, bool), String> {
    let opts = parse_run(args)?;
    let server_bin = match &opts.server_bin {
        Some(bin) => bin.clone(),
        None => proc::build_server(root)?,
    };
    let nproc = proc::nproc();
    let env = stamp(root, nproc);
    for line in &env {
        eprintln!("{line}");
    }
    let mut outcomes = Vec::new();
    for name in &opts.workloads {
        let ctx = Ctx {
            seed: opts.seed,
            window: Duration::from_secs_f64(opts.seconds),
            server_bin: &server_bin,
            nproc,
            tracer: Tracer::new(opts.trace),
        };
        eprintln!("{name}: seed {}, {} s window", opts.seed, opts.seconds);
        let outcome = workloads::run(name, &ctx)?;
        if opts.trace {
            let path = match &opts.trace_out {
                Some(path) if opts.workloads.len() == 1 => path.clone(),
                Some(path) => path.with_extension(format!("{name}.jsonl")),
                None => root
                    .join("benchmark")
                    .join("out")
                    .join(format!("trace-{name}-seed{}.jsonl", opts.seed)),
            };
            ctx.tracer.write_jsonl(&path, name)?;
            eprintln!(
                "{name}: wrote {} spans to {}",
                ctx.tracer.spans().len(),
                path.display()
            );
        }
        for failure in &outcome.check_failures {
            eprintln!("{name}: CHECK FAILED: {failure}");
        }
        eprintln!(
            "{name}: {} ({} latency samples, {} of {} requests failed)",
            if outcome.correct {
                "all checks passed"
            } else {
                "INCORRECT"
            },
            outcome.samples,
            outcome.failed,
            outcome.attempted
        );
        outcomes.push(outcome);
    }
    let lines: Vec<String> = outcomes.iter().flat_map(Outcome::lines).collect();
    if let Some(path) = &opts.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        let text: String = env.iter().chain(&lines).map(|l| format!("{l}\n")).collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    let correct = outcomes.iter().all(|o| o.correct);
    Ok((lines, result_json(&outcomes), correct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn run_flags_parse_and_reject_nonsense() {
        let opts = parse_run(&args(&["--workload", "ingest-margps", "--trace", "1"])).unwrap();
        assert_eq!(opts.workloads, ["ingest-margps"]);
        assert!(opts.trace);
        assert_eq!(opts.seed, 42);
        assert_eq!(parse_run(&[]).unwrap().workloads, workloads::NAMES);
        let both = [
            "--workload",
            "analyst-inpht",
            "--workload",
            "figure-offline",
        ];
        assert_eq!(
            parse_run(&args(&both)).unwrap().workloads,
            ["figure-offline", "analyst-inpht"]
        );
        assert!(parse_run(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run(&args(&["--trace", "2"])).is_err());
        assert!(parse_run(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--seed"])).is_err());
        assert!(parse_run(&args(&["--bogus"])).is_err());
    }

    /// A short run of every workload, untraced and traced: every check
    /// passes and every metric of `BENCHMARK.json` is reported, finite,
    /// on every workload. Five seconds is the shortest window in which
    /// every workload collects the 100 latency samples a p90 needs.
    #[test]
    fn smoke_run_reports_every_metric_and_passes_every_check() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let server = proc::build_server(root).expect("ldp-cli builds");
        let server = server.to_string_lossy().into_owned();
        for (trace, expected) in [
            ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            ("1", PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()),
        ] {
            for workload in workloads::NAMES {
                let (lines, json, correct) = run_collect(
                    root,
                    &args(&[
                        "--workload",
                        workload,
                        "--seconds",
                        "5",
                        "--trace",
                        trace,
                        "--server-bin",
                        &server,
                        "--trace-out",
                        &root
                            .join("benchmark/out/smoke-trace.jsonl")
                            .to_string_lossy(),
                    ]),
                )
                .unwrap();
                assert!(correct, "{workload} trace={trace}: {json}");
                let doc = parse(&json).unwrap();
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
                assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
                let mut keys: Vec<&str> = metrics.keys().map(String::as_str).collect();
                let mut want = expected.clone();
                keys.sort_unstable();
                want.sort_unstable();
                assert_eq!(keys, want, "{workload} trace={trace}");
                for (name, entry) in metrics {
                    let value = entry.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {entry:?}"
                    );
                    assert_eq!(
                        entry.get("unit").and_then(Json::as_str),
                        metrics::unit_of(name)
                    );
                    assert!(lines
                        .iter()
                        .any(|l| l.starts_with(&format!("{workload} {name} "))));
                }
            }
        }
    }
}
