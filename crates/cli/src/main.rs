#![forbid(unsafe_code)]
//! `ldp-cli` — the end-to-end LDP marginal-release pipeline as a
//! process surface.
//!
//! Every stage of the paper's collect-and-estimate pipeline is a
//! subcommand speaking the framed wire format of `ldp_core::frame`
//! (byte-level spec: `docs/WIRE_FORMAT.md`), so the stages compose
//! across real process boundaries:
//!
//! ```text
//! ldp-cli rows --d 8 --n 100000 \
//!   | ldp-cli encode --protocol inpht --d 8 --k 2 --eps 1.1 \
//!   | ldp-cli ingest --output snapshot.bin
//! ldp-cli query --input snapshot.bin --format csv
//! ```
//!
//! Partial aggregates built by independent `ingest` processes are
//! `merge`d into one snapshot that is byte-identical to a single-process
//! run — the `Accumulator` partition-invariance law, now crossing
//! process boundaries (proved end-to-end by `tests/cli_pipeline.rs`).
//!
//! The same law carries the serving mode: `serve` runs a long-lived
//! multi-threaded TCP collector for live report streams, `load` drives
//! it with concurrent clients, and `snapshot` / `stats` / `query
//! --connect` / `shutdown` speak its framed control plane (proved by
//! `tests/serve.rs`; operations guide: `docs/OPERATIONS.md`).

mod commands;
mod flags;
mod load;
mod serve;

use flags::Flags;

const USAGE: &str = "\
ldp-cli — marginal release under local differential privacy, as a pipeline

USAGE: ldp-cli <subcommand> [flags]

BATCH SUBCOMMANDS
  rows    Generate a CSV population.
          --d D (8) --n N (10000) --seed S (42) --generate taxi|movielens|skewed (taxi)
          --bits (emit 0/1 columns instead of row indices) --output PATH (-)
  encode  Encode CSV rows (stdin or --input) into a framed report stream.
          --protocol NAME (required; InpRR InpPS InpHT MargRR MargPS MargHT InpEM OLH CMS HCMS)
          --d D (8) --k K (2) --eps E (1.1) --seed S (42) --first-user U (0)
          --hashes G (5) --width W (256) --family-seed F (1)   [oracles only]
          --generate SRC --n N (synthesize rows instead of reading --input)
          --batch B (0; group B reports per REPORT_BATCH frame, 0 = one
          frame per report) --input PATH (-) --output PATH (-)
  ingest  Fold a report stream into a serialized accumulator snapshot.
          --input PATH (-) --output PATH (-)
  merge   Combine N snapshots of the same pipeline into one.
          --output PATH (-)  snapshot paths as positional arguments
          --connect A1,A2 (also pull live snapshots from running
          collectors and fold them in)
  query   Finalize a snapshot (or a live server) into estimates.
          --input PATH (-) | --connect ADDR   --format csv|json (csv) --normalize
          --marginal 0,3 (mechanisms: one marginal instead of all k-way)
          --value V (oracles: one frequency instead of the full domain)
          --output PATH (-)

SERVING SUBCOMMANDS
  serve   Run the concurrent aggregation server until `shutdown`.
          --listen ADDR (127.0.0.1:7878; port 0 picks a free port — the
          bound address is the first stderr line) --shards W (cores)
          --output PATH (write the final snapshot on shutdown)
          --upstream ADDR (relay mode: push the merged snapshot to a
          parent collector periodically, on every snapshot request,
          and at shutdown — builds federation trees)
          --push-every MS (5000; periodic push interval)
          --id NAME (collector identity pushed upstream; defaults to
          the checkpoint's id, else the bound address)
          --checkpoint PATH (recover it at startup if present; rewrite
          it per --checkpoint-every and at shutdown)
          --checkpoint-every N (50000; checkpoint once ≥N reports have
          been absorbed since the last one, checked at ingest acks)
  load    Drive a server with concurrent clients (traffic generator).
          --connect ADDR (required) --protocol NAME (required)
          --clients C (4) --reports M (2500; per client)
          --batch B (0; reports per REPORT_BATCH frame, 0 = one frame
          per report — see docs/OPERATIONS.md for sizing)
          --d/--k/--eps/--seed/--generate/--hashes/--width/--family-seed as encode
          Open-loop mode (docs/OPERATIONS.md, Load generation):
          --rate R (target reports/s on a fixed arrival schedule; one
          batch event every batch/R seconds, lateness tracked, per-batch
          ack latency measured from the scheduled send)
          --duration S (2.0) --batch B (256 when 0 in this mode)
          --mix margps=3,olh=1@host:port (weighted protocol mix; the
          address defaults to --connect — one server serves one
          pipeline, so point extra protocols at their own servers)
          --hist-output PATH (write the latency histogram JSON)
  snapshot  Fetch the live merged snapshot as a snapshot file.
          --connect ADDR (required) --output PATH (-)
  stats   Print a server's counters (pipeline, reports, connections).
          --connect ADDR (required)
  shutdown  Ask a server to stop gracefully.
          --connect ADDR (required)

  version Print the version and wire-format revision (also --version).
  help    Print this message.

EXIT CODES
  0  success
  1  runtime failure (bad flags or input, I/O or connection error,
     stream/header rejection)
  2  usage error (no subcommand, or an unknown subcommand)

The per-user randomness follows the user_rng(seed, user) schedule, so an
encode split across processes (via --first-user) or across `load`
clients is bit-identical to one process encoding everything. See
docs/WIRE_FORMAT.md for the byte-level protocol, docs/OPERATIONS.md for
running the server, docs/BENCHMARKS.md for measuring performance, and
README.md for a full pipeline walkthrough.";

/// Exit status for usage errors (no or unknown subcommand).
const EXIT_USAGE: i32 = 2;

fn version() {
    println!(
        "ldp-cli {} (wire format v{})",
        env!("CARGO_PKG_VERSION"),
        ldp_core::wire::VERSION
    );
}

fn dispatch(subcommand: &str, rest: &[String]) -> Result<(), String> {
    match subcommand {
        "rows" => {
            let f = Flags::parse(rest, &["d", "n", "seed", "generate", "output"], &["bits"])?;
            commands::rows(&f)
        }
        "encode" => {
            let f = Flags::parse(
                rest,
                &[
                    "protocol",
                    "d",
                    "k",
                    "eps",
                    "seed",
                    "first-user",
                    "hashes",
                    "width",
                    "family-seed",
                    "generate",
                    "n",
                    "batch",
                    "input",
                    "output",
                ],
                &[],
            )?;
            commands::encode(&f)
        }
        "ingest" => {
            let f = Flags::parse(rest, &["input", "output"], &[])?;
            commands::ingest(&f)
        }
        "merge" => {
            let f = Flags::parse(rest, &["output", "connect"], &[])?;
            commands::merge(&f)
        }
        "query" => {
            let f = Flags::parse(
                rest,
                &["input", "connect", "output", "format", "marginal", "value"],
                &["normalize"],
            )?;
            commands::query(&f)
        }
        "serve" => {
            let f = Flags::parse(
                rest,
                &[
                    "listen",
                    "shards",
                    "output",
                    "upstream",
                    "push-every",
                    "id",
                    "checkpoint",
                    "checkpoint-every",
                ],
                &[],
            )?;
            serve::serve(&f)
        }
        "load" => {
            let f = Flags::parse(
                rest,
                &[
                    "connect",
                    "protocol",
                    "clients",
                    "reports",
                    "batch",
                    "d",
                    "k",
                    "eps",
                    "seed",
                    "generate",
                    "hashes",
                    "width",
                    "family-seed",
                    "rate",
                    "duration",
                    "mix",
                    "hist-output",
                ],
                &[],
            )?;
            load::load(&f)
        }
        "snapshot" => {
            let f = Flags::parse(rest, &["connect", "output"], &[])?;
            serve::snapshot(&f)
        }
        "stats" => {
            let f = Flags::parse(rest, &["connect"], &[])?;
            serve::stats(&f)
        }
        "shutdown" => {
            let f = Flags::parse(rest, &["connect"], &[])?;
            serve::shutdown(&f)
        }
        "version" | "--version" | "-V" => {
            version();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("ldp-cli: unknown subcommand {other:?}; run `ldp-cli help` for usage");
            std::process::exit(EXIT_USAGE);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((subcommand, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(EXIT_USAGE);
    };
    if let Err(message) = dispatch(subcommand, rest) {
        eprintln!("ldp-cli {subcommand}: {message}");
        std::process::exit(1);
    }
}
