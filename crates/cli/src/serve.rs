//! The serving subcommands: `serve` (the aggregation daemon) and the
//! control-plane clients `snapshot`, `stats`, and `shutdown` (the
//! traffic generator lives in `crate::load`).

use crate::commands::open_output;
use crate::flags::Flags;
use ldp_core::frame::write_snapshot;
use ldp_core::Protocol;
use ldp_server::{Control, Request, Response, ServeConfig, Server};
use std::time::Duration;

/// `serve`: run the aggregation server until a graceful-shutdown
/// request arrives. With `--upstream` the server is a relay node of a
/// federation tree; with `--checkpoint` it survives crashes (see the
/// federation runbook in `docs/OPERATIONS.md`).
pub fn serve(flags: &Flags) -> Result<(), String> {
    let listen = flags.get("listen").unwrap_or("127.0.0.1:7878");
    let default_shards =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards: usize = flags.parsed("shards", default_shards)?;
    let mut config = ServeConfig::new(listen, shards);
    config.upstream = flags.get("upstream").map(str::to_string);
    config.push_every = Duration::from_millis(flags.parsed("push-every", 5_000u64)?);
    config.collector = flags.get("id").map(str::to_string);
    config.checkpoint = flags.get("checkpoint").map(std::path::PathBuf::from);
    config.checkpoint_every = flags.parsed("checkpoint-every", 50_000u64)?;
    config.max_connections = flags.parsed("max-connections", config.max_connections)?;
    if config.upstream.is_none() && flags.get("push-every").is_some() {
        return Err("--push-every needs --upstream".to_string());
    }
    if config.checkpoint.is_none() && flags.get("checkpoint-every").is_some() {
        return Err("--checkpoint-every needs --checkpoint".to_string());
    }
    let server = Server::bind_with(&config)?;
    // First stderr line, machine-parseable: `--listen 127.0.0.1:0` asks
    // the OS for a free port, and this is where the caller learns it.
    eprintln!("serving on {} ({} shards)", server.local_addr()?, shards);
    if let Some(recovery) = server.recovery() {
        eprintln!(
            "recovered checkpoint: {} reports, push epoch {}, {} downstream collectors",
            recovery.reports, recovery.epoch, recovery.downstream
        );
    }
    let summary = server.run()?;
    eprintln!(
        "shutdown: absorbed {} reports over {} connections",
        summary.reports, summary.connections
    );
    if let Some(path) = flags.get("output") {
        match &summary.snapshot {
            Some((header, state)) => {
                write_snapshot(open_output(path)?, header, state).map_err(|e| e.to_string())?;
                eprintln!(
                    "wrote the final snapshot to {path} ({} state bytes)",
                    state.len()
                );
            }
            None => eprintln!("no report stream arrived; {path} not written"),
        }
    }
    Ok(())
}

/// `snapshot`: fetch the live merged snapshot from a running server and
/// write it as a snapshot file — byte-identical to what `ldp-cli
/// ingest` would have produced from the same reports.
pub fn snapshot(flags: &Flags) -> Result<(), String> {
    let addr = flags.require("connect")?;
    let mut control = Control::connect(addr)?;
    match control.request(&Request::Snapshot)? {
        Response::Snapshot { header, state } => {
            let path = flags.get("output").unwrap_or("-");
            write_snapshot(open_output(path)?, &header, &state).map_err(|e| e.to_string())?;
            eprintln!("live snapshot: {} state bytes", state.len());
            Ok(())
        }
        other => Err(format!("unexpected snapshot response: {other:?}")),
    }
}

/// `stats`: print a running server's counters.
pub fn stats(flags: &Flags) -> Result<(), String> {
    let addr = flags.require("connect")?;
    let mut control = Control::connect(addr)?;
    match control.request(&Request::Stats)? {
        Response::Stats(s) => {
            match &s.header {
                Some(h) => {
                    let name = Protocol::from_header(h).map_or("?", Protocol::name);
                    println!("pipeline: {name} d={} k={} eps={}", h.d, h.k, h.eps);
                }
                None => println!("pipeline: none (no report stream yet)"),
            }
            println!(
                "reports: {} absorbed, {} frames rejected",
                s.reports, s.rejected_frames
            );
            println!("shards: {}", s.shards);
            println!(
                "connections: {} accepted, {} active",
                s.connections_accepted, s.connections_active
            );
            println!("uptime: {:.1} s", s.uptime_ms as f64 / 1e3);
            Ok(())
        }
        other => Err(format!("unexpected stats response: {other:?}")),
    }
}

/// `shutdown`: ask a running server to stop gracefully.
pub fn shutdown(flags: &Flags) -> Result<(), String> {
    let addr = flags.require("connect")?;
    let mut control = Control::connect(addr)?;
    match control.request(&Request::Shutdown)? {
        Response::Shutdown(reports) => {
            eprintln!("server shutting down after {reports} absorbed reports");
            Ok(())
        }
        other => Err(format!("unexpected shutdown response: {other:?}")),
    }
}
