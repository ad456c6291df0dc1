//! The four named workloads. Each one sets up (timed), warms up, runs
//! its steal-guarded measured window, checks every output against an
//! in-process reference, and in traced runs replays its exact report
//! stream stage by stage.
//!
//! | workload | load | what it stresses |
//! |---|---|---|
//! | `ingest-margps` | closed loop, pre-encoded MargPS frames | frame parse, decode, hand-off, absorb |
//! | `devices-inprr` | open loop, live InpRR encode, one connection per batch | encode, wire bytes, connect/accept |
//! | `analyst-inpht` | InpHT ingest beside open-loop marginal queries | queries queued behind ingest |
//! | `figure-offline` | the six mechanisms in process, no server | sampling, encode, absorb, estimate |

use crate::harness::{
    end_to_end, establish, guarded_window, per_layer, server_stats, snapshot, timed_setups, Ctx,
    Outcome, ServerWindow, Window, WARMUP,
};
use crate::proc::{status_field, ServerProcess};
use crate::replay::{empty_pushes, kway_masks, replay, ReplayInput, ReplayOutput, RUN_SPANS};
use crate::stats;
use crate::trace::{self_time_by_name, Tracer};
use ldp_bench::{DataSource, Truth};
use ldp_core::frame::StreamHeader;
use ldp_core::wire::Writer;
use ldp_core::{MarginalEstimator, MechanismKind};
use ldp_oracles::pipeline::{
    decode_report_batch_into, Client, PipelineAccumulator, PipelineEstimate, PipelineReport,
};
use ldp_server::{push_frame, push_reports, Control, QueryRequest, QueryTarget, Request, Response};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The workload names, in the order `BENCHMARK.json` lists them and
/// `run` runs them. `figure-offline` goes first: its `mem.peak_rss_mb` is
/// this process's own peak, which an earlier workload's buffers would
/// inflate.
pub const NAMES: [&str; 4] = [
    "figure-offline",
    "ingest-margps",
    "devices-inprr",
    "analyst-inpht",
];

/// Reports per pre-encoded `REPORT_BATCH` frame.
const FRAME_REPORTS: usize = 1024;

/// `ingest-margps` population: two halves of 2^20 users.
const INGEST_USERS: usize = 1 << 21;

/// `devices-inprr` population; event `i` sends rows `(i·256 + j) mod` it.
const DEVICE_USERS: usize = 1 << 20;

/// `devices-inprr` reports per batch event.
const EVENT_REPORTS: usize = 256;

/// `devices-inprr` offered load. On two cores the collector keeps up
/// with InpRR at 400k/s and falls behind at 500k/s, so this open loop
/// measures latency, not overload.
const DEVICE_RATE: f64 = 250_000.0;

/// Events of `devices-inprr` the traced run replays (2^16 reports).
const DEVICE_REPLAY_EVENTS: usize = 256;

/// `analyst-inpht` population.
const ANALYST_USERS: usize = 1 << 20;

/// `analyst-inpht` queries per second. Analysts ask independently of
/// answers, so queries run open loop (back to back, the few queries that
/// wait behind a push's backlog would be outnumbered by the many that
/// slip in between pushes); 50/s leaves each query its 20 ms slot even
/// when it waits behind a whole push.
const QUERY_RATE: f64 = 50.0;

/// `figure-offline` population: small enough that a 10 s window holds
/// the 100 jobs a p90 needs (at 2^20 it holds about 65).
const FIGURE_USERS: usize = 1 << 18;

/// Mean 2-way TVD bounds for `figure-offline`, per mechanism in
/// `MechanismKind::SIX` order: twice the worst of over 11,000 jobs (40
/// runs, seeds 1–10) when the benchmark was introduced, so a change that
/// breaks an estimator fails the run while sampling noise does not.
const TVD_BOUNDS: [f64; 6] = [0.22, 0.65, 0.055, 0.077, 0.057, 0.062];

/// Run one named workload.
pub fn run(name: &str, ctx: &Ctx<'_>) -> Result<Outcome, String> {
    match name {
        "ingest-margps" => ingest_margps(ctx),
        "devices-inprr" => devices_inprr(ctx),
        "analyst-inpht" => analyst_inpht(ctx),
        "figure-offline" => figure_offline(ctx),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

/// The first `n` rows of a source's population.
fn population(source: DataSource, d: u32, n: usize, seed: u64) -> Vec<u64> {
    let mut rows = vec![0u64; n];
    source.stream(d, seed).fill(&mut rows);
    rows
}

/// Encode `rows` (users `first_user..`) into `REPORT_BATCH` frames.
fn encode_frames(client: &Client, rows: &[u64], seed: u64, first_user: u64) -> Vec<Vec<u8>> {
    let mut w = Writer::default();
    rows.chunks(FRAME_REPORTS)
        .enumerate()
        .map(|(i, chunk)| {
            client.encode_batch(chunk, seed, first_user + (i * FRAME_REPORTS) as u64, &mut w);
            w.as_bytes().to_vec()
        })
        .collect()
}

/// Encode `parts` contiguous slices of `rows` on one thread each.
fn encode_parts(client: &Client, rows: &[u64], seed: u64, parts: usize) -> Vec<Vec<Vec<u8>>> {
    let per = rows.len().div_ceil(parts).next_multiple_of(FRAME_REPORTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(per)
            .enumerate()
            .map(|(p, part)| {
                scope.spawn(move || encode_frames(client, part, seed, (p * per) as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an encode thread panicked"))
            .collect()
    })
}

/// Bytes `frames` take on the wire, length prefixes included.
fn frame_bytes(frames: &[Vec<u8>]) -> u64 {
    frames.iter().map(|f| 4 + f.len() as u64).sum()
}

/// Absorb frames in process, as one worker would.
fn absorb_frames(header: &StreamHeader, frames: &[Vec<u8>]) -> Result<PipelineAccumulator, String> {
    let mut acc = PipelineAccumulator::empty(header)?;
    let mut scratch: Vec<PipelineReport> = Vec::new();
    for frame in frames {
        let n = decode_report_batch_into(frame, &mut scratch)?;
        acc.absorb_batch(&scratch[..n])?;
    }
    Ok(acc)
}

/// The state after absorbing each stream once per push of it: each
/// stream is absorbed once and its state merged `pushes` times, which
/// the partition-invariance law makes byte-identical to absorbing every
/// pushed report.
fn repeated_streams(
    header: &StreamHeader,
    streams: &[Vec<Vec<u8>>],
    pushes: &[AtomicU64],
) -> Result<Vec<u8>, String> {
    let mut total = PipelineAccumulator::empty(header)?;
    for (frames, count) in streams.iter().zip(pushes) {
        let state = absorb_frames(header, frames)?.to_bytes();
        for _ in 0..count.load(Ordering::Relaxed) {
            total.merge(PipelineAccumulator::from_state(header, &state)?)?;
        }
    }
    Ok(total.to_bytes())
}

/// The checks every serve workload shares: the live snapshot equals the
/// in-process reference byte for byte, and the server absorbed exactly
/// what was sent and acknowledged.
fn check_server(
    addr: &str,
    header: &StreamHeader,
    expected: &[u8],
    sent: u64,
    acked: u64,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let (live_header, state) = snapshot(addr)?;
    if live_header != *header {
        failures.push(format!("server pipeline {live_header:?} is not {header:?}"));
    }
    if state != expected {
        failures.push(format!(
            "live snapshot ({} bytes) differs from the in-process reference ({} bytes)",
            state.len(),
            expected.len()
        ));
    }
    let stats = server_stats(addr)?;
    if stats.reports != sent || acked != sent {
        failures.push(format!(
            "server absorbed {} reports, acks covered {acked}, {sent} were sent",
            stats.reports
        ));
    }
    if stats.rejected_frames != 0 {
        failures.push(format!("server rejected {} frames", stats.rejected_frames));
    }
    Ok(())
}

/// Closed loop: `streams.len()` pre-encoded streams pushed back to back
/// by `senders` threads (thread `t` pushes streams `t`, `t + senders`,
/// …), each push waiting for its ack, until `window` has passed (each
/// thread pushes at least once). Latencies are per push.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    tracer: &Tracer,
    senders: usize,
    addr: &str,
    header: &StreamHeader,
    streams: &[Vec<Vec<u8>>],
    pushes: &[AtomicU64],
    acked: &AtomicU64,
    window: Duration,
) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + window;
    let per_thread: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|t| {
                scope.spawn(move || {
                    let mut log = tracer.log(1 + t as u32);
                    let mut w = Window::default();
                    let mut s = t % streams.len();
                    loop {
                        let start = Instant::now();
                        w.attempted += 1;
                        match log.span("client.push", |_| push_reports(addr, header, &streams[s])) {
                            Ok(n) => {
                                w.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                                w.reports += n;
                                w.wire_bytes += frame_bytes(&streams[s]);
                                pushes[s].fetch_add(1, Ordering::Relaxed);
                                acked.fetch_add(n, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("push failed: {e}");
                                w.failed += 1;
                                break;
                            }
                        }
                        s = (s + senders) % streams.len();
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    });
    let mut w = merge_windows(per_thread);
    w.elapsed_s = t0.elapsed().as_secs_f64();
    w.threads = senders;
    w
}

/// Fold per-thread tallies into one window.
fn merge_windows(parts: Vec<Window>) -> Window {
    let mut w = Window::default();
    for p in parts {
        w.reports += p.reports;
        w.wire_bytes += p.wire_bytes;
        w.latencies_ms.extend(p.latencies_ms);
        w.attempted += p.attempted;
        w.failed += p.failed;
        w.late_events += p.late_events;
        w.max_late_ms = w.max_late_ms.max(p.max_late_ms);
    }
    w
}

/// The server's peak resident memory in MB.
fn server_rss_mb(server: &ServerProcess) -> Result<f64, String> {
    Ok(status_field(Some(server.pid()), "VmHWM")? as f64 / 1024.0)
}

/// Assemble an outcome: end-to-end metrics in untraced runs, per-layer
/// metrics in traced ones. A metric that could not be measured fails
/// the run.
fn outcome(
    workload: &'static str,
    e2e: Vec<(&'static str, f64)>,
    layers: Option<Vec<(&'static str, f64)>>,
    mut failures: Vec<String>,
    (attempted, failed): (u64, u64),
    samples: usize,
) -> Outcome {
    let metrics = match layers {
        Some(values) => per_layer(&values),
        None => e2e,
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            failures.push(format!("metric {name} was not measured"));
        }
    }
    Outcome {
        workload,
        correct: failures.is_empty() && failed == 0,
        check_failures: failures,
        attempted: attempted.max(1),
        failed,
        metrics,
        samples,
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    window: &'a Window,
    retries: u32,
    /// Peak resident memory of the process that did the work (MB).
    peak_rss_mb: f64,
    replay: &'a ReplayOutput,
    /// Reports the server absorbed over reports sent, and frames it
    /// rejected (serve workloads, or `figure-offline`'s replay push).
    absorbed_ratio: f64,
    rejected: u64,
    /// The server as seen over the window (or replay push).
    server: ServerWindow,
    /// Wall time and reports the server figures are per.
    server_elapsed_s: f64,
    server_reports: u64,
}

/// Cost of recording one span, for `trace.overhead_frac`.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let tracer = Tracer::new(true);
    let mut log = tracer.log(0);
    let t0 = Instant::now();
    for _ in 0..N {
        log.span("calibrate", |_| ());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

fn layer_values(ctx: &Ctx<'_>, x: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let spans = ctx.tracer.spans();
    let by_name = self_time_by_name(&spans);
    let total_ns = |name: &str| by_name.get(name).map_or(0.0, |v| v.0 as f64);
    let mean = |name: &str, scale: f64| {
        by_name
            .get(name)
            .map_or(f64::NAN, |&(ns, n)| ns as f64 / n as f64 / scale)
    };
    let reports = x.replay.reports as f64;
    let per_report = |name: &str| total_ns(name) / reports;
    let nproc = ctx.nproc as f64;
    let w = x.window;
    let cpu_ns_per_report = x.server.cpu_s * 1e9 / x.server_reports as f64;
    let explained = per_report("frame.parse") + per_report("decode") + per_report("absorb");
    let mut sorted = w.latencies_ms.clone();
    stats::sort(&mut sorted);
    let p50 = if sorted.is_empty() {
        f64::NAN
    } else {
        stats::percentile(&sorted, 0.5)
    };
    let tail =
        stats::tail(&sorted).map_or_else(|| sorted.last().copied().unwrap_or(f64::NAN), |t| t.1);
    let overhead = w.spans as f64 * span_cost_ns() / (w.elapsed_s * 1e9 * w.threads.max(1) as f64);

    let mut values = vec![
        ("data.ns_per_row", per_report("data.fill")),
        ("encode.ns_per_report", per_report("encode")),
        ("client.push_us", mean("client.push", 1e3)),
        ("client.empty_push_us", mean("client.empty_push", 1e3)),
        ("tcp.raw_ns_per_report", per_report("tcp.raw")),
        ("frame.parse_ns_per_report", per_report("frame.parse")),
        ("decode.ns_per_report", per_report("decode")),
        ("absorb.ns_per_report", per_report("absorb")),
        ("state.bytes", x.replay.state_bytes as f64),
        ("state.to_bytes_us", mean("state.to_bytes", 1e3)),
        ("state.from_bytes_us", mean("state.from_bytes", 1e3)),
        ("state.merge_us", mean("state.merge", 1e3)),
        ("estimate.finalize_us", mean("estimate.finalize", 1e3)),
        ("estimate.marginal_us", mean("estimate.marginal", 1e3)),
        ("transform.fwht_us", mean("transform.fwht", 1e3)),
        ("mem.peak_rss_mb", x.peak_rss_mb),
        (
            "server.cpu_util",
            x.server.cpu_s / (x.server_elapsed_s * nproc),
        ),
        ("server.cpu_ns_per_report", cpu_ns_per_report),
        (
            "server.unexplained_ns_per_report",
            cpu_ns_per_report - explained,
        ),
        ("server.threads_peak", x.server.threads_peak as f64),
        ("server.connections_accepted", x.server.connections as f64),
        ("server.rejected_frames", x.rejected as f64),
        ("server.absorbed_ratio", x.absorbed_ratio),
        ("gen.cpu_util", w.gen_cpu_s / (w.elapsed_s * nproc)),
        ("gen.late_events", w.late_events as f64),
        ("gen.max_lateness_ms", w.max_late_ms),
        ("latency.p50_ms", p50),
        ("latency.tail_ms", tail),
        ("env.steal_frac", w.steal),
        ("env.retries", f64::from(x.retries)),
        ("env.nproc", nproc),
        ("trace.overhead_frac", overhead),
    ];
    for (span, metric) in RUN_SPANS.iter().zip([
        "run.InpRR_ms",
        "run.InpPS_ms",
        "run.InpHT_ms",
        "run.MargRR_ms",
        "run.MargPS_ms",
        "run.MargHT_ms",
    ]) {
        values.push((metric, mean(span, 1e6)));
    }
    values
}

fn ingest_margps(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let header = StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1);
    let client = Client::from_header(&header)?;
    let ((halves, server), setup_times) = timed_setups(
        || {
            let rows = population(DataSource::Taxi, 8, INGEST_USERS, ctx.seed);
            let halves = encode_parts(&client, &rows, ctx.seed, 2);
            let server = ServerProcess::spawn(ctx.server_bin, ctx.nproc)?;
            establish(&server.addr, &header)?;
            Ok((halves, server))
        },
        |(_, server)| server.shutdown(),
    )?;
    let pushes: Vec<AtomicU64> = halves.iter().map(|_| AtomicU64::new(0)).collect();
    let acked = AtomicU64::new(0);
    let load = |window| {
        closed_loop(
            &ctx.tracer,
            ctx.senders(),
            &server.addr,
            &header,
            &halves,
            &pushes,
            &acked,
            window,
        )
    };
    load(WARMUP);
    let (w, retries, attempted, failed) = guarded_window(ctx, Some(&server), load)?;

    let mut failures = Vec::new();
    let expected = repeated_streams(&header, &halves, &pushes)?;
    let sent: u64 = halves
        .iter()
        .zip(&pushes)
        .map(|(h, p)| (h.len() * FRAME_REPORTS) as u64 * p.load(Ordering::Relaxed))
        .sum();
    let acked = acked.load(Ordering::Relaxed);
    check_server(&server.addr, &header, &expected, sent, acked, &mut failures)?;
    let rss = server_rss_mb(&server)?;
    let e2e = end_to_end(&w, w.wire_bytes as f64 / w.reports as f64, &setup_times);

    let layers = if ctx.tracer.enabled() {
        let out = replay(
            &ctx.tracer,
            &ReplayInput {
                header,
                source: DataSource::Taxi,
                seed: ctx.seed,
                rows: INGEST_USERS,
                frame_reports: FRAME_REPORTS,
                run_mechanisms: true,
            },
        )?;
        if !out.frames.iter().eq(halves.iter().flatten()) {
            failures.push("replay re-encoded different frames than were pushed".to_string());
        }
        empty_pushes(&ctx.tracer, &server.addr, &header)?;
        let stats = server_stats(&server.addr)?;
        Some(layer_values(
            ctx,
            &LayerInputs {
                window: &w,
                retries,
                peak_rss_mb: rss,
                replay: &out,
                absorbed_ratio: stats.reports as f64 / sent as f64,
                rejected: stats.rejected_frames,
                server: w.server.unwrap_or_default(),
                server_elapsed_s: w.elapsed_s,
                server_reports: w.reports,
            },
        ))
    } else {
        None
    };
    server.shutdown()?;
    let samples = w.latencies_ms.len();
    Ok(outcome(
        "ingest-margps",
        e2e,
        layers,
        failures,
        (attempted, failed),
        samples,
    ))
}

/// Fill `batch` with event `event`'s population rows,
/// `(event·EVENT_REPORTS + j) mod rows.len()`; returns its first user.
fn event_rows(event: u64, rows: &[u64], batch: &mut [u64]) -> u64 {
    let first_user = event * EVENT_REPORTS as u64;
    for (j, slot) in batch.iter_mut().enumerate() {
        *slot = rows[(first_user as usize + j) % rows.len()];
    }
    first_user
}

/// Sleep until an open loop's event is `due`; an event that starts late
/// counts toward the window's lateness figures instead.
fn wait_until(due: Instant, interval: Duration, w: &mut Window) {
    let now = Instant::now();
    match due.checked_duration_since(now) {
        Some(wait) => std::thread::sleep(wait),
        None => {
            let late = now - due;
            if late >= interval {
                w.late_events += 1;
            }
            w.max_late_ms = w.max_late_ms.max(late.as_secs_f64() * 1e3);
        }
    }
}

/// Open loop: batch events on a fixed schedule (event `e` due at
/// `t0 + e·interval`) shared by the sender threads. Each event encodes
/// its rows live and pushes them on a connection of its own; latency
/// runs from the event's *scheduled* time, so a stall shows up as
/// latency of every event it delays.
fn open_loop(
    ctx: &Ctx<'_>,
    addr: &str,
    header: &StreamHeader,
    client: &Client,
    rows: &[u64],
    next_event: &AtomicU64,
    acked: &AtomicU64,
    window: Duration,
) -> Window {
    let interval = Duration::from_secs_f64(EVENT_REPORTS as f64 / DEVICE_RATE);
    let events = window.as_nanos().div_ceil(interval.as_nanos()) as u64;
    let first = next_event.fetch_add(events, Ordering::Relaxed);
    let cursor = AtomicU64::new(0);
    let senders = ctx.senders();
    let t0 = Instant::now();
    let per_thread: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|t| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut log = ctx.tracer.log(1 + t as u32);
                    let mut w = Window::default();
                    let mut batch = vec![0u64; EVENT_REPORTS];
                    let mut frame = Writer::default();
                    loop {
                        let e = cursor.fetch_add(1, Ordering::Relaxed);
                        if e >= events {
                            break;
                        }
                        let due = t0 + interval.mul_f64(e as f64);
                        wait_until(due, interval, &mut w);
                        let event = first + e;
                        let first_user = event_rows(event, rows, &mut batch);
                        w.attempted += 1;
                        let pushed = log.span("event", |log| {
                            log.span("client.encode", |_| {
                                client.encode_batch(&batch, ctx.seed, first_user, &mut frame);
                            });
                            log.span("client.push", |_| {
                                push_frame(addr, header, frame.as_bytes())
                            })
                        });
                        match pushed {
                            Ok(n) if n == EVENT_REPORTS as u64 => {
                                acked.fetch_add(n, Ordering::Relaxed);
                                w.reports += n;
                                w.wire_bytes += 4 + frame.as_bytes().len() as u64;
                                w.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            }
                            Ok(n) => {
                                acked.fetch_add(n, Ordering::Relaxed);
                                eprintln!("event {event}: server absorbed {n} of {EVENT_REPORTS}");
                                w.failed += 1;
                            }
                            Err(e) => {
                                eprintln!("event {event}: {e}");
                                w.failed += 1;
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    });
    let mut w = merge_windows(per_thread);
    w.elapsed_s = t0.elapsed().as_secs_f64();
    w.threads = senders;
    w
}

/// Encode and absorb events `0..events` in process, split over the
/// machine's cores and merged in order.
fn device_reference(
    ctx: &Ctx<'_>,
    header: &StreamHeader,
    client: &Client,
    rows: &[u64],
    events: u64,
) -> Result<Vec<u8>, String> {
    let parts = ctx.nproc as u64;
    let per = events.div_ceil(parts).max(1);
    let accs: Vec<Result<PipelineAccumulator, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                scope.spawn(move || {
                    let mut acc = PipelineAccumulator::empty(header)?;
                    let mut batch = vec![0u64; EVENT_REPORTS];
                    let mut frame = Writer::default();
                    let mut scratch: Vec<PipelineReport> = Vec::new();
                    for event in (p * per)..((p + 1) * per).min(events) {
                        let first_user = event_rows(event, rows, &mut batch);
                        client.encode_batch(&batch, ctx.seed, first_user, &mut frame);
                        let n = decode_report_batch_into(frame.as_bytes(), &mut scratch)?;
                        acc.absorb_batch(&scratch[..n])?;
                    }
                    Ok(acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a reference thread panicked"))
            .collect()
    });
    let mut total = PipelineAccumulator::empty(header)?;
    for acc in accs {
        total.merge(acc?)?;
    }
    Ok(total.to_bytes())
}

fn devices_inprr(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let header = StreamHeader::mechanism(MechanismKind::InpRr, 8, 2, 1.1);
    let client = Client::from_header(&header)?;
    let ((rows, server), setup_times) = timed_setups(
        || {
            let rows = population(DataSource::Taxi, 8, DEVICE_USERS, ctx.seed);
            let server = ServerProcess::spawn(ctx.server_bin, ctx.nproc)?;
            establish(&server.addr, &header)?;
            Ok((rows, server))
        },
        |(_, server)| server.shutdown(),
    )?;
    let next_event = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let load = |window| {
        open_loop(
            ctx,
            &server.addr,
            &header,
            &client,
            &rows,
            &next_event,
            &acked,
            window,
        )
    };
    load(WARMUP);
    let (w, retries, attempted, failed) = guarded_window(ctx, Some(&server), load)?;

    let mut failures = Vec::new();
    let events = next_event.load(Ordering::Relaxed);
    let expected = device_reference(ctx, &header, &client, &rows, events)?;
    let sent = events * EVENT_REPORTS as u64;
    let acked = acked.load(Ordering::Relaxed);
    check_server(&server.addr, &header, &expected, sent, acked, &mut failures)?;
    let rss = server_rss_mb(&server)?;
    let e2e = end_to_end(&w, w.wire_bytes as f64 / w.reports as f64, &setup_times);

    let layers = if ctx.tracer.enabled() {
        let out = replay(
            &ctx.tracer,
            &ReplayInput {
                header,
                source: DataSource::Taxi,
                seed: ctx.seed,
                rows: DEVICE_REPLAY_EVENTS * EVENT_REPORTS,
                frame_reports: EVENT_REPORTS,
                run_mechanisms: true,
            },
        )?;
        empty_pushes(&ctx.tracer, &server.addr, &header)?;
        let stats = server_stats(&server.addr)?;
        Some(layer_values(
            ctx,
            &LayerInputs {
                window: &w,
                retries,
                peak_rss_mb: rss,
                replay: &out,
                absorbed_ratio: stats.reports as f64 / sent as f64,
                rejected: stats.rejected_frames,
                server: w.server.unwrap_or_default(),
                server_elapsed_s: w.elapsed_s,
                server_reports: w.reports,
            },
        ))
    } else {
        None
    };
    server.shutdown()?;
    let samples = w.latencies_ms.len();
    Ok(outcome(
        "devices-inprr",
        e2e,
        layers,
        failures,
        (attempted, failed),
        samples,
    ))
}

/// The raw (unnormalized) marginal over `mask`.
fn marginal_query(mask: ldp_bits::Mask) -> Request {
    Request::Query(QueryRequest {
        target: QueryTarget::Marginal(mask.0),
        normalize: false,
    })
}

/// Marginal queries on one control connection, cycling through `masks`,
/// sent on a fixed schedule of [`QUERY_RATE`] per second until
/// `deadline`, each timed from when it was due. Waits for the first
/// absorbed report (a query of an empty accumulator is an error by
/// design).
fn query_loop(
    tracer: &Tracer,
    addr: &str,
    masks: &[ldp_bits::Mask],
    next_mask: &AtomicUsize,
    acked: &AtomicU64,
    deadline: Instant,
) -> Window {
    let mut w = Window::default();
    while acked.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut control = match Control::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("query connection failed: {e}");
            w.attempted = 1;
            w.failed = 1;
            return w;
        }
    };
    let mut log = tracer.log(2);
    let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let t0 = Instant::now();
    for i in 0u32.. {
        let due = t0 + interval * i;
        if due >= deadline {
            break;
        }
        wait_until(due, interval, &mut w);
        let mask = masks[next_mask.fetch_add(1, Ordering::Relaxed) % masks.len()];
        let request = marginal_query(mask);
        w.attempted += 1;
        match log.span("control.query", |_| control.request(&request)) {
            Ok(Response::Query(_)) => w.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3),
            other => {
                eprintln!("query {mask:?} failed: {other:?}");
                w.failed += 1;
            }
        }
    }
    w
}

fn analyst_inpht(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let header = StreamHeader::mechanism(MechanismKind::InpHt, 16, 3, 1.1);
    let client = Client::from_header(&header)?;
    let masks = kway_masks(16, 3);
    let ((stream, server), setup_times) = timed_setups(
        || {
            let rows = population(DataSource::Skewed, 16, ANALYST_USERS, ctx.seed);
            let stream: Vec<Vec<u8>> = encode_parts(&client, &rows, ctx.seed, ctx.senders())
                .into_iter()
                .flatten()
                .collect();
            let server = ServerProcess::spawn(ctx.server_bin, ctx.nproc)?;
            establish(&server.addr, &header)?;
            Ok((vec![stream], server))
        },
        |(_, server)| server.shutdown(),
    )?;
    let pushes = [AtomicU64::new(0)];
    let acked = AtomicU64::new(0);
    let next_mask = AtomicUsize::new(0);
    let load = |window: Duration| {
        let deadline = Instant::now() + window;
        let (ingest, queries) = std::thread::scope(|scope| {
            let queries = scope.spawn(|| {
                query_loop(
                    &ctx.tracer,
                    &server.addr,
                    &masks,
                    &next_mask,
                    &acked,
                    deadline,
                )
            });
            let ingest = closed_loop(
                &ctx.tracer,
                1,
                &server.addr,
                &header,
                &stream,
                &pushes,
                &acked,
                window,
            );
            (ingest, queries.join().expect("the query thread panicked"))
        });
        Window {
            elapsed_s: ingest.elapsed_s,
            reports: ingest.reports,
            wire_bytes: ingest.wire_bytes,
            latencies_ms: queries.latencies_ms,
            attempted: ingest.attempted + queries.attempted,
            failed: ingest.failed + queries.failed,
            late_events: ingest.late_events + queries.late_events,
            max_late_ms: ingest.max_late_ms.max(queries.max_late_ms),
            threads: 2,
            ..Window::default()
        }
    };
    load(WARMUP);
    let (w, retries, attempted, failed) = guarded_window(ctx, Some(&server), load)?;

    let mut failures = Vec::new();
    let expected = repeated_streams(&header, &stream, &pushes)?;
    let sent = (stream[0].len() * FRAME_REPORTS) as u64 * pushes[0].load(Ordering::Relaxed);
    check_server(
        &server.addr,
        &header,
        &expected,
        sent,
        acked.load(Ordering::Relaxed),
        &mut failures,
    )?;
    check_queries(&server.addr, &header, &masks, &mut failures)?;
    let rss = server_rss_mb(&server)?;
    let e2e = end_to_end(&w, w.wire_bytes as f64 / w.reports as f64, &setup_times);

    let layers = if ctx.tracer.enabled() {
        let out = replay(
            &ctx.tracer,
            &ReplayInput {
                header,
                source: DataSource::Skewed,
                seed: ctx.seed,
                rows: ANALYST_USERS,
                frame_reports: FRAME_REPORTS,
                run_mechanisms: true,
            },
        )?;
        if out.frames != stream[0] {
            failures.push("replay re-encoded different frames than were pushed".to_string());
        }
        empty_pushes(&ctx.tracer, &server.addr, &header)?;
        let stats = server_stats(&server.addr)?;
        Some(layer_values(
            ctx,
            &LayerInputs {
                window: &w,
                retries,
                peak_rss_mb: rss,
                replay: &out,
                absorbed_ratio: stats.reports as f64 / sent as f64,
                rejected: stats.rejected_frames,
                server: w.server.unwrap_or_default(),
                server_elapsed_s: w.elapsed_s,
                server_reports: w.reports,
            },
        ))
    } else {
        None
    };
    server.shutdown()?;
    let samples = w.latencies_ms.len();
    Ok(outcome(
        "analyst-inpht",
        e2e,
        layers,
        failures,
        (attempted, failed),
        samples,
    ))
}

/// Every k-way marginal the server answers must equal, bit for bit, a
/// local finalize of its own snapshot.
fn check_queries(
    addr: &str,
    header: &StreamHeader,
    masks: &[ldp_bits::Mask],
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let (_, state) = snapshot(addr)?;
    let PipelineEstimate::Mechanism(local) =
        PipelineAccumulator::from_state(header, &state)?.finalize()
    else {
        return Err("analyst-inpht expects a mechanism pipeline".to_string());
    };
    let mut control = Control::connect(addr)?;
    let mut mismatched = 0;
    for &mask in masks {
        let request = marginal_query(mask);
        let Response::Query(remote) = control.request(&request)? else {
            return Err(format!("query {mask:?} got a non-query response"));
        };
        let expected = local.marginal(mask);
        if remote.len() != expected.len()
            || remote
                .iter()
                .zip(&expected)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        failures.push(format!(
            "{mismatched} of {} query answers differ from a local finalize of the snapshot",
            masks.len()
        ));
    }
    Ok(())
}

fn figure_offline(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    const D: u32 = 8;
    const K: u32 = 2;
    let eps = 3f64.ln();
    let ((rows, truth), setup_times) = timed_setups(
        || {
            let data = DataSource::MovieLens.generate(D, FIGURE_USERS, ctx.seed);
            let truth = Truth::new(&data);
            Ok((data.rows().to_vec(), truth))
        },
        |_| Ok(()),
    )?;
    let next_job = AtomicU64::new(0);
    let worst_tvd: [AtomicU64; 6] = Default::default();
    let load = |window: Duration| {
        let t0 = Instant::now();
        let deadline = t0 + window;
        let mut log = ctx.tracer.log(1);
        let mut w = Window {
            threads: 1,
            ..Window::default()
        };
        while Instant::now() < deadline {
            let job = next_job.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let ok = log.span("job", |log| {
                let mut ok = true;
                for (i, kind) in MechanismKind::SIX.iter().enumerate() {
                    let mech = kind.build(D, K, eps);
                    let est = log.span(RUN_SPANS[i], |_| {
                        mech.run(&rows, ctx.seed.wrapping_add(job))
                    });
                    let tvd = log.span("estimate.tvd", |_| truth.mean_kway_tvd(&est, K));
                    worst_tvd[i].fetch_max(tvd.to_bits(), Ordering::Relaxed);
                    ok &= tvd <= TVD_BOUNDS[i];
                }
                ok
            });
            w.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            w.attempted += 1;
            w.failed += u64::from(!ok);
            w.reports += (6 * rows.len()) as u64;
        }
        w.elapsed_s = t0.elapsed().as_secs_f64();
        w
    };
    load(WARMUP);
    let (w, retries, attempted, failed) = guarded_window(ctx, None, load)?;

    let mut failures = Vec::new();
    for ((kind, worst), bound) in MechanismKind::SIX.iter().zip(&worst_tvd).zip(TVD_BOUNDS) {
        let worst = f64::from_bits(worst.load(Ordering::Relaxed));
        eprintln!(
            "figure-offline {}: worst mean 2-way TVD {worst:.6} (bound {bound})",
            kind.name()
        );
        if worst > bound {
            failures.push(format!(
                "{} mean 2-way TVD {worst} exceeds its bound {bound}",
                kind.name()
            ));
        }
    }
    // What one report of each mechanism would cost on the wire, averaged
    // over the six: the communication side of the paper's comparison.
    let mut frame = Writer::default();
    let mut wire_bytes = 0;
    for kind in MechanismKind::SIX {
        let client = Client::from_header(&StreamHeader::mechanism(kind, D, K, eps))?;
        client.encode_batch(&rows[..FRAME_REPORTS], ctx.seed, 0, &mut frame);
        wire_bytes += 4 + frame.as_bytes().len();
    }
    let rss = status_field(None, "VmHWM")? as f64 / 1024.0;
    let e2e = end_to_end(
        &w,
        wire_bytes as f64 / (6 * FRAME_REPORTS) as f64,
        &setup_times,
    );

    let layers = if ctx.tracer.enabled() {
        let header = StreamHeader::mechanism(MechanismKind::InpHt, D, K, eps);
        let out = replay(
            &ctx.tracer,
            &ReplayInput {
                header,
                source: DataSource::MovieLens,
                seed: ctx.seed,
                rows: FIGURE_USERS,
                frame_reports: FRAME_REPORTS,
                run_mechanisms: false,
            },
        )?;
        // No server runs in this workload's window; the serve layers are
        // measured by pushing the replayed frames through one, closed
        // loop, for long enough that `/proc`'s 10 ms CPU ticks resolve
        // the server's cost per report.
        let server = ServerProcess::spawn(ctx.server_bin, ctx.nproc)?;
        establish(&server.addr, &header)?;
        let streams = [out.frames.clone()];
        let pushes = [AtomicU64::new(0)];
        let acked = AtomicU64::new(0);
        let (push, _, _, _) = guarded_window(ctx, Some(&server), |_| {
            closed_loop(
                &ctx.tracer,
                1,
                &server.addr,
                &header,
                &streams,
                &pushes,
                &acked,
                Duration::from_secs(1),
            )
        })?;
        empty_pushes(&ctx.tracer, &server.addr, &header)?;
        let stats = server_stats(&server.addr)?;
        let sent = out.reports * pushes[0].load(Ordering::Relaxed);
        let values = layer_values(
            ctx,
            &LayerInputs {
                window: &w,
                retries,
                peak_rss_mb: rss,
                replay: &out,
                absorbed_ratio: stats.reports as f64 / sent as f64,
                rejected: stats.rejected_frames,
                server: push.server.unwrap_or_default(),
                server_elapsed_s: push.elapsed_s,
                server_reports: push.reports,
            },
        );
        server.shutdown()?;
        Some(values)
    } else {
        None
    };
    let samples = w.latencies_ms.len();
    Ok(outcome(
        "figure-offline",
        e2e,
        layers,
        failures,
        (attempted, failed),
        samples,
    ))
}
