//! What every workload shares: repeated timed set-up, the steal-guarded
//! measured window with its process readings, and the outcome a run
//! reports.

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::proc::{cpu_seconds, status_field, CpuTimes, ServerProcess};
use crate::stats;
use crate::trace::Tracer;
use ldp_core::frame::StreamHeader;
use ldp_server::{push_with, Control, Request, Response, ServerStats};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-up runs this many times per run; `setup_s` is the median and the
/// last set-up's state is the one measured.
pub const SETUP_REPS: usize = 5;

/// Untimed load before the measured window, so caches, lazily grown
/// buffers and the server's worker pool reach steady state.
pub const WARMUP: Duration = Duration::from_secs(2);

/// A window in which the hypervisor stole more than this share of CPU
/// time is measured again.
pub const STEAL_LIMIT: f64 = 0.02;

/// At most this many re-measured windows per run.
pub const MAX_RETRIES: u32 = 2;

/// How often the traced run samples the server's thread count.
const THREAD_SAMPLE: Duration = Duration::from_millis(5);

/// Everything one workload run is parameterized by.
pub struct Ctx<'a> {
    /// Drives every population and all report randomness.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// The `ldp-cli` binary serving as the system under test.
    pub server_bin: &'a Path,
    /// Cores available; bounds generator threads and connections.
    pub nproc: usize,
    /// Spans of this run (recording only in traced runs).
    pub tracer: Tracer,
}

impl Ctx<'_> {
    /// Generator threads a closed or open loop may use.
    #[must_use]
    pub fn senders(&self) -> usize {
        self.nproc.clamp(1, 2)
    }
}

/// What one pass of load (warm-up or measured window) observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time from the first send to the last completion.
    pub elapsed_s: f64,
    /// Reports acknowledged (closed loops) or sent on schedule (open
    /// loop), or processed by offline jobs.
    pub reports: u64,
    /// Report frame bytes those reports took on the wire, length
    /// prefixes included.
    pub wire_bytes: u64,
    /// One latency per request (ms): ack, query answer or job.
    pub latencies_ms: Vec<f64>,
    /// Requests or jobs attempted.
    pub attempted: u64,
    /// Requests or jobs that failed (errors, refusals, failed checks).
    pub failed: u64,
    /// Open loop: events that started at least one interval late.
    pub late_events: u64,
    /// Open loop: the worst start delay (ms).
    pub max_late_ms: f64,
    /// Benchmark threads that generated load.
    pub threads: usize,
    /// Share of machine CPU time stolen by the hypervisor.
    pub steal: f64,
    /// Benchmark process CPU seconds spent in the window.
    pub gen_cpu_s: f64,
    /// Spans recorded in the window.
    pub spans: usize,
    /// Server-side readings (serve workloads).
    pub server: Option<ServerWindow>,
}

/// The serve process as seen across one window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerWindow {
    /// CPU seconds the server spent in the window.
    pub cpu_s: f64,
    /// Most threads the server had at once (traced runs sample it).
    pub threads_peak: u64,
    /// Connections the server accepted in the window.
    pub connections: u64,
}

/// Run `setup` [`SETUP_REPS`] times, timing each; every set-up but the
/// last is torn down with `teardown` before the next starts.
pub fn timed_setups<P>(
    mut setup: impl FnMut() -> Result<P, String>,
    mut teardown: impl FnMut(P) -> Result<(), String>,
) -> Result<(P, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<P> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            teardown(previous)?;
        }
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS is at least 1"), times))
}

/// A header-only push: establishes the server's pipeline (spawning its
/// worker pool) without absorbing a report.
pub fn establish(addr: &str, header: &StreamHeader) -> Result<(), String> {
    match push_with(addr, header, |_| Ok(()))? {
        0 => Ok(()),
        n => Err(format!("a header-only push absorbed {n} reports")),
    }
}

/// The server's counters over a fresh control connection.
pub fn server_stats(addr: &str) -> Result<ServerStats, String> {
    stats_on(&mut Control::connect(addr)?)
}

fn stats_on(control: &mut Control) -> Result<ServerStats, String> {
    match control.request(&Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("unexpected stats response: {other:?}")),
    }
}

/// The live merged snapshot `(header, state)`.
pub fn snapshot(addr: &str) -> Result<(StreamHeader, Vec<u8>), String> {
    match Control::connect(addr)?.request(&Request::Snapshot)? {
        Response::Snapshot { header, state } => Ok((header, state)),
        other => Err(format!("unexpected snapshot response: {other:?}")),
    }
}

/// Run the measured window, re-running it (at most [`MAX_RETRIES`]
/// times) while the hypervisor steals more than [`STEAL_LIMIT`] of CPU
/// time, and keep the attempt with the least steal. Returns that
/// window, the retry count, and attempted/failed totals over every
/// attempt.
pub fn guarded_window(
    ctx: &Ctx<'_>,
    server: Option<&ServerProcess>,
    mut load: impl FnMut(Duration) -> Window,
) -> Result<(Window, u32, u64, u64), String> {
    let mut best: Option<Window> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut retries = 0;
    for attempt in 0..=MAX_RETRIES {
        let w = measured(ctx, server, &mut load)?;
        attempted += w.attempted;
        failed += w.failed;
        let steal = w.steal;
        if best.as_ref().is_none_or(|b| steal < b.steal) {
            best = Some(w);
        }
        if steal <= STEAL_LIMIT {
            break;
        }
        if attempt < MAX_RETRIES {
            retries += 1;
            eprintln!(
                "steal guard: {:.1}% of CPU time stolen in the window; measuring again",
                steal * 100.0
            );
        }
    }
    Ok((
        best.expect("at least one attempt"),
        retries,
        attempted,
        failed,
    ))
}

fn measured(
    ctx: &Ctx<'_>,
    server: Option<&ServerProcess>,
    load: &mut impl FnMut(Duration) -> Window,
) -> Result<Window, String> {
    let mut control = server.map(|s| Control::connect(&s.addr)).transpose()?;
    let stats_before = control.as_mut().map(stats_on).transpose()?;
    let server_cpu_before = server.map(|s| cpu_seconds(Some(s.pid()))).transpose()?;
    let spans_before = ctx.tracer.spans().len();
    let gen_cpu_before = cpu_seconds(None)?;
    let steal_before = CpuTimes::now();

    let threads_peak = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut w = std::thread::scope(|scope| {
        if let (Some(s), true) = (server, ctx.tracer.enabled()) {
            let (done, peak, pid) = (&done, &threads_peak, s.pid());
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if let Ok(n) = status_field(Some(pid), "Threads") {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    std::thread::sleep(THREAD_SAMPLE);
                }
            });
        }
        let w = load(ctx.window);
        done.store(true, Ordering::Relaxed);
        w
    });

    w.steal = CpuTimes::now().steal_since(&steal_before);
    w.gen_cpu_s = cpu_seconds(None)? - gen_cpu_before;
    w.spans = ctx.tracer.spans().len() - spans_before;
    if let (Some(s), Some(cpu_before)) = (server, server_cpu_before) {
        let stats_after = control.as_mut().map(stats_on).transpose()?;
        let connections = match (stats_before, stats_after) {
            (Some(a), Some(b)) => b.connections_accepted - a.connections_accepted,
            _ => 0,
        };
        w.server = Some(ServerWindow {
            cpu_s: cpu_seconds(Some(s.pid()))? - cpu_before,
            threads_peak: threads_peak.load(Ordering::Relaxed),
            connections,
        });
    }
    Ok(w)
}

/// What one workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Every correctness check passed and no request failed.
    pub correct: bool,
    /// Why a check failed (empty when `correct`).
    pub check_failures: Vec<String>,
    /// Requests or jobs attempted in measured windows.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric values in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Latency sample count behind the percentile metrics.
    pub samples: usize,
}

impl Outcome {
    /// `workload metric value unit` lines, as printed and as written to
    /// results files.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{} {name} {value} {}",
                    self.workload,
                    unit_of(name).unwrap_or("-")
                )
            })
            .collect();
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "{} error_rate {error_rate} fraction",
            self.workload
        ));
        lines
    }
}

/// The end-to-end metrics every workload reports, from its measured
/// window: report rate and p90 latency over the window's own samples
/// (see the README's workload table), then wire bytes per report and the
/// median set-up time. A p90 with fewer than
/// [`stats::MIN_BEYOND`] samples beyond it is not measured.
#[must_use]
pub fn end_to_end(
    w: &Window,
    wire_bytes_per_report: f64,
    setup_times: &[f64],
) -> Vec<(&'static str, f64)> {
    let mut sorted = w.latencies_ms.clone();
    stats::sort(&mut sorted);
    let pct = |q: f64| {
        if stats::beyond(sorted.len(), q) < stats::MIN_BEYOND {
            f64::NAN
        } else {
            stats::percentile(&sorted, q)
        }
    };
    let values = [
        w.reports as f64 / w.elapsed_s,
        pct(0.9),
        wire_bytes_per_report,
        stats::median(setup_times),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v))
        .collect()
}

/// Order per-layer values (given by name) as [`PER_LAYER`] lists them;
/// a metric the run could not measure is reported as NaN, which fails
/// the run's check.
#[must_use]
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (*name, v)
        })
        .collect()
}
