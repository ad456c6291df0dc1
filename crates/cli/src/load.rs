//! `ldp-cli load` — the traffic generator, in two modes.
//!
//! **Closed loop** (default): `--clients` concurrent connections each
//! push `--reports` reports as fast as the server acks them. Users are
//! numbered `0..clients*reports` in contiguous per-client slices and
//! encoded under the `user_rng(seed, user)` schedule, so the union of
//! all connections is byte-identical to `ldp-cli encode --generate
//! <src> --n clients*reports --seed <seed>` — a loaded server's
//! snapshot must equal a serial `ingest` of that stream
//! (`tests/serve.rs`). Rows are drawn lazily from
//! [`DataSource::stream`] and reports are encoded straight into the
//! socket via the batched kernels, so memory stays O(batch) however
//! large the population.
//!
//! **Open loop** (`--rate R`): batch arrivals follow a fixed schedule —
//! event `i` fires at `t0 + i·batch/R` regardless of how long earlier
//! events took. A slow server makes senders *late* (tracked and
//! reported) instead of silently stretching the schedule the way a
//! closed loop does, so the recorded per-batch ack latencies do not
//! suffer coordinated omission; latency is measured from the
//! *scheduled* send time. The end-of-run report prints an HDR-style
//! log-bucketed histogram (p50/p90/p99/p99.9) and `--hist-output`
//! writes the same data as JSON. See `docs/OPERATIONS.md` ("Load
//! generation") for how to choose rates and read the numbers.
//!
//! This file is covered by the `ldp-lint` hot-path panic scan: the send
//! loops must not index, unwrap, or narrow unchecked lengths.

use crate::commands::DEFAULT_BATCH;
use crate::flags::Flags;
use ldp_bench::histogram::{fmt_ns, LogHistogram};
use ldp_bench::DataSource;
use ldp_core::wire::Writer;
use ldp_core::Protocol;
use ldp_oracles::pipeline::{header_for, Client, SketchShape};
use ldp_server::{push_frame, push_with};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default reports per batch event in open-loop mode, where a batch is
/// the unit of arrival (closed loop defaults to
/// [`crate::commands::DEFAULT_BATCH`]).
const OPEN_LOOP_DEFAULT_BATCH: usize = 256;

/// Shared knobs both modes parse from the flag set.
struct Common {
    addr: String,
    d: u32,
    k: u32,
    eps: f64,
    seed: u64,
    clients: usize,
    batch: usize,
    sketch: SketchShape,
    source: DataSource,
}

fn parse_common(flags: &Flags) -> Result<Common, String> {
    let addr = flags.require("connect")?.to_string();
    let d: u32 = flags.parsed("d", 8)?;
    let k: u32 = flags.parsed("k", 2)?;
    let eps: f64 = flags.parsed("eps", 1.1)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let clients: usize = flags.parsed("clients", 4)?;
    let batch: usize = flags.parsed("batch", DEFAULT_BATCH)?;
    let sketch = SketchShape {
        hashes: flags.parsed("hashes", 5)?,
        width: flags.parsed("width", 256)?,
        family_seed: flags.parsed("family-seed", 1)?,
    };
    if clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    let source = DataSource::parse(flags.get("generate").unwrap_or("taxi"))?;
    Ok(Common {
        addr,
        d,
        k,
        eps,
        seed,
        clients,
        batch,
        sketch,
        source,
    })
}

/// Dispatch on `--rate`: present → open-loop generator, absent → the
/// classic closed-loop push (whose snapshot-equality contract the
/// integration tests pin down).
pub fn load(flags: &Flags) -> Result<(), String> {
    let common = parse_common(flags)?;
    match flags.get("rate") {
        Some(_) => open_loop(flags, &common),
        None => {
            for open_only in ["duration", "mix", "hist-output"] {
                if flags.get(open_only).is_some() {
                    return Err(format!("--{open_only} needs --rate (open-loop mode)"));
                }
            }
            closed_loop(flags, &common)
        }
    }
}

/// Closed-loop mode: every client pushes its contiguous slice on one
/// connection, encoding lazily (stream the rows, batch the kernels)
/// instead of materializing `clients × reports` rows and frames first.
fn closed_loop(flags: &Flags, common: &Common) -> Result<(), String> {
    let per_client: usize = flags.parsed("reports", 2_500)?;
    if per_client == 0 {
        return Err("--reports must be at least 1".to_string());
    }
    let protocol = Protocol::parse(flags.require("protocol")?)?;
    let header = header_for(protocol, common.d, common.k, common.eps, common.sketch);
    let client = Client::from_header(&header)?;
    let total = common.clients.saturating_mul(per_client);

    let t0 = Instant::now();
    let results: Vec<(u64, usize)> = std::thread::scope(|scope| {
        (0..common.clients)
            .map(|c| {
                let client = &client;
                scope.spawn(move || -> Result<(u64, usize), String> {
                    // Position this client's lazy stream at its slice
                    // of the shared population: same rows the eager
                    // `generate` would have put there, O(1) memory.
                    let mut stream = common.source.stream(common.d, common.seed);
                    stream.skip(c.saturating_mul(per_client));
                    let first_user = (c.saturating_mul(per_client)) as u64;
                    let mut wire_bytes = 0usize;
                    let acked = {
                        let bytes = &mut wire_bytes;
                        push_with(&common.addr, client.header(), move |writer| {
                            // The batched kernels fill one reusable
                            // REPORT_BATCH frame per chunk.
                            let mut w = Writer::default();
                            let mut rows = vec![0u64; common.batch];
                            let mut done = 0usize;
                            while done < per_client {
                                let take = common.batch.min(per_client - done);
                                let Some(slice) = rows.get_mut(..take) else {
                                    break;
                                };
                                stream.fill(slice);
                                client.encode_batch(
                                    slice,
                                    common.seed,
                                    first_user.wrapping_add(done as u64),
                                    &mut w,
                                );
                                *bytes = bytes.saturating_add(w.len());
                                writer.write_frame(w.as_bytes())?;
                                done = done.saturating_add(take);
                            }
                            Ok(())
                        })?
                    };
                    Ok((acked, wire_bytes))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a load client thread panicked".to_string()))
            })
            .collect::<Result<_, String>>()
    })?;
    let elapsed = t0.elapsed().as_secs_f64();
    let acked: u64 = results.iter().map(|(a, _)| a).sum();
    let wire_bytes: usize = results.iter().map(|(_, b)| b).sum();
    eprintln!(
        "pushed {total} {} reports ({wire_bytes} wire bytes) over {} connections \
         in {elapsed:.3} s ({:.0} reports/s); server absorbed {acked}",
        protocol.name(),
        common.clients,
        total as f64 / elapsed.max(1e-9),
    );
    Ok(())
}

/// One protocol of the open-loop mix: its weight share of batch events
/// goes to `addr` encoded by `client` under its header.
struct MixEntry {
    name: &'static str,
    weight: usize,
    addr: String,
    client: Client,
}

/// Parse `--mix "margps=3,olh=1@host:port"` (weight defaults to 1,
/// address defaults to `--connect`) into entries plus the weighted
/// round-robin pattern assigning each event index a mix entry.
fn parse_mix(text: &str, common: &Common) -> Result<(Vec<MixEntry>, Vec<usize>), String> {
    let mut entries: Vec<MixEntry> = Vec::new();
    let mut pattern: Vec<usize> = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (spec, addr) = match part.split_once('@') {
            Some((spec, addr)) => (spec, addr.to_string()),
            None => (part, common.addr.clone()),
        };
        let (name, weight) = match spec.split_once('=') {
            Some((name, weight_text)) => {
                let weight: usize = weight_text
                    .parse()
                    .map_err(|_| format!("bad mix weight {weight_text:?} in {part:?}"))?;
                (name, weight)
            }
            None => (spec, 1),
        };
        if weight == 0 {
            return Err(format!("mix weight must be at least 1 in {part:?}"));
        }
        let protocol = Protocol::parse(name)?;
        let header = header_for(protocol, common.d, common.k, common.eps, common.sketch);
        let client = Client::from_header(&header)?;
        let slot = entries.len();
        entries.push(MixEntry {
            name: protocol.name(),
            weight,
            addr,
            client,
        });
        pattern.extend(std::iter::repeat_n(slot, weight));
    }
    if entries.is_empty() {
        return Err("--mix needs at least one protocol entry".to_string());
    }
    Ok((entries, pattern))
}

/// What one sender thread accumulated over its share of the schedule.
struct SenderTally {
    hist: LogHistogram,
    sent_reports: u64,
    acked: u64,
    late_events: u64,
    max_late_ns: u64,
}

/// Open-loop mode: a fixed arrival schedule of batch events shared by
/// `--clients` sender threads, per-batch ack latency measured from the
/// scheduled send time into a log-bucketed histogram.
fn open_loop(flags: &Flags, common: &Common) -> Result<(), String> {
    let rate: f64 = flags.parsed("rate", 0.0)?;
    if rate <= 0.0 || rate.is_nan() || !rate.is_finite() {
        return Err(format!(
            "--rate must be a positive reports/s target, got {rate}"
        ));
    }
    let duration: f64 = flags.parsed("duration", 2.0)?;
    if duration <= 0.0 || duration.is_nan() || !duration.is_finite() {
        return Err(format!(
            "--duration must be positive seconds, got {duration}"
        ));
    }
    let batch = if flags.get("batch").is_some() {
        common.batch
    } else {
        OPEN_LOOP_DEFAULT_BATCH
    };
    let (entries, pattern) = match flags.get("mix") {
        Some(text) => parse_mix(text, common)?,
        None => {
            let protocol = Protocol::parse(flags.require("protocol")?)?;
            let header = header_for(protocol, common.d, common.k, common.eps, common.sketch);
            let client = Client::from_header(&header)?;
            (
                vec![MixEntry {
                    name: protocol.name(),
                    weight: 1,
                    addr: common.addr.clone(),
                    client,
                }],
                vec![0],
            )
        }
    };

    let interval = Duration::from_secs_f64(batch as f64 / rate);
    let window = Duration::from_secs_f64(duration);
    let interval_ns = u64::try_from(interval.as_nanos()).unwrap_or(u64::MAX);
    let batch_u64 = batch as u64;
    let pattern_size = pattern.len() as u64;
    let next_event = AtomicU64::new(0);
    let t0 = Instant::now();

    let tallies: Vec<SenderTally> = std::thread::scope(|scope| {
        (0..common.clients)
            .map(|t| {
                let next_event = &next_event;
                let entries = &entries;
                let pattern = &pattern;
                scope.spawn(move || -> Result<SenderTally, String> {
                    // Each sender draws rows from its own stream (all
                    // three sources are i.i.d. per row, so any
                    // row-to-event assignment is the same population);
                    // users are numbered by event so every report still
                    // has a unique user_rng stream per protocol.
                    let mut stream = common
                        .source
                        .stream(common.d, common.seed.wrapping_add(1 + t as u64));
                    let mut rows = vec![0u64; batch];
                    let mut w = Writer::default();
                    let mut tally = SenderTally {
                        hist: LogHistogram::new(),
                        sent_reports: 0,
                        acked: 0,
                        late_events: 0,
                        max_late_ns: 0,
                    };
                    loop {
                        let event = next_event.fetch_add(1, Ordering::Relaxed);
                        let offset = interval.mul_f64(event as f64);
                        if offset >= window {
                            break;
                        }
                        let sched = t0 + offset;
                        let now = Instant::now();
                        match sched.checked_duration_since(now) {
                            Some(wait) => std::thread::sleep(wait),
                            None => {
                                // Late: the schedule does not slip
                                // (that would be coordinated omission);
                                // we record how late we started.
                                let late = now.saturating_duration_since(sched);
                                let late_ns = u64::try_from(late.as_nanos()).unwrap_or(u64::MAX);
                                if late >= interval {
                                    tally.late_events += 1;
                                }
                                tally.max_late_ns = tally.max_late_ns.max(late_ns);
                            }
                        }
                        let at = usize::try_from(event % pattern_size).unwrap_or(0);
                        let Some(entry) = pattern.get(at).and_then(|&slot| entries.get(slot))
                        else {
                            return Err("empty protocol mix".to_string());
                        };
                        stream.fill(&mut rows);
                        let first_user = event.wrapping_mul(batch_u64);
                        entry
                            .client
                            .encode_batch(&rows, common.seed, first_user, &mut w);
                        tally.acked +=
                            push_frame(&entry.addr, entry.client.header(), w.as_bytes())?;
                        tally.sent_reports += batch_u64;
                        // Ack latency from the *scheduled* start, so a
                        // late send shows up as latency, not as a
                        // quietly thinner sample set.
                        let lat = Instant::now().saturating_duration_since(sched);
                        tally
                            .hist
                            .record(u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX));
                    }
                    Ok(tally)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("an open-loop sender thread panicked".to_string()))
            })
            .collect::<Result<_, String>>()
    })?;
    let elapsed = t0.elapsed().as_secs_f64();

    let mut hist = LogHistogram::new();
    let mut sent_reports = 0u64;
    let mut acked = 0u64;
    let mut late_events = 0u64;
    let mut max_late_ns = 0u64;
    for tally in &tallies {
        hist.merge(&tally.hist);
        sent_reports += tally.sent_reports;
        acked += tally.acked;
        late_events += tally.late_events;
        max_late_ns = max_late_ns.max(tally.max_late_ns);
    }
    let sent_batches = hist.count();

    let mix_label: Vec<String> = entries
        .iter()
        .map(|e| format!("{}={}", e.name, e.weight))
        .collect();
    eprintln!(
        "open-loop: target {rate:.0} reports/s as {batch}-report batches every {} \
         over {duration:.1} s ({} senders, mix {})",
        fmt_ns(interval_ns),
        common.clients,
        mix_label.join(","),
    );
    eprintln!(
        "sent {sent_batches} batches ({sent_reports} reports) in {elapsed:.3} s \
         ({:.0} reports/s achieved); server absorbed {acked}",
        sent_reports as f64 / elapsed.max(1e-9),
    );
    eprintln!(
        "lateness: {late_events} events started ≥ one interval late; max lateness {}",
        fmt_ns(max_late_ns)
    );
    eprintln!("{}", hist.render("batch ack latency (from scheduled send)"));
    let buckets = hist.buckets();
    let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    for (le, bucket) in &buckets {
        let width = (bucket.saturating_mul(40) / peak).max(1);
        let bar = "#".repeat(usize::try_from(width).unwrap_or(40));
        eprintln!("  <= {:>9}  {bucket:>6}  {bar}", fmt_ns(*le));
    }

    if let Some(path) = flags.get("hist-output") {
        use std::io::Write as _;
        let mut out = crate::commands::open_output(path)?;
        let json = format!(
            "{{\n  \"target_rate_per_s\": {rate},\n  \"duration_s\": {duration},\n  \
             \"batch\": {batch},\n  \"senders\": {},\n  \"mix\": [{}],\n  \
             \"interval_ns\": {interval_ns},\n  \"sent_batches\": {sent_batches},\n  \
             \"sent_reports\": {sent_reports},\n  \"acked\": {acked},\n  \
             \"late_events\": {late_events},\n  \"max_lateness_ns\": {max_late_ns},\n  \
             \"elapsed_s\": {elapsed:.6},\n  \"ack_latency\": {}\n}}\n",
            common.clients,
            mix_label
                .iter()
                .map(|m| format!("\"{m}\""))
                .collect::<Vec<_>>()
                .join(", "),
            hist.to_json(),
        );
        out.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        if path != "-" {
            eprintln!("wrote the latency histogram to {path}");
        }
    }
    Ok(())
}
