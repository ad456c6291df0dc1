//! The traced run's post-window stage replay: a workload's exact report
//! stream pushed through each layer in isolation — row generation,
//! encode, loopback TCP, frame parse, batch decode, absorb, state
//! serialization and merge, finalize and marginal reconstruction — with
//! a span around every layer call.

use crate::trace::{SpanLog, Tracer};
use ldp_bench::DataSource;
use ldp_bits::{masks_of_weight, Mask};
use ldp_core::frame::{FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::Writer;
use ldp_core::{MarginalEstimator, MechanismKind};
use ldp_oracles::pipeline::{
    decode_report_batch_into, Client, PipelineAccumulator, PipelineEstimate, PipelineReport,
};
use ldp_server::push_with;
use std::hint::black_box;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

/// Span names of the six mechanism runs, in `MechanismKind::SIX` order.
pub const RUN_SPANS: [&str; 6] = [
    "run.InpRR",
    "run.InpPS",
    "run.InpHT",
    "run.MargRR",
    "run.MargPS",
    "run.MargHT",
];

/// Header-only pushes timed per replay.
const EMPTY_PUSHES: usize = 20;

/// FWHT calls are repeated until they cover this many vector entries.
const FWHT_ENTRIES: usize = 1 << 22;

/// What to replay: a population slice and the frames the workload sent
/// for it.
pub struct ReplayInput {
    /// The workload's pipeline.
    pub header: StreamHeader,
    /// Where its rows come from, and the stream seed.
    pub source: DataSource,
    /// Seed of the population and of every report.
    pub seed: u64,
    /// Rows to replay (the first `rows` of the population).
    pub rows: usize,
    /// Reports per `REPORT_BATCH` frame.
    pub frame_reports: usize,
    /// Run the six mechanisms over the rows too (workloads whose
    /// window does not already run them).
    pub run_mechanisms: bool,
}

/// What the replay measured beyond its spans.
#[derive(Debug, Default)]
pub struct ReplayOutput {
    /// Reports replayed.
    pub reports: u64,
    /// Serialized size of the merged accumulator state.
    pub state_bytes: usize,
    /// The frames the replay encoded: byte-identical to what the
    /// workload sent for the same rows, which the workload checks.
    pub frames: Vec<Vec<u8>>,
}

/// Replay `input` through every layer, recording spans under a root
/// `replay` span on thread 0 of `tracer`.
pub fn replay(tracer: &Tracer, input: &ReplayInput) -> Result<ReplayOutput, String> {
    let mut log = tracer.log(0);
    log.span("replay", |log| replay_stages(log, input))
}

fn replay_stages(log: &mut SpanLog<'_>, input: &ReplayInput) -> Result<ReplayOutput, String> {
    let header = &input.header;
    let d = header.d;
    let client = Client::from_header(header)?;
    let mut out = ReplayOutput {
        reports: input.rows as u64,
        ..ReplayOutput::default()
    };

    // Rows, then encode, in the frame-sized chunks the workload used.
    let mut rows = vec![0u64; input.rows];
    let mut stream = input.source.stream(d, input.seed);
    for chunk in rows.chunks_mut(input.frame_reports) {
        log.span("data.fill", |_| stream.fill(chunk));
    }
    let mut w = Writer::default();
    let mut frames = Vec::new();
    for (i, chunk) in rows.chunks(input.frame_reports).enumerate() {
        let first_user = (i * input.frame_reports) as u64;
        log.span("encode", |_| {
            client.encode_batch(chunk, input.seed, first_user, &mut w);
        });
        frames.push(w.as_bytes().to_vec());
    }

    // The exact byte stream a push carries: header frame, then frames.
    let mut wire = Vec::new();
    let mut fw = FrameWriter::new(&mut wire);
    fw.write_frame(&header.to_bytes())
        .map_err(|e| e.to_string())?;
    for frame in &frames {
        fw.write_frame(frame).map_err(|e| e.to_string())?;
    }
    log.span("tcp.raw", |_| loopback_discard(&wire))?;

    let mut reader = FrameReader::new(wire.as_slice());
    let mut payload = Vec::new();
    reader
        .next_frame_into(&mut payload)
        .map_err(|e| e.to_string())?;
    for _ in &frames {
        log.span("frame.parse", |_| reader.next_frame_into(&mut payload))
            .map_err(|e| e.to_string())?;
    }

    // Two partial accumulators, as two server workers would hold.
    let mut scratch: Vec<PipelineReport> = Vec::new();
    let half = frames.len().div_ceil(2);
    let mut parts = Vec::new();
    for frames in frames.chunks(half.max(1)) {
        let mut acc = PipelineAccumulator::empty(header)?;
        for frame in frames {
            let n = log.span("decode", |_| decode_report_batch_into(frame, &mut scratch))?;
            log.span("absorb", |_| acc.absorb_batch(&scratch[..n]))?;
        }
        parts.push(acc);
    }
    let states: Vec<Vec<u8>> = parts
        .iter()
        .map(|acc| log.span("state.to_bytes", |_| acc.to_bytes()))
        .collect();
    let mut rehydrated = states
        .iter()
        .map(|state| {
            log.span("state.from_bytes", |_| {
                PipelineAccumulator::from_state(header, state)
            })
        })
        .collect::<Result<Vec<_>, String>>()?
        .into_iter();
    let mut merged = rehydrated.next().ok_or("replay has no frames")?;
    for part in rehydrated {
        log.span("state.merge", |_| merged.merge(part))?;
    }
    out.state_bytes = merged.to_bytes().len();

    let estimate = log.span("estimate.finalize", |_| merged.finalize());
    let PipelineEstimate::Mechanism(estimate) = estimate else {
        return Err("replay expects a mechanism pipeline".to_string());
    };
    for beta in masks_of_weight(d, header.k) {
        log.span("estimate.marginal", |_| black_box(estimate.marginal(beta)));
    }

    let mut vector: Vec<f64> = (0..1usize << d).map(|i| (i % 7) as f64).collect();
    for _ in 0..(FWHT_ENTRIES >> d).max(1) {
        log.span("transform.fwht", |_| {
            ldp_transform::fwht(black_box(&mut vector))
        });
    }

    if input.run_mechanisms {
        for (kind, name) in MechanismKind::SIX.iter().zip(RUN_SPANS) {
            let mech = kind.build(d, header.k, header.eps);
            log.span(name, |_| black_box(mech.run(&rows, input.seed)));
        }
    }
    out.frames = frames;
    Ok(out)
}

/// Send `bytes` over loopback TCP the way a push does (buffered frame
/// writes, then a half-close) into a reader that discards them.
fn loopback_discard(bytes: &[u8]) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<u64, String> {
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0u64;
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return Ok(total),
                    Ok(n) => total += n as u64,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.to_string()),
                }
            }
        });
        let sent = (|| -> Result<(), String> {
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            let mut writer = BufWriter::new(stream);
            writer.write_all(bytes).map_err(|e| e.to_string())?;
            let stream = writer.into_inner().map_err(|e| e.to_string())?;
            stream.shutdown(Shutdown::Write).map_err(|e| e.to_string())
        })();
        let received = reader
            .join()
            .map_err(|_| "the discarding reader panicked".to_string())??;
        sent?;
        if received == bytes.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "loopback carried {received} of {} bytes",
                bytes.len()
            ))
        }
    })
}

/// Time [`EMPTY_PUSHES`] header-only pushes (connect, accept, flush
/// round, ack) against a running server.
pub fn empty_pushes(tracer: &Tracer, addr: &str, header: &StreamHeader) -> Result<(), String> {
    let mut log = tracer.log(0);
    for _ in 0..EMPTY_PUSHES {
        log.span("client.empty_push", |_| push_with(addr, header, |_| Ok(())))?;
    }
    Ok(())
}

/// The all-`k`-way masks of a `d`-attribute domain, as query targets.
#[must_use]
pub fn kway_masks(d: u32, k: u32) -> Vec<Mask> {
    masks_of_weight(d, k).collect()
}
