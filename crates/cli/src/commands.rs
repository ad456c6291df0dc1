//! The batch-pipeline `ldp-cli` subcommands (the serving ones live in
//! `crate::serve`).

use crate::flags::Flags;
use ldp_bench::DataSource;
use ldp_bits::{masks_of_weight, Mask};
use ldp_core::frame::{read_snapshot, write_snapshot, FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::{tag, Writer};
use ldp_core::{clamp_normalize, user_rng, MarginalEstimator};
use ldp_oracles::pipeline::{
    header_for, Client, PipelineAccumulator, PipelineEstimate, PipelineReport, Protocol,
    SketchShape,
};
use ldp_server::{Control, QueryRequest, QueryTarget, Request, Response};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Open `path` for reading (`-` is stdin).
pub fn open_input(path: &str) -> Result<Box<dyn BufRead>, String> {
    if path == "-" {
        Ok(Box::new(BufReader::new(std::io::stdin())))
    } else {
        File::open(path)
            .map(|f| Box::new(BufReader::new(f)) as Box<dyn BufRead>)
            .map_err(|e| format!("cannot open {path}: {e}"))
    }
}

/// Open `path` for writing (`-` is stdout).
pub fn open_output(path: &str) -> Result<Box<dyn Write>, String> {
    if path == "-" {
        Ok(Box::new(BufWriter::new(std::io::stdout())))
    } else {
        File::create(path)
            .map(|f| Box::new(BufWriter::new(f)) as Box<dyn Write>)
            .map_err(|e| format!("cannot create {path}: {e}"))
    }
}

/// Read the mandatory header frame that opens every report stream.
fn read_stream_header<R: Read>(
    reader: &mut FrameReader<R>,
    what: &str,
) -> Result<StreamHeader, String> {
    let frame = reader
        .next_frame()
        .map_err(|e| format!("{what}: {e}"))?
        .ok_or_else(|| format!("{what}: empty stream (expected a header frame)"))?;
    StreamHeader::from_bytes(&frame).map_err(|e| format!("{what}: bad header frame: {e}"))
}

/// `encode`: CSV rows in, framed report stream out.
pub fn encode(flags: &Flags) -> Result<(), String> {
    let protocol = Protocol::parse(flags.require("protocol")?)?;
    let d: u32 = flags.parsed("d", 8)?;
    let k: u32 = flags.parsed("k", 2)?;
    let eps: f64 = flags.parsed("eps", 1.1)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let first_user: u64 = flags.parsed("first-user", 0)?;
    let batch: usize = flags.parsed("batch", 0)?;
    let sketch = SketchShape {
        hashes: flags.parsed("hashes", 5)?,
        width: flags.parsed("width", 256)?,
        family_seed: flags.parsed("family-seed", 1)?,
    };
    if !(1..=63).contains(&d) {
        return Err(format!("--d must be in 1..=63, got {d}"));
    }
    if k < 1 || k > d {
        return Err(format!("--k must be in 1..={d}, got {k}"));
    }

    let rows: Vec<u64> = match flags.get("generate") {
        Some(source_name) => {
            let n: usize = flags.parsed("n", 10_000)?;
            let source = match source_name {
                "taxi" => DataSource::Taxi,
                "movielens" => DataSource::MovieLens,
                "skewed" => DataSource::Skewed,
                other => {
                    return Err(format!(
                        "unknown --generate source {other:?}; expected taxi, movielens or skewed"
                    ))
                }
            };
            source.generate(d, n, seed).rows().to_vec()
        }
        None => {
            let input = flags.get("input").unwrap_or("-");
            ldp_data::csv::read_rows(open_input(input)?, d).map_err(|e| e.to_string())?
        }
    };

    let header = header_for(protocol, d, k, eps, sketch);
    // Build the client from the header (not the flags) so `encode`
    // exercises the exact rehydration path a remote peer would use.
    let client = Client::from_header(&header)?;

    let out = open_output(flags.get("output").unwrap_or("-"))?;
    let mut writer = FrameWriter::new(out);
    writer
        .write_frame(&header.to_bytes())
        .map_err(|e| e.to_string())?;
    let mut wire_bytes = 0usize;
    // With `--batch N`, reports are grouped into `REPORT_BATCH` frames
    // (wire v2) of up to N reports via the batched encode kernels — one
    // reusable frame buffer, no per-report allocation, byte-identical
    // to batching the serial loop's reports (tests/encode_kernels.rs).
    // `--batch 0` keeps the wire-v1 one-frame-per-report shape.
    if batch == 0 {
        for (i, &row) in rows.iter().enumerate() {
            let mut rng = user_rng(seed, first_user + i as u64);
            let report = client.encode_report(row, &mut rng);
            wire_bytes += report.len();
            writer.write_frame(&report).map_err(|e| e.to_string())?;
        }
    } else {
        let mut w = Writer::default();
        for (c, chunk) in rows.chunks(batch).enumerate() {
            client.encode_batch(chunk, seed, first_user + (c * batch) as u64, &mut w);
            wire_bytes += w.len();
            writer
                .write_frame(w.as_bytes())
                .map_err(|e| e.to_string())?;
        }
    }
    writer.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "encoded {} {} reports ({} wire bytes, users {}..{})",
        rows.len(),
        protocol.name(),
        wire_bytes,
        first_user,
        first_user + rows.len() as u64
    );
    Ok(())
}

/// How many reports `ingest` decodes into its reusable scratch before
/// each `absorb_batch` call. Large enough to amortize the batch
/// kernels' setup (dispatch hoisting, the InpEM dense scratch), small
/// enough that the scratch stays cache-resident.
const INGEST_BATCH: usize = 1024;

/// `ingest`: fold a report stream into a snapshot.
///
/// The read loop is the zero-allocation ingest path: one reusable frame
/// buffer; `REPORT_BATCH` frames absorbed straight from their bytes
/// (`absorb_frame`); and for wire-v1 single-report frames, a bounded
/// scratch of [`INGEST_BATCH`] decoded reports whose slots (and heap
/// capacity) are reused across batches via
/// `PipelineReport::decode_into`, with one `absorb_batch` per filled
/// scratch — steady state performs no per-report allocation.
pub fn ingest(flags: &Flags) -> Result<(), String> {
    let input = flags.get("input").unwrap_or("-");
    let mut reader = FrameReader::new(open_input(input)?);
    let header = read_stream_header(&mut reader, "report stream")?;
    let mut acc = PipelineAccumulator::empty(&header)?;
    let mut batch: Vec<PipelineReport> = Vec::with_capacity(INGEST_BATCH);
    let mut frame = Vec::new();
    let mut eof = false;
    while !eof {
        let mut filled = 0usize;
        while filled < INGEST_BATCH {
            if !reader
                .next_frame_into(&mut frame)
                .map_err(|e| format!("report stream: {e}"))?
            {
                eof = true;
                break;
            }
            if frame.first() == Some(&tag::REPORT_BATCH) {
                // Settle pending single reports first, then the whole
                // envelope (absorption order is immaterial by the
                // partition-invariance law, but this keeps counts easy
                // to follow).
                acc.absorb_batch(&batch[..filled])?;
                filled = 0;
                acc.absorb_frame(&frame)?;
                continue;
            }
            if filled < batch.len() {
                batch[filled].decode_into(&frame)?;
            } else {
                batch.push(PipelineReport::from_bytes(&frame)?);
            }
            filled += 1;
        }
        acc.absorb_batch(&batch[..filled])?;
    }
    let out = open_output(flags.get("output").unwrap_or("-"))?;
    let state = acc.to_bytes();
    write_snapshot(out, &header, &state).map_err(|e| e.to_string())?;
    eprintln!(
        "ingested {} reports into a {}-byte snapshot",
        acc.report_count(),
        state.len()
    );
    Ok(())
}

/// `merge`: combine N snapshots of the same pipeline into one.
pub fn merge(flags: &Flags) -> Result<(), String> {
    let inputs = flags.positional();
    // `--connect a:1,b:2`: pull the live merged snapshot from running
    // collectors over the control plane and fold them in alongside any
    // snapshot files — the offline half of federation (the online half
    // is `serve --upstream`).
    let remotes: Vec<&str> = flags
        .get("connect")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .collect()
        })
        .unwrap_or_default();
    if inputs.is_empty() && remotes.is_empty() {
        return Err("merge needs at least one snapshot path or --connect address".to_string());
    }
    let mut sources: Vec<(String, StreamHeader, Vec<u8>)> = Vec::new();
    for path in inputs {
        let (header, state) =
            read_snapshot(open_input(path)?).map_err(|e| format!("{path}: {e}"))?;
        sources.push((path.clone(), header, state));
    }
    for addr in remotes {
        let mut control = Control::connect(addr)?;
        match control
            .request(&Request::Snapshot)
            .map_err(|e| format!("{addr}: {e}"))?
        {
            Response::Snapshot { header, state } => sources.push((addr.to_string(), header, state)),
            other => return Err(format!("{addr}: unexpected snapshot response: {other:?}")),
        }
    }
    let total = sources.len();
    let mut merged: Option<(String, StreamHeader, PipelineAccumulator)> = None;
    for (source, header, state) in sources {
        let acc = PipelineAccumulator::from_state(&header, &state)
            .map_err(|e| format!("{source}: {e}"))?;
        merged = Some(match merged {
            None => (source, header, acc),
            Some((first, base_header, mut base)) => {
                if header != base_header {
                    return Err(format!(
                        "{source}: snapshot header differs from {first} — refusing to merge \
                         partial aggregates of different pipelines"
                    ));
                }
                base.merge(acc).map_err(|e| format!("{source}: {e}"))?;
                (first, base_header, base)
            }
        });
    }
    let Some((_, header, acc)) = merged else {
        return Err("merge needs at least one snapshot".to_string());
    };
    let state = acc.to_bytes();
    let out = open_output(flags.get("output").unwrap_or("-"))?;
    write_snapshot(out, &header, &state).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {total} snapshots: {} reports, {} state bytes",
        acc.report_count(),
        state.len()
    );
    Ok(())
}

/// Parse `--marginal 0,3` into a mask over `d` attributes.
fn parse_marginal(text: &str, d: u32) -> Result<Mask, String> {
    let mut attrs = Vec::new();
    for field in text.split(',') {
        let attr: u32 = field
            .trim()
            .parse()
            .map_err(|_| format!("bad attribute index {field:?} in --marginal"))?;
        if attr >= d {
            return Err(format!("attribute {attr} is outside the d = {d} domain"));
        }
        if attrs.contains(&attr) {
            return Err(format!("attribute {attr} repeats in --marginal"));
        }
        attrs.push(attr);
    }
    if attrs.is_empty() {
        return Err("--marginal needs at least one attribute".to_string());
    }
    attrs.sort_unstable();
    Ok(Mask::from_attrs(&attrs))
}

/// Attribute list of a mask, for output labels (`0+3`).
fn mask_label(mask: Mask) -> String {
    mask.attrs()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// Where `query` evaluates estimates: a finalized local snapshot, or a
/// live server reached over a control connection (`--connect`). Both
/// paths print identical output for the same absorbed reports — the
/// server computes with the exact code the local path uses.
enum QuerySource {
    /// A finalized snapshot read from a file or stdin.
    Local(PipelineEstimate),
    /// A control session against a running `ldp-cli serve`.
    Remote(Control),
}

impl QuerySource {
    /// One marginal table (mechanism pipelines).
    fn marginal(&mut self, mask: Mask, normalize: bool) -> Result<Vec<f64>, String> {
        match self {
            QuerySource::Local(PipelineEstimate::Mechanism(est)) => {
                let raw = est.marginal(mask);
                Ok(if normalize {
                    clamp_normalize(&raw)
                } else {
                    raw
                })
            }
            QuerySource::Local(PipelineEstimate::Oracle(_)) => {
                Err("oracle snapshots answer value queries, not marginals".to_string())
            }
            QuerySource::Remote(control) => {
                match control.request(&Request::Query(QueryRequest {
                    target: QueryTarget::Marginal(mask.0),
                    normalize,
                }))? {
                    Response::Query(table) => Ok(table),
                    other => Err(format!("unexpected query response: {other:?}")),
                }
            }
        }
    }

    /// One frequency estimate (oracle pipelines).
    fn value(&mut self, value: u64) -> Result<f64, String> {
        match self {
            QuerySource::Local(PipelineEstimate::Oracle(oracle)) => Ok(oracle.estimate(value)),
            QuerySource::Local(PipelineEstimate::Mechanism(_)) => {
                Err("mechanism snapshots answer marginal queries, not values".to_string())
            }
            QuerySource::Remote(control) => {
                match control.request(&Request::Query(QueryRequest {
                    target: QueryTarget::Value(value),
                    normalize: false,
                }))? {
                    Response::Query(table) => table
                        .first()
                        .copied()
                        .ok_or_else(|| "empty query response".to_string()),
                    other => Err(format!("unexpected query response: {other:?}")),
                }
            }
        }
    }

    /// The highest marginal order answerable (locally known from the
    /// estimate; remotely the header's k — the server re-validates).
    fn max_k(&self, header: &StreamHeader) -> u32 {
        match self {
            QuerySource::Local(PipelineEstimate::Mechanism(est)) => est.max_k(),
            _ => header.k,
        }
    }
}

/// `query`: finalize a snapshot — or interrogate a live server — into
/// estimates.
pub fn query(flags: &Flags) -> Result<(), String> {
    let format = flags.get("format").unwrap_or("csv");
    if format != "csv" && format != "json" {
        return Err(format!("--format must be csv or json, got {format:?}"));
    }
    let normalize = flags.has("normalize");
    // A single named target goes to the server's query endpoint; an
    // enumeration (all k-way marginals, or an oracle's full domain)
    // fetches one snapshot and finalizes locally instead — identical
    // output (proved by tests/serve.rs) for one round trip and one
    // collect+merge, rather than one per mask or domain value.
    let single_target = flags.get("marginal").is_some() || flags.get("value").is_some();
    let (header, reports, mut source) = match flags.get("connect") {
        Some(addr) => {
            let mut control = Control::connect(addr)?;
            if single_target {
                let stats = match control.request(&Request::Stats)? {
                    Response::Stats(stats) => stats,
                    other => return Err(format!("unexpected stats response: {other:?}")),
                };
                let header = stats
                    .header
                    .ok_or("server has not ingested any report stream yet")?;
                (header, stats.reports, QuerySource::Remote(control))
            } else {
                match control.request(&Request::Snapshot)? {
                    Response::Snapshot { header, state } => {
                        let acc = PipelineAccumulator::from_state(&header, &state)?;
                        let reports = acc.report_count();
                        (header, reports, QuerySource::Local(acc.finalize()))
                    }
                    other => return Err(format!("unexpected snapshot response: {other:?}")),
                }
            }
        }
        None => {
            let input = flags.get("input").unwrap_or("-");
            let (header, state) =
                read_snapshot(open_input(input)?).map_err(|e| format!("{input}: {e}"))?;
            let acc = PipelineAccumulator::from_state(&header, &state)?;
            let reports = acc.report_count();
            (header, reports, QuerySource::Local(acc.finalize()))
        }
    };
    if reports == 0 {
        return Err("no reports collected; nothing to estimate".to_string());
    }
    let protocol = Protocol::from_header(&header).map_or("?", Protocol::name);
    let mut out = open_output(flags.get("output").unwrap_or("-"))?;

    if header.mechanism_kind().is_some() {
        let max_k = source.max_k(&header);
        let k_query = header.k.min(max_k);
        let masks: Vec<Mask> = match flags.get("marginal") {
            Some(text) => {
                let mask = parse_marginal(text, header.d)?;
                if mask.weight() > max_k {
                    return Err(format!(
                        "marginal order {} exceeds the collected k = {max_k}",
                        mask.weight()
                    ));
                }
                vec![mask]
            }
            None => masks_of_weight(header.d, k_query).collect(),
        };
        match format {
            "csv" => {
                writeln!(out, "marginal,cell,estimate").map_err(|e| e.to_string())?;
                for &mask in &masks {
                    let label = mask_label(mask);
                    for (cell, v) in source.marginal(mask, normalize)?.iter().enumerate() {
                        writeln!(out, "{label},{cell},{v}").map_err(|e| e.to_string())?;
                    }
                }
            }
            _ => {
                writeln!(
                    out,
                    "{{\n  \"protocol\": \"{protocol}\", \"d\": {}, \"k\": {}, \
                     \"reports\": {reports}, \"normalized\": {normalize},",
                    header.d, header.k
                )
                .map_err(|e| e.to_string())?;
                writeln!(out, "  \"marginals\": [").map_err(|e| e.to_string())?;
                for (i, &mask) in masks.iter().enumerate() {
                    let attrs: Vec<String> = mask.attrs().map(|a| a.to_string()).collect();
                    let table: Vec<String> = source
                        .marginal(mask, normalize)?
                        .iter()
                        .map(|v| v.to_string())
                        .collect();
                    writeln!(
                        out,
                        "    {{\"attrs\": [{}], \"table\": [{}]}}{}",
                        attrs.join(", "),
                        table.join(", "),
                        if i + 1 == masks.len() { "" } else { "," }
                    )
                    .map_err(|e| e.to_string())?;
                }
                writeln!(out, "  ]\n}}").map_err(|e| e.to_string())?;
            }
        }
    } else {
        let values: Vec<u64> = match flags.get("value") {
            Some(text) => {
                let v: u64 = text.parse().map_err(|_| format!("bad --value {text:?}"))?;
                if header.d < 64 && v >> header.d != 0 {
                    return Err(format!("value {v} is outside the d = {} domain", header.d));
                }
                vec![v]
            }
            None => {
                if header.d > 24 {
                    return Err(format!(
                        "full-domain query over 2^{} values is too large; pass --value",
                        header.d
                    ));
                }
                (0..(1u64 << header.d)).collect()
            }
        };
        match format {
            "csv" => {
                writeln!(out, "value,estimate").map_err(|e| e.to_string())?;
                for &v in &values {
                    writeln!(out, "{v},{}", source.value(v)?).map_err(|e| e.to_string())?;
                }
            }
            _ => {
                writeln!(
                    out,
                    "{{\n  \"protocol\": \"{protocol}\", \"d\": {}, \"reports\": {reports},",
                    header.d
                )
                .map_err(|e| e.to_string())?;
                let cells: Vec<String> = values
                    .iter()
                    .map(|&v| {
                        source
                            .value(v)
                            .map(|est| format!("{{\"value\": {v}, \"estimate\": {est}}}"))
                    })
                    .collect::<Result<_, String>>()?;
                writeln!(out, "  \"frequencies\": [{}]\n}}", cells.join(", "))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    Ok(())
}

/// `rows`: generate a CSV population (helper for quickstarts and tests).
pub fn rows(flags: &Flags) -> Result<(), String> {
    let d: u32 = flags.parsed("d", 8)?;
    let n: usize = flags.parsed("n", 10_000)?;
    let seed: u64 = flags.parsed("seed", 42)?;
    let source = match flags.get("generate").unwrap_or("taxi") {
        "taxi" => DataSource::Taxi,
        "movielens" => DataSource::MovieLens,
        "skewed" => DataSource::Skewed,
        other => {
            return Err(format!(
                "unknown --generate source {other:?}; expected taxi, movielens or skewed"
            ))
        }
    };
    if !(1..=63).contains(&d) {
        return Err(format!("--d must be in 1..=63, got {d}"));
    }
    let data = source.generate(d, n, seed);
    let out = open_output(flags.get("output").unwrap_or("-"))?;
    data.write_csv(out, flags.has("bits"))
        .map_err(|e| e.to_string())?;
    Ok(())
}
