#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Concurrent TCP aggregation server for the framed report-stream
//! protocol — the serving half of the paper's deployment model: each
//! user ships one tiny constant-size report, a long-running collector
//! absorbs millions of them, and any k-way marginal is reconstructed on
//! demand from the compact accumulator state.
//!
//! Built on `std::net` + `std::thread` only (the workspace builds
//! offline). Three layers:
//!
//! * [`protocol`] — the control-plane request/response frames
//!   (`snapshot` / `query` / `stats` / `shutdown`) layered on the same
//!   length-prefixed frame format as report streams;
//! * [`server`] — [`server::Server`]: an accept loop that classifies
//!   each connection by its first frame (a `StreamHeader` opens an
//!   ingest stream, a request tag opens a control session) and shards
//!   ingestion across a worker pool of per-thread accumulators;
//! * [`client`] — blocking client helpers ([`client::push_reports`],
//!   [`client::Control`]) used by `ldp-cli load` / `snapshot` / `stats`
//!   / `query --connect` and by the repo benchmark (`benchmark/`);
//! * [`relay`] — the collector checkpoint file (wire v3) behind
//!   `serve --checkpoint`, so a crashed collector resumes where its
//!   last checkpoint left it.
//!
//! Servers federate into aggregation trees (wire v3): a collector
//! started with an upstream address periodically pushes its merged
//! snapshot one hop up ([`protocol::PushRequest`]); the upstream keeps
//! the latest push per downstream collector and *replaces* it on every
//! re-push, so the at-least-once relay never double-counts. See
//! `docs/WIRE_FORMAT.md` §7.3 and the federation runbook in
//! `docs/OPERATIONS.md`.
//!
//! The server's correctness contract is the `Accumulator`
//! partition-invariance law: however concurrent connections interleave
//! and however reports land on workers, merging the worker states in
//! worker order yields accumulator state **byte-identical** to a serial
//! single-process ingest of the same reports (proved end-to-end against
//! the real binary by `tests/serve.rs`, and across whole process trees
//! by `tests/federation.rs`). The byte-level encoding of every frame is
//! specified in `docs/WIRE_FORMAT.md`; operational guidance lives in
//! `docs/OPERATIONS.md`.

pub mod client;
pub mod protocol;
pub mod relay;
pub mod server;

pub use client::{push_frame, push_reports, push_with, Control, PushWriter};
pub use protocol::{PushRequest, QueryRequest, QueryTarget, Request, Response, ServerStats};
pub use relay::{read_checkpoint, write_checkpoint, Checkpoint, DownstreamEntry};
pub use server::{Recovery, ServeConfig, Server, ServerSummary};
