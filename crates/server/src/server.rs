//! The aggregation server: accept loop, connection classification, and
//! the sharded worker pool.
//!
//! One server aggregates one pipeline. The first ingest connection's
//! `StreamHeader` establishes it and spawns the worker pool — `shards`
//! threads, each owning a private `PipelineAccumulator`. Connection
//! handlers round-robin work across workers over `std::sync::mpsc`
//! channels: `REPORT_BATCH` frames (wire v2) are forwarded raw, and a
//! single-report frame as a batch of one, to be validated and absorbed
//! straight from their bytes on the worker
//! (`PipelineAccumulator::absorb_frame`), keeping the socket thread on
//! pure frame I/O. A live snapshot collects every worker's serialized
//! state and merges them **in worker order**, so the `Accumulator`
//! partition-invariance law makes the result byte-identical to a
//! serial single-process ingest of the same reports, no matter how
//! connections, batches, and workers interleaved.

use crate::client::Control;
use crate::protocol::{PushRequest, QueryTarget, Request, Response, ServerStats};
use crate::relay::{read_checkpoint, write_checkpoint, Checkpoint, DownstreamEntry};
use ldp_bits::Mask;
use ldp_core::frame::{FrameError, FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::tag;
use ldp_core::{clamp_normalize, MarginalEstimator};
use ldp_oracles::pipeline::{encode_report_batch, PipelineAccumulator, PipelineEstimate, Protocol};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read timeout on every accepted socket: the upper bound on how long a
/// connection handler can go without noticing a shutdown (the
/// `keep_going` check of `FrameReader::next_frame_while`).
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// How often the relay thread wakes to check the push interval, the
/// shutdown flag, and backoff expiry.
const RELAY_POLL: Duration = Duration::from_millis(25);

/// Connect timeout for upstream pushes — tighter than the client
/// default so a dead upstream costs one backoff step, not seconds, per
/// attempt.
const RELAY_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// I/O timeout for upstream pushes.
const RELAY_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// First retry delay after a failed upstream push; doubles per failure
/// up to [`RELAY_BACKOFF_MAX`].
const RELAY_BACKOFF_MIN: Duration = Duration::from_millis(50);

/// Retry-delay ceiling for the at-least-once upstream push loop.
const RELAY_BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Bounded retry budget for the one final upstream push during a
/// graceful shutdown (a dead upstream must not wedge shutdown).
const FINAL_PUSH_ATTEMPTS: u32 = 4;

/// How often the (non-blocking) accept loop polls for the shutdown
/// flag while no connection is pending. Also the worst-case latency
/// before a new connection is accepted, so it is kept small: at 1 ms
/// the idle loop costs ~1000 no-op `accept` calls per second
/// (negligible), while connection setup stays off the critical path
/// of short ingest bursts.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// What a worker thread can be asked to do. Channel order is the
/// contract: a `Flush` or `Collect` answers only after every report the
/// same sender enqueued before it has been absorbed.
enum WorkerMsg {
    /// Absorb one raw `REPORT_BATCH` frame payload (a wire-v1 report
    /// frame arrives wrapped as a batch of one), settling the outcome
    /// into the sender's [`IngestProgress`]. Validating and absorbing
    /// on the worker keeps the connection handler on pure frame I/O.
    Batch(Vec<u8>, Arc<IngestProgress>),
    /// Acknowledge that everything enqueued earlier is absorbed.
    Flush(mpsc::Sender<()>),
    /// Serialize the current accumulator state.
    Collect(mpsc::Sender<Vec<u8>>),
}

/// Per-connection outcome of report frames settled on worker threads.
/// The connection handler reads it only after a flush round, when
/// channel order guarantees every frame it enqueued has been absorbed
/// (or refused) — so the ack still means "absorbed", never "enqueued".
#[derive(Default)]
struct IngestProgress {
    /// Reports absorbed out of this connection's frames.
    absorbed: AtomicU64,
    /// The first refused frame's error, folded into the ack.
    error: Mutex<Option<String>>,
}

impl IngestProgress {
    fn record_error(&self, message: String) {
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(message);
    }

    fn take_error(&self) -> Option<String> {
        self.error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

struct Worker {
    sender: mpsc::Sender<WorkerMsg>,
    handle: JoinHandle<()>,
}

/// The established pipeline: fixed header + the worker pool.
struct Pipeline {
    header: StreamHeader,
    workers: Vec<Worker>,
}

/// How the server participates in a federation tree (all optional:
/// a default-configured server is the standalone collector of PRs
/// 4–7). See `docs/WIRE_FORMAT.md` §7.3 and `docs/OPERATIONS.md`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (port `0` picks a free port).
    pub listen: String,
    /// Worker-pool size (must be ≥ 1).
    pub shards: usize,
    /// Push the merged snapshot to this collector periodically, on
    /// every snapshot request served, and on graceful shutdown.
    pub upstream: Option<String>,
    /// Interval between periodic upstream pushes.
    pub push_every: Duration,
    /// The identity pushed upstream. Defaults to the collector-id in
    /// the checkpoint being recovered, else the bound listen address.
    pub collector: Option<String>,
    /// Checkpoint file: recovered at startup if present, rewritten
    /// after acks per `checkpoint_every` and on graceful shutdown.
    pub checkpoint: Option<PathBuf>,
    /// Write a checkpoint once at least this many new reports have
    /// been absorbed since the last one (checked when an ingest
    /// stream is acknowledged).
    pub checkpoint_every: u64,
}

impl ServeConfig {
    /// A standalone (non-federated, non-checkpointing) configuration.
    #[must_use]
    pub fn new(listen: &str, shards: usize) -> ServeConfig {
        ServeConfig {
            listen: listen.to_string(),
            shards,
            upstream: None,
            push_every: Duration::from_secs(5),
            collector: None,
            checkpoint: None,
            checkpoint_every: 50_000,
        }
    }
}

/// What a checkpoint recovery restored, for startup logging.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    /// Locally-absorbed reports restored into the worker pool.
    pub reports: u64,
    /// The push-epoch counter at the checkpoint.
    pub epoch: u64,
    /// Downstream collectors whose snapshots were restored.
    pub downstream: usize,
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    shards: usize,
    shutdown: AtomicBool,
    next_worker: AtomicUsize,
    reports: AtomicU64,
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    rejected_frames: AtomicU64,
    started: Instant,
    pipeline: Mutex<Option<Pipeline>>,
    /// Where this collector pushes its merged snapshot (`None`: root
    /// or standalone).
    upstream: Option<String>,
    /// Interval between periodic upstream pushes.
    push_every: Duration,
    /// The identity this collector pushes under.
    collector: String,
    /// The push-epoch counter; each push consumes the next epoch.
    epoch: AtomicU64,
    /// The latest `(epoch, state)` each downstream collector pushed,
    /// keyed — and therefore merged — in collector-id order.
    downstream: Mutex<BTreeMap<String, (u64, Vec<u8>)>>,
    /// Checkpoint file path (`None`: durability disabled).
    checkpoint: Option<PathBuf>,
    /// Threshold of newly absorbed reports that triggers a rewrite.
    checkpoint_every: u64,
    /// Locally-absorbed report count at the last checkpoint write;
    /// also serializes writers (held across the file write).
    checkpoint_mark: Mutex<u64>,
    /// Serializes upstream pushes so epochs leave in collect order.
    push_lock: Mutex<()>,
}

/// Absorb one `REPORT_BATCH` frame payload straight from its bytes
/// (`PipelineAccumulator::absorb_frame`). A frame settles or fails as a
/// unit: any decode, protocol or range error refuses every report in
/// it, counts one rejected frame, records the message for the
/// connection's ack, and leaves the accumulator untouched.
fn absorb_batch_frame(
    acc: &mut PipelineAccumulator,
    payload: &[u8],
    progress: &IngestProgress,
    shared: &Shared,
) {
    match acc.absorb_frame(payload) {
        Ok(n) => {
            let n = n as u64;
            shared.reports.fetch_add(n, Ordering::Relaxed);
            progress.absorbed.fetch_add(n, Ordering::Relaxed);
        }
        Err(message) => {
            shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
            progress.record_error(message);
        }
    }
}

fn worker_loop(mut acc: PipelineAccumulator, rx: mpsc::Receiver<WorkerMsg>, shared: Arc<Shared>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch(payload, progress) => {
                absorb_batch_frame(&mut acc, &payload, &progress, &shared);
            }
            WorkerMsg::Flush(ack) => {
                let _ = ack.send(());
            }
            WorkerMsg::Collect(reply) => {
                let _ = reply.send(acc.to_bytes());
            }
        }
    }
}

impl Shared {
    fn keep_going(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Lock the pipeline slot, recovering from poison: the lock is only
    /// poisoned if a holder panicked, and everything under it (the
    /// header and the worker handles) is valid at every instruction, so
    /// one crashed connection handler must not cascade a panic into
    /// every other handler that touches the pipeline afterwards.
    fn lock_pipeline(&self) -> MutexGuard<'_, Option<Pipeline>> {
        self.pipeline.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Establish the pipeline from the first stream's header (spawning
    /// the worker pool), or verify a later stream matches it exactly.
    fn establish(self: &Arc<Self>, header: StreamHeader) -> Result<(), String> {
        self.establish_seeded(header, None)
    }

    /// [`Shared::establish`], optionally seeding worker 0 with a
    /// recovered accumulator state (checkpoint recovery): merging in
    /// worker order then makes the live state `recovered ⊕ new`, which
    /// the partition-invariance law keeps byte-identical to a serial
    /// ingest of both report sets.
    fn establish_seeded(
        self: &Arc<Self>,
        header: StreamHeader,
        seed: Option<&[u8]>,
    ) -> Result<(), String> {
        let mut guard = self.lock_pipeline();
        if let Some(pipeline) = guard.as_ref() {
            if pipeline.header == header {
                return Ok(());
            }
            return Err(format!(
                "stream header does not match the established {} pipeline \
                 (one server aggregates one pipeline; start another server \
                 for a different protocol or parameter set)",
                Protocol::from_header(&pipeline.header).map_or("?", Protocol::name),
            ));
        }
        let mut seed = seed;
        let workers = (0..self.shards)
            .map(|_| {
                let acc = match seed.take() {
                    Some(state) => PipelineAccumulator::from_state(&header, state)?,
                    None => PipelineAccumulator::empty(&header)?,
                };
                let (sender, rx) = mpsc::channel();
                let shared = Arc::clone(self);
                let handle = std::thread::spawn(move || worker_loop(acc, rx, shared));
                Ok(Worker { sender, handle })
            })
            .collect::<Result<Vec<_>, String>>()?;
        *guard = Some(Pipeline { header, workers });
        Ok(())
    }

    /// Clone out the established header and worker senders, so report
    /// dispatch runs without touching the pipeline lock.
    fn senders(&self) -> Option<(StreamHeader, Vec<mpsc::Sender<WorkerMsg>>)> {
        let guard = self.lock_pipeline();
        guard.as_ref().map(|p| {
            (
                p.header,
                p.workers.iter().map(|w| w.sender.clone()).collect(),
            )
        })
    }

    /// Lock the downstream replacement table, recovering from poison
    /// (entries are whole `(epoch, state)` pairs, valid at every
    /// instruction).
    fn lock_downstream(&self) -> MutexGuard<'_, BTreeMap<String, (u64, Vec<u8>)>> {
        self.downstream
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the checkpoint mark. Held across the checkpoint file write
    /// so concurrent ingest acks serialize their writes.
    fn lock_checkpoint_mark(&self) -> MutexGuard<'_, u64> {
        self.checkpoint_mark
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The live merged snapshot as serialized state (what snapshot
    /// responses and snapshot files carry).
    fn collect(&self) -> Result<(StreamHeader, Vec<u8>), String> {
        let (header, merged) = self.collect_merged()?;
        Ok((header, merged.to_bytes()))
    }

    /// The full live view: the local accumulator
    /// ([`Shared::collect_local`]), then every downstream collector's
    /// latest push merged in collector-id order. Both orders are
    /// deterministic, so the partition-invariance law keeps the result
    /// byte-identical to a serial single-process ingest of every report
    /// in the subtree.
    fn collect_merged(&self) -> Result<(StreamHeader, PipelineAccumulator), String> {
        let (header, mut merged) = self.collect_local()?;
        let downstream = self.lock_downstream();
        for (collector, (_, state)) in downstream.iter() {
            let acc = PipelineAccumulator::from_state(&header, state)
                .map_err(|e| format!("downstream snapshot from {collector}: {e}"))?;
            merged.merge(acc)?;
        }
        Ok((header, merged))
    }

    /// The locally-absorbed accumulator: every worker's state, merged
    /// in worker order. Excludes downstream pushes — this is what a
    /// checkpoint stores as `local_state`.
    fn collect_local(&self) -> Result<(StreamHeader, PipelineAccumulator), String> {
        let guard = self.lock_pipeline();
        let pipeline = guard
            .as_ref()
            .ok_or("no report stream has been ingested yet")?;
        let receivers: Vec<mpsc::Receiver<Vec<u8>>> = pipeline
            .workers
            .iter()
            .map(|w| {
                let (tx, rx) = mpsc::channel();
                w.sender
                    .send(WorkerMsg::Collect(tx))
                    .map(|()| rx)
                    .map_err(|_| "a worker thread exited unexpectedly".to_string())
            })
            .collect::<Result<_, String>>()?;
        let mut merged: Option<PipelineAccumulator> = None;
        for rx in receivers {
            let state = rx
                .recv()
                .map_err(|_| "a worker thread exited unexpectedly".to_string())?;
            let acc = PipelineAccumulator::from_state(&pipeline.header, &state)?;
            merged = Some(match merged {
                None => acc,
                Some(mut base) => {
                    base.merge(acc)?;
                    base
                }
            });
        }
        let merged = merged.ok_or("server has no workers")?;
        Ok((pipeline.header, merged))
    }

    fn stats(&self) -> ServerStats {
        let header = self.lock_pipeline().as_ref().map(|p| p.header);
        ServerStats {
            header,
            reports: self.reports.load(Ordering::Relaxed),
            workers: self.shards as u32,
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed) as u32,
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }

    /// Answer one query against the live accumulator (collect, merge,
    /// finalize).
    fn query(&self, target: QueryTarget, normalize: bool) -> Result<Vec<f64>, String> {
        let (header, acc) = self.collect_merged()?;
        if acc.report_count() == 0 {
            return Err("accumulator holds no reports; nothing to estimate".to_string());
        }
        match (acc.finalize(), target) {
            (PipelineEstimate::Mechanism(est), QueryTarget::Marginal(bits)) => {
                if bits == 0 {
                    return Err("marginal mask selects no attributes".to_string());
                }
                if header.d < 64 && bits >> header.d != 0 {
                    return Err(format!(
                        "marginal mask {bits:#x} is outside the d = {} domain",
                        header.d
                    ));
                }
                let mask = Mask(bits);
                if mask.weight() > est.max_k() {
                    return Err(format!(
                        "marginal order {} exceeds the collected k = {}",
                        mask.weight(),
                        est.max_k()
                    ));
                }
                let table = est.marginal(mask);
                Ok(if normalize {
                    clamp_normalize(&table)
                } else {
                    table
                })
            }
            (PipelineEstimate::Oracle(oracle), QueryTarget::Value(value)) => {
                if header.d < 64 && value >> header.d != 0 {
                    return Err(format!(
                        "value {value} is outside the d = {} domain",
                        header.d
                    ));
                }
                Ok(vec![oracle.estimate(value)])
            }
            (PipelineEstimate::Mechanism(_), QueryTarget::Value(_)) => Err(
                "this server aggregates a mechanism pipeline; query a marginal mask".to_string(),
            ),
            (PipelineEstimate::Oracle(_), QueryTarget::Marginal(_)) => {
                Err("this server aggregates an oracle pipeline; query a value".to_string())
            }
        }
    }

    /// Apply one downstream push: validate it against the established
    /// pipeline (establishing from the push's header if no stream has
    /// arrived yet), then *replace* the pusher's previous snapshot —
    /// unless its epoch is stale, in which case the push is refused by
    /// name so a restarted child can fast-forward its counter.
    fn apply_push(self: &Arc<Self>, push: PushRequest) -> Response {
        if let Err(message) = self.establish_seeded(push.header, None) {
            self.rejected_frames.fetch_add(1, Ordering::Relaxed);
            return Response::Error(format!("snapshot push from {}: {message}", push.collector));
        }
        if let Err(e) = PipelineAccumulator::from_state(&push.header, &push.state) {
            self.rejected_frames.fetch_add(1, Ordering::Relaxed);
            return Response::Error(format!(
                "snapshot push from {} does not decode: {e}",
                push.collector
            ));
        }
        let mut downstream = self.lock_downstream();
        match downstream.get(&push.collector) {
            Some(&(held, _)) if push.epoch < held => Response::Push {
                applied: false,
                latest_epoch: held,
            },
            _ => {
                let epoch = push.epoch;
                downstream.insert(push.collector, (epoch, push.state));
                Response::Push {
                    applied: true,
                    latest_epoch: epoch,
                }
            }
        }
    }

    /// Write a checkpoint if at least `checkpoint_every` reports have
    /// been absorbed since the last one. Runs on the ingest-ack path
    /// after the flush round, so every report the checkpoint counts is
    /// already inside a worker accumulator — an acknowledged stream is
    /// durable (at `--checkpoint-every 1`) before its client sees the
    /// ack.
    fn maybe_checkpoint(&self) {
        let Some(path) = self.checkpoint.as_ref() else {
            return;
        };
        let mut mark = self.lock_checkpoint_mark();
        let absorbed = self.reports.load(Ordering::Relaxed);
        if absorbed.saturating_sub(*mark) < self.checkpoint_every {
            return;
        }
        match self.write_checkpoint_to(path) {
            Ok(reports) => *mark = reports,
            Err(e) => eprintln!("checkpoint: {e}"),
        }
    }

    /// Build and atomically write the checkpoint blob: local-only
    /// state plus the downstream replacement table, kept separate so a
    /// recovered collector never double-counts a child's re-push.
    /// Returns the local report count it recorded.
    fn write_checkpoint_to(&self, path: &std::path::Path) -> Result<u64, String> {
        let (header, local) = self.collect_local()?;
        let reports = local.report_count();
        let downstream = self
            .lock_downstream()
            .iter()
            .map(|(collector, &(epoch, ref state))| DownstreamEntry {
                collector: collector.clone(),
                epoch,
                state: state.clone(),
            })
            .collect();
        write_checkpoint(
            path,
            &Checkpoint {
                collector: self.collector.clone(),
                epoch: self.epoch.load(Ordering::SeqCst),
                reports,
                header,
                local_state: local.to_bytes(),
                downstream,
            },
        )?;
        Ok(reports)
    }

    /// Push the full merged view upstream under the next epoch.
    /// `Ok(true)` means the upstream replaced its entry; `Ok(false)`
    /// means there was nothing to push yet. Any failure is `Err` — the
    /// relay loop backs off and retries, and because every push
    /// carries the *cumulative* view, re-pushing a later snapshot
    /// under a later epoch is exactly the at-least-once contract.
    fn push_upstream(&self, upstream: &str) -> Result<bool, String> {
        let _serialize = self
            .push_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Ok((header, state)) = self.collect() else {
            // No stream has been ingested yet: nothing to push.
            return Ok(false);
        };
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut control =
            Control::connect_within(upstream, RELAY_CONNECT_TIMEOUT, RELAY_IO_TIMEOUT)?;
        let response = control.request(&Request::Push(PushRequest {
            collector: self.collector.clone(),
            epoch,
            header,
            state,
        }))?;
        match response {
            Response::Push { applied: true, .. } => Ok(true),
            Response::Push {
                applied: false,
                latest_epoch,
            } => {
                // The upstream holds a later epoch — this collector
                // restarted from an old checkpoint. Fast-forward past
                // it so the next push applies.
                self.epoch.fetch_max(latest_epoch, Ordering::SeqCst);
                Err(format!(
                    "upstream {upstream} holds epoch {latest_epoch}, ours was {epoch}; \
                     epoch fast-forwarded for the next push"
                ))
            }
            other => Err(format!("unexpected push response: {other:?}")),
        }
    }
}

/// The relay thread of a non-root collector: push the merged view
/// upstream every `push_every`, backing off (doubling, capped) while
/// the upstream is unreachable, until shutdown.
fn relay_loop(shared: &Arc<Shared>, upstream: &str) {
    let mut last_push = Instant::now();
    let mut backoff = RELAY_BACKOFF_MIN;
    let mut retry_at: Option<Instant> = None;
    while shared.keep_going() {
        std::thread::sleep(RELAY_POLL);
        let due = match retry_at {
            Some(at) => Instant::now() >= at,
            None => last_push.elapsed() >= shared.push_every,
        };
        if !due {
            continue;
        }
        match shared.push_upstream(upstream) {
            Ok(_) => {
                last_push = Instant::now();
                backoff = RELAY_BACKOFF_MIN;
                retry_at = None;
            }
            Err(e) => {
                eprintln!("relay: push to {upstream} failed: {e}");
                retry_at = Some(Instant::now() + backoff);
                backoff = (backoff * 2).min(RELAY_BACKOFF_MAX);
            }
        }
    }
}

/// What [`Server::run`] returns after a graceful shutdown.
#[derive(Debug)]
pub struct ServerSummary {
    /// The final snapshot (`None` if no stream was ever ingested).
    pub snapshot: Option<(StreamHeader, Vec<u8>)>,
    /// Reports absorbed in total.
    pub reports: u64,
    /// Connections accepted in total.
    pub connections: u64,
}

/// A bound (but not yet running) aggregation server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    recovery: Option<Recovery>,
}

impl Server {
    /// Bind to `listen` (e.g. `127.0.0.1:7878`; port `0` picks a free
    /// port — read it back with [`Server::local_addr`]) with a worker
    /// pool of `shards` accumulator threads.
    pub fn bind(listen: &str, shards: usize) -> Result<Server, String> {
        Server::bind_with(&ServeConfig::new(listen, shards))
    }

    /// [`Server::bind`] with federation and durability options. If the
    /// configured checkpoint file exists, it is recovered before
    /// serving: the local state seeds the worker pool, and the
    /// downstream table resumes replacement semantics, so children
    /// re-pushing after the restart replace rather than double-count.
    pub fn bind_with(config: &ServeConfig) -> Result<Server, String> {
        if config.shards == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if config.checkpoint.is_some() && config.checkpoint_every == 0 {
            return Err("checkpoint interval must be at least 1 report".to_string());
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", config.listen))?;
        let recovered = match config.checkpoint.as_ref() {
            Some(path) if path.exists() => Some(read_checkpoint(path)?),
            _ => None,
        };
        let collector = config
            .collector
            .clone()
            .or_else(|| recovered.as_ref().map(|cp| cp.collector.clone()))
            .or_else(|| listener.local_addr().ok().map(|a| a.to_string()))
            .unwrap_or_else(|| config.listen.clone());
        let shared = Arc::new(Shared {
            shards: config.shards,
            shutdown: AtomicBool::new(false),
            next_worker: AtomicUsize::new(0),
            reports: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            rejected_frames: AtomicU64::new(0),
            started: Instant::now(),
            pipeline: Mutex::new(None),
            upstream: config.upstream.clone(),
            push_every: config.push_every,
            collector,
            epoch: AtomicU64::new(0),
            downstream: Mutex::new(BTreeMap::new()),
            checkpoint: config.checkpoint.clone(),
            checkpoint_every: config.checkpoint_every,
            checkpoint_mark: Mutex::new(0),
            push_lock: Mutex::new(()),
        });
        let recovery = match recovered {
            None => None,
            Some(cp) => {
                shared
                    .establish_seeded(cp.header, Some(&cp.local_state))
                    .map_err(|e| format!("checkpoint recovery: {e}"))?;
                shared.reports.store(cp.reports, Ordering::SeqCst);
                shared.epoch.store(cp.epoch, Ordering::SeqCst);
                *shared.lock_checkpoint_mark() = cp.reports;
                let mut downstream = shared.lock_downstream();
                for entry in cp.downstream {
                    downstream.insert(entry.collector, (entry.epoch, entry.state));
                }
                let restored = downstream.len();
                drop(downstream);
                Some(Recovery {
                    reports: cp.reports,
                    epoch: cp.epoch,
                    downstream: restored,
                })
            }
        };
        Ok(Server {
            listener,
            shared,
            recovery,
        })
    }

    /// What checkpoint recovery restored at bind time (`None`: fresh
    /// start), for startup logging.
    #[must_use]
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// The address actually bound (resolves a `:0` port request).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read the bound address: {e}"))
    }

    /// Serve until a graceful-shutdown request arrives, then drain
    /// connection handlers, take the final snapshot, and tear down the
    /// worker pool.
    pub fn run(self) -> Result<ServerSummary, String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll the listener: {e}"))?;
        let relay = self.shared.upstream.clone().map(|upstream| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || relay_loop(&shared, &upstream))
        });
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while self.shared.keep_going() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(shared, stream);
                    }));
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // Handlers notice the flag within one READ_TIMEOUT window; the
        // relay thread within one RELAY_POLL.
        for handle in handlers {
            let _ = handle.join();
        }
        if let Some(handle) = relay {
            let _ = handle.join();
        }
        // One final at-least-once push (bounded retries — a dead
        // upstream must not wedge shutdown) so reports absorbed since
        // the last periodic push survive in the parent.
        if let Some(upstream) = self.shared.upstream.as_deref() {
            let mut backoff = RELAY_BACKOFF_MIN;
            for attempt in 1..=FINAL_PUSH_ATTEMPTS {
                match self.shared.push_upstream(upstream) {
                    Ok(_) => break,
                    Err(e) => {
                        eprintln!(
                            "final push to {upstream} failed \
                             (attempt {attempt}/{FINAL_PUSH_ATTEMPTS}): {e}"
                        );
                        if attempt < FINAL_PUSH_ATTEMPTS {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(RELAY_BACKOFF_MAX);
                        }
                    }
                }
            }
        }
        // Final checkpoint, recording the post-push epoch, so a
        // restart resumes from the graceful shutdown point.
        if self.shared.checkpoint.is_some() && self.shared.lock_pipeline().is_some() {
            if let Some(path) = self.shared.checkpoint.as_ref() {
                let mut mark = self.shared.lock_checkpoint_mark();
                match self.shared.write_checkpoint_to(path) {
                    Ok(reports) => *mark = reports,
                    Err(e) => eprintln!("final checkpoint: {e}"),
                }
            }
        }
        let snapshot = self.shared.collect().ok();
        let pipeline = self.shared.lock_pipeline().take();
        if let Some(pipeline) = pipeline {
            for Worker { sender, handle } in pipeline.workers {
                drop(sender); // closes the channel; the worker loop ends
                let _ = handle.join();
            }
        }
        Ok(ServerSummary {
            snapshot,
            reports: self.shared.reports.load(Ordering::Relaxed),
            connections: self.shared.connections_accepted.load(Ordering::Relaxed),
        })
    }
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    shared.connections_active.fetch_add(1, Ordering::Relaxed);
    // Per-connection failures are answered on the wire (or the peer
    // vanished); either way the server itself keeps serving.
    let _ = serve_connection(&shared, stream);
    shared.connections_active.fetch_sub(1, Ordering::Relaxed);
}

// `FrameReader` buffers socket reads itself (slicing many frames out
// of one `read` call), so the read half needs no `BufReader`.
type ConnReader = FrameReader<TcpStream>;
type ConnWriter = FrameWriter<BufWriter<TcpStream>>;

fn reply(writer: &mut ConnWriter, response: &Response) -> Result<(), String> {
    writer
        .write_frame(&response.to_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write response: {e}"))
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) -> Result<(), String> {
    stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("cannot configure the socket: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the socket: {e}"))?;
    let mut reader = FrameReader::new(read_half);
    let mut writer = FrameWriter::new(BufWriter::new(stream));

    let first = match reader.next_frame_while(|| shared.keep_going()) {
        Ok(Some(frame)) => frame,
        Ok(None) | Err(FrameError::Interrupted) => return Ok(()),
        Err(e) => return Err(format!("bad first frame: {e}")),
    };
    match first.first() {
        Some(&tag::STREAM_HEADER) => handle_ingest(shared, &first, &mut reader, &mut writer),
        Some(&(tag::REQ_SNAPSHOT..=tag::REQ_PUSH)) => {
            handle_control(shared, first, &mut reader, &mut writer)
        }
        _ => {
            let message = format!(
                "expected a stream header or request frame, got tag {:?}",
                first.first()
            );
            reply(&mut writer, &Response::Error(message.clone()))?;
            Err(message)
        }
    }
}

/// An ingest connection: header frame, then report frames until a clean
/// end-of-stream, answered with one `Ingested` acknowledgement after
/// every absorbed report is flushed through the workers.
fn handle_ingest(
    shared: &Arc<Shared>,
    header_frame: &[u8],
    reader: &mut ConnReader,
    writer: &mut ConnWriter,
) -> Result<(), String> {
    let header = match StreamHeader::from_bytes(header_frame) {
        Ok(header) => header,
        Err(e) => {
            let message = format!("bad header frame: {e}");
            shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
            reply(writer, &Response::Error(message.clone()))?;
            return Err(message);
        }
    };
    if let Err(message) = shared.establish(header) {
        shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
        reply(writer, &Response::Error(message.clone()))?;
        return Err(message);
    }
    // `establish` just succeeded, so the pipeline can only be absent if
    // shutdown tore it down concurrently — degrade, don't panic.
    let Some((_, senders)) = shared.senders() else {
        return Ok(());
    };

    // Outcome of report frames, settled by whichever workers absorb
    // them; folded into the ack after the end-of-stream flush round.
    let progress = Arc::new(IngestProgress::default());
    // One frame buffer per connection: a batch frame hands the buffer
    // itself to a worker and the next read starts fresh; a
    // single-report frame is copied into its batch of one and the
    // buffer is reused.
    let mut frame = Vec::new();
    loop {
        match reader.next_frame_while_into(&mut frame, || shared.keep_going()) {
            Ok(true) => {
                // Validation and absorption run on the worker; the
                // handler only routes the raw payload, keeping the
                // socket thread on pure frame I/O. A wire-v1 report
                // frame travels as a batch of one, so it settles (and
                // is refused) exactly like a batch.
                let payload = if frame.first() == Some(&tag::REPORT_BATCH) {
                    std::mem::take(&mut frame)
                } else {
                    encode_report_batch(std::slice::from_ref(&frame))
                };
                let slot = shared.next_worker.fetch_add(1, Ordering::Relaxed) % senders.len();
                // The modulo keeps `slot` in range (shards ≥ 1); `get`
                // keeps the dispatch index-panic-free regardless.
                match senders.get(slot) {
                    Some(sender)
                        if sender
                            .send(WorkerMsg::Batch(payload, Arc::clone(&progress)))
                            .is_ok() => {}
                    _ => return Ok(()), // workers torn down: shutting down
                }
            }
            Ok(false) => {
                // Clean end-of-stream: flush every worker so the ack
                // means "absorbed", not "enqueued". The flush round
                // settles every frame this connection enqueued, so
                // `progress` is complete below.
                for sender in &senders {
                    let (tx, rx) = mpsc::channel();
                    if sender.send(WorkerMsg::Flush(tx)).is_ok() {
                        let _ = rx.recv();
                    }
                }
                if let Some(message) = progress.take_error() {
                    reply(writer, &Response::Error(message.clone()))?;
                    return Err(message);
                }
                let absorbed = progress.absorbed.load(Ordering::Relaxed);
                // Durability before the ack: at `--checkpoint-every 1`
                // a client that saw its ack knows the reports survive
                // a crash (coarser cadences trade that for less I/O).
                shared.maybe_checkpoint();
                return reply(writer, &Response::Ingested(absorbed));
            }
            Err(FrameError::Interrupted) => return Ok(()), // shutdown mid-stream
            Err(e) => {
                // Disconnect or corruption mid-stream: everything
                // complete up to here stays absorbed; the partial frame
                // is dropped.
                let _ = reply(writer, &Response::Error(format!("report stream: {e}")));
                return Err(format!("report stream: {e}"));
            }
        }
    }
}

/// A control connection: request frames until the peer closes, each
/// answered by exactly one response frame.
fn handle_control(
    shared: &Arc<Shared>,
    first: Vec<u8>,
    reader: &mut ConnReader,
    writer: &mut ConnWriter,
) -> Result<(), String> {
    let mut frame = first;
    loop {
        let (response, stop) = match Request::from_bytes(&frame) {
            Ok(Request::Snapshot) => {
                // A federated collector pushes upstream before
                // answering, so walking a tree leaf-to-root with
                // snapshot requests deterministically propagates every
                // absorbed report to the root (the fleet tests depend
                // on this; a failed push is logged and the snapshot is
                // still served).
                if let Some(upstream) = shared.upstream.as_deref() {
                    if let Err(e) = shared.push_upstream(upstream) {
                        eprintln!("relay: push to {upstream} failed: {e}");
                    }
                }
                (
                    match shared.collect() {
                        Ok((header, state)) => Response::Snapshot { header, state },
                        Err(e) => Response::Error(e),
                    },
                    false,
                )
            }
            Ok(Request::Push(push)) => (shared.apply_push(push), false),
            Ok(Request::Query(q)) => (
                match shared.query(q.target, q.normalize) {
                    Ok(table) => Response::Query(table),
                    Err(e) => Response::Error(e),
                },
                false,
            ),
            Ok(Request::Stats) => (Response::Stats(shared.stats()), false),
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                (
                    Response::Shutdown(shared.reports.load(Ordering::Relaxed)),
                    true,
                )
            }
            Err(e) => (Response::Error(format!("bad request frame: {e}")), false),
        };
        reply(writer, &response)?;
        if stop {
            return Ok(());
        }
        frame = match reader.next_frame_while(|| shared.keep_going()) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(FrameError::Interrupted) => return Ok(()),
            Err(e) => return Err(format!("control connection: {e}")),
        };
    }
}
