//! The aggregation server: accept loop, connection classification, and
//! the sharded accumulators.
//!
//! One server aggregates one pipeline. The first ingest connection's
//! `StreamHeader` establishes it: `shards` accumulators, each behind its
//! own lock, plus `shards − 1` helper threads. A connection handler
//! offers each raw `REPORT_BATCH` frame to the helpers over one shared
//! channel `shards` frames deep; when the channel is full it absorbs the
//! frame itself ("caller runs"), so no frame ever waits in an unbounded
//! queue and TCP flow control holds back a pusher faster than absorb.
//! Whoever absorbs a frame validates it and absorbs it straight from its
//! bits (`PipelineAccumulator::absorb_frame`) into the first shard it can
//! lock, trying from a round-robin start. A frame that is not a wire-v4
//! `REPORT_BATCH` is refused there like any other bad batch. A live
//! snapshot locks the shards one at a time, clones each and merges them
//! **in shard order**, so the `Accumulator` partition-invariance law
//! makes the result byte-identical to a serial single-process ingest of
//! the same reports, no matter how connections, frames and shards
//! interleaved. A query never waits behind queued ingest: at most behind
//! one frame's absorb per shard.
//!
//! Each ingest connection counts the frames it offered that a helper has
//! not yet absorbed. Every way out of the connection — end of stream,
//! error, disconnect, shutdown — first waits for that count to reach
//! zero, so an ack means "absorbed" and a final snapshot holds every
//! complete frame the server read.
//!
//! The accept loop blocks in `accept`. A shutdown request sets the
//! shutdown flag and then connects to the server itself once (the
//! bound address, with an unspecified IP replaced by the loopback of
//! the same family), which wakes the loop to see the flag; the waking
//! connection is dropped unserved. Every admitted connection gets its
//! own handler thread and holds one descriptor; past
//! `ServeConfig::max_connections` open connections, the accept loop
//! answers a new one with a `Response::Error` naming the cap and closes
//! it. When `accept` runs out of descriptors (`EMFILE`/`ENFILE`) while a
//! connection is open, the loop waits for a connection to close (or for
//! shutdown) and accepts again; with none open the error ends the
//! server.

use crate::client::{Control, CONNECT_TIMEOUT};
use crate::protocol::{PushRequest, QueryTarget, Request, Response, ServerStats};
use crate::relay::{read_checkpoint, write_checkpoint, Checkpoint, DownstreamEntry};
use ldp_bits::Mask;
use ldp_core::frame::{FrameError, FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::tag;
use ldp_core::{clamp_normalize, MarginalEstimator, Protocol};
use ldp_oracles::pipeline::{PipelineAccumulator, PipelineEstimate};
use std::collections::BTreeMap;
use std::io::{self, BufWriter};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read timeout on every accepted socket: the upper bound on how long a
/// connection handler can go without noticing a shutdown (the
/// `keep_going` check of `FrameReader::next_frame_while_into`).
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

/// `errno` for "too many open files" in this process (`EMFILE`) and in
/// the system (`ENFILE`); the values are the same on Linux, macOS and
/// the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// Per-connection outcome of its report frames. Frames the handler
/// absorbs itself settle at once; frames it offers to a helper stay
/// pending until the helper has absorbed (or refused) them, and every
/// exit from the connection waits for the pending count to reach zero
/// — so the ack means "absorbed", never "offered".
#[derive(Default)]
struct IngestProgress {
    /// Reports absorbed out of this connection's frames.
    absorbed: AtomicU64,
    /// The first refused frame's error, folded into the ack.
    error: Mutex<Option<String>>,
    /// Frames offered and not yet settled.
    pending: Mutex<Pending>,
    /// Signalled when the pending count falls to zero while the
    /// connection handler waits for it.
    settled: Condvar,
}

#[derive(Default)]
struct Pending {
    frames: u64,
    /// The handler is blocked in [`IngestProgress::wait_settled`]; only
    /// then does the last settle pay for a wakeup.
    waiting: bool,
}

/// Lock `mutex`, recovering from poison. Every value locked this way
/// (a counter, an error slot, a channel end, an accumulator that
/// `absorb_frame` changes only after validating a whole frame, the
/// pipeline slot, the downstream table of whole `(epoch, accumulator)`
/// entries, the checkpoint mark, the push lock) is valid at every
/// instruction, so one panicked thread must not cascade.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl IngestProgress {
    fn record_error(&self, message: String) {
        lock(&self.error).get_or_insert(message);
    }

    fn take_error(&self) -> Option<String> {
        lock(&self.error).take()
    }

    fn settle(&self) {
        let mut pending = lock(&self.pending);
        pending.frames = pending.frames.saturating_sub(1);
        if pending.frames == 0 && pending.waiting {
            self.settled.notify_one();
        }
    }

    /// Block until every offered frame has settled.
    fn wait_settled(&self) {
        let mut pending = lock(&self.pending);
        pending.waiting = true;
        while pending.frames > 0 {
            pending = self
                .settled
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
        pending.waiting = false;
    }
}

/// One frame offered to the helpers. It is pending from [`Offer::new`]
/// until it is dropped: after a helper absorbed it, after the handler
/// absorbed an offer no helper took, or while a helper unwinds — so the
/// pending count can neither leak nor settle early.
struct Offer {
    payload: Vec<u8>,
    progress: Arc<IngestProgress>,
}

impl Offer {
    fn new(payload: Vec<u8>, progress: &Arc<IngestProgress>) -> Offer {
        lock(&progress.pending).frames += 1;
        Offer {
            payload,
            progress: Arc::clone(progress),
        }
    }
}

impl Drop for Offer {
    fn drop(&mut self) {
        self.progress.settle();
    }
}

/// The shard accumulators, each behind its own lock.
type Shards = Arc<[Mutex<PipelineAccumulator>]>;

/// The established pipeline: fixed header, the shards, and the helpers
/// that absorb offered frames into them.
struct Pipeline {
    header: StreamHeader,
    shards: Shards,
    /// The helpers' shared offer channel, `shards` frames deep. With one
    /// shard there is no helper and every offer is refused at once.
    offers: SyncSender<Offer>,
    helpers: Vec<JoinHandle<()>>,
}

/// How the server participates in a federation tree (all optional:
/// a default-configured server is the standalone collector of PRs
/// 4–7). See `docs/WIRE_FORMAT.md` §7.3 and `docs/OPERATIONS.md`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (port `0` picks a free port).
    pub listen: String,
    /// Shard accumulators (must be ≥ 1). Ingest runs on the connection
    /// handlers plus `shards − 1` helper threads, each absorbing into
    /// whichever shard is free; more shards than cores adds lock and
    /// merge work without adding absorb capacity.
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
    /// Most connections open at once (must be ≥ 1). The accept loop
    /// refuses one more with a `Response::Error` naming the cap.
    pub max_connections: u64,
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
            max_connections: 1024,
        }
    }
}

/// What a checkpoint recovery restored, for startup logging.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    /// Locally-absorbed reports restored into shard 0.
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
    /// Where a shutdown request connects to wake the blocked accept
    /// loop: the bound address, loopback in place of an unspecified IP.
    wake: SocketAddr,
    /// Most connections open at once; counted on the accept thread.
    max_connections: u64,
    /// Where the next frame starts looking for a free shard.
    next_shard: AtomicUsize,
    reports: AtomicU64,
    connections_accepted: AtomicU64,
    /// Connections open now. Only the accept loop raises it.
    connections_active: Mutex<u64>,
    /// Signalled when `connections_active` falls or shutdown begins:
    /// what an accept loop out of descriptors waits for.
    connection_closed: Condvar,
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
    /// The latest `(epoch, accumulator)` each downstream collector
    /// pushed, keyed — and therefore merged — in collector-id order.
    downstream: Mutex<BTreeMap<String, (u64, PipelineAccumulator)>>,
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

/// Lock a shard if it is free, recovering from poison as [`lock`] does.
fn try_lock_shard(
    shard: &Mutex<PipelineAccumulator>,
) -> Option<MutexGuard<'_, PipelineAccumulator>> {
    match shard.try_lock() {
        Ok(acc) => Some(acc),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Absorb one frame into the first shard free to take it, trying from a
/// round-robin start; if every shard is busy, wait for the start shard.
/// Any shard will do: the partition-invariance law makes the merged
/// state independent of where each frame landed.
fn absorb_into_shards(
    shards: &[Mutex<PipelineAccumulator>],
    payload: &[u8],
    progress: &IngestProgress,
    shared: &Shared,
) {
    // `shards` is never empty (`bind_with` refuses zero).
    let start = shared.next_shard.fetch_add(1, Ordering::Relaxed) % shards.len().max(1);
    let free = shards
        .iter()
        .cycle()
        .skip(start)
        .take(shards.len())
        .find_map(try_lock_shard);
    let acc = free.or_else(|| shards.get(start).map(lock));
    if let Some(mut acc) = acc {
        absorb_batch_frame(&mut acc, payload, progress, shared);
    }
}

/// A helper thread: absorb offered frames until the pipeline is torn
/// down. Dropping each offer after its absorb settles it.
fn helper_loop(
    offers: &Mutex<Receiver<Offer>>,
    shards: &[Mutex<PipelineAccumulator>],
    shared: &Shared,
) {
    loop {
        // A statement of its own, so the receiver is released before the
        // absorb and another helper can take the next offer meanwhile.
        let next = lock(offers).recv();
        let Ok(offer) = next else {
            return;
        };
        absorb_into_shards(shards, &offer.payload, &offer.progress, shared);
    }
}

impl Shared {
    fn keep_going(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// Set the shutdown flag, then wake the accept loop — blocked in
    /// `accept`, or waiting for a descriptor to free — with one
    /// connection to the server itself and a condvar signal.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Signalled under the lock the waiter checks the flag under, so
        // the wakeup cannot slip in between its check and its wait.
        drop(lock(&self.connections_active));
        self.connection_closed.notify_all();
        if let Err(e) = TcpStream::connect_timeout(&self.wake, CONNECT_TIMEOUT) {
            eprintln!(
                "shutdown: cannot wake the accept loop at {}: {e}",
                self.wake
            );
        }
    }

    /// Whether the accept loop survives `e`: at once after a connection
    /// reset before it was taken or an interrupted call; when out of
    /// descriptors, once a connection closes.
    fn accept_again(&self, e: &io::Error) -> bool {
        match e.kind() {
            io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted => true,
            _ => matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) && self.wait_for_a_close(),
        }
    }

    /// Wait until a connection closes or shutdown begins; `false` at
    /// once when no connection is open, since then nothing will free a
    /// descriptor.
    fn wait_for_a_close(&self) -> bool {
        let mut open = lock(&self.connections_active);
        if *open == 0 {
            return false;
        }
        let before = *open;
        while *open >= before && self.keep_going() {
            open = self
                .connection_closed
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
        true
    }

    /// Establish the pipeline from the first stream's header (building
    /// the shards and spawning the helpers), or verify a later stream
    /// matches it exactly. `seed` is a recovered accumulator
    /// (checkpoint recovery) for shard 0: merging in shard order then
    /// makes the live state `recovered ⊕ new`, which the
    /// partition-invariance law keeps byte-identical to a serial ingest
    /// of both report sets.
    fn establish(
        self: &Arc<Self>,
        header: StreamHeader,
        mut seed: Option<PipelineAccumulator>,
    ) -> Result<(), String> {
        let mut guard = lock(&self.pipeline);
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
        let shards: Shards = (0..self.shards)
            .map(|_| {
                let acc = match seed.take() {
                    Some(acc) => acc,
                    None => PipelineAccumulator::empty(&header)?,
                };
                Ok(Mutex::new(acc))
            })
            .collect::<Result<_, String>>()?;
        // As deep as there are shards: a rendezvous (depth 0) hands off
        // too few frames to pay for the wakeup each costs, and anything
        // deeper than the helpers can drain only holds frames longer.
        let (offers, queue) = mpsc::sync_channel(self.shards);
        let queue = Arc::new(Mutex::new(queue));
        let helpers = (1..self.shards)
            .map(|_| {
                let (queue, shards, shared) =
                    (Arc::clone(&queue), Arc::clone(&shards), Arc::clone(self));
                std::thread::spawn(move || helper_loop(&queue, &shards, &shared))
            })
            .collect();
        *guard = Some(Pipeline {
            header,
            shards,
            offers,
            helpers,
        });
        Ok(())
    }

    /// Clone out the shards and the offer channel, so report ingest runs
    /// without touching the pipeline lock.
    fn route(&self) -> Option<(Shards, SyncSender<Offer>)> {
        lock(&self.pipeline)
            .as_ref()
            .map(|p| (Arc::clone(&p.shards), p.offers.clone()))
    }

    /// The live merged snapshot as serialized state (what snapshot
    /// responses and snapshot files carry).
    fn collect(&self) -> Result<(StreamHeader, Vec<u8>), String> {
        let merged = self.collect_merged()?;
        Ok((*merged.header(), merged.to_bytes()))
    }

    /// The full live view: the local accumulator
    /// ([`Shared::collect_local`]), then a clone of each downstream
    /// collector's held accumulator merged in collector-id order. Both
    /// orders are deterministic, so the partition-invariance law keeps
    /// the result byte-identical to a serial single-process ingest of
    /// every report in the subtree.
    fn collect_merged(&self) -> Result<PipelineAccumulator, String> {
        let mut merged = self.collect_local()?;
        let downstream = lock(&self.downstream);
        for (_, acc) in downstream.values() {
            merged.merge(acc.clone())?;
        }
        Ok(merged)
    }

    /// The locally-absorbed accumulator: every shard locked one at a
    /// time and cloned, merged in shard order. Excludes downstream
    /// pushes — this is what a checkpoint stores as `local_state`.
    fn collect_local(&self) -> Result<PipelineAccumulator, String> {
        let shards = lock(&self.pipeline)
            .as_ref()
            .map(|p| Arc::clone(&p.shards))
            .ok_or("no report stream has been ingested yet")?;
        let (first, rest) = shards.split_first().ok_or("server has no shards")?;
        let mut merged = lock(first).clone();
        for shard in rest {
            merged.merge(lock(shard).clone())?;
        }
        Ok(merged)
    }

    fn stats(&self) -> ServerStats {
        let header = lock(&self.pipeline).as_ref().map(|p| p.header);
        ServerStats {
            header,
            reports: self.reports.load(Ordering::Relaxed),
            shards: self.shards as u32,
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: *lock(&self.connections_active) as u32,
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }

    /// Answer one query against the live accumulator (collect, merge,
    /// finalize).
    fn query(&self, target: QueryTarget, normalize: bool) -> Result<Vec<f64>, String> {
        let acc = self.collect_merged()?;
        let d = acc.header().d;
        if acc.report_count() == 0 {
            return Err("accumulator holds no reports; nothing to estimate".to_string());
        }
        match (acc.finalize(), target) {
            (PipelineEstimate::Mechanism(est), QueryTarget::Marginal(bits)) => {
                if bits == 0 {
                    return Err("marginal mask selects no attributes".to_string());
                }
                if d < 64 && bits >> d != 0 {
                    return Err(format!(
                        "marginal mask {bits:#x} is outside the d = {d} domain"
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
                if d < 64 && value >> d != 0 {
                    return Err(format!("value {value} is outside the d = {d} domain"));
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
    /// arrived yet), decode it, then *replace* the pusher's held one —
    /// unless its epoch is stale, in which case the push is refused by
    /// name so a restarted child can fast-forward its counter.
    fn apply_push(self: &Arc<Self>, push: PushRequest) -> Response {
        if let Err(message) = self.establish(push.header, None) {
            self.rejected_frames.fetch_add(1, Ordering::Relaxed);
            return Response::Error(format!("snapshot push from {}: {message}", push.collector));
        }
        let acc = match PipelineAccumulator::from_state(&push.header, &push.state) {
            Ok(acc) => acc,
            Err(e) => {
                self.rejected_frames.fetch_add(1, Ordering::Relaxed);
                return Response::Error(format!(
                    "snapshot push from {} does not decode: {e}",
                    push.collector
                ));
            }
        };
        let mut downstream = lock(&self.downstream);
        match downstream.get(&push.collector) {
            Some(&(held, _)) if push.epoch < held => Response::Push {
                applied: false,
                latest_epoch: held,
            },
            _ => {
                downstream.insert(push.collector, (push.epoch, acc));
                Response::Push {
                    applied: true,
                    latest_epoch: push.epoch,
                }
            }
        }
    }

    /// Write a checkpoint if at least `checkpoint_every` reports have
    /// been absorbed since the last one. Runs on the ingest-ack path
    /// once the connection's pending count is zero, so every report the
    /// checkpoint counts is already inside a shard — an acknowledged
    /// stream is durable (at `--checkpoint-every 1`) before its client
    /// sees the ack.
    fn maybe_checkpoint(&self) {
        let Some(path) = self.checkpoint.as_ref() else {
            return;
        };
        let mut mark = lock(&self.checkpoint_mark);
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
    /// state plus the downstream replacement table (each child
    /// serialized here), kept separate so a recovered collector never
    /// double-counts a child's re-push. Returns the local report count.
    fn write_checkpoint_to(&self, path: &std::path::Path) -> Result<u64, String> {
        let local = self.collect_local()?;
        let reports = local.report_count();
        let downstream = lock(&self.downstream)
            .iter()
            .map(|(collector, (epoch, acc))| DownstreamEntry {
                collector: collector.clone(),
                epoch: *epoch,
                state: acc.to_bytes(),
            })
            .collect();
        write_checkpoint(
            path,
            &Checkpoint {
                collector: self.collector.clone(),
                epoch: self.epoch.load(Ordering::SeqCst),
                reports,
                header: *local.header(),
                local_state: local.to_bytes(),
                downstream,
            },
        )?;
        Ok(reports)
    }

    /// Push the full merged view upstream under the next epoch.
    /// `Ok(true)` means the upstream replaced its entry; `Ok(false)`
    /// means no pipeline is established yet. Any failure is `Err` — the
    /// relay loop logs it, backs off and retries, and because every push
    /// carries the *cumulative* view, re-pushing a later snapshot
    /// under a later epoch is exactly the at-least-once contract.
    fn push_upstream(&self, upstream: &str) -> Result<bool, String> {
        let _serialize = lock(&self.push_lock);
        if lock(&self.pipeline).is_none() {
            return Ok(false);
        }
        let (header, state) = self.collect()?;
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
    /// port — read it back with [`Server::local_addr`]) with `shards`
    /// accumulators.
    pub fn bind(listen: &str, shards: usize) -> Result<Server, String> {
        Server::bind_with(&ServeConfig::new(listen, shards))
    }

    /// [`Server::bind`] with federation and durability options. If the
    /// configured checkpoint file exists, it is recovered before
    /// serving: every state in it is decoded (one that does not refuses
    /// it, naming its collector), the local state seeds shard 0, and the
    /// downstream table resumes replacement semantics, so children
    /// re-pushing after the restart replace rather than double-count.
    pub fn bind_with(config: &ServeConfig) -> Result<Server, String> {
        if config.shards == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if config.checkpoint.is_some() && config.checkpoint_every == 0 {
            return Err("checkpoint interval must be at least 1 report".to_string());
        }
        if config.max_connections == 0 {
            return Err("connection cap must be at least 1".to_string());
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", config.listen))?;
        let bound = listener
            .local_addr()
            .map_err(|e| format!("cannot read the bound address: {e}"))?;
        let recovered = match config.checkpoint.as_ref() {
            Some(path) if path.exists() => Some(read_checkpoint(path)?),
            _ => None,
        };
        let (mut seed, mut downstream) = (None, BTreeMap::new());
        if let Some(cp) = &recovered {
            seed = Some(
                PipelineAccumulator::from_state(&cp.header, &cp.local_state)
                    .map_err(|e| format!("checkpoint recovery: {e}"))?,
            );
            for entry in &cp.downstream {
                let acc = PipelineAccumulator::from_state(&cp.header, &entry.state)
                    .map_err(|e| format!("checkpoint recovery: child {}: {e}", entry.collector))?;
                downstream.insert(entry.collector.clone(), (entry.epoch, acc));
            }
        }
        let collector = config
            .collector
            .clone()
            .or_else(|| recovered.as_ref().map(|cp| cp.collector.clone()))
            .unwrap_or_else(|| bound.to_string());
        let shared = Arc::new(Shared {
            shards: config.shards,
            shutdown: AtomicBool::new(false),
            wake: wake_addr(bound),
            max_connections: config.max_connections,
            next_shard: AtomicUsize::new(0),
            reports: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_active: Mutex::new(0),
            connection_closed: Condvar::new(),
            rejected_frames: AtomicU64::new(0),
            started: Instant::now(),
            pipeline: Mutex::new(None),
            upstream: config.upstream.clone(),
            push_every: config.push_every,
            collector,
            epoch: AtomicU64::new(0),
            downstream: Mutex::new(downstream),
            checkpoint: config.checkpoint.clone(),
            checkpoint_every: config.checkpoint_every,
            checkpoint_mark: Mutex::new(0),
            push_lock: Mutex::new(()),
        });
        let recovery = match recovered {
            None => None,
            Some(cp) => {
                shared
                    .establish(cp.header, seed)
                    .map_err(|e| format!("checkpoint recovery: {e}"))?;
                shared.reports.store(cp.reports, Ordering::SeqCst);
                shared.epoch.store(cp.epoch, Ordering::SeqCst);
                *lock(&shared.checkpoint_mark) = cp.reports;
                Some(Recovery {
                    reports: cp.reports,
                    epoch: cp.epoch,
                    downstream: lock(&shared.downstream).len(),
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
    /// connection handlers, take the final snapshot, and stop the
    /// helpers.
    pub fn run(self) -> Result<ServerSummary, String> {
        let relay = self.shared.upstream.clone().map(|upstream| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || relay_loop(&shared, &upstream))
        });
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        // The check at the top catches a shutdown that woke a loop out
        // of descriptors, whose self-connect may have found none either.
        while self.shared.keep_going() {
            let accepted = self.listener.accept();
            // A shutdown request sets the flag before it connects here
            // (or signals a loop out of descriptors); whatever
            // connection returned after that is dropped unserved.
            if !self.shared.keep_going() {
                break;
            }
            let stream = match accepted {
                Ok((stream, _peer)) => stream,
                Err(e) if self.shared.accept_again(&e) => continue,
                Err(e) => return Err(format!("accept failed: {e}")),
            };
            // Only this thread raises `connections_active`, so a burst
            // of connects cannot race past the cap.
            {
                let mut open = lock(&self.shared.connections_active);
                if *open >= self.shared.max_connections {
                    drop(open);
                    refuse(&stream, self.shared.max_connections);
                    continue;
                }
                *open += 1;
            }
            let slot = ConnectionSlot(Arc::clone(&self.shared));
            self.shared
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            handlers.push(std::thread::spawn(move || {
                handle_connection(slot, stream);
            }));
            handlers.retain(|h| !h.is_finished());
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
        if self.shared.checkpoint.is_some() && lock(&self.shared.pipeline).is_some() {
            if let Some(path) = self.shared.checkpoint.as_ref() {
                let mut mark = lock(&self.shared.checkpoint_mark);
                match self.shared.write_checkpoint_to(path) {
                    Ok(reports) => *mark = reports,
                    Err(e) => eprintln!("final checkpoint: {e}"),
                }
            }
        }
        // Every handler waited for its offers to settle before it
        // returned, so the helpers are idle and the shards complete.
        let snapshot = self.shared.collect().ok();
        let pipeline = lock(&self.shared.pipeline).take();
        if let Some(Pipeline {
            offers, helpers, ..
        }) = pipeline
        {
            drop(offers); // closes the channel; the helper loops end
            for handle in helpers {
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

/// The address a shutdown request connects to in order to wake the
/// accept loop: `bound`, with an unspecified IP (`0.0.0.0` / `::`)
/// replaced by the loopback of the same family. `set_ip` keeps an IPv6
/// scope id, which a link-local bind needs.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    wake
}

/// Answer a connection beyond the cap with one `Response::Error` frame
/// naming it, then close. The frame fits the fresh socket's empty send
/// buffer, so the write does not stall the accept loop.
fn refuse(stream: &TcpStream, cap: u64) {
    let mut writer = FrameWriter::new(BufWriter::new(stream));
    let _ = reply(
        &mut writer,
        &Response::Error(format!(
            "server is at its connection cap ({cap} open connections, \
             serve --max-connections); retry after one closes"
        )),
    );
}

/// Serve one admitted connection. Parameters drop in reverse order, so
/// when the handler ends, by return or by unwinding, the socket closes
/// and then `slot` counts the connection out.
fn handle_connection(slot: ConnectionSlot, stream: TcpStream) {
    // Per-connection failures are answered on the wire (or the peer
    // vanished); either way the server itself keeps serving.
    let _ = serve_connection(&slot.0, &stream);
}

/// One admitted connection's place in `connections_active`, which the
/// accept loop raised when it made the slot. Dropping the slot counts
/// the connection out and wakes an accept loop waiting for a
/// descriptor.
struct ConnectionSlot(Arc<Shared>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        let mut open = lock(&self.0.connections_active);
        *open = open.saturating_sub(1);
        self.0.connection_closed.notify_all();
    }
}

// Both halves borrow the one socket, so a connection holds one
// descriptor. `FrameReader` buffers socket reads itself (slicing many
// frames out of one `read` call), so the read half needs no
// `BufReader`.
type ConnReader<'a> = FrameReader<&'a TcpStream>;
type ConnWriter<'a> = FrameWriter<BufWriter<&'a TcpStream>>;

fn reply(writer: &mut ConnWriter<'_>, response: &Response) -> Result<(), String> {
    writer
        .write_frame(&response.to_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write response: {e}"))
}

fn serve_connection(shared: &Arc<Shared>, stream: &TcpStream) -> Result<(), String> {
    stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("cannot configure the socket: {e}"))?;
    let mut reader = FrameReader::new(stream);
    let mut writer = FrameWriter::new(BufWriter::new(stream));

    // The connection's one frame buffer: every frame it sends is read
    // into it, the first one included.
    let mut frame = Vec::new();
    match reader.next_frame_while_into(&mut frame, || shared.keep_going()) {
        Ok(true) => {}
        Ok(false) | Err(FrameError::Interrupted) => return Ok(()),
        Err(e) => return Err(format!("bad first frame: {e}")),
    }
    match frame.first() {
        Some(&tag::STREAM_HEADER) => handle_ingest(shared, frame, &mut reader, &mut writer),
        Some(&(tag::REQ_SNAPSHOT..=tag::REQ_PUSH)) => {
            handle_control(shared, frame, &mut reader, &mut writer)
        }
        _ => {
            let message = format!(
                "expected a stream header or request frame, got tag {:?}",
                frame.first()
            );
            reply(&mut writer, &Response::Error(message.clone()))?;
            Err(message)
        }
    }
}

/// An ingest connection: header frame (in `frame`, the connection's
/// buffer), then report frames until a clean end-of-stream, answered
/// with one `Ingested` acknowledgement once every report frame has been
/// absorbed.
fn handle_ingest(
    shared: &Arc<Shared>,
    mut frame: Vec<u8>,
    reader: &mut ConnReader<'_>,
    writer: &mut ConnWriter<'_>,
) -> Result<(), String> {
    let header = match StreamHeader::from_bytes(&frame) {
        Ok(header) => header,
        Err(e) => {
            let message = format!("bad header frame: {e}");
            shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
            reply(writer, &Response::Error(message.clone()))?;
            return Err(message);
        }
    };
    if let Err(message) = shared.establish(header, None) {
        shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
        reply(writer, &Response::Error(message.clone()))?;
        return Err(message);
    }
    // `establish` just succeeded, so the pipeline can only be absent if
    // shutdown tore it down concurrently — degrade, don't panic.
    let Some((shards, offers)) = shared.route() else {
        return Ok(());
    };

    let progress = Arc::new(IngestProgress::default());
    // The frame buffer travels with an offer a helper takes; an offer
    // no helper takes comes back, and its buffer is read into again.
    let end = loop {
        match reader.next_frame_while_into(&mut frame, || shared.keep_going()) {
            Ok(true) => {
                let offer = Offer::new(std::mem::take(&mut frame), &progress);
                if let Err(TrySendError::Full(mut offer) | TrySendError::Disconnected(mut offer)) =
                    offers.try_send(offer)
                {
                    // Every helper is busy and the channel is full (or
                    // there are no helpers): caller runs.
                    absorb_into_shards(&shards, &offer.payload, &progress, shared);
                    frame = std::mem::take(&mut offer.payload);
                }
            }
            Ok(false) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    // On every way out — end of stream, error, disconnect, shutdown —
    // the connection's offered frames settle first, so an ack means
    // "absorbed" and a final snapshot holds every complete frame read.
    progress.wait_settled();
    match end {
        Ok(()) => {
            if let Some(message) = progress.take_error() {
                reply(writer, &Response::Error(message.clone()))?;
                return Err(message);
            }
            let absorbed = progress.absorbed.load(Ordering::Relaxed);
            // Durability before the ack: at `--checkpoint-every 1` a
            // client that saw its ack knows the reports survive a crash
            // (coarser cadences trade that for less I/O).
            shared.maybe_checkpoint();
            reply(writer, &Response::Ingested(absorbed))
        }
        Err(FrameError::Interrupted) => Ok(()), // shutdown mid-stream
        Err(e) => {
            // Disconnect or corruption mid-stream: everything complete
            // up to here stays absorbed; the partial frame is dropped.
            let _ = reply(writer, &Response::Error(format!("report stream: {e}")));
            Err(format!("report stream: {e}"))
        }
    }
}

/// A control connection: request frames until the peer closes, each
/// answered by exactly one response frame and each read into `frame`,
/// the connection's buffer, which holds the first request.
fn handle_control(
    shared: &Arc<Shared>,
    mut frame: Vec<u8>,
    reader: &mut ConnReader<'_>,
    writer: &mut ConnWriter<'_>,
) -> Result<(), String> {
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
                shared.begin_shutdown();
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
        match reader.next_frame_while_into(&mut frame, || shared.keep_going()) {
            Ok(true) => {}
            Ok(false) | Err(FrameError::Interrupted) => return Ok(()),
            Err(e) => return Err(format!("control connection: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wake_addr;
    use std::net::{SocketAddr, SocketAddrV6};

    fn addr(text: &str) -> SocketAddr {
        text.parse().unwrap()
    }

    #[test]
    fn wake_addr_replaces_only_an_unspecified_ip() {
        assert_eq!(wake_addr(addr("0.0.0.0:7878")), addr("127.0.0.1:7878"));
        assert_eq!(wake_addr(addr("[::]:7878")), addr("[::1]:7878"));
        assert_eq!(wake_addr(addr("127.0.0.1:9")), addr("127.0.0.1:9"));
        assert_eq!(wake_addr(addr("10.1.2.3:9")), addr("10.1.2.3:9"));
        let scoped = SocketAddr::V6(SocketAddrV6::new("fe80::1".parse().unwrap(), 9, 0, 2));
        assert_eq!(wake_addr(scoped), scoped);
    }
}
