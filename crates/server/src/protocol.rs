//! Control-plane request/response frames (tags `0x50`–`0x5F`).
//!
//! A control connection carries a sequence of request frames, each
//! answered by exactly one response frame; an ingest connection carries
//! a `StreamHeader` frame, report frames, and (after a clean
//! end-of-stream) one [`Response::Ingested`] acknowledgement. Every
//! payload is a standard wire blob — leading type tag, format version,
//! then little-endian fields — so the control plane rides the exact
//! byte conventions of `docs/WIRE_FORMAT.md`.

use ldp_core::frame::StreamHeader;
use ldp_core::wire::{tag, Reader, WireError, Writer};

/// What a [`Request::Query`] asks the live accumulator for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryTarget {
    /// A k-way marginal table over the attribute set named by these
    /// mask bits (mechanism pipelines).
    Marginal(u64),
    /// The frequency estimate of one domain value (oracle pipelines).
    Value(u64),
}

/// A [`Request::Query`] body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// What to estimate.
    pub target: QueryTarget,
    /// Clamp-normalize marginal tables into a distribution
    /// (mechanisms only; ignored for value queries).
    pub normalize: bool,
}

/// A [`Request::Push`] body: a downstream collector's cumulative
/// snapshot, pushed up the aggregation tree (wire v3; semantics in
/// `docs/WIRE_FORMAT.md` §7.3).
#[derive(Clone, Debug, PartialEq)]
pub struct PushRequest {
    /// The pushing collector's stable identity (UTF-8). The upstream
    /// keeps one snapshot per collector id and replaces it on re-push.
    pub collector: String,
    /// Monotonic push epoch: a push with an epoch below the upstream's
    /// latest for this collector is stale and ignored.
    pub epoch: u64,
    /// The pushing collector's established pipeline header.
    pub header: StreamHeader,
    /// Its full merged accumulator state (`Accumulator::to_bytes`).
    pub state: Vec<u8>,
}

/// One control-plane request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// The live merged snapshot ([`tag::REQ_SNAPSHOT`]).
    Snapshot,
    /// One finalized estimate ([`tag::REQ_QUERY`]).
    Query(QueryRequest),
    /// Server counters ([`tag::REQ_STATS`]).
    Stats,
    /// Graceful shutdown ([`tag::REQ_SHUTDOWN`]).
    Shutdown,
    /// A downstream collector pushes its merged snapshot
    /// ([`tag::REQ_PUSH`], wire v3).
    Push(PushRequest),
}

impl Request {
    /// Serialize into a request frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Request::Snapshot => Writer::with_tag(tag::REQ_SNAPSHOT).into_bytes(),
            Request::Query(q) => {
                let mut w = Writer::with_tag(tag::REQ_QUERY);
                let (kind, arg) = match q.target {
                    QueryTarget::Marginal(mask) => (0u8, mask),
                    QueryTarget::Value(v) => (1u8, v),
                };
                w.put_u8(kind);
                w.put_u64(arg);
                w.put_u8(u8::from(q.normalize));
                w.into_bytes()
            }
            Request::Stats => Writer::with_tag(tag::REQ_STATS).into_bytes(),
            Request::Shutdown => Writer::with_tag(tag::REQ_SHUTDOWN).into_bytes(),
            Request::Push(p) => {
                let mut w = Writer::with_tag(tag::REQ_PUSH);
                w.put_bytes(p.collector.as_bytes());
                w.put_u64(p.epoch);
                w.put_bytes(&p.header.to_bytes());
                w.put_bytes(&p.state);
                w.into_bytes()
            }
        }
    }

    /// Decode a request frame payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        match Reader::peek_tag(bytes) {
            Some(tag::REQ_SNAPSHOT) => {
                Reader::with_tag(bytes, tag::REQ_SNAPSHOT)?.finish()?;
                Ok(Request::Snapshot)
            }
            Some(tag::REQ_QUERY) => {
                let mut r = Reader::with_tag(bytes, tag::REQ_QUERY)?;
                let kind = r.get_u8()?;
                let arg = r.get_u64()?;
                let normalize = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Invalid("query normalize flag")),
                };
                r.finish()?;
                let target = match kind {
                    0 => QueryTarget::Marginal(arg),
                    1 => QueryTarget::Value(arg),
                    _ => return Err(WireError::Invalid("query target kind")),
                };
                Ok(Request::Query(QueryRequest { target, normalize }))
            }
            Some(tag::REQ_STATS) => {
                Reader::with_tag(bytes, tag::REQ_STATS)?.finish()?;
                Ok(Request::Stats)
            }
            Some(tag::REQ_SHUTDOWN) => {
                Reader::with_tag(bytes, tag::REQ_SHUTDOWN)?.finish()?;
                Ok(Request::Shutdown)
            }
            Some(tag::REQ_PUSH) => {
                let mut r = Reader::with_tag(bytes, tag::REQ_PUSH)?;
                let collector = String::from_utf8(r.get_bytes()?)
                    .map_err(|_| WireError::Invalid("push collector id is not UTF-8"))?;
                let epoch = r.get_u64()?;
                let header_bytes = r.get_bytes()?;
                let state = r.get_bytes()?;
                r.finish()?;
                let header = StreamHeader::from_bytes(&header_bytes)?;
                Ok(Request::Push(PushRequest {
                    collector,
                    epoch,
                    header,
                    state,
                }))
            }
            _ => Err(WireError::Invalid("unknown request tag")),
        }
    }
}

/// The counters a [`Request::Stats`] reply carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerStats {
    /// The established pipeline's header (`None` until the first
    /// report stream arrives).
    pub header: Option<StreamHeader>,
    /// Reports absorbed across all shards.
    pub reports: u64,
    /// Shard count (`--shards`).
    pub shards: u32,
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u32,
    /// Report frames rejected (malformed or cross-protocol).
    pub rejected_frames: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
}

/// One response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The live merged snapshot: the pipeline header plus serialized
    /// accumulator state ([`tag::RESP_SNAPSHOT`]).
    Snapshot {
        /// The established pipeline's header.
        header: StreamHeader,
        /// Merged accumulator state (`Accumulator::to_bytes`).
        state: Vec<u8>,
    },
    /// A finalized estimate: a marginal table, or a single-element
    /// frequency ([`tag::RESP_QUERY`]).
    Query(Vec<f64>),
    /// Server counters ([`tag::RESP_STATS`]).
    Stats(ServerStats),
    /// Shutdown acknowledged; `reports` absorbed in total
    /// ([`tag::RESP_SHUTDOWN`]).
    Shutdown(u64),
    /// Ingest stream acknowledged; `reports` absorbed from this
    /// connection ([`tag::RESP_INGEST`]).
    Ingested(u64),
    /// Verdict on a snapshot push ([`tag::RESP_PUSH`], wire v3).
    Push {
        /// Whether the pushed snapshot replaced the held one (`false`:
        /// the epoch was stale and nothing changed).
        applied: bool,
        /// The latest epoch the upstream now holds for this collector
        /// (the pushed epoch when `applied`; on a stale push, the
        /// value to fast-forward past).
        latest_epoch: u64,
    },
    /// The request (or stream) was rejected ([`tag::RESP_ERROR`]).
    Error(String),
}

impl Response {
    /// Serialize into a response frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Response::Snapshot { header, state } => {
                let mut w = Writer::with_tag(tag::RESP_SNAPSHOT);
                w.put_bytes(&header.to_bytes());
                w.put_bytes(state);
                w.into_bytes()
            }
            Response::Query(table) => {
                let mut w = Writer::with_tag(tag::RESP_QUERY);
                w.put_f64_slice(table);
                w.into_bytes()
            }
            Response::Stats(s) => {
                let mut w = Writer::with_tag(tag::RESP_STATS);
                match &s.header {
                    Some(h) => w.put_bytes(&h.to_bytes()),
                    None => w.put_bytes(&[]),
                }
                w.put_u64(s.reports);
                w.put_u32(s.shards);
                w.put_u64(s.connections_accepted);
                w.put_u32(s.connections_active);
                w.put_u64(s.rejected_frames);
                w.put_u64(s.uptime_ms);
                w.into_bytes()
            }
            Response::Shutdown(reports) => {
                let mut w = Writer::with_tag(tag::RESP_SHUTDOWN);
                w.put_u64(*reports);
                w.into_bytes()
            }
            Response::Ingested(reports) => {
                let mut w = Writer::with_tag(tag::RESP_INGEST);
                w.put_u64(*reports);
                w.into_bytes()
            }
            Response::Push {
                applied,
                latest_epoch,
            } => {
                let mut w = Writer::with_tag(tag::RESP_PUSH);
                w.put_u8(u8::from(*applied));
                w.put_u64(*latest_epoch);
                w.into_bytes()
            }
            Response::Error(message) => {
                let mut w = Writer::with_tag(tag::RESP_ERROR);
                w.put_bytes(message.as_bytes());
                w.into_bytes()
            }
        }
    }

    /// Decode a response frame payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        match Reader::peek_tag(bytes) {
            Some(tag::RESP_SNAPSHOT) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_SNAPSHOT)?;
                let header_bytes = r.get_bytes()?;
                let state = r.get_bytes()?;
                r.finish()?;
                let header = StreamHeader::from_bytes(&header_bytes)?;
                Ok(Response::Snapshot { header, state })
            }
            Some(tag::RESP_QUERY) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_QUERY)?;
                let table = r.get_f64_vec()?;
                r.finish()?;
                Ok(Response::Query(table))
            }
            Some(tag::RESP_STATS) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_STATS)?;
                let header_bytes = r.get_bytes()?;
                let header = if header_bytes.is_empty() {
                    None
                } else {
                    Some(StreamHeader::from_bytes(&header_bytes)?)
                };
                let stats = ServerStats {
                    header,
                    reports: r.get_u64()?,
                    shards: r.get_u32()?,
                    connections_accepted: r.get_u64()?,
                    connections_active: r.get_u32()?,
                    rejected_frames: r.get_u64()?,
                    uptime_ms: r.get_u64()?,
                };
                r.finish()?;
                Ok(Response::Stats(stats))
            }
            Some(tag::RESP_SHUTDOWN) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_SHUTDOWN)?;
                let reports = r.get_u64()?;
                r.finish()?;
                Ok(Response::Shutdown(reports))
            }
            Some(tag::RESP_INGEST) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_INGEST)?;
                let reports = r.get_u64()?;
                r.finish()?;
                Ok(Response::Ingested(reports))
            }
            Some(tag::RESP_PUSH) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_PUSH)?;
                let applied = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Invalid("push applied flag")),
                };
                let latest_epoch = r.get_u64()?;
                r.finish()?;
                Ok(Response::Push {
                    applied,
                    latest_epoch,
                })
            }
            Some(tag::RESP_ERROR) => {
                let mut r = Reader::with_tag(bytes, tag::RESP_ERROR)?;
                let message = r.get_bytes()?;
                r.finish()?;
                Ok(Response::Error(
                    String::from_utf8_lossy(&message).into_owned(),
                ))
            }
            _ => Err(WireError::Invalid("unknown response tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::MechanismKind;

    #[test]
    fn requests_round_trip() {
        let all = [
            Request::Snapshot,
            Request::Query(QueryRequest {
                target: QueryTarget::Marginal(0b1001),
                normalize: true,
            }),
            Request::Query(QueryRequest {
                target: QueryTarget::Value(200),
                normalize: false,
            }),
            Request::Stats,
            Request::Shutdown,
            Request::Push(PushRequest {
                collector: "edge-1".to_string(),
                epoch: 7,
                header: StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1),
                state: vec![5, 1, 2, 3],
            }),
            Request::Push(PushRequest {
                collector: String::new(),
                epoch: 0,
                header: StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1),
                state: Vec::new(),
            }),
        ];
        for req in all {
            assert_eq!(Request::from_bytes(&req.to_bytes()).unwrap(), req);
        }
        assert!(Request::from_bytes(&[0x7E, 1]).is_err());
        assert!(Request::from_bytes(&[]).is_err());
        // Trailing bytes after a fixed-size request are rejected.
        let mut long = Request::Stats.to_bytes();
        long.push(0);
        assert_eq!(Request::from_bytes(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn responses_round_trip() {
        let header = StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1);
        let all = [
            Response::Snapshot {
                header,
                state: vec![5, 1, 2, 3],
            },
            Response::Query(vec![0.25, 0.75]),
            Response::Stats(ServerStats {
                header: Some(header),
                reports: 1000,
                shards: 4,
                connections_accepted: 9,
                connections_active: 2,
                rejected_frames: 1,
                uptime_ms: 1234,
            }),
            Response::Stats(ServerStats {
                header: None,
                reports: 0,
                shards: 4,
                connections_accepted: 0,
                connections_active: 1,
                rejected_frames: 0,
                uptime_ms: 7,
            }),
            Response::Shutdown(1000),
            Response::Ingested(250),
            Response::Push {
                applied: true,
                latest_epoch: 7,
            },
            Response::Push {
                applied: false,
                latest_epoch: u64::MAX,
            },
            Response::Error("no report stream has been ingested yet".to_string()),
        ];
        for resp in all {
            assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
        assert!(Response::from_bytes(&[0x7E, 1]).is_err());
    }

    #[test]
    fn push_frames_reject_malformed_bodies() {
        let good = Request::Push(PushRequest {
            collector: "edge".to_string(),
            epoch: 3,
            header: StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1),
            state: vec![5, 1],
        });
        let bytes = good.to_bytes();
        // Truncation anywhere in the body is rejected.
        for cut in 2..bytes.len() {
            assert!(Request::from_bytes(bytes.get(..cut).unwrap()).is_err());
        }
        // A push ack with an out-of-range applied flag is rejected.
        let mut bad = Response::Push {
            applied: true,
            latest_epoch: 1,
        }
        .to_bytes();
        if let Some(flag) = bad.get_mut(2) {
            *flag = 2;
        }
        assert_eq!(
            Response::from_bytes(&bad),
            Err(WireError::Invalid("push applied flag"))
        );
    }
}
