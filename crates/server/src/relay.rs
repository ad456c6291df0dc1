//! Federation durability: the collector checkpoint file.
//!
//! A checkpoint is one frame whose payload is a `CHECKPOINT` wire blob
//! (`docs/WIRE_FORMAT.md` §6.1): the collector's push identity and
//! epoch counter, its locally-absorbed accumulator state, and the
//! latest snapshot each downstream collector pushed. `ldp-cli serve
//! --checkpoint PATH` writes one after every ingest acknowledgement
//! that crosses the `--checkpoint-every` threshold (and on graceful
//! shutdown); on restart the file seeds the worker pool and the
//! downstream replacement table, so the collector resumes exactly
//! where the last checkpoint left it — reports absorbed after it are
//! lost with the crash and covered by the clients' at-least-once
//! resend contract.
//!
//! Local state deliberately **excludes** downstream contributions: they
//! recover into the replacement table instead, so a child's next
//! cumulative push replaces (never double-counts) what the checkpoint
//! already held.

use ldp_core::frame::{FrameError, FrameReader, FrameWriter, StreamHeader};
use ldp_core::wire::{tag, Reader, WireError, Writer};
use std::fs;
use std::path::{Path, PathBuf};

/// The smallest possible encoded downstream entry: a `u32` length
/// prefix for an empty collector id, the `u64` epoch, and a `u32`
/// length prefix for an empty state blob. Guards the entry-count
/// prefix against allocation attacks before any entry is decoded.
const MIN_DOWNSTREAM_ENTRY: u64 = 16;

/// The latest snapshot one downstream collector pushed (the upstream's
/// replacement-table entry for that collector id).
#[derive(Clone, Debug, PartialEq)]
pub struct DownstreamEntry {
    /// The pushing collector's identity.
    pub collector: String,
    /// The latest epoch it pushed under.
    pub epoch: u64,
    /// Its latest cumulative accumulator state.
    pub state: Vec<u8>,
}

/// Everything a restarted collector needs to resume: the
/// [`tag::CHECKPOINT`] blob.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The identity this collector pushes upstream under.
    pub collector: String,
    /// The push-epoch counter at write time.
    pub epoch: u64,
    /// Locally-absorbed reports at write time.
    pub reports: u64,
    /// The established pipeline header.
    pub header: StreamHeader,
    /// Worker states merged in worker order — local reports only.
    pub local_state: Vec<u8>,
    /// The downstream replacement table, in collector-id order.
    pub downstream: Vec<DownstreamEntry>,
}

impl Checkpoint {
    /// Serialize into a `CHECKPOINT` wire blob.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::CHECKPOINT);
        w.put_bytes(self.collector.as_bytes());
        w.put_u64(self.epoch);
        w.put_u64(self.reports);
        w.put_bytes(&self.header.to_bytes());
        w.put_bytes(&self.local_state);
        w.put_u64(self.downstream.len() as u64);
        for entry in &self.downstream {
            w.put_bytes(entry.collector.as_bytes());
            w.put_u64(entry.epoch);
            w.put_bytes(&entry.state);
        }
        w.into_bytes()
    }

    /// Decode a `CHECKPOINT` wire blob.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::CHECKPOINT)?;
        let collector = utf8(r.get_bytes()?)?;
        let epoch = r.get_u64()?;
        let reports = r.get_u64()?;
        let header_bytes = r.get_bytes()?;
        let local_state = r.get_bytes()?;
        let count = r.get_u64()?;
        // Every entry costs at least MIN_DOWNSTREAM_ENTRY bytes, so a
        // count the remaining payload cannot possibly hold is
        // corruption, not an allocation request.
        if count > (r.remaining() as u64) / MIN_DOWNSTREAM_ENTRY {
            return Err(WireError::Truncated);
        }
        let mut downstream = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
        for _ in 0..count {
            let entry_collector = utf8(r.get_bytes()?)?;
            let entry_epoch = r.get_u64()?;
            let state = r.get_bytes()?;
            downstream.push(DownstreamEntry {
                collector: entry_collector,
                epoch: entry_epoch,
                state,
            });
        }
        r.finish()?;
        let header = StreamHeader::from_bytes(&header_bytes)?;
        Ok(Checkpoint {
            collector,
            epoch,
            reports,
            header,
            local_state,
            downstream,
        })
    }
}

fn utf8(bytes: Vec<u8>) -> Result<String, WireError> {
    String::from_utf8(bytes).map_err(|_| WireError::Invalid("checkpoint collector id is not UTF-8"))
}

/// Write `checkpoint` to `path` atomically and durably: the blob goes
/// to `path.tmp` first, is fsynced, and is renamed over `path`, and then
/// the directory is fsynced. A crash mid-write leaves the previous
/// checkpoint intact, and once this returns the new one survives a
/// power loss, not only a process kill.
pub fn write_checkpoint(path: &Path, checkpoint: &Checkpoint) -> Result<(), String> {
    let tmp = tmp_path(path);
    let write = (|| -> Result<(), FrameError> {
        let file = fs::File::create(&tmp)?;
        let mut writer = FrameWriter::new(std::io::BufWriter::new(file));
        writer.write_frame(&checkpoint.to_bytes())?;
        let file = writer
            .into_inner()
            .into_inner()
            .map_err(|e| e.into_error())?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(format!("cannot write checkpoint {}: {e}", tmp.display()));
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!(
            "cannot move checkpoint {} into place at {}: {e}",
            tmp.display(),
            path.display()
        )
    })?;
    sync_parent_dir(path).map_err(|e| {
        format!(
            "checkpoint {} is in place but its directory could not be synced: {e}",
            path.display()
        )
    })
}

/// Fsync the directory holding `path`, so a rename into it survives a
/// power loss. Only Unix can open a directory to sync it.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Read a checkpoint file: exactly one `CHECKPOINT` frame, nothing
/// after it.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, String> {
    let file = fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut reader = FrameReader::new(file);
    let frame = reader
        .next_frame()
        .map_err(|e| format!("{}: {e}", path.display()))?
        .ok_or_else(|| format!("{}: empty checkpoint file", path.display()))?;
    let checkpoint =
        Checkpoint::from_bytes(&frame).map_err(|e| format!("{}: {e}", path.display()))?;
    match reader.next_frame() {
        Ok(None) => Ok(checkpoint),
        Ok(Some(_)) => Err(format!(
            "{}: trailing frame after the checkpoint blob",
            path.display()
        )),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::MechanismKind;

    fn sample() -> Checkpoint {
        Checkpoint {
            collector: "edge-1".to_string(),
            epoch: 9,
            reports: 1234,
            header: StreamHeader::mechanism(MechanismKind::MargPs, 8, 2, 1.1),
            local_state: vec![5, 1, 2, 3, 4],
            downstream: vec![
                DownstreamEntry {
                    collector: "leaf-a".to_string(),
                    epoch: 3,
                    state: vec![5, 1],
                },
                DownstreamEntry {
                    collector: "leaf-b".to_string(),
                    epoch: 7,
                    state: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let cp = sample();
        assert_eq!(Checkpoint::from_bytes(&cp.to_bytes()).unwrap(), cp);
        let empty = Checkpoint {
            downstream: Vec::new(),
            ..sample()
        };
        assert_eq!(Checkpoint::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn checkpoint_rejects_truncation_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(bytes.get(..cut).unwrap()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Checkpoint::from_bytes(&trailing).is_err());
    }

    #[test]
    fn checkpoint_rejects_forged_entry_count() {
        let mut cp = sample();
        cp.downstream.clear();
        let mut bytes = cp.to_bytes();
        // The downstream count is the last 8 bytes of an entry-less
        // blob; forge it to promise ~2^61 entries.
        let len = bytes.len();
        let Some(count_bytes) = bytes.get_mut(len - 8..) else {
            panic!("blob shorter than its count field");
        };
        count_bytes.copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn checkpoint_file_round_trips_and_rejects_trailing_frames() {
        let dir = std::env::temp_dir().join(format!("ldp_ckpt_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let cp = sample();
        write_checkpoint(&path, &cp).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), cp);
        // Overwrite is atomic: a second write replaces the first.
        let cp2 = Checkpoint {
            epoch: 10,
            ..sample()
        };
        write_checkpoint(&path, &cp2).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), cp2);
        // A trailing frame is rejected.
        let mut raw = fs::read(&path).unwrap();
        raw.extend_from_slice(&4u32.to_le_bytes());
        raw.extend_from_slice(&[0; 4]);
        fs::write(&path, &raw).unwrap();
        assert!(read_checkpoint(&path).unwrap_err().contains("trailing"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
