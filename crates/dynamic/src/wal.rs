//! Write-ahead log: crash recovery as `last base + log tail`.
//!
//! Every periodic checkpoint is a full snapshot ([`crate::snapshot`]),
//! the *base*, and appends a [`WalRecord::Base`] marker; this module logs
//! everything that happens between bases so a crashed process can
//! reconstruct the exact engine state it died with:
//!
//! 1. restore the last base snapshot (or start from the initial graph),
//! 2. [`replay`] the log tail — every update batch and epoch boundary
//!    appended since that base, so at most `--checkpoint-every` epochs —
//!    through the engine's [`Engine`] verbs, so one replay serves the
//!    serial, sharded and networked engines alike.
//!
//! # Frame layout
//!
//! The log reuses the transport frame codec of
//! [`sparse_alloc_graph::io`] verbatim — magic, version, src, phase,
//! epoch, seq, payload length, payload, FNV-1a-64 trailer — so a log
//! record enjoys the same corruption taxonomy as a wire frame (the
//! persistence proptests cut and flip logs at arbitrary bytes). The
//! fields are repurposed:
//!
//! | frame field | WAL meaning                                    |
//! |-------------|------------------------------------------------|
//! | `src`       | the constant `"WAL"` tag (reject foreign frames) |
//! | `phase`     | record type: batch, epoch end, base marker     |
//! | `epoch`     | engine epoch the record belongs to             |
//! | `seq`       | record counter (gaps are corruption)           |
//!
//! Batch payloads use the *same* update codec as the networked route
//! phase ([`crate::net`]), so a replayed batch is byte-for-byte the
//! input the engine originally saw.
//!
//! # Torn tails vs corruption
//!
//! An epoch is the log's commit unit: a batch counts only once its
//! epoch close follows it. A crash can end the file mid-append, or
//! after a batch whose epoch never closed. [`read_wal`] treats both as
//! a torn tail: the records up to the last epoch close (or base marker)
//! are returned, [`WalReplay::torn`] is set, and [`WalWriter::open`]
//! truncates the file back to that commit point before appending
//! (standard WAL tail repair), so a driver that resumes at the unclosed
//! epoch applies and logs its batch exactly once. Anything else — a
//! flipped bit, a bad magic word, a sequence gap — is a typed
//! [`WalError::Corrupt`], never a panic and never a silent divergence.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use sparse_alloc_graph::io::{
    encode_frame, read_frame, ByteReader, ByteWriter, FrameError, FrameHeader, IoError,
    FRAME_HEADER_LEN,
};
use sparse_alloc_graph::DeltaGraph;

use crate::engine::Engine;
use crate::update::{put_update, take_update, Update};

/// The `src` word of every WAL frame (`"WAL"` little-endian); a frame
/// carrying anything else is not a log record.
const WAL_SRC: u32 = 0x004c_4157;

/// Record type tags carried in the frame's `phase` field.
const REC_BATCH: u32 = 1;
const REC_EPOCH_END: u32 = 2;
const REC_BASE: u32 = 3;

/// Why a write-ahead log could not be written, read, or replayed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file or stream failed.
    Io(std::io::Error),
    /// The log is damaged at `offset`: a corrupted frame, a foreign
    /// frame, a sequence gap, or an undecodable payload. A torn *tail*
    /// is not corruption — see [`WalReplay::torn`].
    Corrupt {
        /// Byte offset of the damaged record (== length of the clean
        /// prefix before it).
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// Replaying the log onto a restored engine diverged from the
    /// outcome the log recorded (wrong base for this tail, or an
    /// engine/log version skew).
    Replay {
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
            WalError::Replay { detail } => write!(f, "wal replay diverged: {detail}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One durable record of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An update batch applied during `epoch`, in application order.
    Batch {
        /// Completed-epoch count when the batch was applied (== the
        /// epoch index the batch belongs to).
        epoch: u64,
        /// The batch, verbatim.
        updates: Vec<Update>,
    },
    /// `end_epoch()` closed `epoch`; the matching had `match_size`
    /// edges afterwards (replay verifies this).
    EpochEnd {
        /// The epoch index that was closed.
        epoch: u64,
        /// Matching size right after the close.
        match_size: u64,
    },
    /// A base snapshot was cut at an epoch boundary: recovery restores
    /// that snapshot and replays only records after this marker.
    Base {
        /// Completed-epoch count at the snapshot (== epoch the next
        /// batch will belong to).
        epoch: u64,
        /// FNV-1a-64 checksum of the snapshot bytes, so recovery can
        /// pair the tail with the right base.
        checksum: u64,
    },
}

impl WalRecord {
    /// The engine epoch the record is stamped with.
    pub fn epoch(&self) -> u64 {
        match self {
            WalRecord::Batch { epoch, .. }
            | WalRecord::EpochEnd { epoch, .. }
            | WalRecord::Base { epoch, .. } => *epoch,
        }
    }
}

/// A sink the log can append to *durably*: [`Write`] plus a barrier
/// that forces the appended bytes to stable storage. Files fsync;
/// in-memory buffers (tests, the fault-injection harness) no-op.
pub trait WalSink: Write {
    /// Force every byte written so far down to stable storage.
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WalSink for Vec<u8> {}

impl WalSink for std::fs::File {
    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

/// Appender half of the log: frames records, writes them, and syncs
/// after every append (an acknowledged append survives a crash).
#[derive(Debug)]
pub struct WalWriter<S: WalSink> {
    sink: S,
    seq: u64,
    bytes: u64,
}

impl<S: WalSink> WalWriter<S> {
    /// Start a fresh log on `sink` (sequence 0).
    pub fn new(sink: S) -> Self {
        WalWriter {
            sink,
            seq: 0,
            bytes: 0,
        }
    }

    /// Continue an existing log on `sink`, which must already be
    /// positioned at its clean end; `seq` is the next record number
    /// (== records already in the log).
    pub fn with_seq(sink: S, seq: u64) -> Self {
        WalWriter {
            sink,
            seq,
            bytes: 0,
        }
    }

    fn append(&mut self, phase: u32, epoch: u64, payload: &[u8]) -> Result<u64, WalError> {
        let frame = encode_frame(
            &FrameHeader {
                src: WAL_SRC,
                phase,
                epoch,
                seq: self.seq,
            },
            payload,
        );
        self.sink.write_all(&frame)?;
        self.sink.sync()?;
        self.seq += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Append an update batch for `epoch`. Returns the bytes appended
    /// (callers meter them as `Counter::WalBytes`).
    pub fn append_batch(&mut self, epoch: u64, updates: &[Update]) -> Result<u64, WalError> {
        let mut w = ByteWriter::new();
        w.put_u64(updates.len() as u64);
        for (i, up) in updates.iter().enumerate() {
            put_update(&mut w, i as u32, up);
        }
        self.append(REC_BATCH, epoch, &w.into_bytes())
    }

    /// Append the close of `epoch` with the resulting matching size.
    /// Returns the bytes appended.
    pub fn append_epoch_end(&mut self, epoch: u64, match_size: u64) -> Result<u64, WalError> {
        let mut w = ByteWriter::new();
        w.put_u64(match_size);
        self.append(REC_EPOCH_END, epoch, &w.into_bytes())
    }

    /// Append a base-snapshot marker: a snapshot with FNV checksum
    /// `checksum` was cut at the `epoch` boundary. Returns the bytes
    /// appended.
    pub fn append_base(&mut self, epoch: u64, checksum: u64) -> Result<u64, WalError> {
        let mut w = ByteWriter::new();
        w.put_u64(checksum);
        self.append(REC_BASE, epoch, &w.into_bytes())
    }

    /// Next record number (== records the log holds).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Bytes appended *by this writer* (not counting records it
    /// continued after).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Surrender the sink.
    pub fn into_inner(self) -> S {
        self.sink
    }
}

impl WalWriter<std::fs::File> {
    /// Create a fresh log file at `path`, truncating any existing one.
    pub fn create(path: &Path) -> Result<Self, WalError> {
        let file = std::fs::File::create(path)?;
        Ok(WalWriter::new(file))
    }

    /// Open the log at `path` (creating it empty if absent), repair any
    /// torn tail by truncating back to the last commit point, and return
    /// the surviving records plus a writer that continues the sequence.
    ///
    /// Mid-log corruption (as opposed to a torn tail) is a typed
    /// [`WalError::Corrupt`]: a damaged history must not be silently
    /// shortened and appended over.
    pub fn open(path: &Path) -> Result<(WalReplay, Self), WalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(WalError::Io(e)),
        };
        let replay = read_wal(&mut &bytes[..])?;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if replay.torn {
            file.set_len(replay.clean_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(replay.clean_len))?;
        let writer = WalWriter::with_seq(file, replay.records.len() as u64);
        Ok((replay, writer))
    }
}

/// What a read of the log yielded: the committed records and whether a
/// torn tail was cut off after them.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded records up to the last commit point, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the clean prefix holding exactly `records`.
    pub clean_len: u64,
    /// The stream went on past the last commit point: it ended *inside*
    /// a record, or after a batch whose epoch never closed. The bytes
    /// after `clean_len` carry no committed epoch and are discarded.
    pub torn: bool,
}

impl WalReplay {
    /// Index just past the last [`WalRecord::Base`] marker — replay of
    /// a restored snapshot starts from `records[tail_start()..]`.
    pub fn tail_start(&self) -> usize {
        self.records
            .iter()
            .rposition(|r| matches!(r, WalRecord::Base { .. }))
            .map(|i| i + 1)
            .unwrap_or(0)
    }
}

fn decode_payload(phase: u32, epoch: u64, payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = ByteReader::new(payload);
    let rec = match phase {
        REC_BATCH => {
            let count = r.take_u64().map_err(io_detail)?;
            if count > payload.len() as u64 {
                return Err(format!(
                    "batch claims {count} updates in a {}-byte payload",
                    payload.len()
                ));
            }
            let mut updates = Vec::with_capacity(count as usize);
            for i in 0..count {
                let (idx, up) = take_update(&mut r).map_err(io_detail)?;
                if idx as u64 != i {
                    return Err(format!("batch position {idx} where {i} was expected"));
                }
                updates.push(up);
            }
            WalRecord::Batch { epoch, updates }
        }
        REC_EPOCH_END => WalRecord::EpochEnd {
            epoch,
            match_size: r.take_u64().map_err(io_detail)?,
        },
        REC_BASE => WalRecord::Base {
            epoch,
            checksum: r.take_u64().map_err(io_detail)?,
        },
        other => return Err(format!("unknown record type {other}")),
    };
    r.expect_end().map_err(io_detail)?;
    Ok(rec)
}

fn io_detail(e: IoError) -> String {
    format!("payload: {e}")
}

/// Read the committed records of a log stream.
///
/// A stream that ends *inside* a record, or after a batch whose epoch
/// never closed, has a torn tail: the records up to the last commit
/// point are returned with [`WalReplay::torn`] set. Every other damage
/// mode — flipped bits, foreign frames, sequence gaps, undecodable
/// payloads — is a typed [`WalError::Corrupt`] naming the byte offset.
pub fn read_wal(r: &mut impl Read) -> Result<WalReplay, WalError> {
    let mut records = Vec::new();
    let mut clean_len = 0u64;
    // Records and bytes up to the last non-batch record.
    let mut committed = (0, 0u64);
    let mut torn = false;
    loop {
        match read_frame(r) {
            Ok(None) => break,
            Ok(Some((header, payload))) => {
                let corrupt = |detail: String| WalError::Corrupt {
                    offset: clean_len,
                    detail,
                };
                if header.src != WAL_SRC {
                    return Err(corrupt(format!(
                        "frame src {:#010x} is not a log record",
                        header.src
                    )));
                }
                if header.seq != records.len() as u64 {
                    return Err(corrupt(format!(
                        "record sequence jumped to {} after {} records",
                        header.seq,
                        records.len()
                    )));
                }
                let rec = decode_payload(header.phase, header.epoch, &payload).map_err(corrupt)?;
                clean_len += (FRAME_HEADER_LEN + payload.len() + 8) as u64;
                if !matches!(rec, WalRecord::Batch { .. }) {
                    committed = (records.len() + 1, clean_len);
                }
                records.push(rec);
            }
            Err(FrameError::Truncated { .. }) => {
                torn = true;
                break;
            }
            Err(FrameError::Io(e)) => return Err(WalError::Io(e)),
            Err(e) => {
                return Err(WalError::Corrupt {
                    offset: clean_len,
                    detail: e.to_string(),
                })
            }
        }
    }
    let (count, clean_len) = committed;
    torn |= count < records.len();
    records.truncate(count);
    Ok(WalReplay {
        records,
        clean_len,
        torn,
    })
}

/// Read the log file at `path`. A missing file is an empty log.
pub fn read_wal_file(path: &Path) -> Result<WalReplay, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(WalError::Io(e)),
    };
    read_wal(&mut &bytes[..])
}

/// What a replay did to the engine it was applied to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Batches re-applied.
    pub batches: u64,
    /// Individual updates re-applied.
    pub updates: u64,
    /// Epoch boundaries re-closed.
    pub epochs: u64,
    /// Records skipped because the restored engine was already past
    /// their epoch.
    pub skipped: u64,
}

/// Replay a log tail onto a restored engine, through its
/// [`Engine`] verbs.
///
/// Records stamped with an epoch the engine has already completed are
/// skipped (they are covered by the restored base). A record stamped
/// with a *later* epoch than the one the engine is at means the tail
/// skips epochs the base does not cover, and every
/// [`WalRecord::EpochEnd`] that *is* replayed verifies the resulting
/// matching size against the logged one; either way the tail does not
/// belong to this base, a typed [`WalError::Replay`] raised before the
/// record touches the engine. So is a batch naming a left at or past the
/// live left count (the batch's earlier arrivals included), a right at
/// or past `n_right`, or a zero capacity: the checksum catches accidents,
/// not a rewritten record, and the engine would panic on it.
/// Replay drives the bare verbs, never [`Engine::run_epoch`], so the
/// replayed records are not logged a second time.
pub fn replay<E: Engine>(engine: &mut E, records: &[WalRecord]) -> Result<ReplayStats, WalError> {
    let mut stats = ReplayStats::default();
    for rec in records {
        let at = engine.serial().stats().epochs as u64;
        if rec.epoch() < at {
            stats.skipped += 1;
            continue;
        }
        if rec.epoch() > at {
            return Err(WalError::Replay {
                detail: format!(
                    "log tail resumes at epoch {}, restored engine is at epoch {at}",
                    rec.epoch()
                ),
            });
        }
        match rec {
            WalRecord::Batch { updates, .. } => {
                check_batch(engine.serial().graph(), updates)?;
                engine.apply_batch(updates).map_err(|e| WalError::Replay {
                    detail: format!("batch re-application failed: {e}"),
                })?;
                stats.batches += 1;
                stats.updates += updates.len() as u64;
            }
            WalRecord::EpochEnd { match_size, .. } => {
                engine.end_epoch().map_err(|e| WalError::Replay {
                    detail: format!("epoch re-close failed: {e}"),
                })?;
                stats.epochs += 1;
                verify_match_size(engine.serial().match_size(), *match_size, stats.epochs)?;
            }
            WalRecord::Base { .. } => stats.skipped += 1,
        }
    }
    Ok(stats)
}

/// Refuse a logged batch the engine would panic on (see [`replay`]). A
/// delete naming an absent edge stays a no-op, as it was when logged.
fn check_batch(dg: &DeltaGraph, updates: &[Update]) -> Result<(), WalError> {
    let n_right = dg.n_right();
    let mut n_left = dg.n_left();
    for (i, up) in updates.iter().enumerate() {
        let bad = match up {
            Update::Arrive { neighbors } => {
                n_left += 1;
                neighbors.iter().any(|&v| v as usize >= n_right)
            }
            Update::Depart { u } => *u as usize >= n_left,
            Update::InsertEdge { u, v } => *u as usize >= n_left || *v as usize >= n_right,
            Update::DeleteEdge { .. } => false,
            Update::SetCapacity { v, cap } => *v as usize >= n_right || *cap == 0,
        };
        if bad {
            return Err(WalError::Replay {
                detail: format!(
                    "logged update {i} ({up:?}) does not fit the restored graph \
                     ({n_left} lefts, {n_right} rights)"
                ),
            });
        }
    }
    Ok(())
}

fn verify_match_size(got: usize, logged: u64, nth: u64) -> Result<(), WalError> {
    if got as u64 != logged {
        return Err(WalError::Replay {
            detail: format!(
                "matching has {got} edges after replayed epoch close #{nth}, log recorded {logged}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::ShardedServeLoop;
    use crate::serve::{DynamicConfig, ServeLoop};
    use sparse_alloc_graph::generators::union_of_spanning_trees;
    use sparse_alloc_graph::io::fnv1a64;

    fn sample_updates(seed: u64) -> Vec<Update> {
        let mut s = seed;
        let mut step = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        (0..24)
            .map(|i| match i % 5 {
                0 => Update::Arrive {
                    neighbors: vec![(step() % 30) as u32, (step() % 30) as u32],
                },
                1 => Update::InsertEdge {
                    u: (step() % 40) as u32,
                    v: (step() % 30) as u32,
                },
                2 => Update::DeleteEdge {
                    u: (step() % 40) as u32,
                    v: (step() % 30) as u32,
                },
                3 => Update::SetCapacity {
                    v: (step() % 30) as u32,
                    cap: 1 + step() % 3,
                },
                _ => Update::Depart {
                    u: (step() % 40) as u32,
                },
            })
            .collect()
    }

    fn sample_log() -> (Vec<u8>, Vec<WalRecord>) {
        let mut w = WalWriter::new(Vec::new());
        let batch0 = sample_updates(7);
        let batch1 = sample_updates(99);
        w.append_batch(0, &batch0).unwrap();
        w.append_epoch_end(0, 17).unwrap();
        w.append_base(1, 0xfeed_f00d).unwrap();
        w.append_batch(1, &batch1).unwrap();
        w.append_epoch_end(1, 19).unwrap();
        let records = vec![
            WalRecord::Batch {
                epoch: 0,
                updates: batch0,
            },
            WalRecord::EpochEnd {
                epoch: 0,
                match_size: 17,
            },
            WalRecord::Base {
                epoch: 1,
                checksum: 0xfeed_f00d,
            },
            WalRecord::Batch {
                epoch: 1,
                updates: batch1,
            },
            WalRecord::EpochEnd {
                epoch: 1,
                match_size: 19,
            },
        ];
        (w.into_inner(), records)
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let (bytes, expect) = sample_log();
        let replay = read_wal(&mut &bytes[..]).unwrap();
        assert_eq!(replay.records, expect);
        assert_eq!(replay.clean_len, bytes.len() as u64);
        assert!(!replay.torn);
        assert_eq!(replay.tail_start(), 3);
    }

    #[test]
    fn tail_start_is_zero_without_a_base_marker() {
        let mut w = WalWriter::new(Vec::new());
        w.append_batch(0, &sample_updates(3)).unwrap();
        let bytes = w.into_inner();
        let replay = read_wal(&mut &bytes[..]).unwrap();
        assert_eq!(replay.tail_start(), 0);
    }

    #[test]
    fn any_byte_truncation_yields_a_clean_prefix() {
        let (bytes, expect) = sample_log();
        let mut boundaries = 0;
        for cut in 0..=bytes.len() {
            let replay = read_wal(&mut &bytes[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut}: typed non-truncation error {e}");
            });
            // The prefix records match the originals verbatim.
            assert_eq!(
                replay.records[..],
                expect[..replay.records.len()],
                "cut at {cut}"
            );
            assert!(replay.clean_len <= cut as u64);
            assert!(
                !matches!(replay.records.last(), Some(WalRecord::Batch { .. })),
                "cut at {cut}: a batch counts only once its epoch closes"
            );
            if replay.torn {
                assert!(replay.records.len() < expect.len());
            } else {
                boundaries += 1;
                assert_eq!(replay.clean_len, cut as u64, "cut at {cut}");
            }
        }
        // Exactly the 4 commit boundaries (0, each epoch close, the base
        // marker, and EOF) read clean; a cut right after a batch is a
        // torn tail.
        assert_eq!(boundaries, 4);
    }

    #[test]
    fn a_flipped_bit_is_typed_corruption_not_a_shorter_log() {
        let (mut bytes, _) = sample_log();
        // Flip a payload bit of the first record: the frame arrives
        // whole, so the damage must surface as a checksum error.
        bytes[FRAME_HEADER_LEN + 3] ^= 0x10;
        match read_wal(&mut &bytes[..]) {
            Err(WalError::Corrupt { offset, detail }) => {
                assert_eq!(offset, 0);
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_sequence_gap_is_typed_corruption() {
        let mut w = WalWriter::with_seq(Vec::new(), 0);
        w.append_epoch_end(0, 1).unwrap();
        let mut bytes = w.into_inner();
        // A second record whose seq skips ahead (simulates a lost
        // append: the file was patched together from two logs).
        let mut w2 = WalWriter::with_seq(Vec::new(), 5);
        w2.append_epoch_end(1, 2).unwrap();
        bytes.extend_from_slice(&w2.into_inner());
        match read_wal(&mut &bytes[..]) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("sequence"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn foreign_frames_are_rejected() {
        // A transport frame (different src) is not a log record.
        let frame = encode_frame(
            &FrameHeader {
                src: 3,
                phase: REC_BATCH,
                epoch: 0,
                seq: 0,
            },
            &[],
        );
        match read_wal(&mut &frame[..]) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("not a log record"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn replay_reconstructs_the_engine_verbatim() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let cfg = DynamicConfig::for_eps(0.25);
        let mut live = ServeLoop::new(g.clone(), cfg.clone());
        let mut w = WalWriter::new(Vec::new());
        for epoch in 0..3u64 {
            let batch = sample_updates(epoch * 31 + 1);
            for up in &batch {
                live.apply(up);
            }
            w.append_batch(epoch, &batch).unwrap();
            live.end_epoch();
            w.append_epoch_end(epoch, live.match_size() as u64).unwrap();
        }
        let bytes = w.into_inner();
        let log = read_wal(&mut &bytes[..]).unwrap();
        let mut recovered = ServeLoop::new(g, cfg);
        let stats = replay(&mut recovered, &log.records).unwrap();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.epochs, 3);
        assert_eq!(stats.skipped, 0);
        assert_eq!(recovered.match_size(), live.match_size());
        assert_eq!(recovered.stats().epochs, live.stats().epochs);
        recovered.validate().unwrap();
    }

    #[test]
    fn replay_skips_epochs_the_base_already_covers() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let cfg = DynamicConfig::for_eps(0.25);
        let mut live = ServeLoop::new(g.clone(), cfg.clone());
        let mut w = WalWriter::new(Vec::new());
        let mut base = None;
        for epoch in 0..4u64 {
            let batch = sample_updates(epoch * 17 + 3);
            for up in &batch {
                live.apply(up);
            }
            w.append_batch(epoch, &batch).unwrap();
            live.end_epoch();
            w.append_epoch_end(epoch, live.match_size() as u64).unwrap();
            if epoch == 1 {
                // Snapshot the engine at the epoch-2 boundary — the
                // real base+tail recovery shape.
                let mut buf = Vec::new();
                crate::snapshot::write_serial(&live, &mut buf).unwrap();
                w.append_base(2, fnv1a64(&buf)).unwrap();
                base = Some(buf);
            }
        }
        let log = read_wal(&mut &w.into_inner()[..]).unwrap();
        let mut recovered = crate::snapshot::read_serial(&mut &base.unwrap()[..]).unwrap();
        let stats = replay(&mut recovered, &log.records).unwrap();
        assert_eq!(stats.epochs, 2, "only the tail epochs re-close");
        assert!(stats.skipped >= 4, "pre-base records are skipped");
        assert_eq!(recovered.match_size(), live.match_size());
        assert_eq!(recovered.stats().epochs, live.stats().epochs);

        // Replaying the *whole* log from the base (not just the tail)
        // must also converge: the skip rule makes replay idempotent.
        let tail = &log.records[log.tail_start()..];
        assert!(tail.len() < log.records.len());
    }

    #[test]
    fn a_wrong_base_for_the_tail_is_a_typed_replay_error() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let cfg = DynamicConfig::for_eps(0.25);
        let mut live = ServeLoop::new(g.clone(), cfg.clone());
        let mut w = WalWriter::new(Vec::new());
        let batch = sample_updates(11);
        for up in &batch {
            live.apply(up);
        }
        w.append_batch(0, &batch).unwrap();
        live.end_epoch();
        // Log a deliberately wrong matching size for the close.
        w.append_epoch_end(0, live.match_size() as u64 + 1).unwrap();
        let log = read_wal(&mut &w.into_inner()[..]).unwrap();
        let mut recovered = ServeLoop::new(g, cfg);
        match replay(&mut recovered, &log.records) {
            Err(WalError::Replay { detail }) => {
                assert!(detail.contains("log recorded"), "detail: {detail}")
            }
            other => panic!("expected Replay, got {other:?}"),
        }
    }

    #[test]
    fn a_tail_that_skips_epochs_is_a_typed_replay_error() {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let mut live = ServeLoop::new(g, DynamicConfig::for_eps(0.25));
        let mut w = WalWriter::new(Vec::new());
        let mut base = Vec::new();
        for epoch in 0..3u64 {
            let batch = sample_updates(epoch * 13 + 2);
            for up in &batch {
                live.apply(up);
            }
            w.append_batch(epoch, &batch).unwrap();
            live.end_epoch();
            w.append_epoch_end(epoch, live.match_size() as u64).unwrap();
            if epoch == 0 {
                crate::snapshot::write_serial(&live, &mut base).unwrap();
            }
        }
        let log = read_wal(&mut &w.into_inner()[..]).unwrap();
        // The base was cut at epoch 1; the tail handed to it starts at 2.
        let tail = &log.records[4..];
        assert_eq!(tail[0].epoch(), 2);
        let mut recovered = crate::snapshot::read_serial(&mut &base[..]).unwrap();
        let before = (recovered.assignment().mate, recovered.stats().clone());
        match replay(&mut recovered, tail) {
            Err(WalError::Replay { detail }) => {
                assert!(detail.contains("epoch 2"), "detail: {detail}");
                assert!(detail.contains("epoch 1"), "detail: {detail}");
            }
            other => panic!("expected Replay, got {other:?}"),
        }
        assert_eq!(
            (recovered.assignment().mate, recovered.stats().clone()),
            before,
            "a refused tail leaves the engine untouched"
        );
    }

    /// A checksum-valid log whose one batch is an arrival, the arrival's
    /// departure, then `bad`: replay refuses it with a typed error naming
    /// update 2, before the engine moves.
    fn assert_refused(bad: Update, what: &str) {
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let n_left = g.n_left() as u32;
        let mut engine = ServeLoop::new(g, DynamicConfig::for_eps(0.25));
        let mut w = WalWriter::new(Vec::new());
        let batch = vec![
            Update::Arrive {
                neighbors: vec![0, 1],
            },
            Update::Depart { u: n_left },
            bad,
        ];
        w.append_batch(0, &batch).unwrap();
        w.append_epoch_end(0, 0).unwrap();
        let log = read_wal(&mut &w.into_inner()[..]).unwrap();
        let before = (engine.assignment().mate, engine.stats().clone());
        let n = (engine.graph().n_left(), engine.graph().m());
        match replay(&mut engine, &log.records) {
            Err(WalError::Replay { detail }) => {
                assert!(detail.contains("update 2"), "{what}: {detail}")
            }
            other => panic!("{what}: expected Replay, got {other:?}"),
        }
        assert_eq!(
            (engine.assignment().mate, engine.stats().clone()),
            before,
            "{what}: a refused batch leaves the engine untouched"
        );
        assert_eq!((engine.graph().n_left(), engine.graph().m()), n, "{what}");
    }

    #[test]
    fn a_logged_zero_capacity_is_a_typed_replay_error() {
        assert_refused(Update::SetCapacity { v: 3, cap: 0 }, "cap 0");
        assert_refused(Update::SetCapacity { v: 30, cap: 1 }, "right 30");
    }

    #[test]
    fn a_logged_left_past_the_live_count_is_a_typed_replay_error() {
        // The batch's own arrival took id 40, so 41 is the first unknown.
        assert_refused(Update::Depart { u: 41 }, "depart 41");
        assert_refused(Update::InsertEdge { u: 41, v: 0 }, "insert 41");
        assert_refused(Update::InsertEdge { u: 0, v: 30 }, "insert right 30");
        assert_refused(
            Update::Arrive {
                neighbors: vec![30],
            },
            "arrive at right 30",
        );
    }

    #[test]
    fn sharded_replay_matches_serial_replay() {
        use crate::distributed::ShardedConfig;
        let g = union_of_spanning_trees(40, 30, 2, 2, 9).graph;
        let mut w = WalWriter::new(Vec::new());
        let mut live = ShardedServeLoop::new(g.clone(), ShardedConfig::for_eps(0.25, 3)).unwrap();
        for epoch in 0..2u64 {
            let batch = sample_updates(epoch * 7 + 2);
            live.apply_batch(&batch).unwrap();
            w.append_batch(epoch, &batch).unwrap();
            live.end_epoch().unwrap();
            w.append_epoch_end(epoch, live.match_size() as u64).unwrap();
        }
        let log = read_wal(&mut &w.into_inner()[..]).unwrap();
        let mut recovered = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 3)).unwrap();
        let stats = replay(&mut recovered, &log.records).unwrap();
        assert_eq!(stats.epochs, 2);
        assert_eq!(recovered.match_size(), live.match_size());
    }

    /// An epoch is the log's commit unit: a batch whose epoch never
    /// closed is dropped on recovery and cut from the file, so the
    /// driver that resumes at that epoch applies and logs it once.
    #[test]
    fn an_unclosed_epoch_is_applied_once_after_recovery() {
        let path = std::env::temp_dir().join(format!("salloc-unclosed-{}.wal", std::process::id()));
        let g = union_of_spanning_trees(40, 30, 2, 2, 5).graph;
        let cfg = DynamicConfig::for_eps(0.25);
        let mut batches: Vec<Vec<Update>> = vec![sample_updates(4), sample_updates(17)];
        batches.push(vec![Update::Arrive {
            neighbors: vec![1, 2],
        }]);
        let mut uninterrupted = ServeLoop::new(g.clone(), cfg.clone());
        crate::engine::drive(&mut uninterrupted, batches.iter().map(Vec::as_slice)).unwrap();

        let mut live = ServeLoop::new(g.clone(), cfg.clone());
        let mut w = WalWriter::create(&path).unwrap();
        for batch in &batches[..2] {
            live.run_epoch(batch, Some(&mut w)).unwrap();
        }
        // The crash: the third batch is logged, its epoch never closes.
        w.append_batch(2, &batches[2]).unwrap();
        drop(w);

        let (log, mut w) = WalWriter::open(&path).unwrap();
        let mut recovered = ServeLoop::new(g, cfg);
        replay(&mut recovered, &log.records).unwrap();
        let done = recovered.stats().epochs;
        assert_eq!(done, 2, "recovery resumes at the unclosed epoch");
        for batch in &batches[done..] {
            recovered.run_epoch(batch, Some(&mut w)).unwrap();
        }
        drop(w);

        assert_eq!(recovered.assignment().mate, uninterrupted.assignment().mate);
        assert_eq!(recovered.graph().n_left(), uninterrupted.graph().n_left());
        assert_eq!(recovered.stats().updates, uninterrupted.stats().updates);
        assert!(log.torn, "an unclosed epoch is a torn tail");
        let reread = read_wal_file(&path).unwrap();
        assert!(!reread.torn);
        let logged = (reread.records.iter())
            .filter(|r| matches!(r, WalRecord::Batch { epoch: 2, .. }))
            .count();
        assert_eq!(logged, 1, "the re-run epoch is logged once");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_open_repairs_a_torn_tail_and_continues_the_sequence() {
        let dir = std::env::temp_dir().join(format!("salloc-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");

        let mut w = WalWriter::create(&path).unwrap();
        w.append_epoch_end(0, 5).unwrap();
        w.append_epoch_end(1, 6).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();

        // Crash mid-append: chop the second record in half.
        let cut = full.len() - (full.len() - full.len() / 2) / 2;
        std::fs::write(&path, &full[..cut]).unwrap();

        let (replay, mut w) = WalWriter::open(&path).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(w.seq(), 1);
        // The torn bytes are gone from disk.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.clean_len);

        // Appending after the repair yields a clean two-record log.
        w.append_epoch_end(1, 7).unwrap();
        drop(w);
        let reread = read_wal_file(&path).unwrap();
        assert!(!reread.torn);
        assert_eq!(
            reread.records,
            vec![
                WalRecord::EpochEnd {
                    epoch: 0,
                    match_size: 5
                },
                WalRecord::EpochEnd {
                    epoch: 1,
                    match_size: 7
                },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn base_markers_carry_the_snapshot_checksum() {
        let mut w = WalWriter::new(Vec::new());
        let sum = fnv1a64(b"snapshot bytes");
        w.append_base(3, sum).unwrap();
        let replay = read_wal(&mut &w.into_inner()[..]).unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord::Base {
                epoch: 3,
                checksum: sum
            }]
        );
    }
}
