//! Checkpoint/restore: versioned, checksummed binary snapshots of the
//! serving engines.
//!
//! The dynamic engine's state — the [`DeltaGraph`] overlay, the β-levels,
//! the maintained [`Matching`](crate::Matching), the churn charged to the
//! drift budget, and the lifetime counters — is a *compact certificate*
//! of everything the update history did: exactly the levels + matching +
//! overlay triple the peeling/level structures of low-memory MPC matching
//! maintain (Brandt–Fischer–Uitto, arXiv:1807.05374; Ghaffari–Uitto,
//! arXiv:1807.06251). Persisting it lets a serving process restart
//! **warm**: a restored [`ServeLoop`] is bit-identical, as far as any
//! observable allocation state goes, to the engine that never stopped —
//! the warm-restart fidelity contract `tests/persistence.rs` proves for
//! the serial engine and for shard counts {1, 2, 4}, including restores
//! that re-shard onto a different machine count.
//!
//! # Wire format
//!
//! ```text
//! [ 0.. 8)  magic  "SALLOCSN"
//! [ 8..12)  format version (u32 LE)       — mismatch: typed error
//! [12..16)  kind (0 serial, 1 sharded)   — mismatch: typed error
//! [16..24)  payload length (u64 LE)       — short file: typed error
//! [24.. n)  payload (see below)
//! [ n..n+8) FNV-1a-64 over bytes [0..n)   — mismatch: typed error
//! ```
//!
//! The payload is the [`ByteWriter`] encoding of the engine's persistent
//! state, read from the live engine in place. It opens with the five
//! [`DynamicConfig`] words (ε, walk budget, drift threshold, eager search
//! cap, eager walk budget); the repair rounds, the space slack and the
//! footprint cap are constants of the build and are not stored. The
//! sharded kind prepends the shard-map word, lifetime counters, and one
//! [`ShardManifest`] per machine of the recorded [`ShardMap`]. Files of
//! versions 1 (which stored those settings), 2 (which stored a
//! level-repair ball cap) and 3 (which stored a second dirty list for the
//! sweep) are refused as version skew. Every corruption path —
//! truncation, bit flips, version skew, a manifest list that disagrees
//! with its recorded shard count — surfaces as a typed
//! [`SnapshotError`], never a panic. A restore decodes the serial
//! engine's parts and rebuilds the engine from them, re-validating every
//! structure against its invariants before serving resumes (the payload
//! is external input; the checksum detects accidents, not adversaries);
//! a sharded restore then checks the rebuilt engine against its
//! manifests.
//!
//! What is deliberately **not** persisted: the search and level-repair
//! scratch (rebuilt empty on restore), and the MPC ledger's
//! round history (a restore starts a fresh accounting epoch with a
//! [`Phase::Restore`](sparse_alloc_obs::Phase::Restore) phase,
//! like a real redeployment). The serving counters do carry over, so
//! lifetime stats stay monotone across restarts.
//!
//! # Re-sharding on restore
//!
//! Vertex ownership is a pure function of the id and the shard count, so
//! [`read_sharded`] can re-key a snapshot onto a different machine count:
//! the manifests are validated under the *recorded* map first (catching
//! codec or corruption bugs shard by shard), then the restored state is
//! re-checked against the *target* count's per-machine space budget.
//!
//! ```
//! use sparse_alloc_dynamic::{snapshot, DynamicConfig, ServeLoop, Update};
//! use sparse_alloc_graph::generators::union_of_spanning_trees;
//!
//! let g = union_of_spanning_trees(60, 40, 3, 2, 7).graph;
//! let mut serve = ServeLoop::new(g, DynamicConfig::for_eps(0.25));
//! serve.apply(&Update::Depart { u: 3 });
//! serve.end_epoch();
//!
//! // Checkpoint to any `Write` sink, restore from any `Read` source.
//! let mut bytes = Vec::new();
//! snapshot::write_serial(&serve, &mut bytes).unwrap();
//! let restored = snapshot::read_serial(&mut &bytes[..]).unwrap();
//! assert_eq!(restored.assignment().mate, serve.assignment().mate);
//! assert_eq!(restored.stats(), serve.stats());
//! ```

use std::io::{Read, Write};
use std::path::Path;

use sparse_alloc_graph::io::{fnv1a64, ByteReader, ByteWriter, IoError};
use sparse_alloc_graph::DeltaGraph;
use sparse_alloc_mpc::{ShardManifest, ShardMap};

use crate::distributed::{ShardedServeLoop, ShardedStats};
use crate::serve::{DynamicConfig, ServeLoop, ServeParts, ServeStats};
use crate::walks::MatchingState;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SALLOCSN";
/// The format version this build writes and the only one it reads.
pub const VERSION: u32 = 4;

const KIND_SERIAL: u32 = 0;
const KIND_SHARDED: u32 = 1;
/// Header bytes before the payload: magic + version + kind + length.
const HEADER: usize = 8 + 4 + 4 + 8;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (filesystem, sink, source).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file was written by an unsupported format version.
    Version {
        /// Version recorded in the file.
        found: u32,
        /// The only version this build supports.
        supported: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header promises.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The checksum over header + payload does not match the recorded one.
    Checksum {
        /// Checksum recorded in the file.
        recorded: u64,
        /// Checksum computed over the bytes read.
        computed: u64,
    },
    /// A serial restore was asked to read a sharded snapshot, or vice
    /// versa.
    Kind {
        /// The kind the caller asked for.
        expected: &'static str,
        /// The kind recorded in the file.
        found: &'static str,
    },
    /// The manifest list disagrees with the recorded shard count.
    ShardMismatch {
        /// Shard count recorded in the snapshot.
        recorded: usize,
        /// Manifest entries actually present.
        manifests: usize,
    },
    /// The payload parsed but violates a structural invariant (dangling
    /// ids, infeasible matching, manifest/state disagreement, unusable
    /// config, a restored state that leaves the space regime, …).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a sparse-alloc snapshot (bad magic)"),
            SnapshotError::Version { found, supported } => {
                write!(
                    f,
                    "snapshot format v{found}, this build supports v{supported}"
                )
            }
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: {got} of {needed} bytes")
            }
            SnapshotError::Checksum { recorded, computed } => write!(
                f,
                "snapshot checksum mismatch: recorded {recorded:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Kind { expected, found } => {
                write!(f, "expected a {expected} snapshot, found a {found} one")
            }
            SnapshotError::ShardMismatch {
                recorded,
                manifests,
            } => write!(
                f,
                "snapshot records {recorded} shards but carries {manifests} manifests"
            ),
            SnapshotError::Invalid(msg) => write!(f, "snapshot invalid: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<IoError> for SnapshotError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Io(e) => SnapshotError::Io(e),
            IoError::Parse(msg) => SnapshotError::Invalid(msg),
        }
    }
}

fn invalid(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid(msg.into())
}

// ---------------------------------------------------------------- framing

/// Frame the payload `encode` writes, in place: the header goes first
/// with a zero length, the payload is encoded straight after it, then the
/// length is backfilled and the checksum of header and payload appended.
/// Every checkpoint, serial or sharded, is framed here, and its payload is
/// never copied.
fn frame(kind: u32, encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(u64::from_le_bytes(MAGIC));
    w.put_u32(VERSION);
    w.put_u32(kind);
    w.put_u64(0);
    encode(&mut w);
    let mut out = w.into_bytes();
    let len = (out.len() - HEADER) as u64;
    out[HEADER - 8..HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = fnv1a64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verify the frame and return `(kind, payload)`.
fn deframe(bytes: &[u8]) -> Result<(u32, &[u8]), SnapshotError> {
    if bytes.len() < HEADER + 8 {
        return Err(SnapshotError::Truncated {
            needed: (HEADER + 8) as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::Version {
            found: version,
            supported: VERSION,
        });
    }
    let kind = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let total = (HEADER as u64)
        .checked_add(len)
        .and_then(|t| t.checked_add(8))
        .ok_or(SnapshotError::Truncated {
            needed: u64::MAX,
            got: bytes.len() as u64,
        })?;
    if (bytes.len() as u64) < total {
        return Err(SnapshotError::Truncated {
            needed: total,
            got: bytes.len() as u64,
        });
    }
    if (bytes.len() as u64) > total {
        return Err(invalid(format!(
            "{} trailing bytes after the checksum",
            bytes.len() as u64 - total
        )));
    }
    let body = &bytes[..HEADER + len as usize];
    let recorded = u64::from_le_bytes(bytes[HEADER + len as usize..].try_into().unwrap());
    let computed = fnv1a64(body);
    if recorded != computed {
        return Err(SnapshotError::Checksum { recorded, computed });
    }
    Ok((kind, &bytes[HEADER..HEADER + len as usize]))
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_SERIAL => "serial",
        KIND_SHARDED => "sharded",
        _ => "unknown",
    }
}

// --------------------------------------------------------- serial payload

fn encode_config(cfg: &DynamicConfig, w: &mut ByteWriter) {
    w.put_f64(cfg.eps);
    w.put_u64(cfg.walk_budget as u64);
    w.put_f64(cfg.drift_threshold);
    w.put_u64(cfg.eager_search_cap as u64);
    w.put_u64(cfg.eager_walk_budget as u64);
}

fn decode_config(r: &mut ByteReader) -> Result<DynamicConfig, SnapshotError> {
    let eps = r.take_f64()?;
    let walk_budget = r.take_u64()? as usize;
    let drift_threshold = r.take_f64()?;
    Ok(DynamicConfig {
        eps,
        walk_budget,
        drift_threshold,
        eager_search_cap: r.take_u64()? as usize,
        eager_walk_budget: r.take_u64()? as usize,
    })
}

/// `None` mate sentinel: right ids are dense and far below this.
const NO_MATE: u32 = u32::MAX;

/// Encode the engine's persistent state, read in place (the parts
/// [`decode_serve_parts`] reads back).
fn encode_serve(s: &ServeLoop, w: &mut ByteWriter) {
    encode_config(s.config(), w);
    s.graph().encode(w);
    w.put_vec_i64(s.levels());
    let (mate, matched_at) = (s.matching().mate_slice(), s.matching().matched_at_slice());
    w.put_u64(mate.len() as u64);
    for m in mate {
        w.put_u32(m.unwrap_or(NO_MATE));
    }
    w.put_u64(matched_at.len() as u64);
    for at in matched_at {
        w.put_vec_u32(at);
    }
    w.put_u64(s.matching().expansions());
    w.put_vec_u32(s.dirty());
    w.put_f64(s.drift());
    let stats = s.stats();
    for c in [
        stats.updates,
        stats.epochs,
        stats.rebuilds,
        stats.compactions,
        stats.augmentations,
        stats.evictions,
        stats.repair_rounds,
    ] {
        w.put_u64(c as u64);
    }
}

fn decode_serve_parts(r: &mut ByteReader) -> Result<ServeParts, SnapshotError> {
    let cfg = decode_config(r)?;
    let dg = DeltaGraph::decode(r)?;
    let levels = r.take_vec_i64()?;
    let n_mate = r.take_len(4)?;
    let mut mate = Vec::with_capacity(n_mate);
    for _ in 0..n_mate {
        let m = r.take_u32()?;
        mate.push((m != NO_MATE).then_some(m));
    }
    let n_at = r.take_len(8)?;
    let mut matched_at = Vec::with_capacity(n_at);
    for _ in 0..n_at {
        matched_at.push(r.take_vec_u32()?);
    }
    let expansions = r.take_u64()?;
    let dirty = r.take_vec_u32()?;
    let drift_accumulated = r.take_f64()?;
    let mut stats = [0usize; 7];
    for s in &mut stats {
        *s = r.take_u64()? as usize;
    }
    Ok(ServeParts {
        cfg,
        dg,
        levels,
        matching: MatchingState {
            mate,
            matched_at,
            expansions,
        },
        dirty,
        drift_accumulated,
        stats: ServeStats {
            updates: stats[0],
            epochs: stats[1],
            rebuilds: stats[2],
            compactions: stats[3],
            augmentations: stats[4],
            evictions: stats[5],
            repair_rounds: stats[6],
        },
    })
}

// -------------------------------------------------------- sharded payload

/// Derive the per-shard manifests of an engine's state under `map`: one
/// entry per machine with its owned-vertex counts, resident words (the
/// quantity the ledger's storage accounting charges), and a checksum over
/// the machine's owned slice — rights in id order (capacity, level,
/// matched partners), then lefts in id order (mate).
fn manifests_of(serve: &ServeLoop, map: &ShardMap) -> Vec<ShardManifest> {
    let dg = serve.graph();
    let matched_at = serve.matching().matched_at_slice();
    let shards = map.shards();
    let mut slices: Vec<ByteWriter> = (0..shards).map(|_| ByteWriter::new()).collect();
    let mut out: Vec<ShardManifest> = (0..shards as u32)
        .map(|shard| ShardManifest {
            shard,
            ..ShardManifest::default()
        })
        .collect();
    for v in 0..dg.n_right() as u32 {
        let s = map.owner_of_right(v);
        out[s].owned_rights += 1;
        out[s].resident_words += 2 + dg.right_degree(v) as u64;
        let w = &mut slices[s];
        w.put_u32(v);
        w.put_u64(dg.capacity(v));
        w.put_i64(serve.levels()[v as usize]);
        w.put_vec_u32(&matched_at[v as usize]);
    }
    for u in 0..dg.n_left() as u32 {
        let s = map.owner_of_left(u);
        out[s].owned_lefts += 1;
        out[s].resident_words += 2;
        let w = &mut slices[s];
        w.put_u32(u);
        w.put_u32(serve.query(u).unwrap_or(NO_MATE));
    }
    for (m, w) in out.iter_mut().zip(slices) {
        m.state_checksum = fnv1a64(&w.into_bytes());
    }
    out
}

/// Encode the sharded payload: the map, the counters, the manifests and
/// then the serial engine's state.
fn encode_sharded(sh: &ShardedServeLoop, manifests: &[ShardManifest], w: &mut ByteWriter) {
    w.put_u64(sh.shard_map().to_word());
    let stats = sh.stats();
    for c in [
        stats.batches,
        stats.waves,
        stats.routed_updates,
        stats.migrations,
        stats.escalations,
        stats.widest_wave,
        stats.delayed,
    ] {
        w.put_u64(c as u64);
    }
    w.put_u64(stats.handoff_words);
    w.put_u64(manifests.len() as u64);
    for m in manifests {
        w.put_u32(m.shard);
        w.put_u64(m.owned_lefts);
        w.put_u64(m.owned_rights);
        w.put_u64(m.resident_words);
        w.put_u64(m.state_checksum);
    }
    encode_serve(sh.serial(), w);
}

/// Decode the sharded payload's head, up to the serial engine's parts:
/// the recorded map, the sharded counters and the manifests.
fn decode_sharded_head(
    r: &mut ByteReader,
) -> Result<(ShardMap, ShardedStats, Vec<ShardManifest>), SnapshotError> {
    let map = ShardMap::from_word(r.take_u64()?).map_err(invalid)?;
    let mut counters = [0usize; 7];
    for c in &mut counters {
        *c = r.take_u64()? as usize;
    }
    let handoff_words = r.take_u64()?;
    let n_manifests = r.take_len(36)?;
    if n_manifests != map.shards() {
        return Err(SnapshotError::ShardMismatch {
            recorded: map.shards(),
            manifests: n_manifests,
        });
    }
    let mut manifests = Vec::with_capacity(n_manifests);
    for i in 0..n_manifests as u32 {
        let m = ShardManifest {
            shard: r.take_u32()?,
            owned_lefts: r.take_u64()?,
            owned_rights: r.take_u64()?,
            resident_words: r.take_u64()?,
            state_checksum: r.take_u64()?,
        };
        if m.shard != i {
            return Err(invalid(format!(
                "manifest {i} describes shard {} (must be in shard order)",
                m.shard
            )));
        }
        manifests.push(m);
    }
    let stats = ShardedStats {
        batches: counters[0],
        waves: counters[1],
        routed_updates: counters[2],
        handoff_words,
        migrations: counters[3],
        escalations: counters[4],
        widest_wave: counters[5],
        delayed: counters[6],
    };
    Ok((map, stats, manifests))
}

// ------------------------------------------------------------- public API

/// Serialize a serial [`ServeLoop`] into `w`. The engine is read in
/// place — a checkpoint costs the encoding, not a state clone.
pub fn write_serial(serve: &ServeLoop, w: &mut impl Write) -> Result<(), SnapshotError> {
    w.write_all(&serial_bytes(serve))?;
    Ok(())
}

/// The bytes [`write_serial`] writes.
pub(crate) fn serial_bytes(serve: &ServeLoop) -> Vec<u8> {
    frame(KIND_SERIAL, |w| encode_serve(serve, w))
}

/// Restore a serial [`ServeLoop`] from the bytes [`write_serial`] wrote.
pub fn read_serial(r: &mut impl Read) -> Result<ServeLoop, SnapshotError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let (kind, payload) = deframe(&bytes)?;
    if kind != KIND_SERIAL {
        return Err(SnapshotError::Kind {
            expected: "serial",
            found: kind_name(kind),
        });
    }
    let mut r = ByteReader::new(payload);
    let parts = decode_serve_parts(&mut r)?;
    r.expect_end().map_err(SnapshotError::from)?;
    ServeLoop::from_parts(parts).map_err(invalid)
}

/// Serialize a [`ShardedServeLoop`] into `w`, with one [`ShardManifest`]
/// per machine of its [`ShardMap`]. The
/// checkpoint is recorded on the loop's ledger as a round-free
/// [`Phase::Checkpoint`](sparse_alloc_obs::Phase::Checkpoint) phase
/// (hence `&mut`).
pub fn write_sharded(
    serve: &mut ShardedServeLoop,
    w: &mut impl Write,
) -> Result<(), SnapshotError> {
    w.write_all(&sharded_bytes(serve))?;
    Ok(())
}

/// The bytes [`write_sharded`] writes (it records the checkpoint too).
pub(crate) fn sharded_bytes(serve: &mut ShardedServeLoop) -> Vec<u8> {
    serve.note_checkpoint();
    let manifests = manifests_of(serve.serial(), serve.shard_map());
    frame(KIND_SHARDED, |w| encode_sharded(serve, &manifests, w))
}

/// Restore a [`ShardedServeLoop`] from the bytes [`write_sharded`] wrote.
///
/// With `shards = None` the loop resumes under its recorded shard count;
/// `Some(p)` re-shards onto `p` machines (ownership is a pure function of
/// the vertex id). Either way the restored engine, once it passes every
/// check a serial restore makes, is validated against the recorded
/// manifests — shard by shard, under the recorded map — and then
/// re-checked against the target count's space budget.
pub fn read_sharded(
    r: &mut impl Read,
    shards: Option<usize>,
) -> Result<ShardedServeLoop, SnapshotError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let (kind, payload) = deframe(&bytes)?;
    if kind != KIND_SHARDED {
        return Err(SnapshotError::Kind {
            expected: "sharded",
            found: kind_name(kind),
        });
    }
    let mut r = ByteReader::new(payload);
    let (map, stats, manifests) = decode_sharded_head(&mut r)?;
    let parts = decode_serve_parts(&mut r)?;
    r.expect_end().map_err(SnapshotError::from)?;
    let serve = ServeLoop::from_parts(parts).map_err(invalid)?;
    for (got, want) in manifests.iter().zip(&manifests_of(&serve, &map)) {
        if got != want {
            return Err(invalid(format!(
                "shard {} manifest disagrees with the decoded state \
                 (recorded {got:?}, derived {want:?})",
                got.shard
            )));
        }
    }
    ShardedServeLoop::from_parts(serve, map.shards(), stats, shards).map_err(invalid)
}

/// Restore a serial [`ServeLoop`] from the file at `path`.
pub fn load_serial(path: impl AsRef<Path>) -> Result<ServeLoop, SnapshotError> {
    read_serial(&mut std::fs::File::open(path)?)
}

/// Restore a [`ShardedServeLoop`] from the file at `path`, optionally
/// re-sharding (see [`read_sharded`]).
pub fn load_sharded(
    path: impl AsRef<Path>,
    shards: Option<usize>,
) -> Result<ShardedServeLoop, SnapshotError> {
    read_sharded(&mut std::fs::File::open(path)?, shards)
}

/// Write `bytes` to `path` through a temp file beside it (`path` +
/// `.tmp`): fsync, then rename over `path`, so a crash mid-checkpoint
/// never leaves a torn file where a good one was. A failed write or
/// rename removes the temp file and leaves `path` as it was.
pub(crate) fn save_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let saved = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = saved {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    // The rename survives a crash only once the directory entry does.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{churn_stream, ChurnMix};
    use crate::ShardedConfig;
    use sparse_alloc_graph::generators::union_of_spanning_trees;
    use sparse_alloc_graph::BipartiteBuilder;

    fn churned_serve() -> ServeLoop {
        let g = union_of_spanning_trees(50, 40, 2, 2, 9).graph;
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 5);
        let mut s = ServeLoop::new(g, DynamicConfig::for_eps(0.25));
        for (i, up) in updates.iter().enumerate() {
            s.apply(up);
            if i % 17 == 16 {
                s.end_epoch();
            }
        }
        s
    }

    fn serial_bytes(s: &ServeLoop) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_serial(s, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // A small fixed engine churned serial and 2-shard, each with dirty
        // marks pending: the FNV-1a-64 of each snapshot is pinned, so a
        // codec change that moves one byte of either format fails here.
        let serial = serial_bytes(&churned_serve());
        let g = union_of_spanning_trees(50, 40, 2, 2, 9).graph;
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 5);
        let mut sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        for (i, chunk) in updates.chunks(20).enumerate() {
            sh.apply_batch(chunk).unwrap();
            if i < 2 {
                sh.end_epoch().unwrap();
            }
        }
        let mut sharded = Vec::new();
        write_sharded(&mut sh, &mut sharded).unwrap();
        assert_eq!(
            (fnv1a64(&serial), fnv1a64(&sharded)),
            (0x6fe6fa4086d530c4, 0xbc7c2d5ac079de94),
            "snapshot bytes moved"
        );
    }

    #[test]
    fn fresh_empty_serve_loop_roundtrips() {
        // The satellite case: an engine that never served an update, on
        // the empty graph, must round-trip exactly.
        let g = BipartiteBuilder::new(0, 0).build(vec![]).unwrap();
        let s = ServeLoop::new(g, DynamicConfig::for_eps(0.5));
        let bytes = serial_bytes(&s);
        let r = read_serial(&mut &bytes[..]).unwrap();
        r.validate().unwrap();
        assert_eq!(r.match_size(), 0);
        assert_eq!(r.stats(), s.stats());
        assert_eq!(r.config().eps, s.config().eps);
    }

    #[test]
    fn serial_roundtrip_preserves_observable_state_mid_epoch() {
        // Checkpoint *between* epochs, with dirty marks pending: the
        // restored engine must report identical state and close the next
        // epoch identically.
        let mut a = churned_serve();
        let bytes = serial_bytes(&a);
        let mut b = read_serial(&mut &bytes[..]).unwrap();
        b.validate().unwrap();
        assert_eq!(a.assignment().mate, b.assignment().mate);
        assert_eq!(a.levels(), b.levels());
        assert_eq!(a.stats(), b.stats());
        let ra = a.end_epoch();
        let rb = b.end_epoch();
        assert_eq!(ra, rb, "epoch close diverged after restore");
        assert_eq!(a.assignment().mate, b.assignment().mate);
        // Snapshots of equal engines are byte-identical (determinism).
        assert_eq!(serial_bytes(&a), serial_bytes(&b));
    }

    #[test]
    fn truncated_snapshots_error_typed() {
        let s = churned_serve();
        let bytes = serial_bytes(&s);
        for cut in [0, 7, 8, 23, 24, 100, bytes.len() - 1] {
            let err = read_serial(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "prefix {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_bits_error_as_checksum_mismatch() {
        let s = churned_serve();
        let bytes = serial_bytes(&s);
        for at in [HEADER + 3, HEADER + 95, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = read_serial(&mut &bad[..]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Checksum { .. }),
                "flip at {at}: {err}"
            );
        }
        // Flipping the trailing checksum itself is also a mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_serial(&mut &bad[..]).unwrap_err(),
            SnapshotError::Checksum { .. }
        ));
    }

    #[test]
    fn version_and_magic_mismatches_error_typed() {
        let s = churned_serve();
        let bytes = serial_bytes(&s);
        // Version-1, -2 and -3 headers (the formats that still carried the
        // repair and scheduling settings, then the level-repair ball cap,
        // then the sweep's dirty list), re-sealed so only the version
        // differs.
        for old in [1u8, 2, 3] {
            let mut skewed = bytes.clone();
            skewed[8] = old;
            let body = skewed.len() - 8;
            let crc = fnv1a64(&skewed[..body]).to_le_bytes();
            skewed[body..].copy_from_slice(&crc);
            let err = read_serial(&mut &skewed[..]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Version { found, supported: 4 } if found == old as u32
                ),
                "{err}"
            );
        }
        let mut nomagic = bytes;
        nomagic[0] = b'X';
        assert!(matches!(
            read_serial(&mut &nomagic[..]).unwrap_err(),
            SnapshotError::BadMagic
        ));
    }

    #[test]
    fn levels_whose_differences_can_overflow_are_refused() {
        // Two rights that share a left: the aggregates subtract their
        // levels, so extreme levels must not reach `fractional()`.
        let s = churned_serve();
        let g = s.snapshot();
        let (u, _) = (0..g.n_left() as u32)
            .map(|u| (u, g.left_neighbors(u)))
            .find(|(_, row)| row.len() >= 2)
            .expect("a left with two rights");
        let row = g.left_neighbors(u);
        let (a, b) = (row[0] as usize, row[1] as usize);
        // The level vector's entries follow the config words, the graph
        // and the vector's length word.
        let mut head = ByteWriter::new();
        encode_config(s.config(), &mut head);
        s.graph().encode(&mut head);
        let level_at = |v: usize| HEADER + head.len() + 8 + 8 * v;
        let bytes = serial_bytes(&s);
        let with_levels = |hi: i64, lo: i64| {
            let mut bad = bytes.clone();
            bad[level_at(a)..level_at(a) + 8].copy_from_slice(&hi.to_le_bytes());
            bad[level_at(b)..level_at(b) + 8].copy_from_slice(&lo.to_le_bytes());
            let body = bad.len() - 8;
            let crc = fnv1a64(&bad[..body]).to_le_bytes();
            bad[body..].copy_from_slice(&crc);
            read_serial(&mut &bad[..])
        };
        for (hi, lo) in [
            (i64::MAX, i64::MIN),
            (i64::MAX / 4 + 1, 0),
            (0, -(i64::MAX / 4) - 1),
        ] {
            let err = with_levels(hi, lo).map(drop).unwrap_err();
            assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
        }
        let edge = with_levels(i64::MAX / 4, -(i64::MAX / 4)).expect("levels at the bound");
        assert_eq!(edge.levels()[a], i64::MAX / 4);
    }

    #[test]
    fn kind_mismatch_errors_typed() {
        let g = union_of_spanning_trees(30, 20, 2, 2, 3).graph;
        let mut sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        let mut sharded_bytes = Vec::new();
        write_sharded(&mut sh, &mut sharded_bytes).unwrap();
        assert!(matches!(
            read_serial(&mut &sharded_bytes[..]).unwrap_err(),
            SnapshotError::Kind {
                expected: "serial",
                found: "sharded"
            }
        ));
        let serial_bytes = serial_bytes(&churned_serve());
        assert!(matches!(
            read_sharded(&mut &serial_bytes[..], None).unwrap_err(),
            SnapshotError::Kind {
                expected: "sharded",
                found: "serial"
            }
        ));
    }

    #[test]
    fn the_retired_delta_kind_is_refused_typed() {
        // Kind 2 once framed a delta checkpoint. Neither reader accepts
        // it: a well-formed frame of that kind is a typed kind error.
        let bytes = frame(2, |w| (0..7).for_each(|_| w.put_u64(0)));
        for err in [
            read_serial(&mut &bytes[..]).map(drop).unwrap_err(),
            read_sharded(&mut &bytes[..], None).map(drop).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    SnapshotError::Kind {
                        found: "unknown",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn shard_count_mismatch_errors_typed() {
        // A sharded payload whose manifest list does not cover its
        // recorded shard count is rejected before any state is adopted.
        let g = union_of_spanning_trees(30, 20, 2, 2, 4).graph;
        let sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 3)).unwrap();
        let mut manifests = manifests_of(sh.serial(), sh.shard_map());
        manifests.pop();
        let bytes = frame(KIND_SHARDED, |w| encode_sharded(&sh, &manifests, w));
        let err = read_sharded(&mut &bytes[..], None).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ShardMismatch {
                    recorded: 3,
                    manifests: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn manifest_state_disagreement_is_rejected() {
        let g = union_of_spanning_trees(30, 20, 2, 2, 6).graph;
        let sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        let mut manifests = manifests_of(sh.serial(), sh.shard_map());
        manifests[1].state_checksum ^= 1;
        let bytes = frame(KIND_SHARDED, |w| encode_sharded(&sh, &manifests, w));
        let err = read_sharded(&mut &bytes[..], None).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    }

    #[test]
    fn sharded_roundtrip_and_reshard() {
        let g = union_of_spanning_trees(60, 45, 2, 2, 8).graph;
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 3);
        let mut sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        for chunk in updates.chunks(20) {
            sh.apply_batch(chunk).unwrap();
            sh.end_epoch().unwrap();
        }
        let mut bytes = Vec::new();
        write_sharded(&mut sh, &mut bytes).unwrap();
        assert!(
            sh.ledger()
                .local_steps_labeled(sparse_alloc_obs::Phase::Checkpoint.label())
                >= 1
        );
        // Same shard count.
        let same = read_sharded(&mut &bytes[..], None).unwrap();
        assert_eq!(same.shards(), 2);
        assert_eq!(same.assignment().mate, sh.assignment().mate);
        assert_eq!(same.stats(), sh.stats());
        assert!(
            same.ledger()
                .local_steps_labeled(sparse_alloc_obs::Phase::Restore.label())
                >= 1
        );
        // Re-shard onto a different count: identical allocation state.
        for target in [1usize, 4] {
            let re = read_sharded(&mut &bytes[..], Some(target)).unwrap();
            assert_eq!(re.shards(), target);
            assert_eq!(re.assignment().mate, sh.assignment().mate);
            re.validate().unwrap();
        }
    }

    #[test]
    fn corrupt_payload_structures_error_not_panic() {
        // Flip payload bytes *and* re-seal the checksum, so the decoder
        // itself must reject the damage (dangling ids, infeasible
        // matching, …) — or, if the flip lands in benign bytes, the
        // restore must still produce a valid engine.
        let s = churned_serve();
        let bytes = serial_bytes(&s);
        let body = bytes.len() - 8;
        let step = (body - HEADER) / 97 + 1;
        for at in (HEADER..body).step_by(step) {
            let mut bad = bytes.clone();
            bad[at] = bad[at].wrapping_add(1);
            let crc = fnv1a64(&bad[..body]).to_le_bytes();
            bad[body..].copy_from_slice(&crc);
            match read_serial(&mut &bad[..]) {
                Ok(engine) => engine.validate().unwrap(),
                Err(e) => assert!(
                    !matches!(e, SnapshotError::Checksum { .. }),
                    "re-sealed flip at {at} must not read as checksum damage"
                ),
            }
        }
    }

    #[test]
    fn snapshot_errors_chain_their_io_source() {
        use std::error::Error;
        let e = SnapshotError::from(std::io::Error::other("disk fell out"));
        assert!(e.source().is_some());
        assert!(e.source().unwrap().to_string().contains("disk fell out"));
        assert!(SnapshotError::BadMagic.source().is_none());
    }

    #[test]
    fn atomic_save_replaces_and_cleans_up() {
        use crate::Engine;
        let mut s = churned_serve();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("salloc-snap-{}.bin", std::process::id()));
        s.checkpoint(&path, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), serial_bytes(&s));
        let r = load_serial(&path).unwrap();
        assert_eq!(r.assignment().mate, s.assignment().mate);
        // Overwrite in place: still readable, no .tmp residue.
        s.checkpoint(&path, None).unwrap();
        assert!(load_serial(&path).is_ok());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        let _ = std::fs::remove_file(&path);
    }
}
