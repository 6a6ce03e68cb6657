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
//! The payload is the [`ByteWriter`] encoding of the engine parts; the
//! sharded kind prepends the shard configuration, lifetime counters, and
//! one [`ShardManifest`] per machine of the recorded
//! [`ShardMap`]. Every corruption path —
//! truncation, bit flips, version skew, a manifest list that disagrees
//! with its recorded shard count — surfaces as a typed
//! [`SnapshotError`], never a panic, and every decoded structure is
//! re-validated against its invariants before serving resumes (the
//! payload is external input; the checksum detects accidents, not
//! adversaries).
//!
//! What is deliberately **not** persisted: the search and sweep scratch
//! (rebuilt empty on restore), and the MPC ledger's
//! round history (a restore starts a fresh accounting epoch with a
//! [`labels::RESTORE`](sparse_alloc_mpc::shard::labels::RESTORE) phase,
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

use crate::distributed::{ShardedParts, ShardedPartsRef, ShardedServeLoop, ShardedStats};
use crate::serve::{DynamicConfig, ServeLoop, ServeParts, ServePartsRef, ServeStats};
use crate::walks::MatchingState;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SALLOCSN";
/// The format version this build writes and the only one it reads.
pub const VERSION: u32 = 1;

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

/// Wrap a payload in the header + checksum frame.
fn frame(kind: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
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

/// The config's 6th word. It once held the overlay compaction threshold,
/// so snapshots written before carry a finite value > 0 there and restore
/// unchanged; the encoder writes the old default, 0.25, and anything else
/// stays corrupt.
const RESERVED_CONFIG_SLOT: f64 = 0.25;

fn encode_config(cfg: &DynamicConfig, w: &mut ByteWriter) {
    w.put_f64(cfg.eps);
    w.put_u64(cfg.walk_budget as u64);
    w.put_u64(cfg.repair_radius as u64);
    w.put_u64(cfg.repair_rounds as u64);
    w.put_f64(cfg.drift_threshold);
    w.put_f64(RESERVED_CONFIG_SLOT);
    w.put_u64(cfg.eager_search_cap as u64);
    w.put_u64(cfg.eager_walk_budget as u64);
    w.put_u64(cfg.repair_ball_cap as u64);
}

fn decode_config(r: &mut ByteReader) -> Result<DynamicConfig, SnapshotError> {
    let eps = r.take_f64()?;
    let walk_budget = r.take_u64()? as usize;
    let repair_radius = r.take_u64()? as usize;
    let repair_rounds = r.take_u64()? as usize;
    let drift_threshold = r.take_f64()?;
    let reserved = r.take_f64()?;
    if !(reserved > 0.0 && reserved.is_finite()) {
        return Err(invalid(format!(
            "reserved config slot is {reserved} (must be finite and > 0)"
        )));
    }
    Ok(DynamicConfig {
        eps,
        walk_budget,
        repair_radius,
        repair_rounds,
        drift_threshold,
        eager_search_cap: r.take_u64()? as usize,
        eager_walk_budget: r.take_u64()? as usize,
        repair_ball_cap: r.take_u64()? as usize,
    })
}

/// `None` mate sentinel: right ids are dense and far below this.
const NO_MATE: u32 = u32::MAX;

fn encode_serve_parts(p: &ServePartsRef<'_>, w: &mut ByteWriter) {
    encode_config(p.cfg, w);
    p.dg.encode(w);
    w.put_vec_i64(p.levels);
    w.put_u64(p.mate.len() as u64);
    for m in p.mate {
        w.put_u32(m.unwrap_or(NO_MATE));
    }
    w.put_u64(p.matched_at.len() as u64);
    for at in p.matched_at {
        w.put_vec_u32(at);
    }
    w.put_u64(p.expansions);
    w.put_vec_u32(p.dirty);
    w.put_vec_u32(p.sweep_dirty);
    w.put_f64(p.drift_accumulated);
    for c in [
        p.stats.updates,
        p.stats.epochs,
        p.stats.rebuilds,
        p.stats.compactions,
        p.stats.augmentations,
        p.stats.evictions,
        p.stats.repair_rounds,
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
    let sweep_dirty = r.take_vec_u32()?;
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
        sweep_dirty,
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

/// Derive the per-shard manifests of a serialized state under `map`: one
/// entry per machine with its owned-vertex counts, resident words (the
/// quantity the ledger's storage accounting charges), and a checksum over
/// the machine's owned slice — rights in id order (capacity, level,
/// matched partners), then lefts in id order (mate).
fn manifests_of(p: &ServePartsRef<'_>, map: &ShardMap) -> Vec<ShardManifest> {
    let dg = p.dg;
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
        w.put_i64(p.levels.get(v as usize).copied().unwrap_or(0));
        w.put_vec_u32(p.matched_at.get(v as usize).map_or(&[][..], |a| a));
    }
    for u in 0..dg.n_left() as u32 {
        let s = map.owner_of_left(u);
        out[s].owned_lefts += 1;
        out[s].resident_words += 2;
        let w = &mut slices[s];
        w.put_u32(u);
        w.put_u32(p.mate.get(u as usize).copied().flatten().unwrap_or(NO_MATE));
    }
    for (m, w) in out.iter_mut().zip(slices) {
        m.state_checksum = fnv1a64(&w.into_bytes());
    }
    out
}

/// The sharded payload's 4th word. It once held the wave thread count,
/// so snapshots written before carry any value ≥ 1 there and restore
/// unchanged; the encoder writes 1, and 0 stays corrupt.
const RESERVED_SLOT: u64 = 1;

fn encode_sharded_payload(p: &ShardedPartsRef<'_>, manifests: &[ShardManifest]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(ShardMap::new(p.shards).to_word());
    w.put_u64(p.slack as u64);
    w.put_u64(p.footprint_cap as u64);
    w.put_u64(RESERVED_SLOT);
    for c in [
        p.stats.batches,
        p.stats.waves,
        p.stats.routed_updates,
        p.stats.migrations,
        p.stats.escalations,
        p.stats.widest_wave,
        p.stats.delayed,
    ] {
        w.put_u64(c as u64);
    }
    w.put_u64(p.stats.handoff_words);
    w.put_u64(manifests.len() as u64);
    for m in manifests {
        w.put_u32(m.shard);
        w.put_u64(m.owned_lefts);
        w.put_u64(m.owned_rights);
        w.put_u64(m.resident_words);
        w.put_u64(m.state_checksum);
    }
    encode_serve_parts(&p.inner, &mut w);
    w.into_bytes()
}

fn decode_sharded_payload(
    r: &mut ByteReader,
) -> Result<(ShardedParts, Vec<ShardManifest>), SnapshotError> {
    let map = ShardMap::from_word(r.take_u64()?).map_err(invalid)?;
    let slack = r.take_u64()? as usize;
    let footprint_cap = r.take_u64()? as usize;
    if r.take_u64()? == 0 {
        return Err(invalid("reserved sharded slot is 0 (must be ≥ 1)"));
    }
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
    let inner = decode_serve_parts(r)?;
    let parts = ShardedParts {
        inner,
        shards: map.shards(),
        slack,
        footprint_cap,
        stats: ShardedStats {
            batches: counters[0],
            waves: counters[1],
            routed_updates: counters[2],
            handoff_words,
            migrations: counters[3],
            escalations: counters[4],
            widest_wave: counters[5],
            delayed: counters[6],
        },
    };
    Ok((parts, manifests))
}

// ------------------------------------------------------------- public API

/// Serialize a serial [`ServeLoop`] into `w`. The engine is read in
/// place — a checkpoint costs the encoding, not a state clone.
pub fn write_serial(serve: &ServeLoop, w: &mut impl Write) -> Result<(), SnapshotError> {
    let mut payload = ByteWriter::new();
    encode_serve_parts(&serve.parts_ref(), &mut payload);
    w.write_all(&frame(KIND_SERIAL, &payload.into_bytes()))?;
    Ok(())
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
/// [`labels::CHECKPOINT`](sparse_alloc_mpc::shard::labels::CHECKPOINT)
/// phase (hence `&mut`).
pub fn write_sharded(
    serve: &mut ShardedServeLoop,
    w: &mut impl Write,
) -> Result<(), SnapshotError> {
    serve.note_checkpoint();
    let parts = serve.parts_ref();
    let manifests = manifests_of(&parts.inner, serve.shard_map());
    w.write_all(&frame(
        KIND_SHARDED,
        &encode_sharded_payload(&parts, &manifests),
    ))?;
    Ok(())
}

/// Restore a [`ShardedServeLoop`] from the bytes [`write_sharded`] wrote.
///
/// With `shards = None` the loop resumes under its recorded shard count;
/// `Some(p)` re-shards onto `p` machines (ownership is a pure function of
/// the vertex id). Either way the decoded state is validated against the
/// recorded manifests *first* — shard by shard, under the recorded map —
/// and then re-checked against the target count's space budget.
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
    let (parts, manifests) = decode_sharded_payload(&mut r)?;
    r.expect_end().map_err(SnapshotError::from)?;
    let recorded_map = ShardMap::new(parts.shards);
    let derived = manifests_of(&parts.inner.as_parts_ref(), &recorded_map);
    for (got, want) in manifests.iter().zip(&derived) {
        if got != want {
            return Err(invalid(format!(
                "shard {} manifest disagrees with the decoded state \
                 (recorded {got:?}, derived {want:?})",
                got.shard
            )));
        }
    }
    ShardedServeLoop::from_parts(parts, shards).map_err(invalid)
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
/// never leaves a torn file where a good one was. A failed write removes
/// the temp file and leaves `path` as it was.
pub(crate) fn save_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    std::fs::rename(&tmp, path)?;
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
        // Bump the version and re-seal the checksum so only the version
        // differs.
        let mut v2 = bytes.clone();
        v2[8] = 2;
        let body = v2.len() - 8;
        let crc = fnv1a64(&v2[..body]).to_le_bytes();
        v2[body..].copy_from_slice(&crc);
        assert!(matches!(
            read_serial(&mut &v2[..]).unwrap_err(),
            SnapshotError::Version {
                found: 2,
                supported: VERSION
            }
        ));
        let mut nomagic = bytes;
        nomagic[0] = b'X';
        assert!(matches!(
            read_serial(&mut &nomagic[..]).unwrap_err(),
            SnapshotError::BadMagic
        ));
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
        let bytes = frame(2, &[0u8; 56]);
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
        let parts = sh.parts_ref();
        let mut manifests = manifests_of(&parts.inner, sh.shard_map());
        manifests.pop();
        let bytes = frame(KIND_SHARDED, &encode_sharded_payload(&parts, &manifests));
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
        let parts = sh.parts_ref();
        let mut manifests = manifests_of(&parts.inner, sh.shard_map());
        manifests[1].state_checksum ^= 1;
        let bytes = frame(KIND_SHARDED, &encode_sharded_payload(&parts, &manifests));
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
                .local_steps_labeled(sparse_alloc_mpc::shard::labels::CHECKPOINT)
                >= 1
        );
        // Same shard count.
        let same = read_sharded(&mut &bytes[..], None).unwrap();
        assert_eq!(same.shards(), 2);
        assert_eq!(same.assignment().mate, sh.assignment().mate);
        assert_eq!(same.stats(), sh.stats());
        assert!(
            same.ledger()
                .local_steps_labeled(sparse_alloc_mpc::shard::labels::RESTORE)
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
    fn reserved_sharded_slot_restores_old_values_and_rejects_zero() {
        let g = union_of_spanning_trees(60, 45, 2, 2, 8).graph;
        let updates = churn_stream(&g, 60, &ChurnMix::default(), 3);
        let mut sh = ShardedServeLoop::new(g, ShardedConfig::for_eps(0.25, 2)).unwrap();
        for chunk in updates.chunks(20) {
            sh.apply_batch(chunk).unwrap();
            sh.end_epoch().unwrap();
        }
        let mut bytes = Vec::new();
        write_sharded(&mut sh, &mut bytes).unwrap();
        // The payload's 4th u64 is the reserved slot; re-seal the
        // checksum so only that slot differs.
        let at = HEADER + 3 * 8;
        assert_eq!(bytes[at..at + 8], RESERVED_SLOT.to_le_bytes());
        let patched = |value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let body = b.len() - 8;
            let crc = fnv1a64(&b[..body]).to_le_bytes();
            b[body..].copy_from_slice(&crc);
            b
        };
        // A snapshot written with 4 wave threads restores unchanged.
        let old = patched(4);
        let restored = read_sharded(&mut &old[..], None).unwrap();
        restored.validate().unwrap();
        assert_eq!(restored.assignment().mate, sh.assignment().mate);
        assert_eq!(restored.serial().levels(), sh.serial().levels());
        assert_eq!(restored.stats(), sh.stats());
        assert_eq!(restored.serve_stats(), sh.serve_stats());
        // Live configs never wrote 0: it stays corrupt.
        let zero = patched(0);
        let err = read_sharded(&mut &zero[..], None).unwrap_err();
        assert!(matches!(err, SnapshotError::Invalid(_)), "{err}");
    }

    #[test]
    fn reserved_config_slot_restores_old_values_and_rejects_zero_and_nan() {
        let s = churned_serve();
        let bytes = serial_bytes(&s);
        // The config's 6th word is the reserved slot; re-seal the
        // checksum so only that slot differs.
        let at = HEADER + 5 * 8;
        assert_eq!(bytes[at..at + 8], RESERVED_CONFIG_SLOT.to_le_bytes());
        let patched = |value: f64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let body = b.len() - 8;
            let crc = fnv1a64(&b[..body]).to_le_bytes();
            b[body..].copy_from_slice(&crc);
            b
        };
        // A snapshot written with another compaction threshold restores
        // unchanged.
        let old = patched(0.05);
        let restored = read_serial(&mut &old[..]).unwrap();
        restored.validate().unwrap();
        assert_eq!(restored.assignment().mate, s.assignment().mate);
        assert_eq!(restored.levels(), s.levels());
        assert_eq!(restored.stats(), s.stats());
        assert_eq!(serial_bytes(&restored), bytes);
        // Live configs never wrote 0 or NaN: both stay corrupt.
        for bad in [0.0, f64::NAN] {
            let b = patched(bad);
            let err = read_serial(&mut &b[..]).unwrap_err();
            assert!(matches!(err, SnapshotError::Invalid(_)), "{bad}: {err}");
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
