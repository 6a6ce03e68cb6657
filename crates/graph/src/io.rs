//! Serialization: JSON via serde and a plain-text edge-list format.
//!
//! The text format is line-oriented and diff-friendly, used by the
//! experiment harness to persist generated instances:
//!
//! ```text
//! # sparse-alloc v1
//! n_left n_right
//! c_0 c_1 ... c_{n_right-1}
//! u v          (one edge per line)
//! ```

use std::io::{BufRead, Write};

use crate::bipartite::Bipartite;
use crate::builder::BipartiteBuilder;

/// Errors from the text reader.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the input.
    Parse(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io: {e}"),
            IoError::Parse(msg) => write!(f, "parse: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Serialize `g` in the plain-text edge-list format.
pub fn write_text(g: &Bipartite, w: &mut impl Write) -> Result<(), IoError> {
    writeln!(w, "# sparse-alloc v1")?;
    writeln!(w, "{} {}", g.n_left(), g.n_right())?;
    let caps: Vec<String> = g.capacities().iter().map(|c| c.to_string()).collect();
    writeln!(w, "{}", caps.join(" "))?;
    for (_, u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Parse the plain-text edge-list format.
pub fn read_text(r: &mut impl BufRead) -> Result<Bipartite, IoError> {
    let mut lines = r.lines();
    let header =
        |lines: &mut dyn Iterator<Item = std::io::Result<String>>| -> Result<String, IoError> {
            loop {
                match lines.next() {
                    None => return Err(IoError::Parse("unexpected end of input".into())),
                    Some(Err(e)) => return Err(IoError::Io(e)),
                    Some(Ok(l)) => {
                        let t = l.trim().to_string();
                        if !t.is_empty() && !t.starts_with('#') {
                            return Ok(t);
                        }
                    }
                }
            }
        };

    let sizes = header(&mut lines)?;
    let mut it = sizes.split_whitespace();
    let n_left: usize = it
        .next()
        .ok_or_else(|| IoError::Parse("missing n_left".into()))?
        .parse()
        .map_err(|e| IoError::Parse(format!("n_left: {e}")))?;
    let n_right: usize = it
        .next()
        .ok_or_else(|| IoError::Parse("missing n_right".into()))?
        .parse()
        .map_err(|e| IoError::Parse(format!("n_right: {e}")))?;

    let caps_line = header(&mut lines)?;
    let capacities: Vec<u64> = caps_line
        .split_whitespace()
        .map(|t| t.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| IoError::Parse(format!("capacity: {e}")))?;
    if capacities.len() != n_right {
        return Err(IoError::Parse(format!(
            "expected {n_right} capacities, got {}",
            capacities.len()
        )));
    }

    let mut b = BipartiteBuilder::new(n_left, n_right);
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let u: u32 = parts
            .next()
            .ok_or_else(|| IoError::Parse("edge missing u".into()))?
            .parse()
            .map_err(|e| IoError::Parse(format!("edge u: {e}")))?;
        let v: u32 = parts
            .next()
            .ok_or_else(|| IoError::Parse("edge missing v".into()))?
            .parse()
            .map_err(|e| IoError::Parse(format!("edge v: {e}")))?;
        b.add_edge(u, v);
    }
    b.build(capacities)
        .map_err(|e| IoError::Parse(e.to_string()))
}

/// FNV-1a, 64-bit: the checksum of the binary snapshot format. Chosen for
/// being dependency-free, stable across platforms, and byte-order
/// independent (it consumes bytes, never words) — it detects corruption
/// and truncation, it is *not* a cryptographic integrity guarantee.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian byte sink of the binary snapshot format: fixed-width
/// primitives and `u64`-length-prefixed vectors, written into an
/// in-memory buffer so callers can checksum the finished payload before
/// it reaches a file.
///
/// The encoding has no self-describing structure — [`ByteReader`] must
/// consume fields in exactly the order they were written, which is why
/// every snapshot carries a format version in its header.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one `u32`, little-endian.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append one `u64`, little-endian.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append one `i64`, little-endian.
    pub fn put_i64(&mut self, x: i64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append one `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// Append a `u64` length prefix followed by the items.
    pub fn put_vec_u32(&mut self, xs: &[u32]) {
        self.buf.reserve(8 + 4 * xs.len());
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_u32(x);
        }
    }

    /// Append a `u64` length prefix followed by the items.
    pub fn put_vec_u64(&mut self, xs: &[u64]) {
        self.buf.reserve(8 + 8 * xs.len());
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_u64(x);
        }
    }

    /// Append a `u64` length prefix followed by the items.
    pub fn put_vec_i64(&mut self, xs: &[i64]) {
        self.buf.reserve(8 + 8 * xs.len());
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_i64(x);
        }
    }

    /// Append a `u64` length prefix followed by the raw bytes (nested
    /// payloads, strings).
    pub fn put_bytes(&mut self, xs: &[u8]) {
        self.put_u64(xs.len() as u64);
        self.buf.extend_from_slice(xs);
    }
}

/// Cursor over a [`ByteWriter`]-encoded payload. Every `take_*` verifies
/// the remaining length first, so a truncated or mis-framed payload
/// surfaces as [`IoError::Parse`] instead of a panic; vector reads bound
/// the declared length by the bytes actually present, so a corrupt length
/// prefix cannot trigger an absurd allocation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if self.remaining() < n {
            return Err(IoError::Parse(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read one `u32`, little-endian.
    pub fn take_u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read one `u64`, little-endian.
    pub fn take_u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read one `i64`, little-endian.
    pub fn take_i64(&mut self) -> Result<i64, IoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read one `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, IoError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed count, verifying that `count × elem_bytes`
    /// fits in the unconsumed payload.
    pub fn take_len(&mut self, elem_bytes: usize) -> Result<usize, IoError> {
        let n = self.take_u64()?;
        let need = (n as u128) * elem_bytes.max(1) as u128;
        if need > self.remaining() as u128 {
            return Err(IoError::Parse(format!(
                "length prefix {n} exceeds the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed `u32` vector.
    pub fn take_vec_u32(&mut self) -> Result<Vec<u32>, IoError> {
        let n = self.take_len(4)?;
        (0..n).map(|_| self.take_u32()).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn take_vec_u64(&mut self) -> Result<Vec<u64>, IoError> {
        let n = self.take_len(8)?;
        (0..n).map(|_| self.take_u64()).collect()
    }

    /// Read a length-prefixed `i64` vector.
    pub fn take_vec_i64(&mut self) -> Result<Vec<i64>, IoError> {
        let n = self.take_len(8)?;
        (0..n).map(|_| self.take_i64()).collect()
    }

    /// Read a length-prefixed byte string ([`ByteWriter::put_bytes`]).
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, IoError> {
        let n = self.take_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Require that the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), IoError> {
        if self.remaining() != 0 {
            return Err(IoError::Parse(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Serialize `g` into the binary snapshot encoding: sizes, capacities,
/// then per-left adjacency in CSR order. Deterministic — identical graphs
/// produce identical bytes.
pub fn write_bipartite(g: &Bipartite, w: &mut ByteWriter) {
    w.put_u64(g.n_left() as u64);
    w.put_u64(g.n_right() as u64);
    w.put_vec_u64(g.capacities());
    w.put_u64(g.m() as u64);
    for u in 0..g.n_left() as u32 {
        let ns = g.left_neighbors(u);
        w.put_u32(ns.len() as u32);
        for &v in ns {
            w.put_u32(v);
        }
    }
}

/// Parse a graph from the encoding of [`write_bipartite`], re-validating
/// the structural invariants (the payload is an external input).
pub fn read_bipartite(r: &mut ByteReader) -> Result<Bipartite, IoError> {
    let n_left = r.take_u64()? as usize;
    let n_right = r.take_u64()? as usize;
    let caps = r.take_vec_u64()?;
    if caps.len() != n_right {
        return Err(IoError::Parse(format!(
            "expected {n_right} capacities, got {}",
            caps.len()
        )));
    }
    let m = r.take_u64()? as usize;
    // Bound both counts by the bytes actually present before any
    // allocation: every left contributes ≥ 4 bytes (its degree word) and
    // every edge 4 more, so a corrupt count is a typed error here, not a
    // giant allocation in the builder. (`n_right` is already bounded by
    // the capacity vector length check above.)
    if n_left > u32::MAX as usize {
        return Err(IoError::Parse(format!(
            "left vertex count {n_left} does not fit 32-bit ids"
        )));
    }
    if (n_left as u128 + m as u128) * 4 > r.remaining() as u128 {
        return Err(IoError::Parse(format!(
            "counts (n_left {n_left}, m {m}) exceed the remaining payload"
        )));
    }
    let mut b = BipartiteBuilder::with_edge_capacity(n_left, n_right, m);
    for u in 0..n_left as u32 {
        let deg = r.take_u32()? as usize;
        for _ in 0..deg {
            b.add_edge(u, r.take_u32()?);
        }
    }
    if b.n_edges() != m {
        return Err(IoError::Parse(format!(
            "edge count {m} but {} adjacency entries",
            b.n_edges()
        )));
    }
    let g = b.build(caps).map_err(|e| IoError::Parse(e.to_string()))?;
    g.validate().map_err(IoError::Parse)?;
    Ok(g)
}

/// JSON round-trip helpers (thin wrappers over serde_json, provided so that
/// downstream crates don't need a serde_json dependency of their own).
pub fn to_json(g: &Bipartite) -> String {
    serde_json::to_string(g).expect("Bipartite is serializable")
}

/// Parse a graph from the JSON produced by [`to_json`], re-validating the
/// structural invariants (JSON is an external input).
pub fn from_json(s: &str) -> Result<Bipartite, IoError> {
    let g: Bipartite = serde_json::from_str(s).map_err(|e| IoError::Parse(format!("json: {e}")))?;
    g.validate().map_err(IoError::Parse)?;
    Ok(g)
}

// ------------------------------------------------------------ frame codec

/// Magic prefix of every transport frame (`"SALF"` little-endian).
pub const FRAME_MAGIC: u32 = 0x464c_4153;
/// The frame format version this build writes and the only one it reads.
pub const FRAME_VERSION: u32 = 1;
/// Hard cap on a frame payload: a corrupted length field must bound the
/// allocation it can provoke, not request exabytes.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;
/// Fixed byte length of the frame header (magic, version, src, phase,
/// epoch, seq, payload length).
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8 + 8;

/// Routing metadata of one transport frame.
///
/// The wire layout is fixed-width little-endian, checksummed end to end:
///
/// ```text
/// [ 0.. 4)  magic "SALF"                [ 4.. 8)  format version (u32)
/// [ 8..12)  src machine id (u32)        [12..16)  protocol phase (u32)
/// [16..24)  epoch (u64)                 [24..32)  channel sequence (u64)
/// [32..40)  payload length (u64)        [40.. n)  payload bytes
/// [ n..n+8) FNV-1a-64 over bytes [0..n)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sender machine id (`u32::MAX` conventionally marks a coordinator).
    pub src: u32,
    /// Protocol phase tag; the transport does not interpret it.
    pub phase: u32,
    /// Epoch the frame belongs to.
    pub epoch: u64,
    /// Per-directed-channel sequence number (receivers detect reordering).
    pub seq: u64,
}

/// Why a byte stream is not a well-formed frame. Every corruption mode —
/// short reads, wrong magic, version skew, an absurd length field, a
/// flipped bit anywhere — maps to its own variant; none of them panics.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended before the frame did.
    Truncated {
        /// Bytes the frame needed.
        wanted: usize,
        /// Bytes the stream delivered.
        got: usize,
    },
    /// The first word is not [`FRAME_MAGIC`].
    BadMagic {
        /// The word found instead.
        found: u32,
    },
    /// The frame was written by an unsupported format version.
    Version {
        /// Version recorded in the frame.
        found: u32,
        /// The only version this build reads.
        expected: u32,
    },
    /// The payload length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// Length the frame claimed.
        len: u64,
        /// The cap it violated.
        cap: u64,
    },
    /// The trailing FNV-1a-64 does not match the received bytes.
    Checksum {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum the frame carried.
        found: u64,
    },
    /// Underlying I/O failure while reading from a stream.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { wanted, got } => {
                write!(f, "truncated frame: wanted {wanted} bytes, got {got}")
            }
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            FrameError::Version { found, expected } => {
                write!(f, "frame version {found}, this build reads {expected}")
            }
            FrameError::Oversized { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds the {cap}-byte cap")
            }
            FrameError::Checksum { expected, found } => write!(
                f,
                "frame checksum mismatch: computed {expected:#018x}, carried {found:#018x}"
            ),
            FrameError::Io(e) => write!(f, "frame io: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one frame: header, payload, trailing checksum. The inverse of
/// [`decode_frame`].
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME_PAYLOAD`] — senders own their payload
/// sizes; the cap exists to bound what a *corrupted length field* can
/// demand of a receiver.
pub fn encode_frame(h: &FrameHeader, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= MAX_FRAME_PAYLOAD,
        "frame payload exceeds MAX_FRAME_PAYLOAD"
    );
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&h.src.to_le_bytes());
    out.extend_from_slice(&h.phase.to_le_bytes());
    out.extend_from_slice(&h.epoch.to_le_bytes());
    out.extend_from_slice(&h.seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn header_of(bytes: &[u8; FRAME_HEADER_LEN]) -> Result<(FrameHeader, u64), FrameError> {
    let word_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let word_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let magic = word_u32(0);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = word_u32(4);
    if version != FRAME_VERSION {
        return Err(FrameError::Version {
            found: version,
            expected: FRAME_VERSION,
        });
    }
    let len = word_u64(32);
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized {
            len,
            cap: MAX_FRAME_PAYLOAD,
        });
    }
    Ok((
        FrameHeader {
            src: word_u32(8),
            phase: word_u32(12),
            epoch: word_u64(16),
            seq: word_u64(24),
        },
        len,
    ))
}

/// Decode one frame from a complete in-memory buffer (the loopback
/// transport's receive path). Trailing bytes after the frame are an
/// error: a frame buffer carries exactly one frame.
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, Vec<u8>), FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated {
            wanted: FRAME_HEADER_LEN,
            got: bytes.len(),
        });
    }
    let head: &[u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN].try_into().unwrap();
    let (header, len) = header_of(head)?;
    let total = FRAME_HEADER_LEN + len as usize + 8;
    if bytes.len() < total {
        return Err(FrameError::Truncated {
            wanted: total,
            got: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(FrameError::Truncated {
            wanted: total,
            got: bytes.len(),
        });
    }
    let body = &bytes[..total - 8];
    let carried = u64::from_le_bytes(bytes[total - 8..total].try_into().unwrap());
    let computed = fnv1a64(body);
    if carried != computed {
        return Err(FrameError::Checksum {
            expected: computed,
            found: carried,
        });
    }
    Ok((header, bytes[FRAME_HEADER_LEN..total - 8].to_vec()))
}

/// Read exactly `buf.len()` bytes; distinguish a clean end-of-stream at
/// offset 0 (`Ok(false)`) from a mid-frame truncation (typed error).
fn read_full(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    wanted: usize,
    already: usize,
) -> Result<bool, FrameError> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if already + got == 0 => return Ok(false),
            Ok(k) if k > 0 => got += k,
            Err(e) if e.kind() == Interrupted => {}
            // Before the frame's first byte a read timeout is the caller's
            // to retry; after it, like an end of stream, it tears the frame.
            Err(e) if already + got == 0 || !matches!(e.kind(), WouldBlock | TimedOut) => {
                return Err(FrameError::Io(e))
            }
            _ => {
                return Err(FrameError::Truncated {
                    wanted,
                    got: already + got,
                })
            }
        }
    }
    Ok(true)
}

/// Read one whole frame's bytes from a byte stream, checksum still
/// unverified: the framing half of [`read_frame`], for a reader that
/// hands the bytes to [`decode_frame`] elsewhere. The header is checked
/// before the body is read (magic, version, length cap), so a corrupted
/// length field cannot provoke an unbounded read. A clean end-of-stream
/// at a frame boundary returns `Ok(None)`; ending *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame_bytes(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    if !read_full(r, &mut head, FRAME_HEADER_LEN, 0)? {
        return Ok(None);
    }
    let (_, len) = header_of(&head)?;
    let total = FRAME_HEADER_LEN + len as usize + 8;
    let mut bytes = vec![0u8; total];
    bytes[..FRAME_HEADER_LEN].copy_from_slice(&head);
    read_full(r, &mut bytes[FRAME_HEADER_LEN..], total, FRAME_HEADER_LEN)?;
    Ok(Some(bytes))
}

/// Read one frame from a byte stream (the TCP transport's receive path).
/// A clean end-of-stream at a frame boundary returns `Ok(None)`; ending
/// *inside* a frame is [`FrameError::Truncated`]; every other corruption
/// is its typed variant.
pub fn read_frame(
    r: &mut impl std::io::Read,
) -> Result<Option<(FrameHeader, Vec<u8>)>, FrameError> {
    read_frame_bytes(r)?
        .map(|bytes| decode_frame(&bytes))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::union_of_spanning_trees;

    #[test]
    fn text_roundtrip() {
        let g = union_of_spanning_trees(20, 15, 2, 3, 4).graph;
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text(&mut &buf[..]).unwrap();
        assert_eq!(g.n_left(), g2.n_left());
        assert_eq!(g.n_right(), g2.n_right());
        assert_eq!(g.m(), g2.m());
        assert_eq!(g.capacities(), g2.capacities());
        assert_eq!(g.edge_right_endpoints(), g2.edge_right_endpoints());
    }

    #[test]
    fn json_roundtrip() {
        let g = union_of_spanning_trees(12, 12, 3, 2, 9).graph;
        let s = to_json(&g);
        let g2 = from_json(&s).unwrap();
        assert_eq!(g.m(), g2.m());
        assert_eq!(g.capacities(), g2.capacities());
        g2.validate().unwrap();
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n2 2\n# caps\n3 4\n0 0\n\n# edge\n1 1\n";
        let g = read_text(&mut text.as_bytes()).unwrap();
        assert_eq!(g.n_left(), 2);
        assert_eq!(g.m(), 2);
        assert_eq!(g.capacities(), &[3, 4]);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(read_text(&mut "".as_bytes()).is_err());
        assert!(read_text(&mut "2".as_bytes()).is_err());
        assert!(read_text(&mut "2 2\n1".as_bytes()).is_err()); // wrong cap count
        assert!(read_text(&mut "2 2\n1 1\nx y".as_bytes()).is_err());
        assert!(read_text(&mut "2 2\n1 1\n5 0".as_bytes()).is_err()); // out of range
    }

    #[test]
    fn bad_json_rejected() {
        assert!(from_json("{}").is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn binary_bipartite_roundtrip_is_deterministic() {
        let g = union_of_spanning_trees(25, 18, 3, 2, 11).graph;
        let mut w = ByteWriter::new();
        write_bipartite(&g, &mut w);
        let bytes = w.into_bytes();
        let mut w2 = ByteWriter::new();
        write_bipartite(&g, &mut w2);
        assert_eq!(bytes, w2.into_bytes(), "identical graphs, identical bytes");

        let mut r = ByteReader::new(&bytes);
        let g2 = read_bipartite(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(g.n_left(), g2.n_left());
        assert_eq!(g.capacities(), g2.capacities());
        assert_eq!(g.edge_right_endpoints(), g2.edge_right_endpoints());
    }

    #[test]
    fn byte_reader_rejects_truncation_and_absurd_lengths() {
        let g = union_of_spanning_trees(10, 8, 2, 2, 3).graph;
        let mut w = ByteWriter::new();
        write_bipartite(&g, &mut w);
        let bytes = w.into_bytes();
        // Any strict prefix fails with a parse error, never a panic.
        for cut in [0, 1, 8, 17, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(read_bipartite(&mut r).is_err(), "prefix of {cut} bytes");
        }
        // A corrupt length prefix larger than the payload is rejected
        // before any allocation happens.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let huge = w.into_bytes();
        assert!(ByteReader::new(&huge).take_vec_u64().is_err());
        // Likewise a corrupt vertex count: n_left has no length prefix of
        // its own, so the decoder must bound it against the payload
        // before the builder allocates per-vertex arrays.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX - 7); // n_left
        w.put_u64(0); // n_right
        w.put_vec_u64(&[]); // capacities
        w.put_u64(0); // m
        let bytes = w.into_bytes();
        assert!(read_bipartite(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn fnv_checksum_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let a = fnv1a64(b"snapshot payload");
        let b = fnv1a64(b"snapshot payloae");
        assert_ne!(a, b, "single-byte flip changes the checksum");
    }

    #[test]
    fn byte_writer_primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(0.25);
        w.put_vec_i64(&[-1, 0, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap(), 0.25);
        assert_eq!(r.take_vec_i64().unwrap(), vec![-1, 0, 9]);
        r.expect_end().unwrap();
        assert!(r.take_u32().is_err(), "reading past the end errors");
    }

    fn a_header() -> FrameHeader {
        FrameHeader {
            src: 3,
            phase: 11,
            epoch: 42,
            seq: 7,
        }
    }

    #[test]
    fn frame_roundtrips_through_buffer_and_stream() {
        let payload = b"route batch for shard 3".to_vec();
        let bytes = encode_frame(&a_header(), &payload);
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + payload.len() + 8);

        let (h, p) = decode_frame(&bytes).unwrap();
        assert_eq!(h, a_header());
        assert_eq!(p, payload);

        // Streaming path: two frames back to back, then clean EOF.
        let mut stream = bytes.clone();
        stream.extend_from_slice(&encode_frame(&a_header(), b""));
        let mut r = &stream[..];
        let (h1, p1) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((h1, p1), (a_header(), payload));
        let (_, p2) = read_frame(&mut r).unwrap().unwrap();
        assert!(p2.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn every_frame_prefix_is_a_typed_truncation() {
        let bytes = encode_frame(&a_header(), b"payload");
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
            if cut > 0 {
                // Mid-frame EOF on the stream path, too (cut 0 is a clean
                // end-of-stream, reported as None).
                match read_frame(&mut &bytes[..cut]) {
                    Err(FrameError::Truncated { .. }) => {}
                    other => panic!("stream prefix of {cut} bytes read as {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = encode_frame(&a_header(), b"bits");
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(
                decode_frame(&bad).is_err(),
                "bit flip at {i} went undetected"
            );
        }
    }

    #[test]
    fn version_skew_and_magic_and_oversize_are_typed() {
        let mut bytes = encode_frame(&a_header(), b"x");
        bytes[4..8].copy_from_slice(&(FRAME_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Version { found, expected })
                if found == FRAME_VERSION + 1 && expected == FRAME_VERSION
        ));

        let mut bytes = encode_frame(&a_header(), b"x");
        bytes[0] = 0;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::BadMagic { .. })
        ));

        let mut bytes = encode_frame(&a_header(), b"x");
        bytes[32..40].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn checksum_flip_is_a_checksum_error() {
        let mut bytes = encode_frame(&a_header(), b"checked");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Checksum { .. })
        ));
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::Checksum { .. })
        ));
    }
}
