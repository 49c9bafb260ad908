//! Hermetic binary snapshot framing: a little-endian byte codec plus a
//! checksummed, versioned container.
//!
//! Layout of a snapshot file:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  b"GAUGCKPT"
//!      8     4  format version (u32 LE)
//!     12     8  payload length in bytes (u64 LE)
//!     20     8  FNV-1a 64-bit checksum over the payload (u64 LE)
//!     28     n  payload
//! ```
//!
//! Readers reject bad magic, unknown versions, short files, and checksum
//! mismatches with a typed [`SnapshotError`] — a torn or bit-flipped
//! checkpoint must *never* be half-loaded into a training run.

/// The frame checksum: the one FNV-1a-64 the ingestion log's records use.
pub use graphaug_ingest::fnv1a64;

/// File magic identifying a GraphAug checkpoint.
pub const MAGIC: &[u8; 8] = b"GAUGCKPT";

/// Current snapshot format version. Version 2 added the online-learning
/// cursors (`step_in_epoch`, `log_offset`, `finetunes`) to `TrainState`.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be read (or decoded).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header declares a format version this build cannot read.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file ended before the declared payload did (torn write).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload checksum did not match the header (bit rot / corruption).
    ChecksumMismatch,
    /// The payload decoded to something structurally impossible.
    Malformed(String),
    /// The snapshot is internally consistent but belongs to a different
    /// run (dataset shape, seed, or embedding dimension differ).
    Incompatible(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a GraphAug checkpoint (bad magic)"),
            SnapshotError::BadVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint format v{found} unsupported (this build reads v{supported})"
                )
            }
            SnapshotError::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} payload bytes, got {got}"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            SnapshotError::Malformed(msg) => write!(f, "malformed checkpoint payload: {msg}"),
            SnapshotError::Incompatible(msg) => {
                write!(f, "checkpoint belongs to a different run: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Wraps a payload in the checksummed snapshot frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a framed snapshot and returns the payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 28 {
        if bytes.len() < 8 || &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        return Err(SnapshotError::Truncated {
            expected: 28,
            got: bytes.len(),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let payload = &bytes[28..];
    if payload.len() != len {
        return Err(SnapshotError::Truncated {
            expected: len,
            got: payload.len(),
        });
    }
    if fnv1a64(payload) != checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Little-endian byte sink for payload encoding.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its little-endian bit pattern (bit-exact: NaN
    /// payloads and signed zeros survive the round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f32(v);
        }
    }

    /// Appends a `[u64; 4]` RNG state.
    pub fn put_rng(&mut self, s: [u64; 4]) {
        for w in s {
            self.put_u64(w);
        }
    }
}

/// Little-endian byte cursor for payload decoding. Every read is
/// bounds-checked and fails with [`SnapshotError::Malformed`] instead of
/// panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Malformed(format!(
                "wanted {n} more bytes, had {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.get_u64()? as usize;
        if self.remaining() < n.saturating_mul(4) {
            return Err(SnapshotError::Malformed(format!(
                "f32 slice claims {n} entries but only {} bytes remain",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f32()?);
        }
        Ok(out)
    }

    /// Reads a `[u64; 4]` RNG state.
    pub fn get_rng(&mut self) -> Result<[u64; 4], SnapshotError> {
        Ok([
            self.get_u64()?,
            self.get_u64()?,
            self.get_u64()?,
            self.get_u64()?,
        ])
    }

    /// Asserts the payload is fully consumed (trailing garbage is as
    /// suspicious as missing bytes).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello checkpoint".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), payload.as_slice());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut framed = frame(b"x");
        framed[0] ^= 0xFF;
        assert_eq!(unframe(&framed).unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(unframe(b"short").unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut framed = frame(b"x");
        framed[8] = 99;
        assert_eq!(
            unframe(&framed).unwrap_err(),
            SnapshotError::BadVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn truncation_is_detected() {
        let framed = frame(b"some payload bytes");
        let torn = &framed[..framed.len() - 5];
        assert!(matches!(
            unframe(torn).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
        // Torn inside the header itself.
        assert!(matches!(
            unframe(&framed[..10]).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut framed = frame(b"some payload bytes");
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        assert_eq!(
            unframe(&framed).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn byte_codec_round_trips_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f32(-0.0);
        w.put_f32(f32::NAN);
        w.put_f32_slice(&[1.5, -2.25, 3.125]);
        w.put_rng([1, 2, 3, 4]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.25, 3.125]);
        assert_eq!(r.get_rng().unwrap(), [1, 2, 3, 4]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_short_and_oversized_claims() {
        let mut w = ByteWriter::new();
        w.put_u64(1_000_000); // slice claims a million floats…
        let bytes = w.into_bytes(); // …but provides none
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_f32_vec().unwrap_err(),
            SnapshotError::Malformed(_)
        ));

        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = ByteReader::new(&[0xAA]);
        assert!(matches!(r.finish(), Err(SnapshotError::Malformed(_))));
    }
}
