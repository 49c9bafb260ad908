//! The append-only interaction log.
//!
//! A log is a directory of segment files named `seg-<start:016>.log`,
//! where `<start>` is the global offset (record index) of the segment's
//! first record. Each segment is:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "GAUGILOG"
//! 8       4     format version (u32 LE)
//! 12      8     start offset   (u64 LE)
//! 20      16*k  records
//! ```
//!
//! and each record is:
//!
//! ```text
//! offset  size  field
//! 0       4     user id (u32 LE)
//! 4       4     item id (u32 LE)
//! 8       8     FNV-1a-64 over user‖item‖global-offset (u64 LE)
//! ```
//!
//! Folding the record's *global offset* into the checksum means a record
//! sliced out of one position and replayed at another fails verification —
//! the same idea as the checkpoint frame's checksum, applied per record.
//!
//! Durability: [`LogWriter::append`] writes the record and fsyncs before
//! returning, so once the ingestion server has answered `OK off=N` the
//! interaction survives a crash. On reopen, a torn tail (a partial or
//! checksum-failing suffix of the *last* segment — the only segment a
//! crash can tear) is truncated away; corruption anywhere else is a typed
//! [`IngestError::CorruptRecord`], never silently skipped.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::IngestError;

/// First 8 bytes of every segment file.
pub const LOG_MAGIC: &[u8; 8] = b"GAUGILOG";
/// Segment format version this build writes and reads.
pub const LOG_VERSION: u32 = 1;
/// Fixed segment header size: magic + version + start offset.
pub const SEGMENT_HEADER_BYTES: u64 = 20;
/// Fixed record size: user + item + checksum.
pub const RECORD_BYTES: u64 = 16;

/// FNV-1a 64-bit checksum — tiny, dependency-free, and plenty to catch the
/// torn writes and flipped bytes the log records and the checkpoint frame
/// (`graphaug-runtime::snapshot` re-exports this function) defend against;
/// it is not a cryptographic integrity guarantee.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn io_err<E: std::fmt::Display>(e: E) -> IngestError {
    IngestError::Io(e.to_string())
}

/// The on-disk path of the segment whose first record is `start`.
pub fn segment_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("seg-{start:016}.log"))
}

/// Segments in `dir`, sorted by start offset. Files that do not match the
/// `seg-<16 digits>.log` pattern are ignored (editors, tempfiles).
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, IngestError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(e)),
    };
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(start) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .filter(|digits| digits.len() == 16 && digits.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((start, entry.path()));
    }
    out.sort_unstable();
    Ok(out)
}

fn encode_record(user: u32, item: u32, offset: u64) -> [u8; RECORD_BYTES as usize] {
    let mut rec = [0u8; RECORD_BYTES as usize];
    rec[0..4].copy_from_slice(&user.to_le_bytes());
    rec[4..8].copy_from_slice(&item.to_le_bytes());
    let mut keyed = [0u8; 16];
    keyed[0..8].copy_from_slice(&rec[0..8]);
    keyed[8..16].copy_from_slice(&offset.to_le_bytes());
    rec[8..16].copy_from_slice(&fnv1a64(&keyed).to_le_bytes());
    rec
}

fn decode_record(rec: &[u8], offset: u64) -> Result<(u32, u32), IngestError> {
    let mut keyed = [0u8; 16];
    keyed[0..8].copy_from_slice(&rec[0..8]);
    keyed[8..16].copy_from_slice(&offset.to_le_bytes());
    let want = u64::from_le_bytes(rec[8..16].try_into().unwrap());
    if fnv1a64(&keyed) != want {
        return Err(IngestError::CorruptRecord { offset });
    }
    let user = u32::from_le_bytes(rec[0..4].try_into().unwrap());
    let item = u32::from_le_bytes(rec[4..8].try_into().unwrap());
    Ok((user, item))
}

/// Reads and verifies a segment header, returning its start offset.
fn read_header(file: &mut File, path: &Path) -> Result<u64, IngestError> {
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    file.read_exact(&mut header)
        .map_err(|_| IngestError::TruncatedHeader {
            path: path.display().to_string(),
        })?;
    if &header[0..8] != LOG_MAGIC {
        return Err(IngestError::BadMagic {
            path: path.display().to_string(),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != LOG_VERSION {
        return Err(IngestError::BadVersion {
            found: version,
            supported: LOG_VERSION,
        });
    }
    Ok(u64::from_le_bytes(header[12..20].try_into().unwrap()))
}

/// Verifies the segment chain (headers valid, start offsets contiguous)
/// and returns `(start, path, record_capacity_by_size)` per segment.
/// Record counts are derived from file sizes (floor), so a torn tail on
/// the last segment is *counted generously* here — the writer truncates
/// it on open, and readers fail typed on the bad record.
fn chain(dir: &Path) -> Result<Vec<(u64, PathBuf, u64)>, IngestError> {
    let mut out = Vec::new();
    let mut expected = 0u64;
    for (start, path) in list_segments(dir)? {
        let mut file = File::open(&path).map_err(io_err)?;
        let header_start = read_header(&mut file, &path)?;
        if header_start != start || start != expected {
            return Err(IngestError::SegmentGap {
                expected,
                found: header_start,
            });
        }
        let size = file.metadata().map_err(io_err)?.len();
        let records = size.saturating_sub(SEGMENT_HEADER_BYTES) / RECORD_BYTES;
        expected = start + records;
        out.push((start, path, records));
    }
    Ok(out)
}

/// Records currently in the log (`0` for a missing or empty directory).
/// Read-only: never truncates; a torn final record is still counted until
/// the writer next recovers the directory.
pub fn log_len(dir: &Path) -> Result<u64, IngestError> {
    Ok(chain(dir)?.last().map_or(0, |(start, _, n)| start + n))
}

/// Reads records `[start, end)` with per-record checksum verification.
pub fn read_range(dir: &Path, start: u64, end: u64) -> Result<Vec<(u32, u32)>, IngestError> {
    let segments = chain(dir)?;
    let len = segments.last().map_or(0, |(s, _, n)| s + n);
    if start > end || end > len {
        return Err(IngestError::RangeUnavailable { start, end, len });
    }
    let mut out = Vec::with_capacity((end - start) as usize);
    let mut rec = [0u8; RECORD_BYTES as usize];
    for (seg_start, path, records) in segments {
        let seg_end = seg_start + records;
        if seg_end <= start || seg_start >= end {
            continue;
        }
        let from = start.max(seg_start);
        let to = end.min(seg_end);
        let mut file = File::open(&path).map_err(io_err)?;
        file.seek(SeekFrom::Start(
            SEGMENT_HEADER_BYTES + (from - seg_start) * RECORD_BYTES,
        ))
        .map_err(io_err)?;
        for offset in from..to {
            file.read_exact(&mut rec)
                .map_err(|_| IngestError::CorruptRecord { offset })?;
            out.push(decode_record(&rec, offset)?);
        }
    }
    Ok(out)
}

/// The append side of the log. Exactly one writer owns a log directory at
/// a time (the ingestion daemon); readers use the free functions above.
pub struct LogWriter {
    dir: PathBuf,
    segment_records: u64,
    file: File,
    seg_start: u64,
    len: u64,
    appended: u64,
}

impl LogWriter {
    /// Opens (or creates) the log in `dir`, recovering from a torn tail:
    /// the last segment is scanned record-by-record and truncated at the
    /// first partial or checksum-failing record. Segments rotate after
    /// `segment_records` records (must be ≥ 1).
    pub fn open(dir: &Path, segment_records: u64) -> Result<LogWriter, IngestError> {
        assert!(segment_records >= 1, "segment_records must be >= 1");
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let segments = chain(dir)?;
        let Some(&(seg_start, ref path, _)) = segments.last() else {
            let file = Self::new_segment(dir, 0)?;
            return Ok(LogWriter {
                dir: dir.to_path_buf(),
                segment_records,
                file,
                seg_start: 0,
                len: 0,
                appended: 0,
            });
        };
        // Scan-verify the last segment and truncate the torn tail.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        read_header(&mut file, path)?;
        let size = file.metadata().map_err(io_err)?.len();
        let capacity = size.saturating_sub(SEGMENT_HEADER_BYTES) / RECORD_BYTES;
        let mut good = 0u64;
        let mut rec = [0u8; RECORD_BYTES as usize];
        while good < capacity {
            if file.read_exact(&mut rec).is_err() || decode_record(&rec, seg_start + good).is_err()
            {
                break;
            }
            good += 1;
        }
        let end = SEGMENT_HEADER_BYTES + good * RECORD_BYTES;
        if end != size {
            file.set_len(end).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(end)).map_err(io_err)?;
        Ok(LogWriter {
            dir: dir.to_path_buf(),
            segment_records,
            file,
            seg_start,
            len: seg_start + good,
            appended: 0,
        })
    }

    fn new_segment(dir: &Path, start: u64) -> Result<File, IngestError> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(segment_path(dir, start))
            .map_err(io_err)?;
        let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
        header[0..8].copy_from_slice(LOG_MAGIC);
        header[8..12].copy_from_slice(&LOG_VERSION.to_le_bytes());
        header[12..20].copy_from_slice(&start.to_le_bytes());
        file.write_all(&header).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        Ok(file)
    }

    /// Durably appends one interaction and returns its global offset: the
    /// record is written *and fsync'd* before this returns, so an `OK`
    /// answered off the back of it survives a crash.
    pub fn append(&mut self, user: u32, item: u32) -> Result<u64, IngestError> {
        if self.len - self.seg_start >= self.segment_records {
            self.file.sync_all().map_err(io_err)?;
            self.file = Self::new_segment(&self.dir, self.len)?;
            self.seg_start = self.len;
        }
        let offset = self.len;
        self.file
            .write_all(&encode_record(user, item, offset))
            .map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.len += 1;
        self.appended += 1;
        Ok(offset)
    }

    /// Records in the log (next offset to be assigned).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records appended through *this* writer (excludes recovered ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("graphaug_ingest_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a64_is_pinned() {
        // Both frame formats (`GAUGILOG` records, `GAUGCKPT` frames) hash
        // with this function; files on disk break if its output changes.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trips_across_segments() {
        let dir = tmp("roundtrip");
        let mut w = LogWriter::open(&dir, 4).unwrap();
        let pairs: Vec<(u32, u32)> = (0..10).map(|i| (i, 2 * i + 1)).collect();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(w.append(u, v).unwrap(), i as u64);
        }
        assert_eq!(w.len(), 10);
        // 10 records at 4/segment → segments start at 0, 4, 8.
        let starts: Vec<u64> = list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, vec![0, 4, 8]);
        assert_eq!(log_len(&dir).unwrap(), 10);
        assert_eq!(read_range(&dir, 0, 10).unwrap(), pairs);
        assert_eq!(read_range(&dir, 3, 7).unwrap(), pairs[3..7].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_at_the_same_offset() {
        let dir = tmp("reopen");
        let mut w = LogWriter::open(&dir, 4).unwrap();
        for i in 0..6u32 {
            w.append(i, i).unwrap();
        }
        drop(w);
        let mut w = LogWriter::open(&dir, 4).unwrap();
        assert_eq!(w.len(), 6);
        assert_eq!(w.appended(), 0);
        assert_eq!(w.append(9, 9).unwrap(), 6);
        assert_eq!(read_range(&dir, 5, 7).unwrap(), vec![(5, 5), (9, 9)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp("torn");
        let mut w = LogWriter::open(&dir, 100).unwrap();
        for i in 0..5u32 {
            w.append(i, i).unwrap();
        }
        drop(w);
        // Tear the last record in half.
        let path = segment_path(&dir, 0);
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - RECORD_BYTES / 2).unwrap();
        drop(file);
        let mut w = LogWriter::open(&dir, 100).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w.append(7, 7).unwrap(), 4);
        assert_eq!(
            read_range(&dir, 0, 5).unwrap(),
            vec![(0, 0), (1, 1), (2, 2), (3, 3), (7, 7)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_of_full_length_is_truncated_too() {
        let dir = tmp("garbage");
        let mut w = LogWriter::open(&dir, 100).unwrap();
        for i in 0..3u32 {
            w.append(i, i).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        // A crash can leave a full-length record of garbage: flip a byte
        // in the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let w = LogWriter::open(&dir, 100).unwrap();
        assert_eq!(w.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_read_error() {
        let dir = tmp("midcorrupt");
        let mut w = LogWriter::open(&dir, 100).unwrap();
        for i in 0..4u32 {
            w.append(i, i).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt record 1 (not the tail).
        let at = (SEGMENT_HEADER_BYTES + RECORD_BYTES) as usize;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_range(&dir, 0, 4).unwrap_err(),
            IngestError::CorruptRecord { offset: 1 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_checksum_binds_the_offset() {
        // The same (user, item) payload at two offsets must produce two
        // different checksums, or splicing records between positions
        // would go unnoticed.
        assert_ne!(encode_record(3, 4, 0), encode_record(3, 4, 1));
    }

    #[test]
    fn reads_beyond_the_log_are_typed() {
        let dir = tmp("beyond");
        let mut w = LogWriter::open(&dir, 8).unwrap();
        w.append(0, 0).unwrap();
        assert_eq!(
            read_range(&dir, 0, 2).unwrap_err(),
            IngestError::RangeUnavailable {
                start: 0,
                end: 2,
                len: 1
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_a_chain_gap() {
        let dir = tmp("gap");
        let mut w = LogWriter::open(&dir, 2).unwrap();
        for i in 0..6u32 {
            w.append(i, i).unwrap();
        }
        drop(w);
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        assert_eq!(
            log_len(&dir).unwrap_err(),
            IngestError::SegmentGap {
                expected: 2,
                found: 4
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_is_length_zero() {
        let dir = tmp("absent");
        assert_eq!(log_len(&dir).unwrap(), 0);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(log_len(&dir).unwrap(), 0);
        assert_eq!(read_range(&dir, 0, 0).unwrap(), Vec::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_magic_and_versions_are_rejected() {
        let dir = tmp("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), b"NOTALOGX____________").unwrap();
        assert!(matches!(
            log_len(&dir).unwrap_err(),
            IngestError::BadMagic { .. }
        ));
        let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
        header[0..8].copy_from_slice(LOG_MAGIC);
        header[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(segment_path(&dir, 0), header).unwrap();
        assert_eq!(
            log_len(&dir).unwrap_err(),
            IngestError::BadVersion {
                found: 99,
                supported: LOG_VERSION
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
