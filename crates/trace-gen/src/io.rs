//! Binary trace file IO.
//!
//! A simple length-prefixed binary format so traces can be captured once
//! (e.g. a calibrated workload) and replayed by the `trace_replay` example:
//!
//! ```text
//! magic  "IRTR"            (4 bytes)
//! version u32 LE           (4 bytes)
//! count   u64 LE           (8 bytes)
//! records: addr u64 LE | flags u8 (bit0 = write) | gap u32 LE
//! ```
//!
//! Reading validates strictly and reports a typed [`TraceError`] naming
//! the offending byte or record, so a corrupt trace file fails with a
//! diagnosable message instead of feeding garbage into a simulation.

use std::io::{self, Read, Write};

use crate::TraceRecord;

const MAGIC: &[u8; 4] = b"IRTR";
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 13;

/// A malformed or unreadable IRTR trace file.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with the `IRTR` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not one this reader understands.
    BadVersion {
        /// The version field's value.
        found: u32,
    },
    /// The file ends inside the 16-byte header.
    TruncatedHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The file ends inside the record array.
    TruncatedBody {
        /// Zero-based index of the first record not fully present.
        record_index: u64,
        /// Records the header promised.
        expected: u64,
    },
    /// A record's flags byte has bits set that the format does not define.
    BadFlags {
        /// Zero-based index of the offending record.
        record_index: u64,
        /// The flags byte found.
        flags: u8,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace IO error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "bad trace magic {found:02x?} (expected \"IRTR\")")
            }
            TraceError::BadVersion { found } => {
                write!(f, "unsupported trace version {found} (expected {VERSION})")
            }
            TraceError::TruncatedHeader { len } => {
                write!(f, "truncated trace header: {len} of 16 bytes")
            }
            TraceError::TruncatedBody {
                record_index,
                expected,
            } => write!(
                f,
                "truncated trace body: record {record_index} of {expected} is incomplete"
            ),
            TraceError::BadFlags {
                record_index,
                flags,
            } => write!(
                f,
                "record {record_index} has undefined flag bits: {flags:#04x}"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> Self {
        match e {
            TraceError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Serializes `records` to `writer` in the IRTR format.
///
/// # Errors
///
/// Propagates any IO error from `writer`.
pub fn write_trace<W: Write>(mut writer: W, records: &[TraceRecord]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(16 + records.len() * RECORD_BYTES);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in records {
        buf.extend_from_slice(&r.addr.to_le_bytes());
        buf.push(u8::from(r.is_write));
        buf.extend_from_slice(&r.gap.to_le_bytes());
    }
    writer.write_all(&buf)
}

/// Splits the next `N` bytes off the front of `buf` (`None` when fewer
/// remain).
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Reads an IRTR trace from `reader`, validating magic, version, length,
/// and every record's flags byte.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the defect (with the record index for
/// per-record problems), or `TraceError::Io` for reader failures.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Vec<TraceRecord>, TraceError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut buf = raw.as_slice();
    let (Some(magic), Some(version), Some(count)) = (
        take::<4>(&mut buf),
        take::<4>(&mut buf),
        take::<8>(&mut buf),
    ) else {
        return Err(TraceError::TruncatedHeader { len: raw.len() });
    };
    if &magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(version);
    if version != VERSION {
        return Err(TraceError::BadVersion { found: version });
    }
    let count = u64::from_le_bytes(count);
    let have = buf.len() as u64 / RECORD_BYTES as u64;
    if have < count {
        return Err(TraceError::TruncatedBody {
            record_index: have,
            expected: count,
        });
    }
    let mut out = Vec::with_capacity(count as usize);
    for record_index in 0..count {
        let (Some(addr), Some([flags]), Some(gap)) = (
            take::<8>(&mut buf),
            take::<1>(&mut buf),
            take::<4>(&mut buf),
        ) else {
            return Err(TraceError::TruncatedBody {
                record_index,
                expected: count,
            });
        };
        if flags & !1 != 0 {
            return Err(TraceError::BadFlags {
                record_index,
                flags,
            });
        }
        out.push(TraceRecord {
            addr: u64::from_le_bytes(addr),
            is_write: flags & 1 != 0,
            gap: u32::from_le_bytes(gap),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let records = vec![
            TraceRecord::load(0, 5),
            TraceRecord::store(u64::MAX - 1, 0),
            TraceRecord::load(42, u32::MAX),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back, records);
    }

    /// The exact IRTR bytes of a 3-record trace: a change that alters the
    /// encoder and decoder alike still fails here.
    #[test]
    fn three_record_trace_has_golden_bytes() {
        let records = vec![
            TraceRecord::load(0x0123_4567_89AB_CDEF, 7),
            TraceRecord::store(1, 0),
            TraceRecord::load(u64::MAX, u32::MAX),
        ];
        let golden: [u8; 16 + 3 * RECORD_BYTES] = [
            b'I', b'R', b'T', b'R', 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, // header
            0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, 0, 7, 0, 0, 0, // load
            1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, // store
            0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0xFF, 0xFF, 0xFF, 0xFF, // load
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        assert_eq!(buf, golden);
        assert_eq!(read_trace(&golden[..]).unwrap(), records);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { found } if &found == b"NOPE"));
        // The io::Error conversion keeps the diagnosis.
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncation_with_record_index() {
        let records = vec![TraceRecord::load(1, 1); 10];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        buf.truncate(buf.len() - 5);
        match read_trace(&buf[..]).unwrap_err() {
            TraceError::TruncatedBody {
                record_index,
                expected,
            } => {
                assert_eq!(record_index, 9);
                assert_eq!(expected, 10);
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(matches!(
            read_trace(&buf[..8]).unwrap_err(),
            TraceError::TruncatedHeader { len: 8 }
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        buf[4] = 99;
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadVersion { found: 99 }));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_undefined_flag_bits_naming_the_record() {
        let records = vec![TraceRecord::load(1, 1); 4];
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        // Record 2's flags byte: header (16) + 2 records (26) + addr (8).
        buf[16 + 2 * 13 + 8] = 0x82;
        match read_trace(&buf[..]).unwrap_err() {
            TraceError::BadFlags {
                record_index,
                flags,
            } => {
                assert_eq!(record_index, 2);
                assert_eq!(flags, 0x82);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn flipped_count_reads_as_truncation_not_allocation_bomb() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[TraceRecord::load(1, 1)]).unwrap();
        // Corrupt the count field to a huge value.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_trace(&buf[..]).unwrap_err(),
            TraceError::TruncatedBody { .. }
        ));
    }
}
