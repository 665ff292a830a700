//! Crash-consistent snapshot encoding for mid-run simulation state.
//!
//! A snapshot is a single binary blob: a fixed header (magic, format
//! version, configuration fingerprint, slots completed, payload length,
//! checksum) followed by an opaque payload that the simulator layers fill
//! via [`SnapWriter`] and read back via [`SnapReader`]. The codec is
//! hand-rolled and versioned: every field is written explicitly in a fixed
//! order, so the on-disk format is a function of this module's code alone,
//! not of any derive machinery.
//!
//! Durability contract ([`persist`]): the snapshot is written to a
//! temporary sibling file, fsynced, then atomically renamed over the
//! destination. A crash mid-write leaves either the previous complete
//! snapshot or a stray `.tmp` file — never a torn snapshot at the final
//! path. Torn or bit-flipped files are additionally detected on load by
//! the FNV-1a checksum over the header fields and payload, surfacing as a
//! typed [`SnapError`] instead of a panic.

use std::fmt;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"IRORAMCK";

/// Current snapshot format version. Bumped on any layout change; loading a
/// snapshot with a different version is a typed error, never a
/// misinterpretation.
pub const SNAP_VERSION: u32 = 4;

/// Fixed header length: magic + version + fingerprint + slots + len + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// FNV-1a offset basis: the state to start [`fnv1a`] from.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into the 64-bit FNV-1a state `h`. The snapshot checksum
/// and the cell fingerprint that names snapshot and journal entries both
/// use it.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a snapshot could not be written, read, or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Filesystem-level failure (create, write, fsync, rename, read).
    Io(String),
    /// The file is shorter than the structure being decoded claims.
    Truncated,
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file's format version is not [`SNAP_VERSION`].
    BadVersion(u32),
    /// The checksum over header and payload does not match (torn write or
    /// bit flip).
    BadChecksum,
    /// The snapshot was taken under a different configuration fingerprint.
    ConfigMismatch {
        /// Fingerprint the loader expected (current configuration).
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A payload field failed structural validation (the static string
    /// names the field).
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "snapshot format version {v} (supported: {SNAP_VERSION})")
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch (torn or corrupt)"),
            SnapError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#x} does not match configuration {expected:#x}"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Decoded snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version ([`SNAP_VERSION`] for files this build wrote).
    pub version: u32,
    /// Configuration fingerprint the snapshot belongs to.
    pub fingerprint: u64,
    /// Simulation slots completed when the snapshot was taken (progress
    /// marker; the chaos harness polls this to aim its kills).
    pub slots_done: u64,
}

/// Appends snapshot payload fields in a fixed, explicit order.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty payload writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk format is host-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an optional `u64` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Reads snapshot payload fields back in the order they were written.
/// Every accessor is total: malformed input yields a [`SnapError`], never
/// a panic.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapReader<'a> {
    /// A reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        SnapReader { buf: payload }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(SnapError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`].
    pub fn take_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapError::Corrupt("usize out of range"))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn take_bool(&mut self) -> Result<bool, SnapError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte")),
        }
    }

    /// Reads an optional `u64` written by [`SnapWriter::put_opt_u64`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence length, validating that at least `min_elem_bytes`
    /// per element remain — so a bit-flipped length cannot drive an
    /// attempted huge allocation before decoding fails.
    pub fn take_seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.take_usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_seq_len(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| SnapError::Corrupt("utf-8 string"))
    }

    /// Verifies the payload was consumed exactly (a long tail means the
    /// writer and reader disagree about the format).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes"))
        }
    }
}

/// A counter field [`counter_codec!`](crate::counter_codec) can encode: a
/// `u64`, or a length-prefixed `Vec<u64>` of per-level counters.
pub trait Counter: Sized {
    /// Writes the value.
    fn put(&self, w: &mut SnapWriter);
    /// Reads a value written by [`Counter::put`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the payload ends early.
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Counter for u64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_u64()
    }
}

impl Counter for Vec<u64> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for &v in self {
            w.put_u64(v);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_seq_len(8)?;
        (0..n).map(|_| r.take_u64()).collect()
    }
}

/// Gives a struct of [`Counter`] fields its snapshot codec: `save` writes
/// the listed fields in order and `restore` reads them back. `save`
/// destructures the struct without `..`, so a field left off the list is
/// a compile error.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// pub struct Hits {
///     pub reads: u64,
///     pub per_level: Vec<u64>,
/// }
/// iroram_sim_engine::counter_codec!(Hits { reads, per_level });
///
/// let hits = Hits { reads: 3, per_level: vec![1, 2] };
/// let mut w = iroram_sim_engine::SnapWriter::new();
/// hits.save(&mut w);
/// let bytes = w.into_bytes();
/// let mut r = iroram_sim_engine::SnapReader::new(&bytes);
/// assert_eq!(Hits::restore(&mut r), Ok(hits));
/// ```
#[macro_export]
macro_rules! counter_codec {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            /// Writes every counter, in the order its codec lists them, for
            /// a snapshot or a journaled report.
            pub fn save(&self, w: &mut $crate::SnapWriter) {
                let $ty { $($field),+ } = self;
                $($crate::checkpoint::Counter::put($field, w);)+
            }

            /// Reads the counters written by `save`.
            ///
            /// # Errors
            ///
            /// `SnapError::Truncated` if the payload ends early.
            pub fn restore(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty { $($field: $crate::checkpoint::Counter::take(r)?),+ })
            }
        }
    };
}

fn header_checksum(fingerprint: u64, slots_done: u64, payload: &[u8]) -> u64 {
    let mut h = fnv1a(FNV_BASIS, &SNAP_VERSION.to_le_bytes());
    h = fnv1a(h, &fingerprint.to_le_bytes());
    h = fnv1a(h, &slots_done.to_le_bytes());
    h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
    fnv1a(h, payload)
}

/// Frames `payload` as a complete snapshot file image.
pub fn encode_snapshot(fingerprint: u64, slots_done: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&slots_done.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&header_checksum(fingerprint, slots_done, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses and verifies a snapshot file image, returning the header and the
/// checksum-validated payload.
///
/// # Errors
///
/// Any framing defect is a specific [`SnapError`]: wrong magic, unsupported
/// version, short file, or checksum mismatch.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take(8)?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.take_u32()?;
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion(version));
    }
    let fingerprint = r.take_u64()?;
    let slots_done = r.take_u64()?;
    let len = r.take_usize()?;
    let checksum = r.take_u64()?;
    if r.remaining() != len {
        return Err(SnapError::Truncated);
    }
    let payload = r.take(len)?;
    if header_checksum(fingerprint, slots_done, payload) != checksum {
        return Err(SnapError::BadChecksum);
    }
    Ok((
        SnapshotHeader {
            version,
            fingerprint,
            slots_done,
        },
        payload,
    ))
}

/// The sibling a crash-consistent rewrite of `path` goes to first: the
/// file name plus `.tmp`, renamed over `path` once synced.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `payload` as a snapshot at `path`, crash-consistently: the frame
/// goes to a `.tmp` sibling, is fsynced, and is renamed over `path` in one
/// atomic step. Readers of `path` therefore always see a complete frame.
///
/// # Errors
///
/// [`SnapError::Io`] naming the failing step.
pub fn persist(
    path: &Path,
    fingerprint: u64,
    slots_done: u64,
    payload: &[u8],
) -> Result<(), SnapError> {
    let frame = encode_snapshot(fingerprint, slots_done, payload);
    let tmp = temp_path(path);
    let io =
        |step: &str, e: std::io::Error| SnapError::Io(format!("{step} {}: {e}", tmp.display()));
    let mut f = std::fs::File::create(&tmp).map_err(|e| io("create", e))?;
    f.write_all(&frame).map_err(|e| io("write", e))?;
    f.sync_all().map_err(|e| io("fsync", e))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| SnapError::Io(format!("rename to {}: {e}", path.display())))
}

/// Loads and verifies the snapshot at `path`. Returns `Ok(None)` when no
/// snapshot exists there (a fresh run, not an error).
///
/// # Errors
///
/// I/O failures other than absence, and every framing defect from
/// [`decode_snapshot`].
pub fn load(path: &Path) -> Result<Option<(SnapshotHeader, Vec<u8>)>, SnapError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapError::Io(format!("read {}: {e}", path.display()))),
    };
    let (header, payload) = decode_snapshot(&bytes)?;
    Ok(Some((header, payload.to_vec())))
}

/// Reads just the header of the snapshot at `path` (cheap progress poll for
/// the chaos harness). Returns `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// I/O failures other than absence, bad magic, or an unsupported version.
/// The payload checksum is *not* verified here — use [`load`] for that.
pub fn read_header(path: &Path) -> Result<Option<SnapshotHeader>, SnapError> {
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapError::Io(format!("open {}: {e}", path.display()))),
    };
    let mut head = [0u8; HEADER_LEN];
    if let Err(e) = f.read_exact(&mut head) {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            return Err(SnapError::Truncated);
        }
        return Err(SnapError::Io(format!("read {}: {e}", path.display())));
    }
    let mut r = SnapReader::new(&head);
    if r.take(8)? != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.take_u32()?;
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion(version));
    }
    Ok(Some(SnapshotHeader {
        version,
        fingerprint: r.take_u64()?,
        slots_done: r.take_u64()?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_bytes(b"abc");
        w.put_str("path-oram");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        assert_eq!(r.take_str().unwrap(), "path-oram");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = SnapWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_u64(), Err(SnapError::Truncated));
        let mut r = SnapReader::new(&bytes);
        r.take_u32().unwrap();
        assert_eq!(r.take_u8(), Err(SnapError::Truncated));
    }

    #[test]
    fn bogus_lengths_are_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_seq_len(8), Err(SnapError::Truncated));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let bytes = [9u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.take_bool(), Err(SnapError::Corrupt("bool byte")));
    }

    #[test]
    fn snapshot_frame_round_trip() {
        let payload = b"some state".to_vec();
        let frame = encode_snapshot(0xF00D, 42, &payload);
        let (h, p) = decode_snapshot(&frame).unwrap();
        assert_eq!(h.version, SNAP_VERSION);
        assert_eq!(h.fingerprint, 0xF00D);
        assert_eq!(h.slots_done, 42);
        assert_eq!(p, payload.as_slice());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_snapshot(0xF00D, 42, b"state bytes");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncated_frame_is_detected() {
        let frame = encode_snapshot(1, 2, b"payload");
        for cut in 0..frame.len() {
            assert!(decode_snapshot(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut frame = encode_snapshot(1, 2, b"x");
        frame[0] = b'X';
        assert_eq!(decode_snapshot(&frame).unwrap_err(), SnapError::BadMagic);
        let mut frame = encode_snapshot(1, 2, b"x");
        frame[8] = 0xFF;
        assert!(matches!(
            decode_snapshot(&frame).unwrap_err(),
            SnapError::BadVersion(_)
        ));
        // A frame of an older layout is refused by version, never misread:
        // version 3 saved the deferred write-back's requests beside the
        // pipeline's record of the same path.
        const _: () = assert!(SNAP_VERSION > 3);
        for old in 1..SNAP_VERSION {
            let mut frame = encode_snapshot(1, 2, b"x");
            frame[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_snapshot(&frame).unwrap_err(),
                SnapError::BadVersion(old)
            );
        }
    }

    #[test]
    fn persist_load_and_header_poll() {
        let dir = std::env::temp_dir().join(format!("iroram-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        persist(&path, 0xAB, 7, b"hello state").unwrap();
        let (h, p) = load(&path).unwrap().expect("snapshot written");
        assert_eq!((h.fingerprint, h.slots_done), (0xAB, 7));
        assert_eq!(p, b"hello state");
        let h2 = read_header(&path).unwrap().expect("header readable");
        assert_eq!(h2, h);
        // Overwrite in place: persist replaces atomically.
        persist(&path, 0xAB, 9, b"later state").unwrap();
        let (h3, p3) = load(&path).unwrap().unwrap();
        assert_eq!(h3.slots_done, 9);
        assert_eq!(p3, b"later state");
        // Absent file is None, not an error.
        assert_eq!(load(&dir.join("nope.snap")).unwrap(), None);
        assert_eq!(read_header(&dir.join("nope.snap")).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_file_on_disk_is_rejected() {
        let dir = std::env::temp_dir().join(format!("iroram-snapc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.snap");
        persist(&path, 1, 1, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
