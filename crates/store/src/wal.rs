//! The write-ahead log format.
//!
//! Every arrival row is persisted as one fixed-size record **before** the
//! process can acknowledge it, so a crash loses at most what the kernel
//! had not yet reached disk with — and a crash mid-write leaves a *torn*
//! record whose checksum cannot verify. Recovery therefore reads the
//! longest verified prefix and drops the tail, never guessing.
//!
//! ## On-disk layout
//!
//! ```text
//! header  "SWAL" version  base_t  window  k  min_level  streams  crc32
//!           4B      1B      8B      8B    8B     8B        8B     4B
//! record  crc32  row[0] .. row[streams-1]        (repeated to EOF)
//!           4B     8B each, f64 little-endian bits
//! ```
//!
//! The header checksum covers every header byte before it; each record
//! checksum covers that record's row bytes. `base_t` is the number of
//! arrivals already captured by the checkpoint this log extends, which
//! lets recovery chain log generations: replaying `wal-<t>` completely
//! lands exactly on the `base_t` of the next generation.
//!
//! The header repeats the tree configuration so an empty store (no
//! checkpoint written yet) is still recoverable from `wal-0` alone.

use swat_tree::codec::{crc32, CodecError, Cursor};
use swat_tree::SwatConfig;

/// First bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"SWAL";
/// Current WAL format version.
pub const WAL_VERSION: u8 = 1;
/// Serialized header size in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 8 * 5 + 4;

/// The fixed-size header at the start of a WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Arrivals already captured by the checkpoint this log extends.
    pub base_t: u64,
    /// Sliding-window size `N` of the summarized trees.
    pub window: u64,
    /// Coefficients retained per summary.
    pub k: u64,
    /// Reduced-resolution floor (§2.5) the trees were configured with.
    pub min_level: u64,
    /// Streams per row.
    pub streams: u64,
}

impl WalHeader {
    /// Capture the identity of a live store.
    pub fn describe(config: &SwatConfig, streams: usize, base_t: u64) -> WalHeader {
        WalHeader {
            base_t,
            window: config.window() as u64,
            k: config.coefficients() as u64,
            min_level: config.min_level() as u64,
            streams: streams as u64,
        }
    }

    /// Serialize to the fixed [`HEADER_LEN`]-byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(WAL_MAGIC);
        out.push(WAL_VERSION);
        for v in [
            self.base_t,
            self.window,
            self.k,
            self.min_level,
            self.streams,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out
    }

    /// Parse and verify a header from the start of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<WalHeader, CodecError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(4)?;
        if magic != WAL_MAGIC {
            return Err(CodecError::Invalid {
                what: "WAL magic",
                offset: 0,
            });
        }
        let version = c.u8()?;
        if version != WAL_VERSION {
            return Err(CodecError::Invalid {
                what: "WAL version",
                offset: 4,
            });
        }
        let base_t = c.u64()?;
        let window = c.u64()?;
        let k = c.u64()?;
        let min_level = c.u64()?;
        let streams = c.u64()?;
        let crc_at = c.offset();
        let stored = c.u32()?;
        let computed = crc32(&bytes[..crc_at]);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch {
                offset: crc_at,
                stored,
                computed,
            });
        }
        Ok(WalHeader {
            base_t,
            window,
            k,
            min_level,
            streams,
        })
    }

    /// Reconstruct the tree configuration this log was written under, or
    /// a positioned error if the checksummed fields are nonetheless not a
    /// valid configuration (possible only for files we never wrote).
    pub fn config(&self) -> Result<SwatConfig, CodecError> {
        let bad = |what| CodecError::Invalid { what, offset: 5 };
        if self.window > usize::MAX as u64 || self.k > usize::MAX as u64 || self.streams == 0 {
            return Err(bad("WAL stream shape"));
        }
        SwatConfig::with_coefficients(self.window as usize, self.k as usize)
            .and_then(|c| c.with_min_level(self.min_level as usize))
            .map_err(|_| bad("WAL tree configuration"))
    }
}

/// Bytes of one record carrying a row of `streams` values.
pub fn record_len(streams: usize) -> usize {
    4 + 8 * streams
}

/// Append one checksummed record for `row` to `out`.
pub fn encode_record(out: &mut Vec<u8>, row: &[f64]) {
    out.reserve(record_len(row.len()));
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    for &v in row {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let crc = crc32(&out[start + 4..]);
    out[start..start + 4].copy_from_slice(&crc.to_le_bytes());
}

/// The verified prefix of a WAL body (the bytes after the header).
pub struct WalPrefix {
    /// Replayable rows, flattened with stride `streams`.
    pub values: Vec<f64>,
    /// Verified body length in bytes; anything past it is a torn or
    /// corrupt tail that recovery must discard.
    pub verified_len: usize,
}

/// Scan `body` for the longest prefix of whole, checksum-verified, finite
/// records. Scanning stops — without failing — at the first record that
/// is incomplete, fails its checksum, or decodes to a non-finite value,
/// because nothing after an unverifiable record can be trusted to be
/// aligned, let alone intact.
pub fn scan_records(body: &[u8], streams: usize) -> WalPrefix {
    let rlen = record_len(streams);
    let mut values = Vec::new();
    let mut at = 0;
    'records: while body.len() - at >= rlen {
        let stored = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let row = &body[at + 4..at + rlen];
        if crc32(row) != stored {
            break;
        }
        let mark = values.len();
        for s in 0..streams {
            let bits = u64::from_le_bytes(row[8 * s..8 * s + 8].try_into().expect("8 bytes"));
            let v = f64::from_bits(bits);
            if !v.is_finite() {
                values.truncate(mark);
                break 'records;
            }
            values.push(v);
        }
        at += rlen;
    }
    WalPrefix {
        values,
        verified_len: at,
    }
}

/// Streaming verified-prefix reader over a WAL body.
///
/// Recovery of a long-lived stream must not materialize the whole log:
/// this reader pulls the body through a fixed-size chunk buffer, verifies
/// record checksums incrementally, and hands back at most `chunk_rows`
/// rows at a time. The memory high-water mark is one chunk regardless of
/// how large the log grew. Semantics match [`scan_records`] exactly: the
/// first incomplete, corrupt, or non-finite record ends the verified
/// prefix, and a read error is treated as the end of readable data (the
/// tail is dropped, never guessed at).
pub struct WalBodyReader<R: std::io::Read> {
    inner: R,
    streams: usize,
    /// Whole-record-aligned staging buffer (capacity `chunk_rows` records).
    buf: Vec<u8>,
    target: usize,
    verified_len: u64,
    done: bool,
}

impl<R: std::io::Read> WalBodyReader<R> {
    /// A reader delivering up to `chunk_rows` rows per call (minimum 1).
    pub fn new(inner: R, streams: usize, chunk_rows: usize) -> WalBodyReader<R> {
        let target = record_len(streams) * chunk_rows.max(1);
        WalBodyReader {
            inner,
            streams,
            buf: Vec::with_capacity(target),
            target,
            verified_len: 0,
            done: false,
        }
    }

    /// Body bytes verified so far (the caller computes the dropped tail
    /// as `body_len - verified_len` once the reader is exhausted).
    pub fn verified_len(&self) -> u64 {
        self.verified_len
    }

    /// The next chunk of verified rows (flattened with stride `streams`),
    /// or `None` when the verified prefix is exhausted.
    pub fn next_rows(&mut self) -> Option<Vec<f64>> {
        if self.done {
            return None;
        }
        // Top up the staging buffer to one chunk (or EOF / read error).
        let mut eof = false;
        let mut scratch = [0u8; 8192];
        while self.buf.len() < self.target {
            let want = (self.target - self.buf.len()).min(scratch.len());
            match self.inner.read(&mut scratch[..want]) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(_) => {
                    // An unreadable tail is a dropped tail.
                    eof = true;
                    self.done = true;
                    break;
                }
            }
        }
        let prefix = scan_records(&self.buf, self.streams);
        let whole = self.buf.len() / record_len(self.streams) * record_len(self.streams);
        if prefix.verified_len < whole || eof {
            // A record inside the chunk failed verification, or the log
            // ends here (possibly with a torn partial record): nothing
            // after this point can be trusted.
            self.done = true;
        }
        self.verified_len += prefix.verified_len as u64;
        self.buf.drain(..prefix.verified_len);
        if prefix.values.is_empty() {
            self.done = true;
            return None;
        }
        Some(prefix.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> WalHeader {
        let config = SwatConfig::with_coefficients(64, 3)
            .unwrap()
            .with_min_level(2)
            .unwrap();
        WalHeader::describe(&config, 3, 17)
    }

    #[test]
    fn header_roundtrips() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(WalHeader::decode(&bytes).unwrap(), h);
        let config = h.config().unwrap();
        assert_eq!(config.window(), 64);
        assert_eq!(config.coefficients(), 3);
        assert_eq!(config.min_level(), 2);
    }

    #[test]
    fn header_rejects_every_bit_flip_and_truncation() {
        let bytes = header().encode();
        for cut in 0..bytes.len() {
            WalHeader::decode(&bytes[..cut]).unwrap_err();
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                WalHeader::decode(&bad).unwrap_err();
            }
        }
    }

    #[test]
    fn records_roundtrip_and_tail_is_dropped() {
        let rows = [[1.0, -2.5], [3.25, 0.0], [9.0, 1e-3]];
        let mut body = Vec::new();
        for row in &rows {
            encode_record(&mut body, row);
        }
        let full = scan_records(&body, 2);
        assert_eq!(full.verified_len, body.len());
        assert_eq!(full.values, [1.0, -2.5, 3.25, 0.0, 9.0, 1e-3]);

        // A torn final record: the verified prefix is exactly the whole
        // records before it.
        for cut in 0..record_len(2) {
            let torn = &body[..2 * record_len(2) + cut];
            let p = scan_records(torn, 2);
            assert_eq!(p.verified_len, 2 * record_len(2), "cut {cut}");
            assert_eq!(p.values.len(), 4);
        }
    }

    #[test]
    fn any_corrupt_record_ends_the_verified_prefix() {
        let mut body = Vec::new();
        for i in 0..5 {
            encode_record(&mut body, &[i as f64, -(i as f64)]);
        }
        let rlen = record_len(2);
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut bad = body.clone();
                bad[byte] ^= 1 << bit;
                let p = scan_records(&bad, 2);
                let hit = byte / rlen;
                assert_eq!(
                    p.values.len(),
                    2 * hit,
                    "flip at {byte}.{bit} must cut the prefix at record {hit}"
                );
                assert_eq!(p.verified_len, hit * rlen);
            }
        }
    }

    #[test]
    fn body_reader_matches_scan_records_chunk_by_chunk() {
        let mut body = Vec::new();
        for i in 0..100 {
            encode_record(&mut body, &[i as f64, -(i as f64)]);
        }
        // Clean body: all rows, in order, across many small chunks.
        let mut r = WalBodyReader::new(&body[..], 2, 7);
        let mut values = Vec::new();
        while let Some(chunk) = r.next_rows() {
            assert!(chunk.len() <= 7 * 2);
            values.extend(chunk);
        }
        let reference = scan_records(&body, 2);
        assert_eq!(values, reference.values);
        assert_eq!(r.verified_len(), reference.verified_len as u64);

        // A flipped record mid-body ends the prefix at the same point.
        let mut bad = body.clone();
        bad[record_len(2) * 43 + 5] ^= 0x20;
        let mut r = WalBodyReader::new(&bad[..], 2, 7);
        let mut values = Vec::new();
        while let Some(chunk) = r.next_rows() {
            values.extend(chunk);
        }
        assert_eq!(values.len(), 43 * 2);
        assert_eq!(r.verified_len(), (record_len(2) * 43) as u64);

        // A torn final record is dropped.
        let torn = &body[..body.len() - 3];
        let mut r = WalBodyReader::new(torn, 2, 64);
        let mut rows = 0;
        while let Some(chunk) = r.next_rows() {
            rows += chunk.len() / 2;
        }
        assert_eq!(rows, 99);
    }

    #[test]
    fn non_finite_rows_are_rejected_even_with_a_valid_checksum() {
        let mut body = Vec::new();
        encode_record(&mut body, &[1.0, 2.0]);
        encode_record(&mut body, &[f64::NAN, 2.0]);
        encode_record(&mut body, &[3.0, 4.0]);
        let p = scan_records(&body, 2);
        assert_eq!(p.values, [1.0, 2.0]);
        assert_eq!(p.verified_len, record_len(2));
    }
}
