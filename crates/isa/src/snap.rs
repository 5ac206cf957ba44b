//! Snapshot serialization primitives shared by every crate that
//! contributes state to a checkpoint, and the one record envelope that
//! frames checkpoint files and the result cache alike.
//!
//! A snapshot is a flat byte stream of little-endian scalars and
//! length-prefixed blobs, written by [`SnapWriter`] and read back by
//! [`SnapReader`]. The encoding is deliberately boring: no varints, no
//! alignment padding, no self-description. Determinism is the whole
//! point — the same state must always produce the same bytes, so every
//! `save_snap` implementation is required to emit collections in a
//! canonical (sorted) order.
//!
//! Section tags (`tag`/`expect_tag`) are 4-byte markers sprinkled
//! between major components. They carry no data; they exist so that a
//! reader that has drifted out of sync fails *immediately* with a
//! named section instead of silently misinterpreting downstream bytes.
//!
//! ## One codec per record
//!
//! A persisted outcome record ([`Record`]) describes its encoding once,
//! in one `codec` body that visits every field through a [`Codec`]. A
//! [`SnapWriter`] runs that body by writing each field, a
//! [`SnapReader`] by reading into it, so the writer and the reader of a
//! record cannot disagree.
//!
//! ## The record envelope
//!
//! [`seal`] frames a payload as one self-checking record, and [`open`]
//! verifies and unframes it:
//!
//! ```text
//! magic    4 bytes   names the format (e.g. "RCK1", "RCC1")
//! digest   u64 LE    the record's key
//! len      u32 LE    payload length in bytes
//! payload  [len]
//! check    u64 LE    FxHash over digest || payload
//! ```
//!
//! A torn write, a flipped bit or a zero-length file fails [`open`];
//! none ever yields a shorter valid record.

use std::fmt;
use std::hash::Hasher;

use crate::hash::FxHasher;

/// Error produced when a snapshot byte stream cannot be decoded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapError {
    /// What the reader was trying to decode.
    pub what: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot decode error at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for SnapError {}

/// Serializes state into a deterministic flat byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far, without consuming the writer — used by
    /// writers that seal sections with a checksum over what they just
    /// emitted.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Writes a 4-byte section marker (see module docs).
    pub fn tag(&mut self, t: &[u8; 4]) {
        self.buf.extend_from_slice(t);
    }
}

/// Decodes a byte stream produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, what: impl Into<String>) -> SnapError {
        SnapError {
            what: what.into(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(format!(
                "unexpected end of snapshot reading {what} ({n} bytes wanted, {} left)",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a bool; any byte other than 0/1 is an error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid bool byte {other:#x}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.u32()? as usize;
        let b = self.take(len, "string body")?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("string is not valid UTF-8"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let len = self.u32()? as usize;
        Ok(self.take(len, "byte blob")?.to_vec())
    }

    /// Consumes a 4-byte section marker, failing loudly on mismatch.
    ///
    /// # Errors
    ///
    /// Names both the expected and the found tag, so a desynchronized
    /// stream is diagnosed at the section boundary where it happened.
    pub fn expect_tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        let found = self.take(4, "section tag")?;
        if found != t {
            return Err(self.err(format!(
                "section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(t),
                String::from_utf8_lossy(found)
            )));
        }
        Ok(())
    }
}

/// Most elements a reader preallocates for a sequence: its length
/// prefix is untrusted, so a corrupt one costs at most this much before
/// the reader runs out of bytes.
const SEQ_PREALLOC_CAP: usize = 64;

/// One pass over a record's fields, in either direction: a
/// [`SnapWriter`] writes each visited field, a [`SnapReader`] reads
/// into it (see the module docs). Reading fails on a truncated or
/// corrupt stream; writing never fails.
pub trait Codec {
    /// A 4-byte section marker, checked on read.
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError>;
    /// A little-endian u32.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError>;
    /// A little-endian u64.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError>;
    /// A bool as one byte (0 or 1).
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError>;
    /// A length-prefixed UTF-8 string.
    fn str(&mut self, v: &mut String) -> Result<(), SnapError>;
    /// A length-prefixed byte blob.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError>;

    /// A dense optional value: a presence flag, then the value — or its
    /// default when absent, so the field has one width either way.
    fn opt<T: Default>(
        &mut self,
        v: &mut Option<T>,
        value: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut present = v.is_some();
        self.bool(&mut present)?;
        let mut inner = v.take().unwrap_or_default();
        value(self, &mut inner)?;
        *v = present.then_some(inner);
        Ok(())
    }

    /// A sequence: its u32 length, then each item. A reader fills an
    /// empty `items`, preallocating at most a small cap however large
    /// the length claims to be.
    fn seq<T: Default>(
        &mut self,
        items: &mut Vec<T>,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut len = items.len() as u32;
        self.u32(&mut len)?;
        let len = len as usize;
        items.truncate(len);
        items.reserve(len.saturating_sub(items.len()).min(SEQ_PREALLOC_CAP));
        for i in 0..len {
            if i == items.len() {
                items.push(T::default());
            }
            item(self, &mut items[i])?;
        }
        Ok(())
    }
}

impl Codec for SnapWriter {
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        SnapWriter::tag(self, t);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        SnapWriter::u32(self, *v);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        SnapWriter::u64(self, *v);
        Ok(())
    }

    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        SnapWriter::bool(self, *v);
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> Result<(), SnapError> {
        SnapWriter::str(self, v);
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        SnapWriter::bytes(self, v);
        Ok(())
    }
}

impl Codec for SnapReader<'_> {
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        self.expect_tag(t)
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        SnapReader::u32(self).map(|x| *v = x)
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        SnapReader::u64(self).map(|x| *v = x)
    }

    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        SnapReader::bool(self).map(|x| *v = x)
    }

    fn str(&mut self, v: &mut String) -> Result<(), SnapError> {
        SnapReader::str(self).map(|x| *v = x)
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        SnapReader::bytes(self).map(|x| *v = x)
    }
}

/// A persisted record whose encoding is its one [`Record::codec`] body.
/// Reading fails on a truncated or corrupt stream.
pub trait Record: Clone + Default {
    /// Visits every field, in encoding order.
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError>;

    /// Appends the record to `w`.
    fn save(&self, w: &mut SnapWriter) {
        let written = self.clone().codec(w);
        debug_assert!(written.is_ok(), "writing cannot fail");
    }

    /// Reads one record from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut v = Self::default();
        v.codec(r).map(|()| v)
    }

    /// The record as a standalone byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save(&mut w);
        w.into_bytes()
    }

    /// Reads a standalone byte vector, which must hold exactly one record.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let v = Self::load(&mut r)?;
        if !r.is_exhausted() {
            return Err(r.err("trailing bytes after the record"));
        }
        Ok(v)
    }
}

/// Bytes the envelope adds around a payload (see the module docs).
pub const ENVELOPE_BYTES: usize = 4 + 8 + 4 + 8;

/// The envelope checksum: FxHash over the digest and the payload.
fn checksum(digest: u64, payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(digest);
    h.write(payload);
    h.finish()
}

/// Frames `payload` in one record envelope under `magic` and `digest`.
#[must_use]
pub fn seal(magic: &[u8; 4], digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&digest.to_le_bytes());
    let len = u32::try_from(payload.len()).expect("a record payload fits a u32 length");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(digest, payload).to_le_bytes());
    out
}

/// Opens the envelope at the start of `bytes`: returns its digest, its
/// payload and the bytes after it.
///
/// # Errors
///
/// Fewer bytes than an empty record, another magic, a payload longer
/// than `max_len` or than the bytes left (a torn write), or a checksum
/// mismatch.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    max_len: usize,
) -> Result<(u64, &'a [u8], &'a [u8]), SnapError> {
    let mut r = SnapReader::new(bytes);
    r.expect_tag(magic)?;
    let digest = r.u64()?;
    let len = r.u32()? as usize;
    if len > max_len {
        return Err(r.err(format!("record length {len} exceeds the cap {max_len}")));
    }
    let payload = r.take(len, "record payload")?;
    if r.u64()? != checksum(digest, payload) {
        return Err(r.err("record checksum mismatch (corrupt record)"));
    }
    Ok((digest, payload, &bytes[r.offset()..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.bool(true);
        w.bool(false);
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.expect_tag(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        let e = r.u64().unwrap_err();
        assert!(e.to_string().contains("unexpected end"), "{e}");
    }

    #[test]
    fn tag_mismatch_names_both_tags() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let e = r.expect_tag(b"BBBB").unwrap_err();
        assert!(e.to_string().contains("AAAA"), "{e}");
        assert!(e.to_string().contains("BBBB"), "{e}");
    }

    #[test]
    fn bad_bool_errors() {
        let mut r = SnapReader::new(&[2]);
        assert!(r.bool().is_err());
    }

    #[test]
    fn string_length_beyond_buffer_errors() {
        let mut w = SnapWriter::new();
        w.u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[derive(Clone, Default, PartialEq, Debug)]
    struct Sample {
        n: u64,
        name: String,
        flag: Option<bool>,
        addr: Option<u64>,
        pairs: Vec<(u32, String)>,
    }

    impl Record for Sample {
        fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
            c.tag(b"SMPL")?;
            c.u64(&mut self.n)?;
            c.str(&mut self.name)?;
            c.opt(&mut self.flag, |c, v| c.bool(v))?;
            c.opt(&mut self.addr, |c, v| c.u64(v))?;
            c.seq(&mut self.pairs, |c, (k, v)| {
                c.u32(k)?;
                c.str(v)
            })
        }
    }

    fn sample() -> Sample {
        Sample {
            n: 7,
            name: "seven".into(),
            flag: Some(true),
            addr: None,
            pairs: vec![(1, "one".into()), (2, "two".into())],
        }
    }

    #[test]
    fn one_codec_writes_what_the_writer_methods_write() {
        let mut w = SnapWriter::new();
        w.tag(b"SMPL");
        w.u64(7);
        w.str("seven");
        w.bool(true);
        w.bool(true);
        w.bool(false);
        w.u64(0);
        w.u32(2);
        w.u32(1);
        w.str("one");
        w.u32(2);
        w.str("two");
        assert_eq!(sample().to_bytes(), w.into_bytes());
        assert_eq!(Sample::from_bytes(&sample().to_bytes()), Ok(sample()));
    }

    #[test]
    fn records_reject_every_prefix_and_trailing_bytes() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Sample::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut long = bytes;
        long.push(0);
        let e = Sample::from_bytes(&long).unwrap_err();
        assert!(e.what.contains("trailing"), "{e}");
    }

    #[test]
    fn a_huge_sequence_length_fails_without_preallocating_it() {
        let mut w = SnapWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut items: Vec<u64> = Vec::new();
        let r = SnapReader::new(&bytes).seq(&mut items, Codec::u64);
        assert!(r.is_err());
        assert!(items.capacity() <= SEQ_PREALLOC_CAP);
    }

    #[test]
    fn envelopes_open_to_what_was_sealed() {
        let mut file = seal(b"TEST", 0xABCD, b"payload");
        file.extend(seal(b"TEST", 9, b""));
        assert_eq!(file.len(), 2 * ENVELOPE_BYTES + 7);
        let (digest, payload, rest) = open(&file, b"TEST", 64).unwrap();
        assert_eq!((digest, payload), (0xABCD, &b"payload"[..]));
        let (digest, payload, rest) = open(rest, b"TEST", 64).unwrap();
        assert_eq!((digest, payload, rest), (9, &b""[..], &b""[..]));
        let tail = &file[..ENVELOPE_BYTES + 7];
        assert_eq!(
            &tail[tail.len() - 8..],
            checksum(0xABCD, b"payload").to_le_bytes()
        );
    }

    #[test]
    fn envelopes_reject_prefixes_flips_magic_and_oversize() {
        let file = seal(b"TEST", 0xABCD, b"payload");
        for cut in 0..file.len() {
            assert!(open(&file[..cut], b"TEST", 64).is_err(), "cut {cut}");
        }
        for i in 0..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x01;
            assert!(open(&bad, b"TEST", 64).is_err(), "flip at {i}");
        }
        assert!(open(&file, b"RCK1", 64).is_err());
        assert!(open(&file, b"TEST", 6).is_err());
    }
}
