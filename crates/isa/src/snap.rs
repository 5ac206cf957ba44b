//! Snapshot serialization primitives shared by every crate that
//! contributes state to a checkpoint, and the one record envelope that
//! frames checkpoint files and the result cache alike.
//!
//! A snapshot is a flat byte stream of little-endian scalars and
//! length-prefixed blobs, written by [`SnapWriter`] and read back by
//! [`SnapReader`]. The encoding is deliberately boring: no varints, no
//! alignment padding, no self-description. Determinism is the whole
//! point — the same state must always produce the same bytes, so every
//! body visits collections in a canonical (sorted) order.
//!
//! Section tags ([`Codec::tag`]) are 4-byte markers sprinkled between
//! major components. They carry no data; they exist so that a reader
//! that has drifted out of sync fails *immediately* with a named
//! section instead of silently misinterpreting downstream bytes.
//!
//! ## One codec body per format
//!
//! Every format is described once, in one `codec` body that visits each
//! field through a [`Codec`]. A [`SnapWriter`] runs that body by
//! writing each field, a [`SnapReader`] by reading into it, so the
//! writer and the reader cannot disagree; the two `Codec` impls are the
//! only place a scalar is written or read. A body checks what it reads
//! where it reads it, and does what only a read must do (rebuilding,
//! clearing) behind [`Codec::reads`].
//!
//! Persisted outcome records ([`Record`]) run their body over a clone
//! when written. Machine state — the functional memory, caches,
//! directory, predictors, LPT and the rest of a checkpoint — runs its
//! body over `&mut self` in both directions, so the write pass of a
//! snapshot clones nothing.
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

/// Serializes state into a deterministic flat byte stream through its
/// [`Codec`] methods.
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

    /// The bytes written so far, without consuming the writer.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Decodes a byte stream produced by [`SnapWriter`] through its
/// [`Codec`] methods.
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

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(self.short(n, what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[cold]
    fn short(&self, n: usize, what: &str) -> SnapError {
        self.fail(format!(
            "unexpected end of snapshot reading {what} ({n} bytes wanted, {} left)",
            self.buf.len() - self.pos
        ))
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SnapError> {
        let b = self.take(N, what)?;
        Ok(b.try_into().expect("take returns N bytes"))
    }
}

/// Most elements a reader preallocates for a sequence: its length
/// prefix is untrusted, so a corrupt one costs at most this much before
/// the reader runs out of bytes.
const SEQ_PREALLOC_CAP: usize = 64;

/// One pass over a value's fields, in either direction: a
/// [`SnapWriter`] writes each visited field, a [`SnapReader`] reads
/// into it (see the module docs). Reading fails on a truncated or
/// corrupt stream; writing never fails.
pub trait Codec {
    /// Whether this pass reads into the visited fields (rather than
    /// writing them): what only a read must do sits behind it.
    fn reads(&self) -> bool;
    /// Bytes written or read so far.
    fn offset(&self) -> usize;
    /// The bytes written or read since offset `start`.
    fn since(&self, start: usize) -> &[u8];

    /// A 4-byte section marker, checked on read.
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError>;
    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError>;
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

    /// A refusal at the current offset.
    fn fail(&self, what: impl Into<String>) -> SnapError {
        SnapError {
            what: what.into(),
            offset: self.offset(),
        }
    }

    /// A usize, stored as a u64.
    #[inline]
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapError> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| self.fail(format!("{wide} exceeds usize")))?;
        Ok(())
    }

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

    /// A sparse optional value: a presence flag, then the value only
    /// when present.
    #[inline]
    fn sparse<T: Default>(
        &mut self,
        v: &mut Option<T>,
        value: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut present = v.is_some();
        self.bool(&mut present)?;
        if !present {
            *v = None;
            return Ok(());
        }
        value(self, v.get_or_insert_with(T::default))
    }

    /// `len` items with no length prefix (the caller stores or knows
    /// the count). A reader grows or cuts `items` to `len`,
    /// preallocating at most a small cap however large `len` claims to
    /// be.
    #[inline]
    fn items<T: Default>(
        &mut self,
        items: &mut Vec<T>,
        len: usize,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
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

    /// A sequence: its u32 length, then its [`Codec::items`].
    fn seq<T: Default>(
        &mut self,
        items: &mut Vec<T>,
        item: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut len = items.len() as u32;
        self.u32(&mut len)?;
        self.items(items, len as usize, item)
    }

    /// A sequence with a u64 length.
    fn seq64<T: Default>(
        &mut self,
        items: &mut Vec<T>,
        item: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut len = items.len();
        self.usize(&mut len)?;
        self.items(items, len, item)
    }
}

impl Codec for SnapWriter {
    #[inline]
    fn reads(&self) -> bool {
        false
    }

    #[inline]
    fn offset(&self) -> usize {
        self.buf.len()
    }

    fn since(&self, start: usize) -> &[u8] {
        &self.buf[start..]
    }

    #[inline]
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        self.buf.extend_from_slice(t);
        Ok(())
    }

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        self.buf.push(*v);
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        self.buf.push(u8::from(*v));
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> Result<(), SnapError> {
        self.u32(&mut (v.len() as u32))?;
        self.buf.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        self.u32(&mut (v.len() as u32))?;
        self.buf.extend_from_slice(v);
        Ok(())
    }
}

impl Codec for SnapReader<'_> {
    #[inline]
    fn reads(&self) -> bool {
        true
    }

    #[inline]
    fn offset(&self) -> usize {
        self.pos
    }

    fn since(&self, start: usize) -> &[u8] {
        &self.buf[start..self.pos]
    }

    /// Names both the expected and the found tag on a mismatch, so a
    /// desynchronized stream is diagnosed at the section boundary where
    /// it happened.
    fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        let found = self.take(4, "section tag")?;
        if found != t {
            return Err(self.fail(format!(
                "section tag mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(t),
                String::from_utf8_lossy(found)
            )));
        }
        Ok(())
    }

    #[inline]
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapError> {
        *v = self.array::<1>("u8")?[0];
        Ok(())
    }

    #[inline]
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapError> {
        *v = u32::from_le_bytes(self.array("u32")?);
        Ok(())
    }

    #[inline]
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapError> {
        *v = u64::from_le_bytes(self.array("u64")?);
        Ok(())
    }

    /// Any byte other than 0/1 is an error.
    #[inline]
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        *v = match self.array::<1>("u8")?[0] {
            0 => false,
            1 => true,
            other => return Err(self.fail(format!("invalid bool byte {other:#x}"))),
        };
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> Result<(), SnapError> {
        let mut len = 0;
        self.u32(&mut len)?;
        let b = self.take(len as usize, "string body")?;
        *v = String::from_utf8(b.to_vec()).map_err(|_| self.fail("string is not valid UTF-8"))?;
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapError> {
        let mut len = 0;
        self.u32(&mut len)?;
        *v = self.take(len as usize, "byte blob")?.to_vec();
        Ok(())
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
            return Err(r.fail("trailing bytes after the record"));
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
    let (mut digest, mut len, mut check) = (0, 0, 0);
    r.tag(magic)?;
    r.u64(&mut digest)?;
    r.u32(&mut len)?;
    let len = len as usize;
    if len > max_len {
        return Err(r.fail(format!("record length {len} exceeds the cap {max_len}")));
    }
    let payload = r.take(len, "record payload")?;
    r.u64(&mut check)?;
    if check != checksum(digest, payload) {
        return Err(r.fail("record checksum mismatch (corrupt record)"));
    }
    Ok((digest, payload, &bytes[r.offset()..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scalar kind, sparse option and sequence width once.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct Scalars {
        byte: u8,
        word: u32,
        wide: u64,
        yes: bool,
        no: bool,
        name: String,
        blob: Vec<u8>,
        count: usize,
        some: Option<u64>,
        none: Option<u64>,
        long: Vec<u32>,
    }

    impl Record for Scalars {
        fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
            c.tag(b"TEST")?;
            c.u8(&mut self.byte)?;
            c.u32(&mut self.word)?;
            c.u64(&mut self.wide)?;
            c.bool(&mut self.yes)?;
            c.bool(&mut self.no)?;
            c.str(&mut self.name)?;
            c.bytes(&mut self.blob)?;
            c.usize(&mut self.count)?;
            c.sparse(&mut self.some, Codec::u64)?;
            c.sparse(&mut self.none, Codec::u64)?;
            c.seq64(&mut self.long, Codec::u32)
        }
    }

    #[test]
    fn round_trip_scalars() {
        let v = Scalars {
            byte: 7,
            word: 0xDEAD_BEEF,
            wide: u64::MAX,
            yes: true,
            no: false,
            name: "hello".into(),
            blob: vec![1, 2, 3],
            count: 9,
            some: Some(5),
            none: None,
            long: vec![4],
        };
        let mut want = b"TEST".to_vec();
        want.push(7);
        want.extend(0xDEAD_BEEF_u32.to_le_bytes());
        want.extend(u64::MAX.to_le_bytes());
        want.extend([1, 0]);
        want.extend(5u32.to_le_bytes());
        want.extend(b"hello");
        want.extend(3u32.to_le_bytes());
        want.extend([1, 2, 3]);
        want.extend(9u64.to_le_bytes());
        want.push(1);
        want.extend(5u64.to_le_bytes());
        want.push(0);
        want.extend(1u64.to_le_bytes());
        want.extend(4u32.to_le_bytes());
        assert_eq!(v.to_bytes(), want);
        assert_eq!(Scalars::from_bytes(&want), Ok(v));
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = SnapWriter::new();
        w.u64(&mut 1).unwrap();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        let e = r.u64(&mut 0).unwrap_err();
        assert!(e.to_string().contains("unexpected end"), "{e}");
    }

    #[test]
    fn tag_mismatch_names_both_tags() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA").unwrap();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let e = r.tag(b"BBBB").unwrap_err();
        assert!(e.to_string().contains("AAAA"), "{e}");
        assert!(e.to_string().contains("BBBB"), "{e}");
    }

    #[test]
    fn bad_bool_errors() {
        let mut r = SnapReader::new(&[2]);
        assert!(r.bool(&mut false).is_err());
    }

    #[test]
    fn string_length_beyond_buffer_errors() {
        let mut w = SnapWriter::new();
        w.u32(&mut 1_000_000).unwrap();
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.str(&mut String::new()).is_err());
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
        let mut want = b"SMPL".to_vec();
        want.extend(7u64.to_le_bytes());
        want.extend(5u32.to_le_bytes());
        want.extend(b"seven");
        // The dense options: flag then value, the default when absent.
        want.extend([1, 1, 0]);
        want.extend(0u64.to_le_bytes());
        want.extend(2u32.to_le_bytes());
        for (k, v) in [(1u32, "one"), (2, "two")] {
            want.extend(k.to_le_bytes());
            want.extend(3u32.to_le_bytes());
            want.extend(v.as_bytes());
        }
        assert_eq!(sample().to_bytes(), want);
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
        w.u32(&mut { u32::MAX }).unwrap();
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
