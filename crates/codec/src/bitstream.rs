//! Bitstream serialisation primitives.
//!
//! A byte-aligned container format with LEB128 varints and a zero-run-length
//! code for quantised residuals. It is deliberately simpler than CABAC but
//! it is a *real* bitstream: the decoder parses exactly these bytes, the
//! compression-ratio statistics come from its length, and the recognition
//! path's "decode I/P only" saving is measured on it.
//!
//! Each macro-block is a [`BlockMode`] record ([`BlockMode::write`] /
//! [`Reader::record`]) followed by its residual
//! ([`Writer::put_residual`] / [`Reader::read_residual`] or
//! [`Reader::skip_residual`]). The readers take one-byte fast paths that
//! [`oracle`]'s byte-at-a-time readers pin in value, end position and
//! error text.

use crate::error::{CodecError, Result};
use crate::types::{BlockMode, BlockMv};
use bytes::{BufMut, Bytes, BytesMut};

/// Magic bytes identifying a VR-DANN codec bitstream.
pub(crate) const MAGIC: [u8; 4] = *b"VRDC";
/// Format version written into every stream.
pub(crate) const VERSION: u8 = 1;

/// Append-only bitstream writer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Writes one byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes an unsigned LEB128 varint.
    pub(crate) fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Writes a signed varint (zigzag encoding).
    pub(crate) fn put_svarint(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a zero-run-length coded residual block.
    ///
    /// Encoding: varint pair count, then for each non-zero coefficient a
    /// (varint zero-run, signed varint value) pair.
    pub(crate) fn put_residual(&mut self, vals: &[i16]) {
        let pairs: Vec<(u64, i16)> = {
            let mut out = Vec::new();
            let mut run = 0u64;
            for &v in vals {
                if v == 0 {
                    run += 1;
                } else {
                    out.push((run, v));
                    run = 0;
                }
            }
            out
        };
        self.put_varint(pairs.len() as u64);
        for (run, v) in pairs {
            self.put_varint(run);
            self.put_svarint(v as i64);
        }
    }

    /// Finalises the stream.
    pub(crate) fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Sequential bitstream reader: a buffer and a read position, every byte
/// read by slice indexing.
///
/// The decoder parses every frame payload through a `Reader<&[u8]>`, a
/// cursor over a borrowed slice with a local position (a whole stream's
/// [`Reader::parse`] hands one out per frame), so no hot loop goes through
/// a shared buffer's handle to reach its bytes.
#[derive(Debug)]
pub(crate) struct Reader<B = Bytes> {
    buf: B,
    pos: usize,
}

/// The signed value of a zigzag-coded varint.
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Continuation bits of a record's bytes 1–3 (an inter record's reference,
/// dx and dy) in a little-endian word of its first eight bytes.
const INTER_CONTINUATIONS: u64 = 0x8080_8000;
/// Continuation bits of a record's bytes 1–6 (a bi record's two
/// `reference, dx, dy` triples).
const BI_CONTINUATIONS: u64 = 0x0080_8080_8080_8000;

impl<B: AsRef<[u8]>> Reader<B> {
    /// Wraps a byte buffer for reading.
    pub(crate) fn new(buf: B) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.as_ref().len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] at end of stream.
    pub(crate) fn get_u8(&mut self) -> Result<u8> {
        let Some(&byte) = self.buf.as_ref().get(self.pos) else {
            return Err(CodecError::Bitstream(
                "unexpected end of stream (0 bytes remaining)".into(),
            ));
        };
        self.pos += 1;
        Ok(byte)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation or a varint longer
    /// than 10 bytes; messages carry the remaining-byte count so corrupt
    /// streams can be located.
    pub(crate) fn get_varint(&mut self) -> Result<u64> {
        // Most varints in a stream (runs, small values, counts) are one
        // byte long.
        if let Some(&byte) = self.buf.as_ref().get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(byte as u64);
            }
        }
        self.get_long_varint()
    }

    /// [`Reader::get_varint`] a byte at a time: a varint of two or more
    /// bytes, or the end of the stream.
    #[inline(never)]
    fn get_long_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Bitstream(format!(
            "varint longer than 10 bytes ({} bytes remaining)",
            self.remaining()
        )))
    }

    /// Reads a varint that must fit in `max` (counts, dimensions, indices).
    ///
    /// An out-of-range value is reported as an error with remaining-byte
    /// context — it is never silently clamped.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation or when the decoded
    /// value exceeds `max`.
    pub(crate) fn get_varint_bounded(&mut self, max: u64, what: &str) -> Result<u64> {
        let v = self.get_varint()?;
        if v > max {
            return Err(CodecError::Bitstream(format!(
                "{what} {v} exceeds limit {max} ({} bytes remaining)",
                self.remaining()
            )));
        }
        Ok(v)
    }

    /// Reads a signed (zigzag) varint.
    ///
    /// # Errors
    /// Propagates [`CodecError::Bitstream`] from the underlying varint.
    pub(crate) fn get_svarint(&mut self) -> Result<i64> {
        self.get_varint().map(unzigzag)
    }

    /// Validates a residual pair count against the block size and the bytes
    /// actually left in the stream (each pair needs at least two bytes), so
    /// a corrupt count fails immediately with context instead of spinning
    /// through the rest of the stream.
    fn check_pairs(&self, pairs: u64, len: usize) -> Result<usize> {
        let remaining = self.remaining() as u64;
        if pairs > len as u64 || pairs * 2 > remaining {
            return Err(CodecError::Bitstream(format!(
                "residual pair count {pairs} impossible for block of {len} \
                 ({remaining} bytes remaining)"
            )));
        }
        Ok(pairs as usize)
    }

    /// The error of a residual run that overflows a `len`-coefficient
    /// block, raised with the reader just past the overflowing pair.
    #[cold]
    fn run_overflow(&self, len: usize) -> CodecError {
        CodecError::Bitstream(format!(
            "residual run overflow past {len} ({} bytes remaining)",
            self.remaining()
        ))
    }

    /// The one residual walker behind [`Reader::read_residual`] and
    /// [`Reader::skip_residual`]: reads and checks the pair count, then
    /// hands each coded coefficient to `sink` as `(index, value)`. With
    /// `CHECK_RUNS` a run that overflows `len` is an error, raised with the
    /// reader just past the pair that overflowed and before `sink` sees it;
    /// without, runs are not checked and the indices mean nothing.
    ///
    /// Fast path: the `2 · pairs` bytes `check_pairs` vouched for are
    /// sliced once, and each pair of one-byte varints among them is read
    /// with no further bounds check. From the first pair holding a
    /// multi-byte varint on, each pair is read on its own: a one-byte run
    /// and value in one bounds-checked step (`check_pairs`' two bytes per
    /// pair no longer hold once a multi-byte pair was read), anything else
    /// through the general readers, which report a truncation.
    #[inline(always)]
    fn walk_residual<const CHECK_RUNS: bool>(
        &mut self,
        len: usize,
        mut sink: impl FnMut(usize, i64),
    ) -> Result<()> {
        let pairs = self.get_varint()?;
        let pairs = self.check_pairs(pairs, len)?;
        let start = self.pos;
        let block = &self.buf.as_ref()[start..start + 2 * pairs];
        let (mut idx, mut read) = (0usize, 0usize);
        for pair in block.chunks_exact(2) {
            let (run, val) = (pair[0], pair[1]);
            if (run | val) & 0x80 != 0 {
                break;
            }
            read += 1;
            idx += run as usize;
            if CHECK_RUNS && idx >= len {
                self.pos = start + 2 * read;
                return Err(self.run_overflow(len));
            }
            sink(idx, unzigzag(val as u64));
            idx += 1;
        }
        self.pos = start + 2 * read;
        for _ in read..pairs {
            let (run, val) = match self.buf.as_ref().get(self.pos..self.pos + 2) {
                Some(&[run, val]) if (run | val) & 0x80 == 0 => {
                    self.pos += 2;
                    (run as u64, unzigzag(val as u64))
                }
                _ => (self.get_varint()?, self.get_svarint()?),
            };
            if CHECK_RUNS {
                match idx.checked_add(run as usize).filter(|&i| i < len) {
                    Some(i) => idx = i,
                    None => return Err(self.run_overflow(len)),
                }
            }
            sink(idx, val);
            idx += 1;
        }
        Ok(())
    }

    /// Reads a residual block of `len` coefficients, handing each coded
    /// (non-skipped) coefficient to `sink` as `(index, value)`. Indices
    /// strictly increase, so no index is handed over twice, and every index
    /// not handed over is zero.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] if the coded runs overflow `len`, the
    /// pair count cannot fit the remaining bytes or the stream ends inside a
    /// pair.
    pub(crate) fn read_residual(&mut self, len: usize, sink: impl FnMut(usize, i64)) -> Result<()> {
        self.walk_residual::<true>(len, sink)
    }

    /// Skips a residual block of a `len`-coefficient block without
    /// materialising it (recognition mode skips B-frame residuals). Its runs
    /// are not checked against `len`.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation or an impossible
    /// pair count.
    pub(crate) fn skip_residual(&mut self, len: usize) -> Result<()> {
        self.walk_residual::<false>(len, |_, _| {})
    }

    /// Parses one macro-block record whose references may name frames
    /// `0..=max_ref` ([`BlockMode::max_reference`]): [`Reader::fast_record`]
    /// where it applies, else [`Reader::read_record`].
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation, an unknown mode byte
    /// or a reference index above `max_ref`.
    #[inline(always)]
    pub(crate) fn record(&mut self, max_ref: u64) -> Result<BlockMode> {
        match self.fast_record(max_ref) {
            Some(record) => Ok(record),
            None => self.read_record(max_ref),
        }
    }

    /// The record fast path: a record whose mode, reference indices and
    /// displacements are each one byte is read from one little-endian word
    /// of the next eight bytes, after that one bounds check. Anything else
    /// (a multi-byte field, an out-of-range reference, an unknown mode,
    /// fewer than eight bytes left) is `None`, with the reader unmoved, and
    /// [`Reader::read_record`] reads it with the same values and end
    /// position.
    #[inline(always)]
    pub(crate) fn fast_record(&mut self, max_ref: u64) -> Option<BlockMode> {
        let head = self.buf.as_ref().get(self.pos..)?.first_chunk::<8>()?;
        let w = u64::from_le_bytes(*head);
        let byte = |i: u32| (w >> (8 * i)) as u8;
        let mv = |i: u32| BlockMv {
            frame: byte(i) as u32,
            dx: unzigzag(byte(i + 1) as u64) as i32,
            dy: unzigzag(byte(i + 2) as u64) as i32,
        };
        let in_range = |i: u32| byte(i) as u64 <= max_ref;
        let (record, len) = match byte(0) {
            0 => (BlockMode::Intra(byte(1)), 2),
            1 if w & INTER_CONTINUATIONS == 0 && in_range(1) => (BlockMode::Inter(mv(1)), 4),
            2 if w & BI_CONTINUATIONS == 0 && in_range(1) && in_range(4) => {
                (BlockMode::Bi(mv(1), mv(4)), 7)
            }
            _ => return None,
        };
        self.pos += len;
        Some(record)
    }

    /// [`Reader::record`] field by field: the mode byte, then the intra
    /// mode byte or one/two `varint frame, svarint dx, svarint dy` motion
    /// vectors.
    #[inline(never)]
    pub(crate) fn read_record(&mut self, max_ref: u64) -> Result<BlockMode> {
        let mv = |r: &mut Self| -> Result<BlockMv> {
            Ok(BlockMv {
                frame: r.get_varint_bounded(max_ref, "reference")? as u32,
                dx: r.get_svarint()? as i32,
                dy: r.get_svarint()? as i32,
            })
        };
        match self.get_u8()? {
            0 => Ok(BlockMode::Intra(self.get_u8()?)),
            1 => Ok(BlockMode::Inter(mv(self)?)),
            2 => Ok(BlockMode::Bi(mv(self)?, mv(self)?)),
            m => Err(CodecError::Bitstream(format!("unknown block mode {m}"))),
        }
    }
}

impl Reader<Bytes> {
    /// Runs `parse` on a cursor over this reader's bytes at its position —
    /// a borrowed slice with a local position — and moves past whatever
    /// `parse` consumed.
    pub(crate) fn parse<T>(&mut self, parse: impl FnOnce(&mut Reader<&[u8]>) -> T) -> T {
        let mut cursor = Reader {
            buf: &self.buf[..],
            pos: self.pos,
        };
        let out = parse(&mut cursor);
        self.pos = cursor.pos;
        out
    }
}

/// The macro-block record codec: a mode byte (`0` intra, `1` inter, `2`
/// bi), then the intra mode byte or one/two `varint frame, svarint dx,
/// svarint dy` motion vectors. [`Reader::record`] parses it.
impl BlockMode {
    /// Serialises the record.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.put_u8(match self {
            BlockMode::Intra(_) => 0,
            BlockMode::Inter(_) => 1,
            BlockMode::Bi(..) => 2,
        });
        if let BlockMode::Intra(mode) = *self {
            w.put_u8(mode);
        }
        for mv in self.mvs() {
            w.put_varint(mv.frame as u64);
            w.put_svarint(mv.dx as i64);
            w.put_svarint(mv.dy as i64);
        }
    }

    /// The highest reference index a record of a stream announcing
    /// `n_frames` frames may name; a frame's walk asks once, not once per
    /// record.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] for a stream of no frames, which
    /// can hold no record.
    pub(crate) fn max_reference(n_frames: usize) -> Result<u64> {
        match n_frames.checked_sub(1) {
            Some(max) => Ok(max as u64),
            None => Err(CodecError::Bitstream(
                "block record in a stream of no frames".into(),
            )),
        }
    }

    /// Parses one record of a stream announcing `n_frames` frames.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation, an unknown mode byte
    /// or a reference index outside `0..n_frames`.
    #[cfg(test)]
    pub(crate) fn read(r: &mut Reader<impl AsRef<[u8]>>, n_frames: usize) -> Result<Self> {
        r.record(Self::max_reference(n_frames)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A displacement: half the time a varint-length or `i32` edge.
    fn displacement(rng: &mut StdRng) -> i32 {
        const EDGES: [i32; 8] = [i32::MIN, -8193, -65, -64, 0, 63, 8192, i32::MAX];
        if rng.random_range(0u8..2) == 0 {
            EDGES[rng.random_range(0usize..EDGES.len())]
        } else {
            rng.random_range(i32::MIN as i64..i32::MAX as i64 + 1) as i32
        }
    }

    proptest! {
        #[test]
        fn block_record_roundtrips_and_bounds_its_references(
            kind in 0u8..3,
            n_frames in 1usize..70_000,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mv = || BlockMv {
                frame: rng.random_range(0usize..n_frames) as u32,
                dx: displacement(&mut rng),
                dy: displacement(&mut rng),
            };
            let record = match kind {
                0 => BlockMode::Intra((seed >> 8) as u8),
                1 => BlockMode::Inter(mv()),
                _ => BlockMode::Bi(mv(), mv()),
            };
            let mut w = Writer::new();
            record.write(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(bytes.clone());
            prop_assert_eq!(BlockMode::read(&mut r, n_frames).unwrap(), record);
            prop_assert_eq!(r.remaining(), 0);
            // The same bytes in a stream too short to hold the record's
            // highest reference: index == frame count is out of range. (A
            // stream of no frames holds no record at all.)
            let highest = record.mvs().map(|mv| mv.frame as usize).max().unwrap_or(0);
            prop_assert!(BlockMode::read(&mut Reader::new(bytes.clone()), highest).is_err());
            // Any mode byte but 0, 1, 2 is rejected whatever follows it.
            let mut bad = bytes.to_vec();
            bad[0] = 3 + (seed % 253) as u8;
            let err = BlockMode::read(&mut Reader::new(Bytes::from(bad)), n_frames).unwrap_err();
            prop_assert!(err.to_string().contains("block mode"), "{err}");
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &values {
            w.put_varint(v);
        }
        let mut r = Reader::new(w.into_bytes());
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn svarint_roundtrip() {
        let mut w = Writer::new();
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &values {
            w.put_svarint(v);
        }
        let mut r = Reader::new(w.into_bytes());
        for &v in &values {
            assert_eq!(r.get_svarint().unwrap(), v);
        }
    }

    /// The dense block `read_residual` describes: each handed-over value
    /// (cut to `i16`, as the decoder applies it) at its index, zero
    /// elsewhere.
    fn read_dense(r: &mut Reader, len: usize) -> Result<Vec<i16>> {
        let mut out = vec![0i16; len];
        r.read_residual(len, |i, v| out[i] = v as i16)?;
        Ok(out)
    }

    #[test]
    fn residual_roundtrip_sparse_and_dense() {
        let sparse: Vec<i16> = {
            let mut v = vec![0i16; 64];
            v[3] = -5;
            v[40] = 17;
            v[63] = 1;
            v
        };
        let dense: Vec<i16> = (0..64).map(|i| (i as i16) - 32).collect();
        for vals in [sparse, dense, vec![0i16; 64]] {
            let mut w = Writer::new();
            w.put_residual(&vals);
            let mut r = Reader::new(w.into_bytes());
            assert_eq!(read_dense(&mut r, 64).unwrap(), vals);
        }
    }

    #[test]
    fn sparse_residual_is_compact() {
        let mut w = Writer::new();
        w.put_residual(&vec![0i16; 256]);
        assert_eq!(w.len(), 1, "all-zero residual should be a single byte");
    }

    #[test]
    fn skip_residual_advances_past_block() {
        let mut w = Writer::new();
        let vals = {
            let mut v = vec![0i16; 64];
            v[10] = 3;
            v
        };
        w.put_residual(&vals);
        w.put_u8(0xAB);
        let mut r = Reader::new(w.into_bytes());
        r.skip_residual(64).unwrap();
        assert_eq!(r.get_u8().unwrap(), 0xAB);
    }

    #[test]
    fn bounded_varint_rejects_out_of_range_with_context() {
        let mut w = Writer::new();
        w.put_varint(5000);
        w.put_u8(0);
        let mut r = Reader::new(w.into_bytes());
        let err = r.get_varint_bounded(4096, "frame width").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("frame width 5000"), "{msg}");
        assert!(msg.contains("exceeds limit 4096"), "{msg}");
        assert!(msg.contains("1 bytes remaining"), "{msg}");
        // In-range values pass through untouched (no clamping).
        let mut w = Writer::new();
        w.put_varint(4096);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(r.get_varint_bounded(4096, "frame width").unwrap(), 4096);
    }

    #[test]
    fn impossible_residual_pair_count_errors_with_remaining_bytes() {
        // Claim 1000 pairs into a 64-coefficient block: rejected up front.
        let mut w = Writer::new();
        w.put_varint(1000);
        let mut r = Reader::new(w.into_bytes());
        let err = read_dense(&mut r, 64).unwrap_err();
        assert!(err.to_string().contains("pair count 1000"), "{err}");
        // Claim more pairs than the remaining bytes can hold: also rejected,
        // for both the materialising and the skipping reader.
        let mut w = Writer::new();
        w.put_varint(30); // 30 pairs need >= 60 bytes; only 2 follow
        w.put_u8(0);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let err = read_dense(&mut Reader::new(bytes.clone()), 64).unwrap_err();
        assert!(err.to_string().contains("bytes remaining"), "{err}");
        assert!(Reader::new(bytes).skip_residual(64).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = Writer::new();
        w.put_varint(1000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(bytes.slice(0..1));
        assert!(r.get_varint().is_err());
        let mut empty = Reader::new(Bytes::new());
        assert!(empty.get_u8().is_err());
    }

    #[test]
    fn residual_run_overflow_is_an_error() {
        let mut w = Writer::new();
        w.put_varint(1); // one pair
        w.put_varint(100); // run of 100 into a 64-length block
        w.put_svarint(5);
        let mut r = Reader::new(w.into_bytes());
        let err = read_dense(&mut r, 64).unwrap_err();
        assert!(err.to_string().contains("run overflow past 64"), "{err}");
    }

    #[test]
    fn residual_sink_sees_increasing_indices_and_unwrapped_values() {
        // Runs and values of one, two and more bytes, values beyond `i16`,
        // and a run written as a non-minimal two-byte varint (`0x81 0x00`
        // is 1), which the decoder accepts like any other.
        let mut w = Writer::new();
        w.put_varint(5);
        for (run, val) in [(0u64, 70_000i64), (130, -1), (3, i64::MIN), (0, 63)] {
            w.put_varint(run);
            w.put_svarint(val);
        }
        w.put_u8(0x81);
        w.put_u8(0x00);
        w.put_svarint(-64);
        let mut r = Reader::new(w.into_bytes());
        let mut seen = Vec::new();
        r.read_residual(256, |i, v| seen.push((i, v))).unwrap();
        assert_eq!(
            seen,
            [
                (0, 70_000),
                (131, -1),
                (135, i64::MIN),
                (136, 63),
                (138, -64)
            ]
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn multi_byte_pair_then_short_tail_errors_without_panicking() {
        // Three pairs in six bytes pass the up-front two-bytes-per-pair
        // bound, but the first pair takes four, leaving nothing for the
        // third (and, cut shorter, one byte for the second): the fast path
        // must not index past the end.
        let mut w = Writer::new();
        w.put_varint(3);
        w.put_varint(200); // two bytes
        w.put_svarint(-100); // two bytes
        w.put_varint(1);
        w.put_svarint(1);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 7);
        for cut in 1..bytes.len() {
            let head = bytes.slice(0..cut);
            assert!(
                read_dense(&mut Reader::new(head.clone()), 256).is_err(),
                "{cut}"
            );
            assert!(Reader::new(head).skip_residual(256).is_err(), "{cut}");
        }
        let err = read_dense(&mut Reader::new(bytes.clone()), 256).unwrap_err();
        assert!(err.to_string().contains("end of stream"), "{err}");
        assert!(Reader::new(bytes).skip_residual(256).is_err());
    }
}

/// The byte-at-a-time readers the fast paths of [`Reader::record`],
/// [`Reader::read_residual`] and [`Reader::skip_residual`] must equal in
/// value, end position and error text: every field read one varint at a
/// time through [`Reader::get_varint`]'s general loop.
#[cfg(test)]
mod oracle {
    use super::*;

    /// A reader over `buf` at `pos`.
    pub(super) struct Oracle<'a> {
        pub(super) buf: &'a [u8],
        pub(super) pos: usize,
    }

    impl Oracle<'_> {
        fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn get_u8(&mut self) -> Result<u8> {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(CodecError::Bitstream(
                    "unexpected end of stream (0 bytes remaining)".into(),
                ));
            };
            self.pos += 1;
            Ok(byte)
        }

        fn get_varint(&mut self) -> Result<u64> {
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let byte = self.get_u8()?;
                v |= ((byte & 0x7f) as u64) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
            }
            Err(CodecError::Bitstream(format!(
                "varint longer than 10 bytes ({} bytes remaining)",
                self.remaining()
            )))
        }

        fn get_svarint(&mut self) -> Result<i64> {
            self.get_varint().map(unzigzag)
        }

        fn pairs(&mut self, len: usize) -> Result<usize> {
            let pairs = self.get_varint()?;
            let remaining = self.remaining() as u64;
            if pairs > len as u64 || pairs * 2 > remaining {
                return Err(CodecError::Bitstream(format!(
                    "residual pair count {pairs} impossible for block of {len} \
                     ({remaining} bytes remaining)"
                )));
            }
            Ok(pairs as usize)
        }

        pub(super) fn read_residual(&mut self, len: usize) -> Result<Vec<(usize, i64)>> {
            let mut out = Vec::new();
            let mut idx = 0usize;
            for _ in 0..self.pairs(len)? {
                let run = self.get_varint()?;
                let val = self.get_svarint()?;
                idx = idx
                    .checked_add(run as usize)
                    .filter(|&i| i < len)
                    .ok_or_else(|| {
                        CodecError::Bitstream(format!(
                            "residual run overflow past {len} ({} bytes remaining)",
                            self.remaining()
                        ))
                    })?;
                out.push((idx, val));
                idx += 1;
            }
            Ok(out)
        }

        pub(super) fn skip_residual(&mut self, len: usize) -> Result<()> {
            for _ in 0..self.pairs(len)? {
                self.get_varint()?;
                self.get_svarint()?;
            }
            Ok(())
        }

        pub(super) fn record(&mut self, n_frames: usize) -> Result<BlockMode> {
            let Some(max) = n_frames.checked_sub(1) else {
                return Err(CodecError::Bitstream(
                    "block record in a stream of no frames".into(),
                ));
            };
            let mv = |r: &mut Self| -> Result<BlockMv> {
                let frame = r.get_varint()?;
                if frame > max as u64 {
                    return Err(CodecError::Bitstream(format!(
                        "reference {frame} exceeds limit {max} ({} bytes remaining)",
                        r.remaining()
                    )));
                }
                Ok(BlockMv {
                    frame: frame as u32,
                    dx: r.get_svarint()? as i32,
                    dy: r.get_svarint()? as i32,
                })
            };
            match self.get_u8()? {
                0 => Ok(BlockMode::Intra(self.get_u8()?)),
                1 => Ok(BlockMode::Inter(mv(self)?)),
                2 => Ok(BlockMode::Bi(mv(self)?, mv(self)?)),
                m => Err(CodecError::Bitstream(format!("unknown block mode {m}"))),
            }
        }
    }
}

#[cfg(test)]
mod fast_path_tests {
    use super::oracle::Oracle;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// One field of a record or residual in one of five shapes: a one-byte
    /// varint, a minimal multi-byte one, a non-minimal one (a small value
    /// with zero continuation bytes), one longer than ten bytes, or any
    /// byte at all.
    fn field(rng: &mut StdRng, out: &mut Vec<u8>) {
        match rng.random_range(0u8..8) {
            0..=3 => out.push(rng.random_range(0u8..0x80)),
            4 => {
                let bits = rng.random_range(8u32..65);
                let v = rng.random_range(0u64..u64::MAX) >> (64 - bits) | 0x80;
                let mut w = Writer::new();
                w.put_varint(v);
                out.extend_from_slice(&w.into_bytes());
            }
            5 => {
                out.push(rng.random_range(0u8..0x80) | 0x80);
                out.extend(std::iter::repeat_n(0x80, rng.random_range(0usize..3)));
                out.push(0);
            }
            6 => {
                out.extend(std::iter::repeat_n(0xff, rng.random_range(10usize..13)));
                out.push(1);
            }
            _ => out.push(rng.random_range(0u16..256) as u8),
        }
    }

    /// `n` fields, each a one-byte varint except, half the time, one that
    /// takes any shape of [`field`], and now and then another: a buffer
    /// that reaches the fast paths and their edges. A field `refs` marks
    /// as a reference is drawn from `0..n_frames + 2` (so just out of range
    /// at times) when it is not the odd one out.
    fn fields(rng: &mut StdRng, n: usize, refs: &[usize], n_frames: usize, out: &mut Vec<u8>) {
        let odd = rng.random_range(0..2 * n.max(1));
        for i in 0..n {
            if i == odd || rng.random_range(0u8..8) == 0 {
                field(rng, out);
            } else if refs.contains(&i) {
                let mut w = Writer::new();
                w.put_varint(rng.random_range(0u64..n_frames as u64 + 2));
                out.extend_from_slice(&w.into_bytes());
            } else {
                out.push(rng.random_range(0u8..0x80));
            }
        }
    }

    /// A buffer of records and residuals: mostly mode 0, 1 or 2 and a
    /// small pair count, fields as [`fields`] makes them, with unknown
    /// modes and any pair count mixed in.
    fn buffer(rng: &mut StdRng, n_frames: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..rng.random_range(1usize..6) {
            let mode = match rng.random_range(0u8..8) {
                0..=5 => rng.random_range(0u8..3),
                _ => rng.random_range(0u16..256) as u8,
            };
            out.push(mode);
            match mode {
                0 => fields(rng, 1, &[], n_frames, &mut out),
                1 => fields(rng, 3, &[0], n_frames, &mut out),
                2 => fields(rng, 6, &[0, 3], n_frames, &mut out),
                _ => fields(rng, 2, &[], n_frames, &mut out),
            }
            match rng.random_range(0u8..4) {
                0 => field(rng, &mut out),
                _ => {
                    let pairs = rng.random_range(0usize..6);
                    out.push(pairs as u8);
                    fields(rng, 2 * pairs, &[], n_frames, &mut out);
                }
            }
        }
        out
    }

    /// What one read returned, as comparable text, and where it left the
    /// reader.
    type Step = (String, usize);

    /// Walks `buf` as alternating records and residuals until the first
    /// error or the end: `read` picks whether residuals are read or
    /// skipped, `len` is the block's coefficient count.
    fn walk_fast(buf: &[u8], n_frames: usize, len: usize, read: bool) -> Vec<Step> {
        let mut r = Reader::new(buf);
        let mut steps = Vec::new();
        while r.remaining() > 0 {
            let rec = BlockMode::max_reference(n_frames).and_then(|max| r.record(max));
            let failed = rec.is_err();
            steps.push((format!("{rec:?}"), r.pos));
            if failed {
                break;
            }
            let res = if read {
                let mut seen = Vec::new();
                r.read_residual(len, |i, v| seen.push((i, v)))
                    .map(|()| seen)
            } else {
                r.skip_residual(len).map(|()| Vec::new())
            };
            let failed = res.is_err();
            steps.push((format!("{res:?}"), r.pos));
            if failed {
                break;
            }
        }
        steps
    }

    /// [`walk_fast`] on the oracle.
    fn walk_oracle(buf: &[u8], n_frames: usize, len: usize, read: bool) -> Vec<Step> {
        let mut r = Oracle { buf, pos: 0 };
        let mut steps = Vec::new();
        while r.pos < buf.len() {
            let rec = r.record(n_frames);
            let failed = rec.is_err();
            steps.push((format!("{rec:?}"), r.pos));
            if failed {
                break;
            }
            let res = if read {
                r.read_residual(len)
            } else {
                r.skip_residual(len).map(|()| Vec::new())
            };
            let failed = res.is_err();
            steps.push((format!("{res:?}"), r.pos));
            if failed {
                break;
            }
        }
        steps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn fast_paths_match_the_byte_at_a_time_oracle(
            seed in 0u64..u64::MAX,
            n_frames in 0usize..300,
            wide in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let buf = buffer(&mut rng, n_frames);
            let len = if wide == 0 { 64 } else { 256 };
            for cut in 0..=buf.len() {
                let head = &buf[..cut];
                for read in [true, false] {
                    prop_assert_eq!(
                        walk_fast(head, n_frames, len, read),
                        walk_oracle(head, n_frames, len, read),
                        "seed {:#x}, cut {} of {:?}, read {}", seed, cut, buf, read
                    );
                }
            }
        }
    }
}
