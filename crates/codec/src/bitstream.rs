//! Bitstream serialisation primitives.
//!
//! A byte-aligned container format with LEB128 varints and a zero-run-length
//! code for quantised residuals. It is deliberately simpler than CABAC but
//! it is a *real* bitstream: the decoder parses exactly these bytes, the
//! compression-ratio statistics come from its length, and the recognition
//! path's "decode I/P only" saving is measured on it.
//!
//! Each macro-block is a [`BlockMode`] record ([`BlockMode::write`] /
//! [`BlockMode::read`]) followed by its residual
//! ([`Writer::put_residual`] / [`Reader::read_residual`] or
//! [`Reader::skip_residual`]).

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

/// Sequential bitstream reader: the buffer and a read position, every byte
/// read by slice indexing.
#[derive(Debug)]
pub(crate) struct Reader {
    buf: Bytes,
    pos: usize,
}

/// The signed value of a zigzag-coded varint.
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl Reader {
    /// Wraps a byte buffer for reading.
    pub(crate) fn new(buf: Bytes) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] at end of stream.
    pub(crate) fn get_u8(&mut self) -> Result<u8> {
        let Some(&byte) = self.buf.get(self.pos) else {
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
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(byte as u64);
            }
        }
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

    /// Reads a residual block of `len` coefficients, handing each coded
    /// (non-skipped) coefficient to `sink` as `(index, value)`. Indices
    /// strictly increase, so no index is handed over twice, and every index
    /// not handed over is zero.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] if the coded runs overflow `len`, the
    /// pair count cannot fit the remaining bytes or the stream ends inside a
    /// pair.
    pub(crate) fn read_residual(
        &mut self,
        len: usize,
        mut sink: impl FnMut(usize, i64),
    ) -> Result<()> {
        let pairs = self.get_varint()?;
        let pairs = self.check_pairs(pairs, len)?;
        let mut idx = 0usize;
        for _ in 0..pairs {
            // Fast path: a one-byte run and a one-byte value. `check_pairs`'
            // two bytes per pair no longer hold once a multi-byte pair was
            // read, so both bytes are bounds-checked here; a short tail
            // falls to the general readers, which report the truncation.
            let (run, val) = match self.buf.get(self.pos..self.pos + 2) {
                Some(&[run, val]) if (run | val) & 0x80 == 0 => {
                    self.pos += 2;
                    (run as u64, unzigzag(val as u64))
                }
                _ => (self.get_varint()?, self.get_svarint()?),
            };
            idx = idx
                .checked_add(run as usize)
                .filter(|&i| i < len)
                .ok_or_else(|| {
                    CodecError::Bitstream(format!(
                        "residual run overflow past {len} ({} bytes remaining)",
                        self.remaining()
                    ))
                })?;
            sink(idx, val);
            idx += 1;
        }
        Ok(())
    }

    /// Skips a residual block of a `len`-coefficient block without
    /// materialising it (recognition mode skips B-frame residuals).
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation or an impossible
    /// pair count.
    pub(crate) fn skip_residual(&mut self, len: usize) -> Result<()> {
        let pairs = self.get_varint()?;
        let pairs = self.check_pairs(pairs, len)?;
        for _ in 0..pairs {
            self.get_varint()?;
            self.get_svarint()?;
        }
        Ok(())
    }
}

/// The macro-block record codec: a mode byte (`0` intra, `1` inter, `2`
/// bi), then the intra mode byte or one/two `varint frame, svarint dx,
/// svarint dy` motion vectors.
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

    /// Parses one record of a stream announcing `n_frames` frames.
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] on truncation, an unknown mode byte
    /// or a reference index outside `0..n_frames`.
    pub(crate) fn read(r: &mut Reader, n_frames: usize) -> Result<Self> {
        // Guarded once up here: the same check inside `mv` measured half
        // again as slow on the B-frame MV-extraction pass.
        let Some(max) = n_frames.checked_sub(1) else {
            return Err(CodecError::Bitstream(
                "block record in a stream of no frames".into(),
            ));
        };
        let mv = |r: &mut Reader| -> Result<BlockMv> {
            Ok(BlockMv {
                frame: r.get_varint_bounded(max as u64, "reference")? as u32,
                dx: r.get_svarint()? as i32,
                dy: r.get_svarint()? as i32,
            })
        };
        match r.get_u8()? {
            0 => Ok(BlockMode::Intra(r.get_u8()?)),
            1 => Ok(BlockMode::Inter(mv(r)?)),
            2 => Ok(BlockMode::Bi(mv(r)?, mv(r)?)),
            m => Err(CodecError::Bitstream(format!("unknown block mode {m}"))),
        }
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
