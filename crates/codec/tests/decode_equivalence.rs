//! `Decoder::decode`, which predicts every block straight into the frame
//! and adds only the coded coefficients, against
//! `vrd_codec::decoder::reference::decode`, which builds each block in
//! owned buffers and adds all of them: the same pixels and metadata, or
//! the same error. Where the full decode succeeds, the strict source's
//! anchors must be those pixels too.
//!
//! Hand-built streams reach what the encoder never writes: quantiser 255
//! with residuals that clamp at 0 and at 255, coded values outside the
//! `i16` range (which the decoder wraps), coded zeros, runs and values of
//! one, two and ten bytes, runs written as non-minimal varints, bi blocks,
//! intra blocks in every mode (and unknown ones) at every edge of frames
//! one to four blocks wide, motion vectors
//! leaving the frame, references never decoded, and residuals whose runs
//! overflow the block or whose pairs outrun the stream. Mutated encoder
//! streams cover the rest.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;
use vrd_codec::decoder::reference;
use vrd_codec::{
    CodecConfig, Decoder, Encoder, FrameSource, Standard, StrictFrameSource, UnitPayload,
};
use vrd_video::davis::{davis_sequence, SuiteConfig};

/// Asserts that both decoders agree on `bytes`, and that a successful
/// decode's anchors are what the strict source yields.
fn assert_agree(bytes: &Bytes) {
    let fast = Decoder::new().decode(bytes);
    let slow = reference::decode(bytes);
    match (&fast, &slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast.frames, slow.frames, "pixels differ");
            assert_eq!(fast.metas, slow.metas);
            let mut src = StrictFrameSource::new(bytes).unwrap();
            while let Some(unit) = src.next_unit() {
                if let UnitPayload::Anchor { display, frame } = unit.unwrap().payload {
                    assert_eq!(*frame, slow.frames[display as usize], "anchor {display}");
                }
            }
        }
        (Err(fast), Err(slow)) => assert_eq!(fast, slow),
        _ => panic!("decode {fast:?} but reference {slow:?}"),
    }
}

/// A stream under construction, in the wire format: LEB128 varints,
/// zigzag signed varints.
#[derive(Default)]
struct Stream(Vec<u8>);

impl Stream {
    fn u8(&mut self, b: u8) {
        self.0.push(b);
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    fn svarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// `v` (< 128) as a two-byte varint: legal, but not what the encoder
    /// writes.
    fn long_varint(&mut self, v: u8) {
        self.0.extend([v | 0x80, 0]);
    }

    fn header(&mut self, width: usize, height: usize, n_frames: usize, standard: u8, quant: u8) {
        self.0.extend(b"VRDC");
        self.u8(1);
        for v in [width, height, n_frames] {
            self.varint(v as u64);
        }
        self.u8(standard);
        self.u8(quant);
    }

    fn frame_header(&mut self, ftype: u8, display: u32) {
        self.u8(ftype);
        self.varint(u64::from(display));
    }

    /// A motion vector record: reference frame, then displacement.
    fn mv(&mut self, frame: u32, dx: i64, dy: i64) {
        self.varint(u64::from(frame));
        self.svarint(dx);
        self.svarint(dy);
    }
}

/// A coded residual value: small, large enough to clamp at quantiser 255,
/// zero, outside `i16` (wrapping), or a 64-bit extreme.
fn value(rng: &mut StdRng) -> i64 {
    let sign = if rng.random_range(0u8..2) == 0 { 1 } else { -1 };
    match rng.random_range(0u8..16) {
        0..=7 => sign * rng.random_range(1i64..8),
        8..=10 => sign * rng.random_range(100i64..300),
        11 => 0,
        12 | 13 => sign * rng.random_range(32_768i64..200_000),
        14 => sign * 65_536,
        _ => [i64::MIN, i64::MAX, i64::from(i16::MIN), i64::from(i16::MAX)]
            [rng.random_range(0usize..4)],
    }
}

/// One block's residual of `len` coefficients. With `corrupt > 0`, one
/// block in `corrupt` instead claims more pairs than the block holds or
/// lets its run overflow it.
fn residual(s: &mut Stream, rng: &mut StdRng, len: usize, corrupt: u32) {
    if corrupt > 0 && rng.random_range(0..corrupt) == 0 {
        if rng.random_range(0u8..2) == 0 {
            s.varint(len as u64 + 1);
        } else {
            s.varint(1);
            s.varint(len as u64 + rng.random_range(0u64..300));
            s.svarint(1);
        }
        return;
    }
    let pairs = match rng.random_range(0u8..8) {
        0 => 0,
        1 => rng.random_range(1usize..len + 1),
        _ => rng.random_range(1usize..12),
    };
    s.varint(pairs as u64);
    let mut idx = 0usize;
    for left in (0..pairs).rev() {
        // Leave room for the pairs still to come.
        let room = len - idx - left - 1;
        let run = match rng.random_range(0u8..4) {
            0 => room,
            _ => rng.random_range(0usize..room.min(6) + 1),
        };
        if run < 128 && rng.random_range(0u8..8) == 0 {
            s.long_varint(run as u8);
        } else {
            s.varint(run as u64);
        }
        s.svarint(value(rng));
        idx += run + 1;
    }
}

/// A random hand-built stream (see the module comment). One stream in
/// four may carry a corrupt residual, one in ten a bad reference or a
/// vector leaving the frame.
fn hand_built(seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let (standard, mb) = if rng.random_range(0u8..2) == 0 {
        (0u8, 16usize)
    } else {
        (1u8, 8usize)
    };
    let (bw, bh) = (rng.random_range(1usize..5), rng.random_range(1usize..4));
    let (width, height) = (bw * mb, bh * mb);
    let n_frames = rng.random_range(1usize..5);
    let quant =
        [1u8, 8, 64, 255, 255, rng.random_range(1u16..256) as u8][rng.random_range(0usize..6)];
    let corrupt = if rng.random_range(0u8..4) == 0 {
        rng.random_range(1u32..(bw * bh * n_frames) as u32 + 1)
    } else {
        0
    };
    let wild = rng.random_range(0u8..10) == 0;

    let mut s = Stream::default();
    s.header(width, height, n_frames, standard, quant);
    let mut anchors: Vec<u32> = Vec::new();
    for display in 0..n_frames as u32 {
        // The first frame is an I-frame, the rest P or B; display order is
        // decode order.
        let ftype = if display == 0 {
            0
        } else {
            rng.random_range(1u8..3)
        };
        s.frame_header(ftype, display);
        for by in (0..height).step_by(mb) {
            for bx in (0..width).step_by(mb) {
                let mv = |s: &mut Stream, rng: &mut StdRng| {
                    let frame = if wild && rng.random_range(0u8..8) == 0 {
                        rng.random_range(0u32..n_frames as u32)
                    } else {
                        anchors[rng.random_range(0usize..anchors.len())]
                    };
                    let (dx, dy) = if wild && rng.random_range(0u8..8) == 0 {
                        (rng.random_range(-40i64..40), rng.random_range(-40i64..40))
                    } else {
                        (
                            rng.random_range(0..(width - mb + 1) as i64) - bx as i64,
                            rng.random_range(0..(height - mb + 1) as i64) - by as i64,
                        )
                    };
                    s.mv(frame, dx, dy);
                };
                // Intra modes 14 and 15 are unknown to both standards.
                match rng.random_range(0u8..3) {
                    _ if anchors.is_empty() => {
                        s.u8(0);
                        s.u8(rng.random_range(0u8..16));
                    }
                    0 => {
                        s.u8(0);
                        s.u8(rng.random_range(0u8..16));
                    }
                    1 => {
                        s.u8(1);
                        mv(&mut s, &mut rng);
                    }
                    _ => {
                        s.u8(2);
                        mv(&mut s, &mut rng);
                        mv(&mut s, &mut rng);
                    }
                }
                residual(&mut s, &mut rng, mb * mb, corrupt);
            }
        }
        if ftype != 2 {
            anchors.push(display);
        }
    }
    Bytes::from(s.0)
}

/// A valid encoder stream per standard and quantiser, built once.
fn encoded(which: usize) -> &'static Bytes {
    static STREAMS: OnceLock<Vec<Bytes>> = OnceLock::new();
    let streams = STREAMS.get_or_init(|| {
        let seq = davis_sequence("cows", &SuiteConfig::tiny()).unwrap();
        let mut out = Vec::new();
        for standard in [Standard::H264, Standard::H265] {
            for quant in [1, 8, 64] {
                let cfg = CodecConfig {
                    standard,
                    quant,
                    ..CodecConfig::default()
                };
                out.push(Encoder::new(cfg).encode(&seq.frames).unwrap().bitstream);
            }
        }
        out
    });
    &streams[which % streams.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn hand_built_streams_decode_as_the_reference_does(seed in 0u64..u64::MAX) {
        assert_agree(&hand_built(seed));
    }

    #[test]
    fn mutated_encoder_streams_decode_as_the_reference_does(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = encoded(rng.random_range(0usize..6)).to_vec();
        for _ in 0..rng.random_range(0usize..3) {
            let pos = rng.random_range(0usize..bytes.len());
            match rng.random_range(0u8..3) {
                0 => bytes[pos] ^= 1 << rng.random_range(0u8..8),
                1 => bytes.truncate(pos.max(1)),
                _ => {
                    let end = (pos + rng.random_range(1usize..9)).min(bytes.len());
                    for b in &mut bytes[pos..end] {
                        *b = rng.random_range(0u16..256) as u8;
                    }
                }
            }
        }
        assert_agree(&Bytes::from(bytes));
    }
}

/// A one-frame, one-block H.265 I-frame at quantiser 255 whose residual is
/// written by `residual`; the intra block (DC, no neighbours) predicts 128.
fn one_block(residual: impl FnOnce(&mut Stream)) -> Bytes {
    let mut s = Stream::default();
    s.header(8, 8, 1, 1, 255);
    s.frame_header(0, 0);
    s.u8(0);
    s.u8(0);
    residual(&mut s);
    Bytes::from(s.0)
}

#[test]
fn residuals_clamp_at_both_ends_and_wrap_to_i16() {
    let bits = one_block(|s| {
        s.varint(5);
        for (run, val) in [(0, 1), (0, -1), (0, 65_537), (0, 65_536), (3, -65_537)] {
            s.varint(run);
            s.svarint(val);
        }
    });
    assert_agree(&bits);
    let video = Decoder::new().decode(&bits).unwrap();
    // 128 + 255 and 128 − 255 clamp; 65 537 wraps to 1, 65 536 to 0 (the
    // pixel keeps its prediction) and −65 537 to −1.
    let mut want = [128u8; 64];
    want[..8].copy_from_slice(&[255, 0, 255, 128, 128, 128, 128, 0]);
    assert_eq!(video.frames[0].as_slice(), want);
}

#[test]
fn a_multi_byte_pair_then_a_short_tail_errors_alike() {
    // Three pairs in the six bytes that follow the count pass the
    // two-bytes-per-pair bound, but the first pair takes four of them.
    let bits = one_block(|s| {
        s.varint(3);
        s.long_varint(20);
        s.svarint(-100);
        s.varint(1);
        s.svarint(1);
    });
    for cut in 1..=bits.len() {
        assert_agree(&bits.slice(0..cut));
    }
    let err = Decoder::new().decode(&bits).unwrap_err();
    assert!(err.to_string().contains("end of stream"), "{err}");
}

#[test]
fn every_intra_mode_at_every_edge_decodes_as_the_reference_does() {
    // A 3×3-block I-frame per mode and standard: every block has the same
    // mode, so each mode meets the corner, edge and interior cases.
    for (standard, mb) in [(0u8, 16usize), (1, 8)] {
        for mode in [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 255] {
            let mut s = Stream::default();
            s.header(3 * mb, 3 * mb, 1, standard, 64);
            s.frame_header(0, 0);
            for block in 0..9u64 {
                s.u8(0);
                s.u8(mode);
                s.varint(2);
                s.varint(block);
                s.svarint(block as i64 - 4);
                s.varint(0);
                s.svarint(3);
            }
            assert_agree(&Bytes::from(s.0));
        }
    }
}
