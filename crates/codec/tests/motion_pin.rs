//! B-frame payloads pinned by value: every `Motion` payload
//! `StrictFrameSource` and `ResilientFrameSource` hand over must not move
//! by a record. `decode_pin.rs` pins the anchors' pixels; this file pins
//! the other half of the recognition-mode decode, what the engine reads
//! for a B-frame: its display index, each `MvRecord`'s destination and
//! references, and its intra blocks.
//!
//! The stream: `cows` at 864×480 with the default GOP. The resilient
//! source runs it clean and under a seeded fault pass, whose damaged
//! B-frames come back as salvaged prefixes of their records.

use bytes::Bytes;
use vrd_codec::{
    inject, packetize, CodecConfig, ConcealReason, DecodeOutcome, Encoder, FaultConfig,
    FrameSource, MvRecord, RefMv, ResilientFrameSource, StrictFrameSource, UnitPayload,
};
use vrd_video::davis::{davis_sequence, SuiteConfig};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A word as its little-endian bytes, for folding values into a digest.
fn word(v: u64) -> impl Iterator<Item = u8> {
    v.to_le_bytes().into_iter()
}

/// One reference as words: frame, source x, source y.
fn reference(bytes: &mut Vec<u8>, r: RefMv) {
    for v in [u64::from(r.frame), r.src_x as u64, r.src_y as u64] {
        bytes.extend(word(v));
    }
}

/// One record as words: destination, first reference, then a flag and the
/// second reference when the block is bi-predicted.
fn record(bytes: &mut Vec<u8>, mv: &MvRecord) {
    bytes.extend(word(u64::from(mv.dst_x)).chain(word(u64::from(mv.dst_y))));
    reference(bytes, mv.ref0);
    match mv.ref1 {
        Some(r1) => {
            bytes.extend(word(1));
            reference(bytes, r1);
        }
        None => bytes.extend(word(0)),
    }
}

/// The digest of a source pulled dry: each unit's decode index and outcome
/// (0 ok, 1 a salvaged prefix, 2 otherwise concealed, 3 lost), then a
/// B-frame's display index, record count, records, intra block count and
/// intra blocks. Also returns the B-frames pulled and how many of them
/// were salvaged prefixes.
fn motion_digest(src: &mut impl FrameSource) -> (u64, usize, usize) {
    let (mut bytes, mut b_frames, mut salvaged) = (Vec::new(), 0, 0);
    while let Some(unit) = src.next_unit() {
        let unit = unit.unwrap();
        let outcome = match unit.outcome {
            DecodeOutcome::Ok => 0,
            DecodeOutcome::Concealed(ConcealReason::PartialMvs { .. }) => 1,
            DecodeOutcome::Concealed(_) => 2,
            DecodeOutcome::Lost => 3,
        };
        bytes.extend(word(u64::from(unit.decode_idx)).chain(word(outcome)));
        if let UnitPayload::Motion(info) = &unit.payload {
            b_frames += 1;
            salvaged += usize::from(outcome == 1);
            bytes.extend(word(u64::from(info.display_idx)));
            bytes.extend(word(info.mvs.len() as u64));
            for mv in &info.mvs {
                record(&mut bytes, mv);
            }
            bytes.extend(word(info.intra_blocks.len() as u64));
            for &(x, y) in &info.intra_blocks {
                bytes.extend(word(u64::from(x)).chain(word(u64::from(y))));
            }
        }
    }
    (fnv1a(bytes), b_frames, salvaged)
}

fn hd_default_gop() -> Bytes {
    let suite = SuiteConfig {
        width: 864,
        height: 480,
        frames: 16,
        seed: 0x40f0,
    };
    let seq = davis_sequence("cows", &suite).unwrap();
    let ev = Encoder::new(CodecConfig::default())
        .encode(&seq.frames)
        .unwrap();
    ev.bitstream
}

#[test]
fn hd_default_gop_motion_payloads_are_pinned() {
    let bits = hd_default_gop();
    let (strict, b_frames, _) = motion_digest(&mut StrictFrameSource::new(&bits).unwrap());
    assert!(b_frames > 0, "the stream holds no B-frame");
    let packets = packetize(&bits).unwrap();
    let clean = motion_digest(&mut ResilientFrameSource::new(&packets).unwrap());
    assert_eq!(clean.1, b_frames);
    assert_eq!(clean.2, 0, "a clean stream salvaged a prefix");
    let (damaged, _) = inject(&packets, &FaultConfig::uniform(0.4, 7));
    let (faulted, _, salvaged) = motion_digest(&mut ResilientFrameSource::new(&damaged).unwrap());
    assert!(salvaged > 0, "no salvaged prefix exercised");
    let got = [strict, clean.0, faulted];
    let want = [
        0xf32c_2225_3741_30b0,
        0xf32c_2225_3741_30b0,
        0xcaf2_aa00_ddd0_a339,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
