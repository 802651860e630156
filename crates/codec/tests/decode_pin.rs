//! Decoded pixels pinned by value: every anchor `Decoder::decode`,
//! `StrictFrameSource` and `ResilientFrameSource` reconstruct must not move
//! by a bit. No mask digest or golden covers these pixels (the NN-L oracle
//! reads ground truth, not decoded anchors), so this file is what says a
//! rewrite of the decoder's pixel path changed nothing.
//!
//! The streams: `cows` at 864×480 anchor-only and with the default GOP, and
//! tiny `cows` streams in both standards at quantisers 1, 8 and 64. The
//! resilient source runs each clean and under a seeded fault pass, which
//! makes it predict anchors from substituted references (concealed
//! fetches).

use bytes::Bytes;
use vrd_codec::{
    inject, packetize, BFrameMode, CodecConfig, ConcealReason, DecodeOutcome, Decoder, Encoder,
    FaultConfig, FrameSource, ResilientFrameSource, Standard, StrictFrameSource, UnitPayload,
};
use vrd_video::davis::{davis_sequence, SuiteConfig};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A word as its little-endian bytes, for folding indices into a digest.
fn word(v: u64) -> impl Iterator<Item = u8> {
    v.to_le_bytes().into_iter()
}

/// The digest of a full decode: every frame's display index and pixels.
fn decode_digest(bits: &Bytes) -> u64 {
    let video = Decoder::new().decode(bits).unwrap();
    fnv1a(
        video
            .frames
            .iter()
            .enumerate()
            .flat_map(|(i, f)| word(i as u64).chain(f.as_slice().iter().copied())),
    )
}

/// The digest of a source pulled dry: each unit's decode index and outcome
/// (0 ok, 1 concealed from a substituted reference, 2 otherwise concealed,
/// 3 lost), then an anchor's display index and pixels. Also returns how
/// many anchors were concealed from a substituted reference.
fn source_digest(src: &mut impl FrameSource) -> (u64, usize) {
    let mut bytes = Vec::new();
    let mut substituted = 0;
    while let Some(unit) = src.next_unit() {
        let unit = unit.unwrap();
        let outcome = match unit.outcome {
            DecodeOutcome::Ok => 0,
            DecodeOutcome::Concealed(ConcealReason::MissingReference) => 1,
            DecodeOutcome::Concealed(_) => 2,
            DecodeOutcome::Lost => 3,
        };
        if unit.ftype.is_anchor() && outcome == 1 {
            substituted += 1;
        }
        bytes.extend(word(u64::from(unit.decode_idx)).chain(word(outcome)));
        if let UnitPayload::Anchor { display, frame } = unit.payload {
            bytes.extend(word(u64::from(display)));
            bytes.extend_from_slice(frame.as_slice());
        }
    }
    (fnv1a(bytes), substituted)
}

/// The four digests of one stream: full decode, strict source, resilient
/// source on the clean packets and on the packets after `faults`; and the
/// count of anchors the faulted run concealed from a substituted reference.
fn digests(bits: &Bytes, faults: &FaultConfig) -> ([u64; 4], usize) {
    let strict = source_digest(&mut StrictFrameSource::new(bits).unwrap()).0;
    let packets = packetize(bits).unwrap();
    let clean = source_digest(&mut ResilientFrameSource::new(&packets).unwrap());
    assert_eq!(clean.1, 0, "a clean stream substituted a reference");
    let (damaged, _) = inject(&packets, faults);
    let (faulted, substituted) = source_digest(&mut ResilientFrameSource::new(&damaged).unwrap());
    ([decode_digest(bits), strict, clean.0, faulted], substituted)
}

fn encode(width: usize, height: usize, frames: usize, cfg: CodecConfig) -> Bytes {
    let suite = SuiteConfig {
        width,
        height,
        frames,
        seed: 0x40f0,
    };
    let seq = davis_sequence("cows", &suite).unwrap();
    Encoder::new(cfg).encode(&seq.frames).unwrap().bitstream
}

#[test]
fn hd_anchor_only_pixels_are_pinned() {
    let cfg = CodecConfig {
        b_frames: BFrameMode::Fixed(0),
        ..CodecConfig::default()
    };
    let bits = encode(864, 480, 12, cfg);
    let (got, substituted) = digests(&bits, &FaultConfig::uniform(0.4, 7));
    assert!(substituted > 0, "no concealed fetch exercised");
    let want = [
        0x1dfd_b63d_41b4_7515,
        0xebc5_6957_29bb_e755,
        0xebc5_6957_29bb_e755,
        0xa511_adcc_29b3_f1a5,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn hd_default_gop_pixels_are_pinned() {
    let bits = encode(864, 480, 16, CodecConfig::default());
    let (got, substituted) = digests(&bits, &FaultConfig::uniform(0.4, 7));
    assert!(substituted > 0, "no concealed fetch exercised");
    let want = [
        0x6506_541f_8916_ed1e,
        0x46d2_0086_835c_9033,
        0x46d2_0086_835c_9033,
        0xec77_86a7_c28d_973c,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn tiny_pixels_in_both_standards_and_three_quantisers_are_pinned() {
    let mut got = Vec::new();
    for standard in [Standard::H264, Standard::H265] {
        for quant in [1, 8, 64] {
            let cfg = CodecConfig {
                standard,
                quant,
                ..CodecConfig::default()
            };
            let bits = encode(64, 48, 16, cfg);
            let (d, substituted) = digests(&bits, &FaultConfig::uniform(0.5, 4));
            assert!(
                substituted > 0,
                "{standard} q{quant}: no concealed fetch exercised"
            );
            got.push(d);
        }
    }
    // At quantiser 1 the residual restores the source exactly, so both
    // standards decode the same pixels until a fault substitutes a
    // reference.
    let want = [
        [
            0x1a4e_4093_6178_e240,
            0x3705_ab7f_1f6f_f8cc,
            0x3705_ab7f_1f6f_f8cc,
            0x5975_d083_e297_3b68,
        ],
        [
            0x10e2_cd93_456a_c257,
            0x525e_98f9_b95a_4e88,
            0x525e_98f9_b95a_4e88,
            0x340a_4fa9_aaf0_da83,
        ],
        [
            0xfcca_9d39_dc25_2076,
            0x945f_3954_c4f3_a7cc,
            0x945f_3954_c4f3_a7cc,
            0x7322_a721_3448_cd00,
        ],
        [
            0x1a4e_4093_6178_e240,
            0x3705_ab7f_1f6f_f8cc,
            0x3705_ab7f_1f6f_f8cc,
            0x5039_7a90_b9f2_c152,
        ],
        [
            0x2535_c4d3_d8cf_5a17,
            0xdd53_9f87_826c_fbca,
            0xdd53_9f87_826c_fbca,
            0x44f3_2afa_ccf4_f0b6,
        ],
        [
            0x07af_87cf_7c5d_1583,
            0x951c_d273_e90a_9f0d,
            0x951c_d273_e90a_9f0d,
            0x5184_8547_f5a6_fb0d,
        ],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
