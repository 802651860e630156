//! Fuzz-style decode robustness: no input, however mangled, may panic the
//! decoder.
//!
//! Three generators, >1k cases total: fully arbitrary byte soup, valid
//! streams with seeded mutations (bit flips, truncation, byte splices), and
//! packetized streams run through the fault injector into the resilient
//! decode path. Every entry point (`decode`, `StrictFrameSource`,
//! `inspect`, `ResilientFrameSource`) must return `Ok` or `Err` — never
//! panic, never hang on absurd declared sizes — and the strict ones must
//! agree on what is malformed.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;
use vrd_codec::{
    packetize, CodecConfig, ConcealReason, DecodeOutcome, DecodedUnit, Decoder, Encoder,
    FaultConfig, FaultKind, FrameSource, ResilientFrameSource, StrictFrameSource, UnitPayload,
};
use vrd_video::davis::{davis_sequence, SuiteConfig};

/// A valid encoded stream, built once (encoding dominates the case cost).
fn valid_stream() -> &'static Bytes {
    static STREAM: OnceLock<Bytes> = OnceLock::new();
    STREAM.get_or_init(|| {
        let seq = davis_sequence("dog", &SuiteConfig::tiny()).expect("tiny suite generates");
        Encoder::new(CodecConfig::default())
            .encode(&seq.frames)
            .expect("tiny sequence encodes")
            .bitstream
    })
}

/// Pulls a source dry; the first failing unit aborts.
fn drain(src: &mut impl FrameSource) -> vrd_codec::Result<Vec<DecodedUnit>> {
    std::iter::from_fn(|| src.next_unit()).collect()
}

/// Exercises every strict entry point. Panics are failures, and so is a
/// reader accepting what a more thorough one rejects: full decode validates
/// most and `inspect` least, all over the same record reader.
fn decode_all_entry_points(bytes: &Bytes) {
    let dec = Decoder::new();
    let decoded = dec.decode(bytes).is_ok();
    let streamed = StrictFrameSource::new(bytes).and_then(|mut src| drain(&mut src));
    let inspected = dec.inspect(bytes);
    assert!(
        !decoded || streamed.is_ok(),
        "decode accepts what the strict source rejects: {:?}",
        streamed.err()
    );
    assert!(
        streamed.is_err() || inspected.is_ok(),
        "the strict source accepts what inspect rejects: {:?}",
        inspected.err()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.random_range(0u16..256) as u8;
        }
        // Half the cases keep the magic/version prefix so parsing reaches
        // the header and frame payloads instead of bailing at byte 0.
        if seed % 2 == 0 && bytes.len() >= 5 {
            bytes[..5].copy_from_slice(&[b'V', b'R', b'D', b'C', 1]);
        }
        decode_all_entry_points(&Bytes::from(bytes));
    }

    #[test]
    fn mutated_valid_streams_never_panic(seed in 0u64..u64::MAX) {
        let mut bytes = valid_stream().to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mutations = rng.random_range(1usize..4);
        for _ in 0..mutations {
            match rng.random_range(0u8..3) {
                0 => {
                    // Single bit flip anywhere in the stream.
                    let pos = rng.random_range(0usize..bytes.len());
                    bytes[pos] ^= 1 << rng.random_range(0u8..8);
                }
                1 => {
                    // Truncate to an arbitrary prefix.
                    let keep = rng.random_range(0usize..bytes.len() + 1);
                    bytes.truncate(keep);
                    if bytes.is_empty() {
                        break;
                    }
                }
                _ => {
                    // Overwrite a short run with arbitrary bytes (corrupts
                    // varint boundaries and residual runs).
                    let pos = rng.random_range(0usize..bytes.len());
                    let run = rng.random_range(1usize..9).min(bytes.len() - pos);
                    for b in &mut bytes[pos..pos + run] {
                        *b = rng.random_range(0u16..256) as u8;
                    }
                }
            }
        }
        decode_all_entry_points(&Bytes::from(bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn injected_faults_never_panic_resilient_decode(seed in 0u64..u64::MAX, rate in 0.0f64..0.9) {
        let ps = packetize(valid_stream()).expect("valid stream packetizes");
        let cfg = FaultConfig {
            seed,
            rate,
            kinds: vec![
                FaultKind::BitFlip,
                FaultKind::Truncate,
                FaultKind::DropBMvs,
                FaultKind::DropFrame,
            ],
            b_frames_only: seed % 3 == 0,
            protect_first_i: seed % 2 == 0,
        };
        let (damaged, _log) = vrd_codec::inject(&ps, &cfg);
        // The transport header survives injection, so resilient decode
        // always produces per-frame outcomes rather than failing outright.
        let mut src = ResilientFrameSource::new(&damaged)
            .expect("transport header survives injection");
        let units = drain(&mut src);
        prop_assert!(units.is_ok(), "resilient decode errored: {:?}", units.err());
        let units = units.expect("checked above");
        prop_assert_eq!(units.len(), src.info().n_frames);

        // Pre-scan and pixel pass tell one story. The references each frame
        // names come from the pristine stream: an anchor only decodes when
        // its packet is intact.
        let named = Decoder::new().inspect(valid_stream()).expect("valid stream inspects");
        let mut anchors = Vec::new();
        for unit in &units {
            let skipped = matches!(unit.payload, UnitPayload::Skipped { .. });
            prop_assert_eq!(unit.outcome.is_usable(), !skipped, "unit {}", unit.decode_idx);
            if let UnitPayload::Anchor { display, .. } = unit.payload {
                let refs = &named[unit.decode_idx as usize].refs;
                let substituted = refs.iter().any(|r| !anchors.contains(r));
                let concealed = DecodeOutcome::Concealed(ConcealReason::MissingReference);
                prop_assert_eq!(unit.outcome == concealed, substituted, "anchor {display}");
                prop_assert!(substituted || unit.outcome == DecodeOutcome::Ok);
                anchors.push(display);
            }
        }
        prop_assert_eq!(src.usable_anchor_displays(), &anchors[..]);

        // The damaged transport also reassembles into bytes the strict
        // decoder must survive (it may and usually will error).
        decode_all_entry_points(&damaged.reassemble());
    }
}
