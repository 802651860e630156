//! Deterministic bitstream fault injection and the packetized transport
//! view the resilient decode path consumes.
//!
//! Real deployments do not hand the decoder a pristine byte blob: frames
//! arrive as transport packets (RTP payloads, Annex-B NAL units) whose
//! *boundaries* survive even when their *contents* do not — sequence
//! numbers reveal dropped packets, checksums reveal damaged ones. This
//! module models exactly that split:
//!
//! * [`packetize`] cuts a valid bitstream into a [`PacketStream`]: the
//!   stream header plus one [`FramePacket`] per frame in decode order, each
//!   carrying a checksum computed at send time;
//! * [`inject`] corrupts a `PacketStream` in controlled, seeded ways — bit
//!   flips, payload truncation, dropped B-frame MV payloads, whole lost
//!   frames — and logs every fault it plants;
//! * [`crate::ResilientFrameSource`] then decodes the damaged stream frame
//!   by frame, resynchronising at packet boundaries and reporting a
//!   per-frame [`crate::decoder::DecodeOutcome`] instead of aborting the
//!   run.
//!
//! Everything is reproducible from [`FaultConfig::seed`]; the sweep in
//! `crates/bench` relies on that to plot accuracy-vs-loss curves.

use crate::decoder::Decoder;
use crate::error::{CodecError, Result};
use crate::types::FrameType;
use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One frame's transport packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePacket {
    /// Decode-order index of the frame this packet carries.
    pub decode_idx: u32,
    /// Frame type as planned by the encoder (transport metadata — known
    /// from the packet header even when the payload is damaged).
    pub ftype: FrameType,
    /// The frame's bitstream bytes (possibly corrupted by [`inject`]).
    pub payload: Bytes,
    /// Checksum of the payload computed at packetize time. The injector
    /// deliberately does *not* refresh it — a mismatch is how the receiver
    /// detects damage.
    pub checksum: u32,
    /// Whether the transport lost this packet entirely (sequence-number
    /// gap). A lost packet keeps its slot so decode order is preserved.
    pub lost: bool,
}

impl FramePacket {
    /// Whether the payload still matches its send-time checksum.
    pub fn intact(&self) -> bool {
        !self.lost && checksum(&self.payload) == self.checksum
    }
}

/// A bitstream split at frame boundaries: what the decoder sees when frames
/// arrive over a packetized transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketStream {
    /// The stream header bytes (magic, version, dimensions, …). Assumed
    /// reliable: real systems send parameter sets out of band or repeat
    /// them until acknowledged.
    pub header: Bytes,
    /// One packet per frame, decode order.
    pub packets: Vec<FramePacket>,
}

impl PacketStream {
    /// Reassembles the transport stream into one contiguous bitstream
    /// (lost packets contribute nothing). For an uninjected stream this is
    /// byte-identical to the input of [`packetize`].
    pub fn reassemble(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(self.header.as_slice());
        for p in &self.packets {
            if !p.lost {
                buf.put_slice(p.payload.as_slice());
            }
        }
        buf.freeze()
    }
}

/// FNV-1a over a payload: the transport checksum. Not cryptographic — it
/// models a UDP/RTP-grade integrity check.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Splits a *valid* bitstream into its per-frame packets.
///
/// # Errors
/// Fails like [`Decoder::inspect`] if the stream does not parse — only
/// well-formed streams can be packetized (the sender owns the encoder).
pub fn packetize(bitstream: &Bytes) -> Result<PacketStream> {
    let spans = Decoder::new().frame_spans(bitstream)?;
    let header_len = spans.first().map_or(bitstream.len(), |s| s.offset);
    let header = bitstream.slice(0..header_len);
    let packets = spans
        .iter()
        .map(|s| {
            let payload = bitstream.slice(s.offset..s.offset + s.len);
            FramePacket {
                decode_idx: s.decode_idx,
                ftype: s.ftype,
                checksum: checksum(&payload),
                payload,
                lost: false,
            }
        })
        .collect();
    Ok(PacketStream { header, packets })
}

/// The fault classes the injector can plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip 1–8 random bits somewhere in the payload.
    BitFlip,
    /// Keep only a random 10–90 % prefix of the payload.
    Truncate,
    /// Cut a B-frame's payload short, losing the tail of its MV records
    /// (anchor frames get a bit flip instead — they have no MV payload).
    DropBMvs,
    /// Lose the whole packet (sequence-number gap at the receiver).
    DropFrame,
}

/// Configuration of one injection pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault lottery; same seed + same stream = same faults.
    pub seed: u64,
    /// Per-frame probability of planting a fault (0 = none, 1 = every
    /// frame).
    pub rate: f64,
    /// The fault classes to draw from (empty = no faults regardless of
    /// rate).
    pub kinds: Vec<FaultKind>,
    /// Restrict faults to B-frames (the MV-loss sweeps); anchors then pass
    /// through untouched.
    pub b_frames_only: bool,
    /// Never fault the first I-frame. Real systems retransmit the IDR
    /// until acknowledged; without it nothing downstream is decodable.
    pub protect_first_i: bool,
}

impl FaultConfig {
    /// All fault classes at the given per-frame rate.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            rate,
            kinds: vec![
                FaultKind::BitFlip,
                FaultKind::Truncate,
                FaultKind::DropBMvs,
                FaultKind::DropFrame,
            ],
            b_frames_only: false,
            protect_first_i: true,
        }
    }

    /// B-frame MV loss only (the paper-style accuracy-vs-loss sweeps).
    pub fn b_mv_loss(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            rate,
            kinds: vec![FaultKind::DropBMvs, FaultKind::DropFrame],
            b_frames_only: true,
            protect_first_i: true,
        }
    }
}

/// One planted fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Decode-order index of the damaged frame.
    pub decode_idx: u32,
    /// Frame type of the damaged frame.
    pub ftype: FrameType,
    /// What was done to it.
    pub kind: FaultKind,
    /// Human-readable description (bit offsets, cut points, …).
    pub detail: String,
}

/// Everything one injection pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// The planted faults, decode order.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Number of faults of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// Corrupts a packet stream according to `cfg`. The input is untouched; the
/// returned stream shares payload storage for intact frames.
pub fn inject(stream: &PacketStream, cfg: &FaultConfig) -> (PacketStream, FaultLog) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = stream.clone();
    let mut log = FaultLog::default();
    if cfg.rate <= 0.0 || cfg.kinds.is_empty() {
        return (out, log);
    }
    for packet in &mut out.packets {
        // Draw the lottery for every packet, even ones later skipped, so
        // the fault pattern on shared frames is stable across configs with
        // the same seed.
        let hit = rng.random_range(0.0f64..1.0) < cfg.rate;
        let kind = cfg.kinds[rng.random_range(0usize..cfg.kinds.len())];
        if !hit {
            continue;
        }
        if cfg.b_frames_only && packet.ftype != FrameType::B {
            continue;
        }
        if cfg.protect_first_i && packet.decode_idx == 0 {
            continue;
        }
        // An anchor has no MV payload to drop; degrade the fault to a flip.
        let kind = if kind == FaultKind::DropBMvs && packet.ftype != FrameType::B {
            FaultKind::BitFlip
        } else {
            kind
        };
        let detail = apply_fault(packet, kind, &mut rng);
        log.events.push(FaultEvent {
            decode_idx: packet.decode_idx,
            ftype: packet.ftype,
            kind,
            detail,
        });
    }
    (out, log)
}

fn apply_fault(packet: &mut FramePacket, kind: FaultKind, rng: &mut StdRng) -> String {
    let len = packet.payload.len();
    match kind {
        FaultKind::BitFlip => {
            let mut bytes = packet.payload.to_vec();
            let flips = rng.random_range(1usize..9).min(len * 8);
            let mut positions = Vec::with_capacity(flips);
            for _ in 0..flips {
                let bit = rng.random_range(0usize..len * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                positions.push(bit);
            }
            packet.payload = Bytes::from(bytes);
            format!("flipped bits {positions:?}")
        }
        FaultKind::Truncate => {
            let keep = rng.random_range(len / 10..len * 9 / 10 + 1).max(1);
            packet.payload = packet.payload.slice(0..keep);
            format!("truncated to {keep}/{len} bytes")
        }
        FaultKind::DropBMvs => {
            // Cut inside the record area: everything after the cut — the
            // tail of the frame's MV records — is lost in transit.
            let keep = rng.random_range(1usize..(len / 2).max(2));
            packet.payload = packet.payload.slice(0..keep);
            format!("dropped MV payload after byte {keep}/{len}")
        }
        FaultKind::DropFrame => {
            packet.lost = true;
            packet.payload = Bytes::new();
            "packet lost".into()
        }
    }
}

/// Byte span of one frame inside a valid bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameSpan {
    /// Decode-order index.
    pub decode_idx: u32,
    /// Display-order index.
    pub display_idx: u32,
    /// Frame type.
    pub ftype: FrameType,
    /// Byte offset of the frame's first byte in the stream.
    pub offset: usize,
    /// Length of the frame's payload in bytes.
    pub len: usize,
}

impl Decoder {
    /// Locates every frame's byte span in a valid bitstream (the
    /// packetizer's engine; also useful for diagnostics).
    ///
    /// # Errors
    /// Fails like [`Decoder::inspect`] for malformed input.
    pub(crate) fn frame_spans(&self, bitstream: &Bytes) -> Result<Vec<FrameSpan>> {
        let summaries = self.inspect(bitstream)?;
        let total = bitstream.len();
        let frame_bytes: usize = summaries.iter().map(|s| s.bytes).sum();
        let mut offset = total
            .checked_sub(frame_bytes)
            .ok_or_else(|| CodecError::Bitstream("frame bytes exceed stream length".into()))?;
        Ok(summaries
            .iter()
            .map(|s| {
                let span = FrameSpan {
                    decode_idx: s.decode_idx,
                    display_idx: s.display_idx,
                    ftype: s.ftype,
                    offset,
                    len: s.bytes,
                };
                offset += s.bytes;
                span
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;
    use crate::encoder::Encoder;
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    fn tiny_stream() -> Bytes {
        let frames = davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames;
        Encoder::new(CodecConfig::default())
            .encode(&frames)
            .unwrap()
            .bitstream
    }

    #[test]
    fn packetize_roundtrips_byte_identically() {
        let bs = tiny_stream();
        let ps = packetize(&bs).unwrap();
        assert_eq!(ps.reassemble(), bs);
        assert!(ps.packets.iter().all(|p| p.intact()));
        // Spans tile the stream: header then frames, no gaps.
        let spans = Decoder::new().frame_spans(&bs).unwrap();
        let mut expected = spans[0].offset;
        for s in &spans {
            assert_eq!(s.offset, expected);
            expected += s.len;
        }
        assert_eq!(expected, bs.len());
    }

    #[test]
    fn zero_rate_injection_is_identity() {
        let ps = packetize(&tiny_stream()).unwrap();
        let (out, log) = inject(&ps, &FaultConfig::uniform(0.0, 1));
        assert_eq!(out, ps);
        assert!(log.events.is_empty());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let ps = packetize(&tiny_stream()).unwrap();
        let cfg = FaultConfig::uniform(0.5, 42);
        let (a, log_a) = inject(&ps, &cfg);
        let (b, log_b) = inject(&ps, &cfg);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        assert!(!log_a.events.is_empty(), "rate 0.5 planted nothing");
        let (c, _) = inject(&ps, &FaultConfig::uniform(0.5, 43));
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn faulted_packets_fail_their_checksums() {
        let ps = packetize(&tiny_stream()).unwrap();
        let (out, log) = inject(&ps, &FaultConfig::uniform(1.0, 7));
        assert!(!log.events.is_empty());
        for e in &log.events {
            let p = &out.packets[e.decode_idx as usize];
            assert!(
                !p.intact(),
                "fault {:?} on frame {} left packet intact",
                e.kind,
                e.decode_idx
            );
        }
        // Unfaulted packets stay intact.
        let faulted: std::collections::BTreeSet<u32> =
            log.events.iter().map(|e| e.decode_idx).collect();
        for p in &out.packets {
            if !faulted.contains(&p.decode_idx) {
                assert!(p.intact());
            }
        }
    }

    #[test]
    fn b_mv_loss_config_only_touches_b_frames() {
        let ps = packetize(&tiny_stream()).unwrap();
        let (_, log) = inject(&ps, &FaultConfig::b_mv_loss(1.0, 9));
        assert!(!log.events.is_empty());
        assert!(log.events.iter().all(|e| e.ftype == FrameType::B));
    }

    #[test]
    fn first_i_frame_is_protected() {
        let ps = packetize(&tiny_stream()).unwrap();
        let (out, log) = inject(&ps, &FaultConfig::uniform(1.0, 11));
        assert!(log.events.iter().all(|e| e.decode_idx != 0));
        assert!(out.packets[0].intact());
    }
}
