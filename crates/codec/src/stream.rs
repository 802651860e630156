//! Pull-based streaming decode: [`FrameSource`] and [`DecodedUnit`].
//!
//! VR-DANN's decoder and NPU work *concurrently on a stream* (§IV): the
//! decoder hands over anchor pixels and B-frame motion-vector payloads one
//! frame at a time, in decode order, and the recognition pipeline consumes
//! them as they arrive. This module is that hand-over point. A
//! [`FrameSource`] yields one [`DecodedUnit`] per frame slot and keeps only
//! a small reference window of reconstructed anchors alive — never the
//! whole video — which is what makes the downstream engine's memory
//! footprint O(GOP) instead of O(sequence).
//!
//! Two sources implement the trait:
//!
//! * [`StrictFrameSource`] walks a contiguous bitstream and fails fast on
//!   corruption (the behaviour of the retired monolithic
//!   `decode_for_recognition` loop);
//! * [`ResilientFrameSource`] walks a packetized, possibly damaged
//!   transport stream and never fails after the header: every packet
//!   yields a unit whose [`DecodeOutcome`] reports what was recovered.
//!
//! The resilient source runs a pixel-free *pre-scan* over the packets
//! first. The per-packet claim/outcome ladder only depends on transport
//! metadata and payload structure (an intact anchor always decodes; a B
//! payload parses without pixels), so outcomes, inferred display slots for
//! lost packets, and the usable-anchor list are all known before the first
//! unit is pulled — exactly what a concealing consumer needs up front.

use crate::bitstream::Reader;
use crate::decoder::{BFrameInfo, ConcealReason, DecodeOutcome, Decoder, Header};
use crate::error::Result;
use crate::faults::PacketStream;
use crate::types::FrameType;
use bytes::Bytes;
use std::collections::{BTreeSet, VecDeque};
use vrd_video::Frame;

/// Reconstructed anchors retained for reference. The encoder never
/// references further back than the nearest 9 anchors
/// ([`crate::SearchInterval`] is clamped to 1..=9, `Auto` resolves to 7),
/// so a 10-deep window always holds every frame a valid stream can ask
/// for — and bounds the source's live pixel memory regardless of sequence
/// length.
const REF_WINDOW: usize = 10;

/// Stream-level metadata shared by every unit of one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Macro-block size the stream was coded with.
    pub mb_size: usize,
    /// Frame count announced by the stream header.
    pub n_frames: usize,
}

/// Whole-stream byte/count accounting, split by frame class.
///
/// For a [`StrictFrameSource`] the totals accumulate as units are pulled
/// and are final once the source is exhausted; a [`ResilientFrameSource`]
/// knows them from its pre-scan before the first pull.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Bitstream bytes parsed for anchor frames (header included).
    pub anchor_bytes: usize,
    /// Bitstream bytes parsed (and mostly skipped) for B-frames.
    pub b_bytes: usize,
    /// Anchor frames that produced pixels.
    pub anchors: usize,
    /// B-frames that produced a motion-vector payload.
    pub b_frames: usize,
}

/// What one frame slot delivered.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitPayload {
    /// An anchor (I/P) frame reconstructed to pixels.
    Anchor {
        /// Display index of the anchor.
        display: u32,
        /// The reconstructed pixels. Ownership passes to the consumer; the
        /// source keeps its own reference copy inside the retention window.
        frame: Frame,
    },
    /// A B-frame's motion-vector payload (residuals skipped, no pixels).
    Motion(BFrameInfo),
    /// Nothing usable was recovered for this slot (resilient decode only).
    Skipped {
        /// Display index when it could be read or inferred from the
        /// surviving frames' claim pattern; `None` otherwise.
        display: Option<u32>,
    },
}

/// One frame slot pulled from a [`FrameSource`], in decode order.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedUnit {
    /// Decode-order index (the packet slot).
    pub decode_idx: u32,
    /// Frame type, known from the bitstream or transport metadata even
    /// when the payload is damaged.
    pub ftype: FrameType,
    /// What the decoder managed to recover (always [`DecodeOutcome::Ok`]
    /// for a strict source).
    pub outcome: DecodeOutcome,
    /// Distinct reference frames this unit's payload named, ascending
    /// (strict source only; resilient units leave it empty).
    pub refs: Vec<u32>,
    /// The recovered data.
    pub payload: UnitPayload,
}

impl DecodedUnit {
    /// Display index of this unit, when known.
    pub fn display(&self) -> Option<u32> {
        match &self.payload {
            UnitPayload::Anchor { display, .. } => Some(*display),
            UnitPayload::Motion(info) => Some(info.display_idx),
            UnitPayload::Skipped { display } => *display,
        }
    }
}

/// A pull-based decoder front-end: one [`DecodedUnit`] per frame slot, in
/// decode order, with bounded live pixel memory.
pub trait FrameSource {
    /// Stream-level metadata from the header.
    fn info(&self) -> StreamInfo;

    /// Pulls the next unit, or `None` when the stream is exhausted. A
    /// strict source fuses after its first error; a resilient source never
    /// errors here.
    fn next_unit(&mut self) -> Option<Result<DecodedUnit>>;

    /// Reconstructed anchor frames currently held in the reference window.
    fn live_frames(&self) -> usize;

    /// High-water mark of simultaneously live frames (window plus the unit
    /// being handed over) — the bounded-memory accounting hook.
    fn peak_live_frames(&self) -> usize;

    /// Whole-stream byte/count accounting (see [`StreamTotals`]).
    fn totals(&self) -> StreamTotals;
}

/// Strict streaming decode of a contiguous bitstream: anchors to pixels,
/// B-frames to motion vectors, first error fuses the source.
#[derive(Debug)]
pub struct StrictFrameSource {
    r: Reader,
    hdr: Header,
    mb: usize,
    next_decode: usize,
    anchor_recon: Vec<Option<Frame>>,
    window: VecDeque<u32>,
    peak_live: usize,
    totals: StreamTotals,
    fused: bool,
}

impl StrictFrameSource {
    /// Opens a bitstream for streaming recognition-mode decode.
    ///
    /// # Errors
    /// Returns [`crate::CodecError::Bitstream`] if the header is malformed.
    pub fn new(bitstream: &Bytes) -> Result<Self> {
        let mut r = Reader::new(bitstream.clone());
        let total = bitstream.len();
        let hdr = Decoder::read_header_capped(&mut r, None)?;
        let mb = hdr.standard.mb_size();
        let anchor_recon = vec![None; hdr.n_frames];
        Ok(Self {
            totals: StreamTotals {
                anchor_bytes: total - r.remaining(),
                ..StreamTotals::default()
            },
            r,
            hdr,
            mb,
            next_decode: 0,
            anchor_recon,
            window: VecDeque::new(),
            peak_live: 0,
            fused: false,
        })
    }

    fn step(&mut self, decode_idx: u32, before: usize) -> Result<DecodedUnit> {
        let (ftype, display) = Decoder::read_frame_header(&mut self.r, self.hdr.n_frames)?;
        let mut refs_used = BTreeSet::new();
        if ftype.is_anchor() {
            let rec = Decoder::read_anchor(
                &mut self.r,
                &self.hdr,
                self.mb,
                &self.anchor_recon,
                &mut refs_used,
            )?;
            self.anchor_recon[display as usize] = Some(rec.clone());
            self.window.push_back(display);
            if self.window.len() > REF_WINDOW {
                if let Some(old) = self.window.pop_front() {
                    self.anchor_recon[old as usize] = None;
                }
            }
            self.peak_live = self.peak_live.max(self.window.len() + 1);
            self.totals.anchor_bytes += before - self.r.remaining();
            self.totals.anchors += 1;
            Ok(DecodedUnit {
                decode_idx,
                ftype,
                outcome: DecodeOutcome::Ok,
                refs: refs_used.into_iter().collect(),
                payload: UnitPayload::Anchor {
                    display,
                    frame: rec,
                },
            })
        } else {
            let mut info = BFrameInfo {
                display_idx: display,
                mvs: Vec::new(),
                intra_blocks: Vec::new(),
            };
            Decoder::read_b_frame_blocks(
                &mut self.r,
                &self.hdr,
                self.mb,
                &mut info,
                &mut refs_used,
            )?;
            self.totals.b_bytes += before - self.r.remaining();
            self.totals.b_frames += 1;
            Ok(DecodedUnit {
                decode_idx,
                ftype,
                outcome: DecodeOutcome::Ok,
                refs: refs_used.into_iter().collect(),
                payload: UnitPayload::Motion(info),
            })
        }
    }
}

impl FrameSource for StrictFrameSource {
    fn info(&self) -> StreamInfo {
        StreamInfo {
            width: self.hdr.width,
            height: self.hdr.height,
            mb_size: self.mb,
            n_frames: self.hdr.n_frames,
        }
    }

    fn next_unit(&mut self) -> Option<Result<DecodedUnit>> {
        if self.fused || self.next_decode >= self.hdr.n_frames {
            return None;
        }
        let decode_idx = self.next_decode as u32;
        self.next_decode += 1;
        let before = self.r.remaining();
        match self.step(decode_idx, before) {
            Ok(unit) => Some(Ok(unit)),
            Err(e) => {
                self.fused = true;
                Some(Err(e))
            }
        }
    }

    fn live_frames(&self) -> usize {
        self.window.len()
    }

    fn peak_live_frames(&self) -> usize {
        self.peak_live
    }

    fn totals(&self) -> StreamTotals {
        self.totals
    }
}

/// Pre-scanned plan for one packet of a resilient stream.
#[derive(Debug)]
struct UnitPlan {
    display: Option<u32>,
    outcome: DecodeOutcome,
    b_info: Option<BFrameInfo>,
}

/// Resilient streaming decode of a packetized, possibly damaged transport
/// stream. Never errors after construction: every packet yields a unit.
#[derive(Debug)]
pub struct ResilientFrameSource<'a> {
    stream: &'a PacketStream,
    hdr: Header,
    mb: usize,
    pos: usize,
    plans: Vec<UnitPlan>,
    usable_anchors: Vec<u32>,
    anchor_recon: Vec<Option<Frame>>,
    window: VecDeque<u32>,
    peak_live: usize,
    totals: StreamTotals,
}

impl<'a> ResilientFrameSource<'a> {
    /// Pre-scans a packet stream and prepares streaming decode.
    ///
    /// # Errors
    /// Returns [`crate::CodecError::Bitstream`] only if the *stream header*
    /// is unusable — packet damage is reported per unit, never as an `Err`.
    pub fn new(stream: &'a PacketStream) -> Result<Self> {
        let mut hr = Reader::new(stream.header.clone());
        let hdr = Decoder::read_header_capped(&mut hr, Some(Decoder::MAX_FRAMES))?;
        let mb = hdr.standard.mb_size();
        let blocks_per_frame = (hdr.width / mb) * (hdr.height / mb);

        let mut totals = StreamTotals {
            anchor_bytes: stream.header.len(),
            ..StreamTotals::default()
        };
        let mut plans = Vec::with_capacity(stream.packets.len());
        let mut usable_anchors = Vec::new();
        let mut claimed = BTreeSet::new();
        let mut decoded_anchors = BTreeSet::new();
        for packet in &stream.packets {
            let plan = Self::scan_packet(
                packet,
                &hdr,
                mb,
                blocks_per_frame,
                &mut claimed,
                &mut decoded_anchors,
            );
            if plan.outcome.is_usable() {
                if packet.ftype.is_anchor() {
                    if let Some(d) = plan.display {
                        usable_anchors.push(d);
                    }
                    totals.anchor_bytes += packet.payload.len();
                    totals.anchors += 1;
                } else {
                    totals.b_bytes += packet.payload.len();
                    totals.b_frames += 1;
                }
            }
            plans.push(plan);
        }

        // Infer displays for frames whose headers were unreadable: the
        // display slots no surviving frame claimed, assigned in ascending
        // order to unknown frames in decode order. (Salvaged payloads always
        // carry their own display index — only fully lost frames land here.)
        let mut missing = (0..hdr.n_frames as u32)
            .filter(|d| !claimed.contains(d))
            .collect::<Vec<_>>();
        missing.reverse(); // pop() yields ascending order
        for plan in &mut plans {
            if plan.display.is_none() {
                plan.display = missing.pop();
            }
        }

        let anchor_recon = vec![None; hdr.n_frames];
        Ok(Self {
            stream,
            hdr,
            mb,
            pos: 0,
            plans,
            usable_anchors,
            anchor_recon,
            window: VecDeque::new(),
            peak_live: 0,
            totals,
        })
    }

    /// Display indices of every anchor that will decode usably, in decode
    /// order — known before the first unit is pulled, so a concealing
    /// consumer can establish its reference set up front.
    pub fn usable_anchor_displays(&self) -> &[u32] {
        &self.usable_anchors
    }

    /// Replays `decode_one_packet`'s claim/outcome ladder without touching
    /// pixels. Anchor payloads are only decoded when intact (original
    /// encoder bytes), so a structural walk with the same reads decides
    /// success exactly; B payloads are parsed outright and cached.
    fn scan_packet(
        packet: &crate::faults::FramePacket,
        hdr: &Header,
        mb: usize,
        blocks_per_frame: usize,
        claimed: &mut BTreeSet<u32>,
        decoded_anchors: &mut BTreeSet<u32>,
    ) -> UnitPlan {
        let lost = UnitPlan {
            display: None,
            outcome: DecodeOutcome::Lost,
            b_info: None,
        };
        if packet.lost {
            return lost;
        }
        let intact = packet.intact();
        let mut r = Reader::new(packet.payload.clone());

        // Frame header: type byte + display index. If it is unreadable or
        // contradicts the transport metadata, nothing in the payload can be
        // trusted.
        let Ok((ftype, display)) = Decoder::read_frame_header(&mut r, hdr.n_frames) else {
            return lost;
        };
        if ftype != packet.ftype || claimed.contains(&display) {
            return lost;
        }

        if ftype.is_anchor() {
            if !intact {
                // Damaged anchor pixels would silently poison NN-L and all
                // B-frames referencing them; treat the frame as lost.
                return UnitPlan {
                    display: Some(display),
                    outcome: DecodeOutcome::Lost,
                    b_info: None,
                };
            }
            match Decoder::scan_anchor(&mut r, hdr, mb, decoded_anchors) {
                Ok(substituted) => {
                    claimed.insert(display);
                    decoded_anchors.insert(display);
                    let outcome = if substituted {
                        DecodeOutcome::Concealed(ConcealReason::MissingReference)
                    } else {
                        DecodeOutcome::Ok
                    };
                    UnitPlan {
                        display: Some(display),
                        outcome,
                        b_info: None,
                    }
                }
                Err(_) => UnitPlan {
                    display: Some(display),
                    outcome: DecodeOutcome::Lost,
                    b_info: None,
                },
            }
        } else {
            let mut info = BFrameInfo {
                display_idx: display,
                mvs: Vec::new(),
                intra_blocks: Vec::new(),
            };
            let mut refs_used = BTreeSet::new();
            let parse = Decoder::read_b_frame_blocks(&mut r, hdr, mb, &mut info, &mut refs_used);
            let parsed_blocks = info.mvs.len() + info.intra_blocks.len();
            let outcome = match (intact, parse) {
                (true, Ok(())) => DecodeOutcome::Ok,
                (false, Ok(())) => DecodeOutcome::Concealed(ConcealReason::SuspectPayload),
                (_, Err(_)) if parsed_blocks > 0 => {
                    DecodeOutcome::Concealed(ConcealReason::PartialMvs {
                        parsed: parsed_blocks,
                        total: blocks_per_frame,
                    })
                }
                (_, Err(_)) => DecodeOutcome::Lost,
            };
            if outcome.is_usable() {
                claimed.insert(display);
                UnitPlan {
                    display: Some(display),
                    outcome,
                    b_info: Some(info),
                }
            } else {
                UnitPlan {
                    display: Some(display),
                    outcome,
                    b_info: None,
                }
            }
        }
    }

    /// Decodes the pixels of a pre-scanned usable anchor packet, updating
    /// the retention window. Falls back to a skipped unit if the payload
    /// does not decode (unreachable for a correct pre-scan — the scan walks
    /// the same bytes with the same error points).
    fn decode_anchor_unit(&mut self, i: usize) -> UnitPayload {
        let packet = &self.stream.packets[i];
        let mut r = Reader::new(packet.payload.clone());
        let Ok((_ftype, display)) = Decoder::read_frame_header(&mut r, self.hdr.n_frames) else {
            return UnitPayload::Skipped {
                display: self.plans[i].display,
            };
        };
        let mut substituted = false;
        match Decoder::read_anchor_resilient(
            &mut r,
            &self.hdr,
            self.mb,
            &self.anchor_recon,
            &mut substituted,
        ) {
            Ok(rec) => {
                self.anchor_recon[display as usize] = Some(rec.clone());
                self.window.push_back(display);
                if self.window.len() > REF_WINDOW {
                    if let Some(old) = self.window.pop_front() {
                        self.anchor_recon[old as usize] = None;
                    }
                }
                self.peak_live = self.peak_live.max(self.window.len() + 1);
                UnitPayload::Anchor {
                    display,
                    frame: rec,
                }
            }
            Err(_) => UnitPayload::Skipped {
                display: self.plans[i].display,
            },
        }
    }
}

impl FrameSource for ResilientFrameSource<'_> {
    fn info(&self) -> StreamInfo {
        StreamInfo {
            width: self.hdr.width,
            height: self.hdr.height,
            mb_size: self.mb,
            n_frames: self.hdr.n_frames,
        }
    }

    fn next_unit(&mut self) -> Option<Result<DecodedUnit>> {
        if self.pos >= self.stream.packets.len() {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        let packet = &self.stream.packets[i];
        let (decode_idx, ftype) = (packet.decode_idx, packet.ftype);
        let outcome = self.plans[i].outcome.clone();
        let payload = if let Some(info) = self.plans[i].b_info.take() {
            UnitPayload::Motion(info)
        } else if ftype.is_anchor() && outcome.is_usable() {
            self.decode_anchor_unit(i)
        } else {
            UnitPayload::Skipped {
                display: self.plans[i].display,
            }
        };
        Some(Ok(DecodedUnit {
            decode_idx,
            ftype,
            outcome,
            refs: Vec::new(),
            payload,
        }))
    }

    fn live_frames(&self) -> usize {
        self.window.len()
    }

    fn peak_live_frames(&self) -> usize {
        self.peak_live
    }

    fn totals(&self) -> StreamTotals {
        self.totals
    }
}

// Threading audit: the engine driver, given lanes, moves a frame source
// onto a decode-lane worker thread and ships `DecodedUnit`s through a stage
// channel. These assertions pin the `Send` guarantees that makes that
// safe — a non-`Send` field sneaking into a source or unit must fail to
// compile here, not deep inside the driver's thread scope.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StrictFrameSource>();
    assert_send::<ResilientFrameSource<'_>>();
    assert_send::<DecodedUnit>();
    assert_send::<Result<DecodedUnit>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BFrameMode, CodecConfig};
    use crate::encoder::Encoder;
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    fn tiny_bitstream() -> Bytes {
        let frames = davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames;
        Encoder::new(CodecConfig {
            b_frames: BFrameMode::Fixed(3),
            ..CodecConfig::default()
        })
        .encode(&frames)
        .unwrap()
        .bitstream
    }

    #[test]
    fn strict_source_units_match_collected_stream() {
        let bs = tiny_bitstream();
        let rec = Decoder::new().decode_for_recognition(&bs).unwrap();
        let mut src = StrictFrameSource::new(&bs).unwrap();
        let mut anchors = 0usize;
        let mut bs_seen = 0usize;
        while let Some(unit) = src.next_unit() {
            let unit = unit.unwrap();
            assert_eq!(unit.outcome, DecodeOutcome::Ok);
            match unit.payload {
                UnitPayload::Anchor { display, frame } => {
                    assert_eq!(
                        (display, &frame),
                        (rec.anchors[anchors].0, &rec.anchors[anchors].1)
                    );
                    anchors += 1;
                }
                UnitPayload::Motion(info) => {
                    assert_eq!(info, rec.b_frames[bs_seen]);
                    bs_seen += 1;
                }
                UnitPayload::Skipped { .. } => panic!("strict source skipped a unit"),
            }
        }
        assert_eq!((anchors, bs_seen), (rec.anchors.len(), rec.b_frames.len()));
        let totals = src.totals();
        assert_eq!(totals.anchor_bytes, rec.anchor_bytes);
        assert_eq!(totals.b_bytes, rec.b_bytes);
    }

    #[test]
    fn strict_source_live_frames_are_bounded_by_window() {
        let bs = tiny_bitstream();
        let mut src = StrictFrameSource::new(&bs).unwrap();
        while let Some(unit) = src.next_unit() {
            unit.unwrap();
            assert!(src.live_frames() <= REF_WINDOW);
        }
        assert!(src.peak_live_frames() <= REF_WINDOW + 1);
    }

    #[test]
    fn resilient_source_pre_scan_matches_streamed_outcomes() {
        let bs = tiny_bitstream();
        let ps = crate::faults::packetize(&bs).unwrap();
        let (damaged, _) = crate::faults::inject(&ps, &crate::faults::FaultConfig::uniform(0.4, 5));
        let res = Decoder::new()
            .decode_recognition_resilient(&damaged)
            .unwrap();
        let mut src = ResilientFrameSource::new(&damaged).unwrap();
        let mut outcomes = Vec::new();
        while let Some(unit) = src.next_unit() {
            let unit = unit.unwrap();
            outcomes.push((unit.decode_idx, unit.ftype, unit.display(), unit.outcome));
        }
        let expected: Vec<_> = res
            .outcomes
            .iter()
            .map(|o| (o.decode_idx, o.ftype, o.display, o.outcome.clone()))
            .collect();
        assert_eq!(outcomes, expected);
    }
}
