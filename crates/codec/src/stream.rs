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
//! Two sources implement the trait, both on the one record codec and its
//! visitors in [`crate::decoder`]:
//!
//! * [`StrictFrameSource`] walks a contiguous bitstream and fails fast on
//!   corruption, naming the frame that broke;
//! * [`ResilientFrameSource`] walks a packetized, possibly damaged
//!   transport stream and never fails after the header: every packet
//!   yields a unit whose [`DecodeOutcome`] reports what was recovered.
//!
//! The resilient source runs a pixel-free *pre-scan* over the packets
//! first. Whether a packet yields anything usable only depends on
//! transport metadata and payload structure (an intact anchor that
//! validates always decodes; a B payload parses without pixels), so
//! inferred display slots for lost packets, byte totals and the
//! usable-anchor list are all known before the first unit is pulled —
//! exactly what a concealing consumer needs up front. Anchor pixels, and
//! with them whether a reference had to be substituted, follow on pull.

use crate::bitstream::Reader;
use crate::decoder::{BFrameInfo, ConcealReason, DecodeOutcome, Decoder, Fetch, Header, RefWindow};
use crate::error::Result;
use crate::faults::{FramePacket, PacketStream};
use crate::types::FrameType;
use bytes::Bytes;
use std::collections::BTreeSet;
use std::sync::Arc;
use vrd_video::Frame;

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
        /// The reconstructed pixels, shared with the source's retention
        /// window rather than copied. Dropping the payload lets the source
        /// reuse the frame's buffer once the window evicts it; a payload
        /// kept longer keeps its pixels, which are never written again.
        frame: Arc<Frame>,
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
/// B-frames to motion vectors. The first error — a
/// [`crate::CodecError::Corrupt`] naming the frame — fuses the source.
#[derive(Debug)]
pub struct StrictFrameSource {
    r: Reader<Bytes>,
    hdr: Header,
    next_decode: usize,
    window: RefWindow,
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
        let hdr = r.parse(|r| Decoder::read_header(r, None))?;
        Ok(Self {
            totals: StreamTotals {
                anchor_bytes: bitstream.len() - r.remaining(),
                ..StreamTotals::default()
            },
            r,
            hdr,
            next_decode: 0,
            window: RefWindow::default(),
            fused: false,
        })
    }

    fn step(&mut self, decode_idx: u32) -> Result<DecodedUnit> {
        let (hdr, window, totals) = (&self.hdr, &mut self.window, &mut self.totals);
        let (ftype, payload) = self.r.parse(|r| {
            let before = r.remaining();
            let (ftype, display) = Decoder::read_frame_header(r, hdr.n_frames)?;
            let payload = if ftype.is_anchor() {
                let rec = window.buffer(hdr.width, hdr.height);
                let frame = Decoder::reconstruct(r, hdr, rec, Fetch::Strict(window))?;
                let frame = Arc::new(frame);
                window.push(display, Arc::clone(&frame));
                totals.anchor_bytes += before - r.remaining();
                totals.anchors += 1;
                UnitPayload::Anchor { display, frame }
            } else {
                let (info, parsed) = Decoder::read_motion(r, hdr, display);
                parsed?;
                totals.b_bytes += before - r.remaining();
                totals.b_frames += 1;
                UnitPayload::Motion(info)
            };
            Ok((ftype, payload))
        })?;
        Ok(DecodedUnit {
            decode_idx,
            ftype,
            outcome: DecodeOutcome::Ok,
            payload,
        })
    }
}

impl FrameSource for StrictFrameSource {
    fn info(&self) -> StreamInfo {
        self.hdr.info()
    }

    fn next_unit(&mut self) -> Option<Result<DecodedUnit>> {
        if self.fused || self.next_decode >= self.hdr.n_frames {
            return None;
        }
        let decode_idx = self.next_decode as u32;
        self.next_decode += 1;
        let unit = self.step(decode_idx).map_err(|e| e.in_frame(decode_idx));
        self.fused = unit.is_err();
        Some(unit)
    }

    fn live_frames(&self) -> usize {
        self.window.live()
    }

    fn peak_live_frames(&self) -> usize {
        self.window.peak_live()
    }

    fn totals(&self) -> StreamTotals {
        self.totals
    }
}

/// What the pre-scan found in one packet of a resilient stream.
#[derive(Debug)]
enum Plan {
    /// Nothing usable; the display slot when it could be read or inferred.
    Lost(Option<u32>),
    /// An intact anchor (by display index) whose payload validated; its
    /// pixels decode on pull.
    Anchor(u32),
    /// A parsed (possibly salvaged) B payload and how it came out.
    Motion(BFrameInfo, DecodeOutcome),
}

/// Resilient streaming decode of a packetized, possibly damaged transport
/// stream. Never errors after construction: every packet yields a unit.
#[derive(Debug)]
pub struct ResilientFrameSource<'a> {
    stream: &'a PacketStream,
    hdr: Header,
    pos: usize,
    plans: Vec<Plan>,
    usable_anchors: Vec<u32>,
    window: RefWindow,
    totals: StreamTotals,
}

impl<'a> ResilientFrameSource<'a> {
    /// Pre-scans a packet stream and prepares streaming decode.
    ///
    /// # Errors
    /// Returns [`crate::CodecError::Bitstream`] only if the *stream header*
    /// is unusable — packet damage is reported per unit, never as an `Err`.
    pub fn new(stream: &'a PacketStream) -> Result<Self> {
        let mut hr = Reader::new(&stream.header[..]);
        let hdr = Decoder::read_header(&mut hr, Some(Decoder::MAX_FRAMES))?;

        let mut totals = StreamTotals {
            anchor_bytes: stream.header.len(),
            ..StreamTotals::default()
        };
        let mut plans = Vec::with_capacity(stream.packets.len());
        let mut usable_anchors = Vec::new();
        let mut claimed = BTreeSet::new();
        for packet in &stream.packets {
            let plan = Self::scan_packet(packet, &hdr, &claimed);
            match &plan {
                Plan::Anchor(display) => {
                    claimed.insert(*display);
                    usable_anchors.push(*display);
                    totals.anchor_bytes += packet.payload.len();
                    totals.anchors += 1;
                }
                Plan::Motion(info, _) => {
                    claimed.insert(info.display_idx);
                    totals.b_bytes += packet.payload.len();
                    totals.b_frames += 1;
                }
                Plan::Lost(_) => {}
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
            if let Plan::Lost(display @ None) = plan {
                *display = missing.pop();
            }
        }

        Ok(Self {
            stream,
            hdr,
            pos: 0,
            plans,
            usable_anchors,
            window: RefWindow::default(),
            totals,
        })
    }

    /// Display indices of every anchor that will decode usably, in decode
    /// order — known before the first unit is pulled, so a concealing
    /// consumer can establish its reference set up front.
    pub fn usable_anchor_displays(&self) -> &[u32] {
        &self.usable_anchors
    }

    /// Decides, without touching pixels, what one packet will yield. Anchor
    /// payloads are only used when intact (original encoder bytes) and
    /// structurally valid; B payloads are parsed outright and kept.
    fn scan_packet(packet: &FramePacket, hdr: &Header, claimed: &BTreeSet<u32>) -> Plan {
        if packet.lost {
            return Plan::Lost(None);
        }
        let intact = packet.intact();
        let mut r = Reader::new(&packet.payload[..]);

        // Frame header: type byte + display index. If it is unreadable or
        // contradicts the transport metadata, nothing in the payload can be
        // trusted.
        let Ok((ftype, display)) = Decoder::read_frame_header(&mut r, hdr.n_frames) else {
            return Plan::Lost(None);
        };
        if ftype != packet.ftype || claimed.contains(&display) {
            return Plan::Lost(None);
        }

        if ftype.is_anchor() {
            // Damaged anchor pixels would silently poison NN-L and all
            // B-frames referencing them; treat the frame as lost.
            if intact && Decoder::scan_anchor(&mut r, hdr).is_ok() {
                Plan::Anchor(display)
            } else {
                Plan::Lost(Some(display))
            }
        } else {
            let (info, parsed) = Decoder::read_motion(&mut r, hdr, display);
            let parsed_blocks = info.mvs.len() + info.intra_blocks.len();
            let outcome = match (intact, parsed) {
                (true, Ok(())) => DecodeOutcome::Ok,
                (false, Ok(())) => DecodeOutcome::Concealed(ConcealReason::SuspectPayload),
                (_, Err(_)) if parsed_blocks > 0 => {
                    DecodeOutcome::Concealed(ConcealReason::PartialMvs {
                        parsed: parsed_blocks,
                        total: (hdr.width / hdr.mb()) * (hdr.height / hdr.mb()),
                    })
                }
                (_, Err(_)) => return Plan::Lost(Some(display)),
            };
            Plan::Motion(info, outcome)
        }
    }

    /// Decodes the pixels of a pre-scanned usable anchor packet into the
    /// retention window, reporting whether a reference was substituted.
    fn decode_anchor(&mut self, packet: &FramePacket, display: u32) -> Result<(Arc<Frame>, bool)> {
        let mut r = Reader::new(&packet.payload[..]);
        Decoder::read_frame_header(&mut r, self.hdr.n_frames)?;
        let rec = self.window.buffer(self.hdr.width, self.hdr.height);
        let mut substituted = false;
        let fetch = Fetch::Concealed(&self.window, &mut substituted);
        let frame = Decoder::reconstruct(&mut r, &self.hdr, rec, fetch)?;
        let frame = Arc::new(frame);
        self.window.push(display, Arc::clone(&frame));
        Ok((frame, substituted))
    }
}

impl FrameSource for ResilientFrameSource<'_> {
    fn info(&self) -> StreamInfo {
        self.hdr.info()
    }

    fn next_unit(&mut self) -> Option<Result<DecodedUnit>> {
        let packet = self.stream.packets.get(self.pos)?;
        let plan = std::mem::replace(&mut self.plans[self.pos], Plan::Lost(None));
        self.pos += 1;
        let lost = |display| (DecodeOutcome::Lost, UnitPayload::Skipped { display });
        let (outcome, payload) = match plan {
            Plan::Lost(display) => lost(display),
            Plan::Motion(info, outcome) => (outcome, UnitPayload::Motion(info)),
            Plan::Anchor(display) => match self.decode_anchor(packet, display) {
                Ok((frame, substituted)) => {
                    let outcome = if substituted {
                        DecodeOutcome::Concealed(ConcealReason::MissingReference)
                    } else {
                        DecodeOutcome::Ok
                    };
                    (outcome, UnitPayload::Anchor { display, frame })
                }
                // Unreachable: the pre-scan validated these very records
                // and a concealing fetch cannot fail. Were it ever reached,
                // the unit at least says what it carries.
                Err(_) => lost(Some(display)),
            },
        };
        Some(Ok(DecodedUnit {
            decode_idx: packet.decode_idx,
            ftype: packet.ftype,
            outcome,
            payload,
        }))
    }

    fn live_frames(&self) -> usize {
        self.window.live()
    }

    fn peak_live_frames(&self) -> usize {
        self.window.peak_live()
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
    use crate::decoder::REF_WINDOW;
    use crate::encoder::Encoder;
    use crate::Decoder;
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

    /// Pulls `src` dry, holding the anchor payloads `hold` picks by their
    /// position among the anchors and dropping the rest at once. Returns
    /// every anchor's display index and pixels as handed over, after
    /// checking that each held frame still has those pixels at the end.
    fn pull_anchors(mut src: impl FrameSource, hold: fn(usize) -> bool) -> Vec<(u32, Vec<u8>)> {
        let (mut seen, mut held) = (Vec::new(), Vec::new());
        while let Some(unit) = src.next_unit() {
            if let UnitPayload::Anchor { display, frame } = unit.unwrap().payload {
                if hold(seen.len()) {
                    held.push((seen.len(), Arc::clone(&frame)));
                }
                seen.push((display, frame.as_slice().to_vec()));
            }
        }
        for (k, frame) in &held {
            assert!(frame.as_slice() == seen[*k].1, "held anchor {k} rewritten");
        }
        seen
    }

    #[test]
    fn recycled_anchor_buffers_decode_the_same_and_spare_held_frames() {
        // Anchor-only, so that three window lengths of anchors are evicted
        // and their buffers offered for reuse.
        let frames = davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames;
        let frames: Vec<_> = frames
            .iter()
            .cycle()
            .take(3 * REF_WINDOW)
            .cloned()
            .collect();
        let bits = Encoder::new(CodecConfig {
            b_frames: BFrameMode::Fixed(0),
            ..CodecConfig::default()
        })
        .encode(&frames)
        .unwrap()
        .bitstream;
        let full = Decoder::new().decode(&bits).unwrap();
        let packets = crate::faults::packetize(&bits).unwrap();
        let (damaged, _) =
            crate::faults::inject(&packets, &crate::faults::FaultConfig::uniform(0.3, 5));
        let holds: [fn(usize) -> bool; 3] = [|_| true, |_| false, |k| k % 2 == 0];
        let strict = holds.map(|hold| pull_anchors(StrictFrameSource::new(&bits).unwrap(), hold));
        assert_eq!(strict[0].len(), 3 * REF_WINDOW);
        for (display, pixels) in &strict[0] {
            assert!(
                pixels == full.frames[*display as usize].as_slice(),
                "anchor {display}"
            );
        }
        let clean =
            holds.map(|hold| pull_anchors(ResilientFrameSource::new(&packets).unwrap(), hold));
        let faulted =
            holds.map(|hold| pull_anchors(ResilientFrameSource::new(&damaged).unwrap(), hold));
        for runs in [strict, clean, faulted] {
            assert!(
                runs[0].len() > REF_WINDOW + 1,
                "no buffer was offered for reuse"
            );
            assert!(
                runs[1] == runs[0],
                "dropping every anchor at once moved a pixel"
            );
            assert!(
                runs[2] == runs[0],
                "holding every other anchor moved a pixel"
            );
        }
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
}
