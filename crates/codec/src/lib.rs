//! # vrd-codec — a block-based hybrid video codec with exposed motion vectors
//!
//! Substrate crate of the VR-DANN reproduction (MICRO 2020), standing in for
//! FFmpeg's H.264/H.265 implementations (see `DESIGN.md` §2). It provides
//! everything the paper's algorithm taps from a standards decoder:
//!
//! * I/P/B **GOP planning** with motion-adaptive B-runs ([`GopPlan`]) — the
//!   source of the per-video B-frame ratios in Fig. 3(a);
//! * SAE-driven **intra prediction** and **three-step inter motion search**
//!   over a configurable reference interval `n` (Fig. 16's knob);
//! * **bi-prediction** for B-frames with the `bi-ref` flag ([`MvRecord`]);
//! * a real serialised **bitstream** — one macro-block record codec
//!   (`BlockMode`) — decodable in two modes: [`Decoder::decode`] (all
//!   pixels) and a pulled [`FrameSource`] (anchor pixels + B-frame motion
//!   vectors only — the VR-DANN fast path), strict
//!   ([`StrictFrameSource`]) or damage-tolerant ([`ResilientFrameSource`]);
//! * the **H.264 vs H.265 profile split** (16- vs 8-pixel macro-blocks,
//!   9 vs 14 intra modes) behind Fig. 17.
//!
//! ## Example
//!
//! ```
//! use vrd_codec::{CodecConfig, Encoder, FrameSource, StrictFrameSource, UnitPayload};
//! use vrd_video::davis::{davis_sequence, SuiteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seq = davis_sequence("cows", &SuiteConfig::tiny())?;
//! let encoded = Encoder::new(CodecConfig::default()).encode(&seq.frames)?;
//! println!("B-frame ratio: {:.0}%", encoded.stats.b_ratio() * 100.0);
//!
//! // VR-DANN's path: anchors decoded, B-frames as motion vectors, pulled
//! // one frame at a time in decode order.
//! let mut source = StrictFrameSource::new(&encoded.bitstream)?;
//! let mut b_frames = 0;
//! while let Some(unit) = source.next_unit() {
//!     if let UnitPayload::Motion(_) = unit?.payload {
//!         b_frames += 1;
//!     }
//! }
//! assert_eq!(b_frames, encoded.stats.b_frames);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod bitstream;
mod block;
mod config;
pub mod decoder;
mod encoder;
mod error;
pub mod faults;
mod gop;
mod intra;
mod me;
mod motion;
mod stats;
mod stream;
mod types;

pub use config::{BFrameMode, CodecConfig, SearchInterval, Standard};
pub use decoder::{ConcealReason, DecodeOutcome, Decoder};
pub use encoder::{EncodedVideo, Encoder};
pub use error::{CodecError, Result};
pub use faults::{inject, packetize, FaultConfig, FaultKind, PacketStream};
pub use gop::GopPlan;
pub use stats::EncodeStats;
pub use stream::{
    DecodedUnit, FrameSource, ResilientFrameSource, StreamInfo, StreamTotals, StrictFrameSource,
    UnitPayload,
};
pub use types::{FrameMeta, FrameType, MvRecord, RefMv};
