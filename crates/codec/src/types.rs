//! Core codec vocabulary: frame types, motion-vector records and per-frame
//! metadata.
//!
//! [`MvRecord`] mirrors one entry of the paper's `mv_T` table (Fig. 8): the
//! destination macro-block coordinates in the current B-frame, one or two
//! reference frames with source coordinates, and the `bi-ref` flag implied by
//! the presence of the second reference.

/// H.26x frame classification (§II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameType {
    /// Intra-coded frame: every macro-block predicted within the frame.
    I,
    /// Predicted frame: macro-blocks reference previously decoded anchors.
    P,
    /// Bi-directionally predicted frame: macro-blocks reference anchors both
    /// before and after it in display order.
    B,
}

impl FrameType {
    /// Whether this frame can serve as a reference for B-frames (I and P
    /// frames — "anchors" throughout this codebase).
    pub fn is_anchor(self) -> bool {
        matches!(self, FrameType::I | FrameType::P)
    }
}

impl std::fmt::Display for FrameType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameType::I => "I",
            FrameType::P => "P",
            FrameType::B => "B",
        };
        f.write_str(s)
    }
}

/// One motion-vector reference: which frame, and the source block position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefMv {
    /// Display index of the referenced (anchor) frame.
    pub frame: u32,
    /// Source x of the reference block's top-left corner, in pixels.
    pub src_x: i32,
    /// Source y of the reference block's top-left corner, in pixels.
    pub src_y: i32,
}

/// A motion-vector table entry for one macro-block of a B-frame (or P-frame),
/// equivalent to one `mv_T` row in the paper's agent unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MvRecord {
    /// Destination x of the block's top-left corner in the current frame.
    pub dst_x: u32,
    /// Destination y of the block's top-left corner in the current frame.
    pub dst_y: u32,
    /// First (always present) reference.
    pub ref0: RefMv,
    /// Second reference for bi-predicted blocks (the paper's `bi-ref` bit is
    /// `self.ref1.is_some()`).
    pub ref1: Option<RefMv>,
}

impl MvRecord {
    /// Motion magnitude of the first reference in pixels.
    pub fn magnitude(&self) -> f64 {
        let dx = (self.ref0.src_x - self.dst_x as i32) as f64;
        let dy = (self.ref0.src_y - self.dst_y as i32) as f64;
        (dx * dx + dy * dy).sqrt()
    }
}

/// One motion vector as a macro-block record carries it: the referenced
/// frame and the displacement from the block's own position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockMv {
    /// Display index of the referenced frame.
    pub frame: u32,
    /// Horizontal displacement of the source block, in pixels.
    pub dx: i32,
    /// Vertical displacement of the source block, in pixels.
    pub dy: i32,
}

impl BlockMv {
    /// The vector resolved against the block at `(bx, by)`. Wrapping, so a
    /// corrupt displacement becomes an out-of-frame source (which every
    /// consumer rejects or clamps) instead of an overflow.
    pub(crate) fn at(self, bx: usize, by: usize) -> RefMv {
        RefMv {
            frame: self.frame,
            src_x: (bx as i32).wrapping_add(self.dx),
            src_y: (by as i32).wrapping_add(self.dy),
        }
    }

    /// Displacement magnitude in pixels.
    pub(crate) fn magnitude(self) -> f64 {
        let (dx, dy) = (self.dx as f64, self.dy as f64);
        (dx * dx + dy * dy).sqrt()
    }
}

/// One macro-block record of the bitstream: how the block was predicted.
/// The residual that follows it on the wire is not part of the record — the
/// reader decides whether to decode, validate or skip it.
/// [`BlockMode::write`] and `Reader::record` (in [`crate::bitstream`]) are
/// the only code that knows the wire layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BlockMode {
    /// Intra prediction with the given mode index.
    Intra(u8),
    /// Single-reference inter prediction.
    Inter(BlockMv),
    /// Bi-predicted inter prediction (B-frames only).
    Bi(BlockMv, BlockMv),
}

impl BlockMode {
    /// The record's motion vectors, wire order (none for intra blocks).
    pub(crate) fn mvs(&self) -> impl Iterator<Item = BlockMv> {
        let (first, second) = match *self {
            BlockMode::Intra(_) => (None, None),
            BlockMode::Inter(a) => (Some(a), None),
            BlockMode::Bi(a, b) => (Some(a), Some(b)),
        };
        first.into_iter().chain(second)
    }
}

/// Decode-order metadata for one frame, as exposed by the decoder's
/// "high-level parameter parser" (the information the agent unit taps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    /// Frame type.
    pub ftype: FrameType,
    /// Position in display order.
    pub display_idx: u32,
    /// Position in decode order.
    pub decode_idx: u32,
    /// Display indices of the distinct anchor frames this frame references
    /// (empty for I-frames).
    pub refs: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_type_anchors() {
        assert!(FrameType::I.is_anchor());
        assert!(FrameType::P.is_anchor());
        assert!(!FrameType::B.is_anchor());
        assert_eq!(FrameType::B.to_string(), "B");
    }

    #[test]
    fn mv_record_magnitude_follows_the_first_reference() {
        let uni = MvRecord {
            dst_x: 16,
            dst_y: 8,
            ref0: RefMv {
                frame: 0,
                src_x: 13,
                src_y: 4,
            },
            ref1: None,
        };
        assert!((uni.magnitude() - 5.0).abs() < 1e-9);
        let bi = MvRecord {
            ref1: Some(RefMv {
                frame: 4,
                src_x: 20,
                src_y: 8,
            }),
            ..uni
        };
        assert_eq!(bi.magnitude(), uni.magnitude());
    }
}
