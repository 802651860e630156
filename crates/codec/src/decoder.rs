//! The decoder: one record walk, four ways through it.
//!
//! Every frame payload is a raster of macro-block records
//! (`Reader::record`, the only code that reads the wire layout), each
//! followed by its residual, parsed through one cursor over the payload's
//! borrowed bytes. `Decoder::for_each_block` walks that raster for three
//! visitors; pixel reconstruction walks it the same way with its block
//! work inlined into the loop:
//!
//! * **pixel reconstruction** (`reconstruct`) — residuals decoded, each
//!   motion vector resolved against the `RefWindow` of retained anchors
//!   either strictly ([`Decoder::decode`], [`crate::StrictFrameSource`]) or
//!   with concealment ([`crate::ResilientFrameSource`]);
//! * **motion-vector extraction** (`read_motion`) — the VR-DANN mode (§I,
//!   Fig. 1): only a B-frame's MV records and block metadata are kept; its
//!   residuals are *skipped*, never dequantised, and no B pixels are
//!   produced;
//! * **anchor validation** (`scan_anchor`) — the resilient source's
//!   pixel-free pre-scan;
//! * **summary** ([`Decoder::inspect`]) — the `vrdstat` inspector's engine.
//!
//! [`Decoder::decode`] is the conventional full decode (every frame to
//! pixels — what OSVOS/FAVOS/DFF consume); the recognition mode is pulled
//! one frame at a time from a [`crate::FrameSource`].

use crate::bitstream::{Reader, MAGIC, VERSION};
use crate::config::{Standard, MAX_MB_SIZE};
use crate::error::{CodecError, Result};
use crate::intra;
use crate::stream::StreamInfo;
use crate::types::{BlockMode, BlockMv, FrameMeta, FrameType, MvRecord};
use bytes::Bytes;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use vrd_video::Frame;

/// A fully decoded sequence.
#[derive(Debug, Clone)]
pub struct DecodedVideo {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Macro-block size the stream was coded with.
    pub mb_size: usize,
    /// Reconstructed frames in display order.
    pub frames: Vec<Frame>,
    /// Per-frame metadata in decode order.
    pub metas: Vec<FrameMeta>,
}

/// Motion-vector payload of one B-frame (what the agent unit loads into
/// `mv_T`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BFrameInfo {
    /// Display index of the B-frame.
    pub display_idx: u32,
    /// Motion-vector records for inter/bi blocks.
    pub mvs: Vec<MvRecord>,
    /// Top-left coordinates of intra-coded blocks (no motion information;
    /// the reconstruction layer decides how to fill them).
    pub intra_blocks: Vec<(u32, u32)>,
}

/// Per-frame summary produced by [`Decoder::inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSummary {
    /// Frame type.
    pub ftype: FrameType,
    /// Display index.
    pub display_idx: u32,
    /// Decode index.
    pub decode_idx: u32,
    /// Bitstream bytes of this frame.
    pub bytes: usize,
    /// Intra-coded macro-blocks.
    pub intra_blocks: usize,
    /// Single-reference macro-blocks.
    pub inter_blocks: usize,
    /// Bi-predicted macro-blocks.
    pub bi_blocks: usize,
    /// Sum of motion-vector magnitudes (see [`FrameSummary::mean_mv`]).
    pub mv_magnitude_sum: f64,
    /// Distinct reference frames used.
    pub refs: BTreeSet<u32>,
}

impl FrameSummary {
    /// Mean motion-vector magnitude in pixels (0 for all-intra frames).
    pub fn mean_mv(&self) -> f64 {
        let n = self.inter_blocks + 2 * self.bi_blocks;
        if n == 0 {
            0.0
        } else {
            self.mv_magnitude_sum / n as f64
        }
    }
}

/// Stream header shared by every reader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) width: usize,
    pub(crate) height: usize,
    pub(crate) n_frames: usize,
    pub(crate) standard: Standard,
    pub(crate) quant: i32,
}

impl Header {
    /// Macro-block edge in pixels.
    pub(crate) fn mb(&self) -> usize {
        self.standard.mb_size()
    }

    pub(crate) fn info(&self) -> StreamInfo {
        StreamInfo {
            width: self.width,
            height: self.height,
            mb_size: self.mb(),
            n_frames: self.n_frames,
        }
    }
}

/// Reconstructed anchors retained for reference. The encoder never
/// references further back than the nearest 9 anchors
/// ([`crate::SearchInterval`] is clamped to 1..=9, `Auto` resolves to 7),
/// so a 10-deep window always holds every frame a valid stream can ask
/// for — and bounds a reader's live pixel memory regardless of sequence
/// length.
pub(crate) const REF_WINDOW: usize = 10;

/// The last [`REF_WINDOW`] reconstructed anchors in decode order: the only
/// frames a record's motion vector can be resolved against.
///
/// Each anchor is shared with whoever it was handed to, not copied. An
/// evicted anchor that nobody else holds any more is kept as the next
/// reconstruction's buffer ([`RefWindow::buffer`]); one still held is left
/// to its holder, so a frame handed out is never written again.
#[derive(Debug, Default)]
pub(crate) struct RefWindow {
    anchors: VecDeque<(u32, Arc<Frame>)>,
    spare: Option<Frame>,
    peak_live: usize,
}

impl RefWindow {
    /// Retains a reconstructed anchor, evicting the oldest beyond the window.
    pub(crate) fn push(&mut self, display: u32, frame: impl Into<Arc<Frame>>) {
        self.anchors.push_back((display, frame.into()));
        if self.anchors.len() > REF_WINDOW {
            if let Some((_, evicted)) = self.anchors.pop_front() {
                self.spare = Arc::try_unwrap(evicted).ok();
            }
        }
        self.peak_live = self.peak_live.max(self.anchors.len() + 1);
    }

    /// A `width`×`height` frame to reconstruct the next anchor into: the
    /// last evicted anchor when nobody else held it, else a new frame. Its
    /// pixels are stale, which [`Decoder::reconstruct`] allows: it writes
    /// every pixel's prediction before adding the residual.
    pub(crate) fn buffer(&mut self, width: usize, height: usize) -> Frame {
        match self.spare.take() {
            Some(f) if (f.width(), f.height()) == (width, height) => f,
            _ => Frame::new(width, height),
        }
    }

    /// Anchors currently held.
    pub(crate) fn live(&self) -> usize {
        self.anchors.len()
    }

    /// High-water mark of held anchors plus the one being handed over.
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    fn get(&self, display: u32) -> Option<&Frame> {
        let hit = self.anchors.iter().rev().find(|(d, _)| *d == display);
        hit.map(|(_, f)| &**f)
    }

    /// Strict fetch: a reference outside the window or a vector leaving the
    /// frame is an error.
    #[inline(always)]
    pub(crate) fn fetch(
        &self,
        mv: BlockMv,
        bx: usize,
        by: usize,
        mb: usize,
    ) -> Result<RefBlock<'_>> {
        let f = self.get(mv.frame).ok_or_else(|| {
            CodecError::Bitstream(format!("reference {} not yet decoded", mv.frame))
        })?;
        let src = mv.at(bx, by);
        let inside = |s: i32, edge: usize| s >= 0 && s as usize + mb <= edge;
        if !inside(src.src_x, f.width()) || !inside(src.src_y, f.height()) {
            return Err(CodecError::Bitstream("motion vector out of frame".into()));
        }
        Ok(RefBlock::at(f, src.src_x as usize, src.src_y as usize))
    }

    /// Concealing fetch: a reference that never arrived is replaced by the
    /// nearest held anchor by display distance (the lower index wins ties),
    /// or flat mid-gray when none is held, and source coordinates are
    /// clamped into the frame. Sets `substituted` when it had to replace.
    #[inline(always)]
    pub(crate) fn fetch_concealed(
        &self,
        mv: BlockMv,
        bx: usize,
        by: usize,
        mb: usize,
        substituted: &mut bool,
    ) -> RefBlock<'_> {
        let source = self.get(mv.frame).or_else(|| {
            *substituted = true;
            let nearest = self
                .anchors
                .iter()
                .min_by_key(|(d, _)| (d.abs_diff(mv.frame), *d));
            nearest.map(|(_, f)| &**f)
        });
        let Some(f) = source else {
            return RefBlock::FLAT;
        };
        let src = mv.at(bx, by);
        let sx = src.src_x.clamp(0, (f.width() - mb) as i32) as usize;
        let sy = src.src_y.clamp(0, (f.height() - mb) as i32) as usize;
        RefBlock::at(f, sx, sy)
    }
}

/// How [`Decoder::reconstruct`] resolves a block's motion vector against the
/// anchors of a window. One enum rather than a closure per caller, so that
/// the fetch is inlined into the block loop, not called through it.
#[derive(Debug)]
pub(crate) enum Fetch<'w> {
    /// [`RefWindow::fetch`].
    Strict(&'w RefWindow),
    /// [`RefWindow::fetch`], collecting every reference it resolves.
    Collect(&'w RefWindow, &'w mut BTreeSet<u32>),
    /// [`RefWindow::fetch_concealed`], noting whether it substituted one.
    Concealed(&'w RefWindow, &'w mut bool),
}

impl<'w> Fetch<'w> {
    /// The reference block of `mv` for the `mb`-pixel block at `(bx, by)`.
    #[inline(always)]
    fn block(&mut self, mv: BlockMv, bx: usize, by: usize, mb: usize) -> Result<RefBlock<'w>> {
        match self {
            Fetch::Strict(window) => window.fetch(mv, bx, by, mb),
            Fetch::Collect(window, refs) => {
                refs.insert(mv.frame);
                window.fetch(mv, bx, by, mb)
            }
            Fetch::Concealed(window, substituted) => {
                Ok(window.fetch_concealed(mv, bx, by, mb, substituted))
            }
        }
    }
}

/// Where a motion vector's reference block lives, so that it can be read
/// straight into the frame being reconstructed: each row is `mb` pixels of
/// `pixels`, the first at `start`, each next one `stride` further on. A
/// held anchor's block strides by the anchor's width; flat mid-gray is one
/// row of 128 read for every row (stride 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RefBlock<'a> {
    pixels: &'a [u8],
    start: usize,
    stride: usize,
}

impl<'a> RefBlock<'a> {
    /// Flat mid-gray: the prediction when no anchor is held.
    const FLAT: RefBlock<'static> = RefBlock {
        pixels: &[128; MAX_MB_SIZE],
        start: 0,
        stride: 0,
    };

    /// The block of `frame` whose top-left pixel is `(x, y)`; the caller
    /// has validated or clamped that origin into the frame.
    fn at(frame: &'a Frame, x: usize, y: usize) -> Self {
        Self {
            pixels: frame.as_slice(),
            start: y * frame.width() + x,
            stride: frame.width(),
        }
    }

    /// Row `row` of an `MB`×`MB` block.
    fn row<const MB: usize>(&self, row: usize) -> &'a [u8] {
        let s = self.start + row * self.stride;
        &self.pixels[s..s + MB]
    }
}

/// `v.clamp(0, 255)` without a branch, for `|v| < 2³⁰`: whether a
/// residual saturates a pixel follows the picture, not a pattern a branch
/// predictor could learn. A negative `v` is masked to 0, and one above 255
/// becomes all ones, whose low byte is 255.
fn clamp_byte(v: i32) -> u8 {
    let v = v & !(v >> 31);
    (v | ((255 - v) >> 31)) as u8
}

/// Writes one `MB`-pixel row of a block, `src`, at `px[start..]`: after
/// inlining, one fixed-size copy after one bounds check.
fn write_row<const MB: usize>(px: &mut [u8], start: usize, src: &[u8]) {
    px[start..start + MB].copy_from_slice(src);
}

/// One frame's reconstruction in progress ([`Decoder::reconstruct`]): the
/// frame, how its motion vectors resolve, and the intra prediction buffer.
struct Pixels<'w, const MB: usize> {
    rec: Frame,
    fetch: Fetch<'w>,
    intra_pred: [[u8; MB]; MB],
    quant: i32,
}

impl<const MB: usize> Pixels<'_, MB> {
    /// Predicts the block at `(bx, by)` from its record straight into the
    /// frame, one fixed-size row at a time, then adds the residual the
    /// reader is parked on in place.
    #[inline(always)]
    fn block(
        &mut self,
        bx: usize,
        by: usize,
        record: BlockMode,
        r: &mut Reader<&[u8]>,
    ) -> Result<()> {
        let width = self.rec.width();
        let origin = by * width + bx;
        let row_at = |row: usize| origin + row * width;
        match record {
            BlockMode::Intra(mode) => {
                let pred = self.intra_pred.as_flattened_mut();
                intra::predict_into(&self.rec, bx, by, MB, mode, pred);
                let px = self.rec.as_mut_slice();
                for (row, src) in self.intra_pred.iter().enumerate() {
                    write_row::<MB>(px, row_at(row), src);
                }
            }
            BlockMode::Inter(mv) => {
                let src = self.fetch.block(mv, bx, by, MB)?;
                let px = self.rec.as_mut_slice();
                for row in 0..MB {
                    write_row::<MB>(px, row_at(row), src.row::<MB>(row));
                }
            }
            BlockMode::Bi(a, b) => {
                let a = self.fetch.block(a, bx, by, MB)?;
                let b = self.fetch.block(b, bx, by, MB)?;
                let px = self.rec.as_mut_slice();
                for row in 0..MB {
                    let (x, y) = (a.row::<MB>(row), b.row::<MB>(row));
                    let mean: [u8; MB] =
                        std::array::from_fn(|i| (x[i] as u16 + y[i] as u16).div_ceil(2) as u8);
                    write_row::<MB>(px, row_at(row), &mean);
                }
            }
        }
        let (px, quant) = (self.rec.as_mut_slice(), self.quant);
        r.read_residual(MB * MB, |idx, val| {
            let p = &mut px[origin + (idx / MB) * width + idx % MB];
            *p = clamp_byte(*p as i32 + (val as i16) as i32 * quant);
        })
    }
}

/// Video decoder. Stateless; create once and reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self
    }

    /// Largest frame edge the decoder accepts. A corrupt header must fail
    /// here, with context, instead of driving a multi-gigabyte allocation.
    pub(crate) const MAX_DIMENSION: u64 = 1 << 14;

    /// Largest frame count the decoder accepts when the header arrives
    /// without its payload (packetized transport), where the tighter
    /// bytes-remaining bound cannot apply.
    pub(crate) const MAX_FRAMES: u64 = 1 << 20;

    /// Reads the stream header. `frames_cap` overrides the frame-count
    /// bound; `None` uses the contiguous-stream rule (every frame costs at
    /// least two bytes of what remains in this buffer).
    pub(crate) fn read_header(r: &mut Reader<&[u8]>, frames_cap: Option<u64>) -> Result<Header> {
        for expected in MAGIC {
            if r.get_u8()? != expected {
                return Err(CodecError::Bitstream("bad magic".into()));
            }
        }
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(CodecError::Bitstream(format!(
                "unsupported version {version}"
            )));
        }
        let width = r.get_varint_bounded(Self::MAX_DIMENSION, "frame width")? as usize;
        let height = r.get_varint_bounded(Self::MAX_DIMENSION, "frame height")? as usize;
        // Every frame costs at least two bytes (type + display index), so a
        // frame count beyond that is structurally impossible in a
        // contiguous stream.
        let cap = frames_cap.unwrap_or(r.remaining() as u64 / 2);
        let n_frames = r.get_varint_bounded(cap, "frame count")? as usize;
        let standard = match r.get_u8()? {
            0 => Standard::H264,
            1 => Standard::H265,
            s => {
                return Err(CodecError::Bitstream(format!("unknown standard {s}")));
            }
        };
        let quant = r.get_u8()? as i32;
        if width == 0
            || height == 0
            || !width.is_multiple_of(standard.mb_size())
            || !height.is_multiple_of(standard.mb_size())
        {
            return Err(CodecError::Bitstream("inconsistent dimensions".into()));
        }
        if quant == 0 {
            return Err(CodecError::Bitstream("zero quantiser".into()));
        }
        Ok(Header {
            width,
            height,
            n_frames,
            standard,
            quant,
        })
    }

    pub(crate) fn read_frame_header(
        r: &mut Reader<&[u8]>,
        n_frames: usize,
    ) -> Result<(FrameType, u32)> {
        let ftype = match r.get_u8()? {
            0 => FrameType::I,
            1 => FrameType::P,
            2 => FrameType::B,
            t => return Err(CodecError::Bitstream(format!("unknown frame type {t}"))),
        };
        let display = r.get_varint()? as usize;
        if display >= n_frames {
            return Err(CodecError::Bitstream(format!(
                "display index {display} out of range"
            )));
        }
        Ok((ftype, display as u32))
    }

    /// The one raster walk over a frame's macro-block records. `visit` gets
    /// each block's position and parsed record with the reader parked on
    /// the block's residual, which it must consume (decode, validate or
    /// skip). Inlined into each caller, so that its visitor can be too.
    #[inline(always)]
    fn for_each_block(
        r: &mut Reader<&[u8]>,
        hdr: &Header,
        mut visit: impl FnMut(usize, usize, BlockMode, &mut Reader<&[u8]>) -> Result<()>,
    ) -> Result<()> {
        let (mb, max_ref) = (hdr.mb(), BlockMode::max_reference(hdr.n_frames)?);
        for by in (0..hdr.height).step_by(mb) {
            for bx in (0..hdr.width).step_by(mb) {
                let record = r.record(max_ref)?;
                visit(bx, by, record, r)?;
            }
        }
        Ok(())
    }

    /// Decodes one frame's payload to pixels in `rec`, a frame of the
    /// stream's size whose pixels may be stale; `fetch` resolves a block's
    /// motion vector to where its reference block lives (strictly or with
    /// concealment — see [`RefWindow`]).
    ///
    /// Each block is predicted straight into the frame — reference rows
    /// copied (inter) or averaged (bi), an intra prediction made in one
    /// reused buffer and copied — and its residual is then added in place,
    /// one coded coefficient at a time. No block allocates.
    ///
    /// Why adding only the coded coefficients gives the dense result,
    /// `px = clamp(pred + q * quant, 0, 255)` over all `mb²` coefficients
    /// `q` (zero where no pair lands, [`reference::decode`]): for `q == 0`
    /// that is `clamp(pred, 0, 255)`, which is `pred` itself because every
    /// prediction is a byte, so only coded coefficients can move a pixel.
    /// [`Reader::read_residual`] hands those over with strictly increasing
    /// indices, so no pixel is written twice and each one adds its own
    /// coefficient to its own prediction. A coded value applies as `i16`
    /// exactly as the dense block stores it (so one that wraps to 0 adds
    /// nothing there either). The same argument is why `rec` needs no
    /// clearing: prediction writes every pixel of a block before its
    /// residual reads one, and an intra prediction reads only the blocks
    /// above and to the left, which this frame's walk has already written.
    pub(crate) fn reconstruct<'w>(
        r: &mut Reader<&[u8]>,
        hdr: &Header,
        rec: Frame,
        fetch: Fetch<'w>,
    ) -> Result<Frame> {
        debug_assert_eq!((rec.width(), rec.height()), (hdr.width, hdr.height));
        // One body per macro-block size, so that row copies and the
        // coefficient's row and column are fixed-size operations.
        match hdr.standard {
            Standard::H264 => Self::reconstruct_mb::<16>(r, hdr, rec, fetch),
            Standard::H265 => Self::reconstruct_mb::<8>(r, hdr, rec, fetch),
        }
    }

    /// [`Decoder::reconstruct`] for `MB`×`MB` macro-blocks: the raster
    /// walk of [`Decoder::for_each_block`], with each record and its
    /// block's work in one loop body.
    fn reconstruct_mb<'w, const MB: usize>(
        r: &mut Reader<&[u8]>,
        hdr: &Header,
        rec: Frame,
        fetch: Fetch<'w>,
    ) -> Result<Frame> {
        debug_assert_eq!(MB, hdr.mb());
        let max_ref = BlockMode::max_reference(hdr.n_frames)?;
        let mut px = Pixels::<MB> {
            rec,
            fetch,
            intra_pred: [[0; MB]; MB],
            quant: hdr.quant,
        };
        for by in (0..hdr.height).step_by(MB) {
            for bx in (0..hdr.width).step_by(MB) {
                // Two calls, so that a fast-path record reaches the block
                // in registers rather than through the general path's
                // returned value.
                match r.fast_record(max_ref) {
                    Some(record) => px.block(bx, by, record, r)?,
                    None => {
                        let record = r.read_record(max_ref)?;
                        px.block(bx, by, record, r)?;
                    }
                }
            }
        }
        Ok(px.rec)
    }

    /// Parses one B-frame's block records, raster order, skipping every
    /// residual. The payload comes back even when the parse fails: every
    /// record in it was fully read and validated, so a caller that tolerates
    /// corruption keeps the prefix parsed before the error.
    pub(crate) fn read_motion(
        r: &mut Reader<&[u8]>,
        hdr: &Header,
        display_idx: u32,
    ) -> (BFrameInfo, Result<()>) {
        let blocks = (hdr.width / hdr.mb()) * (hdr.height / hdr.mb());
        let mut info = BFrameInfo {
            display_idx,
            mvs: Vec::with_capacity(blocks),
            intra_blocks: Vec::new(),
        };
        let len = hdr.mb() * hdr.mb();
        let parsed = Self::for_each_block(r, hdr, |bx, by, record, r| {
            r.skip_residual(len)?;
            let (ref0, ref1) = match record {
                BlockMode::Intra(_) => {
                    info.intra_blocks.push((bx as u32, by as u32));
                    return Ok(());
                }
                BlockMode::Inter(a) => (a, None),
                BlockMode::Bi(a, b) => (a, Some(b)),
            };
            info.mvs.push(MvRecord {
                dst_x: bx as u32,
                dst_y: by as u32,
                ref0: ref0.at(bx, by),
                ref1: ref1.map(|mv| mv.at(bx, by)),
            });
            Ok(())
        });
        (info, parsed)
    }

    /// Walks one anchor payload without producing pixels, with the full
    /// run-length validation of [`Reader::read_residual`] (into a sink that
    /// keeps nothing) rather than the cheaper skip, so a payload that passes
    /// here reconstructs under a concealing fetch (which cannot fail).
    pub(crate) fn scan_anchor(r: &mut Reader<&[u8]>, hdr: &Header) -> Result<()> {
        let len = hdr.mb() * hdr.mb();
        Self::for_each_block(r, hdr, |_, _, _, r| r.read_residual(len, |_, _| {}))
    }

    /// Summarises the next frame of the stream (header and payload).
    fn summarise(r: &mut Reader<&[u8]>, hdr: &Header, decode_idx: u32) -> Result<FrameSummary> {
        let before = r.remaining();
        let (ftype, display_idx) = Self::read_frame_header(r, hdr.n_frames)?;
        let mut summary = FrameSummary {
            ftype,
            display_idx,
            decode_idx,
            bytes: 0,
            intra_blocks: 0,
            inter_blocks: 0,
            bi_blocks: 0,
            mv_magnitude_sum: 0.0,
            refs: BTreeSet::new(),
        };
        let len = hdr.mb() * hdr.mb();
        Self::for_each_block(r, hdr, |_, _, record, r| {
            match record {
                BlockMode::Intra(_) => summary.intra_blocks += 1,
                BlockMode::Inter(_) => summary.inter_blocks += 1,
                BlockMode::Bi(..) => summary.bi_blocks += 1,
            }
            for mv in record.mvs() {
                summary.refs.insert(mv.frame);
                summary.mv_magnitude_sum += mv.magnitude();
            }
            r.skip_residual(len)
        })?;
        summary.bytes = before - r.remaining();
        Ok(summary)
    }

    /// Parses the stream without reconstructing any pixels, summarising
    /// each frame (the `vrdstat` inspector's engine).
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] for a malformed stream header and
    /// [`CodecError::Corrupt`] naming the frame for anything after it.
    pub fn inspect(&self, bitstream: &Bytes) -> Result<Vec<FrameSummary>> {
        let mut r = Reader::new(&bitstream[..]);
        let hdr = Self::read_header(&mut r, None)?;
        (0..hdr.n_frames as u32)
            .map(|i| Self::summarise(&mut r, &hdr, i).map_err(|e| e.in_frame(i)))
            .collect()
    }

    /// Fully decodes the bitstream (every frame to pixels).
    ///
    /// # Errors
    /// Returns [`CodecError::Bitstream`] for a malformed stream header and
    /// [`CodecError::Corrupt`] naming the frame for anything after it.
    pub fn decode(&self, bitstream: &Bytes) -> Result<DecodedVideo> {
        Self::decode_with(bitstream, |r, hdr, window, refs| {
            let rec = Frame::new(hdr.width, hdr.height);
            Self::reconstruct(r, hdr, rec, Fetch::Collect(window, refs))
        })
    }

    /// The full decode around a frame decoder: `pixels` reconstructs the
    /// payload the reader is parked on against the anchors in `window`,
    /// collecting every reference it resolves into `refs`. Each anchor is
    /// shared between the window and the output, not copied.
    fn decode_with(
        bitstream: &Bytes,
        pixels: impl Fn(&mut Reader<&[u8]>, &Header, &RefWindow, &mut BTreeSet<u32>) -> Result<Frame>,
    ) -> Result<DecodedVideo> {
        let mut r = Reader::new(&bitstream[..]);
        let hdr = Self::read_header(&mut r, None)?;
        let mut window = RefWindow::default();
        let mut frames: Vec<Option<Arc<Frame>>> = vec![None; hdr.n_frames];
        let mut metas = Vec::with_capacity(hdr.n_frames);

        for decode_idx in 0..hdr.n_frames as u32 {
            let frame = |r: &mut Reader<&[u8]>| {
                let (ftype, display_idx) = Self::read_frame_header(r, hdr.n_frames)?;
                let mut refs = BTreeSet::new();
                let rec = pixels(r, &hdr, &window, &mut refs)?;
                let meta = FrameMeta {
                    ftype,
                    display_idx,
                    decode_idx,
                    refs: refs.into_iter().collect(),
                };
                Ok((meta, rec))
            };
            let (meta, rec) = frame(&mut r).map_err(|e: CodecError| e.in_frame(decode_idx))?;
            let rec = Arc::new(rec);
            if meta.ftype.is_anchor() {
                window.push(meta.display_idx, Arc::clone(&rec));
            }
            frames[meta.display_idx as usize] = Some(rec);
            metas.push(meta);
        }

        // With the window gone, every frame has one holder left.
        drop(window);
        let frames: Vec<Frame> = frames
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                f.map(Arc::unwrap_or_clone)
                    .ok_or_else(|| CodecError::Bitstream(format!("frame {i} missing from stream")))
            })
            .collect::<Result<_>>()?;
        Ok(DecodedVideo {
            width: hdr.width,
            height: hdr.height,
            mb_size: hdr.mb(),
            frames,
            metas,
        })
    }
}

/// The dense per-block pixel path, the oracle of the in-place one: each
/// block's prediction fetched into a `Vec`, its residual read into a dense
/// `Vec` of all `mb²` coefficients, every one of them added into a third
/// `Vec`, which is then copied into the frame. [`Decoder::decode`] must
/// match it pixel for pixel and error for error; `decode_equivalence.rs`
/// checks that it does.
pub mod reference {
    use super::*;
    use crate::block::{average_blocks, extract_block, write_block};

    /// [`Decoder::decode`] on the dense per-block path.
    ///
    /// # Errors
    /// As [`Decoder::decode`].
    pub fn decode(bitstream: &Bytes) -> Result<DecodedVideo> {
        Decoder::decode_with(bitstream, |r, hdr, window, refs| {
            reconstruct(r, hdr, |mv, bx, by| {
                refs.insert(mv.frame);
                fetch(window, mv, bx, by, hdr.mb())
            })
        })
    }

    /// [`RefWindow::fetch`], copying the block out.
    fn fetch(window: &RefWindow, mv: BlockMv, bx: usize, by: usize, mb: usize) -> Result<Vec<u8>> {
        let f = window.get(mv.frame).ok_or_else(|| {
            CodecError::Bitstream(format!("reference {} not yet decoded", mv.frame))
        })?;
        let src = mv.at(bx, by);
        let inside = |s: i32, edge: usize| s >= 0 && s as usize + mb <= edge;
        if !inside(src.src_x, f.width()) || !inside(src.src_y, f.height()) {
            return Err(CodecError::Bitstream("motion vector out of frame".into()));
        }
        Ok(extract_block(f, src.src_x as usize, src.src_y as usize, mb))
    }

    /// [`Decoder::reconstruct`], block by block through owned buffers.
    fn reconstruct(
        r: &mut Reader<&[u8]>,
        hdr: &Header,
        mut fetch: impl FnMut(BlockMv, usize, usize) -> Result<Vec<u8>>,
    ) -> Result<Frame> {
        let mb = hdr.mb();
        let mut rec = Frame::new(hdr.width, hdr.height);
        Decoder::for_each_block(r, hdr, |bx, by, record, r| {
            let pred = match record {
                BlockMode::Intra(mode) => intra::predict(&rec, bx, by, mb, mode),
                BlockMode::Inter(mv) => fetch(mv, bx, by)?,
                BlockMode::Bi(a, b) => average_blocks(&fetch(a, bx, by)?, &fetch(b, bx, by)?),
            };
            let mut resid = vec![0i16; mb * mb];
            r.read_residual(mb * mb, |idx, val| resid[idx] = val as i16)?;
            let mut block = Vec::with_capacity(mb * mb);
            for (p, q) in pred.iter().zip(&resid) {
                block.push((*p as i32 + *q as i32 * hdr.quant).clamp(0, 255) as u8);
            }
            write_block(&mut rec, bx, by, mb, &block);
            Ok(())
        })?;
        Ok(rec)
    }
}

/// How one frame of a damaged stream came out of the resilient decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The frame decoded exactly as from a pristine stream.
    Ok,
    /// The frame was damaged but usable data was recovered; the reason says
    /// what had to be patched.
    Concealed(ConcealReason),
    /// Nothing usable was recovered for this frame.
    Lost,
}

impl DecodeOutcome {
    /// Whether any usable data was produced (`Ok` or `Concealed`).
    pub fn is_usable(&self) -> bool {
        !matches!(self, DecodeOutcome::Lost)
    }
}

/// Why a frame was concealed rather than decoded cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcealReason {
    /// Only a prefix of the B-frame's MV records survived; `parsed` of
    /// `total` blocks were recovered before the payload gave out.
    PartialMvs {
        /// Blocks whose records were recovered.
        parsed: usize,
        /// Blocks the frame should carry.
        total: usize,
    },
    /// The payload failed its transport checksum but still parsed end to
    /// end; the records are complete but individually suspect.
    SuspectPayload,
    /// An anchor was predicted from a substituted reference (its real
    /// reference never arrived); pixels are approximate.
    MissingReference,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Writer;
    use crate::config::{BFrameMode, CodecConfig};
    use crate::encoder::Encoder;
    use crate::stream::{
        DecodedUnit, FrameSource, ResilientFrameSource, StrictFrameSource, UnitPayload,
    };
    use vrd_video::davis::{davis_sequence, SuiteConfig};

    fn encode_tiny(cfg: CodecConfig) -> (Vec<Frame>, crate::encoder::EncodedVideo) {
        let frames = davis_sequence("cows", &SuiteConfig::tiny()).unwrap().frames;
        let ev = Encoder::new(cfg).encode(&frames).unwrap();
        (frames, ev)
    }

    fn fixed3() -> CodecConfig {
        CodecConfig {
            b_frames: BFrameMode::Fixed(3),
            ..CodecConfig::default()
        }
    }

    /// Pulls a source dry; the first failing unit aborts.
    fn drain(src: &mut impl FrameSource) -> Result<Vec<DecodedUnit>> {
        std::iter::from_fn(|| src.next_unit()).collect()
    }

    fn anchors(units: &[DecodedUnit]) -> Vec<(u32, &Frame)> {
        let mut out = Vec::new();
        for unit in units {
            if let UnitPayload::Anchor { display, frame } = &unit.payload {
                out.push((*display, &**frame));
            }
        }
        out
    }

    fn b_frames(units: &[DecodedUnit]) -> Vec<&BFrameInfo> {
        let mut out = Vec::new();
        for unit in units {
            if let UnitPayload::Motion(info) = &unit.payload {
                out.push(info);
            }
        }
        out
    }

    /// Units per [`DecodeOutcome`] variant as `(ok, concealed, lost)`.
    fn outcome_counts(units: &[DecodedUnit]) -> (usize, usize, usize) {
        let count = |f: fn(&DecodeOutcome) -> bool| units.iter().filter(|u| f(&u.outcome)).count();
        (
            count(|o| *o == DecodeOutcome::Ok),
            count(|o| matches!(o, DecodeOutcome::Concealed(_))),
            count(|o| *o == DecodeOutcome::Lost),
        )
    }

    fn psnr(a: &Frame, b: &Frame) -> f64 {
        let mse: f64 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            / a.as_slice().len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    #[test]
    fn full_decode_reconstructs_with_good_fidelity() {
        let (frames, ev) = encode_tiny(CodecConfig::default());
        let dec = Decoder::new().decode(&ev.bitstream).unwrap();
        assert_eq!(dec.frames.len(), frames.len());
        for (orig, rec) in frames.iter().zip(&dec.frames) {
            let p = psnr(orig, rec);
            assert!(p > 30.0, "PSNR too low: {p:.1} dB");
        }
    }

    #[test]
    fn decode_metadata_matches_plan() {
        let (_, ev) = encode_tiny(CodecConfig::default());
        let dec = Decoder::new().decode(&ev.bitstream).unwrap();
        for (meta, &display) in dec.metas.iter().zip(&ev.plan.decode_order) {
            assert_eq!(meta.display_idx, display);
            assert_eq!(meta.ftype, ev.plan.types[display as usize]);
        }
    }

    #[test]
    fn recognition_mode_yields_anchors_and_mvs() {
        let (_, ev) = encode_tiny(fixed3());
        let mut src = StrictFrameSource::new(&ev.bitstream).unwrap();
        let units = drain(&mut src).unwrap();
        let (info, anchors, b_frames) = (src.info(), anchors(&units), b_frames(&units));
        let n_b = ev.stats.b_frames;
        assert_eq!(b_frames.len(), n_b);
        assert_eq!(anchors.len(), ev.stats.n_frames - n_b);
        // Every B-frame block is accounted for: mvs + intra blocks.
        let blocks = (info.width / info.mb_size) * (info.height / info.mb_size);
        for info in &b_frames {
            assert_eq!(info.mvs.len() + info.intra_blocks.len(), blocks);
        }
        // MV references must point at decoded anchors.
        let anchor_set: BTreeSet<u32> = anchors.iter().map(|(d, _)| *d).collect();
        for info in &b_frames {
            for mv in &info.mvs {
                assert!(anchor_set.contains(&mv.ref0.frame));
                if let Some(r1) = mv.ref1 {
                    assert!(anchor_set.contains(&r1.frame));
                }
            }
        }
    }

    #[test]
    fn recognition_anchors_match_full_decode() {
        let (_, ev) = encode_tiny(CodecConfig::default());
        let full = Decoder::new().decode(&ev.bitstream).unwrap();
        let units = drain(&mut StrictFrameSource::new(&ev.bitstream).unwrap()).unwrap();
        for (display, frame) in anchors(&units) {
            assert_eq!(
                frame, &full.frames[display as usize],
                "anchor {display} differs between modes"
            );
        }
    }

    #[test]
    fn byte_accounting_sums_to_stream_length() {
        let (_, ev) = encode_tiny(CodecConfig::default());
        let mut src = StrictFrameSource::new(&ev.bitstream).unwrap();
        drain(&mut src).unwrap();
        let totals = src.totals();
        assert_eq!(totals.anchor_bytes + totals.b_bytes, ev.bitstream.len());
        assert!(totals.b_bytes > 0);
    }

    #[test]
    fn inspect_agrees_with_encoder_statistics() {
        let (_, ev) = encode_tiny(CodecConfig::default());
        let summaries = Decoder::new().inspect(&ev.bitstream).unwrap();
        assert_eq!(summaries.len(), ev.stats.n_frames);
        let intra: usize = summaries.iter().map(|s| s.intra_blocks).sum();
        let inter: usize = summaries.iter().map(|s| s.inter_blocks).sum();
        let bi: usize = summaries.iter().map(|s| s.bi_blocks).sum();
        assert_eq!(intra, ev.stats.intra_blocks);
        assert_eq!(inter, ev.stats.inter_blocks);
        assert_eq!(bi, ev.stats.bi_blocks);
        // Frame types and decode order match the plan.
        for (s, &display) in summaries.iter().zip(&ev.plan.decode_order) {
            assert_eq!(s.display_idx, display);
            assert_eq!(s.ftype, ev.plan.types[display as usize]);
        }
        // Per-frame bytes sum to the stream minus the header.
        let frame_bytes: usize = summaries.iter().map(|s| s.bytes).sum();
        assert!(frame_bytes < ev.bitstream.len());
        assert!(frame_bytes > ev.bitstream.len() - 32);
        // Refs per B-frame match the recorded stats.
        let refs_b: Vec<usize> = summaries
            .iter()
            .filter(|s| s.ftype == FrameType::B)
            .map(|s| s.refs.len())
            .collect();
        assert_eq!(refs_b, ev.stats.refs_per_b);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let dec = Decoder::new();
        assert!(dec.decode(&Bytes::from_static(b"nonsense")).is_err());
        let (_, ev) = encode_tiny(CodecConfig::default());
        let truncated = ev.bitstream.slice(0..ev.bitstream.len() / 2);
        assert!(dec.decode(&truncated).is_err());
        assert!(drain(&mut StrictFrameSource::new(&truncated).unwrap()).is_err());
    }

    /// Every strict entry point's verdict on `bytes`.
    fn verdicts(bytes: &Bytes) -> [Result<()>; 3] {
        let strict = StrictFrameSource::new(bytes).and_then(|mut src| drain(&mut src));
        [
            Decoder::new().decode(bytes).map(drop),
            strict.map(drop),
            Decoder::new().inspect(bytes).map(drop),
        ]
    }

    #[test]
    fn payload_errors_name_the_frame_that_broke() {
        let (_, ev) = encode_tiny(fixed3());
        let spans = Decoder::new().frame_spans(&ev.bitstream).unwrap();
        // The stream header itself is not any frame's payload.
        for verdict in verdicts(&ev.bitstream.slice(0..spans[0].offset / 2)) {
            assert!(
                matches!(verdict, Err(CodecError::Bitstream(_))),
                "{verdict:?}"
            );
        }
        // A cut inside frame k (anchors and B-frames alike), or right at
        // its first byte, is frame k's fault at every entry point.
        for k in [0, 1, 4, spans.len() - 1] {
            let mut cuts = vec![spans[k].offset + spans[k].len / 2];
            if k > 0 {
                // (At frame 0's first byte too few bytes are left for the
                // announced frame count, which is the stream header's fault.)
                cuts.push(spans[k].offset);
            }
            for cut in cuts {
                for verdict in verdicts(&ev.bitstream.slice(0..cut)) {
                    match verdict {
                        Err(CodecError::Corrupt { frame, .. }) => assert_eq!(frame, k as u32),
                        other => panic!("cut in frame {k}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_reference_is_rejected_by_every_reader() {
        // One 16x16 H.264 P-frame announced as frame 0 of 1, whose single
        // inter block names reference `n_frames`.
        let stream = |reference: u32| {
            let mut w = Writer::new();
            for b in MAGIC {
                w.put_u8(b);
            }
            w.put_u8(VERSION);
            for v in [16, 16, 1] {
                w.put_varint(v);
            }
            w.put_u8(0); // H.264
            w.put_u8(8); // quantiser
            w.put_u8(1); // P-frame
            w.put_varint(0); // display 0
            let mv = BlockMv {
                frame: reference,
                dx: 0,
                dy: 0,
            };
            BlockMode::Inter(mv).write(&mut w);
            w.put_residual(&[0i16; 256]);
            w.into_bytes()
        };
        for verdict in verdicts(&stream(1)) {
            let err = verdict.expect_err("reference 1 of 1 frame accepted");
            assert!(err.to_string().contains("reference 1 exceeds"), "{err}");
        }
        // The same stream with an in-range index gets past the record
        // reader everywhere; only the pixel readers then miss the frame.
        let [decode, strict, inspect] = verdicts(&stream(0));
        assert!(decode.unwrap_err().to_string().contains("not yet decoded"));
        assert!(strict.unwrap_err().to_string().contains("not yet decoded"));
        inspect.unwrap();
    }

    #[test]
    fn resilient_decode_of_clean_stream_matches_strict_mode() {
        let (_, ev) = encode_tiny(fixed3());
        let mut strict_src = StrictFrameSource::new(&ev.bitstream).unwrap();
        let strict = drain(&mut strict_src).unwrap();
        let ps = crate::faults::packetize(&ev.bitstream).unwrap();
        let mut res_src = ResilientFrameSource::new(&ps).unwrap();
        let res = drain(&mut res_src).unwrap();

        let (ok, concealed, lost) = outcome_counts(&res);
        assert_eq!((concealed, lost), (0, 0));
        assert_eq!(ok, strict.len());
        // Anchors bit-identical, B payloads record-identical, bytes match.
        assert_eq!(anchors(&res).len(), anchors(&strict).len());
        for ((da, fa), (db, fb)) in anchors(&res).iter().zip(&anchors(&strict)) {
            assert_eq!(da, db);
            assert_eq!(fa, fb);
        }
        assert_eq!(b_frames(&res), b_frames(&strict));
        assert_eq!(
            res_src.totals().anchor_bytes,
            strict_src.totals().anchor_bytes
        );
        assert_eq!(res_src.totals().b_bytes, strict_src.totals().b_bytes);
    }

    #[test]
    fn resilient_decode_survives_heavy_damage_without_err() {
        let (_, ev) = encode_tiny(fixed3());
        let ps = crate::faults::packetize(&ev.bitstream).unwrap();
        for seed in 0..8 {
            let (damaged, log) =
                crate::faults::inject(&ps, &crate::faults::FaultConfig::uniform(0.5, seed));
            let mut src = ResilientFrameSource::new(&damaged).unwrap();
            let res = drain(&mut src).unwrap();
            let info = src.info();
            assert_eq!(res.len(), ps.packets.len());
            let (ok, concealed, lost) = outcome_counts(&res);
            assert!(
                concealed + lost > 0 || log.events.is_empty(),
                "seed {seed}: faults planted but every frame decoded Ok"
            );
            // Undamaged frames still decode (the first I-frame is protected,
            // so at least one frame is always Ok).
            assert!(ok > 0, "seed {seed}: nothing decoded Ok");
            // Whatever survived is structurally sound.
            let blocks = (info.width / info.mb_size) * (info.height / info.mb_size);
            for b in b_frames(&res) {
                assert!(b.mvs.len() + b.intra_blocks.len() <= blocks);
                assert!((b.display_idx as usize) < info.n_frames);
            }
        }
    }

    #[test]
    fn dropped_b_mvs_are_salvaged_as_partial_prefix() {
        let (_, ev) = encode_tiny(fixed3());
        let ps = crate::faults::packetize(&ev.bitstream).unwrap();
        let (damaged, log) =
            crate::faults::inject(&ps, &crate::faults::FaultConfig::b_mv_loss(1.0, 3));
        assert!(!log.events.is_empty());
        let res = drain(&mut ResilientFrameSource::new(&damaged).unwrap()).unwrap();
        // Every anchor is untouched by the b_mv_loss config and decodes Ok.
        for o in &res {
            if o.ftype.is_anchor() {
                assert_eq!(o.outcome, DecodeOutcome::Ok, "anchor {:?}", o.decode_idx);
            }
        }
        // Damaged B-frames are either concealed with a salvaged prefix or
        // lost outright — never silently Ok, and never an Err.
        let damaged_idx: BTreeSet<u32> = log.events.iter().map(|e| e.decode_idx).collect();
        for o in &res {
            if damaged_idx.contains(&o.decode_idx) {
                match &o.outcome {
                    DecodeOutcome::Concealed(ConcealReason::PartialMvs { parsed, total }) => {
                        assert!(parsed < total, "partial salvage kept every block");
                    }
                    DecodeOutcome::Lost | DecodeOutcome::Concealed(_) => {}
                    DecodeOutcome::Ok => panic!("damaged frame {} decoded Ok", o.decode_idx),
                }
            }
        }
    }

    #[test]
    fn lost_anchor_is_reported_and_dependents_concealed() {
        let (_, ev) = encode_tiny(fixed3());
        let mut ps = crate::faults::packetize(&ev.bitstream).unwrap();
        // Drop the second anchor by hand (deterministic, no RNG).
        let victim = ps
            .packets
            .iter()
            .position(|p| p.ftype.is_anchor() && p.decode_idx > 0)
            .expect("stream has a second anchor");
        let victim_decode = ps.packets[victim].decode_idx;
        ps.packets[victim].lost = true;
        ps.packets[victim].payload = Bytes::new();
        let res = drain(&mut ResilientFrameSource::new(&ps).unwrap()).unwrap();
        let lost: Vec<u32> = res
            .iter()
            .filter(|o| o.outcome == DecodeOutcome::Lost)
            .map(|o| o.decode_idx)
            .collect();
        assert_eq!(lost, vec![victim_decode]);
        // The lost frame's display slot was inferred, so every outcome maps
        // to a display index.
        assert!(res.iter().all(|o| o.display().is_some()));
        // Anchors that referenced the lost one decode via substitution.
        let concealed_anchors = res
            .iter()
            .filter(|o| {
                o.ftype.is_anchor()
                    && matches!(
                        o.outcome,
                        DecodeOutcome::Concealed(ConcealReason::MissingReference)
                    )
            })
            .count();
        assert!(
            concealed_anchors > 0,
            "no dependent anchor needed reference substitution"
        );
    }

    /// The rows of an 8×8 reference block, as one buffer.
    fn rows(block: RefBlock<'_>) -> Vec<u8> {
        (0..8)
            .flat_map(|row| block.row::<8>(row))
            .copied()
            .collect()
    }

    #[test]
    fn concealed_fetches_clamp_into_the_nearest_anchor_or_predict_mid_gray() {
        let mv = |frame, dx, dy| BlockMv { frame, dx, dy };
        let mut window = RefWindow::default();
        let mut substituted = false;
        let flat = window.fetch_concealed(mv(3, 0, 0), 8, 8, 8, &mut substituted);
        assert!(substituted);
        assert_eq!(rows(flat), [128; 64], "no anchor held");

        let gradient = Frame::from_vec(32, 24, (0..32 * 24).map(|i| (i * 7 % 251) as u8).collect());
        window.push(4, gradient.clone());
        window.push(9, Frame::new(32, 24));
        for (dx, dy, x, y) in [
            (-100, 3, 0, 11),   // off the left edge
            (100, -100, 24, 0), // off the top-right corner
            (5, 100, 13, 16),   // off the bottom edge
        ] {
            // Reference 6 never arrived: anchor 4, two away, stands in for
            // it rather than 9, three away.
            let mut substituted = false;
            let block = window.fetch_concealed(mv(6, dx, dy), 8, 8, 8, &mut substituted);
            assert!(substituted);
            assert_eq!(rows(block), crate::block::extract_block(&gradient, x, y, 8));
        }
        // A held reference is used as is, and the strict fetch reads the
        // same block where the vector stays inside the frame.
        let mut substituted = false;
        let held = window.fetch_concealed(mv(4, 4, -3), 8, 8, 8, &mut substituted);
        assert!(!substituted);
        let strict = window.fetch(mv(4, 4, -3), 8, 8, 8).unwrap();
        assert_eq!(rows(held), rows(strict));
        assert_eq!(
            rows(strict),
            crate::block::extract_block(&gradient, 12, 5, 8)
        );
        assert!(window.fetch(mv(4, 17, 0), 8, 8, 8).is_err());
    }
}
