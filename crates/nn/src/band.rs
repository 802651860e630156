//! Refining only the band: which pixels of a sandwich NN-S must compute,
//! and the cut bit every other pixel takes.
//!
//! # Why it is exact
//!
//! NN-S's logit at output column `x` reads the sandwich at columns
//! `[x − 5, x + 4]` when `x` is even and `[x − 4, x + 5]` when it is odd
//! (rows likewise), and nothing else:
//!
//! * conv3 reads the concatenation at `x − 1 ..= x + 1`.
//! * Its `a1` half is conv1's output, which reads the input at ±1: columns
//!   `x − 2 ..= x + 2`.
//! * Its upsampled half reads `a2` at `⌊(x − 1)/2⌋ ..= ⌊(x + 1)/2⌋`, which
//!   is `m − 1 ..= m` for `x = 2m` and `m ..= m + 1` for `x = 2m + 1`.
//!   conv2 reads the pooled `d` at ±1 around those: `m − 2 ..= m + 1`
//!   (even) or `m − 1 ..= m + 2` (odd). Pooled column `X` is the max of
//!   `a1` at `2X` and `2X + 1`, so `a1` at `2m − 4 ..= 2m + 3` (even) or
//!   `2m − 2 ..= 2m + 5` (odd): `x − 4 ..= x + 3` or `x − 3 ..= x + 4`.
//!   conv1 widens that by one more on each side: `x − 5 ..= x + 4` or
//!   `x − 4 ..= x + 5`.
//!
//! So the Chebyshev window of radius [`RADIUS`] = 5 holds everything a
//! logit reads. Every kernel is bit-exact with its reference
//! (`conv::reference`, `quant::reference`), which sums the same taps in the
//! same order at every position, and max-pool and upsampling are exact.
//! Hence a pixel whose window lies inside the frame and holds one code
//! triple (one value per channel) computes exactly what the centre of a
//! constant image with that triple computes: the same operands in the same
//! order at every layer. Its mask bit is that image's bit, read from a
//! [`CutTable`]. A window that crosses the frame edge is always computed:
//! the layers' zero padding is not what a constant image holds there
//! (`relu(bias)` after conv1, for one), and the reference skips
//! out-of-frame taps rather than adding zeros.
//!
//! # Packed in, packed out, a tile at a time
//!
//! The input arrives as what the engine holds, [`SandwichPlanes`]: the
//! anchors' 1-bit masks and the reconstruction's white and gray bitplanes,
//! 64 pixels to a word. Those planes are the code planes: a pixel's code
//! in a channel is white, gray or black by which plane has it. So
//! [`vrd_video::mask::band`] runs on the distinct planes directly to find
//! the pixels whose window is not uniform or leaves the frame, rounded out
//! to [`BLOCK`]-pixel row blocks: the logits to compute. What every earlier
//! stage computes is derived from them on bit rows too ([`Plan::from_conv3`])
//! and read once into the spans the kernels iterate ([`RowSpans::of`]). The
//! table's bits are spread over the same words, and the computed logits are
//! cut into them ([`walk`]).
//!
//! The logits are computed a row tile at a time, the software form of the
//! paper's small `tmp_B` buffers and of fused-layer accelerators: tile
//! `[t0, t1)` of the logit rows runs the whole graph on the sub-frame of
//! rows `[a, b) = [t0 − 6, t1 + 6)`, clipped to the frame ([`Tile`]). Its
//! [`Plan`] comes from its own logits, a copy of the tile's rows of the
//! frame's, by the same derivation. The halo of [`HALO`] = 6 rows is what
//! the window above needs: tiles start on even rows, so an even logit row
//! `y ≥ t0` reads from `y − 5 ≥ t0 − 5` and an odd one `y < t1` up to
//! `y + 5 ≤ t1 + 4`. One more row on each side makes `a` even, so the
//! sub-frame's 2×2 pool blocks are the frame's, and keeps its height even.
//! Within the sub-frame every stage a kept logit needs lies inside
//! `[a, b)`, so the zero padding the kernels apply at the sub-frame's edges
//! is read only where those edges are the frame's own, as in the
//! whole-frame walk. The kernels sum the same taps in the same order at
//! every position, so every kept logit is the whole-frame walk's, bit for
//! bit. Neighbouring tiles recompute the few rows of conv1, the pool and
//! conv2 at their seam.
//!
//! Each tile writes its input only where conv1 reads it, its pixels grown
//! by its 3×3 halo ([`Tile::input`]), and every stage into a buffer that
//! is otherwise stale; all of them are one struct per walk in flight,
//! recycled across calls and shared with the dense walks ([`Recycler`]).
//! A tile's rows are what a fixed byte budget holds of a row's scratch in
//! the precision at hand ([`Graph::tile_rows`]), so the mask path holds no
//! frame-sized input, activation, accumulator or logit plane, whatever the
//! frame's height. Training, calibration and `infer` take a dense tensor
//! and run the dense plan.
//!
//! # A batch is one queue of tiles
//!
//! `masks` takes a batch of frames (the engine's B-frame wave; `mask` is a
//! batch of one). Each frame's band and table words are found in parallel
//! over the frames; then every tile of every frame, its plan's derivation
//! included, is one item of one queue, the costliest first. A worker that
//! finishes its frame's tiles takes the next frame's instead of idling at
//! a per-frame barrier, the workers run out of work together, and the
//! calling thread may run other work first and join the queue after it
//! ([`walk`]). A tile writes only its own rows of its own frame's words,
//! so the masks are the frames' one-by-one masks, bit for bit, whatever
//! the batch and the thread count.
//!
//! # One path, two precisions
//!
//! All of the above is written once. A precision is a [`Graph`] and
//! supplies only its input codes, its per-walk buffers and the walk from a
//! tile's input to its logits: `NnS` walks f32 activations, `QuantNnS`
//! requantised `u8` ones. The row budget, the tile fill and cut, the batch
//! queue ([`walk`]), the scratch one call holds ([`mask_tiles`]) and the
//! cut table ([`Graph::cuts`]) are this module's.

use crate::conv::{auto_threads, Input};
use crate::layers::sigmoid_cut;
use crate::nns::SANDWICH_CHANNELS;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use vrd_video::mask::{band, Expansion};
use vrd_video::{Seg2Plane, SegMask, MASK_WORD_BITS};

/// NN-S's receptive radius: a logit reads nothing outside the Chebyshev
/// window of this radius around its pixel (see the module docs).
pub(crate) const RADIUS: usize = 5;

/// Width of the row blocks the band is rounded out to: the int8 kernel's
/// 16-pixel block, half the f32 kernel's tile.
const BLOCK: usize = 16;

/// Side of the constant images a [`CutTable`] is read from: the smallest
/// even side whose centre pixel's window stays in frame.
const TABLE_SIDE: usize = 2 * RADIUS + 2;

/// The columns of each row one stage computes, in the kernels' iteration
/// format: ascending, disjoint, non-adjacent `[start, end)` spans per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowSpans {
    w: usize,
    /// Row `y`'s spans are `spans[starts[y]..starts[y + 1]]`.
    starts: Vec<usize>,
    spans: Vec<(usize, usize)>,
}

impl RowSpans {
    /// The runs of `plane`'s set pixels, row by row: each word's runs found
    /// with `trailing_zeros` and `trailing_ones`, a run that goes on from
    /// the word before joined to its span, so every span is maximal. A row
    /// whose words are the row above's, as most rows of a band's planes
    /// are, copies its spans. Room for a run every four words and one a
    /// row, more than a band's planes hold, is allocated up front.
    pub(crate) fn of(plane: &SegMask) -> Self {
        let (w, words) = (plane.width(), plane.words());
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(words.len() / 4 + plane.height());
        let mut starts = Vec::with_capacity(plane.height() + 1);
        starts.push(0);
        let mut above: &[u64] = &[];
        for row in words.chunks_exact(w.div_ceil(MASK_WORD_BITS)) {
            let first = spans.len();
            if row == above {
                spans.extend_from_within(starts[starts.len() - 2]..first);
            } else {
                for (base, &word) in (0..).step_by(MASK_WORD_BITS).zip(row) {
                    let mut bits = word;
                    while bits != 0 {
                        let s = bits.trailing_zeros();
                        let e = base + (s + (bits >> s).trailing_ones()) as usize;
                        // The carry of the run's lowest bit clears the run.
                        bits &= bits.wrapping_add(1 << s);
                        match spans[first..].last_mut() {
                            Some(last) if last.1 == base + s as usize => last.1 = e,
                            _ => spans.push((base + s as usize, e)),
                        }
                    }
                }
            }
            above = row;
            starts.push(spans.len());
        }
        Self { w, starts, spans }
    }

    /// Every column of every row.
    pub(crate) fn full(h: usize, w: usize) -> Self {
        let row = usize::from(w > 0);
        let (starts, spans) = ((0..=h).map(|y| y * row).collect(), vec![(0, w); h * row]);
        Self { w, starts, spans }
    }

    /// Rows.
    pub(crate) fn height(&self) -> usize {
        self.starts.len() - 1
    }

    /// Row width.
    pub(crate) fn width(&self) -> usize {
        self.w
    }

    /// Row `y`'s spans.
    pub(crate) fn row(&self, y: usize) -> &[(usize, usize)] {
        &self.spans[self.starts[y]..self.starts[y + 1]]
    }

    /// Pixels covered.
    pub(crate) fn area(&self) -> usize {
        self.spans.iter().map(|(s, e)| e - s).sum()
    }

    /// The first rows of at most `bands` contiguous row bands holding about
    /// equal shares of the spans' pixels (rows with no spans cost nothing).
    pub(crate) fn cuts(&self, bands: usize) -> Vec<usize> {
        let (h, bands) = (self.height(), bands.max(1));
        let total = self.area().max(1);
        let mut cuts = vec![0];
        let mut done = 0;
        for y in 0..h {
            let k = cuts.len();
            if k < bands && y > cuts[k - 1] && done * bands >= k * total {
                cuts.push(y);
            }
            done += self.row(y).iter().map(|(s, e)| e - s).sum::<usize>();
        }
        cuts
    }
}

/// The spans each stage of one NN-S walk computes.
#[derive(Debug)]
pub(crate) struct Plan {
    /// The input conv1 reads: its output grown by its 3×3 halo.
    pub(crate) input: RowSpans,
    /// conv1's output (full resolution).
    pub(crate) conv1: RowSpans,
    /// The max-pool's output (half resolution).
    pub(crate) pool: RowSpans,
    /// conv2's output (half resolution).
    pub(crate) conv2: RowSpans,
    /// The upsample's output (full resolution).
    pub(crate) up: RowSpans,
    /// conv3's output: the logits.
    pub(crate) conv3: RowSpans,
}

impl Plan {
    /// Every pixel of every stage of an `h × w` walk: the plan of every
    /// logit.
    ///
    /// # Panics
    /// Panics if a side is odd or zero.
    pub(crate) fn dense(h: usize, w: usize) -> Self {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "max-pool needs even dimensions"
        );
        let every = vec![u64::MAX; w.div_ceil(MASK_WORD_BITS) * h];
        Plan::from_conv3(SegMask::from_words(w, h, every))
    }

    /// The logits `conv3` and what they read ([`derive`]), each stage read
    /// into spans once.
    fn from_conv3(conv3: SegMask) -> Self {
        let [conv3, up, conv2, pool, conv1, input] = derive(conv3, RowSpans::of);
        Self {
            input,
            conv1,
            pool,
            conv2,
            up,
            conv3,
        }
    }
}

/// `read` of each stage's bit plane for the logits `plane`, in the order
/// conv3, up, conv2, pool, conv1, input: conv3 reads the concatenation at
/// ±1; the upsample reads `a2` at half those columns, conv2 the pool at ±1
/// around them, the pool `a1` at twice those; conv1 computes what conv3 and
/// the pool read, and reads the input at ±1 around that. Each stage is the
/// one before on one of two planes, full and half resolution, changed in
/// place. Panics if a side of `plane` is odd.
fn derive<T>(mut plane: SegMask, mut read: impl FnMut(&SegMask) -> T) -> [T; 6] {
    let conv3 = read(&plane);
    plane.grow1();
    let up = read(&plane);
    let mut half = plane.halve();
    let conv2 = read(&half);
    half.grow1();
    let pool = read(&half);
    plane.or_double(&half);
    let conv1 = read(&plane);
    plane.grow1();
    [conv3, up, conv2, pool, conv1, read(&plane)]
}

/// The [`BLOCK`]-pixel blocks of each row that hold a pixel of `band`:
/// each word's non-zero `BLOCK`-bit lanes all ones. A lane's top bit ends
/// up set when it is set or its low bits carry into it.
fn blocks(band: &SegMask) -> SegMask {
    const LANE: u64 = (1 << BLOCK) - 1;
    const LOW: u64 = u64::MAX / LANE * (LANE >> 1);
    let lanes =
        (band.words().iter()).map(|&x| (((((x & LOW) + LOW) | x) & !LOW) >> (BLOCK - 1)) * LANE);
    SegMask::from_words(band.width(), band.height(), lanes.collect())
}

/// Rows `rows` of `plane` on its rows `frame`, which hold them: a plane
/// `frame.len()` rows tall, every other row zero.
fn window(plane: &SegMask, frame: Range<usize>, rows: Range<usize>) -> SegMask {
    let wpr = plane.width().div_ceil(MASK_WORD_BITS);
    let mut words = vec![0; frame.len() * wpr];
    let (from, to) = (rows.start * wpr..rows.end * wpr, rows.start - frame.start);
    words[to * wpr..][..from.len()].copy_from_slice(&plane.words()[from]);
    SegMask::from_words(plane.width(), frame.len(), words)
}

/// The multiply-accumulates a dense walk through a `hidden`-wide NN-S
/// spends per pixel: conv1 (3 → hidden) and conv3 (2·hidden → 1) at full
/// resolution, conv2 (hidden → hidden) at a quarter of it, 3×3 each. A
/// band walk's earlier stages compute a little more than its logits'
/// pixels, so its logits times this counts its work from below.
fn pixel_macs(hidden: usize) -> u64 {
    let hidden = hidden as u64;
    9 * (3 * hidden + 2 * hidden) + 9 * hidden * hidden / 4
}

/// The cut bit NN-S gives the centre of a constant image, for each of the
/// 27 triples of channel codes (black, gray, white per channel): bit
/// `i0 + 3·i1 + 9·i2` for code indices `i0`, `i1`, `i2` of the three
/// channels. Keyed on code indices, so it holds whatever codes a precision
/// feeds its graph; it needs all 27 because without the sandwich every
/// channel holds the reconstruction, gray included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CutTable(u32);

impl CutTable {
    /// Each triple's bit from `bit`.
    fn build(mut bit: impl FnMut([usize; 3]) -> bool) -> Self {
        Self(triples().fold(0, |bits, [i0, i1, i2]| {
            bits | u32::from(bit([i0, i1, i2])) << (i0 + 3 * i1 + 9 * i2)
        }))
    }

    /// The bit of code indices `triple`.
    pub(crate) fn bit(self, [i0, i1, i2]: [usize; 3]) -> bool {
        (self.0 >> (i0 + 3 * i1 + 9 * i2)) & 1 == 1
    }
}

/// Every code triple, as per-channel code indices.
pub(crate) fn triples() -> impl Iterator<Item = [usize; 3]> {
    (0..27).map(|i| [i % 3, i / 3 % 3, i / 9])
}

/// The three channels of an NN-S input as the engine holds them: packed
/// planes, borrowed. With the sandwich they are the previous anchor's
/// mask, the reconstruction and the next anchor's mask; without it (the
/// ablation), the reconstruction three times. Built only from planes of
/// one size with even sides, so both precisions' `mask` take it as is.
#[derive(Debug, Clone, Copy)]
pub struct SandwichPlanes<'a> {
    /// Per channel, its white pixels and, for a reconstruction, its gray
    /// ones; every other pixel is black.
    channels: [(&'a SegMask, Option<&'a SegMask>); 3],
}

impl<'a> SandwichPlanes<'a> {
    /// The sandwich: `prev`, the reconstruction `recon` and `next`.
    ///
    /// # Errors
    /// Returns a message naming the sizes if the three differ in size or
    /// a side is odd (NN-S max-pools by two).
    pub fn new(prev: &'a SegMask, recon: &'a Seg2Plane, next: &'a SegMask) -> Result<Self, String> {
        let sizes = [prev, recon.white(), next].map(|m| (m.width(), m.height()));
        if sizes.iter().any(|&s| s != sizes[1]) {
            let [p, r, n] = sizes.map(|(w, h)| format!("{w}×{h}"));
            return Err(format!(
                "sandwich planes differ in size: previous mask {p}, reconstruction {r}, next mask {n}"
            ));
        }
        let recon = (recon.white(), Some(recon.gray()));
        Self::even([(prev, None), recon, (next, None)])
    }

    /// The reconstruction `recon` alone, in all three channels.
    ///
    /// # Errors
    /// Returns a message naming the size if a side is odd.
    pub fn recon_only(recon: &'a Seg2Plane) -> Result<Self, String> {
        Self::even([(recon.white(), Some(recon.gray())); 3])
    }

    /// `channels`, if their sides are even.
    fn even(channels: [(&'a SegMask, Option<&'a SegMask>); 3]) -> Result<Self, String> {
        let planes = Self { channels };
        match planes.size() {
            (h, w) if h % 2 == 0 && w % 2 == 0 => Ok(planes),
            (h, w) => Err(format!(
                "NN-S max-pools by two, so it needs even sides, not {w}×{h}"
            )),
        }
    }

    /// `(height, width)`.
    pub(crate) fn size(&self) -> (usize, usize) {
        let white = self.channels[0].0;
        (white.height(), white.width())
    }

    /// Each plane once: previous mask, white, gray and next mask, or just
    /// white and gray without the sandwich.
    fn distinct(&self) -> Vec<&'a SegMask> {
        let mut planes: Vec<&SegMask> = Vec::with_capacity(4);
        for (white, gray) in self.channels {
            for plane in std::iter::once(white).chain(gray) {
                if !planes.iter().any(|&p| std::ptr::eq(p, plane)) {
                    planes.push(plane);
                }
            }
        }
        planes
    }

    /// The planes expanded to the dense f32 input `infer` and training
    /// take: 0, ½ and 1 for black, gray and white.
    pub fn to_tensor(self) -> crate::Tensor {
        let (h, w) = self.size();
        let mut x = vec![0.0; 3 * h * w];
        let expansion = Expansion::new([0.0, 0.5, 1.0]);
        for (channel, (white, gray)) in x.chunks_exact_mut(h * w).zip(self.channels) {
            expansion.rows(white, gray, channel);
        }
        crate::Tensor::from_vec(3, h, w, x)
    }
}

/// Rows a tile's sub-frame reaches past its logit rows on each side: the
/// receptive [`RADIUS`], plus one so that the sub-frame starts on an even
/// row and its 2×2 pool blocks are the frame's.
const HALO: usize = RADIUS + 1;

/// Bytes of scratch a tile's own rows may take; its [`HALO`] rows come on
/// top. With NN-S's default width that is ~50 rows of an 864-wide f32
/// tile and ~140 of an int8 one.
const TILE_BYTES: usize = 4 << 20;

/// One precision of NN-S, as the mask path walks it: what differs between
/// f32 and int8 (see the module docs).
pub(crate) trait Graph: Sync {
    /// An input element, and an element of the activation [`roles`].
    type Code: Poison + Default + PartialEq + Send + Sync;
    /// The buffers one walk writes besides its input, one per role.
    type Walk: Default + Send;
    /// The bytes a walk's buffers take per pixel besides the roles.
    const PIXEL_BYTES: usize;

    /// Hidden feature-channel width.
    fn hidden(&self) -> usize;

    /// The input values of black, gray and white pixels.
    fn codes(&self) -> [Self::Code; 3];

    /// Where this model keeps its [`CutTable`].
    fn cut_cell(&self) -> &OnceLock<CutTable>;

    /// The bytes `walk`'s buffers hold.
    fn held_bytes(walk: &Self::Walk) -> usize;

    /// The logits of the `3 × h × w` input `x` on `plan.conv3`'s columns
    /// (every other element stale), each stage into its role's buffer in
    /// `walk` on its `plan` columns.
    ///
    /// # Panics
    /// Panics on a wrong input length or odd spatial dimensions.
    fn logits<'s>(
        &self,
        x: Input<'_, Self::Code>,
        plan: &Plan,
        walk: &'s mut Self::Walk,
    ) -> &'s [f32];

    /// This model's [`CutTable`], built on first use: each triple's bit is
    /// the dense walk's cut bit at the centre of a [`TABLE_SIDE`]-square
    /// image holding that triple's codes.
    fn cuts(&self) -> CutTable {
        let centre_bit = |triple| self.centre_bit(TABLE_SIDE, TABLE_SIDE, triple);
        *self.cut_cell().get_or_init(|| CutTable::build(centre_bit))
    }

    /// The logit rows of one mask tile on a `w`-wide frame: as many rows of
    /// input and walk buffers as [`TILE_BYTES`] holds, rounded down to an
    /// even count, at least two.
    fn tile_rows(&self, w: usize) -> usize {
        let codes = SANDWICH_CHANNELS * w + roles(self.hidden(), 2, w).iter().sum::<usize>() / 2;
        let row = codes * std::mem::size_of::<Self::Code>() + w * Self::PIXEL_BYTES;
        (TILE_BYTES / row.max(1) / 2 * 2).max(2)
    }

    /// The dense walk's cut bit at the centre of an `h × w` image holding
    /// the codes of `triple` (one code index per channel).
    fn centre_bit(&self, h: usize, w: usize, triple: [usize; 3]) -> bool {
        let codes = self.codes();
        let x: Vec<_> = triple
            .iter()
            .flat_map(|&i| std::iter::repeat_n(codes[i], h * w))
            .collect();
        let (plan, mut walk) = (Plan::dense(h, w), Self::Walk::default());
        let logits = self.logits(Input::new(&x, h, w), &plan, &mut walk);
        logits[h / 2 * w + w / 2] > sigmoid_cut()
    }
}

/// The lengths of an `h × w` walk's activation roles with `hidden`
/// channels: conv1's output `a1`, its max-pool `d`, conv2's output `a2` and
/// `a2` upsampled.
pub(crate) fn roles(hidden: usize, h: usize, w: usize) -> [usize; 4] {
    let hw = h * w;
    [hidden * hw, hidden * hw / 4, hidden * hw / 4, hidden * hw]
}

/// One walk's scratch: its input and its buffers, each as long as the
/// largest walk it served needed.
#[derive(Default)]
pub(crate) struct Scratch<C, W> {
    /// conv1's input, written by a mask tile or a dense int8 walk (a dense
    /// f32 walk reads its tensor).
    pub(crate) input: Vec<C>,
    pub(crate) walk: W,
}

/// `graph`'s refined masks of `xs` — either precision's `masks` — in tiles
/// of its row budget, on structs of `scratch`, and what `beside` returns:
/// the calling thread runs `beside` while the other workers walk tiles,
/// then joins them ([`walk`]).
pub(crate) fn masks<G: Graph, R>(
    graph: &G,
    xs: &[SandwichPlanes<'_>],
    scratch: &Recycler<Scratch<G::Code, G::Walk>>,
    beside: impl FnOnce() -> R,
) -> (Vec<SegMask>, R) {
    walk(graph, xs, |w| graph.tile_rows(w), scratch, beside)
}

/// `graph`'s refined mask of `x` alone: [`masks`] of one frame.
pub(crate) fn mask<G: Graph>(
    graph: &G,
    x: &SandwichPlanes<'_>,
    scratch: &Recycler<Scratch<G::Code, G::Walk>>,
) -> SegMask {
    let (mut one, ()) = masks(graph, std::slice::from_ref(x), scratch, || ());
    one.pop().expect("one mask per frame")
}

/// `graph`'s masks of `xs`, each walked in tiles of `rows(w)` logit rows
/// for its width `w`, and what `beside` returns. Three steps:
///
/// 1. Per frame, in parallel over the frames: its band ([`Banded::of`])
///    and the [`CutTable`]'s bits spread over its mask words
///    ([`table_words`]).
/// 2. Every tile of every frame is one item of one queue
///    ([`vrd_runtime::parallel_for_each_beside`]), the costliest first,
///    fanned out over the threads the band's MACs call for
///    ([`auto_threads`]) while the calling thread runs `beside` first:
///    each tile's plan is derived, its input written in `graph`'s codes
///    and walked to logits on a struct of `scratch`, and the logits are
///    cut at [`sigmoid_cut`] into the frame's words under the tile's conv3
///    bits.
/// 3. Each frame's words become its mask.
///
/// The masks do not depend on how many threads ran, in which order the
/// tiles did, nor on which frames share a batch.
///
/// # Panics
/// Panics if `rows` gives an odd count or zero.
fn walk<G: Graph, R>(
    graph: &G,
    xs: &[SandwichPlanes<'_>],
    rows: impl Fn(usize) -> usize + Sync,
    scratch: &Recycler<Scratch<G::Code, G::Walk>>,
    beside: impl FnOnce() -> R,
) -> (Vec<SegMask>, R) {
    let table = graph.cuts();
    let (mut words, bands): (Vec<_>, Vec<_>) = vrd_runtime::parallel_map(xs, |x| {
        let banded = Banded::of(x);
        (banded.table_words(table), banded)
    })
    .into_iter()
    .unzip();
    let mut work = Vec::new();
    for (words, banded) in words.iter_mut().zip(&bands) {
        let (_, w) = banded.planes.size();
        let rows = rows(w);
        assert!(
            rows > 0 && rows.is_multiple_of(2),
            "tiles start on even rows"
        );
        let tiles = banded
            .tile_rows(rows)
            .zip(words.chunks_mut(rows * w.div_ceil(MASK_WORD_BITS)));
        work.extend(tiles.map(|(t, out)| (banded.logits(t.clone()), banded, t, out)));
    }
    // The queue drains on its cheapest tiles, so the workers finish
    // together rather than one waiting out a costly last tile.
    work.sort_by_key(|&(logits, ..)| std::cmp::Reverse(logits));
    let logits: usize = work.iter().map(|&(logits, ..)| logits).sum();
    let threads = auto_threads(logits as u64 * pixel_macs(graph.hidden()));
    let (codes, cut) = (graph.codes(), sigmoid_cut());
    let out =
        vrd_runtime::parallel_for_each_beside(work, threads, beside, |(_, banded, t, out)| {
            let tile = banded.tile(t);
            scratch.with(|s| {
                let x = tile.input(codes, &mut s.input);
                tile.cut(graph.logits(x, &tile.plan, &mut s.walk), cut, out);
            });
        });
    let masks = bands.iter().zip(words).map(|(banded, words)| {
        let (h, w) = banded.planes.size();
        SegMask::from_words(w, h, words)
    });
    (masks.collect(), out)
}

/// How [`mask`] walks `x`: the number of row tiles, and the bytes of
/// scratch one call holds on one thread (measured by running it).
pub(crate) fn mask_tiles<G: Graph>(graph: &G, x: &SandwichPlanes<'_>) -> (usize, usize) {
    let (h, w) = x.size();
    let held = Recycler::one_call(|s| drop(mask(graph, x, s)));
    let bytes = held
        .iter()
        .map(|s| capacity_bytes(&s.input) + G::held_bytes(&s.walk));
    (h.div_ceil(graph.tile_rows(w)), bytes.sum())
}

/// Scratch structs recycled across calls: a walk (dense, or one tile of a
/// mask) takes one — a default one if none is free — and gives it back
/// when it is done, so a process holds as many as it ever ran walks at
/// once, each as large as the largest walk it served.
pub(crate) struct Recycler<T>(Mutex<Vec<T>>);

impl<T: Default> Recycler<T> {
    /// An empty recycler (usable in `static` position).
    pub(crate) const fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    /// The structs held.
    pub(crate) fn held(self) -> Vec<T> {
        self.0
            .into_inner()
            .expect("recycler lock is never poisoned")
    }

    /// What `call` leaves in a fresh recycler when it runs on one thread:
    /// the scratch one call holds.
    pub(crate) fn one_call(call: impl FnOnce(&Self)) -> Vec<T> {
        let scratch = Self::new();
        vrd_runtime::with_thread_budget(1, || call(&scratch));
        scratch.held()
    }

    /// Runs `f` on a recycled struct.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let free = || self.0.lock().expect("recycler lock is never poisoned");
        let mut scratch = free().pop().unwrap_or_default();
        let out = f(&mut scratch);
        free().push(scratch);
        out
    }
}

/// Element types of walk scratch: debug builds fill a stale buffer with
/// `POISON`, a value no kernel should be found reading ([`stale`]).
pub(crate) trait Poison: Copy {
    /// The debug-build fill of a stale buffer.
    const POISON: Self;
}

impl Poison for f32 {
    const POISON: f32 = f32::NAN;
}

impl Poison for i32 {
    /// Far outside any accumulator a quantized convolution produces, so an
    /// epilogue that reads it moves its output.
    const POISON: i32 = i32::MIN;
}

impl Poison for u8 {
    /// Above the 7-bit activation range, so a quantized kernel that reads
    /// it also moves its output.
    const POISON: u8 = 0xA5;
}

/// The first `len` elements of `buf`, stale: whatever an earlier walk left
/// there, or [`Poison::POISON`] in debug builds, so a read of an unwritten
/// element shows in tests. `buf` grows to exactly `len` when shorter, never
/// by the amortised doubling, so its capacity is the largest walk's need.
pub(crate) fn stale<T: Poison>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::POISON);
    }
    let out = &mut buf[..len];
    if cfg!(debug_assertions) {
        out.fill(T::POISON);
    }
    out
}

/// The capacity of `buf` in bytes.
pub(crate) fn capacity_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * std::mem::size_of::<T>()
}

/// The part of an NN-S input the mask must compute, and how to finish it.
pub(crate) struct Banded<'a> {
    planes: SandwichPlanes<'a>,
    /// The logits to compute: the band rounded out to [`BLOCK`]-pixel row
    /// blocks.
    conv3: SegMask,
}

impl<'a> Banded<'a> {
    /// The band of `planes`: the pixels within [`RADIUS`] of a value change
    /// in any plane or of the frame edge.
    pub(crate) fn of(planes: &SandwichPlanes<'a>) -> Self {
        Self {
            planes: *planes,
            conv3: blocks(&band(&planes.distinct(), RADIUS)),
        }
    }

    /// What each stage of one walk over the whole frame would compute.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> Plan {
        Plan::from_conv3(self.conv3.clone())
    }

    /// The share of conv1's, conv2's and conv3's output pixels the band
    /// covers (each tile also recomputes a few rows its neighbour computes):
    /// the whole frame's stage planes' popcounts.
    pub(crate) fn coverage(&self) -> [f64; 3] {
        let share = |m: &SegMask| m.count_ones() as f64 / (m.height() * m.width()).max(1) as f64;
        let [conv3, _, conv2, _, conv1, _] = derive(self.conv3.clone(), share);
        [conv1, conv2, conv3]
    }

    /// The logit rows of each tile of `rows` rows (the last one shorter),
    /// top to bottom.
    fn tile_rows(&self, rows: usize) -> impl Iterator<Item = Range<usize>> {
        let h = self.conv3.height();
        (0..h).step_by(rows).map(move |t0| t0..(t0 + rows).min(h))
    }

    /// The tile of logit rows `rows`.
    fn tile(&self, rows: Range<usize>) -> Tile<'_> {
        Tile::new(self.planes, &self.conv3, rows)
    }

    /// The logits rows `rows` computes: a tile's share of the band.
    fn logits(&self, rows: Range<usize>) -> usize {
        let wpr = self.conv3.width().div_ceil(MASK_WORD_BITS);
        let words = &self.conv3.words()[rows.start * wpr..rows.end * wpr];
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The tiles of `rows` logit rows each, top to bottom.
    #[cfg(test)]
    fn tiles(&self, rows: usize) -> Vec<Tile<'_>> {
        self.tile_rows(rows).map(|t| self.tile(t)).collect()
    }

    /// `table`'s bit for each pixel's code triple, spread over the
    /// frame's mask words: the mask outside the band.
    fn table_words(&self, table: CutTable) -> Vec<u64> {
        let channels =
            (self.planes.channels).map(|(white, gray)| (white.words(), gray.map(SegMask::words)));
        table_words(&channels, table)
    }
}

/// One row tile of a [`Banded`] walk: the logits of frame rows `[t0, t1)`,
/// computed on the sub-frame of rows `[a, b)` — the tile and [`HALO`] rows
/// on each side, clipped to the frame — by the plan of those logits alone.
struct Tile<'a> {
    planes: SandwichPlanes<'a>,
    /// `[t0, t1)`.
    rows: Range<usize>,
    /// `[a, b)`.
    frame: Range<usize>,
    plan: Plan,
    /// The frame's logits to compute on rows `[t0, t1)`, as mask words.
    keep: &'a [u64],
}

impl<'a> Tile<'a> {
    /// The tile of `conv3`'s `rows`: its sub-frame, and each stage's spans
    /// there by the same derivation as the whole frame's ([`Plan`]).
    fn new(planes: SandwichPlanes<'a>, conv3: &'a SegMask, rows: Range<usize>) -> Self {
        let frame = rows.start.saturating_sub(HALO)..(rows.end + HALO).min(conv3.height());
        let wpr = conv3.width().div_ceil(MASK_WORD_BITS);
        Self {
            planes,
            plan: Plan::from_conv3(window(conv3, frame.clone(), rows.clone())),
            keep: &conv3.words()[rows.start * wpr..rows.end * wpr],
            rows,
            frame,
        }
    }

    /// The sub-frame's `(height, width)`.
    fn size(&self) -> (usize, usize) {
        (self.frame.len(), self.planes.size().1)
    }

    /// The sub-frame's `3 × h × w` input on `buf`: `codes` (black, gray,
    /// white) on the pixels conv1 reads (`plan.input`) and every other
    /// element [`stale`].
    fn input<'b, T: Poison>(&self, codes: [T; 3], buf: &'b mut Vec<T>) -> Input<'b, T> {
        let (h, w) = self.size();
        let x = stale(buf, SANDWICH_CHANNELS * h * w);
        let expansion = Expansion::new(codes);
        for (channel, (white, gray)) in x.chunks_exact_mut(h * w).zip(self.planes.channels) {
            for y in 0..h {
                let frame_y = self.frame.start + y;
                for &(s, e) in self.plan.input.row(y) {
                    let dst = &mut channel[y * w + s..y * w + e];
                    expansion.row_span(white, gray, frame_y, s, dst);
                }
            }
        }
        Input::new(x, h, w)
    }

    /// Cuts the sub-frame's `logits` at `cut` into the tile's rows of mask
    /// words `out`, under the kept bits only — the only logits written: the
    /// logits from a word's lowest kept bit to its highest cut into byte
    /// flags, packed, and merged under its kept bits.
    fn cut(&self, logits: &[f32], cut: f32, out: &mut [u64]) {
        let (h, w) = self.size();
        assert_eq!(logits.len(), h * w, "logit plane size mismatch");
        let wpr = w.div_ceil(MASK_WORD_BITS);
        let first = (self.rows.start - self.frame.start) * wpr;
        let words = out.iter_mut().zip(self.keep);
        for (i, (word, &keep)) in (first..).zip(words).filter(|(_, (_, &keep))| keep != 0) {
            let x = (i / wpr) * w + i % wpr * MASK_WORD_BITS;
            let a = keep.trailing_zeros() as usize;
            let b = MASK_WORD_BITS - keep.leading_zeros() as usize;
            let mut flags = [0u8; 64];
            for (f, &z) in flags[a..b].iter_mut().zip(&logits[x + a..]) {
                *f = u8::from(z > cut);
            }
            *word = (*word & !keep) | (flags_to_word(&flags) & keep);
        }
    }
}

/// 64 byte flags (each 0 or 1) as the bits of a word, flag `j` at bit `j`:
/// per eight flags, one multiply gathers byte `i`'s low bit into bit
/// `56 + i`.
fn flags_to_word(flags: &[u8; 64]) -> u64 {
    let (bytes, _) = flags.as_chunks::<8>();
    bytes.iter().enumerate().fold(0, |word, (i, &b)| {
        let gathered = u64::from_le_bytes(b).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word | gathered << (8 * i)
    })
}

/// The mask words `table` gives every pixel by its code triple, from each
/// channel's white words and, if it has any, gray words. Each pixel holds
/// one code per channel, so a word's bits are the OR, over the 27 triples,
/// of the three channels' words of those codes AND-ed with an all-ones or
/// all-zero selector word of the triple's table bit: the table is read
/// once a call, and a word is the same operations whatever the table.
fn table_words(channels: &[(&[u64], Option<&[u64]>); 3], table: CutTable) -> Vec<u64> {
    let n = channels[0].0.len();
    let select: [[[u64; 3]; 3]; 3] = std::array::from_fn(|i0| {
        std::array::from_fn(|i1| {
            std::array::from_fn(|i2| 0u64.wrapping_sub(table.bit([i0, i1, i2]).into()))
        })
    });
    // A channel without gray reads an all-black gray plane.
    let black = vec![
        0;
        if channels.iter().all(|c| c.1.is_some()) {
            0
        } else {
            n
        }
    ];
    let [(w0, g0), (w1, g1), (w2, g2)] =
        channels.map(|(white, gray)| (&white[..n], &gray.unwrap_or(&black)[..n]));
    (0..n)
        .map(|i| {
            // Per channel, the pixels holding code 0, 1 and 2.
            let codes = |(one, two): (u64, u64)| [!(one | two), one, two];
            let [a, b, c] = [(g0[i], w0[i]), (g1[i], w1[i]), (g2[i], w2[i])].map(codes);
            let mut bits = 0;
            for (a, select) in a.iter().zip(&select) {
                for (b, s) in b.iter().zip(select) {
                    bits |= a & b & ((c[0] & s[0]) | (c[1] & s[1]) | (c[2] & s[2]));
                }
            }
            bits
        })
        .collect()
}

/// `graph`'s mask of `x` in tiles of `rows` logit rows, on structs of
/// `scratch`.
#[cfg(test)]
pub(crate) fn mask_in_tiles<G: Graph>(
    graph: &G,
    x: &SandwichPlanes<'_>,
    rows: usize,
    scratch: &Recycler<Scratch<G::Code, G::Walk>>,
) -> SegMask {
    let (mut one, ()) = walk(graph, std::slice::from_ref(x), |_| rows, scratch, || ());
    one.pop().expect("one mask per frame")
}

/// `nns` with non-zero biases of both signs, so constant images do not
/// all cut the same way.
#[cfg(test)]
pub(crate) fn biased(mut nns: crate::NnS) -> crate::NnS {
    for (l, conv) in nns.convs_mut().into_iter().enumerate() {
        for (i, b) in conv.params_mut().1.iter_mut().enumerate() {
            *b = 0.3 - 0.17 * (l + 2 * i) as f32;
        }
    }
    nns
}

/// A `w × h` mask of the ellipse centred at `(cx, cy)` with radii `(rx,
/// ry)`.
#[cfg(test)]
pub(crate) fn ellipse(w: usize, h: usize, (cx, cy): (f32, f32), (rx, ry): (f32, f32)) -> SegMask {
    let inside = |i: usize| {
        let (dx, dy) = (((i % w) as f32 - cx) / rx, ((i / w) as f32 - cy) / ry);
        dx * dx + dy * dy <= 1.0
    };
    SegMask::from_bits(w, h, (0..h * w).map(inside))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NnS, QuantNnS};
    use proptest::prelude::*;
    use vrd_video::texture::hash2;

    /// Every pixel of a `h × w` plane that `spans` covers, as a mask.
    fn covered(spans: &RowSpans) -> SegMask {
        let (h, w) = (spans.height(), spans.width());
        SegMask::from_bits(
            w,
            h,
            (0..h * w).map(|i| {
                let (x, y) = (i % w, i / w);
                spans.row(y).iter().any(|&(s, e)| (s..e).contains(&x))
            }),
        )
    }

    #[test]
    fn each_stage_covers_what_the_next_reads() {
        let (h, w) = (40, 98);
        let mut speck = SegMask::new(w, h);
        speck.set(50, 20, 1);
        let mut plan = Plan::from_conv3(blocks(&band(&[&speck], RADIUS)));
        let conv3 = covered(&plan.conv3);
        // The speck's window and the edge ring, rounded out to blocks.
        assert!(conv3.get(32, 20) == 1 && conv3.get(63, 25) == 1 && conv3.get(0, 0) == 1);
        assert_eq!(conv3.get(64, 20), 0);
        assert_eq!(conv3.get(32, 10), 0);
        // What each stage reads from the one before, pixel by pixel.
        let within = |y: usize, x: usize, s: &SegMask, r: usize| {
            (y.saturating_sub(r)..(y + r + 1).min(s.height())).all(|sy| {
                (x.saturating_sub(r)..(x + r + 1).min(s.width())).all(|sx| s.get(sx, sy) == 1)
            })
        };
        let [up, conv2, pool, conv1] =
            [&plan.up, &plan.conv2, &plan.pool, &plan.conv1].map(covered);
        for y in 0..h {
            for x in 0..w {
                if conv3.get(x, y) == 1 {
                    assert!(
                        within(y, x, &up, 1) && within(y, x, &conv1, 1),
                        "({x}, {y})"
                    );
                }
                if up.get(x, y) == 1 {
                    assert_eq!(conv2.get(x / 2, y / 2), 1, "({x}, {y})");
                }
                if x < w / 2 && y < h / 2 {
                    if conv2.get(x, y) == 1 {
                        assert!(within(y, x, &pool, 1), "({x}, {y})");
                    }
                    if pool.get(x, y) == 1 {
                        let block = [(0, 0), (1, 0), (0, 1), (1, 1)];
                        let read = block.map(|(dx, dy)| conv1.get(2 * x + dx, 2 * y + dy));
                        assert_eq!(read, [1; 4], "({x}, {y})");
                    }
                }
            }
        }
        // A dense plan covers everything, and cuts split work, not rows.
        plan = Plan::dense(h, w);
        assert_eq!(plan.conv1.area(), h * w);
        assert_eq!(plan.conv2.area(), h * w / 4);
        assert_eq!(RowSpans::full(h, w).cuts(4), [0, 10, 20, 30]);
        let top_heavy = runs(&mask_of(h, w, |x, y| y < 4 || x == 0));
        assert_eq!(top_heavy.cuts(2), [0, 3]);
    }

    /// One channel's codes (0 black, 1 gray, 2 white), by pattern `kind`:
    /// a white blob, stripes, specks, gray-heavy blocks, a frame touching
    /// every edge, a gray blob.
    fn codes(kind: usize, h: usize, w: usize, seed: u64) -> Vec<u8> {
        let r = |salt: i64, m: u64| hash2(salt, 9, seed) % m;
        let (cx, cy) = (r(1, w as u64) as f32, r(2, h as u64) as f32);
        let (rx, ry) = (1.0 + r(3, 40) as f32, 1.0 + r(4, 20) as f32);
        let period = 2 + r(5, 11) as usize;
        (0..h * w)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                let (dx, dy) = ((x as f32 - cx) / rx, (y as f32 - cy) / ry);
                let blob = u8::from(dx * dx + dy * dy <= 1.0);
                match kind {
                    0 => 2 * blob,
                    1 => 2 * u8::from((x + 2 * y) % period < period / 2),
                    2 => 2 * u8::from(hash2(i as i64, 4, seed).is_multiple_of(97)),
                    3 => (hash2((x / 5) as i64, (y / 3) as i64, seed) % 3) as u8,
                    4 => 2 * u8::from(x < 2 || y < 2 || x + 3 > w || y + 1 == h),
                    _ => blob,
                }
            })
            .collect()
    }

    /// A sandwich's masks and reconstruction of `kinds`' codes (the outer
    /// two white where their codes are).
    fn sandwich(h: usize, w: usize, kinds: [usize; 3], seed: u64) -> (SegMask, Seg2Plane, SegMask) {
        let mask = |k, s| SegMask::from_bits(w, h, codes(k, h, w, s).iter().map(|&c| c == 2));
        let recon = Seg2Plane::from_vec(w, h, codes(kinds[1], h, w, seed ^ 2));
        (mask(kinds[0], seed ^ 1), recon, mask(kinds[2], seed ^ 3))
    }

    /// A seeded NN-S of width `hid` with biases of both signs, calibrated
    /// on `x` when `calibrate`, and its int8 twin.
    fn models(hid: usize, seed: u64, x: &crate::Tensor, calibrate: bool) -> (NnS, QuantNnS) {
        let mut nns = biased(NnS::new(hid, seed));
        if calibrate {
            nns.calibrate(&[x]);
        }
        let q = nns.quantize();
        (nns, q)
    }

    /// `graph`'s mask of `planes` in tiles of `rows` logit rows.
    fn tiled<G: Graph>(graph: &G, planes: &SandwichPlanes<'_>, rows: usize) -> SegMask {
        mask_in_tiles(graph, planes, rows, &Recycler::new())
    }

    /// The spans of a mask's set pixels, row by row.
    fn runs(mask: &SegMask) -> RowSpans {
        let (h, w) = (mask.height(), mask.width());
        let (mut starts, mut spans) = (vec![0], Vec::new());
        for y in 0..h {
            let mut x = 0;
            while x < w {
                let start = x;
                while x < w && mask.get(x, y) == 1 {
                    x += 1;
                }
                if x > start {
                    spans.push((start, x));
                }
                x += 1;
            }
            starts.push(spans.len());
        }
        RowSpans { w, starts, spans }
    }

    /// `mask` grown by one ([`SegMask::grow1`]).
    fn grown(mut mask: SegMask) -> SegMask {
        mask.grow1();
        mask
    }

    /// A mask of `h × w` with `pixel` set where it says.
    fn mask_of(h: usize, w: usize, pixel: impl Fn(usize, usize) -> bool) -> SegMask {
        SegMask::from_bits(w, h, (0..h * w).map(|i| pixel(i % w, i / w)))
    }

    /// Whether each row's spans are ascending, non-empty and non-adjacent.
    fn canonical(spans: &RowSpans) -> bool {
        (0..spans.height()).all(|y| {
            let row = spans.row(y);
            row.iter().all(|&(s, e)| s < e && e <= spans.width())
                && row.windows(2).all(|p| p[0].1 < p[1].0)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every bit-row derivation a plan is made of covers exactly the
        /// pixels its definition names, holds no bit past its width and
        /// reads into canonical spans, at the case's width and at widths
        /// around one and two words (the half plane crossing a word).
        #[test]
        fn span_derivations_match_their_per_pixel_definitions(
            case in (1usize..30, 1usize..150, 0u64..1_000_000, 1usize..6, 0usize..4)
        ) {
            let (h, w, seed, run, r) = case;
            for w in std::iter::once(w).chain([1, 2, 63, 64, 65]).chain(126..132) {
                let random = |salt: i64| {
                    mask_of(h, w, |x, y| hash2((x / run) as i64, y as i64 * 7 + salt, seed).is_multiple_of(3))
                };
                let (a, b) = (random(0), random(1));
                prop_assert_eq!(covered(&runs(&a)), a.clone());
                let near = |m: &SegMask, x: usize, y: usize, r: usize| {
                    (y.saturating_sub(r)..(y + r + 1).min(h))
                        .any(|sy| (x.saturating_sub(r)..(x + r + 1).min(w)).any(|sx| m.get(sx, sy) == 1))
                };
                // A union is `or_double` onto a plane: on a zero one it is a
                // double, on `b` doubled the union of `b` and `a`, doubled.
                let double = |mut onto: SegMask, half: &SegMask| {
                    onto.or_double(half);
                    onto
                };
                let union = double(double(SegMask::new(2 * w, 2 * h), &b), &a);
                let mut derived = vec![
                    ((0..r).fold(a.clone(), |m, _| grown(m)), mask_of(h, w, |x, y| near(&a, x, y, r))),
                    (union, mask_of(2 * h, 2 * w, |x, y| a.get(x / 2, y / 2) == 1 || b.get(x / 2, y / 2) == 1)),
                    (double(SegMask::new(2 * w, 2 * h), &a), mask_of(2 * h, 2 * w, |x, y| a.get(x / 2, y / 2) == 1)),
                    (blocks(&a), mask_of(h, w, |x, y| {
                        let block = x / BLOCK * BLOCK;
                        (block..(block + BLOCK).min(w)).any(|sx| a.get(sx, y) == 1)
                    })),
                    (window(&a, h / 3..h, h / 2..h), mask_of(h - h / 3, w, |x, y| {
                        y + h / 3 >= h / 2 && a.get(x, y + h / 3) == 1
                    })),
                ];
                if h >= 2 && w >= 2 {
                    let block = [(0, 0), (1, 0), (0, 1), (1, 1)];
                    let want = mask_of(h / 2, w / 2, |x, y| {
                        block.iter().any(|&(dx, dy)| a.get(2 * x + dx, 2 * y + dy) == 1)
                    });
                    derived.push((a.halve(), want));
                }
                for (i, (plane, want)) in derived.iter().enumerate() {
                    let (pw, wpr) = (plane.width(), plane.width().div_ceil(MASK_WORD_BITS));
                    let past = !(u64::MAX >> (wpr * MASK_WORD_BITS - pw));
                    let tails = plane.words().chunks_exact(wpr).all(|row| row[wpr - 1] & past == 0);
                    prop_assert!(tails, "derivation {} at width {}: bits past the width", i, w);
                    let spans = RowSpans::of(plane);
                    prop_assert!(canonical(&spans), "derivation {} at width {}", i, w);
                    prop_assert_eq!(&covered(&spans), want, "derivation {} at width {}", i, w);
                }
            }
        }

        /// The halo proof, tile by tile: the tiles partition the rows, each
        /// on an even row; in frame rows, every stage a tile's logits need
        /// (and the input conv1 reads) lies in its sub-frame `[a, b)`, so
        /// the sub-frame's edges clip none of it, and the tile's plan is
        /// exactly that; each kept logit's ±5-row window lies in `[a, b)` or
        /// crosses the frame edge.
        #[test]
        fn tiles_hold_every_row_their_logits_read(
            case in (1usize..48, 1usize..40, 0usize..6, 0u64..1_000_000, 1usize..33)
        ) {
            let (h2, w2, kind, seed, rows2) = case;
            let (h, w, rows) = (2 * h2, 2 * w2, 2 * rows2);
            let recon = Seg2Plane::from_vec(w, h, codes(kind, h, w, seed));
            let banded = Banded::of(&SandwichPlanes::recon_only(&recon).unwrap());
            let mut next = 0;
            for tile in banded.tiles(rows) {
                let (t, f) = (tile.rows.clone(), tile.frame.clone());
                prop_assert!(t.start == next && t.start.is_multiple_of(2) && t.start < t.end);
                next = t.end;
                let full = Plan::from_conv3(window(&banded.conv3, 0..h, t.clone()));
                let read = RowSpans::of(&grown(covered(&full.conv1)));
                let stages = [
                    (&read, &RowSpans::of(&grown(covered(&tile.plan.conv1))), 1),
                    (&full.conv1, &tile.plan.conv1, 1),
                    (&full.pool, &tile.plan.pool, 2),
                    (&full.conv2, &tile.plan.conv2, 2),
                    (&full.up, &tile.plan.up, 1),
                    (&full.conv3, &tile.plan.conv3, 1),
                ];
                for (i, (whole, own, scale)) in stages.into_iter().enumerate() {
                    let sub = f.start / scale..f.end / scale;
                    let outside = (0..whole.height()).find(|y| !sub.contains(y) && !whole.row(*y).is_empty());
                    prop_assert_eq!(outside, None, "stage {} of tile {:?} leaves {:?}", i, t, f);
                    prop_assert_eq!(own, &RowSpans::of(&window(&covered(whole), sub.clone(), sub)), "stage {}", i);
                }
                for y in t.filter(|&y| !full.conv3.row(y).is_empty()) {
                    let top = y >= RADIUS && y - RADIUS >= f.start || y < RADIUS && f.start == 0;
                    let bottom = y + RADIUS < f.end || y + RADIUS >= h && f.end == h;
                    prop_assert!(top && bottom, "row {} in {:?}", y, f);
                }
            }
            prop_assert_eq!(next, h);
        }

        /// Both precisions' tiled mask equals the dense graph's at tile
        /// heights 2, 4 and 8: frames of many tiles, seams through every
        /// stage's rows.
        #[test]
        fn tiled_masks_equal_the_dense_mask(
            case in (
                1usize..21,
                1usize..66,
                (0usize..6, 0usize..6, 0usize..6),
                0u64..1_000_000,
                (0usize..2, 0usize..2),
                (1usize..7, 1usize..4),
            )
        ) {
            let (h2, w2, (k0, k1, k2), seed, (with_sandwich, calibrate), (hid, rows)) = case;
            let (h, w, rows) = (2 * h2, 2 * w2, 1 << rows);
            let (prev, recon, next) = sandwich(h, w, [k0, k1, k2], seed);
            let planes = if with_sandwich == 1 {
                SandwichPlanes::new(&prev, &recon, &next).unwrap()
            } else {
                SandwichPlanes::recon_only(&recon).unwrap()
            };
            let x = planes.to_tensor();
            let (nns, q) = models(hid, seed, &x, calibrate == 1);
            prop_assert_eq!(tiled(&nns, &planes, rows), nns.infer(&x).to_mask(0.5));
            prop_assert_eq!(tiled(&q, &planes, rows), q.infer(&x).to_mask(0.5));
        }
    }

    /// Both precisions' `mask`, at the tile height it picks, equals the
    /// dense graph's on frames three tiles tall.
    #[test]
    fn production_tiles_equal_the_dense_mask() {
        for (case, (w, hid)) in [(64, 3), (130, 6), (40, 1)].into_iter().enumerate() {
            let seed = 17 * case as u64;
            let probe = biased(NnS::new(hid, seed));
            let tall = [probe.tile_rows(w), probe.quantize().tile_rows(w)];
            for (int8, rows) in tall.into_iter().enumerate() {
                let h = 2 * rows + 2 + 2 * (seed as usize % (rows / 2));
                let (prev, recon, next) = sandwich(h, w, [0, 3, 1], seed);
                let planes = SandwichPlanes::new(&prev, &recon, &next).unwrap();
                let x = planes.to_tensor();
                let (nns, q) = models(hid, seed, &x, case % 2 == 0);
                assert_eq!(Banded::of(&planes).tiles(rows).len(), 3);
                if int8 == 1 {
                    at_production_rows(&q, &planes, rows, &q.infer(&x).to_mask(0.5));
                } else {
                    at_production_rows(&nns, &planes, rows, &nns.infer(&x).to_mask(0.5));
                }
            }
        }
    }

    /// `graph` picks tiles of `rows` on `planes`, and its mask there is
    /// `dense`.
    fn at_production_rows<G: Graph>(
        graph: &G,
        planes: &SandwichPlanes<'_>,
        rows: usize,
        dense: &SegMask,
    ) {
        let (h, w) = planes.size();
        assert_eq!(graph.tile_rows(w), rows);
        assert_eq!(&mask(graph, planes, &Recycler::new()), dense, "{w}×{h}");
    }

    /// A call's scratch is what one tile needs, not the frame: both
    /// precisions hold the same bytes on an 864×480 frame as on one twice
    /// as tall, and less than two tile budgets.
    #[test]
    fn scratch_is_bounded_by_the_tile() {
        let w = 864;
        let nns = NnS::new(8, 5);
        let q = nns.quantize();
        let bytes = |h: usize| {
            let blob = |cx| ellipse(w, h, (cx, h as f32 / 2.0), (150.0, 110.0));
            let (prev, next) = (blob(400.0), blob(406.0));
            let recon = Seg2Plane::mean_filter(&prev, &next);
            let planes = SandwichPlanes::new(&prev, &recon, &next).unwrap();
            [mask_tiles(&nns, &planes).1, mask_tiles(&q, &planes).1]
        };
        let (short, tall) = (bytes(480), bytes(960));
        assert_eq!(short, tall);
        assert!(
            short.iter().all(|&b| 0 < b && b < 2 * TILE_BYTES),
            "{short:?}"
        );
    }

    /// A batch's masks are its frames' own masks, whatever the batch and
    /// the width: both precisions, over 0, 1 and 3 frames of different
    /// sizes — one whose band spans whole rows, one constant (its band is
    /// the edge ring alone, its interior all cut-table bits) and a moving
    /// blob — in production tiles and in 8-row ones (many tiles a frame,
    /// every frame's in one queue), at widths 1, 2, 3 and 8. A width-2
    /// batch holds at most two scratch structs.
    #[test]
    fn the_batch_equals_its_frames() {
        let (w0, h0) = (192, 96);
        let stripes = Seg2Plane::from_vec(
            w0,
            h0,
            (0..h0 * w0).map(|i| 2 * (i % w0 % 2) as u8).collect(),
        );
        let (blank, flat) = (SegMask::new(64, 40), Seg2Plane::new(64, 40));
        let (prev, recon, next) = sandwich(48, 130, [0, 5, 0], 7);
        let xs = [
            SandwichPlanes::recon_only(&stripes).unwrap(),
            SandwichPlanes::new(&blank, &flat, &blank).unwrap(),
            SandwichPlanes::new(&prev, &recon, &next).unwrap(),
        ];
        let band = |x: &SandwichPlanes<'_>| RowSpans::of(&Banded::of(x).conv3);
        assert_eq!(band(&xs[0]).area(), w0 * h0, "whole rows");
        assert_eq!(
            band(&xs[1]).row(20),
            [(0, BLOCK), (64 - BLOCK, 64)],
            "the ring"
        );
        let nns = biased(NnS::new(8, 3));
        let q = nns.quantize();
        // The stripes alone reach the MAC count at which a walk fans out.
        let macs = (w0 * h0) as u64 * pixel_macs(nns.hidden());
        assert_eq!(vrd_runtime::with_thread_budget(2, || auto_threads(macs)), 2);
        batch_equals_frames(&nns, &xs);
        batch_equals_frames(&q, &xs);
    }

    /// [`the_batch_equals_its_frames`] on one precision.
    fn batch_equals_frames<G: Graph>(graph: &G, xs: &[SandwichPlanes<'_>]) {
        let one: Vec<SegMask> = xs
            .iter()
            .map(|x| mask(graph, x, &Recycler::new()))
            .collect();
        for threads in [1, 2, 3, 8] {
            vrd_runtime::with_thread_budget(threads, || {
                for n in [0, 1, 3] {
                    let scratch = Recycler::new();
                    let (batch, ()) = masks(graph, &xs[..n], &scratch, || ());
                    assert_eq!(batch, one[..n], "{n} frames at width {threads}");
                    let (small, ()) = walk(graph, &xs[..n], |_| 8, &scratch, || ());
                    assert_eq!(
                        small,
                        one[..n],
                        "{n} frames of 8-row tiles at width {threads}"
                    );
                    if threads == 2 {
                        let held = scratch.held().len();
                        assert!(held <= 2, "{held} scratch structs at width 2");
                    }
                }
            });
        }
    }

    #[test]
    fn recycler_reuses_its_structs() {
        let scratch = Recycler::<Vec<u8>>::new();
        let ptr = scratch.with(|v| {
            v.resize(1024, 0);
            v.as_ptr()
        });
        assert_eq!(scratch.with(|v| v.as_ptr()), ptr);
        // Structs in use at once are distinct, and each is kept.
        scratch.with(|a| scratch.with(|b| assert_ne!(a.as_ptr(), b.as_ptr())));
        assert_eq!(scratch.held().len(), 2);
    }

    #[test]
    fn stale_is_poisoned_in_debug_builds_and_unfilled_in_release() {
        let mut buf = Vec::new();
        stale(&mut buf, 64).fill(7u8);
        let want = if cfg!(debug_assertions) {
            u8::POISON
        } else {
            7
        };
        let got = stale(&mut buf, 48);
        assert_eq!(got.len(), 48);
        assert!(got.iter().all(|&v| v == want), "{got:?}");
        // Growing past the old length fills the new tail either way.
        let grown = stale(&mut buf, 100);
        assert_eq!(grown.len(), 100);
        assert!(grown[64..].iter().all(|&v| v == u8::POISON));
    }

    #[test]
    fn planes_of_different_sizes_are_an_error_naming_them() {
        let (prev, next) = (SegMask::new(64, 40), SegMask::new(66, 40));
        let recon = Seg2Plane::new(64, 40);
        let err = SandwichPlanes::new(&prev, &recon, &next).unwrap_err();
        assert!(err.contains("64×40") && err.contains("66×40"), "{err}");
        let err = SandwichPlanes::new(&prev, &Seg2Plane::new(64, 42), &prev).unwrap_err();
        assert!(err.contains("reconstruction 64×42"), "{err}");
    }

    #[test]
    fn odd_sides_are_an_error_naming_them() {
        for (w, h) in [(63, 40), (64, 41), (1, 1)] {
            let (mask, recon) = (SegMask::new(w, h), Seg2Plane::new(w, h));
            let planes = [
                SandwichPlanes::new(&mask, &recon, &mask),
                SandwichPlanes::recon_only(&recon),
            ];
            for err in planes.map(Result::unwrap_err) {
                assert!(err.contains(&format!("{w}×{h}")), "{err}");
            }
        }
    }

    #[test]
    fn the_band_reads_each_distinct_plane_once() {
        let (a, b) = (SegMask::new(8, 6), SegMask::new(8, 6));
        let recon = Seg2Plane::new(8, 6);
        let count = |p: SandwichPlanes<'_>| p.distinct().len();
        assert_eq!(count(SandwichPlanes::new(&a, &recon, &b).unwrap()), 4);
        assert_eq!(count(SandwichPlanes::new(&a, &recon, &a).unwrap()), 3);
        assert_eq!(count(SandwichPlanes::recon_only(&recon).unwrap()), 2);
    }

    /// The table's bits spread over the words are, pixel by pixel, its bit
    /// for the pixel's code triple: on random planes with a gray plane in
    /// every channel, in the reconstruction's only, and in none, under an
    /// all-zero, an all-one and scattered tables.
    #[test]
    fn table_words_are_the_per_pixel_table_bits() {
        let (w, h) = (200, 6);
        let plane = |salt: i64, seed: u64| {
            SegMask::from_bits(
                w,
                h,
                (0..w * h).map(|i| hash2(i as i64, salt, seed).is_multiple_of(3)),
            )
        };
        let and_not = |a: &SegMask, b: &SegMask| {
            let words = a.words().iter().zip(b.words()).map(|(x, y)| x & !y);
            SegMask::from_words(w, h, words.collect())
        };
        let tables = [
            0,
            (1 << 27) - 1,
            1 << 13,
            0x2a5_a5a5,
            0x7ff_fff0 ^ 0x123_4567,
        ];
        for seed in 0..4 {
            let whites = [0, 1, 2].map(|c| plane(c, seed));
            let grays: Vec<SegMask> = (0..3)
                .map(|c| and_not(&plane(c + 3, seed), &whites[c as usize]))
                .collect();
            let gray_sets = [[true; 3], [false, true, false], [false; 3]];
            for has_gray in gray_sets {
                let grays: [Option<&SegMask>; 3] =
                    std::array::from_fn(|c| has_gray[c].then_some(&grays[c]));
                let channels: [(&[u64], Option<&[u64]>); 3] =
                    std::array::from_fn(|c| (whites[c].words(), grays[c].map(SegMask::words)));
                for bits in tables {
                    let table = CutTable(bits);
                    let got = SegMask::from_words(w, h, table_words(&channels, table));
                    let want = SegMask::from_bits(
                        w,
                        h,
                        (0..w * h).map(|i| {
                            let (x, y) = (i % w, i / w);
                            table.bit(std::array::from_fn(|c| {
                                let gray = grays[c].is_some_and(|g| g.get(x, y) == 1);
                                if whites[c].get(x, y) == 1 {
                                    2
                                } else {
                                    usize::from(gray)
                                }
                            }))
                        }),
                    );
                    assert_eq!(got, want, "table {bits:#x}, gray planes {has_gray:?}");
                }
            }
        }
    }

    #[test]
    fn cut_table_indexes_channel_codes_in_order() {
        let table = CutTable::build(|[a, b, c]| a == 2 && b == 0 && c == 1);
        assert_eq!(table, CutTable(1 << (2 + 9)));
        assert!(table.bit([2, 0, 1]) && !table.bit([1, 0, 2]));
    }
}
