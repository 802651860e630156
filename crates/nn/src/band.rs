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
//! # Packed in, packed out
//!
//! The input arrives as what the engine holds, [`SandwichPlanes`]: the
//! anchors' 1-bit masks and the reconstruction's white and gray bitplanes,
//! 64 pixels to a word. Those planes are the code planes: a pixel's code
//! in a channel is white, gray or black by which plane has it. So
//! [`vrd_video::mask::band`] runs on the distinct planes directly to find
//! the pixels whose window is not uniform or leaves the frame, and the
//! table's bits are spread over the same words ([`Banded::mask`]). [`Plan`]
//! rounds the band out to [`BLOCK`]-pixel row blocks for conv3 and grows
//! each earlier stage's columns by what the next one reads; the dense
//! input is written only where conv1 reads it, its spans grown by its
//! 3×3 halo ([`Banded::input`]), into a buffer that is otherwise stale
//! like every other stage's. Training, calibration and `infer` take a
//! dense tensor and run the dense plan.

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
pub(crate) const TABLE_SIDE: usize = 2 * RADIUS + 2;

/// The columns of each row one stage computes: ascending, disjoint,
/// non-adjacent `[start, end)` spans per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowSpans {
    w: usize,
    /// Row `y`'s spans are `spans[starts[y]..starts[y + 1]]`.
    starts: Vec<usize>,
    spans: Vec<(usize, usize)>,
}

impl RowSpans {
    /// Builds `h` rows of width `w`, row `y`'s spans being whatever `row`
    /// pushes for it (in any order, overlapping or not, clipped to the row).
    fn build(h: usize, w: usize, mut row: impl FnMut(usize, &mut Vec<(usize, usize)>)) -> Self {
        let (mut starts, mut spans) = (Vec::with_capacity(h + 1), Vec::new());
        let mut raw = Vec::new();
        starts.push(0);
        for y in 0..h {
            raw.clear();
            row(y, &mut raw);
            raw.sort_unstable();
            let first = spans.len();
            for &(s, e) in &raw {
                let (s, e) = (s.min(w), e.min(w));
                if s >= e {
                    continue;
                }
                let merges = spans.len() > first;
                match spans.last_mut() {
                    Some((_, end)) if merges && s <= *end => *end = (*end).max(e),
                    _ => spans.push((s, e)),
                }
            }
            starts.push(spans.len());
        }
        Self { w, starts, spans }
    }

    /// Every column of every row.
    pub(crate) fn full(h: usize, w: usize) -> Self {
        Self::build(h, w, |_, row| row.push((0, w)))
    }

    /// The [`BLOCK`]-pixel blocks of each row that hold a pixel of `mask`.
    fn blocks(mask: &SegMask) -> Self {
        let (w, words) = (mask.width(), mask.words());
        let wpr = w.div_ceil(MASK_WORD_BITS);
        let per_word = MASK_WORD_BITS / BLOCK;
        Self::build(mask.height(), w, |y, row| {
            for (k, &word) in words[y * wpr..][..wpr].iter().enumerate() {
                for b in 0..per_word {
                    if (word >> (b * BLOCK)) & ((1 << BLOCK) - 1) != 0 {
                        let x = (k * per_word + b) * BLOCK;
                        row.push((x, x + BLOCK));
                    }
                }
            }
        })
    }

    /// Rows and columns within `r` of a span (what a 3×3 layer computing
    /// these spans reads, for `r = 1`).
    fn grow(&self, r: usize) -> Self {
        Self::build(self.height(), self.w, |y, row| {
            for sy in y.saturating_sub(r)..(y + r + 1).min(self.height()) {
                row.extend(
                    self.row(sy)
                        .iter()
                        .map(|&(s, e)| (s.saturating_sub(r), e + r)),
                );
            }
        })
    }

    /// The half-resolution pixels whose 2×2 block holds a span pixel.
    fn halve(&self) -> Self {
        Self::build(self.height() / 2, self.w / 2, |y, row| {
            for sy in [2 * y, 2 * y + 1] {
                row.extend(self.row(sy).iter().map(|&(s, e)| (s / 2, e.div_ceil(2))));
            }
        })
    }

    /// The double-resolution pixels whose half-resolution pixel is a span
    /// pixel.
    fn double(&self) -> Self {
        Self::build(2 * self.height(), 2 * self.w, |y, row| {
            row.extend(self.row(y / 2).iter().map(|&(s, e)| (2 * s, 2 * e)));
        })
    }

    /// The pixels of either.
    fn union(&self, other: &Self) -> Self {
        Self::build(self.height(), self.w, |y, row| {
            row.extend_from_slice(self.row(y));
            row.extend_from_slice(other.row(y));
        })
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
    /// Every pixel of every stage of an `h × w` walk.
    pub(crate) fn dense(h: usize, w: usize) -> Self {
        Self {
            conv1: RowSpans::full(h, w),
            pool: RowSpans::full(h / 2, w / 2),
            conv2: RowSpans::full(h / 2, w / 2),
            up: RowSpans::full(h, w),
            conv3: RowSpans::full(h, w),
        }
    }

    /// The logits of `band`'s [`BLOCK`]-pixel row blocks, and what they
    /// read: conv3 reads the concatenation at ±1; the upsample reads `a2`
    /// at half those columns, conv2 the pool at ±1 around them, the pool
    /// `a1` at twice those; conv1 computes what conv3 and the pool read.
    fn band(band: &SegMask) -> Self {
        let conv3 = RowSpans::blocks(band);
        let up = conv3.grow(1);
        let conv2 = up.halve();
        let pool = conv2.grow(1);
        let conv1 = up.union(&pool.double());
        Self {
            conv1,
            pool,
            conv2,
            up,
            conv3,
        }
    }
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
    /// Reads each triple's bit from `centre_bit`, the dense graph's cut bit
    /// at the centre of a [`TABLE_SIDE`]-square image holding that triple's
    /// codes.
    pub(crate) fn build(mut centre_bit: impl FnMut([usize; 3]) -> bool) -> Self {
        Self(triples().fold(0, |bits, [i0, i1, i2]| {
            bits | u32::from(centre_bit([i0, i1, i2])) << (i0 + 3 * i1 + 9 * i2)
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
}

#[cfg(test)]
impl SandwichPlanes<'_> {
    /// The planes expanded to the dense f32 input `infer` takes: 0, ½ and
    /// 1 for black, gray and white.
    pub(crate) fn to_tensor(self) -> crate::Tensor {
        let (h, w) = self.size();
        let mut x = vec![0.0; 3 * h * w];
        let expansion = Expansion::new([0.0, 0.5, 1.0]);
        for (channel, (white, gray)) in x.chunks_exact_mut(h * w).zip(self.channels) {
            expansion.rows(white, gray, channel);
        }
        crate::Tensor::from_vec(3, h, w, x)
    }
}

/// The part of an NN-S input the mask must compute, and how to finish it.
pub(crate) struct Banded<'a> {
    planes: SandwichPlanes<'a>,
    plan: Plan,
}

impl<'a> Banded<'a> {
    /// The band of `planes`: the pixels within [`RADIUS`] of a value change
    /// in any plane or of the frame edge.
    pub(crate) fn of(planes: &SandwichPlanes<'a>) -> Self {
        let plan = Plan::band(&band(&planes.distinct(), RADIUS));
        Self {
            planes: *planes,
            plan,
        }
    }

    /// What each stage computes.
    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The share of conv1's, conv2's and conv3's output pixels the plan
    /// computes.
    pub(crate) fn coverage(&self) -> [f64; 3] {
        let share =
            |spans: &RowSpans| spans.area() as f64 / (spans.height() * spans.width()).max(1) as f64;
        [&self.plan.conv1, &self.plan.conv2, &self.plan.conv3].map(share)
    }

    /// Writes the `3 × h × w` input `x` as `codes` (black, gray, white) on
    /// the pixels conv1 reads — its spans grown by its 3×3 halo — and
    /// leaves every other element as it was.
    ///
    /// # Panics
    /// Panics if `x` is not `3 × h × w` long.
    pub(crate) fn input<T: Copy>(&self, codes: [T; 3], x: &mut [T]) {
        let (h, w) = self.planes.size();
        assert_eq!(
            x.len(),
            3 * h * w,
            "NN-S expects the 3-channel sandwich input"
        );
        let read = self.plan.conv1.grow(1);
        let expansion = Expansion::new(codes);
        for (channel, (white, gray)) in x.chunks_exact_mut(h * w).zip(self.planes.channels) {
            for y in 0..h {
                for &(s, e) in read.row(y) {
                    expansion.row_span(white, gray, y, s, &mut channel[y * w + s..y * w + e]);
                }
            }
        }
    }

    /// The mask: `logits` cut at `cut` on conv3's spans — the only logits
    /// written — and `table`'s bit for its code triple everywhere else.
    pub(crate) fn mask(&self, logits: &[f32], cut: f32, table: CutTable) -> SegMask {
        let (h, w) = self.planes.size();
        assert_eq!(logits.len(), h * w, "logit plane size mismatch");
        let wpr = w.div_ceil(MASK_WORD_BITS);
        let channels = self
            .planes
            .channels
            .map(|(white, gray)| (white.words(), gray.map(SegMask::words)));
        let mut words = table_words(&channels, table);
        for y in 0..h {
            let row = &mut words[y * wpr..][..wpr];
            for &(s, e) in self.plan.conv3.row(y) {
                // The span word by word: its logits cut into byte flags,
                // packed, and merged under the span's bits.
                let first = s / MASK_WORD_BITS;
                let words = &mut row[first..e.div_ceil(MASK_WORD_BITS)];
                for (k, word) in (first..).zip(words) {
                    let base = k * MASK_WORD_BITS;
                    let (a, b) = (s.max(base), e.min(base + MASK_WORD_BITS));
                    let mut flags = [0u8; 64];
                    let cuts = logits[y * w + a..y * w + b].iter();
                    for (f, &z) in flags[a - base..].iter_mut().zip(cuts) {
                        *f = u8::from(z > cut);
                    }
                    let span = (u64::MAX >> (MASK_WORD_BITS - (b - a))) << (a - base);
                    *word = (*word & !span) | (flags_to_word(&flags) & span);
                }
            }
        }
        SegMask::from_words(w, h, words)
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
/// channel's white words and, if it has any, gray words.
fn table_words(channels: &[(&[u64], Option<&[u64]>); 3], table: CutTable) -> Vec<u64> {
    (0..channels[0].0.len())
        .map(|i| {
            // Per channel, the pixels holding code 0, 1 and 2.
            let onehot = |c: usize| {
                let (white, gray) = channels[c];
                let (one, two) = (gray.map_or(0, |g| g[i]), white[i]);
                [!(one | two), one, two]
            };
            let [a, b, c] = [onehot(0), onehot(1), onehot(2)];
            let mut bits = 0;
            for (i0, &a) in a.iter().enumerate() {
                for (i1, &b) in b.iter().enumerate() {
                    let ab = a & b;
                    for (i2, &c) in c.iter().enumerate() {
                        if table.bit([i0, i1, i2]) {
                            bits |= ab & c;
                        }
                    }
                }
            }
            bits
        })
        .collect()
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
        let mut plan = Plan::band(&band(&[&speck], RADIUS));
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
        let top_heavy = RowSpans::build(h, w, |y, row| row.push((0, if y < 4 { w } else { 1 })));
        assert_eq!(top_heavy.cuts(2), [0, 3]);
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

    #[test]
    fn cut_table_indexes_channel_codes_in_order() {
        let table = CutTable::build(|[a, b, c]| a == 2 && b == 0 && c == 1);
        assert_eq!(table, CutTable(1 << (2 + 9)));
        assert!(table.bit([2, 0, 1]) && !table.bit([1, 0, 2]));
    }
}
