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
//! [`vrd_video::mask::band`] finds the pixels whose window is not uniform
//! or leaves the frame, on the channels' code planes packed 64 pixels to a
//! word. [`Plan`] rounds them out to [`BLOCK`]-pixel row blocks for conv3
//! and grows each earlier stage's columns by what the next one reads.
//! Everything else — which input is refined, training, calibration,
//! `infer` — runs the dense plan.

use vrd_video::mask::band;
use vrd_video::{SegMask, MASK_WORD_BITS};

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

/// The part of a sandwich NN-S must compute, and how to finish its mask.
pub(crate) struct Banded {
    h: usize,
    w: usize,
    /// Per channel, the pixels holding code 1 and those holding code 2; none
    /// when some value is not a code, which makes every pixel a band pixel.
    codes: Option<[SegMask; 6]>,
    plan: Plan,
}

impl Banded {
    /// The band of the `3 × h × w` input `x` whose elements are meant to be
    /// `codes` (black, gray, white).
    pub(crate) fn of<T: Code>(x: &[T], (h, w): (usize, usize), codes: [T; 3]) -> Self {
        let codes = pack_codes(x, (h, w), codes);
        let plan = match &codes {
            Some(planes) => Plan::band(&band(&planes.each_ref(), RADIUS)),
            None => Plan::dense(h, w),
        };
        Self { h, w, codes, plan }
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

    /// The mask: `logits` cut at `cut` on conv3's spans — the only logits
    /// written — and `table`'s bit for its code triple everywhere else.
    pub(crate) fn mask(&self, logits: &[f32], cut: f32, table: CutTable) -> SegMask {
        let (h, w) = (self.h, self.w);
        assert_eq!(logits.len(), h * w, "logit plane size mismatch");
        let wpr = w.div_ceil(MASK_WORD_BITS);
        let mut words = match &self.codes {
            Some(planes) => table_words(planes, table),
            None => vec![0; wpr * h],
        };
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

/// Each channel of `x` as two bitplanes — its pixels holding `codes[1]`
/// and those holding `codes[2]` (a pixel equal to an earlier code counts as
/// that one) — or `None` if some element is none of the codes.
fn pack_codes<T: Code>(x: &[T], (h, w): (usize, usize), codes: [T; 3]) -> Option<[SegMask; 6]> {
    assert_eq!(
        x.len(),
        3 * h * w,
        "NN-S expects the 3-channel sandwich input"
    );
    let wpr = w.div_ceil(MASK_WORD_BITS);
    let mut planes = Vec::with_capacity(6);
    for channel in x.chunks_exact(h * w) {
        let (mut ones, mut twos) = (vec![0; wpr * h], vec![0; wpr * h]);
        for (y, row) in channel.chunks_exact(w).enumerate() {
            let (runs, rest) = row.as_chunks::<64>();
            // A short last run is padded with code 0, which flags nothing.
            let mut last = [codes[0]; 64];
            last[..rest.len()].copy_from_slice(rest);
            let tail = (!rest.is_empty()).then_some(&last);
            for (k, run) in runs.iter().chain(tail).enumerate() {
                let [one, two, strangers] = T::flags(run, codes);
                if strangers != 0 {
                    return None;
                }
                ones[y * wpr + k] = one;
                twos[y * wpr + k] = two;
            }
        }
        planes.push(SegMask::from_words(w, h, ones));
        planes.push(SegMask::from_words(w, h, twos));
    }
    planes.try_into().ok()
}

/// An element type NN-S inputs are written in, compared with the codes 64
/// elements at a time.
pub(crate) trait Code: Copy {
    /// Bit `j` of each word says element `j` of `run` is `codes[1]` (and
    /// not `codes[0]`), is `codes[2]` (and neither other), or is none of
    /// the three.
    fn flags(run: &[Self; 64], codes: [Self; 3]) -> [u64; 3];
}

impl Code for f32 {
    /// Compares bit patterns, so a value is a code only if it is that very
    /// float (`-0.0` is not `0.0`).
    fn flags(run: &[f32; 64], codes: [f32; 3]) -> [u64; 3] {
        #[cfg(target_arch = "x86_64")]
        if crate::quant::avx2_enabled() {
            // SAFETY: AVX2 was just detected on this CPU, which is all
            // `x86::flags_f32` (safe code compiled for that target)
            // requires.
            return unsafe { x86::flags_f32(run, codes) };
        }
        portable_flags(&run.map(f32::to_bits), codes.map(f32::to_bits))
    }
}

impl Code for u8 {
    fn flags(run: &[u8; 64], codes: [u8; 3]) -> [u64; 3] {
        #[cfg(target_arch = "x86_64")]
        if crate::quant::avx2_enabled() {
            // SAFETY: as for `f32` above.
            return unsafe { x86::flags_u8(run, codes) };
        }
        portable_flags(run, codes)
    }
}

/// [`Code::flags`] one element at a time.
fn portable_flags<T: Copy + PartialEq>(run: &[T; 64], [c0, c1, c2]: [T; 3]) -> [u64; 3] {
    run.iter()
        .enumerate()
        .fold([0; 3], |[one, two, other], (j, &v)| {
            let (is0, is1, is2) = (v == c0, v == c1, v == c2);
            [
                one | u64::from(is1 && !is0) << j,
                two | u64::from(is2 && !is0 && !is1) << j,
                other | u64::from(!(is0 || is1 || is2)) << j,
            ]
        })
}

/// [`Code::flags`] as AVX2 compares and move-masks: eight floats or 32
/// bytes per compare.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)] // the intrinsics namespace is the API
    use std::arch::x86_64::*;

    /// Per-lane masks of `is code 0/1/2` merged into the three flag words
    /// at bit `shift`, `width` lanes wide.
    #[inline(always)]
    fn merge(out: &mut [u64; 3], [m0, m1, m2]: [u64; 3], shift: usize, width: usize) {
        let lanes = u64::MAX >> (64 - width);
        out[0] |= (m1 & !m0) << shift;
        out[1] |= (m2 & !m0 & !m1) << shift;
        out[2] |= (!(m0 | m1 | m2) & lanes) << shift;
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn flags_f32(run: &[f32; 64], codes: [f32; 3]) -> [u64; 3] {
        let codes = codes.map(|c| _mm256_set1_epi32(c.to_bits() as i32));
        let mut out = [0; 3];
        for (i, eight) in run.as_chunks::<8>().0.iter().enumerate() {
            // SAFETY: `eight` is 8 floats, the width of the load.
            let v = unsafe { _mm256_loadu_si256(eight.as_ptr().cast()) };
            let is = codes
                .map(|c| _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, c))) as u64);
            merge(&mut out, is, 8 * i, 8);
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn flags_u8(run: &[u8; 64], codes: [u8; 3]) -> [u64; 3] {
        let codes = codes.map(|c| _mm256_set1_epi8(c as i8));
        let mut out = [0; 3];
        for (i, bytes) in run.as_chunks::<32>().0.iter().enumerate() {
            // SAFETY: `bytes` is 32 bytes, the width of the load.
            let v = unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) };
            let is = codes.map(|c| _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, c)) as u32 as u64);
            merge(&mut out, is, 32 * i, 32);
        }
        out
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

/// The mask words `table` gives every pixel by its code triple.
fn table_words(planes: &[SegMask; 6], table: CutTable) -> Vec<u64> {
    let words = planes.each_ref().map(SegMask::words);
    (0..words[0].len())
        .map(|i| {
            // Per channel, the pixels holding code 0, 1 and 2.
            let onehot = |c: usize| {
                let (one, two) = (words[2 * c][i], words[2 * c + 1][i]);
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
    fn codes_pack_by_first_match_and_reject_strangers() {
        let x = [0u8, 5, 9, 5, 0, 0, 9, 9, 5, 0, 5, 9];
        let planes = pack_codes(&x, (1, 4), [0, 5, 9]).unwrap();
        let bits = |m: &SegMask| m.words()[0];
        assert_eq!(
            planes.each_ref().map(bits),
            [0b1010, 0b0100, 0, 0b1100, 0b0101, 0b1000]
        );
        // A repeated code counts as its first occurrence.
        let fives = [0u8, 5, 0, 5].repeat(3);
        let dup = pack_codes(&fives, (1, 4), [0, 5, 5]).unwrap();
        assert_eq!((bits(&dup[0]), bits(&dup[1])), (0b1010, 0));
        assert!(pack_codes(&x, (1, 4), [0, 5, 8]).is_none());
    }

    #[test]
    fn code_flags_match_one_element_at_a_time() {
        // The dispatched compare (AVX2 where detected) against the scalar
        // one, with strangers (`9`, `-0.0`) and a repeated code.
        for seed in 0..64u64 {
            let pick = |j: usize| (vrd_video::texture::hash2(j as i64, 5, seed) % 4) as usize;
            let bytes: [u8; 64] = std::array::from_fn(|j| [0, 64, 127, 9][pick(j)]);
            let floats: [f32; 64] = std::array::from_fn(|j| [0.0, 0.5, 1.0, -0.0][pick(j)]);
            for codes in [[0, 64, 127], [0, 64, 64]] {
                assert_eq!(u8::flags(&bytes, codes), portable_flags(&bytes, codes));
            }
            let codes = [0.0f32, 0.5, 1.0];
            let scalar = portable_flags(&floats.map(f32::to_bits), codes.map(f32::to_bits));
            assert_eq!(f32::flags(&floats, codes), scalar);
            assert_eq!(
                scalar[2].count_ones() as usize,
                (0..64).filter(|&j| pick(j) == 3).count()
            );
        }
    }

    #[test]
    fn cut_table_indexes_channel_codes_in_order() {
        let table = CutTable::build(|[a, b, c]| a == 2 && b == 0 && c == 1);
        assert_eq!(table, CutTable(1 << (2 + 9)));
        assert!(table.bit([2, 0, 1]) && !table.bit([1, 0, 2]));
    }
}
