//! Bit-packed segmentation rasters: binary masks and the 2-bit planes
//! VR-DANN reconstructs B-frames into.
//!
//! The paper's whole premise (§III-A1, §IV) is that B-frame segmentation is
//! cheap *mask arithmetic*: 1-bit masks are combined into 2-bit
//! black/gray/white planes by motion-vector replay, and the agent unit
//! coalesces the random reference-block reads into DRAM bursts. This module
//! is the software analogue: [`SegMask`] packs 64 pixels into each `u64`
//! word and [`Seg2Plane`] holds two such bitplanes (white = both references
//! foreground, gray = they disagreed), so block copies, the bi-reference
//! mean filter, thresholding and confusion tallies all become word-parallel
//! bitwise operations instead of byte-per-pixel loops.
//!
//! ## Word layout
//!
//! Rows are padded to a whole number of words, so every
//! row starts word-aligned and row slices are disjoint — per-row parallelism
//! stays race-free. Within a word, bit `j` (LSB-first) is pixel
//! `x = word_index * 64 + j`. Bits past `width` in a row's final word (the
//! *tail bits*) are always zero; every mutating entry point preserves that
//! invariant, which is what lets `count_ones()`-style reductions run over
//! raw words without masking.
//!
//! Per-pixel reference semantics are retained in [`mod@reference`] (and in the
//! scalar `get`/`set` accessors themselves); property tests pin the packed
//! kernels to them bit-for-bit.

use crate::geom::Rect;

/// Pixels per packed mask word.
pub const MASK_WORD_BITS: usize = 64;

/// Validation failure when constructing a mask or plane from raw data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaskError {
    /// The buffer length does not match `width * height`.
    SizeMismatch {
        /// `width * height` of the requested raster.
        expected: usize,
        /// Length of the supplied buffer.
        got: usize,
    },
    /// A value was outside the raster's alphabet (0/1 for masks,
    /// 0/1/2 for planes).
    BadValue {
        /// Row-major index of the offending value.
        index: usize,
        /// The value found there.
        value: u8,
    },
    /// A requested dimension was zero.
    ZeroDimension,
}

impl std::fmt::Display for MaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaskError::SizeMismatch { expected, got } => {
                write!(f, "buffer size mismatch: expected {expected}, got {got}")
            }
            MaskError::BadValue { index, value } => {
                write!(f, "invalid value {value} at index {index}")
            }
            MaskError::ZeroDimension => write!(f, "dimensions must be non-zero"),
        }
    }
}

impl std::error::Error for MaskError {}

/// The low `n` bits set (`n` may be 64).
#[inline]
fn low_bits(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One packed 1-bit-per-pixel plane with word-aligned rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitPlane {
    width: usize,
    height: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitPlane {
    fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        let words_per_row = width.div_ceil(MASK_WORD_BITS);
        Self {
            width,
            height,
            words_per_row,
            words: vec![0; words_per_row * height],
        }
    }

    #[inline]
    fn get(&self, x: usize, y: usize) -> bool {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let w = self.words[y * self.words_per_row + x / 64];
        (w >> (x % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, x: usize, y: usize, v: bool) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let word = &mut self.words[y * self.words_per_row + x / 64];
        let bit = 1u64 << (x % 64);
        if v {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    #[inline]
    fn get_clamped(&self, x: i32, y: i32) -> bool {
        let cx = x.clamp(0, self.width as i32 - 1) as usize;
        let cy = y.clamp(0, self.height as i32 - 1) as usize;
        self.get(cx, cy)
    }

    fn count_ones(&self) -> usize {
        // Tail bits are zero by invariant, so raw popcounts are exact.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The `n` bits starting at in-range column `x0` of row `y`
    /// (`x0 + n <= width`, `1 <= n <= 64`).
    #[inline]
    fn extract_span(&self, y: usize, x0: usize, n: usize) -> u64 {
        debug_assert!(x0 + n <= self.width && y < self.height);
        WordSpan::new(x0, n).read(&self.words, y * self.words_per_row)
    }

    /// The `n` bits starting at column `x0` of row `y`, with out-of-range
    /// coordinates clamped to the nearest edge pixel — the word-parallel
    /// equivalent of `n` successive `get_clamped` reads.
    fn extract_row_clamped(&self, y: i32, x0: i32, n: usize) -> u64 {
        debug_assert!((1..=64).contains(&n));
        let y = y.clamp(0, self.height as i32 - 1) as usize;
        let (x0, x1) = (x0 as i64, x0 as i64 + n as i64);
        let w = self.width as i64;
        if x0 >= 0 && x1 <= w {
            return self.extract_span(y, x0 as usize, n);
        }
        let mut bits = 0u64;
        // Positions left of the plane replicate pixel 0.
        if x0 < 0 && self.get(0, y) {
            bits |= low_bits(((-x0) as usize).min(n));
        }
        // The in-range middle, shifted to its offset inside the block row.
        let (s, e) = (x0.max(0), x1.min(w));
        if s < e {
            bits |= self.extract_span(y, s as usize, (e - s) as usize) << (s - x0);
        }
        // Positions right of the plane replicate pixel width-1.
        if x1 > w && self.get(self.width - 1, y) {
            let first = ((w - x0).max(0)) as usize;
            bits |= low_bits(n) & !low_bits(first);
        }
        bits
    }

    /// Overwrites the `n`-bit span at in-range column `x0` of row `y`
    /// (`x0 + n <= width`) with `bits` — a shift-and-merge word move.
    #[inline]
    fn write_span(&mut self, y: usize, x0: usize, n: usize, bits: u64) {
        assert!(
            x0 + n <= self.width && y < self.height,
            "span out of bounds"
        );
        let row = y * self.words_per_row;
        WordSpan::new(x0, n).merge(&mut self.words, row, bits & low_bits(n));
    }

    /// Sets every bit in columns `[x0, x1)` of row `y`.
    fn fill_row_span(&mut self, y: usize, x0: usize, x1: usize) {
        debug_assert!(x0 <= x1 && x1 <= self.width);
        let base = y * self.words_per_row;
        let (w0, w1) = (x0 / 64, x1.div_ceil(64));
        for k in w0..w1 {
            let lo = x0.max(k * 64) - k * 64;
            let hi = x1.min((k + 1) * 64) - k * 64;
            self.words[base + k] |= low_bits(hi) & !low_bits(lo);
        }
    }

    /// Zeroes any bits at or past `width` in each row's final word,
    /// restoring the tail invariant after bulk word writes.
    fn clear_tail_bits(&mut self) {
        let used = self.width % 64;
        if used == 0 {
            return;
        }
        let m = low_bits(used);
        for y in 0..self.height {
            self.words[y * self.words_per_row + self.words_per_row - 1] &= m;
        }
    }
}

/// Where the `n`-bit span (`1 <= n <= 64`) at column `x0` of a row lies in
/// the row's words, worked out once for every row a block reads or writes.
#[derive(Clone, Copy)]
struct WordSpan {
    /// The span's first word.
    k: usize,
    /// Its first bit in that word.
    off: usize,
    /// The span's low `n` bits.
    m: u64,
    /// Whether the span runs into word `k + 1`.
    spills: bool,
}

impl WordSpan {
    #[inline]
    fn new(x0: usize, n: usize) -> Self {
        debug_assert!((1..=64).contains(&n));
        let (k, off) = (x0 / 64, x0 % 64);
        Self {
            k,
            off,
            m: low_bits(n),
            spills: off + n > 64,
        }
    }

    /// Overwrites the span of the row whose first word is `words[row]`
    /// with `bits` (no bit above the span's `n`).
    #[inline]
    fn merge(self, words: &mut [u64], row: usize, bits: u64) {
        let Self { k, off, m, spills } = self;
        let i = row + k;
        words[i] = (words[i] & !(m << off)) | (bits << off);
        if spills {
            let spill = 64 - off;
            words[i + 1] = (words[i + 1] & !(m >> spill)) | (bits >> spill);
        }
    }

    /// The span of the row whose first word is `words[row]`, in the low
    /// `n` bits.
    #[inline]
    fn read(self, words: &[u64], row: usize) -> u64 {
        let Self { k, off, m, spills } = self;
        let mut bits = words[row + k] >> off;
        if spills {
            bits |= words[row + k + 1] << (64 - off);
        }
        bits & m
    }
}

/// The `n`-bit rows (`1 <= n <= 64`) of a block whose top-left pixel is
/// `(x0, y0)` in a plane, rows and columns off the plane taking its nearest
/// edge pixel — [`BitPlane::extract_row_clamped`] row after row, with the
/// column arithmetic of a block inside the row's width done once.
#[derive(Clone, Copy)]
struct BlockRows<'a> {
    plane: &'a BitPlane,
    x0: i32,
    y0: i32,
    n: usize,
    /// The block's columns, if they lie within the width.
    inside: Option<WordSpan>,
}

impl<'a> BlockRows<'a> {
    #[inline]
    fn new(plane: &'a BitPlane, x0: i32, y0: i32, n: usize) -> Self {
        let inside = x0 >= 0 && x0 as usize + n <= plane.width;
        Self {
            plane,
            x0,
            y0,
            n,
            inside: inside.then(|| WordSpan::new(x0 as usize, n)),
        }
    }

    /// Block row `dy`.
    #[inline]
    fn row(&self, dy: usize) -> u64 {
        let p = self.plane;
        let y = (self.y0 + dy as i32).clamp(0, p.height as i32 - 1) as usize;
        match self.inside {
            Some(span) => span.read(&p.words, y * p.words_per_row),
            None => p.extract_row_clamped(y as i32, self.x0, self.n),
        }
    }
}

/// A binary per-pixel segmentation mask (0 = background, 1 = object),
/// bit-packed 64 pixels per `u64` word.
///
/// This is the currency of the segmentation task: NN-L produces one per
/// I/P frame, and the VR-DANN pipeline produces one per B-frame after
/// refinement. Each pixel costs **one bit** — here literally, matching the
/// paper's traffic model (see `vrd-sim`). See the module docs for the word
/// layout and tail-bit invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegMask {
    plane: BitPlane,
}

impl SegMask {
    /// Creates an all-background mask.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        Self {
            plane: BitPlane::new(width, height),
        }
    }

    /// Packs an existing row-major 0/1 byte buffer, validating it.
    ///
    /// # Errors
    /// Returns [`MaskError::ZeroDimension`] for an empty raster,
    /// [`MaskError::SizeMismatch`] when `data.len() != width * height`, and
    /// [`MaskError::BadValue`] for any byte that is not 0 or 1.
    pub(crate) fn try_from_vec(
        width: usize,
        height: usize,
        data: &[u8],
    ) -> Result<Self, MaskError> {
        if width == 0 || height == 0 {
            return Err(MaskError::ZeroDimension);
        }
        if data.len() != width * height {
            return Err(MaskError::SizeMismatch {
                expected: width * height,
                got: data.len(),
            });
        }
        if let Some(index) = data.iter().position(|&v| v > 1) {
            return Err(MaskError::BadValue {
                index,
                value: data[index],
            });
        }
        let mut plane = BitPlane::new(width, height);
        for (y, row) in data.chunks_exact(width).enumerate() {
            pack_row(row, &mut plane.words[y * plane.words_per_row..], |&v| {
                v == 1
            });
        }
        Ok(Self { plane })
    }

    /// Wraps an existing 0/1 buffer.
    ///
    /// # Panics
    /// Panics on size mismatch or if any value is not 0 or 1.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        match Self::try_from_vec(width, height, &data) {
            Ok(m) => m,
            Err(MaskError::SizeMismatch { .. }) => panic!("mask buffer size mismatch"),
            Err(MaskError::BadValue { .. }) => panic!("mask values must be 0 or 1"),
            Err(MaskError::ZeroDimension) => panic!("mask dimensions must be non-zero"),
        }
    }

    /// Packs a row-major stream of foreground flags (exactly
    /// `width * height` of them).
    ///
    /// # Panics
    /// Panics if either dimension is zero or the iterator runs short.
    pub fn from_bits<I: IntoIterator<Item = bool>>(width: usize, height: usize, bits: I) -> Self {
        let mut mask = SegMask::new(width, height);
        let wpr = mask.plane.words_per_row;
        let mut it = bits.into_iter();
        for y in 0..height {
            for k in 0..wpr {
                let n = (width - k * 64).min(64);
                let mut word = 0u64;
                for j in 0..n {
                    let bit = it.next().expect("mask bit iterator ran short");
                    word |= (bit as u64) << j;
                }
                mask.plane.words[y * wpr + k] = word;
            }
        }
        mask
    }

    /// Wraps raw packed rows (see the module docs for the layout). Tail bits
    /// past `width` are cleared, so callers may pass unmasked final words.
    ///
    /// # Panics
    /// Panics if a dimension is zero or `words.len()` is not
    /// `words_per_row * height`.
    pub fn from_words(width: usize, height: usize, words: Vec<u64>) -> Self {
        assert!(width > 0 && height > 0, "mask dimensions must be non-zero");
        let words_per_row = width.div_ceil(MASK_WORD_BITS);
        assert_eq!(
            words.len(),
            words_per_row * height,
            "mask word buffer size mismatch"
        );
        let mut plane = BitPlane {
            width,
            height,
            words_per_row,
            words,
        };
        plane.clear_tail_bits();
        Self { plane }
    }

    /// Mask width in pixels.
    pub fn width(&self) -> usize {
        self.plane.width
    }

    /// Mask height in pixels.
    pub fn height(&self) -> usize {
        self.plane.height
    }

    /// The packed words, row-major (`width.div_ceil(64)` per row).
    pub fn words(&self) -> &[u64] {
        &self.plane.words
    }

    /// Expands the mask back into a row-major 0/1 byte buffer (the
    /// pre-packing representation; mostly for export and reference kernels).
    pub fn to_byte_vec(&self) -> Vec<u8> {
        let (w, h) = (self.width(), self.height());
        let mut out = vec![0u8; w * h];
        for (row, words) in out
            .chunks_exact_mut(w)
            .zip(self.plane.words.chunks_exact(self.plane.words_per_row))
        {
            unpack_row(words, row, |bit| bit as u8);
        }
        out
    }

    /// Writes the mask into `out` as 0.0/1.0 floats, a word at a time, a
    /// word that is all one value as one fill ([`Expansion`] over whole
    /// rows).
    ///
    /// # Panics
    /// Panics if `out.len() != width * height`.
    pub fn expand_f32_into(&self, out: &mut [f32]) {
        Expansion::new([0.0, 1.0, 1.0]).rows(self, None, out);
    }

    /// Value at `(x, y)` (0 or 1).
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.plane.get(x, y) as u8
    }

    /// Value at `(x, y)` with coordinates clamped into the mask.
    #[inline]
    pub fn get_clamped(&self, x: i32, y: i32) -> u8 {
        self.plane.get_clamped(x, y) as u8
    }

    /// Sets the value at `(x, y)` to 0 or 1.
    ///
    /// # Panics
    /// Panics if coordinates are out of bounds or `v > 1`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(v <= 1, "mask values must be 0 or 1");
        self.plane.set(x, y, v == 1);
    }

    /// The `n` (≤ 64) pixels starting at column `x0` of row `y` as an
    /// LSB-first bit word, with out-of-range coordinates clamped to the
    /// nearest edge pixel — one macro-block row of the agent unit's
    /// coalesced reference read.
    #[inline]
    pub fn extract_row_bits_clamped(&self, y: i32, x0: i32, n: usize) -> u64 {
        self.plane.extract_row_clamped(y, x0, n)
    }

    /// Number of foreground pixels (a word-parallel popcount).
    pub fn count_ones(&self) -> usize {
        self.plane.count_ones()
    }

    /// Tight bounding box of the foreground, or `None` if the mask is empty.
    pub fn bounding_box(&self) -> Option<Rect> {
        let wpr = self.plane.words_per_row;
        let (mut x0, mut x1) = (self.width(), 0usize);
        let (mut y0, mut y1) = (None, 0usize);
        for y in 0..self.height() {
            let row = &self.plane.words[y * wpr..(y + 1) * wpr];
            let mut first = None;
            let mut last = 0usize;
            for (k, &w) in row.iter().enumerate() {
                if w != 0 {
                    first.get_or_insert(k * 64 + w.trailing_zeros() as usize);
                    last = k * 64 + 63 - w.leading_zeros() as usize;
                }
            }
            if let Some(f) = first {
                y0.get_or_insert(y);
                y1 = y + 1;
                x0 = x0.min(f);
                x1 = x1.max(last + 1);
            }
        }
        y0.map(|y0| Rect::new(x0 as i32, y0 as i32, x1 as i32, y1 as i32))
    }

    /// Fills the rectangle (clamped to the mask) with foreground.
    pub fn fill_rect(&mut self, r: Rect) {
        let r = r.clamped(self.width(), self.height());
        for y in r.y0..r.y1 {
            self.plane
                .fill_row_span(y as usize, r.x0 as usize, r.x1 as usize);
        }
    }

    /// Sets the pixels within one row and one column of a set pixel,
    /// clipped to the mask, in place: each row ORed with the row below
    /// (`or_windows` of two rows), then, bottom up, with the row above, which
    /// holds that row's own pixels by then; then spread one column either way.
    pub fn grow1(&mut self) {
        let (wpr, words) = (self.plane.words_per_row, &mut self.plane.words);
        or_windows(words, wpr, 2);
        for i in (wpr..words.len()).rev() {
            words[i] |= words[i - wpr];
        }
        for row in words.chunks_exact_mut(wpr) {
            spread_row(row, 1, 1);
        }
        self.plane.clear_tail_bits();
    }

    /// The half-resolution mask whose pixel `(x, y)` is set when a pixel of
    /// the 2×2 block at `(2x, 2y)` is: each row pair ORed, then each word's
    /// column pairs ORed and compacted (`pair_bits`). An odd last row or
    /// column pairs with nothing and is dropped.
    ///
    /// # Panics
    /// Panics if a side is shorter than two.
    pub fn halve(&self) -> SegMask {
        let (w, wpr) = (self.width() / 2, self.plane.words_per_row);
        let mut out = SegMask::new(w, self.height() / 2);
        let rows = out.plane.words.chunks_exact_mut(w.div_ceil(MASK_WORD_BITS));
        for (dst, pair) in rows.zip(self.plane.words.chunks_exact(2 * wpr)) {
            let (top, bottom) = pair.split_at(wpr);
            // Source word `j`'s pairs; one past the row holds none.
            let half = |j: usize| top.get(j).map_or(0, |&t| pair_bits(t | bottom[j]));
            for (k, d) in dst.iter_mut().enumerate() {
                *d = half(2 * k) | half(2 * k + 1) << 32;
            }
        }
        out.plane.clear_tail_bits();
        out
    }

    /// Sets every pixel whose pixel `(x / 2, y / 2)` of the half-resolution
    /// `half` is set: each bit spread to two (`double_bits`) and ORed onto
    /// two rows.
    ///
    /// # Panics
    /// Panics unless this mask is `half` with both sides doubled.
    pub fn or_double(&mut self, half: &SegMask) {
        let size = (2 * half.width(), 2 * half.height());
        assert_eq!((self.width(), self.height()), size, "mask size mismatch");
        let (wpr, half_wpr) = (self.plane.words_per_row, half.plane.words_per_row);
        let rows = self.plane.words.chunks_exact_mut(2 * wpr);
        for (dst, src) in rows.zip(half.plane.words.chunks_exact(half_wpr)) {
            let (even, odd) = dst.split_at_mut(wpr);
            for (k, (e, o)) in even.iter_mut().zip(odd).enumerate() {
                let bits = double_bits(src[k / 2] >> (k % 2 * 32));
                (*e, *o) = (*e | bits, *o | bits);
            }
        }
    }
}

/// One pixel of a reconstructed (pre-refinement) B-frame segmentation.
///
/// The hardware stores 2 bits per pixel (§IV-D of the paper): `00` black,
/// `01`/`10` gray (the two reference blocks disagreed), `11` white.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(u8)]
pub enum Seg2 {
    /// Background in every contributing reference block (`00`).
    #[default]
    Black = 0,
    /// The two reference blocks disagreed (`01`/`10`): the mean filter output
    /// is 0.5.
    Gray = 1,
    /// Foreground in every contributing reference block (`11`).
    White = 2,
}

impl Seg2 {
    /// Mean-filter value in `[0, 1]` used as the NN-S input channel.
    pub fn to_f32(self) -> f32 {
        match self {
            Seg2::Black => 0.0,
            Seg2::Gray => 0.5,
            Seg2::White => 1.0,
        }
    }

    /// Combines the 1-bit values of the (up to two) reference pixels exactly
    /// like the hardware mean filter: `0+0 → Black`, `1+1 → White`, mixed →
    /// `Gray`.
    pub fn from_bits(a: u8, b: u8) -> Self {
        match (a & 1) + (b & 1) {
            0 => Seg2::Black,
            1 => Seg2::Gray,
            _ => Seg2::White,
        }
    }
}

impl std::fmt::Display for Seg2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Seg2::Black => "black",
            Seg2::Gray => "gray",
            Seg2::White => "white",
        };
        f.write_str(s)
    }
}

/// A 2-bit-per-pixel reconstructed segmentation plane (the contents of a
/// `tmp_B` buffer after reconstruction), stored as two bitplanes: a
/// **white** plane (both references foreground) and a **gray** plane (the
/// references disagreed). The planes are disjoint — no pixel has both bits —
/// which every word-parallel consumer relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seg2Plane {
    white: SegMask,
    gray: SegMask,
}

impl Seg2Plane {
    /// Creates an all-black plane.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Self {
            white: SegMask::new(width, height),
            gray: SegMask::new(width, height),
        }
    }

    /// Packs a row-major buffer of 2-bit codes (0 = black, 1 = gray,
    /// 2 = white — the [`Seg2`] discriminants), validating it.
    ///
    /// # Errors
    /// Returns [`MaskError::ZeroDimension`] for an empty raster,
    /// [`MaskError::SizeMismatch`] when `data.len() != width * height`, and
    /// [`MaskError::BadValue`] for any code above 2.
    pub(crate) fn try_from_vec(
        width: usize,
        height: usize,
        data: &[u8],
    ) -> Result<Self, MaskError> {
        if width == 0 || height == 0 {
            return Err(MaskError::ZeroDimension);
        }
        if data.len() != width * height {
            return Err(MaskError::SizeMismatch {
                expected: width * height,
                got: data.len(),
            });
        }
        if let Some(index) = data.iter().position(|&v| v > 2) {
            return Err(MaskError::BadValue {
                index,
                value: data[index],
            });
        }
        let plane = |code| SegMask::from_bits(width, height, data.iter().map(|&v| v == code));
        Ok(Self {
            white: plane(2),
            gray: plane(1),
        })
    }

    /// Packs a row-major buffer of 2-bit codes (0 = black, 1 = gray,
    /// 2 = white — the [`Seg2`] discriminants).
    ///
    /// # Panics
    /// Panics on size mismatch or a code above 2.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        match Self::try_from_vec(width, height, &data) {
            Ok(p) => p,
            Err(MaskError::SizeMismatch { .. }) => panic!("plane buffer size mismatch"),
            Err(MaskError::BadValue { .. }) => panic!("plane values must be 0, 1 or 2"),
            Err(MaskError::ZeroDimension) => panic!("plane dimensions must be non-zero"),
        }
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.white.width()
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.white.height()
    }

    /// The white pixels (both references foreground), as a mask.
    pub fn white(&self) -> &SegMask {
        &self.white
    }

    /// The gray pixels (the references disagreed), as a mask.
    pub fn gray(&self) -> &SegMask {
        &self.gray
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Seg2 {
        if self.white.get(x, y) == 1 {
            Seg2::White
        } else if self.gray.get(x, y) == 1 {
            Seg2::Gray
        } else {
            Seg2::Black
        }
    }

    /// Sets the value at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: Seg2) {
        self.white.plane.set(x, y, v == Seg2::White);
        self.gray.plane.set(x, y, v == Seg2::Gray);
    }

    /// Overwrites one `n`-pixel block row at `(x0, y)` from mean-filtered
    /// reference bits: `white = a AND b`, `gray = a XOR b` (pass `b = a` for
    /// a single-reference block). This is the shift-and-merge word move that
    /// replaces the per-pixel reference copy.
    ///
    /// # Panics
    /// Panics if the span leaves the plane.
    #[inline]
    pub fn write_mean_filtered_row(&mut self, y: usize, x0: usize, n: usize, a: u64, b: u64) {
        self.white.plane.write_span(y, x0, n, a & b);
        self.gray.plane.write_span(y, x0, n, a ^ b);
    }

    /// Overwrites the `size × size` block whose top-left pixel is `(x0,
    /// y0)` with the mean filter of two source blocks — `white = a AND b`,
    /// `gray = a XOR b`; pass one source twice for a plain copy. A source is
    /// a mask and its block's top-left pixel there; the block may reach off
    /// the mask, where it reads the nearest edge pixel
    /// ([`SegMask::get_clamped`]). What [`Seg2Plane::write_mean_filtered_row`]
    /// of [`SegMask::extract_row_bits_clamped`] does for each block row, with
    /// the bounds checked once for the block and each row's column
    /// arithmetic done once.
    ///
    /// # Panics
    /// Panics if the block leaves the plane.
    pub fn write_mean_filtered_block(
        &mut self,
        (x0, y0): (usize, usize),
        size: usize,
        a: (&SegMask, (i32, i32)),
        b: (&SegMask, (i32, i32)),
    ) {
        assert!(
            x0 + size <= self.width() && y0 + size <= self.height(),
            "block out of bounds"
        );
        let one_source = std::ptr::eq(a.0, b.0) && a.1 == b.1;
        let wpr = self.white.plane.words_per_row;
        let (white, gray) = (&mut self.white.plane.words, &mut self.gray.plane.words);
        let mut dx = 0;
        while dx < size {
            let n = (size - dx).min(MASK_WORD_BITS);
            let [a, b] = [a, b].map(|(m, (x, y))| BlockRows::new(&m.plane, x + dx as i32, y, n));
            let dst = WordSpan::new(x0 + dx, n);
            for dy in 0..size {
                let a = a.row(dy);
                let b = if one_source { a } else { b.row(dy) };
                let row = (y0 + dy) * wpr;
                dst.merge(white, row, a & b);
                dst.merge(gray, row, a ^ b);
            }
            dx += n;
        }
    }

    /// Whole-frame bi-reference mean filter: combines two masks into a
    /// black/gray/white plane with two bitwise passes (`white = a AND b`,
    /// `gray = a XOR b`) — the packed analogue of applying
    /// [`Seg2::from_bits`] per pixel.
    ///
    /// # Panics
    /// Panics if the mask dimensions differ.
    pub fn mean_filter(a: &SegMask, b: &SegMask) -> Self {
        assert_eq!(a.width(), b.width(), "mean filter width mismatch");
        assert_eq!(a.height(), b.height(), "mean filter height mismatch");
        let pairs = || a.words().iter().zip(b.words());
        let mask = |words| SegMask::from_words(a.width(), a.height(), words);
        Self {
            white: mask(pairs().map(|(x, y)| x & y).collect()),
            gray: mask(pairs().map(|(x, y)| x ^ y).collect()),
        }
    }

    /// Thresholds the plane into a binary mask (gray counts as foreground
    /// when `gray_is_foreground` is set) — an OR over the bitplanes.
    pub fn to_mask(&self, gray_is_foreground: bool) -> SegMask {
        if !gray_is_foreground {
            return self.white.clone();
        }
        let words = (self.white.words().iter())
            .zip(self.gray.words())
            .map(|(&w, &g)| w | g)
            .collect();
        SegMask::from_words(self.width(), self.height(), words)
    }
}

/// The element values of black, gray and white pixels, tabled for
/// expanding packed planes four pixels per lookup: the one expansion body
/// behind [`SegMask::expand_f32_into`] and NN-S's input, dense or only the
/// spans its first layer reads.
#[derive(Debug, Clone)]
pub struct Expansion<T> {
    table: Vec<[T; 4]>,
}

impl<T: Copy> Expansion<T> {
    /// The expansion writing `codes[0]`, `codes[1]` and `codes[2]` for
    /// black, gray and white pixels.
    pub fn new(codes: [T; 3]) -> Self {
        Self {
            table: nibble_table(codes),
        }
    }

    /// Writes columns `x0 .. x0 + out.len()` of row `y` into `out`: white
    /// where `white` is set, gray where `gray` is (a plane disjoint from
    /// `white`; none when the pixels are only black and white), black
    /// elsewhere — a word at a time, a run that is all one value as one
    /// fill.
    ///
    /// # Panics
    /// Panics if the span leaves the row or `gray` is not `white`'s size.
    pub fn row_span(
        &self,
        white: &SegMask,
        gray: Option<&SegMask>,
        y: usize,
        x0: usize,
        out: &mut [T],
    ) {
        let (w, h) = (white.width(), white.height());
        assert!(y < h && x0 + out.len() <= w, "expansion span out of bounds");
        assert!(
            gray.is_none_or(|g| (g.width(), g.height()) == (w, h)),
            "expansion planes differ in size"
        );
        let wpr = white.plane.words_per_row;
        let whites = &white.words()[y * wpr..][..wpr];
        let grays = gray.map(|g| &g.words()[y * wpr..][..wpr]);
        let (mut x, mut rest) = (x0, out);
        while !rest.is_empty() {
            let (k, off) = (x / MASK_WORD_BITS, x % MASK_WORD_BITS);
            let (run, tail) = rest.split_at_mut((MASK_WORD_BITS - off).min(rest.len()));
            let gray_bits = grays.map_or(0, |g| g[k] >> off);
            expand_run(run, whites[k] >> off, gray_bits, &self.table);
            (x, rest) = (x + run.len(), tail);
        }
    }

    /// Writes every row of the planes into `out` ([`Expansion::row_span`]
    /// over whole rows).
    ///
    /// # Panics
    /// Panics if `out.len() != width * height` or the planes differ in size.
    pub fn rows(&self, white: &SegMask, gray: Option<&SegMask>, out: &mut [T]) {
        let w = white.width();
        assert_eq!(
            out.len(),
            w * white.height(),
            "expansion buffer size mismatch"
        );
        for (y, row) in out.chunks_exact_mut(w).enumerate() {
            self.row_span(white, gray, y, 0, row);
        }
    }
}

/// The codes of every 4-pixel nibble pair: entry `white << 4 | gray`
/// holds the four pixels' values (white wins a pixel set in both, which
/// the disjoint planes never have).
fn nibble_table<T: Copy>([black, gray, white]: [T; 3]) -> Vec<[T; 4]> {
    (0..256u32)
        .map(|i| {
            std::array::from_fn(|j| {
                if (i >> (4 + j)) & 1 == 1 {
                    white
                } else if (i >> j) & 1 == 1 {
                    gray
                } else {
                    black
                }
            })
        })
        .collect()
}

/// Writes one run of at most 64 pixels from its white and gray bits: one
/// fill when the run is all one value, otherwise four pixels per
/// [`nibble_table`] lookup.
fn expand_run<T: Copy>(run: &mut [T], white_bits: u64, gray_bits: u64, table: &[[T; 4]]) {
    let all = u64::MAX >> (64 - run.len());
    let [black, gray, white] = [0, 1, 1 << 4].map(|i| table[i][0]);
    if (white_bits | gray_bits) & all == 0 {
        run.fill(black);
    } else if white_bits & all == all {
        run.fill(white);
    } else if gray_bits & all == all {
        run.fill(gray);
    } else {
        let nibble = |q: usize| {
            let of = |bits: u64| ((bits >> (4 * q)) & 15) as usize;
            table[of(white_bits) << 4 | of(gray_bits)]
        };
        let (quads, rest) = run.as_chunks_mut::<4>();
        let n = quads.len();
        for (q, quad) in quads.iter_mut().enumerate() {
            *quad = nibble(q);
        }
        if !rest.is_empty() {
            rest.copy_from_slice(&nibble(n)[..rest.len()]);
        }
    }
}

/// Packs one byte row into the row's words via `pred`.
fn pack_row<T, F: Fn(&T) -> bool>(row: &[T], words: &mut [u64], pred: F) {
    for (k, chunk) in row.chunks(64).enumerate() {
        let mut word = 0u64;
        for (j, v) in chunk.iter().enumerate() {
            word |= (pred(v) as u64) << j;
        }
        words[k] = word;
    }
}

/// Unpacks one row of words into per-pixel values via `f`.
fn unpack_row<T, F: Fn(u64) -> T>(words: &[u64], row: &mut [T], f: F) {
    for (k, chunk) in row.chunks_mut(64).enumerate() {
        let word = words[k];
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = f((word >> j) & 1);
        }
    }
}

/// The band of a stack of equally sized bitplanes: every pixel whose
/// Chebyshev radius-`r` window leaves the frame or is not one constant
/// value in every plane. A window that is not constant holds two adjacent
/// pixels that differ in some plane, so the band is the *differs* masks —
/// a pixel whose value in some plane differs from its right neighbour's
/// (`v ^ (v >> 1)` across the row's words), and one that differs from the
/// pixel below it (`row ^ next_row`) — each dilated to the windows that
/// hold both pixels of its pair, plus the ring of pixels within `r` of the
/// frame edge. Word-parallel throughout, 64 pixels per operation, and each
/// dilation in doubling steps: about `log₂ r` passes over the rows and over
/// each row's words, not one per row or column of the window.
///
/// What it is for: a network whose output at a pixel reads only that
/// pixel's radius-`r` window gives every pixel outside the band the output
/// of a constant image.
///
/// # Panics
/// Panics if `planes` is empty, the planes' sizes differ, or `r >= 64`.
pub fn band(planes: &[&SegMask], r: usize) -> SegMask {
    let first = planes.first().expect("a band needs at least one plane");
    let (w, h) = (first.width(), first.height());
    assert!(
        planes.iter().all(|p| (p.width(), p.height()) == (w, h)),
        "band planes differ in size"
    );
    assert!(r < MASK_WORD_BITS, "band radius must be under a word");
    let wpr = w.div_ceil(MASK_WORD_BITS);
    if r == 0 {
        return SegMask::new(w, h);
    }
    // Pixel w − 1 has no right neighbour: its bit in the last word's
    // horizontal difference compares it with a zero tail bit.
    let last_pairs = low_bits(w - 1 - (wpr - 1) * MASK_WORD_BITS);
    let (mut across, mut down) = (vec![0u64; wpr * h], vec![0u64; wpr * h]);
    for plane in planes {
        let words = plane.words();
        for (acc, row) in across.chunks_exact_mut(wpr).zip(words.chunks_exact(wpr)) {
            for k in 0..wpr - 1 {
                acc[k] |= row[k] ^ ((row[k] >> 1) | (row[k + 1] << 63));
            }
            let last = row[wpr - 1];
            acc[wpr - 1] |= (last ^ (last >> 1)) & last_pairs;
        }
        for (d, (&a, &b)) in down.iter_mut().zip(words.iter().zip(&words[wpr..])) {
            *d |= a ^ b;
        }
    }
    // A pair at rows (y, y + 1) lies in the windows of rows
    // y + 1 − r ..= y + r; one at columns (x, x + 1) in those of columns
    // x + 1 − r ..= x + r. So output row y ORs `across` rows y − r ..= y + r
    // and `down` rows y − r ..= y + r − 1, and spreads a horizontal pair
    // over x + 1 − r ..= x + r and a vertical one over x − r ..= x + r: the
    // same spread after `down` has covered x − 1 too.
    or_windows(&mut across, wpr, 2 * r + 1);
    or_windows(&mut down, wpr, 2 * r);
    let mut ring = BitPlane::new(w, 1);
    ring.fill_row_span(0, 0, r.min(w));
    ring.fill_row_span(0, w.saturating_sub(r), w);
    let mut out = vec![u64::MAX; wpr * h];
    for y in r..h.saturating_sub(r) {
        let (a, d) = (
            &across[(y - r) * wpr..][..wpr],
            &down[(y - r) * wpr..][..wpr],
        );
        let dst = &mut out[y * wpr..][..wpr];
        for k in 0..wpr {
            let next = d.get(k + 1).map_or(0, |&n| n << 63);
            dst[k] = a[k] | d[k] | (d[k] >> 1) | next;
        }
        spread_row(dst, r - 1, r);
        for (o, &e) in dst.iter_mut().zip(&ring.words) {
            *o |= e;
        }
    }
    SegMask::from_words(w, h, out)
}

/// Each row `z` of `rows` (`wpr` words a row) becomes the OR of rows
/// `z .. z + len`, rows past the end empty: windows doubled in place until
/// one more doubling would pass `len`, then one overlapping step.
fn or_windows(rows: &mut [u64], wpr: usize, len: usize) {
    // Each row holds the OR of the `held` rows from it.
    let mut held = 1;
    while held < len {
        let step = held.min(len - held) * wpr;
        for i in 0..rows.len().saturating_sub(step) {
            rows[i] |= rows[i + step];
        }
        held += step / wpr;
    }
}

/// `row` with every set pixel `x` spread over columns `x − left ..= x +
/// right` (both under a word), bits past the row's words dropped and bits
/// past its width kept: doubling shifts, each across word pairs.
fn spread_row(row: &mut [u64], left: usize, right: usize) {
    // Each set pixel covers the `held` columns from it rightwards; in the
    // second loop, leftwards. Each pass carries the word before's (after's)
    // bits as they were.
    let mut held = 1;
    while held <= right {
        let s = held.min(right + 1 - held);
        let mut before = 0;
        for x in row.iter_mut() {
            (before, *x) = (*x, *x | *x << s | before >> (MASK_WORD_BITS - s));
        }
        held += s;
    }
    held = 1;
    while held <= left {
        let s = held.min(left + 1 - held);
        let mut after = 0;
        for x in row.iter_mut().rev() {
            (after, *x) = (*x, *x | *x >> s | after << (MASK_WORD_BITS - s));
        }
        held += s;
    }
}

/// The low half of every `2^(i + 1)`-bit group of a word: the masks of
/// the steps that compact its even bits into its low 32 ([`pair_bits`]) and
/// spread them back ([`double_bits`]).
const fn halves(i: u32) -> u64 {
    u64::MAX / ((1 << (1 << i)) + 1)
}

/// Bit `j < 32` of the result is bit `2j` or bit `2j + 1` of `x`: each pair
/// ORed onto its even bit, then the even bits compacted in five steps.
fn pair_bits(x: u64) -> u64 {
    let even = (x | x >> 1) & halves(0);
    (0..5).fold(even, |x, i| (x | x >> (1 << i)) & halves(i + 1))
}

/// Bits `2j` and `2j + 1` of the result are bit `j < 32` of `x`:
/// [`pair_bits`]'s steps backwards, then each even bit copied up one.
fn double_bits(x: u64) -> u64 {
    let even = (0..5).fold(x & halves(5), |x, i| (x | x << (16 >> i)) & halves(4 - i));
    even | even << 1
}

/// Retained byte-per-pixel kernels (the pre-packing semantics), kept as the
/// ground truth the word-parallel ops are property-tested against — the same
/// pattern as `vrd_nn::conv::reference`.
pub mod reference {
    use super::{Seg2, Seg2Plane, SegMask};

    /// Per-pixel [`band`](super::band): a pixel is in it when its
    /// radius-`r` window leaves the frame or holds two pixels that differ in
    /// some plane — the definition the word-parallel band is tested against.
    ///
    /// # Panics
    /// Panics if `planes` is empty or the planes' sizes differ.
    pub fn band(planes: &[&SegMask], r: usize) -> SegMask {
        let (w, h) = (planes[0].width(), planes[0].height());
        assert!(planes.iter().all(|p| (p.width(), p.height()) == (w, h)));
        let inside = |x: usize, y: usize| {
            x >= r && y >= r && x + r < w && y + r < h && {
                let (xs, ys) = (x - r..=x + r, y - r..=y + r);
                planes.iter().all(|p| {
                    let v = p.get(x, y);
                    ys.clone().all(|sy| xs.clone().all(|sx| p.get(sx, sy) == v))
                })
            }
        };
        SegMask::from_bits(w, h, (0..w * h).map(|i| !inside(i % w, i / w)))
    }

    /// Per-pixel bi-reference mean filter ([`Seg2::from_bits`] at every
    /// pixel) — the scalar ground truth of [`Seg2Plane::mean_filter`].
    ///
    /// # Panics
    /// Panics if the mask dimensions differ.
    pub fn mean_filter(a: &SegMask, b: &SegMask) -> Seg2Plane {
        assert_eq!(a.width(), b.width(), "mean filter width mismatch");
        assert_eq!(a.height(), b.height(), "mean filter height mismatch");
        let mut out = Seg2Plane::new(a.width(), a.height());
        for y in 0..a.height() {
            for x in 0..a.width() {
                out.set(x, y, Seg2::from_bits(a.get(x, y), b.get(x, y)));
            }
        }
        out
    }

    /// Per-pixel threshold of a plane into a mask — the scalar ground truth
    /// of [`Seg2Plane::to_mask`].
    pub fn plane_to_mask(plane: &Seg2Plane, gray_is_foreground: bool) -> SegMask {
        let mut out = SegMask::new(plane.width(), plane.height());
        for y in 0..plane.height() {
            for x in 0..plane.width() {
                let v = match plane.get(x, y) {
                    Seg2::Black => 0,
                    Seg2::Gray => u8::from(gray_is_foreground),
                    Seg2::White => 1,
                };
                out.set(x, y, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_matches_its_per_pixel_definition() {
        // Blobs, stripes, specks and solid planes, at widths around a word
        // and radii from 0 up, against the window definition.
        let shapes: [fn(usize, usize) -> bool; 5] = [
            |x, y| (x as i64 - 20).pow(2) + (y as i64 - 9).pow(2) < 60,
            |x, _| x % 7 < 3,
            |x, y| x == 30 && y == 4,
            |_, _| true,
            |_, y| y == 0,
        ];
        for w in [1, 2, 11, 63, 64, 65, 130] {
            for h in [1, 3, 12, 19] {
                let planes: Vec<SegMask> = shapes
                    .iter()
                    .map(|f| SegMask::from_bits(w, h, (0..w * h).map(|i| f(i % w, i / w))))
                    .collect();
                for r in [0, 1, 2, 5] {
                    for pick in [&planes[..1], &planes[1..3], &planes[3..], &planes[..]] {
                        let refs: Vec<&SegMask> = pick.iter().collect();
                        assert_eq!(
                            band(&refs, r),
                            reference::band(&refs, r),
                            "{w}x{h}, r = {r}"
                        );
                    }
                }
            }
        }
        // The radii the NN-L oracle's warp drives it to, up to the last
        // under a word, on frames tall enough to keep an interior (127 is
        // exactly one row of it at r = 63): a solid plane alone, whose band
        // is the edge ring, and a centred speck and disk.
        let wide: [fn(usize, usize) -> bool; 3] = [
            |_, _| true,
            |x, y| x == 70 && y == 69,
            |x, y| (x as i64 - 65).pow(2) + (y as i64 - 70).pow(2) < 900,
        ];
        for w in [64, 65, 130] {
            for h in [127, 140] {
                let planes: Vec<SegMask> = wide
                    .iter()
                    .map(|f| SegMask::from_bits(w, h, (0..w * h).map(|i| f(i % w, i / w))))
                    .collect();
                for r in [31, 63] {
                    for pick in [&planes[..1], &planes[1..2], &planes[2..], &planes[..]] {
                        let refs: Vec<&SegMask> = pick.iter().collect();
                        assert_eq!(
                            band(&refs, r),
                            reference::band(&refs, r),
                            "{w}x{h}, r = {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mask_counting_and_bbox() {
        let mut m = SegMask::new(8, 6);
        assert_eq!(m.bounding_box(), None);
        m.fill_rect(Rect::new(2, 1, 5, 4));
        assert_eq!(m.count_ones(), 9);
        assert_eq!(m.bounding_box(), Some(Rect::new(2, 1, 5, 4)));
        assert_eq!(m.get(2, 1), 1);
        assert_eq!(m.get(1, 1), 0);
    }

    #[test]
    fn mask_fill_rect_clamps() {
        let mut m = SegMask::new(4, 4);
        m.fill_rect(Rect::new(-2, -2, 2, 2));
        assert_eq!(m.count_ones(), 4);
        assert_eq!(m.bounding_box(), Some(Rect::new(0, 0, 2, 2)));
    }

    #[test]
    #[should_panic(expected = "mask values must be 0 or 1")]
    fn mask_rejects_non_binary() {
        let mut m = SegMask::new(2, 2);
        m.set(0, 0, 2);
    }

    #[test]
    fn try_from_vec_validates() {
        assert_eq!(
            SegMask::try_from_vec(4, 4, &[0; 15]),
            Err(MaskError::SizeMismatch {
                expected: 16,
                got: 15
            })
        );
        let mut bad = vec![0u8; 16];
        bad[7] = 3;
        assert_eq!(
            SegMask::try_from_vec(4, 4, &bad),
            Err(MaskError::BadValue { index: 7, value: 3 })
        );
        assert_eq!(
            SegMask::try_from_vec(0, 4, &[]),
            Err(MaskError::ZeroDimension)
        );
        let ok = SegMask::try_from_vec(4, 2, &[0, 1, 0, 1, 1, 0, 0, 0]).unwrap();
        assert_eq!(ok.count_ones(), 3);
        assert_eq!(ok.get(1, 0), 1);
        assert_eq!(ok.to_byte_vec(), vec![0, 1, 0, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn plane_try_from_vec_validates() {
        assert!(matches!(
            Seg2Plane::try_from_vec(2, 2, &[0, 1, 2]),
            Err(MaskError::SizeMismatch { .. })
        ));
        assert_eq!(
            Seg2Plane::try_from_vec(2, 2, &[0, 1, 2, 3]),
            Err(MaskError::BadValue { index: 3, value: 3 })
        );
        let p = Seg2Plane::try_from_vec(2, 2, &[0, 1, 2, 0]).unwrap();
        assert_eq!(p.get(0, 0), Seg2::Black);
        assert_eq!(p.get(1, 0), Seg2::Gray);
        assert_eq!(p.get(0, 1), Seg2::White);
        assert_eq!(p.get(1, 1), Seg2::Black);
    }

    #[test]
    #[should_panic(expected = "mask buffer size mismatch")]
    fn from_vec_panics_on_size() {
        let _ = SegMask::from_vec(4, 3, vec![0; 11]);
    }

    #[test]
    fn packing_crosses_word_boundaries() {
        // 100 columns: each row spans two words with a 36-bit tail.
        let mut m = SegMask::new(100, 3);
        assert_eq!(m.words().len(), 2 * 3);
        m.set(63, 1, 1);
        m.set(64, 1, 1);
        m.set(99, 2, 1);
        assert_eq!(m.get(63, 1), 1);
        assert_eq!(m.get(64, 1), 1);
        assert_eq!(m.get(62, 1), 0);
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.bounding_box(), Some(Rect::new(63, 1, 100, 3)));
        // Tail bits stay zero through from_words even if handed garbage.
        let mut words = m.words().to_vec();
        words[1] |= !0u64 << 36;
        let cleaned = SegMask::from_words(100, 3, words);
        assert_eq!(cleaned, m);
    }

    #[test]
    fn extract_row_bits_matches_clamped_gets() {
        let mut m = SegMask::new(70, 4);
        m.fill_rect(Rect::new(60, 1, 68, 3));
        m.set(0, 0, 1);
        for &(y, x0, n) in &[
            (1i32, 58i32, 16usize),
            (0, -5, 12),
            (2, 64, 10),
            (5, 66, 8),
            (-3, -2, 64),
            (1, 62, 4),
        ] {
            let bits = m.extract_row_bits_clamped(y, x0, n);
            for j in 0..n {
                let want = m.get_clamped(x0 + j as i32, y) as u64;
                assert_eq!(
                    (bits >> j) & 1,
                    want,
                    "row {y}, x0 {x0}, n {n}, bit {j} mismatch"
                );
            }
        }
    }

    #[test]
    fn from_bits_roundtrip() {
        let bytes: Vec<u8> = (0..66 * 3).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let m = SegMask::from_bits(66, 3, bytes.iter().map(|&b| b == 1));
        assert_eq!(m.to_byte_vec(), bytes);
        let mut f32s = vec![9.0f32; 66 * 3];
        m.expand_f32_into(&mut f32s);
        assert!(f32s.iter().zip(&bytes).all(|(&f, &b)| f == f32::from(b)));
    }

    #[test]
    fn seg2_mean_filter_semantics() {
        assert_eq!(Seg2::from_bits(0, 0), Seg2::Black);
        assert_eq!(Seg2::from_bits(1, 0), Seg2::Gray);
        assert_eq!(Seg2::from_bits(0, 1), Seg2::Gray);
        assert_eq!(Seg2::from_bits(1, 1), Seg2::White);
        assert_eq!(Seg2::Gray.to_f32(), 0.5);
    }

    #[test]
    fn seg2_plane_threshold_and_disjointness() {
        let mut p = Seg2Plane::new(3, 2);
        p.set(0, 0, Seg2::White);
        p.set(1, 0, Seg2::Gray);
        let strict = p.to_mask(false);
        assert_eq!(strict.count_ones(), 1);
        let lenient = p.to_mask(true);
        assert_eq!(lenient.count_ones(), 2);
        // Overwriting gray with white clears the gray bit (disjointness).
        p.set(1, 0, Seg2::White);
        assert_eq!(p.get(1, 0), Seg2::White);
        p.set(1, 0, Seg2::Black);
        assert_eq!(p.get(1, 0), Seg2::Black);
    }

    #[test]
    fn whole_frame_mean_filter_matches_reference() {
        let mut a = SegMask::new(130, 5);
        let mut b = SegMask::new(130, 5);
        a.fill_rect(Rect::new(10, 0, 80, 4));
        b.fill_rect(Rect::new(60, 1, 129, 5));
        let packed = Seg2Plane::mean_filter(&a, &b);
        let scalar = reference::mean_filter(&a, &b);
        assert_eq!(packed, scalar);
        assert_eq!(packed.get(70, 2), Seg2::White);
        assert_eq!(packed.get(20, 2), Seg2::Gray);
        assert_eq!(packed.get(0, 0), Seg2::Black);
        for gray_fg in [false, true] {
            assert_eq!(
                packed.to_mask(gray_fg),
                reference::plane_to_mask(&packed, gray_fg)
            );
        }
    }

    #[test]
    fn mean_filtered_row_writes() {
        let mut p = Seg2Plane::new(100, 2);
        // a = 0b1100, b = 0b1010 over 4 pixels at the word boundary.
        p.write_mean_filtered_row(0, 62, 4, 0b1100, 0b1010);
        assert_eq!(p.get(62, 0), Seg2::Black); // 0,0
        assert_eq!(p.get(63, 0), Seg2::Gray); // 0,1
        assert_eq!(p.get(64, 0), Seg2::Gray); // 1,0
        assert_eq!(p.get(65, 0), Seg2::White); // 1,1
        assert_eq!(p.get(66, 0), Seg2::Black);
        // Overwrite is destructive for the whole span.
        p.write_mean_filtered_row(0, 62, 4, 0, 0);
        assert_eq!(p.get(63, 0), Seg2::Black);
        assert_eq!(p.get(65, 0), Seg2::Black);
    }

    #[test]
    fn plane_expansion_values() {
        let mut p = Seg2Plane::new(66, 2);
        p.set(0, 0, Seg2::White);
        p.set(65, 0, Seg2::Gray);
        let mut out = vec![9.0f32; 66 * 2];
        Expansion::new([0.0, 0.5, 1.0]).rows(p.white(), Some(p.gray()), &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[65], 0.5);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[66], 0.0);
    }
}
