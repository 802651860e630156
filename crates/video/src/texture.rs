//! Deterministic procedural textures.
//!
//! The codec's SAE block matching only behaves realistically when frames have
//! spatial structure (a flat frame matches everywhere). These textures give
//! backgrounds and objects distinctive, reproducible appearance without any
//! image assets. All of them are pure functions of `(x, y, seed)` so a scene
//! rendered twice is bit-identical.

/// A 2D integer hash with decent avalanche behaviour (xorshift-multiply).
///
/// Deterministic across platforms; used as the noise source for every
/// texture.
#[inline]
pub fn hash2(x: i64, y: i64, seed: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    h = h.wrapping_add((x as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
    h ^= h >> 33;
    h = h.wrapping_add((y as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53));
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    h
}

/// Uniform `[0, 1)` noise derived from [`hash2`].
#[inline]
pub fn noise01(x: i64, y: i64, seed: u64) -> f32 {
    (hash2(x, y, seed) >> 40) as f32 / (1u64 << 24) as f32
}

/// Smooth value noise: bilinear interpolation of lattice noise at `scale`
/// pixel spacing. Gives blob-like low-frequency structure.
///
/// It is the composition of [`value_noise_axis`] (once per coordinate),
/// [`value_noise_corners`] and [`value_noise_blend`]; a caller sampling a
/// whole raster can compute each axis term once per row or column and the
/// corners once per lattice cell, and get the same bits.
pub fn value_noise(x: f32, y: f32, scale: f32, seed: u64) -> f32 {
    let (x0, sx) = value_noise_axis(x, scale);
    let (y0, sy) = value_noise_axis(y, scale);
    value_noise_blend(value_noise_corners(x0, y0, seed), sx, sy)
}

/// One axis of [`value_noise`]: the lattice cell `v` falls in at `scale`
/// pixel spacing, and the smoothstep fade of `v`'s position inside it.
#[inline]
pub fn value_noise_axis(v: f32, scale: f32) -> (i64, f32) {
    let g = v / scale;
    let cell = g.floor() as i64;
    let f = g - cell as f32;
    // Smoothstep fade for C1 continuity.
    (cell, f * f * (3.0 - 2.0 * f))
}

/// The lattice noise at the corners of cell `(x0, y0)`, in the order
/// [`value_noise_blend`] takes them: `(x0, y0)`, one cell right, one cell
/// down, diagonal. The neighbours wrap at `i64::MAX`, where a zero or
/// subnormal `scale` puts the cell.
#[inline]
pub fn value_noise_corners(x0: i64, y0: i64, seed: u64) -> [f32; 4] {
    let (x1, y1) = (x0.wrapping_add(1), y0.wrapping_add(1));
    [
        noise01(x0, y0, seed),
        noise01(x1, y0, seed),
        noise01(x0, y1, seed),
        noise01(x1, y1, seed),
    ]
}

/// The bilinear blend of [`value_noise`]: the four corners of a cell
/// weighted by the two axis fades `sx`, `sy`.
#[inline]
pub fn value_noise_blend([n00, n10, n01, n11]: [f32; 4], sx: f32, sy: f32) -> f32 {
    let top = n00 + (n10 - n00) * sx;
    let bot = n01 + (n11 - n01) * sx;
    top + (bot - top) * sy
}

/// A procedural texture assignable to a background or an object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Texture {
    /// Constant `level` plus `amp`-scaled white noise.
    Noise {
        /// Base gray level, 0–255.
        level: u8,
        /// Noise amplitude in gray levels.
        amp: f32,
    },
    /// Diagonal stripes: alternating `a`/`b` bands of `period` pixels.
    Stripes {
        /// Gray level of the first band.
        a: u8,
        /// Gray level of the second band.
        b: u8,
        /// Band period in pixels.
        period: u32,
    },
    /// Checkerboard of `cell` pixel squares between `a` and `b`.
    Checker {
        /// Gray level of even cells.
        a: u8,
        /// Gray level of odd cells.
        b: u8,
        /// Cell edge length in pixels.
        cell: u32,
    },
    /// Low-frequency smooth blobs between `lo` and `hi` at `scale` spacing,
    /// with a little high-frequency noise on top so blocks stay matchable.
    Blobs {
        /// Darkest gray level.
        lo: u8,
        /// Brightest gray level.
        hi: u8,
        /// Blob spacing in pixels.
        scale: f32,
    },
}

impl Texture {
    /// Samples the texture at texture-local coordinates `(x, y)`.
    pub fn sample(&self, x: f32, y: f32, seed: u64) -> u8 {
        match *self {
            Texture::Noise { level, amp } => {
                let n = noise01(x as i64, y as i64, seed) - 0.5;
                (level as f32 + n * 2.0 * amp).clamp(0.0, 255.0) as u8
            }
            Texture::Stripes { a, b, period } => {
                let p = period.max(1) as f32;
                let band = ((x + y) / p).floor() as i64;
                if band.rem_euclid(2) == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Checker { a, b, cell } => {
                let c = cell.max(1) as f32;
                let cx = (x / c).floor() as i64;
                let cy = (y / c).floor() as i64;
                if (cx + cy).rem_euclid(2) == 0 {
                    a
                } else {
                    b
                }
            }
            Texture::Blobs { lo, hi, scale } => {
                let v = value_noise(x, y, scale.max(1.0), seed);
                let fine = (noise01(x as i64, y as i64, seed ^ 0xabcd) - 0.5) * 12.0;
                let span = hi as f32 - lo as f32;
                (lo as f32 + v * span + fine).clamp(0.0, 255.0) as u8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash2(3, 4, 7), hash2(3, 4, 7));
        assert_ne!(hash2(3, 4, 7), hash2(4, 3, 7));
        assert_ne!(hash2(3, 4, 7), hash2(3, 4, 8));
    }

    #[test]
    fn noise01_in_unit_interval() {
        for i in 0..1000 {
            let n = noise01(i, -i * 3, 42);
            assert!((0.0..1.0).contains(&n), "noise out of range: {n}");
        }
    }

    #[test]
    fn value_noise_smooth_and_bounded() {
        let mut prev = value_noise(0.0, 0.0, 8.0, 1);
        for i in 1..200 {
            let v = value_noise(i as f32 * 0.25, 3.0, 8.0, 1);
            assert!((0.0..=1.0).contains(&v));
            // Smoothness: quarter-pixel steps move the value only slightly.
            assert!((v - prev).abs() < 0.25, "jump at step {i}");
            prev = v;
        }
    }

    #[test]
    fn stripes_alternate() {
        let t = Texture::Stripes {
            a: 10,
            b: 200,
            period: 4,
        };
        assert_eq!(t.sample(0.0, 0.0, 0), 10);
        assert_eq!(t.sample(4.0, 0.0, 0), 200);
        assert_eq!(t.sample(8.0, 0.0, 0), 10);
        // Negative coordinates still alternate rather than panicking.
        assert_eq!(t.sample(-4.0, 0.0, 0), 200);
    }

    #[test]
    fn checker_alternates_in_both_axes() {
        let t = Texture::Checker {
            a: 0,
            b: 255,
            cell: 2,
        };
        assert_eq!(t.sample(0.0, 0.0, 0), 0);
        assert_eq!(t.sample(2.0, 0.0, 0), 255);
        assert_eq!(t.sample(0.0, 2.0, 0), 255);
        assert_eq!(t.sample(2.0, 2.0, 0), 0);
    }

    #[test]
    fn textures_are_deterministic() {
        for t in [
            Texture::Noise {
                level: 128,
                amp: 30.0,
            },
            Texture::Blobs {
                lo: 40,
                hi: 220,
                scale: 9.0,
            },
        ] {
            assert_eq!(t.sample(13.0, 27.0, 5), t.sample(13.0, 27.0, 5));
        }
    }
}
