//! Encoder configuration: standard profile, GOP shaping, motion search.
//!
//! The three encoder-side knobs the paper studies (§III-C, Figs. 15–17) are
//! all here: the **B-frame ratio** ([`BFrameMode`]), the **search interval
//! `n`** ([`SearchInterval`]) and the **encoding standard**
//! ([`Standard`], which fixes the macro-block size and intra-mode count).

use crate::error::{CodecError, Result};

/// Encoding standard profile.
///
/// The paper observes (Fig. 17) that H.265's smaller macro-blocks give
/// VR-DANN finer-grained motion vectors and therefore better reconstruction,
/// at higher encoder cost. We reproduce the two profiles by their two
/// behaviour-relevant differences: macro-block size and intra-mode count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Standard {
    /// 16×16 macro-blocks, 9 intra modes.
    H264,
    /// 8×8 macro-blocks, 14 intra modes (paper default).
    #[default]
    H265,
}

/// The largest macro-block edge of any standard (H.264's).
pub(crate) const MAX_MB_SIZE: usize = 16;

impl Standard {
    /// Macro-block edge length in pixels.
    pub fn mb_size(self) -> usize {
        match self {
            Standard::H264 => 16,
            Standard::H265 => 8,
        }
    }

    /// Number of intra prediction modes available.
    pub(crate) fn intra_modes(self) -> u8 {
        match self {
            Standard::H264 => 9,
            Standard::H265 => 14,
        }
    }
}

impl std::fmt::Display for Standard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Standard::H264 => f.write_str("H.264"),
            Standard::H265 => f.write_str("H.265"),
        }
    }
}

/// How many consecutive B-frames to place between anchors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BFrameMode {
    /// Motion-adaptive (the encoder's default "auto B ratio"): low-motion
    /// segments get 3 B-frames per anchor, fast segments fewer. This is what
    /// produces the per-video B-ratio spread of Fig. 3(a).
    #[default]
    Auto,
    /// Exactly this many B-frames between consecutive anchors (0–7). The
    /// paper's "-b" FFmpeg override used for the Fig. 15 sweep.
    Fixed(u8),
}

/// The motion-vector search interval `n`: how many decoded anchor frames a
/// B-frame's blocks may reference (§III-C, Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SearchInterval {
    /// Encoder-chosen ("Auto n" in the paper): balances accuracy against
    /// memory-access dispersion.
    #[default]
    Auto,
    /// Search exactly the nearest `n` anchors (1–9).
    Fixed(u8),
}

impl SearchInterval {
    /// Resolves to a concrete anchor count. `Auto` searches up to seven
    /// anchors, matching the paper's Fig. 3(b) observation that a B-frame's
    /// reconstruction can require up to seven reference frames under default
    /// encoder settings.
    pub fn resolve(self) -> usize {
        match self {
            SearchInterval::Auto => 7,
            SearchInterval::Fixed(n) => n as usize,
        }
    }
}

/// Complete encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecConfig {
    /// Encoding standard (macro-block size, intra modes).
    pub standard: Standard,
    /// Distance between consecutive I-frames in display order.
    pub gop_len: usize,
    /// B-frame placement policy.
    pub b_frames: BFrameMode,
    /// Reference search interval `n`.
    pub search_interval: SearchInterval,
    /// Residual quantisation step (1 = near-lossless, larger = lossier).
    pub quant: u8,
}

impl Default for CodecConfig {
    /// The paper's default operating point: H.265, auto B ratio, auto `n`.
    fn default() -> Self {
        Self {
            standard: Standard::H265,
            gop_len: 16,
            b_frames: BFrameMode::Auto,
            search_interval: SearchInterval::Auto,
            quant: 8,
        }
    }
}

impl CodecConfig {
    /// Validates internal consistency and compatibility with a frame size.
    ///
    /// # Errors
    /// Returns [`CodecError::InvalidConfig`] for out-of-range knobs and
    /// [`CodecError::BadDimensions`] if `width`×`height` is not a multiple of
    /// the macro-block size.
    pub(crate) fn validate_for(&self, width: usize, height: usize) -> Result<()> {
        if self.gop_len < 2 {
            return Err(CodecError::InvalidConfig(
                "gop_len must be at least 2".into(),
            ));
        }
        if let BFrameMode::Fixed(b) = self.b_frames {
            if b as usize >= self.gop_len {
                return Err(CodecError::InvalidConfig(format!(
                    "fixed B run ({b}) must be shorter than gop_len ({})",
                    self.gop_len
                )));
            }
        }
        if let SearchInterval::Fixed(n) = self.search_interval {
            if n == 0 || n > 9 {
                return Err(CodecError::InvalidConfig(format!(
                    "search interval must be in 1..=9, got {n}"
                )));
            }
        }
        if self.quant == 0 {
            return Err(CodecError::InvalidConfig("quant must be non-zero".into()));
        }
        let mb = self.standard.mb_size();
        if width == 0 || height == 0 || !width.is_multiple_of(mb) || !height.is_multiple_of(mb) {
            return Err(CodecError::BadDimensions(format!(
                "{width}x{height} is not a multiple of the {mb}-pixel macro-block"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_parameters() {
        assert_eq!(Standard::H264.mb_size(), 16);
        assert_eq!(Standard::H265.mb_size(), 8);
        assert!(Standard::H265.intra_modes() > Standard::H264.intra_modes());
        assert_eq!(Standard::H265.to_string(), "H.265");
    }

    #[test]
    fn default_config_is_valid_for_suite_dims() {
        let cfg = CodecConfig::default();
        assert!(cfg.validate_for(160, 96).is_ok());
        assert!(cfg.validate_for(64, 48).is_ok());
    }

    #[test]
    fn rejects_bad_dimensions() {
        let cfg = CodecConfig {
            standard: Standard::H264,
            ..CodecConfig::default()
        };
        // 40 is not a multiple of 16.
        assert!(matches!(
            cfg.validate_for(40, 48),
            Err(CodecError::BadDimensions(_))
        ));
    }

    #[test]
    fn rejects_bad_knobs() {
        let mut cfg = CodecConfig {
            gop_len: 1,
            ..CodecConfig::default()
        };
        assert!(cfg.validate_for(64, 48).is_err());
        cfg.gop_len = 16;
        cfg.search_interval = SearchInterval::Fixed(0);
        assert!(cfg.validate_for(64, 48).is_err());
        cfg.search_interval = SearchInterval::Fixed(10);
        assert!(cfg.validate_for(64, 48).is_err());
        cfg.search_interval = SearchInterval::Auto;
        cfg.quant = 0;
        assert!(cfg.validate_for(64, 48).is_err());
        cfg.quant = 8;
        cfg.b_frames = BFrameMode::Fixed(16);
        assert!(cfg.validate_for(64, 48).is_err());
        cfg.b_frames = BFrameMode::Fixed(3);
        assert!(cfg.validate_for(64, 48).is_ok());
    }

    #[test]
    fn search_interval_resolution() {
        assert_eq!(SearchInterval::Auto.resolve(), 7);
        assert_eq!(SearchInterval::Fixed(7).resolve(), 7);
    }
}
