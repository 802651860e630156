//! Encoder-side statistics, the source data for Fig. 3 of the paper.

/// Statistics gathered while encoding one sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EncodeStats {
    /// Total frames encoded.
    pub n_frames: usize,
    /// Number of B-frames.
    pub b_frames: usize,
    /// Distinct reference frames used by each B-frame (Fig. 3b's metric).
    pub refs_per_b: Vec<usize>,
    /// Macro-blocks coded intra.
    pub intra_blocks: usize,
    /// Macro-blocks coded with a single reference.
    pub inter_blocks: usize,
    /// Macro-blocks coded bi-predicted.
    pub bi_blocks: usize,
    /// Final bitstream length in bytes.
    pub bitstream_bytes: usize,
    /// Uncompressed luma size in bytes (width × height × frames).
    pub raw_bytes: usize,
    /// Sum of motion-vector magnitudes (for the mean).
    pub mv_magnitude_sum: f64,
    /// Number of motion vectors contributing to the magnitude sum.
    pub mv_count: usize,
}

impl EncodeStats {
    /// Fraction of frames that are B-frames (Fig. 3a).
    pub fn b_ratio(&self) -> f64 {
        if self.n_frames == 0 {
            0.0
        } else {
            self.b_frames as f64 / self.n_frames as f64
        }
    }

    /// Mean number of distinct reference frames per B-frame (Fig. 3b).
    pub fn mean_refs_per_b(&self) -> f64 {
        if self.refs_per_b.is_empty() {
            0.0
        } else {
            self.refs_per_b.iter().sum::<usize>() as f64 / self.refs_per_b.len() as f64
        }
    }

    /// Maximum number of distinct reference frames any B-frame needed.
    pub fn max_refs_per_b(&self) -> usize {
        self.refs_per_b.iter().copied().max().unwrap_or(0)
    }

    /// Raw-to-compressed size ratio (higher = better compression).
    pub fn compression_ratio(&self) -> f64 {
        if self.bitstream_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.bitstream_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_stats() {
        let s = EncodeStats::default();
        assert_eq!(s.b_ratio(), 0.0);
        assert_eq!(s.mean_refs_per_b(), 0.0);
        assert_eq!(s.max_refs_per_b(), 0);
        assert_eq!(s.compression_ratio(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = EncodeStats {
            n_frames: 10,
            b_frames: 6,
            refs_per_b: vec![2, 3, 4, 2, 3, 4],
            bitstream_bytes: 100,
            raw_bytes: 1000,
            ..EncodeStats::default()
        };
        assert!((s.b_ratio() - 0.6).abs() < 1e-9);
        assert!((s.mean_refs_per_b() - 3.0).abs() < 1e-9);
        assert_eq!(s.max_refs_per_b(), 4);
        assert!((s.compression_ratio() - 10.0).abs() < 1e-9);
    }
}
