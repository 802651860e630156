//! The cost model: the only arithmetic that turns work into time.
//!
//! Everything that asks "how long does this take on the modelled SoC" —
//! the simulator's NPU and decoder lanes, the serving layer's scheduler,
//! admission control and fleet placement — asks here: NPU service time per
//! resident [`Model`] and precision, NN-L ↔ NN-S switch cost, decoder time
//! per frame. The values a caller varies are [`SimConfig`]'s fields, the
//! rest are constants here and in the DRAM model; no other module combines
//! them into nanoseconds.

use crate::config::SimConfig;
use vr_dann::{ComputeKind, ComputeMode};

/// NPU on-chip buffer in bytes (8 MB, Table II): the weight working set
/// refilled from DRAM when the large or flow network becomes resident.
pub const NPU_BUFFER_BYTES: usize = 8 << 20;
/// NN-S weight bytes per inference (the whole network: ~1 K params), the
/// refill of a switch to the small model and its per-frame weight traffic.
pub(crate) const NNS_WEIGHT_BYTES: usize = 1_024;
/// Decoder cycles per pixel for B-frame motion-vector extraction only (no
/// pixel reconstruction, no residual decode).
const DECODER_CYCLES_PER_PIXEL_MV: f64 = 2.0;

/// NPU-resident model families (switching between them costs time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// The large network (NN-L), including its staged head.
    Large,
    /// The optical-flow network of the DFF baseline.
    Flow,
    /// The small refinement network (NN-S).
    Small,
}

impl Model {
    /// The model a frame's compute needs resident; `None` for zero-op work,
    /// which leaves the resident model in place.
    pub fn of(kind: &ComputeKind) -> Option<Model> {
        match kind {
            ComputeKind::NnL { .. } => Some(Model::Large),
            ComputeKind::FlowWarp { .. } => Some(Model::Flow),
            ComputeKind::NnSRefine { .. } => Some(Model::Small),
            ComputeKind::BoxShift => None,
            // The staged head lives with the backbone weights: resident large
            // model, no switch between anchors and propagated B-frames.
            ComputeKind::FeatHead { .. } => Some(Model::Large),
        }
    }
}

/// Decoder-lane cost of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeCost {
    /// Decoder cycles spent (what decoder energy is charged on).
    pub cycles: f64,
    /// The same work in nanoseconds at the decoder clock.
    pub ns: f64,
}

impl SimConfig {
    /// Effective NPU throughput in ops/ns.
    pub(crate) fn npu_ops_per_ns(&self) -> f64 {
        self.npu.peak_ops_per_s * self.npu.utilization / 1e9
    }

    /// NPU time of `ops` operations on `model`. Precision only moves
    /// NN-S: quantized refinement runs [`crate::NpuConfig::int8_speedup`]×
    /// faster, the large and flow networks always run in full.
    pub fn service_ns(&self, ops: u64, model: Model, mode: ComputeMode) -> f64 {
        let rate = self.npu_ops_per_ns();
        let rate = match (model, mode) {
            (Model::Small, ComputeMode::Int8) => rate * self.npu.int8_speedup,
            _ => rate,
        };
        ops as f64 / rate
    }

    /// Time to make `next` the resident model: nothing when it already is;
    /// otherwise the weight refill from DRAM (the whole on-chip buffer for
    /// the large and flow networks, NN-S's tiny weight set for the small
    /// one) plus the kernel swap.
    pub fn switch_ns(&self, resident: Option<Model>, next: Model) -> f64 {
        if resident == Some(next) {
            return 0.0;
        }
        let refill_bytes = match next {
            Model::Large | Model::Flow => NPU_BUFFER_BYTES,
            Model::Small => NNS_WEIGHT_BYTES,
        };
        refill_bytes as f64 / self.dram_bytes_per_ns() + self.npu.kernel_swap_ns
    }

    /// One NN-L → NN-S → NN-L round trip: what a scheduler amortises when
    /// it batches same-model work.
    pub fn switch_pair_ns(&self) -> f64 {
        self.switch_ns(Some(Model::Small), Model::Large)
            + self.switch_ns(Some(Model::Large), Model::Small)
    }

    /// Decoder cost of one frame of `pixels` pixels: full reconstruction,
    /// or motion-vector extraction only.
    pub fn decode_ns(&self, pixels: usize, full_decode: bool) -> DecodeCost {
        let cycles_per_pixel = if full_decode {
            self.decoder.cycles_per_pixel_full
        } else {
            DECODER_CYCLES_PER_PIXEL_MV
        };
        let cycles = pixels as f64 * cycles_per_pixel;
        DecodeCost {
            cycles,
            ns: cycles / self.decoder.freq_hz * 1e9,
        }
    }

    /// Frames per second the decoder sustains when every frame is fully
    /// reconstructed — the ceiling VR-DANN-parallel approaches.
    pub fn decoder_ceiling_fps(&self, pixels: usize) -> f64 {
        self.decoder.freq_hz / (pixels as f64 * self.decoder.cycles_per_pixel_full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_the_paper() {
        let cfg = SimConfig::default();
        // FAVOS: 0.5 TOPS per 854x480 frame lands at about 13 fps.
        let fps = 1e9 / cfg.service_ns(500_000_000_000, Model::Large, ComputeMode::F32Reference);
        assert!((12.0..14.5).contains(&fps), "FAVOS fps: {fps:.1}");
        // The decoder sustains about 40 fps there, MV extraction far more.
        let px = 854 * 480;
        let fps = cfg.decoder_ceiling_fps(px);
        assert!((38.0..42.0).contains(&fps), "decoder fps: {fps:.1}");
        assert!((fps - 1e9 / cfg.decode_ns(px, true).ns).abs() < 1e-9);
        assert!(cfg.decode_ns(px, false).ns < cfg.decode_ns(px, true).ns / 5.0);
    }

    #[test]
    fn switch_costs_are_asymmetric_and_free_when_resident() {
        let cfg = SimConfig::default();
        let to_large = cfg.switch_ns(Some(Model::Small), Model::Large);
        let to_small = cfg.switch_ns(Some(Model::Large), Model::Small);
        // Large switch is dominated by the 8 MB buffer refill (~655 us).
        assert!((600_000.0..900_000.0).contains(&to_large));
        assert!(to_large > 5.0 * to_small);
        assert_eq!(cfg.switch_pair_ns(), to_large + to_small);
        // A cold device pays the same as a swap; a warm one pays nothing.
        assert_eq!(cfg.switch_ns(None, Model::Large), to_large);
        assert_eq!(cfg.switch_ns(Some(Model::Flow), Model::Large), to_large);
        assert_eq!(cfg.switch_ns(Some(Model::Small), Model::Small), 0.0);
    }

    #[test]
    fn int8_speeds_up_the_small_model_only() {
        let cfg = SimConfig::default();
        let ns = |m, mode| cfg.service_ns(1_000_000, m, mode);
        let (f32_mode, int8) = (ComputeMode::F32Reference, ComputeMode::Int8);
        assert_eq!(
            ns(Model::Small, int8),
            ns(Model::Small, f32_mode) / cfg.npu.int8_speedup
        );
        assert_eq!(ns(Model::Large, int8), ns(Model::Large, f32_mode));
        assert_eq!(ns(Model::Flow, int8), ns(Model::Flow, f32_mode));
    }
}
