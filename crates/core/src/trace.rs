//! Workload traces: the interface between the recognition pipelines and the
//! architecture simulator.
//!
//! Every pipeline (VR-DANN and each baseline) emits a [`SchemeTrace`]
//! describing, **in decode order**, what each frame cost: which network ran,
//! how many operations it needed, whether the frame's pixels were decoded at
//! all, and — for VR-DANN B-frames — the motion-vector records the agent
//! unit must stream through `mv_T`. The simulator (`vrd-sim`) replays these
//! traces against its NPU/decoder/DRAM/agent-unit models to produce the
//! cycle and energy numbers of Figs. 12–16.

use vrd_codec::{FrameType, MvRecord};

/// Which recognition scheme produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// OSVOS: two large networks on every frame.
    Osvos,
    /// FAVOS: tracker + one large network on every frame (the baseline all
    /// performance numbers are normalised to).
    Favos,
    /// DFF: large network on key frames, FlowNet + warp on the rest.
    Dff,
    /// Euphrates: large network on key frames, MV box-shift on the rest.
    Euphrates,
    /// SELSA: sequence-level aggregation, large network on every frame.
    Selsa,
    /// Feature-space propagation (Jain & Gonzalez): full backbone+head on
    /// anchors, MV-warped backbone features + head-only inference on
    /// B-frames.
    FeatProp,
    /// VR-DANN (this paper).
    VrDann,
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchemeKind::Osvos => "OSVOS",
            SchemeKind::Favos => "FAVOS",
            SchemeKind::Dff => "DFF",
            SchemeKind::Euphrates => "Euphrates",
            SchemeKind::Selsa => "SELSA",
            SchemeKind::FeatProp => "FeatProp",
            SchemeKind::VrDann => "VR-DANN",
        };
        f.write_str(s)
    }
}

/// The compute a frame requires.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeKind {
    /// A large-network inference (NN-L family).
    NnL {
        /// Total operations of the inference.
        ops: u64,
    },
    /// VR-DANN B-frame handling: motion-vector reconstruction followed by
    /// NN-S refinement.
    NnSRefine {
        /// Operations of the NN-S inference (2 ops per MAC).
        ops: u64,
        /// Motion-vector records the agent unit streams for reconstruction.
        mvs: Vec<MvRecord>,
    },
    /// DFF non-key frame: optical-flow network plus warping.
    FlowWarp {
        /// Operations of the flow inference.
        ops: u64,
    },
    /// Euphrates non-key frame: average-MV rectangle shift (work is
    /// negligible next to any NN inference).
    BoxShift,
    /// Feature-propagation B-frame: cached backbone features warped by the
    /// agent unit with the frame's MV records, then the network head alone
    /// on the NPU — billed distinctly from both NN-L and NN-S.
    FeatHead {
        /// Operations of the head-only inference.
        ops: u64,
        /// Motion-vector records the agent unit streams for the feature
        /// warp.
        mvs: Vec<MvRecord>,
    },
}

impl ComputeKind {
    /// Operations this frame puts on the NPU.
    pub fn ops(&self) -> u64 {
        match self {
            ComputeKind::NnL { ops } => *ops,
            ComputeKind::NnSRefine { ops, .. } => *ops,
            ComputeKind::FlowWarp { ops } => *ops,
            ComputeKind::BoxShift => 0,
            ComputeKind::FeatHead { ops, .. } => *ops,
        }
    }

    /// Whether the NPU must have the large network's weights loaded.
    ///
    /// The head of the staged large network counts: its weights live with
    /// the backbone, which is why feature propagation never pays a model
    /// switch between anchors and B-frames.
    pub fn uses_large_model(&self) -> bool {
        matches!(
            self,
            ComputeKind::NnL { .. } | ComputeKind::FlowWarp { .. } | ComputeKind::FeatHead { .. }
        )
    }
}

/// What a resilient run had to conceal (all zero on a clean stream).
///
/// Each counter is one rung of the degradation ladder: lost B-frame MVs are
/// the cheapest (copy a neighbouring segmentation), a lost anchor the most
/// expensive (its dependents decode from substituted references and NN-L is
/// re-run on the next decodable frame to re-establish a trusted reference).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcealmentStats {
    /// B-frames whose MV payload was lost outright; their segmentation is a
    /// copy of the nearest reference frame's result.
    pub b_copied: usize,
    /// B-frames reconstructed from a salvaged (partial or checksum-suspect)
    /// MV payload, with uncovered blocks filled co-located.
    pub b_salvaged: usize,
    /// Anchor frames that produced no pixels at all.
    pub anchors_lost: usize,
    /// Anchor frames decoded with at least one substituted reference.
    pub anchors_substituted: usize,
    /// Extra NN-L inferences run to re-establish a reference after a lost
    /// anchor.
    pub nnl_reinferences: usize,
    /// NN-S inference faults concealed by falling back to the unrefined
    /// blocky reconstruction.
    pub nns_failures: usize,
}

impl ConcealmentStats {
    /// Total concealment events of any kind.
    pub fn total(&self) -> usize {
        self.b_copied
            + self.b_salvaged
            + self.anchors_lost
            + self.anchors_substituted
            + self.nnl_reinferences
            + self.nns_failures
    }

    /// Whether the run needed no concealment at all (clean stream, no NN-S
    /// faults) — such runs are bit-identical to the strict pipeline.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Accumulates another run's counters (suite-level aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.b_copied += other.b_copied;
        self.b_salvaged += other.b_salvaged;
        self.anchors_lost += other.anchors_lost;
        self.anchors_substituted += other.anchors_substituted;
        self.nnl_reinferences += other.nnl_reinferences;
        self.nns_failures += other.nns_failures;
    }
}

impl std::fmt::Display for ConcealmentStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "b_copied={} b_salvaged={} anchors_lost={} anchors_substituted={} \
             nnl_reinferences={} nns_failures={}",
            self.b_copied,
            self.b_salvaged,
            self.anchors_lost,
            self.anchors_substituted,
            self.nnl_reinferences,
            self.nns_failures
        )
    }
}

/// One frame's work item, in decode order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFrame {
    /// Display index of the frame.
    pub display: u32,
    /// Codec frame type.
    pub ftype: FrameType,
    /// Compute required.
    pub kind: ComputeKind,
    /// Whether the decoder reconstructs this frame's pixels.
    pub full_decode: bool,
    /// Bitstream bytes parsed for this frame.
    pub bitstream_bytes: usize,
}

/// A complete per-sequence workload description for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeTrace {
    /// The scheme that produced this trace.
    pub scheme: SchemeKind,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Macro-block size of the underlying bitstream.
    pub mb_size: usize,
    /// Per-frame work in decode order.
    pub frames: Vec<TraceFrame>,
}

impl SchemeTrace {
    /// Total NPU operations over the sequence.
    pub fn total_ops(&self) -> u64 {
        self.frames.iter().map(|f| f.kind.ops()).sum()
    }

    /// Mean NPU tera-operations per frame (the paper's Fig. 12 overlay).
    pub fn tops_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.total_ops() as f64 / self.frames.len() as f64 / 1e12
    }

    /// Number of large-model ↔ small-model switches a strict in-order
    /// execution would incur (the quantity VR-DANN-parallel's lagged queue
    /// switching minimises; Fig. 7).
    pub fn model_switches_in_order(&self) -> usize {
        self.frames
            .windows(2)
            .filter(|w| w[0].kind.uses_large_model() != w[1].kind.uses_large_model())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: ComputeKind) -> TraceFrame {
        TraceFrame {
            display: 0,
            ftype: FrameType::I,
            kind,
            full_decode: true,
            bitstream_bytes: 100,
        }
    }

    #[test]
    fn ops_accounting() {
        let t = SchemeTrace {
            scheme: SchemeKind::VrDann,
            width: 64,
            height: 48,
            mb_size: 8,
            frames: vec![
                frame(ComputeKind::NnL { ops: 1000 }),
                frame(ComputeKind::NnSRefine {
                    ops: 10,
                    mvs: vec![],
                }),
                frame(ComputeKind::BoxShift),
            ],
        };
        assert_eq!(t.total_ops(), 1010);
        assert!((t.tops_per_frame() - 1010.0 / 3.0 / 1e12).abs() < 1e-18);
    }

    #[test]
    fn switch_counting() {
        let l = || frame(ComputeKind::NnL { ops: 1 });
        let s = || {
            frame(ComputeKind::NnSRefine {
                ops: 1,
                mvs: vec![],
            })
        };
        let t = SchemeTrace {
            scheme: SchemeKind::VrDann,
            width: 8,
            height: 8,
            mb_size: 8,
            frames: vec![l(), s(), l(), s()],
        };
        assert_eq!(t.model_switches_in_order(), 3);
        let grouped = SchemeTrace {
            frames: vec![l(), l(), s(), s()],
            ..t
        };
        assert_eq!(grouped.model_switches_in_order(), 1);
    }

    #[test]
    fn concealment_merge_accumulates() {
        let mut a = ConcealmentStats {
            b_copied: 1,
            anchors_lost: 2,
            ..ConcealmentStats::default()
        };
        let b = ConcealmentStats {
            b_copied: 3,
            nns_failures: 4,
            ..ConcealmentStats::default()
        };
        a.merge(&b);
        assert_eq!(a.b_copied, 4);
        assert_eq!(a.anchors_lost, 2);
        assert_eq!(a.nns_failures, 4);
        assert_eq!(a.total(), 10);
        assert!(!a.is_clean());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SchemeKind::VrDann.to_string(), "VR-DANN");
        assert_eq!(SchemeKind::Favos.to_string(), "FAVOS");
    }
}
