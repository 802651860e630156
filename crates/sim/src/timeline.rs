//! Execution timelines: the data behind the paper's Fig. 7.
//!
//! [`crate::simulate_traced`] records what every hardware unit was doing and
//! when; [`Timeline::render_gantt`] draws the classic four-lane picture —
//! decoder, NPU, agent unit, CPU — that makes the schedules comparable at a
//! glance: FAVOS's wall of NN-L, VR-DANN-serial's switch/reconstruction
//! bubbles, and VR-DANN-parallel's reconstruction hidden under NPU compute.

/// The hardware unit a span occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The video decoder.
    Decoder,
    /// The NPU.
    Npu,
    /// The VR-DANN agent unit (hardware reconstruction).
    Agent,
    /// The host CPU (software reconstruction in VR-DANN-serial).
    Cpu,
}

impl Lane {
    /// Display name of the lane.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Decoder => "decoder",
            Lane::Npu => "NPU",
            Lane::Agent => "agent",
            Lane::Cpu => "CPU",
        }
    }
}

/// What kind of work a span represents (sets the Gantt glyph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Full pixel decode of a frame.
    DecodeFull,
    /// Motion-vector-only parse of a B-frame.
    DecodeMv,
    /// Large-network inference.
    NnL,
    /// NN-S refinement inference.
    NnS,
    /// Head-only inference on warped backbone features (feature-space
    /// propagation B-frames).
    Head,
    /// FlowNet inference + warp.
    Flow,
    /// Model switch bubble.
    Switch,
    /// B-frame reconstruction.
    Recon,
}

impl SpanKind {
    /// One-character glyph used in the Gantt chart.
    pub(crate) fn glyph(self) -> char {
        match self {
            SpanKind::DecodeFull => 'D',
            SpanKind::DecodeMv => 'm',
            SpanKind::NnL => 'L',
            SpanKind::NnS => 'S',
            SpanKind::Head => 'H',
            SpanKind::Flow => 'F',
            SpanKind::Switch => 'x',
            SpanKind::Recon => 'r',
        }
    }
}

/// One busy interval of one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which unit.
    pub lane: Lane,
    /// Work kind.
    pub kind: SpanKind,
    /// Start time in nanoseconds.
    pub start_ns: f64,
    /// End time in nanoseconds.
    pub end_ns: f64,
    /// Display index of the frame involved, if any.
    pub frame: Option<u32>,
}

/// A recorded execution timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// All recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Records a span (zero-length spans are dropped).
    pub fn record(
        &mut self,
        lane: Lane,
        kind: SpanKind,
        start_ns: f64,
        end_ns: f64,
        frame: Option<u32>,
    ) {
        if end_ns > start_ns {
            self.spans.push(Span {
                lane,
                kind,
                start_ns,
                end_ns,
                frame,
            });
        }
    }

    /// End of the last span (0 when empty).
    pub fn end_ns(&self) -> f64 {
        self.spans.iter().fold(0.0, |acc, s| acc.max(s.end_ns))
    }

    /// Total busy time of one lane.
    pub fn lane_busy_ns(&self, lane: Lane) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.lane == lane)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Renders a four-lane ASCII Gantt chart, `width` characters wide.
    /// Glyphs: `D` full decode, `m` MV-only parse, `L` NN-L, `S` NN-S,
    /// `H` head-only (feature propagation), `F` FlowNet, `x` model
    /// switch, `r` reconstruction, `.` idle.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width > 0, "gantt width must be non-zero");
        let total = self.end_ns().max(1.0);
        let mut out = String::new();
        for lane in [Lane::Decoder, Lane::Npu, Lane::Agent, Lane::Cpu] {
            let mut row = vec!['.'; width];
            let mut any = false;
            for s in self.spans.iter().filter(|s| s.lane == lane) {
                any = true;
                let a = ((s.start_ns / total) * width as f64).floor() as usize;
                let b = ((s.end_ns / total) * width as f64).ceil() as usize;
                for cell in row
                    .iter_mut()
                    .take(b.clamp(a + 1, width))
                    .skip(a.min(width - 1))
                {
                    *cell = s.kind.glyph();
                }
            }
            if any || lane == Lane::Npu || lane == Lane::Decoder {
                out.push_str(&format!("{:>7} |", lane.name()));
                out.extend(row);
                out.push_str(&format!(
                    "| {:6.2} ms busy\n",
                    self.lane_busy_ns(lane) / 1e6
                ));
            }
        }
        out.push_str(&format!(
            "total {:.2} ms   [D full decode, m MV parse, L NN-L, S NN-S, H head, F flow, x switch, r recon, . idle]\n",
            total / 1e6
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_measure() {
        let mut t = Timeline::default();
        t.record(Lane::Npu, SpanKind::NnL, 0.0, 100.0, Some(0));
        t.record(Lane::Npu, SpanKind::Switch, 100.0, 120.0, None);
        t.record(Lane::Agent, SpanKind::Recon, 50.0, 70.0, Some(1));
        // Zero-length spans are dropped.
        t.record(Lane::Cpu, SpanKind::Recon, 10.0, 10.0, None);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.end_ns(), 120.0);
        assert_eq!(t.lane_busy_ns(Lane::Npu), 120.0);
        assert_eq!(t.lane_busy_ns(Lane::Agent), 20.0);
        assert_eq!(t.lane_busy_ns(Lane::Cpu), 0.0);
    }

    #[test]
    fn gantt_renders_glyphs_in_order() {
        let mut t = Timeline::default();
        t.record(Lane::Npu, SpanKind::NnL, 0.0, 50.0, Some(0));
        t.record(Lane::Npu, SpanKind::NnS, 50.0, 100.0, Some(1));
        let g = t.render_gantt(20);
        let npu_row = g.lines().find(|l| l.contains("NPU")).unwrap();
        let cells: String = npu_row.chars().filter(|c| "LS.".contains(*c)).collect();
        // First half L, second half S.
        assert!(cells.starts_with('L'));
        assert!(cells.trim_end_matches('.').ends_with('S'));
        assert!(g.contains("total"));
    }
}
