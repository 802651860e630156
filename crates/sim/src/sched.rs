//! Execution scheduling: FAVOS-style in-order, VR-DANN-serial and
//! VR-DANN-parallel timelines (Fig. 7).
//!
//! The simulator replays a [`SchemeTrace`] against the NPU, decoder, DRAM
//! and agent-unit models:
//!
//! * **in-order** — every frame waits for its decode, switches the NPU
//!   model when needed and runs; this covers all baselines.
//! * **VR-DANN-serial** — in-order, plus a blocking CPU reconstruction
//!   before every B-frame's NN-S run (§IV-A's software flow).
//! * **VR-DANN-parallel** — the agent unit reorders work (lagged queue
//!   switching), reconstructs B-frames concurrently with NPU compute
//!   through the coalescing unit and the `tmp_B` buffers, and drains the
//!   `b_Q` in batches, minimising model switches.

use crate::agent::{self, B_Q_ENTRIES, MV_T_ENTRIES, TMP_B_BUFFERS, TMP_B_NJ_PER_ACCESS};
use crate::config::SimConfig;
use crate::cost::Model;
use crate::dram::{self, Dram};
use crate::report::{EnergyBreakdown, SimReport, TrafficBreakdown};
use crate::timeline::{Lane, SpanKind, Timeline};
use crate::traffic::frame_traffic;
use std::collections::{BTreeMap, VecDeque};
use vr_dann::{ComputeKind, ComputeMode, SchemeTrace, TraceFrame};
use vrd_codec::MvRecord;

/// NPU energy per operation in picojoules (Ascend-310 class: 16 TOPS at
/// ~8 W ≈ 0.5 pJ/op).
pub(crate) const NPU_PJ_PER_OP: f64 = 0.5;
/// Energy per decoder cycle in picojoules.
const DECODER_PJ_PER_CYCLE: f64 = 300.0;
/// CPU time per motion-vector record for the *software* reconstruction of
/// VR-DANN-serial, in nanoseconds. Covers the scattered DRAM read, the bit
/// manipulation and the write — the paper's "CPU is generally very
/// inefficient for the large scale random memory accessing".
const CPU_NS_PER_MV: f64 = 2_500.0;
/// CPU energy per motion-vector record of the software reconstruction
/// (VR-DANN-serial only), in nanojoules.
const CPU_NJ_PER_MV: f64 = 3.0;
/// SoC static/idle power in milliwatts, charged over the whole execution
/// window (slower schedules pay more idle energy — this is what separates
/// VR-DANN-serial from -parallel in Fig. 13's energy).
const SOC_STATIC_MW: f64 = 500.0;

/// Options of the parallel architecture (the ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Motion-vector coalescing in the agent unit (§IV-C). Off = every
    /// block fetched independently.
    pub coalesce: bool,
    /// Lagged queue switching (§IV-B). Off = strict decode order (still
    /// hardware-reconstructed, but switching on every frame-type change).
    pub lagged_switching: bool,
    /// Number of `tmp_B` buffers ([`TMP_B_BUFFERS`] on the modelled unit).
    pub tmp_b_buffers: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            coalesce: true,
            lagged_switching: true,
            tmp_b_buffers: TMP_B_BUFFERS,
        }
    }
}

/// How to execute a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Straightforward in-order execution (all baselines).
    InOrder,
    /// VR-DANN software flow: in-order with blocking CPU reconstruction.
    VrDannSerial,
    /// VR-DANN with the agent unit.
    VrDannParallel(ParallelOptions),
}

fn span_of(kind: &ComputeKind) -> SpanKind {
    match kind {
        ComputeKind::NnL { .. } => SpanKind::NnL,
        ComputeKind::FlowWarp { .. } => SpanKind::Flow,
        ComputeKind::NnSRefine { .. } => SpanKind::NnS,
        ComputeKind::BoxShift => SpanKind::NnS, // zero ops: never recorded
        ComputeKind::FeatHead { .. } => SpanKind::Head,
    }
}

struct Machine<'a> {
    cfg: &'a SimConfig,
    t_npu: f64,
    model: Option<Model>,
    npu_busy_ns: f64,
    switch_ns: f64,
    switches: usize,
    recon_stall_ns: f64,
    cpu_recon_ns: f64,
    timeline: Timeline,
    record: bool,
}

impl<'a> Machine<'a> {
    fn new(cfg: &'a SimConfig, record: bool) -> Self {
        Self {
            cfg,
            t_npu: 0.0,
            model: None,
            npu_busy_ns: 0.0,
            switch_ns: 0.0,
            switches: 0,
            recon_stall_ns: 0.0,
            cpu_recon_ns: 0.0,
            timeline: Timeline::default(),
            record,
        }
    }

    /// Makes `m` resident, paying the switch. `None` is zero-op work: it
    /// leaves the resident model in place.
    fn ensure_model(&mut self, m: Option<Model>) {
        let Some(m) = m.filter(|&m| Some(m) != self.model) else {
            return;
        };
        let ns = self.cfg.switch_ns(self.model, m);
        if self.record {
            self.timeline.record(
                Lane::Npu,
                SpanKind::Switch,
                self.t_npu,
                self.t_npu + ns,
                None,
            );
        }
        self.t_npu += ns;
        self.switch_ns += ns;
        self.switches += 1;
        self.model = Some(m);
    }

    /// Runs `ops` on the resident model. A trace carries no precision, so
    /// the simulator bills every inference at the calibrated full rate.
    fn run_ops(&mut self, ops: u64, not_before: f64, kind: SpanKind, frame: Option<u32>) {
        self.t_npu = self.t_npu.max(not_before);
        let ns = self.model.map_or(0.0, |m| {
            self.cfg.service_ns(ops, m, ComputeMode::F32Reference)
        });
        if self.record {
            self.timeline
                .record(Lane::Npu, kind, self.t_npu, self.t_npu + ns, frame);
        }
        self.t_npu += ns;
        self.npu_busy_ns += ns;
    }
}

/// Simulates a trace under the chosen execution mode.
pub fn simulate(trace: &SchemeTrace, mode: ExecMode, cfg: &SimConfig) -> SimReport {
    simulate_impl(trace, mode, cfg, false).0
}

/// Simulates a trace and additionally records the execution [`Timeline`]
/// (the paper's Fig. 7 view).
pub fn simulate_traced(
    trace: &SchemeTrace,
    mode: ExecMode,
    cfg: &SimConfig,
) -> (SimReport, Timeline) {
    simulate_impl(trace, mode, cfg, true)
}

/// Simulates work items as they stream out of a pipeline run, without ever
/// holding the whole trace: `frames` is consumed one [`TraceFrame`] at a
/// time.
pub fn simulate_stream<'a, I>(
    frames: I,
    scheme: vr_dann::SchemeKind,
    width: usize,
    height: usize,
    mb_size: usize,
    mode: ExecMode,
    cfg: &SimConfig,
) -> SimReport
where
    I: IntoIterator<Item = &'a TraceFrame>,
{
    let mut sim = StreamSim::new(scheme, width, height, mb_size, mode, cfg, false);
    for f in frames {
        sim.push(f);
    }
    sim.finish().0
}

fn simulate_impl(
    trace: &SchemeTrace,
    mode: ExecMode,
    cfg: &SimConfig,
    record: bool,
) -> (SimReport, Timeline) {
    let mut sim = StreamSim::new(
        trace.scheme,
        trace.width,
        trace.height,
        trace.mb_size,
        mode,
        cfg,
        record,
    );
    for f in &trace.frames {
        sim.push(f);
    }
    sim.finish()
}

/// The single-pass simulator core shared by every entry point.
///
/// State is O(b_Q): the only frames retained are the B-frames currently
/// parked in the agent unit's `b_Q` (at most [`B_Q_ENTRIES`]), so a
/// pipeline can feed the scheduler frame by frame with bounded memory.
pub(crate) struct StreamSim<'a> {
    scheme: vr_dann::SchemeKind,
    width: usize,
    height: usize,
    mb_size: usize,
    mode: ExecMode,
    machine: Machine<'a>,
    // Incremental decoder-lane clock (decode-completion time of the last
    // pushed frame) and its span buffer — decoder spans lead the timeline.
    t_decode: f64,
    decoder_cycles: f64,
    last_ready: f64,
    decode_spans: Vec<(bool, f64, f64, u32)>,
    n_frames: usize,
    total_ops: u64,
    dram: Dram,
    traffic: TrafficBreakdown,
    tmp_b_accesses: u64,
    serial_mvs: u64,
    max_b_q: usize,
    // VR-DANN-parallel state: NPU finish time of each processed anchor (for
    // recon deps), agent-unit availability, tmp_B consumption gates and the
    // parked B-frames with their decode-ready times.
    anchor_done: BTreeMap<u32, f64>,
    agent_free: f64,
    consumed: VecDeque<f64>,
    // Parked B-frames, already destructured to what the drain needs:
    // (decode-ready time, display, NN-S ops, MV records). Storing the
    // parts — not the TraceFrame — makes "b_Q only holds B-frames" a
    // type-level fact instead of a runtime assertion.
    b_q: Vec<(f64, u32, u64, Vec<MvRecord>)>,
}

impl<'a> StreamSim<'a> {
    /// Starts a streaming simulation. `record` enables timeline capture.
    pub(crate) fn new(
        scheme: vr_dann::SchemeKind,
        width: usize,
        height: usize,
        mb_size: usize,
        mode: ExecMode,
        cfg: &'a SimConfig,
        record: bool,
    ) -> Self {
        Self {
            scheme,
            width,
            height,
            mb_size,
            mode,
            machine: Machine::new(cfg, record),
            t_decode: 0.0,
            decoder_cycles: 0.0,
            last_ready: 0.0,
            decode_spans: Vec::new(),
            n_frames: 0,
            total_ops: 0,
            dram: Dram::new(cfg.dram.burst_ns),
            traffic: TrafficBreakdown::default(),
            tmp_b_accesses: 0,
            serial_mvs: 0,
            max_b_q: 0,
            anchor_done: BTreeMap::new(),
            agent_free: 0.0,
            consumed: VecDeque::new(),
            b_q: Vec::new(),
        }
    }

    /// Feeds the next work item (decode order).
    pub(crate) fn push(&mut self, f: &TraceFrame) {
        let cfg = self.machine.cfg;
        // Decoder lane: this frame's decode-completion time.
        let decode = cfg.decode_ns(self.width * self.height, f.full_decode);
        self.decoder_cycles += decode.cycles;
        let start = self.t_decode;
        self.t_decode += decode.ns;
        let ready = self.t_decode;
        self.last_ready = ready;
        if self.machine.record {
            self.decode_spans
                .push((f.full_decode, start, ready, f.display));
        }
        self.n_frames += 1;
        self.total_ops += f.kind.ops();
        self.traffic
            .merge(&frame_traffic(f, self.width, self.height));

        match self.mode {
            ExecMode::InOrder | ExecMode::VrDannSerial => {
                let serial = matches!(self.mode, ExecMode::VrDannSerial);
                self.machine.t_npu = self.machine.t_npu.max(ready);
                if let ComputeKind::NnSRefine { mvs, .. } = &f.kind {
                    if serial {
                        // Blocking CPU reconstruction: scattered accesses,
                        // nothing overlapped.
                        let refs = mvs.iter().map(|m| 1 + m.ref1.is_some() as u64).sum::<u64>();
                        let ns = mvs.len() as f64 * CPU_NS_PER_MV;
                        if self.machine.record {
                            self.machine.timeline.record(
                                Lane::Cpu,
                                SpanKind::Recon,
                                self.machine.t_npu,
                                self.machine.t_npu + ns,
                                Some(f.display),
                            );
                        }
                        self.machine.t_npu += ns;
                        self.machine.cpu_recon_ns += ns;
                        self.serial_mvs += mvs.len() as u64;
                        self.traffic.seg += refs * 512 + (self.width * self.height / 4) as u64;
                    }
                }
                self.machine.ensure_model(Model::of(&f.kind));
                self.machine
                    .run_ops(f.kind.ops(), ready, span_of(&f.kind), Some(f.display));
            }
            ExecMode::VrDannParallel(opts) => match &f.kind {
                ComputeKind::NnSRefine { ops, mvs } => {
                    self.b_q.push((ready, f.display, *ops, mvs.clone()));
                    self.max_b_q = self.max_b_q.max(self.b_q.len());
                    if self.b_q.len() >= B_Q_ENTRIES || !opts.lagged_switching {
                        self.drain_b_q(opts);
                    }
                }
                _ => {
                    if !opts.lagged_switching && !self.b_q.is_empty() {
                        self.drain_b_q(opts);
                    }
                    self.machine.ensure_model(Model::of(&f.kind));
                    self.machine
                        .run_ops(f.kind.ops(), ready, span_of(&f.kind), Some(f.display));
                    self.anchor_done.insert(f.display, self.machine.t_npu);
                }
            },
        }
    }

    /// Reconstructs and refines every parked B-frame, in arrival order.
    fn drain_b_q(&mut self, opts: ParallelOptions) {
        let tmp_b = opts.tmp_b_buffers.max(1);
        for (ready, display, ops, mvs) in std::mem::take(&mut self.b_q) {
            let refs_done = mvs
                .iter()
                .flat_map(|m| std::iter::once(m.ref0.frame).chain(m.ref1.map(|r| r.frame)))
                .map(|fr| self.anchor_done.get(&fr).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            let gate = if self.consumed.len() >= tmp_b {
                self.consumed[self.consumed.len() - tmp_b]
            } else {
                0.0
            };
            let start = ready.max(refs_done).max(self.agent_free).max(gate);
            let outcome = agent::reconstruct(
                &mvs,
                self.width,
                self.height,
                self.mb_size,
                opts.coalesce,
                MV_T_ENTRIES,
                &mut self.dram,
                start,
            );
            self.agent_free = outcome.finish_ns;
            self.traffic.seg += outcome.seg_bytes;
            self.tmp_b_accesses += outcome.tmp_b_accesses;
            if self.machine.record {
                self.machine.timeline.record(
                    Lane::Agent,
                    SpanKind::Recon,
                    start,
                    outcome.finish_ns,
                    Some(display),
                );
            }

            self.machine.ensure_model(Some(Model::Small));
            let stall = (outcome.finish_ns - self.machine.t_npu).max(0.0);
            self.machine.recon_stall_ns += stall;
            self.machine
                .run_ops(ops, outcome.finish_ns, SpanKind::NnS, Some(display));
            self.consumed.push_back(self.machine.t_npu);
        }
    }

    /// Ends the stream: drains any parked B-frames and closes the books.
    pub(crate) fn finish(mut self) -> (SimReport, Timeline) {
        if let ExecMode::VrDannParallel(opts) = self.mode {
            self.drain_b_q(opts);
        }
        // Note: model-switch weight reloads are *not* added to the traffic —
        // per-inference weight streaming already accounts for the weight
        // bytes; the switch cost models the pipeline bubble (latency), not
        // new data.
        let total_ns = self.machine.t_npu.max(self.last_ready);
        let energy = EnergyBreakdown {
            npu_mj: self.total_ops as f64 * NPU_PJ_PER_OP / 1e9,
            dram_mj: self.traffic.total() as f64 * dram::PJ_PER_BYTE / 1e9,
            decoder_mj: self.decoder_cycles * DECODER_PJ_PER_CYCLE / 1e9,
            agent_mj: self.tmp_b_accesses as f64 * TMP_B_NJ_PER_ACCESS / 1e6,
            cpu_mj: self.serial_mvs as f64 * CPU_NJ_PER_MV / 1e6,
            // mW x ns = pJ; 1e9 pJ per mJ.
            static_mj: total_ns * SOC_STATIC_MW / 1e9,
        };
        let report = SimReport {
            scheme: self.scheme,
            frames: self.n_frames,
            total_ns,
            fps: self.n_frames as f64 / (total_ns / 1e9),
            npu_busy_ns: self.machine.npu_busy_ns,
            switch_ns: self.machine.switch_ns,
            switches: self.machine.switches,
            recon_stall_ns: self.machine.recon_stall_ns,
            cpu_recon_ns: self.machine.cpu_recon_ns,
            max_b_q_occupancy: self.max_b_q,
            energy,
            traffic: self.traffic,
            dram: *self.dram.stats(),
        };
        // Decoder spans lead the timeline, as readers of the Fig. 7 view
        // (and the pre-streaming simulator) expect.
        let mut timeline = Timeline::default();
        for (full, start, end, frame) in self.decode_spans {
            let kind = if full {
                SpanKind::DecodeFull
            } else {
                SpanKind::DecodeMv
            };
            timeline.record(Lane::Decoder, kind, start, end, Some(frame));
        }
        timeline.spans.append(&mut self.machine.timeline.spans);
        (report, timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_dann::baselines::{encode_default, run_favos};
    use vr_dann::{TrainTask, VrDann, VrDannConfig};
    use vrd_video::davis::{davis_sequence, davis_train_suite, SuiteConfig};

    fn vr_trace() -> (SchemeTrace, SchemeTrace) {
        let cfg = SuiteConfig::tiny();
        let train = davis_train_suite(&cfg, 2);
        let model = VrDann::train(
            &train,
            TrainTask::Segmentation,
            VrDannConfig {
                nns_hidden: 4,
                ..VrDannConfig::default()
            },
        )
        .unwrap();
        let seq = davis_sequence("cows", &cfg).unwrap();
        let encoded = model.encode(&seq).unwrap();
        let vr = model.run_segmentation(&seq, &encoded).unwrap();
        let favos = run_favos(&seq, &encode_default(&seq).unwrap(), 1);
        (vr.trace, favos.trace)
    }

    #[test]
    fn parallel_beats_serial_beats_favos() {
        let (vr, favos) = vr_trace();
        let cfg = SimConfig::default();
        let r_favos = simulate(&favos, ExecMode::InOrder, &cfg);
        let r_serial = simulate(&vr, ExecMode::VrDannSerial, &cfg);
        let r_par = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &cfg,
        );
        assert!(
            r_par.total_ns < r_serial.total_ns,
            "parallel {} >= serial {}",
            r_par.total_ns,
            r_serial.total_ns
        );
        assert!(
            r_serial.total_ns < r_favos.total_ns,
            "serial {} >= favos {}",
            r_serial.total_ns,
            r_favos.total_ns
        );
        // Parallel minimises switches (one drain per b_Q fill).
        assert!(r_par.switches < r_serial.switches);
        // Energy ordering matches the paper.
        assert!(r_par.energy.total_mj() < r_favos.energy.total_mj());
    }

    #[test]
    fn coalescing_reduces_recon_stall_and_traffic() {
        let (vr, _) = vr_trace();
        let cfg = SimConfig::default();
        let with = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &cfg,
        );
        let without = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions {
                coalesce: false,
                ..ParallelOptions::default()
            }),
            &cfg,
        );
        assert!(with.traffic.seg < without.traffic.seg);
        assert!(with.total_ns <= without.total_ns);
        // Scattered fetches issue far more bursts for the same blocks.
        assert!(with.dram.bytes < without.dram.bytes);
    }

    #[test]
    fn lagged_switching_cuts_switches() {
        let (vr, _) = vr_trace();
        let cfg = SimConfig::default();
        let lagged = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &cfg,
        );
        let strict = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions {
                lagged_switching: false,
                ..ParallelOptions::default()
            }),
            &cfg,
        );
        assert!(lagged.switches < strict.switches);
        assert!(lagged.total_ns < strict.total_ns);
    }

    #[test]
    fn b_q_occupancy_is_tracked_and_bounded() {
        let (vr, _) = vr_trace();
        let cfg = SimConfig::default();
        let r = simulate(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &cfg,
        );
        assert!(r.max_b_q_occupancy > 0, "no B-frames queued");
        assert!(
            r.max_b_q_occupancy <= B_Q_ENTRIES,
            "b_Q overflowed: {}",
            r.max_b_q_occupancy
        );
        // In-order modes never use the queue.
        let s = simulate(&vr, ExecMode::VrDannSerial, &cfg);
        assert_eq!(s.max_b_q_occupancy, 0);
    }

    #[test]
    fn traced_timeline_matches_report_and_shows_overlap() {
        let (vr, _) = vr_trace();
        let cfg = SimConfig::default();
        let (report, tl) = crate::sched::simulate_traced(
            &vr,
            ExecMode::VrDannParallel(ParallelOptions::default()),
            &cfg,
        );
        // Lane accounting agrees with the report.
        assert!(
            (tl.lane_busy_ns(crate::Lane::Npu) - (report.npu_busy_ns + report.switch_ns)).abs()
                < 1.0
        );
        assert!(tl.end_ns() <= report.total_ns + 1.0);
        // The agent lane is busy (hardware reconstruction happened)...
        assert!(tl.lane_busy_ns(crate::Lane::Agent) > 0.0);
        // ...and at least one reconstruction overlaps NPU compute (the
        // "hidden latency" mechanism of Fig. 7).
        let npu: Vec<&crate::Span> = tl
            .spans
            .iter()
            .filter(|s| s.lane == crate::Lane::Npu)
            .collect();
        let overlapping = tl
            .spans
            .iter()
            .filter(|s| s.lane == crate::Lane::Agent)
            .any(|a| {
                npu.iter()
                    .any(|n| a.start_ns < n.end_ns && n.start_ns < a.end_ns)
            });
        assert!(overlapping, "no reconstruction overlapped NPU compute");
        // Serial mode shows CPU-lane work instead.
        let (_, tl_serial) = crate::sched::simulate_traced(&vr, ExecMode::VrDannSerial, &cfg);
        assert!(tl_serial.lane_busy_ns(crate::Lane::Cpu) > 0.0);
        assert_eq!(tl_serial.lane_busy_ns(crate::Lane::Agent), 0.0);
        // Untraced runs record nothing.
        let plain = simulate(&vr, ExecMode::VrDannSerial, &cfg);
        assert!(plain.cpu_recon_ns > 0.0);
    }

    #[test]
    fn decode_bound_never_exceeded() {
        let (vr, favos) = vr_trace();
        let cfg = SimConfig::default();
        for (trace, mode) in [
            (&favos, ExecMode::InOrder),
            (&vr, ExecMode::VrDannParallel(ParallelOptions::default())),
        ] {
            let r = simulate(trace, mode, &cfg);
            // Total time is at least the decoder stream time.
            let px = trace.width * trace.height;
            let stream_ns: f64 = trace
                .frames
                .iter()
                .map(|f| cfg.decode_ns(px, f.full_decode).ns)
                .sum();
            assert!(r.total_ns >= stream_ns - 1e-6);
            assert!(r.fps > 0.0);
        }
    }

    #[test]
    fn streamed_feed_matches_whole_trace_simulation() {
        let (vr, favos) = vr_trace();
        let cfg = SimConfig::default();
        for (trace, mode) in [
            (&favos, ExecMode::InOrder),
            (&vr, ExecMode::VrDannSerial),
            (&vr, ExecMode::VrDannParallel(ParallelOptions::default())),
        ] {
            let whole = simulate(trace, mode, &cfg);
            let streamed = simulate_stream(
                trace.frames.iter(),
                trace.scheme,
                trace.width,
                trace.height,
                trace.mb_size,
                mode,
                &cfg,
            );
            assert_eq!(whole.total_ns.to_bits(), streamed.total_ns.to_bits());
            assert_eq!(whole.switches, streamed.switches);
            assert_eq!(whole.traffic, streamed.traffic);
            assert_eq!(
                whole.energy.total_mj().to_bits(),
                streamed.energy.total_mj().to_bits()
            );
            assert_eq!(whole.max_b_q_occupancy, streamed.max_b_q_occupancy);
        }
    }

    #[test]
    fn more_tmp_b_buffers_never_hurt() {
        let (vr, _) = vr_trace();
        let cfg = SimConfig::default();
        let run = |n: usize| {
            simulate(
                &vr,
                ExecMode::VrDannParallel(ParallelOptions {
                    tmp_b_buffers: n,
                    ..ParallelOptions::default()
                }),
                &cfg,
            )
            .total_ns
        };
        let one = run(1);
        let three = run(3);
        let eight = run(8);
        assert!(three <= one);
        assert!(eight <= three + 1.0);
    }
}
