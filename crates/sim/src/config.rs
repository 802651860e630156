//! Simulator configuration (the paper's Table II plus the cost constants
//! behind the energy and traffic models).
//!
//! Every constant is documented with its provenance. All can be overridden
//! for sensitivity studies; [`SimConfig::default`] reproduces the paper's
//! setup: Ascend-310-class NPU, 600 MHz agent unit, 300 MHz decoder, DDR3
//! global memory.

/// NPU behavioural timing model (Table II: Ascend 310).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuConfig {
    /// Peak INT8 throughput in ops/second (16 TOPS).
    pub peak_ops_per_s: f64,
    /// Achieved utilisation on convolutional workloads. 0.41 calibrates
    /// FAVOS to the paper's 13 fps at 854×480 (0.5 TOPS/frame).
    pub utilization: f64,
    /// On-chip buffer in bytes (8 MB) — the weight working set that must be
    /// refilled from DRAM on a model switch.
    pub buffer_bytes: usize,
    /// Fixed kernel-swap latency of a model switch, in nanoseconds.
    pub kernel_swap_ns: f64,
    /// NN-S throughput ratio of the *modelled* NPU, int8 over full
    /// precision. It is a property of the simulated device, not of this
    /// host's kernels (`vrd-bench -- kernels` measures those), and it is
    /// reached only through [`SimConfig::service_ns`], which applies it to
    /// the small model alone. ROADMAP item 4(a) settles the value against
    /// the measured ratio once item 1(a) has fixed the int8 kernels.
    pub int8_speedup: f64,
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self {
            peak_ops_per_s: 16e12,
            utilization: 0.41,
            buffer_bytes: 8 << 20,
            kernel_swap_ns: 100_000.0,
            int8_speedup: 4.0,
        }
    }
}

/// Video decoder timing model (300 MHz, §V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderConfig {
    /// Decoder clock in Hz.
    pub freq_hz: f64,
    /// Cycles per pixel for a fully reconstructed frame. 18.3 makes the
    /// decoder sustain ~40 fps at 854×480 — the rate the paper says
    /// VR-DANN-parallel matches.
    pub cycles_per_pixel_full: f64,
    /// Cycles per pixel for B-frame motion-vector extraction only (no pixel
    /// reconstruction, no residual decode).
    pub cycles_per_pixel_mv: f64,
    /// Energy per decoder cycle in picojoules.
    pub pj_per_cycle: f64,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            freq_hz: 300e6,
            cycles_per_pixel_full: 18.3,
            cycles_per_pixel_mv: 2.0,
            pj_per_cycle: 300.0,
        }
    }
}

/// The VR-DANN agent unit (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Agent clock in Hz (600 MHz).
    pub freq_hz: f64,
    /// Number of `tmp_B` reconstruction buffers (3 in the paper).
    pub tmp_b_buffers: usize,
    /// Capacity of one `tmp_B` buffer in bytes (≈100 KB for 854×480 at
    /// 2 bits/pixel).
    pub tmp_b_bytes: usize,
    /// `mv_T` capacity in entries (256).
    pub mv_t_entries: usize,
    /// Motion vectors the coalescing unit examines per cycle (32).
    pub coalesce_width: usize,
    /// `ip_Q` capacity (8 entries).
    pub ip_q_entries: usize,
    /// `b_Q` capacity (24 entries).
    pub b_q_entries: usize,
    /// Energy of one `tmp_B` access in nanojoules (CACTI, 45 nm: the paper
    /// quotes 0.53 nJ for the 300 KB 32-bank array).
    pub tmp_b_nj_per_access: f64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            freq_hz: 600e6,
            tmp_b_buffers: 3,
            tmp_b_bytes: 100 << 10,
            mv_t_entries: 256,
            coalesce_width: 32,
            ip_q_entries: 8,
            b_q_entries: 24,
            tmp_b_nj_per_access: 0.53,
        }
    }
}

/// DDR3-like global memory timing (the DRAMSim stand-in).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Burst granularity in bytes (64 B = BL8 × 64-bit bus).
    pub burst_bytes: usize,
    /// Data-bus time of one burst in nanoseconds (DDR3-1600: 64 B at
    /// 12.8 GB/s = 5 ns).
    pub burst_ns: f64,
    /// Column access latency (CL) in nanoseconds.
    pub cl_ns: f64,
    /// Row-to-column delay (tRCD) in nanoseconds.
    pub rcd_ns: f64,
    /// Row precharge (tRP) in nanoseconds.
    pub rp_ns: f64,
    /// Number of banks.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: usize,
    /// Energy per byte transferred, in picojoules (DDR3 ballpark).
    pub pj_per_byte: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            burst_bytes: 64,
            burst_ns: 5.0,
            cl_ns: 13.75,
            rcd_ns: 13.75,
            rp_ns: 13.75,
            banks: 8,
            row_bytes: 8 << 10,
            pj_per_byte: 60.0,
        }
    }
}

/// Per-event energy and software-fallback costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConfig {
    /// NPU energy per operation in picojoules (Ascend-310 class: 16 TOPS at
    /// ~8 W ≈ 0.5 pJ/op).
    pub npu_pj_per_op: f64,
    /// CPU time per motion-vector record for the *software* reconstruction
    /// of VR-DANN-serial, in nanoseconds. Covers the scattered DRAM read,
    /// the bit manipulation and the write — the paper's "CPU is generally
    /// very inefficient for the large scale random memory accessing".
    pub cpu_ns_per_mv: f64,
    /// NN-L weight traffic per inference, in bytes per pixel of the frame
    /// (≈16 MB per 854×480 inference: the tiled weight working set streamed
    /// from DRAM).
    pub nnl_weight_bytes_per_pixel: f64,
    /// NN-L intermediate-activation spill traffic, in bytes per pixel
    /// (feature maps that do not fit the 8 MB buffer).
    pub nnl_activation_bytes_per_pixel: f64,
    /// NN-S weight bytes per inference (the whole network: ~1 K params).
    pub nns_weight_bytes: usize,
    /// Bytes of one motion-vector record in DRAM (mv_T entry: ~8 B packed).
    pub mv_record_bytes: usize,
    /// CPU energy per motion-vector record of the software reconstruction
    /// (VR-DANN-serial only), in nanojoules.
    pub cpu_nj_per_mv: f64,
    /// SoC static/idle power in milliwatts, charged over the whole
    /// execution window (slower schedules pay more idle energy — this is
    /// what separates VR-DANN-serial from -parallel in Fig. 13's energy).
    pub soc_static_mw: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        Self {
            npu_pj_per_op: 0.5,
            cpu_ns_per_mv: 2_500.0,
            nnl_weight_bytes_per_pixel: 39.0,
            nnl_activation_bytes_per_pixel: 60.0,
            nns_weight_bytes: 1_024,
            mv_record_bytes: 8,
            cpu_nj_per_mv: 3.0,
            soc_static_mw: 500.0,
        }
    }
}

/// Per-shard costs of a fleet of virtual NPUs. One shard is one virtual
/// device (NPU + agent unit + decoder lanes); the fleet layer provisions
/// and drains shards at runtime, and each shard is billed for its spin-up
/// and its static power over the window it is alive — so autoscaling is
/// never free on either the latency or the energy axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Time to bring a new shard online: power/clock ramp, kernel images,
    /// and the first NN-L weight working set streamed from DRAM. Defaults
    /// to roughly twice one NN-L buffer refill (~1.3 ms) — provisioning a
    /// virtual device costs more than switching models on a live one.
    pub spinup_ns: f64,
    /// Static power of one live shard in milliwatts, charged over its
    /// whole active window (the per-shard share of
    /// [`CostConfig::soc_static_mw`]-style idle draw).
    pub static_mw: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            spinup_ns: 1_400_000.0,
            static_mw: 500.0,
        }
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// NPU model.
    pub npu: NpuConfig,
    /// Decoder model.
    pub decoder: DecoderConfig,
    /// Agent-unit model.
    pub agent: AgentConfig,
    /// Global memory model.
    pub dram: DramConfig,
    /// Energy/cost constants.
    pub cost: CostConfig,
    /// Per-shard fleet costs.
    pub shard: ShardConfig,
}

impl SimConfig {
    /// DRAM peak bandwidth in bytes/ns.
    pub(crate) fn dram_bytes_per_ns(&self) -> f64 {
        self.dram.burst_bytes as f64 / self.dram.burst_ns
    }

    /// Time to bring one fleet shard online.
    pub fn shard_spinup_ns(&self) -> f64 {
        self.shard.spinup_ns
    }

    /// Energy one shard burnt, in joules: its compute (busy time at the
    /// NPU's service rate times per-op energy) plus its static draw over
    /// the window it was alive. `busy_ns` is NPU compute time, `active_ns`
    /// the shard's whole provisioned window (spin-up included).
    pub fn shard_energy_j(&self, busy_ns: f64, active_ns: f64) -> f64 {
        let ops = busy_ns * self.npu_ops_per_ns();
        let compute_j = ops * self.cost.npu_pj_per_op * 1e-12;
        let static_j = self.shard.static_mw * 1e-3 * active_ns * 1e-9;
        compute_j + static_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_costs_are_billed() {
        let cfg = SimConfig::default();
        // Provisioning a virtual device costs more than a model switch on
        // a live one — otherwise autoscaling would be a free lunch.
        assert!(cfg.shard_spinup_ns() > cfg.switch_ns(None, crate::Model::Large));
        // 1 ms busy inside a 10 ms window: compute energy plus static draw.
        let e = cfg.shard_energy_j(1e6, 1e7);
        let compute = 1e6 * cfg.npu_ops_per_ns() * cfg.cost.npu_pj_per_op * 1e-12;
        let static_j = 0.5 * 1e7 * 1e-9;
        assert!((e - (compute + static_j)).abs() < 1e-12, "energy {e}");
        // An idle shard still burns static power.
        assert!(cfg.shard_energy_j(0.0, 1e7) > 0.0);
        assert_eq!(cfg.shard_energy_j(0.0, 0.0), 0.0);
    }

    #[test]
    fn dram_bandwidth_matches_ddr3_1600() {
        let cfg = SimConfig::default();
        let gbps = cfg.dram_bytes_per_ns();
        assert!((12.0..13.5).contains(&gbps), "bandwidth {gbps:.1} GB/s");
    }
}
