//! The VR-DANN agent unit: motion-vector rescheduling, coalescing and
//! parallel reconstruction (§IV-C, Fig. 8).
//!
//! The unit streams a B-frame's `mv_T` entries, groups them by
//! `(reference frame, source row band)`, and issues one sequential DRAM
//! fetch per group — so all blocks whose sources share a band ride the same
//! bursts and the same open DRAM row. Returned data is demultiplexed into
//! the `tmp_B` buffers out of order. With coalescing disabled (the ablation)
//! every motion vector fetches its 8×8 reference block independently with
//! row-hostile addresses.

use crate::dram::Dram;
use std::collections::BTreeSet;
use vrd_codec::MvRecord;

/// Agent-unit clock in Hz (600 MHz, Table II).
pub const AGENT_FREQ_HZ: f64 = 600e6;
/// Number of `tmp_B` reconstruction buffers (3 in the paper); the
/// `tmp_B` ablation overrides it through `ParallelOptions`.
pub const TMP_B_BUFFERS: usize = 3;
/// Capacity of one `tmp_B` buffer in bytes (≈100 KB for 854×480 at
/// 2 bits/pixel).
pub const TMP_B_BYTES: usize = 100 << 10;
/// `mv_T` capacity in entries (256).
pub const MV_T_ENTRIES: usize = 256;
/// Motion vectors the coalescing unit examines per cycle (32).
const COALESCE_WIDTH: usize = 32;
/// `ip_Q` capacity (8 entries).
pub const IP_Q_ENTRIES: usize = 8;
/// `b_Q` capacity (24 entries).
pub const B_Q_ENTRIES: usize = 24;
/// Energy of one `tmp_B` access in nanojoules (CACTI, 45 nm: the paper
/// quotes 0.53 nJ for the 300 KB 32-bank array).
pub(crate) const TMP_B_NJ_PER_ACCESS: f64 = 0.53;

/// Outcome of reconstructing one B-frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ReconOutcome {
    /// Completion time (ns, absolute simulation time).
    pub finish_ns: f64,
    /// Segmentation bytes fetched from DRAM.
    pub seg_bytes: u64,
    /// `tmp_B` accesses performed (writes during reconstruction plus the
    /// drain readout).
    pub tmp_b_accesses: u64,
    /// Agent-side processing time (ns, excludes DRAM).
    pub agent_ns: f64,
}

/// Synthetic DRAM base address of an anchor's segmentation plane.
///
/// Planes are 1 bit/pixel; each frame gets its own region so different
/// references never share rows.
fn seg_base(frame: u32, width: usize, height: usize) -> u64 {
    // Region size rounded up to a row multiple.
    let plane = ((width * height / 8) as u64 + 8191) & !8191;
    0x4000_0000 + frame as u64 * plane
}

/// Models the reconstruction of one B-frame by the agent unit.
///
/// `mv_t_entries` is the `mv_T` window the coalescer sees at once
/// ([`MV_T_ENTRIES`] on the modelled unit). `start_ns` is when the motion
/// vectors and reference segmentations are available; the returned outcome
/// gives the completion time against the shared `dram` model.
#[allow(clippy::too_many_arguments)] // the agent's full operand set: mvs, geometry, policy, window, models, time
pub(crate) fn reconstruct(
    mvs: &[MvRecord],
    width: usize,
    height: usize,
    mb_size: usize,
    coalesce: bool,
    mv_t_entries: usize,
    dram: &mut Dram,
    start_ns: f64,
) -> ReconOutcome {
    let row_bytes = (width / 8).max(1) as u64;
    let band_bytes = row_bytes * mb_size as u64;
    let cycle_ns = 1e9 / AGENT_FREQ_HZ;

    // Every reference a block needs (bi-ref entries contribute two).
    let refs: Vec<(u32, i32)> = mvs
        .iter()
        .flat_map(|mv| {
            let mut v = vec![(mv.ref0.frame, mv.ref0.src_y)];
            if let Some(r1) = mv.ref1 {
                v.push((r1.frame, r1.src_y));
            }
            v
        })
        .collect();

    let mut finish = start_ns;
    let mut seg_bytes = 0u64;
    let agent_ns;
    if coalesce {
        // The coalescer sees at most `mv_t_entries` records at a time: a
        // frame with more motion vectors is processed in windows, and a band
        // needed by two windows is fetched twice (the cost of the finite
        // table — invisible at small resolutions, measurable at HD).
        let mut total_scans = 0.0f64;
        for window in refs.chunks(mv_t_entries.max(1)) {
            // Group by (frame, band); unaligned sources span two bands.
            let mut bands: BTreeSet<(u32, u32)> = BTreeSet::new();
            for &(frame, src_y) in window {
                let first = src_y.max(0) as u32 / mb_size as u32;
                bands.insert((frame, first));
                if !(src_y.max(0) as usize).is_multiple_of(mb_size) {
                    bands.insert((frame, first + 1));
                }
            }
            for &(frame, band) in &bands {
                let addr = seg_base(frame, width, height) + band as u64 * band_bytes;
                finish = dram.request(addr, band_bytes as usize, finish);
                seg_bytes += band_bytes;
            }
            // Coalescer scans the mv_T window (32 entries/cycle) once per
            // band.
            total_scans +=
                bands.len() as f64 * (window.len() as f64 / COALESCE_WIDTH as f64).ceil();
        }
        // Plus two dispatch cycles per reference block.
        agent_ns = (total_scans + 2.0 * refs.len() as f64) * cycle_ns;
    } else {
        // One scattered fetch per reference block: `mb_size` rows of a few
        // bytes each, every row its own burst at a row-hostile address.
        for &(frame, src_y) in &refs {
            let base = seg_base(frame, width, height);
            for r in 0..mb_size {
                let addr = base + (src_y.max(0) as u64 + r as u64) * row_bytes;
                finish = dram.request(addr, mb_size / 8 + 1, finish);
                seg_bytes += 64; // a full burst is transferred regardless
            }
        }
        agent_ns = 2.0 * refs.len() as f64 * cycle_ns;
    }

    // Demux writes into tmp_B, then the drain readout to DRAM.
    let tmp_b_accesses = 2 * refs.len() as u64 + mvs.len() as u64;
    let writeback_bytes = (width * height) / 4; // 2 bits/pixel
    finish = dram.request(
        0x8000_0000,
        writeback_bytes,
        finish.max(start_ns + agent_ns),
    );

    ReconOutcome {
        finish_ns: finish,
        seg_bytes: seg_bytes + writeback_bytes as u64,
        tmp_b_accesses,
        agent_ns,
    }
}

/// Hardware budget of the agent unit (Table II's cost summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentFootprint {
    /// Total `tmp_B` SRAM in bytes.
    pub tmp_b_bytes: usize,
    /// `mv_T` bytes (256 entries × 57 bits, rounded to bytes).
    pub mv_t_bytes: usize,
    /// `ip_Q` bytes (8 entries × 42 bits).
    pub ip_q_bytes: usize,
    /// `b_Q` bytes (24 entries × 42 bits).
    pub b_q_bytes: usize,
}

impl AgentFootprint {
    /// The modelled unit's footprint: Table II's buffer and queue sizes.
    pub fn table_ii() -> Self {
        // mv_T entry: 1 bi-ref bit + 4+4 index bits + 4 × 12 address bits.
        let mv_entry_bits = 1 + 4 + 4 + 4 * 12;
        // Queue entries: 8-bit id + status + 32-bit address (§IV-D).
        let ip_entry_bits = 8 + 1 + 1 + 32;
        let b_entry_bits = 8 + 2 + 32;
        Self {
            tmp_b_bytes: TMP_B_BUFFERS * TMP_B_BYTES,
            mv_t_bytes: (MV_T_ENTRIES * mv_entry_bits).div_ceil(8),
            ip_q_bytes: (IP_Q_ENTRIES * ip_entry_bits).div_ceil(8),
            b_q_bytes: (B_Q_ENTRIES * b_entry_bits).div_ceil(8),
        }
    }

    /// Total SRAM excluding `tmp_B` (the "less than 2 KB" of §IV-D).
    pub fn control_bytes(&self) -> usize {
        self.mv_t_bytes + self.ip_q_bytes + self.b_q_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use vrd_codec::RefMv;

    fn mv(dst: (u32, u32), frame: u32, src: (i32, i32), bi: bool) -> MvRecord {
        MvRecord {
            dst_x: dst.0,
            dst_y: dst.1,
            ref0: RefMv {
                frame,
                src_x: src.0,
                src_y: src.1,
            },
            ref1: bi.then_some(RefMv {
                frame: frame + 1,
                src_x: src.0,
                src_y: src.1,
            }),
        }
    }

    fn run(mvs: &[MvRecord], coalesce: bool) -> ReconOutcome {
        let mut dram = Dram::new(DramConfig::default().burst_ns);
        reconstruct(mvs, 160, 96, 8, coalesce, MV_T_ENTRIES, &mut dram, 0.0)
    }

    /// A full B-frame worth of motion vectors pointing at two anchors.
    fn full_frame_mvs() -> Vec<MvRecord> {
        let mut out = Vec::new();
        for by in (0..96).step_by(8) {
            for bx in (0..160).step_by(8) {
                out.push(mv(
                    (bx, by),
                    if bx % 16 == 0 { 0 } else { 4 },
                    (bx as i32 - 3, by as i32 + 2),
                    bx % 32 == 0,
                ));
            }
        }
        out
    }

    #[test]
    fn coalescing_cuts_time_and_traffic() {
        let mvs = full_frame_mvs();
        let fast = run(&mvs, true);
        let slow = run(&mvs, false);
        assert!(
            fast.finish_ns < slow.finish_ns / 2.0,
            "coalesced {} ns vs scattered {} ns",
            fast.finish_ns,
            slow.finish_ns
        );
        assert!(fast.seg_bytes < slow.seg_bytes);
    }

    #[test]
    fn reconstruction_is_fast_enough_to_hide() {
        // At 160x96 an NN-L inference takes ~2.8 ms on the modelled NPU;
        // a coalesced reconstruction must be far below that.
        let outcome = run(&full_frame_mvs(), true);
        assert!(
            outcome.finish_ns < 100_000.0,
            "reconstruction too slow to hide: {} ns",
            outcome.finish_ns
        );
    }

    #[test]
    fn small_mv_table_refetches_bands_across_windows() {
        // 480 motion vectors all sharing a handful of bands: a 256-entry
        // table needs two windows, re-fetching shared bands; a table large
        // enough for one window does not.
        let mvs: Vec<MvRecord> = (0..480)
            .map(|i| {
                mv(
                    ((i % 20) * 8, (i / 20) * 8 % 96),
                    0,
                    (64, (i % 6) as i32 * 8),
                    false,
                )
            })
            .collect();
        let run_with = |entries: usize| {
            let mut dram = Dram::new(DramConfig::default().burst_ns);
            reconstruct(&mvs, 160, 96, 8, true, entries, &mut dram, 0.0)
        };
        let small = run_with(256);
        let large = run_with(1024);
        assert!(
            small.seg_bytes > large.seg_bytes,
            "windowing should refetch bands: {} vs {}",
            small.seg_bytes,
            large.seg_bytes
        );
        assert!(small.finish_ns >= large.finish_ns);
    }

    #[test]
    fn bi_ref_blocks_add_accesses() {
        let uni = run(&[mv((0, 0), 0, (0, 0), false)], true);
        let bi = run(&[mv((0, 0), 0, (0, 0), true)], true);
        assert!(bi.tmp_b_accesses > uni.tmp_b_accesses);
        assert!(bi.seg_bytes >= uni.seg_bytes);
    }

    #[test]
    fn footprint_matches_table_ii() {
        let fp = AgentFootprint::table_ii();
        assert_eq!(fp.tmp_b_bytes, 3 * (100 << 10));
        // Table II: queues and table below 2 KB total.
        assert!(fp.control_bytes() < 2048, "{} B", fp.control_bytes());
        // b_Q is 126 B and ip_Q 42 B in the paper.
        assert_eq!(fp.b_q_bytes, 126);
        assert_eq!(fp.ip_q_bytes, 42);
    }
}
