//! Event-driven DDR3-like memory model (the DRAMSim stand-in).
//!
//! Requests are split into 64-byte bursts and serviced in order against
//! per-bank state: an open-row hit pays CL + burst, a miss on an idle bank
//! pays tRCD + CL + burst, and a conflict with another open row adds tRP.
//! This is exactly the level of detail the motion-vector coalescing study
//! needs — sequential (coalesced) bursts ride the open row while scattered
//! block fetches thrash it.

/// Burst granularity in bytes (64 B = BL8 × 64-bit bus).
pub(crate) const BURST_BYTES: usize = 64;
/// Column access latency (CL) in nanoseconds.
const CL_NS: f64 = 13.75;
/// Row-to-column delay (tRCD) in nanoseconds.
const RCD_NS: f64 = 13.75;
/// Row precharge (tRP) in nanoseconds.
const RP_NS: f64 = 13.75;
/// Number of banks.
const BANKS: usize = 8;
/// Row-buffer size in bytes.
const ROW_BYTES: usize = 8 << 10;
/// Energy per byte transferred, in picojoules (DDR3 ballpark).
pub(crate) const PJ_PER_BYTE: f64 = 60.0;

/// Cumulative access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts that opened a row on an idle bank.
    pub row_misses: u64,
    /// Bursts that had to close another row first.
    pub row_conflicts: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

/// The memory model.
#[derive(Debug, Clone)]
pub(crate) struct Dram {
    /// Data-bus time of one burst (the one settable DRAM timing).
    burst_ns: f64,
    /// Open row per bank (`None` = precharged).
    open_rows: [Option<u64>; BANKS],
    /// Time each bank becomes free, in nanoseconds.
    bank_free_ns: [f64; BANKS],
    /// Time the shared data bus becomes free.
    bus_free_ns: f64,
    stats: DramStats,
}

impl Dram {
    /// Creates a memory model whose bursts each hold the data bus for
    /// `burst_ns`.
    pub(crate) fn new(burst_ns: f64) -> Self {
        Self {
            burst_ns,
            open_rows: [None; BANKS],
            bank_free_ns: [0.0; BANKS],
            bus_free_ns: 0.0,
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let row = addr / ROW_BYTES as u64;
        ((row % BANKS as u64) as usize, row)
    }

    /// Issues a request of `bytes` starting at `addr`, arriving at
    /// `arrival_ns`. Returns the completion time in nanoseconds.
    ///
    /// Bursts of one request pipeline on the data bus: the column-access
    /// latency (CL) is paid once as completion latency, not per burst, so
    /// sequential streams approach the peak bus bandwidth like real DDR.
    pub(crate) fn request(&mut self, addr: u64, bytes: usize, arrival_ns: f64) -> f64 {
        let mut data_end = arrival_ns;
        let mut cursor = addr;
        let mut remaining = bytes.max(1);
        while remaining > 0 {
            let chunk = BURST_BYTES.min(remaining);
            data_end = self.burst(cursor, arrival_ns);
            cursor += BURST_BYTES as u64;
            remaining -= chunk;
        }
        data_end + CL_NS
    }

    fn burst(&mut self, addr: u64, ready_ns: f64) -> f64 {
        let (bank, row) = self.bank_and_row(addr);
        let start = ready_ns.max(self.bank_free_ns[bank]);
        // Row activation cost (precharge + activate); hits pay nothing
        // beyond the pipelined CAS accounted at request completion.
        let activate_ns = match self.open_rows[bank] {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                0.0
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                RP_NS + RCD_NS
            }
            None => {
                self.stats.row_misses += 1;
                RCD_NS
            }
        };
        self.open_rows[bank] = Some(row);
        // Data transfer occupies the shared bus once the bank is ready.
        let data_start = (start + activate_ns).max(self.bus_free_ns);
        let data_end = data_start + self.burst_ns;
        self.bank_free_ns[bank] = data_end;
        self.bus_free_ns = data_end;
        self.stats.bytes += BURST_BYTES as u64;
        data_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn dram() -> Dram {
        Dram::new(DramConfig::default().burst_ns)
    }

    #[test]
    fn sequential_access_hits_the_row_buffer() {
        let mut d = dram();
        let mut t = 0.0;
        for i in 0..64u64 {
            t = d.request(i * 64, 64, t);
        }
        let s = *d.stats();
        // Hit rate above 90 %.
        assert!(s.row_hits > 9 * (s.row_misses + s.row_conflicts), "{s:?}");
        assert_eq!(s.bytes, 64 * 64);
    }

    #[test]
    fn scattered_access_conflicts() {
        let mut d = dram();
        let mut t = 0.0;
        // Stride of several rows within the same bank group.
        for i in 0..64u64 {
            t = d.request(i * 8 * 8192, 64, t);
        }
        // Hit rate below 10 %.
        let s = d.stats();
        assert!(9 * s.row_hits < s.row_misses + s.row_conflicts, "{s:?}");
    }

    #[test]
    fn coalesced_is_faster_than_scattered() {
        let mut seq = dram();
        let mut t_seq = 0.0;
        for i in 0..256u64 {
            t_seq = seq.request(i * 64, 64, t_seq);
        }
        let mut rnd = dram();
        let mut t_rnd = 0.0;
        for i in 0..256u64 {
            // Pseudo-random row-hostile pattern.
            let addr = (i * 7919) % 4096 * 8192 * 8;
            t_rnd = rnd.request(addr, 64, t_rnd);
        }
        assert!(
            t_rnd > 1.5 * t_seq,
            "scattered {t_rnd:.0} ns should be much slower than sequential {t_seq:.0} ns"
        );
    }

    #[test]
    fn large_request_splits_into_bursts() {
        let mut d = dram();
        let finish = d.request(0, 1024, 0.0);
        assert_eq!(d.stats().bytes, 1024);
        // 16 bursts at 5 ns of bus time each, plus one activation.
        assert!(finish >= 16.0 * 5.0);
    }

    #[test]
    fn sustained_sequential_bandwidth_approaches_peak() {
        let mut d = dram();
        let total: usize = 1 << 20;
        let finish = d.request(0, total, 0.0);
        let gbps = total as f64 / finish;
        assert!(gbps > 10.0, "sustained bandwidth {gbps:.1} GB/s");
    }
}
