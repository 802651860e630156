//! Table II: the VR-DANN-parallel architecture configuration, including the
//! agent unit's hardware budget.

use crate::table::Table;
use vrd_sim::{
    AgentFootprint, SimConfig, AGENT_FREQ_HZ, B_Q_ENTRIES, IP_Q_ENTRIES, MV_T_ENTRIES,
    NPU_BUFFER_BYTES, TMP_B_BUFFERS, TMP_B_BYTES,
};

/// Renders the configuration summary.
pub(crate) fn render(cfg: &SimConfig) -> String {
    let fp = AgentFootprint::table_ii();
    let mut t = Table::new(vec!["component", "value"]);
    t.row(vec![
        "NPU compute (INT8)".to_string(),
        format!("{:.0} TOPS", cfg.npu.peak_ops_per_s / 1e12),
    ]);
    t.row(vec![
        "NPU buffer".to_string(),
        format!("{} MB", NPU_BUFFER_BYTES >> 20),
    ]);
    t.row(vec!["NPU frequency".to_string(), "1 GHz".to_string()]);
    t.row(vec![
        "Agent unit frequency".to_string(),
        format!("{:.0} MHz", AGENT_FREQ_HZ / 1e6),
    ]);
    t.row(vec![
        "Decoder frequency".to_string(),
        format!("{:.0} MHz", cfg.decoder.freq_hz / 1e6),
    ]);
    t.row(vec![
        "tmp_B".to_string(),
        format!(
            "{} x {} KB = {} KB",
            TMP_B_BUFFERS,
            TMP_B_BYTES >> 10,
            fp.tmp_b_bytes >> 10
        ),
    ]);
    t.row(vec![
        "mv_T".to_string(),
        format!("{} entries, {} B", MV_T_ENTRIES, fp.mv_t_bytes),
    ]);
    t.row(vec![
        "ip_Q".to_string(),
        format!("{} entries, {} B", IP_Q_ENTRIES, fp.ip_q_bytes),
    ]);
    t.row(vec![
        "b_Q".to_string(),
        format!("{} entries, {} B", B_Q_ENTRIES, fp.b_q_bytes),
    ]);
    t.row(vec![
        "agent control SRAM total".to_string(),
        format!("{} B (< 2 KB)", fp.control_bytes()),
    ]);
    format!(
        "Table II: VR-DANN-parallel architecture configuration\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_lists_paper_numbers() {
        let s = render(&SimConfig::default());
        assert!(s.contains("16 TOPS"));
        assert!(s.contains("8 MB"));
        assert!(s.contains("600 MHz"));
        assert!(s.contains("300 KB"));
        assert!(s.contains("< 2 KB"));
    }
}
