//! Table II: the VR-DANN-parallel architecture configuration, including the
//! agent unit's hardware budget.

use crate::table::Table;
use vrd_sim::{AgentFootprint, SimConfig};

/// Renders the configuration summary.
pub(crate) fn render(cfg: &SimConfig) -> String {
    let fp = AgentFootprint::from_config(&cfg.agent);
    let mut t = Table::new(vec!["component", "value"]);
    t.row(vec![
        "NPU compute (INT8)".to_string(),
        format!("{:.0} TOPS", cfg.npu.peak_ops_per_s / 1e12),
    ]);
    t.row(vec![
        "NPU buffer".to_string(),
        format!("{} MB", cfg.npu.buffer_bytes >> 20),
    ]);
    t.row(vec!["NPU frequency".to_string(), "1 GHz".to_string()]);
    t.row(vec![
        "Agent unit frequency".to_string(),
        format!("{:.0} MHz", cfg.agent.freq_hz / 1e6),
    ]);
    t.row(vec![
        "Decoder frequency".to_string(),
        format!("{:.0} MHz", cfg.decoder.freq_hz / 1e6),
    ]);
    t.row(vec![
        "tmp_B".to_string(),
        format!(
            "{} x {} KB = {} KB",
            cfg.agent.tmp_b_buffers,
            cfg.agent.tmp_b_bytes >> 10,
            fp.tmp_b_bytes >> 10
        ),
    ]);
    t.row(vec![
        "mv_T".to_string(),
        format!("{} entries, {} B", cfg.agent.mv_t_entries, fp.mv_t_bytes),
    ]);
    t.row(vec![
        "ip_Q".to_string(),
        format!("{} entries, {} B", cfg.agent.ip_q_entries, fp.ip_q_bytes),
    ]);
    t.row(vec![
        "b_Q".to_string(),
        format!("{} entries, {} B", cfg.agent.b_q_entries, fp.b_q_bytes),
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
