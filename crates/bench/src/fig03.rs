//! Fig. 3: (a) B-frame ratio per video; (b) reference frames per B-frame.

use crate::context::{parallel_map, Context};
use crate::table::{fmt_pct, Table};
use vrd_codec::Encoder;

/// One video's encoder statistics.
#[derive(Debug, Clone)]
pub(crate) struct Fig03Row {
    /// Sequence name.
    pub name: String,
    /// Fraction of B-frames (Fig. 3a).
    pub b_ratio: f64,
    /// Mean distinct reference frames per B-frame (Fig. 3b).
    pub mean_refs: f64,
    /// Maximum distinct reference frames any B-frame needed.
    pub max_refs: usize,
}

/// The complete figure data.
#[derive(Debug, Clone)]
pub(crate) struct Fig03 {
    /// Per-video rows.
    pub rows: Vec<Fig03Row>,
    /// Suite-mean B ratio (the paper reports ~65%).
    pub mean_b_ratio: f64,
    /// Histogram of reference-frame counts over all B-frames (index =
    /// number of distinct references).
    pub refs_histogram: Vec<usize>,
}

/// Runs the experiment.
pub(crate) fn run(ctx: &Context) -> Fig03 {
    let encoder = Encoder::new(ctx.model.config().codec);
    let stats = parallel_map(&ctx.davis, |seq| {
        let ev = encoder.encode(&seq.frames).expect("suite encodes");
        (seq.name.clone(), ev.stats)
    });
    let mut rows = Vec::new();
    let mut hist = vec![0usize; 10];
    for (name, s) in &stats {
        for &r in &s.refs_per_b {
            hist[r.min(9)] += 1;
        }
        rows.push(Fig03Row {
            name: name.clone(),
            b_ratio: s.b_ratio(),
            mean_refs: s.mean_refs_per_b(),
            max_refs: s.max_refs_per_b(),
        });
    }
    let mean_b_ratio = rows.iter().map(|r| r.b_ratio).sum::<f64>() / rows.len().max(1) as f64;
    Fig03 {
        rows,
        mean_b_ratio,
        refs_histogram: hist,
    }
}

impl Fig03 {
    /// Renders the paper-style rows.
    pub(crate) fn render(&self) -> String {
        let mut t = Table::new(vec!["video", "B ratio", "mean refs/B", "max refs/B"]);
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                fmt_pct(r.b_ratio),
                format!("{:.2}", r.mean_refs),
                r.max_refs.to_string(),
            ]);
        }
        t.row(vec![
            "MEAN".to_string(),
            fmt_pct(self.mean_b_ratio),
            String::new(),
            String::new(),
        ]);
        let mut out = String::from("Fig. 3(a): B-frame ratio per video (auto GOP)\n");
        out.push_str(&t.render());
        out.push_str("\nFig. 3(b): distinct reference frames per B-frame\n");
        let mut h = Table::new(vec!["refs", "B-frames"]);
        for (n, &count) in self.refs_histogram.iter().enumerate() {
            if count > 0 {
                h.row(vec![n.to_string(), count.to_string()]);
            }
        }
        out.push_str(&h.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_quick_produces_paper_shape() {
        let ctx = crate::context::quick();
        let fig = run(ctx);
        assert_eq!(fig.rows.len(), ctx.davis.len());
        assert!(fig.mean_b_ratio > 0.2 && fig.mean_b_ratio < 0.85);
        // Up to 7 references (never more, per the auto search interval).
        assert!(fig.rows.iter().all(|r| r.max_refs <= 7));
        let rendered = fig.render();
        assert!(rendered.contains("Fig. 3(a)"));
        assert!(rendered.contains("MEAN"));
    }
}
