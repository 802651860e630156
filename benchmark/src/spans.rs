//! In-memory spans recorded by the harness around each call into a layer.
//!
//! The program itself is not instrumented; every span here wraps one public
//! call made by the harness. Spans stay in memory and are written out only
//! when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One timed call. `seq`/`display` identify the frame it served, so all
/// spans of one frame share an identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub seq: u32,
    pub display: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one. A *replayed* child (a kernel
    /// re-run after the engine finished, see `measure::replay`) names the
    /// engine step it reproduces although it ran later.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index. Used directly where
    /// the span's name is only known from the call's result (a decoded
    /// unit's frame type).
    pub fn push(
        &mut self,
        name: &'static str,
        (seq, display): (u32, u32),
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            seq,
            display,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: (u32, u32),
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (self.push(name, id, (start, end), parent), out)
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.ns() as f64 / 1e6).collect()
    }

    /// Total time of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|(_, s)| s.ns()).sum::<u64>() as f64 / 1e9
    }

    /// Total time of spans without a parent, in seconds.
    pub fn top_level_s(&self) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time of every span called `name`, in milliseconds: its duration
    /// minus the durations of its children. The harness is single-threaded,
    /// so children never overlap and their summed durations are exactly the
    /// part of the interval they cover; for replayed children the sum is the
    /// time the same kernels took when run again. Signed: a replayed kernel
    /// that ran slower than inside the engine gives a negative value, and
    /// clamping would bias the median upward.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.named(name)
            .map(|(i, s)| (s.ns() as f64 - child_ns[i] as f64) / 1e6)
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": \"{}/{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.seq, s.display, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let mut rec = Recorder::new();
        // A 10 ms step with a nested 4 ms child, which itself has a 1 ms child.
        let step = rec.push("step", (0, 7), (0, 10_000_000), None);
        let kernel = rec.push("kernel", (0, 7), (2_000_000, 6_000_000), Some(step));
        rec.push("inner", (0, 7), (3_000_000, 4_000_000), Some(kernel));
        // A replayed child: ran long after the step, still charged to it.
        rec.push("replayed", (0, 7), (50_000_000, 53_000_000), Some(step));
        // A second step with no children keeps its whole duration.
        rec.push("step", (0, 8), (10_000_000, 12_000_000), None);

        assert_eq!(rec.self_ms("step"), vec![3.0, 2.0]);
        assert_eq!(rec.self_ms("kernel"), vec![3.0]);
        assert_eq!(rec.self_ms("inner"), vec![1.0]);
        assert_eq!(rec.durations_ms("step"), vec![10.0, 2.0]);
        assert_eq!(rec.total_s("step"), 0.012);
        // Only the two steps are top level.
        assert_eq!(rec.top_level_s(), 0.012);
    }

    #[test]
    fn self_time_is_signed_when_a_replay_runs_slower() {
        let mut rec = Recorder::new();
        let step = rec.push("step", (0, 0), (0, 1_000_000), None);
        rec.push("replayed", (0, 0), (5_000_000, 7_000_000), Some(step));
        assert_eq!(rec.self_ms("step"), vec![-1.0]);
    }

    #[test]
    fn time_records_the_call_and_returns_its_value() {
        let mut rec = Recorder::new();
        let (idx, v) = rec.time("call", (1, 2), None, || 41 + 1);
        assert_eq!(v, 42);
        let s = &rec.spans[idx];
        assert_eq!((s.name, s.seq, s.display, s.parent), ("call", 1, 2, None));
        assert!(s.end_ns >= s.start_ns);
    }
}
