//! In-memory span recorder and the self-time arithmetic of the traced run.
//!
//! A span is one timed call into a layer: its name, start and end on the
//! recorder's clock, the span that was open when it began (its parent) and
//! the run it belongs to (one run per timed operation or set-up). Spans stay
//! in memory while the benchmark measures and are written out when it ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `kernel.hbc`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The run (timed operation or set-up) the span belongs to.
    pub run: u32,
}

/// Handle returned by [`Recorder::enter`]; pass it back to [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Records spans while enabled; a disabled recorder reads no clock and
/// stores nothing, so untraced measurements pay one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Recorder {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Turns recording on or off (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    /// Starts a new run and returns its id; later spans belong to it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` (spans close innermost first).
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let end = self.now();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans must nest");
            self.stack.pop();
            self.spans[idx].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.run, s.name, s.start, s.end, parent
            )?;
        }
        out.flush()
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval covered by its children (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Self time in ms per `(run, name)`, summed over the spans of one name in
/// one run, for the runs in `runs`.
pub fn self_ms_by_run(
    spans: &[Span],
    runs: &BTreeSet<u32>,
) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&selfs) {
        if runs.contains(&s.run) {
            *out.entry(s.name).or_default().entry(s.run).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    out
}

/// Per-layer medians of per-run self time (ms) and the residual of a real
/// operation's median wall time that those layers leave unexplained.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Median per-run self time of each layer, ms.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// `real_ms − Σ layer_ms`: the time no named layer accounts for.
    pub residual_ms: f64,
    /// `Σ layer_ms / real_ms`: the share of the wall time the layers explain.
    pub explained_frac: f64,
}

/// Attributes `real_ms` (the untraced operation's median wall time) to the
/// layers whose per-run self times are in `by_run`. A run in which a layer
/// recorded no span counts as 0 ms for that layer; `root` (the span that
/// only groups an operation's layers) is not a layer.
pub fn attribute(
    by_run: &BTreeMap<&'static str, BTreeMap<u32, f64>>,
    runs: &[u32],
    root: &str,
    real_ms: f64,
) -> Attribution {
    let mut layer_ms = BTreeMap::new();
    for (&name, per_run) in by_run {
        if name == root {
            continue;
        }
        let values: Vec<f64> = runs
            .iter()
            .map(|r| per_run.get(r).copied().unwrap_or(0.0))
            .collect();
        layer_ms.insert(name, crate::stats::median(&values));
    }
    let explained: f64 = layer_ms.values().sum();
    Attribution {
        layer_ms,
        residual_ms: real_ms - explained,
        explained_frac: if real_ms > 0.0 {
            explained / real_ms
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, run: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // root [0, 100) with children [10, 30) and [40, 90); the second
        // child has a grandchild [50, 60).
        let spans = [
            span("root", 0, 100, None, 1),
            span("a", 10, 30, Some(0), 1),
            span("b", 40, 90, Some(0), 1),
            span("c", 50, 60, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child that overhangs its parent (clock skew) covers only the
        // overlap, and self time never goes negative.
        let spans = [span("root", 10, 20, None, 1), span("a", 5, 25, Some(0), 1)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn per_run_totals_and_residual() {
        let ms = 1_000_000;
        let spans = [
            span("op", 0, 10 * ms, None, 1),
            span("k", 0, 2 * ms, Some(0), 1),
            span("k", 3 * ms, 5 * ms, Some(0), 1),
            span("c", 5 * ms, 6 * ms, Some(0), 1),
            span("op", 20 * ms, 30 * ms, None, 2),
            span("k", 20 * ms, 26 * ms, Some(4), 2),
            // Run 3 falls outside the selected range.
            span("k", 40 * ms, 90 * ms, None, 3),
        ];
        let by_run = self_ms_by_run(&spans, &BTreeSet::from([1, 2]));
        assert_eq!(by_run["k"][&1], 4.0, "two spans of one name add up");
        assert_eq!(by_run["k"][&2], 6.0);
        assert!(!by_run["k"].contains_key(&3));
        let att = attribute(&by_run, &[1, 2], "op", 12.0);
        // k: median(4, 6) = 5; c: median(1, 0) = 0.5 (absent in run 2).
        assert_eq!(att.layer_ms["k"], 5.0);
        assert_eq!(att.layer_ms["c"], 0.5);
        assert!(!att.layer_ms.contains_key("op"));
        assert!((att.residual_ms - 6.5).abs() < 1e-12);
        assert!((att.explained_frac - 5.5 / 12.0).abs() < 1e-12);
        // Layers plus residual account for the wall time exactly.
        let total: f64 = att.layer_ms.values().sum::<f64>() + att.residual_ms;
        assert!((total - 12.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.next_run();
        let x = rec.time("a", || 7);
        assert_eq!(x, 7);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let open = rec.enter("b");
        let inner = rec.enter("c");
        rec.exit(inner);
        rec.exit(open);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end >= rec.spans()[1].end);
    }
}
