//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and a Chrome trace-event file written at exit.
//!
//! A disabled [`Tracer`] records nothing: [`Tracer::open`] returns
//! `None` and [`Tracer::close`] ignores it, so the untraced runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call: nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The request (or replayed input) the call served.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off from here on (spans already open still
    /// close normally).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span; `None` when recording is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals` (half-open, `start..end`).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (children that overlap one another
/// count once; a grandchild is already inside its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(start, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - union_len(kids).min(s.duration_ns()))
        .collect()
}

/// For every span named `parent_name`, the self times (ms) of its direct
/// children summed per child name: one `(parent, sums)` pair per parent,
/// in span order.
pub fn child_ms_per_parent(
    spans: &[Span],
    parent_name: &str,
) -> Vec<(SpanId, BTreeMap<&'static str, f64>)> {
    let mut index: BTreeMap<SpanId, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == parent_name {
            index.insert(id, out.len());
            out.push((id, BTreeMap::new()));
        }
    }
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        if let Some(&slot) = s.parent.and_then(|p| index.get(&p)) {
            *out[slot].1.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    out
}

/// Writes `spans` as a Chrome trace-event JSON file (one complete event
/// per span, microsecond timestamps), loadable in `chrome://tracing` or
/// Perfetto.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{{\"traceEvents\": [")?;
    for (id, s) in spans.iter().enumerate() {
        let sep = if id + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            w,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \"request\": {}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn adjacent_children_are_both_subtracted() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![55, 20, 25]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn child_sums_group_by_parent() {
        let spans = [
            span("replay", 0, 100, None),
            span("conv", 0, 30, Some(0)),
            span("conv", 30, 50, Some(0)),
            span("gelu", 50, 60, Some(0)),
            span("replay", 100, 150, None),
            span("conv", 100, 140, Some(4)),
        ];
        let per = child_ms_per_parent(&spans, "replay");
        assert_eq!(per.len(), 2);
        assert_eq!((per[0].0, per[1].0), (0, 4));
        assert!((per[0].1["conv"] - 50e-6).abs() < 1e-12);
        assert!((per[0].1["gelu"] - 10e-6).abs() < 1e-12);
        assert!((per[1].1["conv"] - 40e-6).abs() < 1e-12);
        assert!(!per[1].1.contains_key("gelu"));
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 1);
        t.close(id);
        assert_eq!(t.time("y", None, 2, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.open("outer", None, 3);
        t.time("inner", outer, 3, || ());
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
