//! In-memory spans for the traced pass, and self-time attribution.
//!
//! A span covers one call the benchmark makes into a layer. Spans on the
//! driving thread nest into one tree under the pass's root span; a span's
//! *self time* is its duration minus the part of it its children cover,
//! so the self times of the tree sum to the root's duration exactly. The
//! root's own self time is the unattributed residual. Spans recorded on
//! worker threads (one per simulated port) run concurrently with the
//! driving thread, so they are reported on their own and never summed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, `layer.stage` (e.g. `campaign.probe_disk`).
    pub name: &'static str,
    /// 0 for the driving thread, 1.. for workers.
    pub thread: u32,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        thread: u32,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("no recorder user panics");
        spans.push(Span {
            name,
            thread,
            start,
            end,
            parent,
        });
        spans.len() - 1
    }

    /// Opens a span on the driving thread; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, 0, now, now, parent)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&self, index: usize) {
        let now = self.now();
        self.spans.lock().expect("no recorder user panics")[index].end = now;
    }

    /// Runs `f` inside a leaf span on the driving thread.
    pub fn span<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, 0, start, end, Some(parent));
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder user panics").clone()
    }
}

/// Self time per span name over the tree rooted at `root` (ns). The root's
/// own self time is reported under its name; all values sum to the root's
/// duration.
pub fn self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            if spans[parent].thread == span.thread {
                children[parent].push(i);
            }
        }
    }
    let mut totals = BTreeMap::new();
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        let span = &spans[i];
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let (s, e) = (spans[c].start, spans[c].end);
                (s.max(span.start), e.min(span.end))
            })
            .filter(|(s, e)| s < e)
            .collect();
        kids.sort_unstable();
        // Union of the children's intervals, clipped to the parent.
        let mut covered = 0;
        let mut reach = span.start;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        *totals.entry(span.name).or_insert(0) += span.duration() - covered;
        stack.extend(&children[i]);
    }
    totals
}

/// Renders spans in the Chrome trace-event format (loadable in Perfetto).
pub fn to_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}{comma}",
            span.name,
            span.thread,
            span.start as f64 / 1e3,
            span.duration() as f64 / 1e3,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            thread,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_times_and_residual_sum_to_the_root() {
        let spans = vec![
            span("pass", 0, 0, 1_000, None),
            span("campaign.key", 0, 10, 30, Some(0)),
            span("core.sim_wait", 0, 40, 900, Some(0)),
            span("core.merge", 0, 100, 150, Some(2)),
            span("campaign.store", 0, 150, 180, Some(2)),
            span("campaign.key", 0, 920, 950, Some(0)),
            // Concurrent worker spans parented on the driving thread's
            // wait must not be subtracted from it.
            span("core.port", 1, 45, 890, Some(2)),
        ];
        let totals = self_times(&spans, 0);
        assert_eq!(totals["campaign.key"], 50);
        assert_eq!(totals["core.merge"], 50);
        assert_eq!(totals["campaign.store"], 30);
        assert_eq!(totals["core.sim_wait"], 860 - 80);
        assert_eq!(totals["pass"], 1_000 - 20 - 860 - 30);
        assert!(!totals.contains_key("core.port"));
        assert_eq!(totals.values().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("pass", 0, 0, 100, None),
            span("a", 0, 10, 60, Some(0)),
            span("b", 0, 50, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0)["pass"], 10);
    }

    #[test]
    fn recorder_nests_spans() {
        let rec = Recorder::new();
        let root = rec.open("pass", None);
        rec.span("bench.render", root, || std::hint::black_box(1 + 1));
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let totals = self_times(&spans, root);
        assert_eq!(totals.values().sum::<u64>(), spans[root].duration());
        assert!(to_trace_json(&spans).contains("\"name\":\"bench.render\""));
    }
}
