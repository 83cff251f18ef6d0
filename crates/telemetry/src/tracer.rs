//! Packet-lifecycle tracing and Chrome/Perfetto export.

use std::io::{self, Write};

use crate::recorder::FlightRecorder;

/// What happened at a lifecycle point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Host pushed the packet into its port network.
    Inject,
    /// Packet won link-output arbitration.
    ArbWin,
    /// Packet occupied a link (span: serialization + retries).
    Traverse,
    /// Packet entered a downstream input buffer.
    Enqueue,
    /// Memory array serviced the request (span).
    BankAccess,
    /// A fault forced a link-level retry.
    Retry,
    /// Packet left the network at its destination.
    Eject,
}

impl TraceEventKind {
    /// Stable display name (used as the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Inject => "Inject",
            TraceEventKind::ArbWin => "ArbWin",
            TraceEventKind::Traverse => "Traverse",
            TraceEventKind::Enqueue => "Enqueue",
            TraceEventKind::BankAccess => "BankAccess",
            TraceEventKind::Retry => "Retry",
            TraceEventKind::Eject => "Eject",
        }
    }
}

/// One recorded lifecycle sample. `Copy` so the tracer ring never owns
/// heap data.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Event start, picoseconds of simulated time.
    pub ts_ps: u64,
    /// Span length in picoseconds; 0 renders as an instant.
    pub dur_ps: u64,
    /// Track the event belongs to (from [`LifecycleTracer::add_track`]).
    pub track: u32,
    /// Lifecycle point.
    pub kind: TraceEventKind,
    /// Packet id (rendered as `p<n>`), or `u64::MAX` for none.
    pub packet: u64,
}

impl TraceEvent {
    /// Sentinel for events not tied to a packet.
    pub const NO_PACKET: u64 = u64::MAX;
}

/// A per-domain tracer: a registry of named tracks plus a pre-sized ring
/// of [`TraceEvent`]s.
///
/// Tracks are registered once at construction time (one per link, node,
/// or controller); recording is a ring-buffer store and never allocates.
/// When the ring wraps, the oldest events are dropped and counted.
#[derive(Debug, Clone)]
pub struct LifecycleTracer {
    tracks: Vec<String>,
    ring: FlightRecorder<TraceEvent>,
}

impl LifecycleTracer {
    /// Creates a tracer retaining up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        LifecycleTracer {
            tracks: Vec::new(),
            ring: FlightRecorder::new(capacity),
        }
    }

    /// Registers a named track and returns its id.
    pub fn add_track(&mut self, name: String) -> u32 {
        let id = u32::try_from(self.tracks.len()).expect("track count fits u32");
        self.tracks.push(name);
        id
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        self.ring.push(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Number of registered tracks.
    pub(crate) fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Name of a track, if registered.
    pub(crate) fn track_name(&self, id: u32) -> Option<&str> {
        self.tracks.get(id as usize).map(String::as_str)
    }
}

/// One process row in a Chrome/Perfetto trace: a pid, a display name,
/// and the tracer whose tracks become its threads.
#[derive(Debug)]
pub struct TraceProcess<'a> {
    /// Chrome-trace process id (must be unique per process).
    pub pid: u32,
    /// Display name for the process row.
    pub name: &'a str,
    /// The tracer providing this process's tracks and events.
    pub tracer: &'a LifecycleTracer,
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_us(value_ps: u64, out: &mut String) {
    // Chrome-trace timestamps are fractional microseconds; 1 ps is
    // exactly 1e-6 us, so six decimals are lossless.
    let us = value_ps / 1_000_000;
    let frac = value_ps % 1_000_000;
    out.push_str(&format!("{us}.{frac:06}"));
}

/// One freely-named span for a [`SpanProcess`] row: unlike the kernel's
/// [`TraceEvent`] (whose names are the fixed lifecycle enum), these
/// carry arbitrary names, such as `mncube trace`'s `trace.simulate`.
#[derive(Debug, Clone)]
pub struct NamedSpan {
    /// Event name rendered in the trace.
    pub name: String,
    /// Index into the owning [`SpanProcess::tracks`].
    pub track: u32,
    /// Span start in picoseconds (service spans use wall-clock time
    /// since the traced run began; kernel events use simulated time — the
    /// two share one timeline by construction, both starting near 0).
    pub ts_ps: u64,
    /// Span length in picoseconds; 0 renders as an instant.
    pub dur_ps: u64,
}

/// A process row whose threads carry [`NamedSpan`]s instead of kernel
/// lifecycle events — how wall-clock service spans join a kernel trace
/// export.
#[derive(Debug)]
pub struct SpanProcess<'a> {
    /// Chrome-trace process id (unique across all rows in the export).
    pub pid: u32,
    /// Display name for the process row.
    pub name: &'a str,
    /// Thread (track) names, indexed by [`NamedSpan::track`].
    pub tracks: &'a [String],
    /// The spans to render.
    pub spans: &'a [NamedSpan],
}

/// Writes a Chrome/Perfetto `trace.json` (JSON object format, loadable
/// in `ui.perfetto.dev` and `chrome://tracing`) covering the given kernel
/// processes plus extra [`SpanProcess`] rows — wall-clock service spans
/// (`mncube trace`'s `trace.simulate`) rendered alongside kernel packet
/// lifecycles in one timeline. Spans (`dur_ps > 0`) become `X` complete
/// events; the rest become thread-scoped instants.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_chrome_trace_with_spans<W: Write>(
    w: &mut W,
    processes: &[TraceProcess<'_>],
    span_processes: &[SpanProcess<'_>],
) -> io::Result<()> {
    let mut entries = Vec::new();
    for p in processes {
        let tracks =
            (0..p.tracer.track_count()).map(|tid| p.tracer.track_name(tid as u32).unwrap_or(""));
        metadata(&mut entries, p.pid, p.name, tracks);
    }
    for p in span_processes {
        metadata(
            &mut entries,
            p.pid,
            p.name,
            p.tracks.iter().map(String::as_str),
        );
    }
    for p in processes {
        for ev in p.tracer.events() {
            let packet = (ev.packet != TraceEvent::NO_PACKET).then_some(ev.packet);
            let (ts, dur) = (ev.ts_ps, ev.dur_ps);
            entries.push(event(p.pid, ev.kind.name(), ev.track, ts, dur, packet));
        }
    }
    for p in span_processes {
        for s in p.spans {
            entries.push(event(p.pid, &s.name, s.track, s.ts_ps, s.dur_ps, None));
        }
    }
    let json = format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ns\"}}\n",
        entries.join(",\n")
    );
    w.write_all(json.as_bytes())
}

/// A process row's name entry, then one entry per thread (track) name.
fn metadata<'t>(
    entries: &mut Vec<String>,
    pid: u32,
    name: &str,
    tracks: impl Iterator<Item = &'t str>,
) {
    let mut entry =
        format!("{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"");
    escape_json(name, &mut entry);
    entry.push_str("\"}}");
    entries.push(entry);
    for (tid, track) in tracks.enumerate() {
        let mut entry = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"",
            tid + 1
        );
        escape_json(track, &mut entry);
        entry.push_str("\"}}");
        entries.push(entry);
    }
}

/// The entry of one kernel event or named span on `track` of process
/// `pid`.
fn event(pid: u32, name: &str, track: u32, ts_ps: u64, dur_ps: u64, packet: Option<u64>) -> String {
    let mut out = String::from("{\"name\":\"");
    escape_json(name, &mut out);
    out.push_str(&format!(
        "\",\"ph\":\"{}\",\"pid\":{pid},\"tid\":{},\"ts\":",
        if dur_ps > 0 { "X" } else { "i" },
        track + 1,
    ));
    push_us(ts_ps, &mut out);
    if dur_ps > 0 {
        out.push_str(",\"dur\":");
        push_us(dur_ps, &mut out);
    } else {
        out.push_str(",\"s\":\"t\"");
    }
    if let Some(packet) = packet {
        out.push_str(&format!(",\"args\":{{\"packet\":\"p{packet}\"}}"));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer() -> LifecycleTracer {
        let mut t = LifecycleTracer::new(8);
        let link = t.add_track("link host-c1".to_string());
        let node = t.add_track("node c1 \"q\"".to_string());
        t.record(TraceEvent {
            ts_ps: 1_500_000,
            dur_ps: 528,
            track: link,
            kind: TraceEventKind::Traverse,
            packet: 7,
        });
        t.record(TraceEvent {
            ts_ps: 2_000_000,
            dur_ps: 0,
            track: node,
            kind: TraceEventKind::Eject,
            packet: 7,
        });
        t
    }

    fn network(tracer: &LifecycleTracer) -> TraceProcess<'_> {
        TraceProcess {
            pid: 1,
            name: "network",
            tracer,
        }
    }

    #[test]
    fn tracks_register_and_resolve() {
        let t = sample_tracer();
        assert_eq!(t.track_count(), 2);
        assert_eq!(t.track_name(0), Some("link host-c1"));
        assert_eq!(t.track_name(9), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_events() {
        let mut t = LifecycleTracer::new(2);
        let track = t.add_track("x".to_string());
        for i in 0..5 {
            t.record(TraceEvent {
                ts_ps: i,
                dur_ps: 0,
                track,
                kind: TraceEventKind::Inject,
                packet: i,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let ts: Vec<u64> = t.events().map(|e| e.ts_ps).collect();
        assert_eq!(ts, vec![3, 4]);
    }

    #[test]
    fn chrome_trace_has_metadata_spans_and_instants() {
        let t = sample_tracer();
        let mut buf = Vec::new();
        write_chrome_trace_with_spans(&mut buf, &[network(&t)], &[]).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"network\""));
        assert!(json.contains("\"link host-c1\""));
        // Quotes in track names are escaped.
        assert!(json.contains("node c1 \\\"q\\\""));
        // The span: 1.5 us start, 528 ps duration.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":0.000528"));
        // The instant carries a scope and the packet label.
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"packet\":\"p7\""));
        // Balanced braces => structurally plausible JSON.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn span_processes_render_named_events() {
        let t = sample_tracer();
        let tracks = vec!["campaign".to_string(), "cache".to_string()];
        let spans = vec![
            NamedSpan {
                name: "campaign.run".to_string(),
                track: 0,
                ts_ps: 2_000_000,
                dur_ps: 5_000_000,
            },
            NamedSpan {
                name: "cache.gc".to_string(),
                track: 1,
                ts_ps: 4_000_000,
                dur_ps: 0,
            },
        ];
        let mut buf = Vec::new();
        write_chrome_trace_with_spans(
            &mut buf,
            &[network(&t)],
            &[SpanProcess {
                pid: 3,
                name: "mn-engine (service)",
                tracks: &tracks,
                spans: &spans,
            }],
        )
        .unwrap();
        let json = String::from_utf8(buf).unwrap();
        // Kernel rows and service rows coexist in one export.
        assert!(json.contains("\"name\":\"network\""));
        assert!(json.contains("\"name\":\"mn-engine (service)\""));
        assert!(json.contains("\"name\":\"campaign\""));
        assert!(json.contains("\"name\":\"campaign.run\""));
        assert!(json.contains("\"name\":\"cache.gc\""));
        assert!(json.contains("\"dur\":5.000000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn export_bytes_are_pinned() {
        let t = sample_tracer();
        let tracks = vec!["service".to_string()];
        let spans = vec![NamedSpan {
            name: "trace.simulate".to_string(),
            track: 0,
            ts_ps: 3_000_000,
            dur_ps: 2_500_000,
        }];
        let mut buf = Vec::new();
        write_chrome_trace_with_spans(
            &mut buf,
            &[network(&t)],
            &[SpanProcess {
                pid: 2,
                name: "mncube (service)",
                tracks: &tracks,
                spans: &spans,
            }],
        )
        .unwrap();
        let want = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"network\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"link host-c1\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"node c1 \\\"q\\\"\"}},\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"mncube (service)\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"service\"}},\n",
            "{\"name\":\"Traverse\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.500000,\"dur\":0.000528,\"args\":{\"packet\":\"p7\"}},\n",
            "{\"name\":\"Eject\",\"ph\":\"i\",\"pid\":1,\"tid\":2,\"ts\":2.000000,\"s\":\"t\",\"args\":{\"packet\":\"p7\"}},\n",
            "{\"name\":\"trace.simulate\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":3.000000,\"dur\":2.500000}\n",
            "],\"displayTimeUnit\":\"ns\"}\n",
        );
        assert_eq!(String::from_utf8(buf).unwrap(), want);
    }

    #[test]
    fn timestamps_are_lossless_microseconds() {
        let mut s = String::new();
        push_us(1, &mut s);
        assert_eq!(s, "0.000001");
        let mut s = String::new();
        push_us(123_456_789, &mut s);
        assert_eq!(s, "123.456789");
    }
}
