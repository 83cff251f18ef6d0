//! # mn-telemetry — observability for the memory-network simulator
//!
//! This crate holds the measurement substrate the kernel crates
//! (`mn-noc`, `mn-core`) thread their instrumentation hooks through:
//!
//! - [`TraceConfig`] — the `Off`/`Counters`/`Full` knob. Every hook in the
//!   hot path compiles to a single branch on this enum (never a virtual
//!   call); with the default `Off` the event stream, results, and
//!   allocation profile of a run are untouched.
//! - [`LifecycleTracer`] + [`write_chrome_trace_with_spans`] — per-packet lifecycle
//!   events (inject/arbitrate/traverse/enqueue/bank-access/retry/eject)
//!   retained in pre-sized ring buffers and exported as Chrome/Perfetto
//!   `trace.json`, one track per link and per memory controller.
//! - [`Decomposition`] — the paper's Figure 4/5 three-way latency split
//!   (request NoC / array / response NoC) refined with
//!   queuing-vs-serialization sub-splits and per-hop-count classes.
//! - [`FairnessTracker`] / [`jain_index`] — per-source-cube service
//!   shares quantifying "parking lot" unfairness (§4 of the paper).
//! - [`TimeSeries`] / [`QueueDepthStats`] — bounded, allocation-free
//!   per-link utilization series and buffer-occupancy distributions.
//! - [`HostSummary`] / [`WindowSeries`] — closed-loop host rollups
//!   (congestion-window time series, RTT, ECN mark fraction) populated
//!   only when a `mn-host` window policy is active.
//! - [`FlightRecorder`] — a fixed ring retaining the last N kernel
//!   events so watchdog trips become post-mortems instead of bare
//!   errors.
//! - [`registry`] (mn-metrics) — the *service-layer* counterpart to all
//!   of the above: a process-wide, lock-free-on-the-hot-path metrics
//!   registry (counters, gauges, log-scaled histograms), gated on
//!   `MN_METRICS` and exported as a Prometheus text snapshot and a
//!   JSON-lines sample stream. Named wall-clock spans join a kernel
//!   trace as extra Perfetto rows through the same writer.
//!
//! The crate depends only on `mn-sim` (for the time base and accumulator
//! primitives) so every other layer can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod decomp;
mod fairness;
mod host;
mod metrics;
mod recorder;
pub mod registry;
mod tracer;

pub use config::{ParseTraceConfigError, TraceConfig};
pub use decomp::{Decomposition, TelemetrySummary};
pub use fairness::{jain_index, FairnessTracker};
pub use host::{HostSummary, WindowSeries};
pub use metrics::{QueueDepthStats, TimeSeries};
pub use recorder::FlightRecorder;
pub use tracer::{
    write_chrome_trace_with_spans, LifecycleTracer, NamedSpan, SpanProcess, TraceEvent,
    TraceEventKind, TraceProcess,
};
