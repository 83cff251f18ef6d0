//! mn-metrics — the process-wide service-layer metrics registry.
//!
//! PR 5 instrumented the *simulation kernel*; this module instruments the
//! *service stack around it* (worker pool, two-tier cache, retries).
//! Three primitives:
//!
//! - [`Counter`] — a monotonic `AtomicU64` whose [`Counter::add`] is
//!   gated on [`metrics_enabled`] (an `#[inline]` early return, the same
//!   discipline as the kernel's `TraceConfig` hooks). Always-on counts
//!   that back other outputs (`cache.stats`, the engine's job total) are
//!   plain atomics owned by their subsystems, exported through their own
//!   collectors.
//! - [`Gauge`] — a last-write-wins `AtomicU64` for point-in-time values
//!   (budget bytes, worker counts).
//! - [`Histogram`] — log-scaled (power-of-two edges) buckets with an
//!   exact event count and exact `u64` sum, so mean and distribution
//!   shape are both recoverable from a text snapshot.
//!
//! The registry is exposed two ways: a Prometheus text-exposition
//! snapshot ([`render_prometheus`], periodically written to
//! `MN_METRICS_FILE` by the sampler) and a JSON-lines stream of periodic
//! samples for campaign sinks (the snapshot path with `.jsonl`
//! appended). It keeps no span log: the one service span a Perfetto
//! export carries, `mncube trace`'s `trace.simulate`, is timed by the
//! command itself and handed to the writer as a
//! [`SpanProcess`](crate::SpanProcess).
//!
//! **Off is free.** With the gate off (the default) every hook is one
//! relaxed atomic load and a predictable branch; nothing allocates, nothing
//! locks, no thread spawns, and no simulated result, fingerprint, or
//! cache byte ever depends on a metric value.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// --- the on/off gate ----------------------------------------------------

/// Off until [`set_metrics_enabled`] turns it on: campaign setup does so
/// from the `MN_METRICS` knob, and benchmarks toggle it mid-process to
/// measure the hook overhead.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when metrics collection is on. The hot-path gate: one relaxed
/// load and a branch.
#[inline]
pub fn metrics_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the gate on or off.
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process epoch the JSON-lines samples' `uptime_us` is measured
/// from. The first caller pins it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// --- primitives ---------------------------------------------------------

/// A monotonic counter. `add`/`inc` are gated on [`metrics_enabled`].
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` when metrics are enabled; free (load + branch) when off.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one when metrics are enabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge for point-in-time values.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge when metrics are enabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite log-scale bucket edges: `le = 2^0 .. 2^(EDGES-1)`,
/// plus one overflow (`+Inf`) bucket. `2^31` microseconds is ~36
/// minutes, far past any latency this registry observes.
pub const HISTOGRAM_EDGES: usize = 32;

/// A log-scaled histogram: per-bucket event counts on power-of-two
/// upper edges, plus an exact event count and exact `u64` value sum.
///
/// Bucket `i < HISTOGRAM_EDGES` counts values `v` with
/// `prev_edge < v <= 2^i` (bucket 0 takes `v <= 1`, including 0); the
/// last bucket takes everything larger. Observation is two-to-three
/// relaxed atomic adds — lock-free and allocation-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_EDGES + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A zeroed histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: the number of bits needed to
    /// represent `v.saturating_sub(1)`, clamped into the overflow slot.
    #[inline]
    fn index(v: u64) -> usize {
        let bits = (64 - v.saturating_sub(1).leading_zeros()) as usize;
        bits.min(HISTOGRAM_EDGES)
    }

    /// Records one value when metrics are enabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the elapsed microseconds since `start`.
    #[inline]
    pub fn observe_since(&self, start: Instant) {
        if !metrics_enabled() {
            return;
        }
        self.observe(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_EDGES + 1] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The upper edge of finite bucket `i` (`2^i`).
    pub(crate) fn edge(i: usize) -> u64 {
        1u64 << i
    }
}

// --- the global metric set ---------------------------------------------

/// Declares the singleton metric set: struct fields, construction, the
/// Prometheus renderer, and the flat `(name, value)` view backing the
/// JSON-lines stream and the monotonicity checks — all from one list,
/// so a metric cannot exist in one view and be missing from another.
macro_rules! global_metrics {
    (
        counters { $($cfield:ident => $cname:literal, $chelp:literal;)* }
        gauges { $($gfield:ident => $gname:literal, $ghelp:literal;)* }
        histograms { $($hfield:ident => $hname:literal, $hhelp:literal;)* }
    ) => {
        /// Every process-global metric the service stack records into.
        /// Obtain it through [`metrics`]; fields are pre-registered so
        /// the hot path never touches a name table.
        #[derive(Debug)]
        #[non_exhaustive]
        pub struct GlobalMetrics {
            $(#[doc = $chelp] pub $cfield: Counter,)*
            $(#[doc = $ghelp] pub $gfield: Gauge,)*
            $(#[doc = $hhelp] pub $hfield: Histogram,)*
        }

        impl GlobalMetrics {
            fn new() -> GlobalMetrics {
                GlobalMetrics {
                    $($cfield: Counter::new(),)*
                    $($gfield: Gauge::new(),)*
                    $($hfield: Histogram::new(),)*
                }
            }

            /// Renders the singleton metrics in Prometheus
            /// text-exposition format, in declaration order.
            pub(crate) fn render_into(&self, out: &mut String) {
                $(render_counter(out, $cname, $chelp, self.$cfield.get());)*
                $(render_gauge(out, $gname, $ghelp, self.$gfield.get());)*
                $(render_histogram(out, $hname, $hhelp, &self.$hfield);)*
            }

            /// Flat `(name, value)` view of every counter plus each
            /// histogram's `_count` — the monotonic subset, in
            /// declaration order.
            pub(crate) fn counter_values(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $(($cname, self.$cfield.get()),)*
                    $((concat!($hname, "_count"), self.$hfield.count()),)*
                ]
            }

            /// Flat `(name, value)` view of every gauge.
            pub(crate) fn gauge_values(&self) -> Vec<(&'static str, u64)> {
                vec![$(($gname, self.$gfield.get()),)*]
            }
        }
    };
}

global_metrics! {
    counters {
        engine_parks => "mn_engine_parks_total",
            "Times an idle worker parked on the ready condvar.";
        engine_unparks => "mn_engine_unparks_total",
            "Times a parked worker woke (submission or pool close).";
        engine_panics_isolated => "mn_engine_panics_isolated_total",
            "Worker panics caught and converted to structured point errors.";
        engine_retry_attempts => "mn_engine_retry_attempts_total",
            "Point re-dispatches after a retryable failure.";
        engine_retry_escalations => "mn_engine_retry_escalations_total",
            "Jobs executed with an escalated watchdog budget (attempt > 0).";
        cache_gc_passes => "mn_cache_gc_passes_total",
            "Cache eviction passes (explicit gc and budget-triggered).";
        campaign_runs => "mn_campaign_runs_total",
            "Campaign submissions run to completion in this process.";
        campaign_points => "mn_campaign_points_total",
            "Unique points resolved across all campaigns (any outcome).";
    }
    gauges {
        engine_workers => "mn_engine_workers",
            "Worker threads in the process-wide engine pool.";
        engine_queue_depth => "mn_engine_queue_depth",
            "Shared queue depth when a worker last looked for a job.";
        cache_budget_bytes => "mn_cache_budget_bytes",
            "Configured cache size budget in bytes (0 = unbounded).";
    }
    histograms {
        cache_gc_reclaimed_bytes => "mn_cache_gc_reclaimed_bytes",
            "Bytes reclaimed per cache eviction pass.";
        point_resolve_latency_us => "mn_point_resolve_latency_us",
            "Microseconds from point dispatch to resolution (any source).";
    }
}

/// The process-wide metric set. Construction is one-time and cheap; the
/// returned reference is `'static` so hooks can be called from any
/// thread without refcounting.
pub fn metrics() -> &'static GlobalMetrics {
    static METRICS: OnceLock<GlobalMetrics> = OnceLock::new();
    METRICS.get_or_init(GlobalMetrics::new)
}

// --- Prometheus text exposition -----------------------------------------

fn render_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    render_header(out, name, help, "counter");
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn render_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    render_header(out, name, help, "gauge");
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn render_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    render_header(out, name, help, "histogram");
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, n) in counts.iter().enumerate().take(HISTOGRAM_EDGES) {
        cumulative += n;
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&Histogram::edge(i).to_string());
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    cumulative += counts[HISTOGRAM_EDGES];
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&cumulative.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&h.sum().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
pub(crate) fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Emits one labeled counter family in exposition format — the helper
/// registered collectors (per-cache-directory, per-engine) build their
/// output with so label escaping and header syntax stay in one place.
pub fn render_labeled_counters(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(&str, &str, u64)],
) {
    render_header(out, name, help, "counter");
    for (label, value, sample) in samples {
        out.push_str(name);
        out.push('{');
        out.push_str(label);
        out.push_str("=\"");
        escape_label(value, out);
        out.push_str("\"} ");
        out.push_str(&sample.to_string());
        out.push('\n');
    }
}

// --- collectors ----------------------------------------------------------

type Collector = Box<dyn Fn(&mut String) + Send + Sync>;

fn collectors() -> &'static Mutex<Vec<(String, Collector)>> {
    static COLLECTORS: OnceLock<Mutex<Vec<(String, Collector)>>> = OnceLock::new();
    COLLECTORS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a named snapshot collector: a callback appending exposition
/// text for metrics that live outside the global singleton set (the
/// per-directory cache counters, the shared engine's lifetime totals).
/// A second registration under the same id is ignored, so idempotent
/// callers (every `DiskCache::new`) stay cheap and collector order stays
/// first-registration order — snapshots are deterministically ordered.
pub fn register_collector(id: &str, collector: impl Fn(&mut String) + Send + Sync + 'static) {
    let mut list = lock_collectors();
    if list.iter().any(|(existing, _)| existing == id) {
        return;
    }
    list.push((id.to_string(), Box::new(collector)));
}

fn lock_collectors() -> std::sync::MutexGuard<'static, Vec<(String, Collector)>> {
    collectors()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders the full Prometheus text-exposition snapshot: the global
/// metric set, then every registered collector in registration order.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    metrics().render_into(&mut out);
    for (_, collector) in lock_collectors().iter() {
        collector(&mut out);
    }
    out
}

// --- export: snapshot file + JSON-lines stream ---------------------------

#[derive(Debug, Clone)]
struct ExportConfig {
    file: PathBuf,
    interval: Duration,
}

fn export_config() -> &'static Mutex<Option<ExportConfig>> {
    static CONFIG: OnceLock<Mutex<Option<ExportConfig>>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(None))
}

/// Configures snapshot export: the Prometheus text file to (re)write and
/// the sampler period. Spawns the background sampler thread on the first
/// call with a file; later calls just update the target. No-op while
/// metrics are disabled.
pub fn configure_export(file: Option<PathBuf>, interval: Duration) {
    if !metrics_enabled() {
        return;
    }
    let Some(file) = file else { return };
    *export_config().lock().unwrap_or_else(|p| p.into_inner()) = Some(ExportConfig {
        file,
        interval: interval.max(Duration::from_millis(10)),
    });
    static SAMPLER: OnceLock<()> = OnceLock::new();
    SAMPLER.get_or_init(|| {
        let spawned = std::thread::Builder::new()
            .name("mn-metrics".to_string())
            .spawn(sampler_loop);
        if let Err(err) = spawned {
            eprintln!("warning: mn-metrics sampler did not spawn: {err}");
        }
    });
}

fn sampler_loop() {
    loop {
        let interval = {
            let config = export_config().lock().unwrap_or_else(|p| p.into_inner());
            match config.as_ref() {
                Some(c) => c.interval,
                None => Duration::from_secs(1),
            }
        };
        std::thread::sleep(interval);
        sample_now("periodic");
    }
}

/// Takes one export sample: rewrites the Prometheus snapshot file
/// (atomically, tmp + rename) and appends one labeled JSON line to the
/// `<file>.jsonl` stream. No-op when metrics are off or no file is
/// configured; export failures warn and never fail the caller.
pub fn sample_now(label: &str) {
    if !metrics_enabled() {
        return;
    }
    let config = export_config()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let Some(config) = config else { return };
    if let Err(err) = write_snapshot(&config.file) {
        eprintln!(
            "warning: could not write metrics snapshot {}: {err}",
            config.file.display()
        );
        return;
    }
    let stream = jsonl_path(&config.file);
    if let Err(err) = append_jsonl(&stream, label) {
        eprintln!(
            "warning: could not append metrics sample {}: {err}",
            stream.display()
        );
    }
}

/// The JSON-lines stream path paired with a snapshot file.
pub(crate) fn jsonl_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".jsonl");
    PathBuf::from(name)
}

/// Writes the current Prometheus snapshot to `path` via tmp + rename, so
/// watchers (`mncube stats --watch`) never read a half-written file.
pub(crate) fn write_snapshot(path: &Path) -> io::Result<()> {
    let text = render_prometheus();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

fn append_jsonl(path: &Path, label: &str) -> io::Result<()> {
    use std::io::Write as _;
    let mut line = String::from("{\"sample\":\"");
    for c in label.chars() {
        match c {
            '"' | '\\' => {
                line.push('\\');
                line.push(c);
            }
            c if (c as u32) >= 0x20 => line.push(c),
            _ => {}
        }
    }
    line.push_str("\",\"uptime_us\":");
    line.push_str(
        &u64::try_from(epoch().elapsed().as_micros())
            .unwrap_or(u64::MAX)
            .to_string(),
    );
    let m = metrics();
    for (name, value) in m.counter_values().into_iter().chain(m.gauge_values()) {
        line.push_str(",\"");
        line.push_str(name);
        line.push_str("\":");
        line.push_str(&value.to_string());
    }
    line.push_str("}\n");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_sim::SimRng;

    // The gate is process-global, so every gate-touching test holds this
    // lock for its whole body (poison-tolerant: an assert failure must
    // not cascade), and tests avoid asserting on *global* singleton
    // values — other tests in this binary may be incrementing them.
    static GATE: Mutex<()> = Mutex::new(());

    struct Enabled(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Enabled {
        fn on() -> Enabled {
            let guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
            set_metrics_enabled(true);
            Enabled(guard)
        }
        fn off() -> Enabled {
            let guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
            set_metrics_enabled(false);
            Enabled(guard)
        }
        fn flip(&self, on: bool) {
            set_metrics_enabled(on);
        }
    }
    impl Drop for Enabled {
        fn drop(&mut self) {
            set_metrics_enabled(false);
        }
    }

    #[test]
    fn counters_gate_on_the_switch() {
        let gate = Enabled::off();
        let c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0, "gated ops are free when off");
        gate.flip(true);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_stores_latest_value() {
        let gate = Enabled::off();
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 0, "off: stores are dropped");
        gate.flip(true);
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_bucket_edges_are_exact() {
        // Log-scale edge math, value by value: bucket i holds
        // prev_edge < v <= 2^i, bucket 0 additionally takes 0.
        assert_eq!(Histogram::index(0), 0);
        assert_eq!(Histogram::index(1), 0);
        assert_eq!(Histogram::index(2), 1);
        assert_eq!(Histogram::index(3), 2);
        assert_eq!(Histogram::index(4), 2);
        assert_eq!(Histogram::index(5), 3);
        assert_eq!(Histogram::index(8), 3);
        assert_eq!(Histogram::index(9), 4);
        for i in 0..HISTOGRAM_EDGES {
            let edge = Histogram::edge(i);
            assert_eq!(Histogram::index(edge), i, "edge 2^{i} lands in bucket {i}");
            if edge > 1 {
                assert_eq!(
                    Histogram::index(edge + 1),
                    (i + 1).min(HISTOGRAM_EDGES),
                    "edge 2^{i} + 1 spills to the next bucket"
                );
            }
        }
        // Overflow: anything past the last finite edge lands in +Inf.
        assert_eq!(
            Histogram::index(Histogram::edge(HISTOGRAM_EDGES - 1) + 1),
            HISTOGRAM_EDGES
        );
        assert_eq!(Histogram::index(u64::MAX), HISTOGRAM_EDGES);
    }

    #[test]
    fn histogram_count_and_sum_are_exact_under_random_stream() {
        let _on = Enabled::on();
        let h = Histogram::new();
        let mut rng = SimRng::seed_from(0xC0FFEE);
        let mut expected_sum = 0u64;
        let n = 10_000u64;
        for i in 0..n {
            // Mix magnitudes: small values, mid-range, and occasional
            // huge ones that must land in the overflow bucket.
            let v = match i % 7 {
                0 => rng.below(4),
                6 => u64::MAX / 2 + rng.below(1 << 20),
                _ => rng.below(1 << 22),
            };
            expected_sum = expected_sum.wrapping_add(v);
            h.observe(v);
        }
        assert_eq!(h.count(), n, "count is exact");
        assert_eq!(h.sum(), expected_sum, "sum is exact (wrapping at u64)");
        let buckets = h.bucket_counts();
        assert_eq!(
            buckets.iter().sum::<u64>(),
            n,
            "every observation is in exactly one bucket"
        );
        assert!(
            buckets[HISTOGRAM_EDGES] > 0,
            "huge values reached the overflow bucket"
        );
        // Cross-check each bucket against a direct recount.
        let mut rng = SimRng::seed_from(0xC0FFEE);
        let mut recount = [0u64; HISTOGRAM_EDGES + 1];
        for i in 0..n {
            let v = match i % 7 {
                0 => rng.below(4),
                6 => u64::MAX / 2 + rng.below(1 << 20),
                _ => rng.below(1 << 22),
            };
            recount[Histogram::index(v)] += 1;
        }
        assert_eq!(buckets, recount);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let _on = Enabled::on();
        let h = Histogram::new();
        h.observe(1);
        h.observe(3);
        h.observe(u64::MAX);
        let mut out = String::new();
        render_histogram(&mut out, "mn_test_hist", "A test histogram.", &h);
        assert!(out.contains("# TYPE mn_test_hist histogram\n"));
        assert!(out.contains("mn_test_hist_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("mn_test_hist_bucket{le=\"4\"} 2\n"));
        assert!(out.contains("mn_test_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("mn_test_hist_count 3\n"));
        let mut out = String::new();
        render_counter(&mut out, "mn_test_total", "A test counter.", 42);
        assert_eq!(
            out,
            "# HELP mn_test_total A test counter.\n# TYPE mn_test_total counter\nmn_test_total 42\n"
        );
        let mut out = String::new();
        render_labeled_counters(
            &mut out,
            "mn_labeled_total",
            "Labeled.",
            &[("dir", "a\"b\\c", 7)],
        );
        assert!(out.contains("mn_labeled_total{dir=\"a\\\"b\\\\c\"} 7\n"));
    }

    #[test]
    fn full_snapshot_covers_every_declared_family() {
        let _on = Enabled::on();
        let text = render_prometheus();
        for (name, _) in metrics().counter_values() {
            let family = name.strip_suffix("_count").unwrap_or(name);
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "snapshot misses {family}"
            );
        }
        for (name, _) in metrics().gauge_values() {
            assert!(text.contains(&format!("# TYPE {name} gauge")));
        }
    }

    #[test]
    fn jsonl_path_appends_suffix() {
        assert_eq!(
            jsonl_path(Path::new("/tmp/m.prom")),
            PathBuf::from("/tmp/m.prom.jsonl")
        );
    }
}
