//! `campaign_bench` — the campaign-throughput microbenchmark behind
//! `BENCH_campaign.json`.
//!
//! Where `kernel_bench` times the DES kernel underneath one port,
//! this times the *engine around it*: the FIFO worker pool and the
//! content-addressed cache's two hit paths. Three measurements, all in
//! points/sec over the same grid:
//!
//! - **cold** — every point freshly simulated through the worker pool
//!   (an empty cache directory).
//! - **warm-disk** — the read + verify + decode hit path alone
//!   ([`mn_campaign::DiskCache::load_uncached_keyed`]). This is what
//!   every warm replay paid before the hot tier existed.
//! - **warm-hot** — the full [`load`](mn_campaign::DiskCache::load) hit
//!   path with the hot tier resident: one `stat` revalidation, zero
//!   reads, zero decodes. CI gates on `warm_speedup = warm-hot /
//!   warm-disk` staying ≥ 5×. The two warm paths are timed in
//!   alternating passes of one loop, so drift on a busy machine lands
//!   on both sides of the ratio.
//!
//! Results go to stdout (human-readable) and `BENCH_campaign.json`
//! (`MN_BENCH_OUT` to relocate) so CI can archive the throughput
//! trajectory per-PR and show regressions as a diff, not an anecdote.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mn_campaign::{Campaign, CampaignPoint, DiskCache, Engine};
use mn_core::SystemConfig;
use mn_telemetry::registry;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// The benchmark grid: one topology, many seeds. Seeds (not topologies)
/// vary so every point costs about the same and points/sec is a stable
/// ratio rather than an average over wildly different denominators.
fn grid() -> Vec<CampaignPoint> {
    let mut points = Vec::new();
    for seed in 0..24u64 {
        let mut config =
            SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline is valid");
        config.requests_per_port = 480;
        config.seed = 0xBE9C_0000 + seed;
        points.push(CampaignPoint::new(config, Workload::Dct));
    }
    points
}

/// Repeats `pass` back to back for [`BLOCK`] and returns how many
/// passes ran and the seconds they took. A block is long enough that
/// each hit path is timed in its own steady state (a lone hot pass right
/// after a disk pass runs on CPU caches the decode just churned, which a
/// warm replay never does) and short enough that blocks of the two paths
/// alternate dozens of times per run.
fn block(pass: impl Fn()) -> (u32, f64) {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < BLOCK {
        pass();
        passes += 1;
    }
    (passes, start.elapsed().as_secs_f64())
}

/// One timing block of [`block`].
const BLOCK: Duration = Duration::from_millis(10);

fn main() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let available_cores = jobs;
    let scratch =
        std::env::temp_dir().join(format!("mncube-campaign-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let points = grid();
    let n = points.len();

    // --- cold: fresh simulation through the worker pool ---------------
    let cold_dir = scratch.join("cold");
    let engine = Arc::new(Engine::new(jobs));
    let campaign = Campaign::new(jobs)
        .quiet()
        .cache_dir(&cold_dir)
        .on_engine(Arc::clone(&engine));
    let start = Instant::now();
    let outcome = campaign.run(points.clone());
    let cold_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.summary.fresh, n,
        "cold run must simulate everything"
    );
    let cold_rate = n as f64 / cold_secs;

    // --- warm-disk vs warm-hot: alternating blocks in one loop ----------
    // Fingerprints and cache keys are precomputed once, exactly as the
    // campaign itself does, so both paths time the hit path alone and
    // the ratio between them is the hot tier's true win. Interleaved,
    // not two separate timing windows: on a busy or frequency-scaling
    // machine two sequential windows disagree by more than the gate's
    // margin, while alternating blocks see the same drift. The metrics
    // gate is pinned off so MN_METRICS cannot reach the ratio.
    let cache = DiskCache::new(&cold_dir);
    let keys: Vec<(String, String)> = points
        .iter()
        .map(|p| (p.fingerprint(), p.cache_key()))
        .collect();
    let disk_pass = || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_uncached_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    };
    let hot_pass = || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    };
    registry::set_metrics_enabled(false);
    disk_pass(); // warm the page cache
    hot_pass(); // fill the hot tier
    let (mut disk_passes, mut disk_secs) = (0u32, 0.0f64);
    let (mut hot_passes, mut hot_secs) = (0u32, 0.0f64);
    let mut rounds = 0u32;
    while rounds < 8 || disk_secs + hot_secs < 0.5 {
        let (passes, secs) = block(disk_pass);
        disk_passes += passes;
        disk_secs += secs;
        let (passes, secs) = block(hot_pass);
        hot_passes += passes;
        hot_secs += secs;
        rounds += 1;
    }
    let warm_disk_rate = f64::from(disk_passes) * n as f64 / disk_secs;
    let warm_hot_rate = f64::from(hot_passes) * n as f64 / hot_secs;
    let warm_speedup = warm_hot_rate / warm_disk_rate;

    // --- metrics overhead: the same warm-hot loop, gate off vs on --------
    // Interleaved pairs for the same reason: two sequential windows
    // disagree by far more than the one gated atomic under test costs.
    let mut off_secs = 0.0f64;
    let mut on_secs = 0.0f64;
    let mut pairs = 0u32;
    while pairs < 8 || off_secs + on_secs < 1.0 {
        registry::set_metrics_enabled(false);
        let t = Instant::now();
        hot_pass();
        off_secs += t.elapsed().as_secs_f64();
        registry::set_metrics_enabled(true);
        let t = Instant::now();
        hot_pass();
        on_secs += t.elapsed().as_secs_f64();
        pairs += 1;
    }
    registry::set_metrics_enabled(false);
    let warm_hot_on_rate = f64::from(pairs) * n as f64 / on_secs;
    let metrics_overhead_pct = (on_secs / off_secs - 1.0) * 100.0;

    let _ = std::fs::remove_dir_all(&scratch);

    println!("available cores: {available_cores}  workers: {jobs}  grid: {n} points");
    println!(
        "{:<14} {:>14} {:>12}",
        "measurement", "points/sec", "vs cold"
    );
    for (name, rate) in [
        ("cold", cold_rate),
        ("warm-disk", warm_disk_rate),
        ("warm-hot", warm_hot_rate),
        ("warm-hot+mtr", warm_hot_on_rate),
    ] {
        println!("{:<14} {:>14.0} {:>11.1}x", name, rate, rate / cold_rate);
    }
    println!("warm speedup (hot vs read+decode): {warm_speedup:.1}x");
    println!("metrics-on overhead on the warm-hot path: {metrics_overhead_pct:.2}%");

    let out = mn_campaign::Knobs::get()
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_campaign.json".into());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"available_cores\": {available_cores},");
    let _ = writeln!(json, "  \"workers\": {jobs},");
    let _ = writeln!(json, "  \"grid_points\": {n},");
    let _ = writeln!(json, "  \"cold_points_per_sec\": {cold_rate:.0},");
    let _ = writeln!(json, "  \"warm_disk_points_per_sec\": {warm_disk_rate:.0},");
    let _ = writeln!(json, "  \"warm_hot_points_per_sec\": {warm_hot_rate:.0},");
    let _ = writeln!(
        json,
        "  \"warm_hot_metrics_on_points_per_sec\": {warm_hot_on_rate:.0},"
    );
    let _ = writeln!(
        json,
        "  \"metrics_overhead_warm_hot_pct\": {metrics_overhead_pct:.2},"
    );
    let _ = writeln!(json, "  \"warm_speedup\": {warm_speedup:.2}");
    json.push_str("}\n");
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("warning: could not write {}: {err}", out.display());
    } else {
        eprintln!("wrote {}", out.display());
    }
}
