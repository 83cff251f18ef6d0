//! `campaign_bench` — the campaign-throughput microbenchmark behind
//! `BENCH_campaign.json`.
//!
//! Where `kernel_bench` times the DES kernel underneath one port,
//! this times the *engine around it*: the work-stealing scheduler, the
//! content-addressed cache's two hit paths, and cross-campaign
//! coalescing. Four measurements, all in points/sec over the same grid:
//!
//! - **cold** — every point freshly simulated through the shared
//!   work-stealing pool (an empty cache directory).
//! - **warm-disk** — the read + verify + decode hit path alone
//!   ([`mn_campaign::DiskCache::load_uncached`]). This is what every warm
//!   replay paid before the hot tier existed.
//! - **warm-hot** — the full [`load`](mn_campaign::DiskCache::load) hit
//!   path with the hot tier resident: one `stat` revalidation, zero
//!   reads, zero decodes. CI gates on `warm_speedup = warm-hot /
//!   warm-disk` staying ≥ 5×.
//! - **coalesced** — four concurrent campaigns submitting the *same*
//!   grid to one engine against a fresh directory; the in-flight table
//!   must hand one campaign's simulation to the other three, so the
//!   aggregate completes ~4× the points with ~1× the simulation work.
//!
//! Results go to stdout (human-readable) and `BENCH_campaign.json`
//! (`MN_BENCH_OUT` to relocate) so CI can archive the throughput
//! trajectory per-PR and show regressions as a diff, not an anecdote.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

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

/// Repeats `pass` (one sweep over the grid) until enough wall time has
/// accumulated for a stable rate, and returns points/sec.
fn rate_of(points_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    // One untimed pass to warm whatever the path under test caches.
    pass();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed().as_secs_f64() < 0.25 {
        pass();
        passes += 1;
    }
    f64::from(passes) * points_per_pass as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let available_cores = jobs;
    let scratch =
        std::env::temp_dir().join(format!("mncube-campaign-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let points = grid();
    let n = points.len();

    // --- cold: fresh simulation through the work-stealing pool ---------
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

    // --- warm-disk: the read+decode hit path, no hot tier ---------------
    // Fingerprints and cache keys are precomputed once, exactly as the
    // campaign itself does, so both warm measurements time the hit path
    // alone and the ratio between them is the hot tier's true win.
    let cache = DiskCache::new(&cold_dir);
    let keys: Vec<(String, String)> = points
        .iter()
        .map(|p| (p.fingerprint(), p.cache_key()))
        .collect();
    let warm_disk_rate = rate_of(n, || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_uncached_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    });

    // --- warm-hot: the full load path with the hot tier resident --------
    // The gate is pinned off/on around the paired measurements so the
    // delta is the registry's true hot-path cost, not whatever
    // MN_METRICS happened to be in the environment.
    registry::set_metrics_enabled(false);
    let warm_hot_rate = rate_of(n, || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    });
    let warm_speedup = warm_hot_rate / warm_disk_rate;

    // --- metrics overhead: the same warm-hot loop, gate off vs on --------
    // Interleaved pairs, not two separate timing windows: on a busy or
    // frequency-scaling machine two sequential 0.25 s windows disagree
    // by far more than the one gated atomic under test costs, while
    // alternating off/on passes see the same drift and cancel it.
    let one_pass = || {
        for (fingerprint, key) in &keys {
            let result = cache
                .load_keyed(fingerprint, key)
                .expect("entry just stored");
            std::hint::black_box(&result);
        }
    };
    one_pass(); // warm
    let mut off_secs = 0.0f64;
    let mut on_secs = 0.0f64;
    let mut pairs = 0u32;
    while pairs < 8 || off_secs + on_secs < 1.0 {
        registry::set_metrics_enabled(false);
        let t = Instant::now();
        one_pass();
        off_secs += t.elapsed().as_secs_f64();
        registry::set_metrics_enabled(true);
        let t = Instant::now();
        one_pass();
        on_secs += t.elapsed().as_secs_f64();
        pairs += 1;
    }
    registry::set_metrics_enabled(false);
    let warm_hot_on_rate = f64::from(pairs) * n as f64 / on_secs;
    let metrics_overhead_pct = (on_secs / off_secs - 1.0) * 100.0;

    // --- coalesced: 4 concurrent campaigns, one engine, one grid --------
    let coalesce_dir = scratch.join("coalesced");
    let submitters = 4usize;
    let start = Instant::now();
    let (coalesced_served, total_fresh) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let points = points.clone();
                let dir = coalesce_dir.clone();
                scope.spawn(move || {
                    Campaign::new(jobs)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(points)
                        .summary
                })
            })
            .collect();
        let before = engine.coalesced_served();
        let mut fresh = 0usize;
        for handle in handles {
            fresh += handle.join().expect("submitter panicked").fresh;
        }
        (engine.coalesced_served() - before, fresh)
    });
    let coalesced_secs = start.elapsed().as_secs_f64();
    let coalesced_rate = (n * submitters) as f64 / coalesced_secs;
    assert!(
        total_fresh <= n,
        "coalescing must keep distinct simulations at {n}, saw {total_fresh} fresh"
    );

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
        ("coalesced", coalesced_rate),
    ] {
        println!("{:<14} {:>14.0} {:>11.1}x", name, rate, rate / cold_rate);
    }
    println!(
        "warm speedup (hot vs read+decode): {warm_speedup:.1}x   \
         coalesced served: {coalesced_served} of {} waiter points",
        n * (submitters - 1)
    );
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
    let _ = writeln!(json, "  \"warm_speedup\": {warm_speedup:.2},");
    let _ = writeln!(json, "  \"coalesced_points_per_sec\": {coalesced_rate:.0},");
    let _ = writeln!(json, "  \"coalesced_served\": {coalesced_served},");
    let _ = writeln!(json, "  \"coalesced_submitters\": {submitters}");
    json.push_str("}\n");
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("warning: could not write {}: {err}", out.display());
    } else {
        eprintln!("wrote {}", out.display());
    }
}
