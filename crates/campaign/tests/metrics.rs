//! End-to-end metrics, in a process of their own (the registry gate and
//! its counters are process-global, so these assertions must not share a
//! binary with tests that expect the gate off):
//!
//! 1. Job-count invariance: the work-describing counters a snapshot
//!    reports — jobs executed, cache stores — are identical at 1 and 8
//!    workers, so snapshots diff cleanly across `MN_JOBS` settings.
//! 2. Rendering determinism: two snapshots of the same state are
//!    byte-identical, and the family order never changes between scrapes.
//! 3. A concurrent 2-campaign run over one engine and one cache leaves
//!    nonzero campaign, point-resolve, and cache-tier metrics behind.

use std::path::PathBuf;
use std::sync::Arc;

use mn_campaign::{Campaign, CampaignPoint, Engine};
use mn_core::SystemConfig;
use mn_telemetry::registry;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

fn seeded_grid(seeds: std::ops::Range<u64>) -> Vec<CampaignPoint> {
    seeds
        .map(|seed| {
            let mut config =
                SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline is valid");
            config.requests_per_port = 200;
            config.seed = 0x5EAA_0000 + seed;
            CampaignPoint::new(config, Workload::Nw)
        })
        .collect()
}

/// Waits, up to ten seconds, until no engine worker thread (named
/// `mn-engine-<i>`) is left in this process. Reads Linux's per-thread
/// `comm` names; elsewhere it returns at once.
fn wait_for_engine_workers_to_exit() {
    let live = || {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .flatten()
                .filter(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|name| name.starts_with("mn-engine"))
                })
                .count()
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while live() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn metrics_are_job_invariant_deterministic_and_nonzero_under_concurrency() {
    registry::set_metrics_enabled(true);
    let scratch = |tag: &str| -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mn-metrics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // --- 1. Job-count invariance -------------------------------------
    let grid = seeded_grid(0..4);
    let mut executed = Vec::new();
    let mut stores = Vec::new();
    for (jobs, tag) in [(1usize, "j1"), (8, "j8")] {
        let dir = scratch(tag);
        let engine = Arc::new(Engine::new(jobs));
        let outcome = Campaign::new(jobs)
            .quiet()
            .cache_dir(&dir)
            .on_engine(Arc::clone(&engine))
            .run(grid.clone());
        assert_eq!(outcome.summary.failed, 0, "clean run at {jobs} workers");
        executed.push(engine.jobs_executed());
        stores.push(mn_campaign::DiskCache::new(&dir).stats().stores);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        executed[0], executed[1],
        "jobs executed must not depend on the worker count"
    );
    assert_eq!(
        stores[0], stores[1],
        "cache stores must not depend on the worker count"
    );

    // --- 2. Rendering determinism ------------------------------------
    // The engines above are dropped, but their workers wake, see the
    // closed queue and exit on their own threads, counting an unpark on
    // the way out. Let them finish so both renders read one state.
    wait_for_engine_workers_to_exit();
    let a = registry::render_prometheus();
    let b = registry::render_prometheus();
    assert_eq!(a, b, "same state must render byte-identically");
    let families = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(str::to_string)
            .collect()
    };
    assert!(!families(&a).is_empty(), "snapshot declares families");

    // --- 3. Concurrent campaigns leave nonzero metrics ----------------
    // Two submitters race identical grids through one 2-worker engine
    // and one empty cache directory. None of the asserted counts
    // depends on how the race falls: both runs finish, and each of the
    // six points simulates (and resolves) at least once.
    let m = registry::metrics();
    let runs_before = m.campaign_runs.get();
    let resolved_before = m.point_resolve_latency_us.count();
    let dir = scratch("conc");
    let engine = Arc::new(Engine::new(2));
    let grid = seeded_grid(100..106);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let grid = grid.clone();
            let dir = dir.clone();
            scope.spawn(move || {
                Campaign::new(2)
                    .quiet()
                    .cache_dir(dir)
                    .on_engine(engine)
                    .run(grid)
            });
        }
    });
    assert_eq!(m.campaign_runs.get() - runs_before, 2, "both runs counted");
    let resolved = m.point_resolve_latency_us.count() - resolved_before;
    assert!(
        resolved >= 6,
        "{resolved} resolved points for a 6-point grid"
    );

    // Cache-tier counters surface in the snapshot with nonzero values.
    let snapshot = registry::render_prometheus();
    let nonzero = |family: &str| {
        snapshot.lines().any(|l| {
            l.starts_with(family)
                && l.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<u64>().map(|n| n > 0).unwrap_or(false))
        })
    };
    assert!(nonzero("mn_cache_stores_total"), "stores in:\n{snapshot}");
    assert!(nonzero("mn_campaign_runs_total"), "runs in:\n{snapshot}");
    let _ = std::fs::remove_dir_all(&dir);
}
