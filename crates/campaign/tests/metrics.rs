//! End-to-end checks of the always-on work counters: the jobs an
//! `Engine` executed and the stores a `DiskCache` directory counted.
//!
//! 1. Job-count invariance: both counters are identical at 1 and 8
//!    workers, so counts diff cleanly across `MN_JOBS` settings.
//! 2. A concurrent 2-campaign run over one engine and one cache finishes
//!    cleanly and leaves nonzero job and store counts behind.

use std::path::PathBuf;
use std::sync::Arc;

use mn_campaign::{Campaign, CampaignPoint, DiskCache, Engine};
use mn_core::SystemConfig;
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

#[test]
fn metrics_are_job_invariant_deterministic_and_nonzero_under_concurrency() {
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
        stores.push(DiskCache::new(&dir).stats().stores);
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
    assert!(executed[0] > 0 && stores[0] > 0, "{executed:?} {stores:?}");

    // --- 2. Concurrent campaigns leave nonzero counts ------------------
    // Two submitters race identical grids through one 2-worker engine
    // and one empty cache directory. None of the asserted counts
    // depends on how the race falls: both runs finish cleanly, and each
    // of the six points simulates, and is stored, at least once.
    let dir = scratch("conc");
    let engine = Arc::new(Engine::new(2));
    let grid = seeded_grid(100..106);
    let failed: Vec<usize> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let grid = grid.clone();
                let dir = dir.clone();
                scope.spawn(move || {
                    Campaign::new(2)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(grid)
                        .summary
                        .failed
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(failed, [0, 0], "both runs finish cleanly");
    let executed = engine.jobs_executed();
    assert!(executed >= 6, "{executed} jobs executed for a 6-point grid");
    let stores = DiskCache::new(&dir).stats().stores;
    assert!(stores >= 6, "{stores} cache stores for a 6-point grid");
    let _ = std::fs::remove_dir_all(&dir);
}
