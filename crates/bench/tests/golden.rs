//! Golden checks for the kernel's bit-reproducibility contract.
//!
//! The committed `results/*.txt` and the 716-entry `results/cache/` are
//! the regression oracle for every kernel optimization: hot-path changes
//! must leave both the simulated numbers and the config fingerprints
//! untouched. Three layers of defense:
//!
//! 1. `cache_key` is pinned to a literal — silent fingerprint drift fails
//!    with a readable diff.
//! 2. The committed cache must *hit* for the whole Fig. 5 grid, and every
//!    registry figure whose points are all in the committed cache is
//!    re-rendered from loaded entries alone and must match its committed
//!    text byte for byte. Loads are re-verified against the stored full
//!    fingerprint, so this breaks if either the fingerprint or the result
//!    encoding changes.
//! 3. The `#[ignore]`d loop re-simulates every registry figure from
//!    scratch (no cache) and proves the kernel itself still produces the
//!    bytes.

use mn_bench::figures::{self, Figure};
use mn_bench::{fig05_points, fig05_table, Harness};
use mn_campaign::{CampaignPoint, DiskCache};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn committed_cache() -> DiskCache {
    DiskCache::new(format!("{RESULTS}/cache"))
}

fn golden(figure: &Figure) -> String {
    let path = format!("{RESULTS}/{}.txt", figure.name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The knobs that change simulated results (the knob table's `results`
/// rows: requests, seed, the fault overrides and the closed-loop host
/// knobs) reshape every figure grid; the goldens were produced with their
/// defaults. Observational knobs such as `MN_TRACE` never change the
/// numbers, so the goldens must hold under them too.
fn env_is_default() -> bool {
    mn_campaign::KNOBS
        .iter()
        .filter(|knob| knob.results)
        .all(|knob| std::env::var_os(knob.name).is_none_or(|value| value.is_empty()))
}

#[test]
fn fingerprints_survive_kernel_changes() {
    // One fully specified point, pinned end to end. If this fails, cached
    // results can no longer be served and every figure regenerates from
    // scratch — that is a behavior change, not a refactor; either restore
    // the fingerprint or bump `SIM_VERSION` and regenerate the goldens.
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    let point = CampaignPoint::new(config, Workload::Dct);
    assert_eq!(point.cache_key(), "348808c871d2e161");
}

/// Telemetry's zero-perturbation contract, checked against the committed
/// goldens themselves: a full-tracing run of the pinned point must encode
/// to exactly the bytes stored in `results/cache/` by an untraced run.
#[test]
#[ignore = "re-simulates the pinned chain point; run with --ignored"]
fn full_tracing_reproduces_the_committed_golden_bytes() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    config.noc.trace = mn_core::TraceConfig::Full;
    let point = CampaignPoint::new(config.clone(), Workload::Dct);
    // Tracing is excluded from the fingerprint, so the traced point still
    // addresses the committed entry...
    assert_eq!(point.cache_key(), "348808c871d2e161");
    let cached = committed_cache().load(&point).expect("committed entry");
    // ...and a traced re-simulation must reproduce its exact bytes.
    let traced = mn_core::try_simulate(&config, Workload::Dct).expect("simulates");
    assert!(traced.telemetry.is_some(), "tracing was on");
    assert_eq!(
        mn_campaign::codec::encode_result(&traced),
        mn_campaign::codec::encode_result(&cached),
    );
}

#[test]
fn committed_cache_serves_the_fig05_grid() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let cache = committed_cache();
    for point in fig05_points() {
        assert!(
            cache.load(&point).is_some(),
            "cache miss for {} / {} (key {}): kernel changes altered the \
             fingerprint or the stored results",
            point.config.label(),
            point.workload.label(),
            point.cache_key(),
        );
    }
}

/// Fig. 5 through its own table renderer rather than the registry's
/// `render`, so the exported `fig05_table` stays pinned to the golden.
#[test]
fn fig05_regenerates_byte_identically_from_cache() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let cache = committed_cache();
    let results: Vec<_> = fig05_points()
        .iter()
        .map(|p| cache.load(p).expect("covered by the cache-hit test"))
        .collect();
    let want = std::fs::read_to_string(format!("{RESULTS}/fig05.txt")).expect("fig05 golden");
    assert_eq!(fig05_table(&results), want);
}

/// The registry and the committed goldens name the same figures: every
/// registry figure has a `results/<name>.txt`, and every committed text
/// but the two non-simulating tables comes from a registry figure.
#[test]
fn every_golden_is_a_registry_figure() {
    let mut registry: Vec<String> = figures::ALL
        .iter()
        .map(|build| build().name.to_string())
        .collect();
    registry.sort();
    let mut goldens: Vec<String> = std::fs::read_dir(RESULTS)
        .expect("results/ is committed")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".txt")?.to_string())
        })
        .filter(|name| name != "table1" && name != "table2")
        .collect();
    goldens.sort();
    assert_eq!(registry, goldens);
}

/// Whether the committed cache can replay `figure`. Two figures cannot:
/// the closed-loop sweep runs detached, because its render reads
/// telemetry that cache hits never carry, and the fault sweep's
/// partitioned points fail, and a failure is never cached.
fn replayable(figure: &Figure) -> bool {
    figure.cached() && figure.name != "fault_sweep"
}

/// Every replayable registry figure, rendered from the committed cache
/// alone: a missing entry fails the test instead of simulating, so this
/// stays cheap in a debug build.
#[test]
fn cached_figures_replay_byte_identically() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    let cache = committed_cache();
    for figure in figures::ALL.map(|build| build()) {
        if !replayable(&figure) {
            continue;
        }
        let results: Vec<Vec<figures::PointResult>> = figure
            .campaigns
            .iter()
            .map(|points| {
                points
                    .iter()
                    .map(|point| {
                        Ok(cache.load(point).unwrap_or_else(|| {
                            panic!(
                                "{}: cache miss for {} / {} (key {}): kernel changes \
                                 altered the fingerprint or the stored results",
                                figure.name,
                                point.config.label(),
                                point.workload.label(),
                                point.cache_key(),
                            )
                        }))
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            (figure.render)(&results),
            golden(&figure),
            "{}: the replay differs from results/{}.txt",
            figure.name,
            figure.name,
        );
    }
}

/// From-scratch variant: re-simulates every registry figure with no
/// cache and demands the committed bytes. `#[ignore]`d for local `cargo
/// test` speed; CI's golden step runs it.
#[test]
#[ignore = "re-simulates every figure; run with --ignored"]
fn every_figure_regenerates_from_scratch() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    for figure in figures::ALL.map(|build| build()) {
        let (name, want) = (figure.name, golden(&figure));
        assert_eq!(
            Harness::bare(2).render(figure),
            want,
            "{name}: the regeneration differs from results/{name}.txt",
        );
    }
}
