//! Golden checks for the kernel's bit-reproducibility contract.
//!
//! The committed `results/*.txt` and the 716-entry `results/cache/` are
//! the regression oracle for every kernel optimization: hot-path changes
//! must leave both the simulated numbers and the config fingerprints
//! untouched. Three layers of defense:
//!
//! 1. `cache_key` is pinned to a literal — silent fingerprint drift fails
//!    with a readable diff.
//! 2. The committed cache must *hit* for the whole Fig. 5 grid — loads are
//!    re-verified against the stored full fingerprint, so this breaks if
//!    either the fingerprint or the result encoding changes.
//! 3. The figure tables re-rendered from those results must be
//!    byte-identical to the committed text files; the `#[ignore]`d
//!    variants re-simulate from scratch (no cache) and prove the kernel
//!    itself still produces the bytes.

use mn_bench::{
    closed_loop_report, fig05_points, fig05_table, fig07_report, fig10_report, Harness,
};
use mn_campaign::{CampaignPoint, DiskCache};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

fn committed_cache() -> DiskCache {
    DiskCache::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cache"))
}

const FIG05_GOLDEN: &str = include_str!("../../../results/fig05.txt");
const FIG07_GOLDEN: &str = include_str!("../../../results/fig07.txt");
const FIG10_GOLDEN: &str = include_str!("../../../results/fig10.txt");
const CLOSED_LOOP_GOLDEN: &str = include_str!("../../../results/closed_loop.txt");

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
    assert_eq!(fig05_table(&results), FIG05_GOLDEN);
}

/// From-scratch variant: re-simulates the whole Fig. 5 grid (no cache) and
/// demands the committed bytes. `#[ignore]`d for local `cargo test` speed;
/// CI's golden step runs it.
#[test]
#[ignore = "re-simulates the full Fig. 5 grid; run with --ignored"]
fn fig05_regenerates_byte_identically_from_scratch() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let results = Harness::bare(1).run_grid(fig05_points());
    assert_eq!(fig05_table(&results), FIG05_GOLDEN);
}

/// From-scratch Fig. 7: the tree at every DRAM:NVM mix, re-simulated with
/// no cache. Fig. 5's grid is all-DRAM, so this is the from-scratch check
/// that covers NVM cubes, whose dirty rows are written back to the arrays
/// in idle time.
#[test]
#[ignore = "re-simulates the full Fig. 7 grid; run with --ignored"]
fn fig07_regenerates_byte_identically_from_scratch() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    assert_eq!(fig07_report(&mut Harness::bare(2)), FIG07_GOLDEN);
}

/// From-scratch closed-loop sweep: every window policy on chain, tree
/// and skip-list, re-simulated with no cache. Its jain, window and marked
/// columns read the telemetry rollup, which cache hits never carry, so
/// this is the golden that covers the rollup end to end.
#[test]
#[ignore = "re-simulates the full closed-loop sweep; run with --ignored"]
fn closed_loop_regenerates_byte_identically_from_scratch() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grid");
        return;
    }
    assert_eq!(
        closed_loop_report(&mut Harness::bare(2)),
        CLOSED_LOOP_GOLDEN
    );
}

/// Replays Fig. 10 through the full campaign path (per-port decomposition,
/// ordered merge, cache). With intact fingerprints every point is a cache
/// hit and this finishes in seconds; on drift it re-simulates, so it is
/// `#[ignore]`d for local runs and exercised by CI's golden step.
#[test]
#[ignore = "replays the full Fig. 10 campaign; run with --ignored"]
fn fig10_regenerates_byte_identically() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let mut harness = Harness::cached(
        2,
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cache"),
    );
    assert_eq!(fig10_report(&mut harness), FIG10_GOLDEN);
}
