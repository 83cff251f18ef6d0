//! `kernel_bench` — the DES-kernel microbenchmark behind `BENCH_kernel.json`.
//!
//! Times the canonical *chain-640-requests* microbench (the paper-baseline
//! chain MN driven to 640 completed requests), two larger reference points,
//! a fault-enabled chain variant (CRC retry/replay exercises the
//! retry-buffer path) and a half-NVM tree (idle-time write-back of dirty
//! NVM rows) — all open-loop with the paper's 3 issue slots — plus one
//! closed-loop sweep point (16 slots behind an ECN window, with Counters
//! telemetry), and reports the kernel-health metrics the hot-path work
//! targets:
//!
//! - **events/sec** and **ns/event** — wall time divided by the number of
//!   discrete events processed. The event count is pinned (CI gates it),
//!   so the denominator moves only with a kernel change that re-pins it,
//!   and between such changes the ratio tracks pure dispatch cost.
//! - **peak queue depth** — the high-water mark of the network's event
//!   queue and same-instant lane together.
//! - **allocations per 1k events** — counted by a wrapping global
//!   allocator, both for the whole run and for the *steady state* alone
//!   (the simulation loop after construction). Arena-backed packets and
//!   pooled buffers drive the steady-state figure to zero.
//! - **arena high-water** — from [`mn_sim::KernelCounters`]; it bounds
//!   the packet working set.
//! - **fixpoints** and **idle fixpoints** per iteration — every instant
//!   the port loop visited (a host, controller or network instant), and
//!   those whose first pass moved nothing, mostly network instants that
//!   delivered nothing (see [`mn_sim::KernelCounters::idle_fixpoints`]).
//!   Like the event count they are exact, so CI gates them too.
//!
//! Results go to stdout (human-readable) and to `BENCH_kernel.json`
//! (`MN_BENCH_OUT` to relocate), so CI can archive the perf trajectory
//! per-PR and regressions are visible as a diff, not an anecdote.

#![warn(unreachable_pub)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::time::Instant;

use mn_bench::figures::closed_loop_config;
use mn_core::{simulate_port, SystemConfig, WindowPolicyKind};
use mn_sim::counters;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// A pass-through allocator that counts heap operations on the hot path,
/// feeding the process-global tally in `mn_sim::counters` (which the port
/// simulator snapshots around its steady-state loop). Lives in the binary
/// (the workspace libraries `forbid(unsafe_code)`; the two calls below are
/// the canonical delegating-allocator idiom).
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`, which upholds the GlobalAlloc
// contract; the counter is a relaxed atomic add with no safety
// implications (and no allocation of its own).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counters::record_heap_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Case {
    name: &'static str,
    config: SystemConfig,
    workload: Workload,
    iters: u32,
}

/// The paper baseline on `topology` with `dram_fraction` of the capacity
/// in DRAM cubes, driven to `requests`, with transient CRC faults at
/// `fault_rate` (0.0 = healthy links).
fn baseline(
    topology: TopologyKind,
    dram_fraction: f64,
    requests: u64,
    fault_rate: f64,
) -> SystemConfig {
    let mut config =
        SystemConfig::paper_baseline(topology, dram_fraction).expect("paper baseline is valid");
    config.requests_per_port = requests;
    if fault_rate > 0.0 {
        config.noc.fault.transient_rate = fault_rate;
        config.noc.fault.seed = 7;
    }
    config
}

struct Measurement {
    name: String,
    events_per_iter: u64,
    queue_peak: usize,
    ns_per_event: f64,
    events_per_sec: f64,
    allocs_per_1k_events: f64,
    steady_allocs_per_1k_events: f64,
    arena_high_water: u64,
    fixpoints_per_iter: u64,
    idle_fixpoints_per_iter: u64,
    wall_per_iter_ms: f64,
}

fn run_case(case: &Case) -> Measurement {
    let mut config = case.config.clone();
    // MN_TRACE lets CI measure telemetry overhead (off/counters/full)
    // with the same binary; the event stream is identical either way.
    if let Some(mode) = mn_campaign::Knobs::get().trace {
        config.noc.trace = mode;
    }

    // Warm up (page in code, size caches) outside the measured window.
    let reference = simulate_port(&config, case.workload, 0);
    let events = reference.kernel_events();
    let kernel = reference.kernel_counters();

    let alloc_start = counters::heap_allocs();
    let start = Instant::now();
    let mut steady_allocs = 0u64;
    for _ in 0..case.iters {
        let obs = simulate_port(&config, case.workload, 0);
        assert_eq!(
            obs.kernel_events(),
            events,
            "event stream must be deterministic"
        );
        assert_eq!(
            obs.kernel_counters().fixpoints,
            kernel.fixpoints,
            "the port loop must be deterministic"
        );
        steady_allocs += obs.kernel_counters().steady_heap_allocs;
        std::hint::black_box(&obs);
    }
    let wall = start.elapsed();
    let allocs = counters::heap_allocs() - alloc_start;

    let total_events = events * u64::from(case.iters);
    let secs = wall.as_secs_f64();
    Measurement {
        name: case.name.to_string(),
        events_per_iter: events,
        queue_peak: kernel.queue_peak as usize,
        ns_per_event: secs * 1e9 / total_events as f64,
        events_per_sec: total_events as f64 / secs,
        allocs_per_1k_events: allocs as f64 * 1000.0 / total_events as f64,
        steady_allocs_per_1k_events: steady_allocs as f64 * 1000.0 / total_events as f64,
        arena_high_water: kernel.arena_high_water,
        fixpoints_per_iter: kernel.fixpoints,
        idle_fixpoints_per_iter: kernel.idle_fixpoints,
        wall_per_iter_ms: secs * 1e3 / f64::from(case.iters),
    }
}

fn main() {
    // The closed-loop sweep's busiest host: its point at the most issue
    // slots, gated by the ECN window over marking links.
    let mut closed_loop = closed_loop_config(TopologyKind::SkipList, WindowPolicyKind::Ecn, 16);
    closed_loop.requests_per_port = 2_000;
    let cases = [
        Case {
            name: "chain-640-requests",
            config: baseline(TopologyKind::Chain, 1.0, 640, 0.0),
            workload: Workload::Dct,
            iters: 40,
        },
        Case {
            name: "tree-2k-requests",
            config: baseline(TopologyKind::Tree, 1.0, 2_000, 0.0),
            workload: Workload::Nw,
            iters: 10,
        },
        Case {
            name: "skiplist-2k-requests",
            config: baseline(TopologyKind::SkipList, 1.0, 2_000, 0.0),
            workload: Workload::Backprop,
            iters: 10,
        },
        // Retry/replay path: transient CRC faults stretch link occupancy
        // and touch the per-link retry buffers every few hundred packets.
        Case {
            name: "chain-640-faulty",
            config: baseline(TopologyKind::Chain, 1.0, 640, 0.02),
            workload: Workload::Dct,
            iters: 40,
        },
        // NVM cubes hold dirty rows until idle time writes them back, so
        // this case exercises the controllers' flush path.
        Case {
            name: "tree-2k-nvm-half",
            config: baseline(TopologyKind::Tree, 0.5, 2_000, 0.0),
            workload: Workload::Backprop,
            iters: 10,
        },
        Case {
            name: "closed-loop-2k-ecn16",
            config: closed_loop,
            workload: Workload::Nw,
            iters: 10,
        },
    ];

    println!(
        "{:<22} {:>12} {:>8} {:>9} {:>13} {:>11} {:>11} {:>8} {:>10} {:>10} {:>10}",
        "case",
        "events/iter",
        "peak q",
        "ns/event",
        "events/sec",
        "alloc/1kev",
        "steady/1k",
        "arena",
        "fixpoints",
        "idle",
        "ms/iter"
    );
    let mut measurements = Vec::new();
    for case in &cases {
        let m = run_case(case);
        println!(
            "{:<22} {:>12} {:>8} {:>9.1} {:>13.0} {:>11.2} {:>11.3} {:>8} {:>10} {:>10} {:>10.3}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
            m.arena_high_water,
            m.fixpoints_per_iter,
            m.idle_fixpoints_per_iter,
            m.wall_per_iter_ms
        );
        measurements.push(m);
    }

    let out = mn_campaign::Knobs::get()
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_kernel.json".into());
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"events_per_iter\":{},\"peak_queue_depth\":{},\
             \"ns_per_event\":{:.3},\"events_per_sec\":{:.0},\
             \"allocs_per_1k_events\":{:.2},\"steady_allocs_per_1k_events\":{:.3},\
             \"arena_high_water\":{},\"fixpoints_per_iter\":{},\
             \"idle_fixpoints_per_iter\":{},\"wall_per_iter_ms\":{:.3}}}{comma}",
            m.name,
            m.events_per_iter,
            m.queue_peak,
            m.ns_per_event,
            m.events_per_sec,
            m.allocs_per_1k_events,
            m.steady_allocs_per_1k_events,
            m.arena_high_water,
            m.fixpoints_per_iter,
            m.idle_fixpoints_per_iter,
            m.wall_per_iter_ms
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("warning: could not write {}: {err}", out.display());
    } else {
        eprintln!("wrote {}", out.display());
    }
}
