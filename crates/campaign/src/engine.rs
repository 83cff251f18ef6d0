//! The shared work-stealing execution engine.
//!
//! One [`Engine`] multiplexes `(point, port)` jobs from any number of
//! concurrently submitted campaigns across a single worker pool. Three
//! properties make it safe to share:
//!
//! 1. **Work stealing, not work ordering.** Each worker owns a deque;
//!    submissions land in a global injector, workers refill from it in
//!    chunks and steal half of the longest peer deque when both run dry.
//!    Scheduling order is irrelevant to results — every job is a pure
//!    function of `(config, workload, port)` and each submission merges
//!    its port observations in ascending port order — so stealing buys
//!    throughput without costing a bit of determinism.
//! 2. **Per-job policy.** A [`Job`] carries its submission's retry
//!    budget, chaos plan, and reply channel, so campaigns with different
//!    configurations coexist on one pool. The queue is refillable: a
//!    gatherer pushes fresh attempts for retried points into the same
//!    injector.
//! 3. **Cross-campaign coalescing.** An in-flight table keyed by the full
//!    point fingerprint makes N concurrent campaigns asking for the same
//!    point cost one simulation: the first claimant becomes the *owner*
//!    (simulates, journals, stores to cache), later claimants become
//!    *waiters* and receive the completed result through their own reply
//!    channel when the owner settles.
//!
//! Workers are spawned lazily on first submission and exit when the last
//! [`Engine`] handle is dropped (the queue is closed) — a parked pool
//! costs nothing but stack pages, so the process-wide
//! [`Engine::global`] can live for the whole process, serving-stack
//! style.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mn_core::{try_simulate_port, PortObservation, RunResult};
use mn_telemetry::registry::{self, Counter};

use crate::chaos::ChaosPlan;
use crate::error::CampaignError;
use crate::point::CampaignPoint;

/// How long an idle worker parks before re-scanning peer deques for
/// stealable work. Wakeups on submission are immediate (condvar notify);
/// the timeout only bounds the window of a missed-steal race.
const IDLE_RESCAN: Duration = Duration::from_millis(50);

/// Largest injector chunk a worker moves into its own deque at once.
/// Small enough that an unlucky grab is cheap to steal back from.
const CHUNK_MAX: usize = 32;

/// What the engine delivers to a submission's reply channel.
///
/// `Port` dominates the enum's size (a `PortObservation` inline), and
/// that is deliberate: it is sent once per `(point, port)` job, and
/// boxing it would buy a smaller message at the price of a heap
/// round-trip on the hottest path in the engine. `Coalesced` is already
/// boxed — it is rare and carries a whole `RunResult`.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Delivery {
    /// One port of one attempt finished (successfully or not).
    Port {
        /// The submission-local slot (index into its unique points).
        slot: usize,
        /// Which port landed.
        port: u32,
        /// Wall-clock the worker spent on this job.
        host: Duration,
        /// The observation, or why there is none.
        outcome: Result<PortObservation, CampaignError>,
    },
    /// Another campaign owned this point and settled it; this is the
    /// coalesced whole-point result for a waiter. Boxed so the rare
    /// coalesced delivery, not every per-port reply, pays for the full
    /// `RunResult`'s footprint in the channel message.
    Coalesced {
        /// The waiter's submission-local slot.
        slot: usize,
        /// The owner's settled result (shared verbatim).
        result: Box<Result<RunResult, CampaignError>>,
        /// Attempts the owner spent.
        attempts: u32,
    },
}

/// One schedulable unit: a single port of a single point attempt,
/// carrying its submission's execution policy and reply channel.
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) port: u32,
    pub(crate) attempt: u32,
    pub(crate) point: Arc<CampaignPoint>,
    /// Scheduling-independent hash of the point's cache key, the chaos
    /// schedule's injection-site coordinate.
    pub(crate) key_hash: u64,
    pub(crate) retries: u32,
    pub(crate) chaos: Option<ChaosPlan>,
    pub(crate) reply: mpsc::Sender<Delivery>,
}

/// The answer to an in-flight claim.
pub(crate) enum Claim {
    /// This submission owns the point: it probes the cache, dispatches,
    /// journals, and must eventually [`Engine::settle`] it.
    Owner,
    /// Another live submission owns the point; the result will arrive as
    /// a [`Delivery::Coalesced`] on the reply channel given to claim.
    Waiter,
}

struct InflightWaiter {
    reply: mpsc::Sender<Delivery>,
    slot: usize,
}

/// The injector: submissions push here; workers refill from it.
struct Injector {
    queue: VecDeque<Job>,
    closed: bool,
    spawned: bool,
}

struct Core {
    workers: usize,
    injector: Mutex<Injector>,
    ready: Condvar,
    deques: Vec<Mutex<VecDeque<Job>>>,
    inflight: Mutex<HashMap<String, Vec<InflightWaiter>>>,
    /// Lifetime totals, on the mn-metrics [`Counter`] type (always-on:
    /// the atomic add *is* the pre-registry baseline) so campaign
    /// summaries, the concurrency tests, and the Prometheus export all
    /// read one source of truth. Per-engine, not global — tests and
    /// benches build private pools and assert on their counts.
    coalesced_served: Counter,
    executed: Counter,
}

/// A shared work-stealing worker pool with an in-flight coalescing
/// table. Cheap to create (workers spawn on first submission) and safe
/// to share across threads behind an `Arc`; dropping the handle closes
/// the pool.
pub struct Engine {
    core: Arc<Core>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.core.workers)
            .field("executed", &self.core.executed.get())
            .field("coalesced_served", &self.core.coalesced_served.get())
            .finish()
    }
}

impl Engine {
    /// An engine with `workers` worker threads (at least one). Threads
    /// are spawned lazily on the first submission.
    pub fn new(workers: usize) -> Engine {
        let workers = workers.max(1);
        Engine {
            core: Arc::new(Core {
                workers,
                injector: Mutex::new(Injector {
                    queue: VecDeque::new(),
                    closed: false,
                    spawned: false,
                }),
                ready: Condvar::new(),
                deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                inflight: Mutex::new(HashMap::new()),
                coalesced_served: Counter::new(),
                executed: Counter::new(),
            }),
        }
    }

    /// The process-wide shared engine, sized by `MN_JOBS` (or available
    /// parallelism) at first use. Every [`Campaign::from_env`] campaign
    /// submits here, so concurrent campaigns in one process share one
    /// worker pool and one in-flight table.
    ///
    /// [`Campaign::from_env`]: crate::Campaign::from_env
    pub fn global() -> Arc<Engine> {
        static GLOBAL: OnceLock<Arc<Engine>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let engine = Arc::new(Engine::new(crate::Knobs::get().jobs()));
                registry::metrics()
                    .engine_workers
                    .set(engine.workers() as u64);
                // The shared engine's lifetime totals join the Prometheus
                // snapshot; private pools (tests, benches) stay local.
                let core = Arc::clone(&engine.core);
                registry::register_collector("engine", move |out| {
                    registry::render_labeled_counters(
                        out,
                        "mn_engine_jobs_executed_total",
                        "Jobs executed by the shared engine since process start.",
                        &[("pool", "global", core.executed.get())],
                    );
                    registry::render_labeled_counters(
                        out,
                        "mn_engine_coalesced_served_total",
                        "Coalesced results the shared engine served to waiters.",
                        &[("pool", "global", core.coalesced_served.get())],
                    );
                });
                engine
            })
            .clone()
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Total jobs executed since the engine was created.
    pub fn jobs_executed(&self) -> u64 {
        self.core.executed.get()
    }

    /// Total coalesced results served to waiters since the engine was
    /// created. The concurrent-submitter tests assert on this: shared
    /// points cost one simulation, everyone else coalesces.
    pub fn coalesced_served(&self) -> u64 {
        self.core.coalesced_served.get()
    }

    /// Submits jobs to the injector, spawning the worker pool on first
    /// use. Called both for a campaign's initial fan-out and for retry
    /// refills.
    pub(crate) fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut injector = lock(&self.core.injector);
        injector.queue.extend(jobs);
        if injector.queue.is_empty() {
            return;
        }
        if !injector.spawned {
            injector.spawned = true;
            for index in 0..self.core.workers {
                let core = Arc::clone(&self.core);
                let spawned = std::thread::Builder::new()
                    .name(format!("mn-engine-{index}"))
                    .spawn(move || worker_loop(&core, index));
                if let Err(err) = spawned {
                    // A thread that failed to spawn is a smaller pool,
                    // not a lost job: any live worker drains the shared
                    // injector. Worker 0 must exist for progress.
                    if index == 0 {
                        panic!("mn-engine: could not spawn worker 0: {err}");
                    }
                    eprintln!("warning: mn-engine worker {index} did not spawn: {err}");
                }
            }
        }
        drop(injector);
        self.core.ready.notify_all();
    }

    /// Claims a fingerprint in the in-flight table. The first claimant
    /// per fingerprint becomes the [`Claim::Owner`]; concurrent
    /// claimants register `(reply, slot)` and become [`Claim::Waiter`]s
    /// until the owner settles.
    pub(crate) fn claim(
        &self,
        fingerprint: &str,
        reply: &mpsc::Sender<Delivery>,
        slot: usize,
    ) -> Claim {
        use std::collections::hash_map::Entry;
        let mut inflight = lock(&self.core.inflight);
        match inflight.entry(fingerprint.to_string()) {
            Entry::Vacant(vacant) => {
                vacant.insert(Vec::new());
                registry::metrics().coalesce_owner_claims.inc();
                Claim::Owner
            }
            Entry::Occupied(mut occupied) => {
                occupied.get_mut().push(InflightWaiter {
                    reply: reply.clone(),
                    slot,
                });
                registry::metrics().coalesce_waiter_claims.inc();
                Claim::Waiter
            }
        }
    }

    /// Settles an owned fingerprint: removes the in-flight entry and
    /// delivers the result to every registered waiter. Returns how many
    /// waiters were served. The owner calls this for every point it
    /// claimed — on fresh completion, on failure, and on the
    /// cache-hit-after-claim path — so waiters can never deadlock on a
    /// live owner.
    pub(crate) fn settle(
        &self,
        fingerprint: &str,
        result: &Result<RunResult, CampaignError>,
        attempts: u32,
    ) -> usize {
        let waiters = lock(&self.core.inflight)
            .remove(fingerprint)
            .unwrap_or_default();
        let served = waiters.len();
        self.core.coalesced_served.add_always(served as u64);
        registry::metrics()
            .coalesce_waiters_served
            .add(served as u64);
        for waiter in waiters {
            let _ = waiter.reply.send(Delivery::Coalesced {
                slot: waiter.slot,
                result: Box::new(result.clone()),
                attempts,
            });
        }
        served
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let mut injector = lock(&self.core.injector);
        injector.closed = true;
        drop(injector);
        self.core.ready.notify_all();
    }
}

/// Poison-tolerant lock: a worker that panicked while holding a queue
/// mutex left plain data (a deque of jobs), never a broken invariant.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(core: &Core, me: usize) {
    loop {
        // Local deque first: lock-local, contention-free in steady state.
        let local = lock(&core.deques[me]).pop_front();
        if let Some(job) = local {
            execute(core, job);
            continue;
        }
        match acquire(core, me) {
            Some(job) => execute(core, job),
            None => return, // closed and drained
        }
    }
}

/// Refills an idle worker: an injector chunk, else half a peer's deque,
/// else park until submission or the rescan timeout.
fn acquire(core: &Core, me: usize) -> Option<Job> {
    loop {
        {
            let mut injector = lock(&core.injector);
            if !injector.queue.is_empty() {
                // Metrics hook (free when off): queue depth at refill
                // time and the chunk size actually moved.
                if registry::metrics_enabled() {
                    let m = registry::metrics();
                    m.engine_injector_refills.inc();
                    m.engine_queue_depth.set(injector.queue.len() as u64);
                }
                let chunk = injector
                    .queue
                    .len()
                    .div_ceil(core.workers)
                    .clamp(1, CHUNK_MAX);
                let first = injector.queue.pop_front().expect("nonempty");
                let mut moved = 1u64;
                if chunk > 1 {
                    let mut local = lock(&core.deques[me]);
                    for _ in 1..chunk {
                        match injector.queue.pop_front() {
                            Some(job) => {
                                local.push_back(job);
                                moved += 1;
                            }
                            None => break,
                        }
                    }
                }
                registry::metrics().engine_refill_chunk.observe(moved);
                let more = !injector.queue.is_empty();
                drop(injector);
                if more {
                    core.ready.notify_all();
                }
                return Some(first);
            }
            if injector.closed {
                return None;
            }
        }
        if let Some(job) = steal(core, me) {
            return Some(job);
        }
        // Park. Re-checking the injector under the lock closes the
        // submission race; the timeout bounds the steal race (work that
        // appeared in a peer deque after the scan above).
        let injector = lock(&core.injector);
        if injector.queue.is_empty() && !injector.closed {
            registry::metrics().engine_parks.inc();
            let _ = core
                .ready
                .wait_timeout(injector, IDLE_RESCAN)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            registry::metrics().engine_unparks.inc();
        }
    }
}

/// Steal-half: takes the back half of the longest peer deque into our
/// own and returns one job from it.
fn steal(core: &Core, me: usize) -> Option<Job> {
    registry::metrics().engine_steal_attempts.inc();
    let mut victim = None;
    let mut victim_len = 0;
    for (index, deque) in core.deques.iter().enumerate() {
        if index == me {
            continue;
        }
        let len = lock(deque).len();
        if len > victim_len {
            victim_len = len;
            victim = Some(index);
        }
    }
    let victim = victim?;
    let mut stolen = {
        let mut deque = lock(&core.deques[victim]);
        let keep = deque.len() / 2;
        deque.split_off(keep)
    };
    let first = stolen.pop_front()?;
    registry::metrics().engine_steals.inc();
    if !stolen.is_empty() {
        lock(&core.deques[me]).append(&mut stolen);
    }
    Some(first)
}

/// Runs one job and replies. Panic isolation: one poisoned point becomes
/// a structured record, not a dead worker. The closure only touches
/// owned/`Copy` data, so unwinding cannot leave broken invariants behind
/// (`AssertUnwindSafe` is sound here).
fn execute(core: &Core, job: Job) {
    let start = Instant::now();
    if job.attempt > 0 {
        registry::metrics().engine_retry_escalations.inc();
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(chaos) = job.chaos {
            assert!(
                !chaos.injects_panic(job.key_hash, job.port, job.attempt, job.retries),
                "chaos: injected worker panic"
            );
        }
        if job.attempt == 0 {
            try_simulate_port(&job.point.config, job.point.workload, job.port)
        } else {
            // A stall diagnosis depends on the watchdog budget; retries
            // widen it. The limit is outside the result fingerprint, so
            // a completing rerun is bit-identical.
            let mut config = job.point.config.clone();
            config.escalate_watchdog(job.attempt);
            try_simulate_port(&config, job.point.workload, job.port)
        }
    }));
    let outcome = match caught {
        Ok(Ok(observation)) => Ok(observation),
        Ok(Err(error)) => Err(CampaignError::Sim {
            port: job.port,
            error,
        }),
        Err(payload) => {
            registry::metrics().engine_panics_isolated.inc();
            Err(CampaignError::PointPanicked {
                label: job.point.config.label(),
                payload: panic_payload_string(payload.as_ref()),
            })
        }
    };
    core.executed.inc_always();
    // A dropped receiver means the submission is gone (its campaign
    // already returned); the result is simply discarded.
    let _ = job.reply.send(Delivery::Port {
        slot: job.slot,
        port: job.port,
        host: start.elapsed(),
        outcome,
    });
}

/// Renders a caught panic payload for the error record: panics raised
/// with a string literal or a formatted message carry it; anything else
/// becomes a placeholder (payloads are `Box<dyn Any>`, not `Display`).
pub(crate) fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_core::SystemConfig;
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn tiny_point(seed: u64) -> Arc<CampaignPoint> {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 120;
        config.seed = seed;
        Arc::new(CampaignPoint::new(config, Workload::Nw))
    }

    fn job_for(point: &Arc<CampaignPoint>, port: u32, reply: &mpsc::Sender<Delivery>) -> Job {
        Job {
            slot: 0,
            port,
            attempt: 0,
            point: Arc::clone(point),
            key_hash: 0,
            retries: 0,
            chaos: None,
            reply: reply.clone(),
        }
    }

    #[test]
    fn executes_submitted_jobs_and_replies() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(1);
        let ports = mn_core::port_count(&point.config);
        engine.submit((0..ports).map(|port| job_for(&point, port, &tx)));
        let mut landed = 0;
        for _ in 0..ports {
            match rx.recv().unwrap() {
                Delivery::Port { outcome, .. } => {
                    assert!(outcome.is_ok());
                    landed += 1;
                }
                Delivery::Coalesced { .. } => panic!("nothing was claimed"),
            }
        }
        assert_eq!(landed, ports);
        assert_eq!(engine.jobs_executed(), u64::from(ports));
    }

    #[test]
    fn steal_rebalances_a_lopsided_pool() {
        // More jobs than CHUNK_MAX on a 4-worker pool: the first worker
        // to wake grabs a chunk, the rest refill and steal. All jobs
        // complete exactly once regardless of who ran them.
        let engine = Engine::new(4);
        let (tx, rx) = mpsc::channel();
        let points: Vec<_> = (0..12).map(|seed| tiny_point(100 + seed)).collect();
        let ports = mn_core::port_count(&points[0].config);
        engine.submit(points.iter().flat_map(|point| {
            let tx = tx.clone();
            (0..ports).map(move |port| job_for(point, port, &tx))
        }));
        let expected = points.len() * ports as usize;
        for _ in 0..expected {
            let Delivery::Port { outcome, .. } = rx.recv().unwrap() else {
                panic!("nothing was claimed");
            };
            assert!(outcome.is_ok());
        }
        assert_eq!(engine.jobs_executed(), expected as u64);
    }

    #[test]
    fn claim_and_settle_deliver_to_waiters() {
        let engine = Engine::new(1);
        let (owner_tx, _owner_rx) = mpsc::channel();
        let (waiter_tx, waiter_rx) = mpsc::channel();
        let fp = "some-fingerprint";
        assert!(matches!(engine.claim(fp, &owner_tx, 0), Claim::Owner));
        assert!(matches!(engine.claim(fp, &waiter_tx, 3), Claim::Waiter));
        assert!(matches!(engine.claim(fp, &waiter_tx, 5), Claim::Waiter));

        let result = Err(CampaignError::LostWorker {
            landed: 0,
            expected: 1,
        });
        assert_eq!(engine.settle(fp, &result, 2), 2);
        assert_eq!(engine.coalesced_served(), 2);
        let mut slots = Vec::new();
        for _ in 0..2 {
            let Delivery::Coalesced {
                slot,
                attempts,
                result,
            } = waiter_rx.recv().unwrap()
            else {
                panic!("expected coalesced delivery");
            };
            assert_eq!(attempts, 2);
            assert!(result.is_err());
            slots.push(slot);
        }
        slots.sort_unstable();
        assert_eq!(slots, [3, 5]);

        // Settled means gone: the next claim owns a fresh entry.
        assert!(matches!(engine.claim(fp, &owner_tx, 0), Claim::Owner));
        assert_eq!(engine.settle(fp, &result, 1), 0);
    }

    #[test]
    fn drop_closes_the_pool() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(9);
        engine.submit([job_for(&point, 0, &tx)]);
        let Delivery::Port { outcome, .. } = rx.recv().unwrap() else {
            panic!("nothing was claimed");
        };
        assert!(outcome.is_ok());
        drop(engine);
        // Workers observe the closed flag and exit; nothing to assert
        // beyond "drop returns without hanging".
    }
}
