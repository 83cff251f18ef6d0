//! The shared FIFO worker pool.
//!
//! One [`Engine`] runs `(point, port)` jobs from any number of
//! concurrently submitted campaigns on a single worker pool. Two
//! properties make it safe to share:
//!
//! 1. **One queue, any order.** Every submission appends to one shared
//!    FIFO (a `Mutex<VecDeque<Job>>` and a `Condvar`); idle workers take
//!    from its front and park when it is empty. Scheduling order is
//!    irrelevant to results — every job is a pure function of
//!    `(config, workload, port)` and each submission merges its port
//!    observations in ascending port order — and every job is a
//!    millisecond-scale port simulation, so one lock per job costs
//!    nothing measurable.
//! 2. **Per-job policy.** A [`Job`] carries its attempt number (a retry
//!    widens the watchdog), whether to panic in place of simulating, and
//!    its submission's reply channel, so campaigns with different
//!    configurations coexist on one pool. The queue is refillable: a
//!    gatherer appends fresh attempts for retried points to the same
//!    FIFO.
//!
//! Workers are spawned lazily on first submission and exit when the last
//! [`Engine`] handle is dropped (the queue is closed and drained) — a
//! parked pool costs nothing but stack pages, so the process-wide
//! [`Engine::global`] can live for the whole process, serving-stack
//! style.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mn_core::{try_simulate_port, PortObservation};
use mn_telemetry::registry;

use crate::error::CampaignError;
use crate::point::CampaignPoint;

/// What the engine delivers to a submission's reply channel: one port
/// of one attempt finished (successfully or not).
pub(crate) struct Delivery {
    /// The submission-local slot (index into its unique points).
    pub(crate) slot: usize,
    /// Which port landed.
    pub(crate) port: u32,
    /// Wall-clock the worker spent on this job.
    pub(crate) host: Duration,
    /// The observation, or why there is none.
    pub(crate) outcome: Result<PortObservation, CampaignError>,
}

/// One schedulable unit: a single port of a single point attempt,
/// carrying its submission's reply.
pub(crate) struct Job {
    pub(crate) attempt: u32,
    pub(crate) point: Arc<CampaignPoint>,
    /// The worker panics instead of simulating, inside its panic
    /// isolation (the chaos harness's injected fault).
    pub(crate) chaos_panic: bool,
    pub(crate) reply: Reply,
}

/// Where a job's [`Delivery`] goes: its submission's channel, slot and
/// port. Every job replies exactly once. A reply dropped unsent — the job
/// was discarded, or its worker died outside the panic isolation —
/// delivers a retryable [`CampaignError::LostWorker`] for its port, so
/// the submission never waits on a reply that cannot come.
pub(crate) struct Reply {
    slot: usize,
    port: u32,
    channel: Option<mpsc::Sender<Delivery>>,
}

impl Reply {
    pub(crate) fn new(slot: usize, port: u32, channel: &mpsc::Sender<Delivery>) -> Reply {
        Reply {
            slot,
            port,
            channel: Some(channel.clone()),
        }
    }

    /// The port this job simulates.
    pub(crate) fn port(&self) -> u32 {
        self.port
    }

    /// Sends the delivery unless one has been sent already.
    fn deliver(&mut self, host: Duration, outcome: Result<PortObservation, CampaignError>) {
        if let Some(channel) = self.channel.take() {
            // A dropped receiver means the submission is gone (its
            // campaign already returned); the result is simply discarded.
            let _ = channel.send(Delivery {
                slot: self.slot,
                port: self.port,
                host,
                outcome,
            });
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        // This job's one observation never landed; the gatherer restates
        // the count for the whole point.
        let lost = CampaignError::LostWorker {
            landed: 0,
            expected: 1,
        };
        self.deliver(Duration::ZERO, Err(lost));
    }
}

/// The shared FIFO: submissions append, workers take from the front.
struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
    spawned: bool,
}

struct Core {
    workers: usize,
    queue: Mutex<Queue>,
    ready: Condvar,
    /// Lifetime total, always on, so campaign tests, benches and the
    /// Prometheus export read one source of truth. Per-engine, not
    /// global — tests and benches build private pools and assert on
    /// their counts.
    executed: AtomicU64,
    /// Test only: workers drop every job unrun, as a worker that died
    /// outside its panic isolation would.
    #[cfg(test)]
    lose_jobs: bool,
}

/// A shared FIFO worker pool. Cheap to create (workers spawn on first
/// submission) and safe to share across threads behind an `Arc`;
/// dropping the handle closes the pool.
pub struct Engine {
    core: Arc<Core>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.core.workers)
            .field("executed", &self.core.executed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Engine {
    /// An engine with `workers` worker threads (at least one). Threads
    /// are spawned lazily on the first submission.
    pub fn new(workers: usize) -> Engine {
        Engine {
            core: Arc::new(Core {
                workers: workers.max(1),
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    closed: false,
                    spawned: false,
                }),
                ready: Condvar::new(),
                executed: AtomicU64::new(0),
                #[cfg(test)]
                lose_jobs: false,
            }),
        }
    }

    /// Test only: an engine whose workers drop every job unrun.
    #[cfg(test)]
    pub(crate) fn losing_jobs(workers: usize) -> Engine {
        let mut engine = Engine::new(workers);
        Arc::get_mut(&mut engine.core)
            .expect("a new engine is unshared")
            .lose_jobs = true;
        engine
    }

    /// The process-wide shared engine, sized by `MN_JOBS` (or available
    /// parallelism) at first use. Every [`Campaign::from_env`] campaign
    /// submits here, so concurrent campaigns in one process share one
    /// worker pool.
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
                // The shared engine's lifetime total joins the Prometheus
                // snapshot; private pools (tests, benches) stay local.
                let core = Arc::clone(&engine.core);
                registry::register_collector("engine", move |out| {
                    registry::render_labeled_counters(
                        out,
                        "mn_engine_jobs_executed_total",
                        "Jobs executed by the shared engine since process start.",
                        &[("pool", "global", core.executed.load(Ordering::Relaxed))],
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
        self.core.executed.load(Ordering::Relaxed)
    }

    /// Appends jobs to the queue, spawning the worker pool on first
    /// use. Called both for a campaign's initial fan-out and for retry
    /// refills.
    pub(crate) fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut queue = lock(&self.core.queue);
        queue.jobs.extend(jobs);
        if queue.jobs.is_empty() {
            return;
        }
        if !queue.spawned {
            queue.spawned = true;
            for index in 0..self.core.workers {
                let core = Arc::clone(&self.core);
                let spawned = std::thread::Builder::new()
                    .name(format!("mn-engine-{index}"))
                    .spawn(move || worker_loop(&core));
                if let Err(err) = spawned {
                    // A thread that failed to spawn is a smaller pool,
                    // not a lost job: any live worker drains the shared
                    // queue. Worker 0 must exist for progress.
                    if index == 0 {
                        panic!("mn-engine: could not spawn worker 0: {err}");
                    }
                    eprintln!("warning: mn-engine worker {index} did not spawn: {err}");
                }
            }
        }
        drop(queue);
        self.core.ready.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        lock(&self.core.queue).closed = true;
        self.core.ready.notify_all();
    }
}

/// Poison-tolerant lock: a worker that panicked while holding the queue
/// mutex left plain data (a deque of jobs), never a broken invariant.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(core: &Core) {
    while let Some(job) = next_job(core) {
        #[cfg(test)]
        if core.lose_jobs {
            drop(job);
            continue;
        }
        execute(core, job);
    }
}

/// The front of the queue, parking while it is empty; `None` once the
/// pool is closed and drained.
fn next_job(core: &Core) -> Option<Job> {
    let mut queue = lock(&core.queue);
    loop {
        if registry::metrics_enabled() {
            registry::metrics()
                .engine_queue_depth
                .set(queue.jobs.len() as u64);
        }
        if let Some(job) = queue.jobs.pop_front() {
            return Some(job);
        }
        if queue.closed {
            return None;
        }
        registry::metrics().engine_parks.inc();
        queue = core
            .ready
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        registry::metrics().engine_unparks.inc();
    }
}

/// Runs one job and replies. Panic isolation: one poisoned point becomes
/// a structured record, not a dead worker. The closure only touches
/// owned/`Copy` data, so unwinding cannot leave broken invariants behind
/// (`AssertUnwindSafe` is sound here).
fn execute(core: &Core, mut job: Job) {
    let (start, port) = (Instant::now(), job.reply.port());
    if job.attempt > 0 {
        registry::metrics().engine_retry_escalations.inc();
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert!(!job.chaos_panic, "chaos: injected worker panic");
        if job.attempt == 0 {
            try_simulate_port(&job.point.config, job.point.workload, port)
        } else {
            // A stall diagnosis depends on the watchdog budget; retries
            // widen it. The limit is outside the result fingerprint, so
            // a completing rerun is bit-identical.
            let mut config = job.point.config.clone();
            config.escalate_watchdog(job.attempt);
            try_simulate_port(&config, job.point.workload, port)
        }
    }));
    let outcome = match caught {
        Ok(Ok(observation)) => Ok(observation),
        Ok(Err(error)) => Err(CampaignError::Sim { port, error }),
        Err(payload) => {
            registry::metrics().engine_panics_isolated.inc();
            Err(CampaignError::PointPanicked {
                label: job.point.config.label(),
                payload: panic_payload_string(payload.as_ref()),
            })
        }
    };
    core.executed.fetch_add(1, Ordering::Relaxed);
    job.reply.deliver(start.elapsed(), outcome);
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

    fn job_for(
        point: &Arc<CampaignPoint>,
        slot: usize,
        port: u32,
        attempt: u32,
        reply: &mpsc::Sender<Delivery>,
    ) -> Job {
        Job {
            attempt,
            point: Arc::clone(point),
            chaos_panic: false,
            reply: Reply::new(slot, port, reply),
        }
    }

    #[test]
    fn executes_submitted_jobs_and_replies() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(1);
        let ports = mn_core::port_count(&point.config);
        engine.submit((0..ports).map(|port| job_for(&point, 0, port, 0, &tx)));
        for _ in 0..ports {
            assert!(rx.recv().unwrap().outcome.is_ok());
        }
        assert_eq!(engine.jobs_executed(), u64::from(ports));
    }

    #[test]
    fn one_worker_runs_jobs_in_submission_order_and_serves_refills() {
        // A single worker takes jobs from the front of the FIFO, so its
        // replies arrive in submission order; a retry refill submitted
        // after the first reply joins the back of the queue and is
        // served like any other job.
        let engine = Engine::new(1);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(5);
        engine.submit((0..6).map(|slot| job_for(&point, slot, 0, 0, &tx)));
        let mut order = vec![rx.recv().unwrap().slot];
        engine.submit([job_for(&point, 6, 0, 1, &tx)]);
        for _ in 0..6 {
            let delivery = rx.recv().unwrap();
            assert!(delivery.outcome.is_ok());
            order.push(delivery.slot);
        }
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(engine.jobs_executed(), 7);
    }

    #[test]
    fn a_job_dropped_unrun_replies_lost_worker() {
        // Whatever discards a job (a worker dying outside its panic
        // isolation, a queue torn down) still answers for its port, so
        // the submission's gatherer cannot wait forever.
        let (tx, rx) = mpsc::channel();
        drop(job_for(&tiny_point(3), 4, 2, 0, &tx));
        let delivery = rx.try_recv().expect("dropping the job replied");
        assert_eq!((delivery.slot, delivery.port), (4, 2));
        assert_eq!(delivery.host, Duration::ZERO);
        let Err(error) = delivery.outcome else {
            panic!("a dropped job has no observation")
        };
        assert!(matches!(error, CampaignError::LostWorker { .. }));
        assert!(error.is_retryable());
        assert!(rx.try_recv().is_err(), "exactly one reply per job");
    }

    #[test]
    fn drop_closes_the_pool() {
        let engine = Engine::new(2);
        let (tx, rx) = mpsc::channel();
        let point = tiny_point(9);
        engine.submit([job_for(&point, 0, 0, 0, &tx)]);
        assert!(rx.recv().unwrap().outcome.is_ok());
        drop(engine);
        // Workers observe the closed flag and exit; nothing to assert
        // beyond "drop returns without hanging".
    }
}
