//! The discrete-event grid simulation engine.
//!
//! Implements the execution model of §2.2 of the paper:
//!
//! * an idle worker asks the global scheduler for work (worker-centric
//!   strategies decide *now*; the task-centric baseline serves its
//!   pre-computed queues);
//! * the assigned task issues **one batch file request** to the site's
//!   data server;
//! * the data server serves requests **FIFO, one at a time**: it determines
//!   which files are missing *at service time*, pins the present ones, and
//!   fetches the missing ones sequentially from the external file server
//!   over the flow-level network (max–min fair sharing against every other
//!   site's concurrent transfers);
//! * when all files are local the worker computes for
//!   `flops / speed` seconds, then becomes idle again;
//! * completions may cancel replica executions (storage affinity), which
//!   aborts queued requests, in-flight transfers or running computations.
//!
//! The engine is fully deterministic given the [`SimConfig`] (including
//! seeds).
//!
//! Each optional subsystem — `faults`, the transfer `guard`,
//! `checkpoint`, `control` and `replication` — is a submodule that owns
//! its state behind one `Option` on [`GridSim`] and reaches the model
//! through a few narrow hooks. `None` keeps every path of the subsystem
//! dormant, so the run matches the engine without it byte for byte.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use gridsched_core::GridEnv;
use gridsched_core::{
    Assignment, CapController, ControlPlane, ReplicaThrottle, Scheduler, SiteId, StorageAffinity,
    StrategyKind, Sufferage, WorkerCentric, WorkerId, Workqueue,
};
use gridsched_des::rng::{rng_for, Stream};
use gridsched_des::{EventHandle, Schedule, SimDuration, SimTime};
use gridsched_net::{FlowId, NetSim};
use gridsched_storage::SiteStore;
use gridsched_telemetry::{
    expose, Counter, DigestFold, Histogram, MetricsServer, ProbeSample, SiteProbe, Telemetry, Track,
};
use gridsched_topology::{generate, EdgeId, Route};
use gridsched_workload::{FileId, TaskId};

use crate::config::SimConfig;
use crate::metrics::{MetricsReport, SiteMetrics};

mod checkpoint;
mod control;
mod faults;
mod guard;
mod replication;

use checkpoint::CkptState;
use faults::FaultState;
use guard::XferGuard;
use replication::Replication;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Poll the scheduler for this (flat-indexed) worker.
    WorkerIdle(usize),
    /// The network says this flow completed.
    FlowDone(FlowId),
    /// A worker finished computing a task.
    ComputeDone {
        worker: usize,
        task: TaskId,
        generation: u64,
    },
    /// Fault injection: this (flat-indexed) worker crashes.
    WorkerCrash(usize),
    /// Fault injection: this worker's repair completes.
    WorkerRecover(usize),
    /// Fault injection: this site's data server goes down (file loss).
    ServerFail(usize),
    /// Fault injection: this site's data server comes back.
    ServerRecover(usize),
    /// Checkpointing: this worker's compute segment ended — commit the
    /// progress and write an image.
    CheckpointDue { worker: usize, generation: u64 },
    /// Fault injection: a correlated crash burst strikes one site (drawn
    /// at dispatch time from the burst process's own RNG stream).
    BurstStrike,
    /// Fault injection: a backbone link fails — hard (flows stall) or
    /// degraded (capacity × the configured factor).
    LinkFail { link: usize, hard: bool },
    /// Fault injection: the link's repair completes.
    LinkRecover { link: usize },
    /// Transfer guard: `site`'s in-flight batch fetch blew its deadline.
    /// `epoch` stamps the guard-slot arming that scheduled this event;
    /// a mismatch at dispatch identifies it as stale.
    TransferTimeout { site: usize, epoch: u64 },
    /// Transfer guard: `site`'s backoff elapsed — re-issue the fetch.
    TransferRetry { site: usize, epoch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    Idle,
    WaitingData,
    /// Fetching a checkpoint image from another site before resuming
    /// (checkpointing only; input files are already pinned locally).
    Restoring,
    Computing,
    /// Scheduler said [`Assignment::Wait`]; re-polled after the next
    /// assignment or completion.
    Parked,
    /// Crashed (fault injection); comes back via [`Event::WorkerRecover`].
    Down,
    Done,
}

#[derive(Debug)]
struct RunningTask {
    task: TaskId,
    /// Whether this execution was launched as a replica
    /// ([`Assignment::Replicate`]) — drives the replica accounting split
    /// (completed vs cancelled vs fault-lost) and, under an active replica
    /// throttle, the targeted wake-ups when the execution ends.
    is_replica: bool,
    /// Files currently pinned on behalf of this execution.
    pinned: Vec<FileId>,
    compute_handle: Option<EventHandle>,
    /// When the current compute segment started (for wasted-compute
    /// accounting on aborts); `None` while stalled writing a checkpoint.
    compute_started: Option<SimTime>,
    // --- checkpoint/restart bookkeeping (all zero/None when
    // checkpointing is off) ---
    /// Flops already completed: restored progress plus segments committed
    /// this execution.
    progress_flops: f64,
    /// Compute-seconds embodied in `progress_flops` (across executions).
    progress_s: f64,
    /// Progress held by the latest durable image of this task — what a
    /// crash does *not* waste.
    durable_flops: f64,
    /// Compute-seconds held by the latest durable image.
    durable_s: f64,
    /// In-flight checkpoint image write or restore fetch.
    ckpt_flow: Option<FlowId>,
    /// When `ckpt_flow` started (overhead accounting).
    ckpt_flow_started: Option<SimTime>,
    /// Image contents (flops, invested seconds) being written by
    /// `ckpt_flow`.
    pending_image: Option<(f64, f64)>,
}

impl RunningTask {
    fn new(task: TaskId, is_replica: bool) -> Self {
        RunningTask {
            task,
            is_replica,
            pinned: Vec::new(),
            compute_handle: None,
            compute_started: None,
            progress_flops: 0.0,
            progress_s: 0.0,
            durable_flops: 0.0,
            durable_s: 0.0,
            ckpt_flow: None,
            ckpt_flow_started: None,
            pending_image: None,
        }
    }
}

#[derive(Debug)]
struct Worker {
    id: WorkerId,
    speed_flops: f64,
    state: WorkerState,
    generation: u64,
    current: Option<RunningTask>,
    /// When the worker crashed, while it is [`WorkerState::Down`].
    down_since: Option<SimTime>,
}

#[derive(Debug)]
struct BatchRequest {
    worker: usize,
    /// The worker's generation when the request was enqueued. Cancelled
    /// executions leave their entry in the queue (removal would be an
    /// O(queue) scan — ruinous under replica storms at 10⁵ workers); a
    /// generation mismatch at pop time identifies it as stale, which is
    /// behaviourally identical to eager removal because a skipped entry
    /// consumes no service time.
    generation: u64,
    enqueued_at: SimTime,
}

#[derive(Debug)]
struct ActiveBatch {
    worker: usize,
    service_start: SimTime,
    /// Missing files still to fetch, in task order.
    to_fetch: VecDeque<FileId>,
    /// The in-flight file, if any.
    current: Option<(FileId, FlowId)>,
}

#[derive(Debug, Default)]
struct DataServer {
    queue: VecDeque<BatchRequest>,
    active: Option<ActiveBatch>,
    /// Fault injection: the server is down and serves nothing.
    down: bool,
    /// When the outage started, while down.
    down_since: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
enum FlowPurpose {
    /// A file of the active batch at `site`.
    Batch { site: usize },
    /// A proactive replication push of `file` to `site`.
    Replication { site: usize, file: FileId },
    /// A checkpoint image write from `worker` to its site's data server.
    Checkpoint { worker: usize },
    /// A checkpoint image fetch for `worker`'s resumed task from
    /// `from_site`'s data server.
    Restore { worker: usize, from_site: usize },
}

/// The engine's cached instrument handles (the facade's registry lookup
/// is a `BTreeMap` walk — too slow for per-event hot paths). Inert handles
/// when the collector is disabled.
struct Instruments {
    wake_calls: Counter,
    wake_fanout: Histogram,
    wake_targeted: Counter,
    control_ticks: Counter,
    control_estimates: Counter,
    control_cap_raises: Counter,
    control_cap_lowers: Counter,
    control_breaker_opens: Counter,
    control_breaker_half_opens: Counter,
    control_breaker_closes: Counter,
    link_outages: Counter,
    xfer_timeouts: Counter,
    xfer_retries: Counter,
    xfer_failovers: Counter,
    xfer_bytes_resumed: Histogram,
}

impl Instruments {
    /// Handles registered on `telemetry` under the canonical instrument
    /// names.
    fn attach(telemetry: &Telemetry) -> Self {
        Instruments {
            wake_calls: telemetry.counter("engine.wake.calls"),
            wake_fanout: telemetry.histogram("engine.wake.fanout"),
            wake_targeted: telemetry.counter("engine.wake.targeted"),
            control_ticks: telemetry.counter("control.ticks"),
            control_estimates: telemetry.counter("control.estimator.updates"),
            control_cap_raises: telemetry.counter("control.cap.raises"),
            control_cap_lowers: telemetry.counter("control.cap.lowers"),
            control_breaker_opens: telemetry.counter("control.breaker.opens"),
            control_breaker_half_opens: telemetry.counter("control.breaker.half_opens"),
            control_breaker_closes: telemetry.counter("control.breaker.closes"),
            link_outages: telemetry.counter("net.link.outages"),
            xfer_timeouts: telemetry.counter("xfer.timeouts"),
            xfer_retries: telemetry.counter("xfer.retries"),
            xfer_failovers: telemetry.counter("xfer.failovers"),
            xfer_bytes_resumed: telemetry.histogram("xfer.bytes_resumed"),
        }
    }
}

/// One deterministic simulation run. See the [crate docs](crate) for an
/// example.
pub struct GridSim {
    config: SimConfig,
    /// Shared per-site routes to the file server: flows borrow these
    /// instead of cloning a `Route` per transfer (engine hot path). The
    /// full [`gridsched_topology::Topology`] is dropped after
    /// construction — only the routes are needed at run time.
    site_routes: Vec<Arc<Route>>,
    schedule: Schedule<Event>,
    net: NetSim,
    net_handle: Option<EventHandle>,
    stores: Vec<SiteStore>,
    scheduler: Box<dyn Scheduler>,
    workers: Vec<Worker>,
    servers: Vec<DataServer>,
    /// Flat indices of workers in [`WorkerState::Parked`], grouped by
    /// site — lets [`GridSim::wake_parked`] run in O(parked) instead of
    /// scanning every worker on every completion, and lets the replica
    /// throttle hand a freed site-budget slot to exactly one parked worker
    /// of that site ([`GridSim::wake_one_parked`]) instead of re-polling
    /// the entire parked population (ruinous at 10⁵ workers).
    parked: Vec<BTreeSet<usize>>,
    /// Total entries across `parked` (stale entries included): the `== 0`
    /// fast path keeps [`GridSim::wake_parked`] from walking all S per-site
    /// sets on every assignment/completion when nothing is parked — the
    /// common case for the never-waiting worker-centric strategies, whose
    /// wake-up cost would otherwise grow `O(S)` per event.
    parked_count: usize,
    /// Whether the replica throttle governs this run (storage affinity
    /// with an active [`gridsched_core::ReplicaThrottle`]). Throttled runs
    /// use targeted wake-ups; unthrottled runs keep the legacy
    /// wake-everyone behaviour byte for byte.
    throttled: bool,
    /// The observability collector. Disabled unless the config requests
    /// an output (or a test injects one via [`GridSim::with_telemetry`]);
    /// recording through it is provably inert either way — no RNG draw, no
    /// event, no effect on any scheduling decision.
    telemetry: Telemetry,
    /// Cached engine instruments.
    instruments: Instruments,
    flow_purpose: HashMap<FlowId, FlowPurpose>,
    /// Proactive replication (`None` = no pushes).
    replication: Option<Replication>,
    /// Fault injection (`None` = the fault-free engine).
    faults: Option<FaultState>,
    /// Checkpoint/restart (`None` = the checkpoint-free engine).
    checkpointing: Option<CkptState>,
    /// Closed-loop controllers (`None` = the open-loop engine).
    control: Option<ControlPlane>,
    /// Transfer-resilience layer (`None` = the unguarded engine).
    xfer: Option<XferGuard>,
    /// Tasks that were fault-orphaned at least once (re-execution
    /// accounting).
    lost_ever: Vec<bool>,
    /// The run's metrics, accumulated in place by the handlers;
    /// [`GridSim::report`] fills in the derived fields.
    ledger: MetricsReport,
    /// When the last task completed (the makespan).
    last_completion: SimTime,
}

impl GridSim {
    /// Builds the simulation state for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. more sites than
    /// the topology provides).
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let topology = generate(&config.topology);
        assert!(
            config.sites <= topology.sites.len(),
            "config uses {} sites but topology has {}",
            config.sites,
            topology.sites.len()
        );
        assert!(
            !config.replica_throttle.is_active()
                || config.strategy == StrategyKind::StorageAffinity,
            "the replica throttle only applies to storage-affinity \
             (configured strategy: {})",
            config.strategy
        );
        // The builders already reject zero bounds, but the struct's public
        // fields (and deserialized configs) can bypass them — and a zero
        // cap can deadlock churned runs (a fault-orphaned task that is in
        // nobody's queue can only come back as a replica).
        assert!(
            config.replica_throttle.replica_cap != Some(0)
                && config.replica_throttle.site_budget != Some(0),
            "replica cap and site replica budget must be >= 1"
        );
        assert!(
            !config.control.adaptive_throttle || config.strategy == StrategyKind::StorageAffinity,
            "the adaptive replica throttle only applies to storage-affinity \
             (configured strategy: {})",
            config.strategy
        );
        assert!(
            config
                .faults
                .as_ref()
                .is_none_or(|f| f.burst_rate_s.is_none() || f.worker_mtbf_s.is_some()),
            "correlated crash bursts need worker faults (burst victims repair \
             through the worker MTTR process)"
        );
        assert!(
            config.checkpointing.as_ref().is_none_or(
                |c| c.policy != gridsched_checkpoint::CheckpointPolicy::YoungDalyAdaptive
            ) || config.control.adaptive_checkpoint,
            "young-daly-adaptive checkpointing needs the adaptive-checkpoint \
             control loop"
        );
        // An adaptive throttle with no user-configured throttle starts
        // from the controller's default cap; the user's own bounds win
        // when present. The *configured* throttle stays in the summary —
        // the controller's moving cap is runtime state, not config.
        let effective_throttle =
            if config.control.adaptive_throttle && !config.replica_throttle.is_active() {
                ReplicaThrottle::none().with_replica_cap(CapController::DEFAULT_START_CAP)
            } else {
                config.replica_throttle
            };
        let telemetry = if config.telemetry_requested() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let mut net = NetSim::new(topology.graph.bandwidths());
        net.attach_telemetry(&telemetry);
        let stores: Vec<SiteStore> = (0..config.sites)
            .map(|_| SiteStore::new(config.capacity_files, config.policy))
            .collect();

        let mut speed_rng = rng_for(config.seed, Stream::WorkerSpeeds);
        let mut workers = Vec::with_capacity(config.sites * config.workers_per_site);
        for site in 0..config.sites {
            for index in 0..config.workers_per_site {
                workers.push(Worker {
                    id: WorkerId::new(SiteId(site as u32), index as u32),
                    speed_flops: config.speeds.sample(&mut speed_rng),
                    state: WorkerState::Idle,
                    generation: 0,
                    current: None,
                    down_since: None,
                });
            }
        }
        let servers = (0..config.sites).map(|_| DataServer::default()).collect();
        let mut scheduler = build_scheduler(&config, effective_throttle);
        scheduler.attach_telemetry(&telemetry);
        let faults = FaultState::new(&config, workers.len(), net.link_count());
        let site_routes: Vec<Arc<Route>> = (0..config.sites)
            .map(|s| Arc::new(topology.routes.site_to_file_server(s).clone()))
            .collect();
        let checkpointing = config
            .checkpointing
            .as_ref()
            .filter(|c| !c.is_inert())
            .map(|c| CkptState::new(c, &config, &site_routes, &topology.graph));
        let control = (!config.control.is_inert()).then(|| {
            let start_cap = effective_throttle
                .replica_cap
                .unwrap_or(CapController::DEFAULT_START_CAP);
            ControlPlane::new(
                config.control,
                config.sites,
                u32::try_from(config.workers_per_site).expect("workers_per_site fits u32"),
                start_cap,
            )
        });
        GridSim {
            ledger: MetricsReport {
                config: config.summary(),
                per_site: vec![SiteMetrics::default(); config.sites],
                ..MetricsReport::default()
            },
            replication: Replication::new(&config),
            xfer: config
                .transfer_timeout_mult
                .map(|mult| XferGuard::new(&config, mult)),
            lost_ever: vec![false; config.workload.task_count()],
            parked: vec![BTreeSet::new(); config.sites],
            config,
            site_routes,
            schedule: Schedule::new(),
            net,
            net_handle: None,
            stores,
            scheduler,
            workers,
            servers,
            parked_count: 0,
            throttled: effective_throttle.is_active(),
            instruments: Instruments::attach(&telemetry),
            telemetry,
            flow_purpose: HashMap::new(),
            faults,
            checkpointing,
            control,
            last_completion: SimTime::ZERO,
        }
    }

    /// Replaces the telemetry collector. [`Telemetry`] is a shared handle:
    /// tests and examples keep a clone, run the simulation, and inspect
    /// everything it recorded afterwards. Must be called before
    /// [`GridSim::run`] (instrument handles are re-distributed here, ahead
    /// of the scheduler's `initialize`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.scheduler.attach_telemetry(&telemetry);
        self.net.attach_telemetry(&telemetry);
        self.instruments = Instruments::attach(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The run's telemetry collector (disabled unless requested).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Runs the simulation to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (events drain while tasks remain
    /// unfinished) — this would indicate a scheduler bug — or if a
    /// configured telemetry output path cannot be written.
    #[must_use]
    pub fn run(mut self) -> MetricsReport {
        let env = GridEnv {
            sites: self.config.sites,
            workers_per_site: self.config.workers_per_site,
            capacity_files: self.config.capacity_files,
        };
        self.scheduler.initialize(&env, &self.stores);
        for w in 0..self.workers.len() {
            self.schedule.schedule_now(Event::WorkerIdle(w));
        }
        self.arm_faults();
        // The probe sampler runs between dispatched events, never *as* an
        // event: boundaries are computed as k·dt (not accumulated) so the
        // series is exact and strictly increasing, and the event queue —
        // including `events_dispatched` — never sees it.
        let probe_dt = self
            .config
            .probe_interval_s
            .filter(|_| self.telemetry.is_enabled());
        let mut probes_emitted: u64 = 0;
        // The determinism digest follows the same discipline: it folds
        // each popped event into a rolling hash right here, between
        // dispatches — never scheduling anything, drawing no randomness.
        let mut digest = self
            .config
            .digest_out
            .as_ref()
            .map(|_| DigestFold::new(self.config.digest_window_s));
        let server = self.config.serve_metrics.as_deref().map(|addr| {
            MetricsServer::start(addr)
                .unwrap_or_else(|e| panic!("cannot serve metrics at {addr}: {e}"))
        });
        // Controller ticks follow the probe sampler's not-an-event
        // discipline: boundaries are computed as k·dt between dispatches,
        // the event queue never sees them, and with every loop disabled
        // (`control: None`) the block is dead code — the open-loop engine
        // byte for byte. Actuation a tick performs (cap moves, wake-ups)
        // lands at the *current* event's time, like any handler's.
        let tick_dt = self.control.as_ref().map(|c| c.config().tick_s);
        let mut ticks_emitted: u64 = 0;
        let mut dispatched: u64 = 0;
        while let Some((now, event)) = self.schedule.next() {
            while let Some(at) = next_boundary(probe_dt, &mut probes_emitted, now) {
                self.record_probe(at);
            }
            while let Some(at) = next_boundary(tick_dt, &mut ticks_emitted, now) {
                self.control_tick(at);
            }
            if let Some(d) = digest.as_mut() {
                Self::fold_event(d, now, &event);
            }
            dispatched += 1;
            if let Some(server) = &server {
                // Refresh the served snapshot at a coarse event cadence
                // (wall-clock timers would be nondeterministic state).
                if dispatched.is_multiple_of(65_536) {
                    server.publish(self.render_exposition(dispatched));
                }
            }
            match event {
                Event::WorkerIdle(w) => self.handle_worker_idle(w),
                Event::FlowDone(fid) => self.handle_flow_done(fid),
                Event::ComputeDone {
                    worker,
                    task,
                    generation,
                } => self.handle_compute_done(worker, task, generation),
                Event::WorkerCrash(w) => self.handle_worker_crash(w),
                Event::WorkerRecover(w) => self.handle_worker_recover(w),
                Event::ServerFail(s) => self.handle_server_fail(s),
                Event::ServerRecover(s) => self.handle_server_recover(s),
                Event::CheckpointDue { worker, generation } => {
                    self.handle_checkpoint_due(worker, generation);
                }
                Event::BurstStrike => self.handle_burst_strike(),
                Event::LinkFail { link, hard } => self.handle_link_fail(link, hard),
                Event::LinkRecover { link } => self.handle_link_recover(link),
                Event::TransferTimeout { site, epoch } => {
                    self.handle_transfer_timeout(site, epoch);
                }
                Event::TransferRetry { site, epoch } => self.handle_transfer_retry(site, epoch),
            }
        }
        assert_eq!(
            self.scheduler.unfinished(),
            0,
            "simulation deadlocked with {} unfinished tasks ({})",
            self.scheduler.unfinished(),
            self.scheduler.name()
        );
        self.close_open_windows();
        let report = self.report();
        self.flush_telemetry();
        if let Some(d) = digest {
            let stream = d.finish();
            if let Some(path) = &self.config.digest_out {
                std::fs::write(path, stream.to_jsonl())
                    .unwrap_or_else(|e| panic!("cannot write digest to {path}: {e}"));
            }
        }
        if let Some(server) = &server {
            server.publish(self.render_exposition(dispatched));
            if self.config.serve_linger_s > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    self.config.serve_linger_s,
                ));
            }
        }
        report
    }

    /// Encodes one dispatched event into the digest fold: the timestamp
    /// bits, an event tag, then the payload words. Any change to what the
    /// engine dispatches — ordering, timing or payload — changes the
    /// chain.
    fn fold_event(digest: &mut DigestFold, now: SimTime, event: &Event) {
        let t = now.as_secs();
        match *event {
            Event::WorkerIdle(w) => digest.record(t, &[0, w as u64]),
            Event::FlowDone(fid) => digest.record(t, &[1, fid.raw()]),
            Event::ComputeDone {
                worker,
                task,
                generation,
            } => digest.record(t, &[2, worker as u64, task.index() as u64, generation]),
            Event::WorkerCrash(w) => digest.record(t, &[3, w as u64]),
            Event::WorkerRecover(w) => digest.record(t, &[4, w as u64]),
            Event::ServerFail(s) => digest.record(t, &[5, s as u64]),
            Event::ServerRecover(s) => digest.record(t, &[6, s as u64]),
            Event::CheckpointDue { worker, generation } => {
                digest.record(t, &[7, worker as u64, generation]);
            }
            // Tag 8 only ever appears when bursts are configured, so the
            // disabled digest chain stays byte-identical.
            Event::BurstStrike => digest.record(t, &[8]),
            // Tags 9–12 likewise only appear when link faults / the
            // transfer guard are configured.
            Event::LinkFail { link, hard } => {
                digest.record(t, &[9, link as u64, u64::from(hard)]);
            }
            Event::LinkRecover { link } => digest.record(t, &[10, link as u64]),
            Event::TransferTimeout { site, epoch } => {
                digest.record(t, &[11, site as u64, epoch]);
            }
            Event::TransferRetry { site, epoch } => {
                digest.record(t, &[12, site as u64, epoch]);
            }
        }
    }

    /// Renders the live `/metrics` body: the instrument registry in
    /// Prometheus text format plus run-level gauges.
    fn render_exposition(&self, events_dispatched: u64) -> String {
        let mut out = gridsched_telemetry::render_prometheus(&self.telemetry.snapshot());
        for (name, kind, value) in [
            ("gridsched_sim_time_seconds", "gauge", self.now().as_secs()),
            (
                "gridsched_events_dispatched_total",
                "counter",
                events_dispatched as f64,
            ),
            (
                "gridsched_tasks_completed_total",
                "counter",
                self.ledger.tasks_completed as f64,
            ),
        ] {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            expose::write_sample(&mut out, name, &[], value);
        }
        out.push_str("# TYPE gridsched_run_info gauge\n");
        expose::write_sample(
            &mut out,
            "gridsched_run_info",
            &[
                ("strategy", &self.config.strategy.to_string()),
                ("sites", &self.config.sites.to_string()),
                (
                    "workers_per_site",
                    &self.config.workers_per_site.to_string(),
                ),
                ("seed", &self.config.seed.to_string()),
            ],
            1.0,
        );
        out
    }

    /// Samples the grid's state at probe boundary `at` — queue depths,
    /// worker states, store occupancy, network load — into the telemetry
    /// time series.
    fn record_probe(&self, at: SimTime) {
        let mut sites = vec![SiteProbe::default(); self.config.sites];
        for (s, server) in self.servers.iter().enumerate() {
            sites[s].queue_depth = server.queue.len() as u64;
            sites[s].server_down = server.down;
            sites[s].server_files = self.stores[s].len() as u64;
            // Without a placement loop: the neutral multiplier.
            let score = self
                .control
                .as_ref()
                .filter(|plane| plane.placement_enabled())
                .map_or(1.0, |plane| plane.site_scores()[s].clamp(0.0, 1.0));
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let milli = (score * 1000.0).round() as u64;
            sites[s].control_score_milli = milli;
        }
        for w in &self.workers {
            let site = &mut sites[w.id.site.index()];
            match w.state {
                WorkerState::WaitingData | WorkerState::Restoring | WorkerState::Computing => {
                    site.busy_workers += 1;
                }
                WorkerState::Parked => site.parked_workers += 1,
                WorkerState::Down => site.dead_workers += 1,
                WorkerState::Idle | WorkerState::Done => {}
            }
        }
        self.telemetry.record_probe(ProbeSample {
            t_s: at.as_secs(),
            sites,
            in_flight_flows: self.net.active_flows() as u64,
            links_busy: self.net.busy_links() as u64,
            links_total: self.net.link_count() as u64,
            links_down: self.net.links_down() as u64,
        });
    }

    /// Writes the configured telemetry outputs, if any.
    fn flush_telemetry(&self) {
        if let Some(path) = &self.config.trace_out {
            std::fs::write(path, self.telemetry.to_chrome_trace())
                .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        }
        if let Some(path) = &self.config.metrics_out {
            std::fs::write(path, self.telemetry.to_jsonl())
                .unwrap_or_else(|e| panic!("cannot write metrics to {path}: {e}"));
        }
    }

    fn now(&self) -> SimTime {
        self.schedule.now()
    }

    // ----- scheduler interaction -------------------------------------

    fn handle_worker_idle(&mut self, w: usize) {
        // Only idle and parked workers poll; anything else is a stale
        // re-poll (the worker got work, finished entirely, is
        // mid-execution, or crashed before the poll fired).
        if !matches!(
            self.workers[w].state,
            WorkerState::Idle | WorkerState::Parked
        ) {
            return;
        }
        let worker_id = self.workers[w].id;
        let site = worker_id.site.index();
        // An open breaker gates dispatch for *every* strategy at the
        // engine, before the scheduler is even consulted — no scheduler
        // state is perturbed, so closing the breaker restores the exact
        // open-loop decision sequence for the parked workers. Half-open
        // probes and closes wake the site's parked population again.
        if self
            .control
            .as_ref()
            .is_some_and(|p| p.dispatch_blocked(site))
        {
            self.park(w);
            return;
        }
        let assignment = self.scheduler.on_worker_idle(worker_id, &self.stores[site]);
        match assignment {
            Assignment::Run(task) | Assignment::Replicate(task) => {
                let is_replica = matches!(assignment, Assignment::Replicate(_));
                if is_replica {
                    self.ledger.replicas_launched += 1;
                }
                if self.lost_ever[task.index()] {
                    self.ledger.re_executions += 1;
                }
                self.workers[w].state = WorkerState::WaitingData;
                self.workers[w].current = Some(RunningTask::new(task, is_replica));
                self.telemetry.span_begin_for_task(
                    Track::worker(w),
                    "queued",
                    self.now().as_secs(),
                    task.index() as u64,
                );
                let enqueued_at = self.now();
                let generation = self.workers[w].generation;
                self.servers[site].queue.push_back(BatchRequest {
                    worker: w,
                    generation,
                    enqueued_at,
                });
                self.maybe_start_service(site);
                // New running task → replication candidates changed. Under
                // a throttle this re-poll is pointless (a new execution
                // never frees a cap or budget slot) and waking 10⁵ parked
                // workers per assignment would recreate the storm.
                if !self.throttled {
                    self.wake_parked();
                }
            }
            Assignment::Wait => {
                self.park(w);
            }
            Assignment::Finished => {
                // Under active faults "finished" is never final: a crash
                // may orphan a task at any time, so keep the worker
                // available for a wake-up instead of retiring it.
                if self.faults.is_some() {
                    self.park(w);
                } else {
                    self.workers[w].state = WorkerState::Done;
                }
            }
        }
    }

    fn park(&mut self, w: usize) {
        self.workers[w].state = WorkerState::Parked;
        let site = self.workers[w].id.site.index();
        if self.parked[site].insert(w) {
            self.parked_count += 1;
        }
    }

    /// Moves parked worker `w` back to idle and polls it now. Returns
    /// `false` (and does nothing) for a stale entry — a worker that
    /// crashed since parking.
    fn unpark(&mut self, w: usize) -> bool {
        if self.workers[w].state != WorkerState::Parked {
            return false;
        }
        self.workers[w].state = WorkerState::Idle;
        self.schedule.schedule_now(Event::WorkerIdle(w));
        true
    }

    /// Wakes every parked worker, in ascending index order (matching a
    /// full scan, so event order — and hence every downstream decision —
    /// is unchanged). `O(1)` when nothing is parked.
    fn wake_parked(&mut self) {
        self.instruments.wake_calls.incr();
        self.instruments
            .wake_fanout
            .record(self.parked_count as u64);
        if self.parked_count == 0 {
            return;
        }
        // Each site owns a contiguous range of worker indices, so site by
        // site is ascending index order.
        for site in 0..self.parked.len() {
            self.wake_site_parked(site);
        }
    }

    /// Wakes the lowest-indexed parked worker of `site`, if any — the
    /// targeted hand-off of a replica slot freed at `site` (a replica won,
    /// was cancelled, or died) under an active throttle (`O(log parked)`,
    /// vs re-polling the whole parked population).
    fn wake_one_parked(&mut self, site: usize) {
        self.instruments.wake_targeted.incr();
        while let Some(w) = self.parked[site].pop_first() {
            self.parked_count -= 1;
            if self.unpark(w) {
                return;
            }
        }
    }

    /// Wakes every parked worker of `site`, in ascending index order — a
    /// closing circuit breaker re-opens the whole site at once.
    fn wake_site_parked(&mut self, site: usize) {
        let list = std::mem::take(&mut self.parked[site]);
        self.parked_count -= list.len();
        for w in list {
            self.unpark(w);
        }
    }

    // ----- data-server service loop -----------------------------------

    fn maybe_start_service(&mut self, site: usize) {
        if self.servers[site].down || self.servers[site].active.is_some() {
            return;
        }
        let request = loop {
            let Some(request) = self.servers[site].queue.pop_front() else {
                return;
            };
            // Skip entries whose execution was torn down since enqueueing
            // (replica cancels, crashes) — see `BatchRequest::generation`.
            if self.workers[request.worker].generation == request.generation {
                break request;
            }
        };
        let w = request.worker;
        let t = self.now().as_secs();
        let task = self.task_of(w);
        self.telemetry.span_end(Track::worker(w), "queued", t);
        self.telemetry
            .span_begin_for_task(Track::worker(w), "staging", t, task.index() as u64);
        let files: Vec<FileId> = self.config.workload.task(task).files().to_vec();
        // Waiting time: enqueue → service start (Table 3 column 1).
        let waited = (self.now() - request.enqueued_at).as_secs();
        let sm = &mut self.ledger.per_site[site];
        sm.requests += 1;
        sm.waiting_time_s += waited;
        // Pin what is present; fetch the rest.
        let mut to_fetch = VecDeque::new();
        for &f in &files {
            if self.stores[site].contains(f) {
                self.pin(site, w, f);
            } else {
                to_fetch.push_back(f);
            }
        }
        self.servers[site].active = Some(ActiveBatch {
            worker: w,
            service_start: self.now(),
            to_fetch,
            current: None,
        });
        self.advance_batch(site);
    }

    /// Starts the next missing-file transfer of `site`'s active batch, or
    /// completes the batch when nothing is left.
    fn advance_batch(&mut self, site: usize) {
        loop {
            let batch = self.servers[site]
                .active
                .as_mut()
                .expect("advance_batch requires an active batch");
            debug_assert!(batch.current.is_none());
            let Some(file) = batch.to_fetch.pop_front() else {
                self.finish_batch(site);
                return;
            };
            let w = batch.worker;
            // The file may have arrived meanwhile (replication push).
            if self.stores[site].contains(file) {
                self.pin(site, w, file);
                continue;
            }
            let route = Arc::clone(&self.site_routes[site]);
            let bytes = self.config.workload.file_size_bytes;
            let fid = self.start_flow(
                &route.links,
                bytes,
                route.latency_s,
                FlowPurpose::Batch { site },
            );
            self.servers[site]
                .active
                .as_mut()
                .expect("still active")
                .current = Some((file, fid));
            self.resync_net();
            self.guard_fresh_fetch(site, bytes, &route);
            return;
        }
    }

    /// All files of the active batch are pinned locally: account transfer
    /// time, bump `r_i`, start the computation, and free the server.
    fn finish_batch(&mut self, site: usize) {
        let batch = self.servers[site].active.take().expect("active batch");
        let w = batch.worker;
        self.telemetry
            .span_end(Track::worker(w), "staging", self.now().as_secs());
        let transfer_time = (self.now() - batch.service_start).as_secs();
        self.ledger.per_site[site].transfer_time_s += transfer_time;
        self.ledger.per_site[site].tasks_started += 1;

        let task = self.task_of(w);
        let workload = Arc::clone(&self.config.workload);
        let files = workload.task(task).files();
        for &f in files {
            self.stores[site].record_task_reference(f);
        }
        self.scheduler
            .on_task_references(SiteId(site as u32), files);
        self.maybe_replicate(files, site);

        // Checkpoint restore: a re-executed task resumes from its latest
        // surviving image instead of recomputing from scratch. A remote
        // image must first cross the network; compute starts on arrival.
        if !self.try_restore(w, site) {
            self.begin_compute_segment(w);
        }

        // The server moves on to the next queued request.
        self.maybe_start_service(site);
    }

    /// The task worker `w` is executing.
    fn task_of(&self, w: usize) -> TaskId {
        self.workers[w]
            .current
            .as_ref()
            .expect("worker is executing a task")
            .task
    }

    /// Pins `file` at `site` on behalf of worker `w`'s execution.
    fn pin(&mut self, site: usize, w: usize, file: FileId) {
        self.stores[site].pin(file);
        self.workers[w]
            .current
            .as_mut()
            .expect("pinning worker is running")
            .pinned
            .push(file);
    }

    /// Dissolves `site`'s active batch, if any, and returns its worker:
    /// aborts the in-flight fetch (the bytes that did arrive stay booked)
    /// and books the service time spent as transfer time. The worker keeps
    /// its task and pins; the transfer guard is the caller's to stand
    /// down.
    fn dissolve_batch(&mut self, site: usize) -> Option<usize> {
        let batch = self.servers[site].active.take()?;
        if let Some((_file, fid)) = batch.current {
            let attempt = self.attempt_bytes(site);
            if let Some(left) = self.abort_flow(fid) {
                self.ledger.per_site[site].bytes_transferred += (attempt - left).max(0.0);
            }
            self.resync_net();
        }
        self.ledger.per_site[site].transfer_time_s += (self.now() - batch.service_start).as_secs();
        Some(batch.worker)
    }

    /// Starts (or resumes) computing `w`'s task: schedules either the
    /// final [`Event::ComputeDone`] or, when checkpointing would fire
    /// first, the next [`Event::CheckpointDue`] segment boundary.
    fn begin_compute_segment(&mut self, w: usize) {
        let site = self.workers[w].id.site.index();
        let speed = self.workers[w].speed_flops;
        let generation = self.workers[w].generation;
        let current = self.workers[w]
            .current
            .as_ref()
            .expect("computing worker is running");
        let task = current.task;
        let flops = self.config.workload.task(task).flops;
        let remaining_s = (flops - current.progress_flops).max(0.0) / speed;
        let interval = self.checkpointing.as_ref().map(|c| c.interval_s(site));
        let handle = match interval {
            Some(t) if remaining_s > t => self.schedule.schedule_in(
                SimDuration::from_secs(t),
                Event::CheckpointDue {
                    worker: w,
                    generation,
                },
            ),
            _ => self.schedule.schedule_in(
                SimDuration::from_secs(remaining_s),
                Event::ComputeDone {
                    worker: w,
                    task,
                    generation,
                },
            ),
        };
        let started = self.now();
        let current = self.workers[w].current.as_mut().expect("running");
        current.compute_handle = Some(handle);
        current.compute_started = Some(started);
        self.workers[w].state = WorkerState::Computing;
        self.telemetry.span_begin_for_task(
            Track::worker(w),
            "compute",
            started.as_secs(),
            task.index() as u64,
        );
    }

    // ----- network ------------------------------------------------------

    /// Starts a flow of `bytes` over `links` for `purpose` and counts it.
    /// The caller resyncs the network.
    fn start_flow(
        &mut self,
        links: &[EdgeId],
        bytes: f64,
        latency_s: f64,
        purpose: FlowPurpose,
    ) -> FlowId {
        let fid = self.net.start_flow(self.now(), links, bytes, latency_s);
        self.ledger.flows_started += 1;
        self.flow_purpose.insert(fid, purpose);
        fid
    }

    /// Aborts flow `fid` for good (teardowns and outages, not guard
    /// retries): drops its purpose, cancels it, and books it as aborted
    /// with its undelivered bytes, which it returns (`None` if the flow
    /// already ended). The caller resyncs the network.
    fn abort_flow(&mut self, fid: FlowId) -> Option<f64> {
        self.flow_purpose.remove(&fid);
        let left = self.net.cancel_flow(self.now(), fid)?;
        self.ledger.flows_aborted += 1;
        self.ledger.cancelled_bytes += left;
        Some(left)
    }

    /// Re-arms the single outstanding flow-completion event after any
    /// change to the flow set.
    fn resync_net(&mut self) {
        if let Some(h) = self.net_handle.take() {
            self.schedule.cancel(h);
        }
        if let Some((t, fid)) = self.net.next_completion() {
            self.net_handle = Some(self.schedule.schedule_at(t, Event::FlowDone(fid)));
        }
    }

    fn handle_flow_done(&mut self, fid: FlowId) {
        self.net.finish_flow(self.now(), fid);
        self.net_handle = None;
        self.ledger.flows_completed += 1;
        let purpose = self
            .flow_purpose
            .remove(&fid)
            .expect("completed flow has a purpose");
        match purpose {
            FlowPurpose::Batch { site } => self.fetch_landed(site, fid),
            FlowPurpose::Replication { site, file } => self.push_landed(site, file),
            FlowPurpose::Checkpoint { worker } => self.image_flow_done(worker, fid, false),
            FlowPurpose::Restore { worker, .. } => self.image_flow_done(worker, fid, true),
        }
    }

    /// The in-flight file of `site`'s active batch arrived: store and pin
    /// it, then move on to the batch's next missing file.
    fn fetch_landed(&mut self, site: usize, fid: FlowId) {
        let (file, flow) = self.servers[site]
            .active
            .as_mut()
            .expect("flow belongs to an active batch")
            .current
            .take()
            .expect("batch has an in-flight file");
        debug_assert_eq!(flow, fid);
        let bytes = self.attempt_bytes(site);
        self.ledger.per_site[site].file_transfers += 1;
        self.ledger.per_site[site].bytes_transferred += bytes;
        self.guard_fetch_done(site);
        if self.stores[site].contains(file) {
            // A replication push landed this very file while the batch
            // fetch was in flight: the fetch still consumed bandwidth
            // (accounted above), but the store and the scheduler's overlap
            // views already know the file — a second `on_file_added` would
            // double-count it and corrupt every cached counter. Just
            // refresh recency.
            let evicted = self.stores[site].insert(file);
            debug_assert!(evicted.is_empty(), "touching evicts nothing");
        } else {
            self.insert_file(site, file);
        }
        let w = self.servers[site].active.as_ref().expect("active").worker;
        self.pin(site, w, file);
        // Skip the resync when another fetch flow certainly starts at this
        // instant (its own resync would cancel ours; the finish+start burst
        // then costs one rate recompute, not two): the batch still misses
        // a file, or it is done and the server's next live request needs a
        // file the store lacks — nothing before `maybe_start_service`
        // changes this site's residency or any generation.
        let fetch_starts_now = self.servers[site]
            .active
            .as_ref()
            .expect("still active")
            .to_fetch
            .iter()
            .any(|f| !self.stores[site].contains(*f));
        let next_request_fetches = !fetch_starts_now
            && self.servers[site]
                .queue
                .iter()
                .find(|r| self.workers[r.worker].generation == r.generation)
                .is_some_and(|r| {
                    self.config
                        .workload
                        .task(self.task_of(r.worker))
                        .files()
                        .iter()
                        .any(|f| !self.stores[site].contains(*f))
                });
        if !(fetch_starts_now || next_request_fetches) {
            self.resync_net();
        }
        self.advance_batch(site);
    }

    /// Inserts a file into a site store, forwarding eviction/addition
    /// notifications to the scheduler (and to the replication state).
    fn insert_file(&mut self, site: usize, file: FileId) {
        let evicted = self.stores[site].insert(file);
        for e in evicted {
            self.ledger.per_site[site].evictions += 1;
            self.copy_gone(site, e);
        }
        self.scheduler
            .on_file_added(SiteId(site as u32), file, self.stores[site].ref_count(file));
    }

    /// `site`'s copy of `file` is gone (evicted or lost to an outage):
    /// tell the scheduler and the replication state — a lost copy may
    /// break the full coverage that exhausted a file.
    fn copy_gone(&mut self, site: usize, file: FileId) {
        self.scheduler.on_file_evicted(
            SiteId(site as u32),
            file,
            self.stores[site].ref_count(file),
        );
        if let Some(rep) = self.replication.as_mut() {
            rep.state.on_copy_lost(file);
        }
    }

    // ----- completion & replica cancellation -----------------------------

    fn handle_compute_done(&mut self, w: usize, task: TaskId, generation: u64) {
        if self.workers[w].generation != generation {
            // Stale event from an aborted execution; the handle should have
            // been cancelled, but be tolerant.
            return;
        }
        let site = self.workers[w].id.site.index();
        let current = self.workers[w].current.take().expect("computing worker");
        debug_assert_eq!(current.task, task);
        let t = self.now().as_secs();
        self.telemetry.span_end(Track::worker(w), "compute", t);
        self.telemetry
            .instant_for_task(Track::worker(w), "complete", t, task.index() as u64);
        let was_replica = current.is_replica;
        for f in current.pinned {
            self.stores[site].unpin(f);
        }
        self.workers[w].state = WorkerState::Idle;
        self.ledger.tasks_completed += 1;
        if was_replica {
            self.ledger.replicas_completed += 1;
        }
        self.last_completion = self.now();
        self.control_on_success(site, t);
        // A finished task's image is dead weight; drop it (not a loss).
        if let Some(ckpt) = self.checkpointing.as_mut() {
            ckpt.forget(task);
        }

        let outcome = self.scheduler.on_task_complete(self.workers[w].id, task);
        for victim in outcome.cancel_replicas {
            self.abort_execution(victim, task);
        }
        self.schedule.schedule_now(Event::WorkerIdle(w));
        if self.throttled {
            // Targeted wake-ups only: the winner's own slot (if it was a
            // replica) frees here; the cancelled losers freed theirs in
            // `abort_execution`. Nothing else about a completion makes a
            // parked worker eligible, so the legacy everyone-repolls pass
            // (which would re-create the storm at 10⁵ parked workers) is
            // skipped.
            if was_replica {
                self.wake_one_parked(site);
            }
        } else {
            self.wake_parked();
        }
    }

    /// Tears down worker `w`'s execution in progress (queued request,
    /// active batch with its in-flight transfer, or running computation):
    /// detaches it from the data server and network, accounts wasted
    /// compute, and unpins its files. Returns the task it was executing
    /// and whether the execution had been launched as a replica.
    ///
    /// The caller decides what the worker becomes (idle again for replica
    /// cancels, down for crashes) and how the scheduler hears about it.
    fn teardown_execution(&mut self, w: usize) -> Option<(TaskId, bool)> {
        let site = self.workers[w].id.site.index();
        let state = self.workers[w].state;
        let current = self.workers[w].current.take()?;
        let owns_batch = self.servers[site]
            .active
            .as_ref()
            .is_some_and(|b| b.worker == w);
        // Close the lifecycle span the execution died in.
        let open_phase = match state {
            WorkerState::WaitingData if owns_batch => "staging",
            WorkerState::WaitingData => "queued",
            WorkerState::Restoring => "restore",
            WorkerState::Computing if current.ckpt_flow.is_some() => "checkpoint",
            WorkerState::Computing => "compute",
            other => panic!("teardown_execution on worker in state {other:?}"),
        };
        let t = self.now().as_secs();
        self.telemetry.span_end(Track::worker(w), open_phase, t);
        self.telemetry.instant_for_task(
            Track::worker(w),
            "aborted",
            t,
            current.task.index() as u64,
        );
        if state == WorkerState::WaitingData {
            // Either still queued at the data server (left in place — the
            // generation bump marks the entry stale), or the active batch.
            // Batches awaiting a retry have no flow in flight but still
            // hold an armed backoff — stand the guard down either way.
            if owns_batch {
                self.dissolve_batch(site);
                self.disarm_transfer_guard(site);
                self.maybe_start_service(site);
            }
        } else {
            // An image write or restore fetch in flight dies with the
            // execution (a restored image itself survives at its source),
            // but the stall it caused was still paid.
            if let Some(fid) = current.ckpt_flow {
                self.abort_flow(fid);
                self.resync_net();
                self.account_aborted_ckpt_stall(current.ckpt_flow_started);
            }
            if state == WorkerState::Computing {
                if let Some(h) = current.compute_handle {
                    self.schedule.cancel(h);
                }
                // Committed-but-undurable segments are lost along with the
                // in-flight segment; checkpointed work is not.
                self.ledger.wasted_compute_s += current.progress_s - current.durable_s;
                if let Some(started) = current.compute_started {
                    self.ledger.wasted_compute_s += (self.now() - started).as_secs();
                }
            }
        }
        for f in current.pinned {
            self.stores[site].unpin(f);
        }
        Some((current.task, current.is_replica))
    }

    /// Aborts `task`'s execution at `victim` (queued, transferring or
    /// computing) and returns the worker to the idle pool.
    fn abort_execution(&mut self, victim: WorkerId, task: TaskId) {
        let w = victim.flat_index(self.config.workers_per_site);
        debug_assert_eq!(self.workers[w].id, victim, "flat index mismatch");
        let (torn, was_replica) = self
            .teardown_execution(w)
            .expect("cancel target is executing");
        assert_eq!(torn, task, "cancel target runs a different task");
        // A losing *primary* (its replica won the race) is not a cancelled
        // replica flow — keep the speculative-waste accounting honest.
        if was_replica {
            self.ledger.replicas_cancelled += 1;
        } else {
            self.ledger.primaries_cancelled += 1;
        }
        self.workers[w].generation += 1;
        self.workers[w].state = WorkerState::Idle;
        self.scheduler.on_replica_aborted(victim, task);
        self.schedule.schedule_now(Event::WorkerIdle(w));
        // The loser's replica slot is free again (unthrottled runs keep
        // the legacy everyone-repolls wake-ups instead).
        if was_replica && self.throttled {
            self.wake_one_parked(victim.site.index());
        }
    }

    /// Worker `w` lost its execution (`torn`: the task and whether it ran
    /// as a replica), if any, to a fault — a crash, or a fetch whose
    /// retries ran out — rather than to a completion: books a lost
    /// replica, stales the execution's events, and hands the task back to
    /// the scheduler. An orphaned task (no other execution still runs it)
    /// is requeued and counted lost.
    fn orphan(&mut self, w: usize, torn: Option<(TaskId, bool)>) {
        let lost = torn.map(|(task, _)| task);
        let was_replica = torn.is_some_and(|(_, is_replica)| is_replica);
        if was_replica {
            self.ledger.replicas_lost += 1;
        }
        self.workers[w].generation += 1;
        let orphaned = self.scheduler.on_worker_lost(self.workers[w].id, lost);
        if orphaned {
            let task = lost.expect("orphaned implies an in-flight task");
            self.ledger.tasks_lost += 1;
            self.lost_ever[task.index()] = true;
        }
        // Parked workers may pick up the requeued task. A lost replica
        // frees a replica slot (task cap and/or site budget) even without
        // orphaning anything; faults are rare enough that the broad
        // re-poll is the simple, safe hand-off.
        if orphaned || (self.throttled && was_replica) {
            self.wake_parked();
        }
    }

    // ----- reporting ------------------------------------------------------

    /// The ledger plus its derived fields: the makespan, per-site sums,
    /// events, evictions, overflow and checkpoint-vault sums.
    fn report(&self) -> MetricsReport {
        let mut r = self.ledger.clone();
        // Replica books must balance: every launched replica either won,
        // was cancelled by the winner, or died with its worker.
        debug_assert_eq!(
            r.replicas_launched,
            r.replicas_cancelled + r.replicas_completed + r.replicas_lost,
            "replica accounting out of balance"
        );
        // Flow conservation: every flow ever started either completed,
        // was aborted by a teardown, was cancelled into a retry/requeue
        // by the transfer guard, or is still stalled in the drained net
        // (a severed route with nothing left to wake it).
        debug_assert_eq!(
            r.flows_started,
            r.flows_completed
                + r.flows_aborted
                + r.flows_retrying
                + r.flows_requeued
                + self.net.active_flows() as u64,
            "flow conservation out of balance"
        );
        r.makespan_minutes = self.last_completion.as_minutes();
        r.file_transfers = r.per_site.iter().map(|s| s.file_transfers).sum();
        r.bytes_transferred = r.per_site.iter().map(|s| s.bytes_transferred).sum();
        r.total_evictions = r.per_site.iter().map(|s| s.evictions).sum();
        r.files_lost = r.per_site.iter().map(|s| s.files_lost).sum();
        r.overflow_inserts = self.stores.iter().map(|s| s.stats().overflow_inserts).sum();
        r.events_dispatched = self.schedule.dispatched();
        if let Some(c) = &self.checkpointing {
            c.book_vaults(&mut r);
        }
        r
    }
}

/// The next boundary `k·dt` (k = `emitted` + 1) of a periodic sampler with
/// period `dt`, if it is due by `now`; counts it into `emitted`.
fn next_boundary(dt: Option<f64>, emitted: &mut u64, now: SimTime) -> Option<SimTime> {
    let at = SimTime::from_secs(dt? * (*emitted + 1) as f64);
    (at <= now).then(|| {
        *emitted += 1;
        at
    })
}

/// The site's access link: the last hop of its route to the file server,
/// crossed by every flow into or out of the site (image writes, the link
/// a partition severs).
fn access_link(route: &Route) -> EdgeId {
    *route
        .links
        .last()
        .expect("site routes cross at least one link")
}

/// The site-to-site transfer route: source site → backbone → destination
/// site (all inter-site traffic rides the file-server backbone in this
/// model; shared links are crossed once), plus the summed latency.
fn union_route(src: &Route, dst: &Route) -> (Vec<EdgeId>, f64) {
    let mut links = Vec::with_capacity(src.links.len() + dst.links.len());
    links.extend_from_slice(&src.links);
    for &l in &dst.links {
        if !links.contains(&l) {
            links.push(l);
        }
    }
    (links, src.latency_s + dst.latency_s)
}

/// Builds the scheduler for a strategy kind. `throttle` is the *effective*
/// replica throttle — the configured one, or the adaptive controller's
/// starting cap when the throttle loop runs with no configured bounds.
fn build_scheduler(config: &SimConfig, throttle: ReplicaThrottle) -> Box<dyn Scheduler> {
    let wl = config.workload.clone();
    match config.strategy {
        StrategyKind::StorageAffinity => Box::new(
            StorageAffinity::new(wl)
                .with_eval_mode(config.eval_mode)
                .with_throttle(throttle),
        ),
        StrategyKind::Workqueue => Box::new(Workqueue::new(wl)),
        StrategyKind::Sufferage => Box::new(Sufferage::new(wl).with_eval_mode(config.eval_mode)),
        kind => {
            let metric = kind
                .metric()
                .expect("worker-centric strategies have a metric");
            let n = config.choose_n_override.unwrap_or_else(|| kind.choose_n());
            Box::new(
                WorkerCentric::new(wl, metric, n, config.seed).with_eval_mode(config.eval_mode),
            )
        }
    }
}

#[cfg(test)]
mod tests;
