//! Layer micro-benchmarks and spans for the traced pass.
//!
//! Each micro-benchmark times calls into one crate's public API, fed with the
//! workload's own generated inputs, so a layer's cost can be read apart
//! from the simulation around it. They never run in the timed pass.

use std::hint::black_box;
use std::time::Instant;

use gridsched_core::GridEnv;
use gridsched_core::{
    Assignment, CapController, Scheduler, SiteId, StorageAffinity, StrategyKind, Sufferage,
    WorkerCentric, WorkerId, Workqueue,
};
use gridsched_des::{Schedule, SimTime};
use gridsched_net::NetSim;
use gridsched_sim::SimConfig;
use gridsched_storage::SiteStore;
use gridsched_telemetry::DigestFold;
use gridsched_topology::Topology;
use gridsched_workload::{FileId, TaskId, Workload};

use crate::stats::median;

/// How many times each micro-benchmark repeats; the median is reported.
const REPEATS: usize = 3;

/// One recorded span: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub dur_s: f64,
}

/// In-memory span recorder, read out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s: (start - self.origin).as_secs_f64(),
            dur_s,
        });
        (out, dur_s)
    }

    /// Opens a span whose duration is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span {
            name,
            parent: None,
            start_s: self.origin.elapsed().as_secs_f64(),
            dur_s: 0.0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.dur_s = self.origin.elapsed().as_secs_f64() - span.start_s;
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Total self time of spans called `name`: duration minus children.
    pub fn self_time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.dur_s)
                    .sum();
                s.dur_s - children
            })
            .sum()
    }
}

/// Times `f` `REPEATS` times and returns the median seconds.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// A tiny deterministic generator for micro-benchmark inputs (not the program's).
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `des`: `schedule_at` + `next` per event, with `pending` events queued.
pub fn des_ns_per_event(events: u64, pending: usize) -> f64 {
    let secs = median_secs(|| {
        let mut schedule: Schedule<u64> = Schedule::new();
        for i in 0..pending as u64 {
            schedule.schedule_at(SimTime::from_secs((mix(i) % 3_600) as f64), i);
        }
        for _ in 0..events {
            let (t, e) = schedule.next().expect("the queue never drains");
            let delay = (mix(e ^ t.as_secs().to_bits()) % 3_600) as f64 + 1.0;
            schedule.schedule_at(SimTime::from_secs(t.as_secs() + delay), e);
        }
        black_box(schedule.dispatched());
    });
    secs * 1e9 / events.max(1) as f64
}

/// `telemetry`: one `DigestFold::record` per dispatched event.
pub fn digest_ns_per_event(events: u64) -> f64 {
    let secs = median_secs(|| {
        let mut fold = DigestFold::new(3_600.0);
        for i in 0..events {
            fold.record(i as f64 * 0.25, &[i & 15, mix(i)]);
        }
        black_box(fold.finish());
    });
    secs * 1e9 / events.max(1) as f64
}

/// `storage`: `SiteStore::insert` over the workload's file references, in
/// task order, at the workload's capacity and policy.
pub fn storage_insert_ns(config: &SimConfig) -> f64 {
    let tasks = config.workload.tasks();
    let inserts: usize = tasks.iter().map(|t| t.files().len()).sum();
    let secs = median_secs(|| {
        let mut store = SiteStore::new(config.capacity_files, config.policy);
        for task in tasks {
            for &f in task.files() {
                black_box(store.insert(f));
            }
        }
        black_box(store.stats());
    });
    secs * 1e9 / inserts.max(1) as f64
}

/// `net`: `start_flow` / `next_completion` / `finish_flow` over the site
/// routes with `concurrency` flows in flight; nanoseconds per completion,
/// each of which costs one max–min recompute.
pub fn net_ns_per_recompute(
    topology: &Topology,
    sites: usize,
    concurrency: usize,
    completions: usize,
    flow_bytes: f64,
) -> f64 {
    let routes: Vec<_> = (0..sites)
        .map(|s| topology.routes.site_to_file_server(s))
        .collect();
    let bytes = |i: usize| flow_bytes * (1.0 + (mix(i as u64) % 1_000) as f64 / 1_000.0);
    let secs = median_secs(|| {
        let mut net = NetSim::new(topology.graph.bandwidths());
        for i in 0..concurrency {
            let r = routes[i % sites];
            net.start_flow(SimTime::ZERO, &r.links, bytes(i), r.latency_s);
        }
        for i in concurrency..concurrency + completions {
            let (t, id) = net.next_completion().expect("flows are in flight");
            net.finish_flow(t, id);
            let r = routes[i % sites];
            net.start_flow(t, &r.links, bytes(i), r.latency_s);
        }
        black_box(net.flows_finished());
    });
    secs * 1e9 / completions.max(1) as f64
}

/// What the `core` micro-benchmark measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreTiming {
    pub idle_calls: u64,
    pub idle_s: f64,
    pub hook_calls: u64,
    pub hook_s: f64,
}

enum Hook {
    Added(FileId, u32),
    Evicted(FileId, u32),
    Reference(FileId),
}

/// The strategy a config names, built through the scheduler crate's public
/// constructors the way the engine builds it.
fn build_scheduler(config: &SimConfig) -> Box<dyn Scheduler> {
    let wl = config.workload.clone();
    match config.strategy {
        StrategyKind::StorageAffinity => {
            let mut throttle = config.replica_throttle;
            if config.control.adaptive_throttle && !throttle.is_active() {
                throttle = throttle.with_replica_cap(CapController::DEFAULT_START_CAP);
            }
            Box::new(
                StorageAffinity::new(wl)
                    .with_eval_mode(config.eval_mode)
                    .with_throttle(throttle),
            )
        }
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

/// `core`: drives the configured strategy in rounds over every worker.
/// A task runs until its worker's next turn, so replicas and their
/// cancellations happen; staging a task inserts its missing files into
/// one `SiteStore` per site and delivers the resulting file hooks.
/// `on_worker_idle` calls are timed one by one, each task's hooks as one
/// batch. Returns `None` if the strategy failed to finish the job.
pub fn core_timing(config: &SimConfig) -> Option<CoreTiming> {
    let workload: &Workload = &config.workload;
    let wps = config.workers_per_site;
    let workers = config.sites * wps;
    let mut stores: Vec<SiteStore> = (0..config.sites)
        .map(|_| SiteStore::new(config.capacity_files, config.policy))
        .collect();
    let mut sched = build_scheduler(config);
    sched.initialize(
        &GridEnv {
            sites: config.sites,
            workers_per_site: wps,
            capacity_files: config.capacity_files,
        },
        &stores,
    );
    let id = |w: usize| WorkerId::new(SiteId((w / wps) as u32), (w % wps) as u32);
    let mut running: Vec<Option<TaskId>> = vec![None; workers];
    let mut finished = vec![false; workers];
    let mut hooks = Vec::new();
    let mut timing = CoreTiming::default();
    let max_rounds = 4 * workload.task_count() + 16;
    let mut rounds = 0;
    while sched.unfinished() > 0 {
        rounds += 1;
        if rounds > max_rounds {
            return None;
        }
        for w in 0..workers {
            if let Some(task) = running[w].take() {
                for other in sched.on_task_complete(id(w), task).cancel_replicas {
                    let o = other.site.index() * wps + other.index as usize;
                    if running[o] == Some(task) {
                        running[o] = None;
                        sched.on_replica_aborted(other, task);
                    }
                }
            }
            if finished[w] {
                continue;
            }
            let site = w / wps;
            let start = Instant::now();
            let assignment = sched.on_worker_idle(id(w), &stores[site]);
            timing.idle_s += start.elapsed().as_secs_f64();
            timing.idle_calls += 1;
            let task = match assignment {
                Assignment::Run(t) | Assignment::Replicate(t) => t,
                Assignment::Wait => continue,
                Assignment::Finished => {
                    finished[w] = true;
                    continue;
                }
            };
            let store = &mut stores[site];
            let files = workload.task(task).files();
            for &f in files {
                if !store.contains(f) {
                    for e in store.insert(f) {
                        hooks.push(Hook::Evicted(e, store.ref_count(e)));
                    }
                    hooks.push(Hook::Added(f, store.ref_count(f)));
                }
            }
            for &f in files {
                store.record_task_reference(f);
                hooks.push(Hook::Reference(f));
            }
            let sid = SiteId(site as u32);
            let start = Instant::now();
            for hook in hooks.drain(..) {
                match hook {
                    Hook::Added(f, rc) => sched.on_file_added(sid, f, rc),
                    Hook::Evicted(f, rc) => sched.on_file_evicted(sid, f, rc),
                    Hook::Reference(f) => sched.on_task_reference(sid, f),
                }
                timing.hook_calls += 1;
            }
            timing.hook_s += start.elapsed().as_secs_f64();
            running[w] = Some(task);
        }
    }
    Some(timing)
}
