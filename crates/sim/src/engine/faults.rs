//! Fault injection: worker, data-server and link churn.
//!
//! With an active [`gridsched_faults::FaultConfig`], the engine drives
//! churn through the model:
//!
//! * **worker crashes** abort the worker's execution (queued request,
//!   in-flight transfer or running computation), hand the in-flight task
//!   back to the scheduler ([`gridsched_core::Scheduler::on_worker_lost`])
//!   and take the worker out of the pool until its repair completes;
//!   correlated **bursts** crash several live workers of one site at once;
//! * **data-server outages** lose every unpinned cached file, abort the
//!   active batch (its request is requeued and re-served after repair)
//!   and freeze the server's queue for the outage;
//! * **link faults** either take a link down (crossing flows stall) or
//!   degrade its bandwidth for a window; a scripted partition severs a
//!   site's access link;
//! * under active faults a scheduler's `Finished` verdict parks the worker
//!   instead of retiring it — a fault may requeue work at any time.
//!
//! An inert fault config (or none) leaves the engine byte-identical to the
//! fault-free model; `tests/fault_injection.rs` property-tests this.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_des::rng::derive_seed;
use gridsched_faults::{Entity, FaultKind, FaultTimeline};

use super::*;

/// The fault processes of a run with an active fault config.
pub(super) struct FaultState {
    /// Per-worker stochastic churn processes (`None` entries without a
    /// worker MTBF).
    worker_timelines: Vec<Option<FaultTimeline>>,
    /// Per-site data-server churn processes.
    server_timelines: Vec<Option<FaultTimeline>>,
    /// Per-link stochastic outage processes (`None` entries when only
    /// scripted link events drive churn).
    link_timelines: Vec<Option<FaultTimeline>>,
    /// Per-link open fault window: impairment mode + when it opened.
    link_window: Vec<Option<(LinkFaultMode, SimTime)>>,
    /// The capacity factor of a stochastic link fault: `Some` turns the
    /// link process soft (degraded windows), `None` keeps it hard.
    /// Scripted link and partition events are always hard — a partitioned
    /// site is unreachable, not slow.
    link_degrade_factor: Option<f64>,
    /// Correlated crash-burst process (`None` = independent crashes only).
    burst: Option<BurstState>,
}

impl FaultState {
    /// The fault processes for `config` over `workers` workers and `links`
    /// links; `None` when the fault config is absent or inert, which keeps
    /// every fault path dormant so the run matches the fault-free engine
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if the fault trace references a site, worker or link the run
    /// does not have.
    pub(super) fn new(config: &SimConfig, workers: usize, links: usize) -> Option<Self> {
        let fc = config.faults.as_ref().filter(|f| !f.is_inert())?;
        if let Some(trace) = &fc.trace {
            if let Err(e) = trace.validate(config.sites, config.workers_per_site) {
                panic!("{e}");
            }
            if let Some(ml) = trace.max_link() {
                assert!(
                    ml < links,
                    "fault trace references link {ml} but the topology has {links} links"
                );
            }
        }
        // Repair shape 1.0 is the exponential repair, bit for bit.
        let timelines = |n, entity: fn(usize) -> Entity, mtbf: Option<f64>, mttr, shape| {
            (0..n)
                .map(|i| {
                    mtbf.map(|m| {
                        FaultTimeline::new(config.seed, entity(i), m, mttr).with_repair_shape(shape)
                    })
                })
                .collect()
        };
        Some(FaultState {
            worker_timelines: timelines(
                workers,
                Entity::Worker,
                fc.worker_mtbf_s,
                fc.worker_mttr_s,
                fc.worker_mttr_shape,
            ),
            server_timelines: timelines(
                config.sites,
                Entity::Server,
                fc.server_mtbf_s,
                fc.server_mttr_s,
                fc.server_mttr_shape,
            ),
            link_timelines: timelines(links, Entity::Link, fc.link_mtbf_s, fc.link_mttr_s, 1.0),
            link_window: vec![None; links],
            link_degrade_factor: fc.link_degrade_factor,
            burst: fc
                .burst_rate_s
                .map(|rate| BurstState::new(config.seed, rate, fc.burst_size)),
        })
    }

    /// `entity`'s stochastic churn process, if it has one.
    fn timeline(&mut self, entity: Entity) -> Option<&mut FaultTimeline> {
        match entity {
            Entity::Worker(w) => self.worker_timelines[w].as_mut(),
            Entity::Server(s) => self.server_timelines[s].as_mut(),
            Entity::Link(l) => self.link_timelines[l].as_mut(),
        }
    }
}

/// The correlated crash-burst process (present only when the fault config
/// sets a burst rate). Own decorrelated RNG stream — mirroring the
/// per-entity [`FaultTimeline`] derivation with a burst-specific tag — so
/// enabling bursts never perturbs the independent crash/repair schedules.
#[derive(Debug)]
struct BurstState {
    rng: StdRng,
    /// Mean seconds between bursts (exponential interarrival).
    rate_s: f64,
    /// Workers crashed per strike (capped by the site's live population).
    size: u32,
}

/// Seed-derivation tag of the burst process (the per-entity tags use
/// `0x1…`/`0x2…` for workers/servers).
const BURST_STREAM_TAG: u64 = 0x3_0000_0000;

impl BurstState {
    fn new(master_seed: u64, rate_s: f64, size: u32) -> Self {
        let base = derive_seed(master_seed, Stream::Faults);
        let seed = derive_seed(base ^ BURST_STREAM_TAG, Stream::Faults);
        BurstState {
            rng: StdRng::seed_from_u64(seed),
            rate_s,
            size,
        }
    }

    /// Time from now until the next burst (inverse-CDF exponential, one
    /// uniform per draw like [`FaultTimeline`]).
    fn next_gap(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen();
        SimDuration::from_secs(-self.rate_s * (1.0 - u).ln())
    }

    /// The site this strike hits, uniform over the grid.
    fn pick_site(&mut self, sites: usize) -> usize {
        self.rng.gen_range(0..sites)
    }
}

/// How a faulted link is currently impaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkFaultMode {
    /// Hard outage: flows crossing the link stall at rate zero.
    Hard,
    /// Degraded-bandwidth window: capacity × the configured factor.
    Degraded,
}

impl GridSim {
    /// Schedules `event` after the next draw of `entity`'s churn process —
    /// its repair time when `repair`, else its time to failure. No-op for
    /// an entity without a stochastic process.
    fn rearm(&mut self, entity: Entity, repair: bool, event: Event) {
        let Some(tl) = self.faults.as_mut().and_then(|f| f.timeline(entity)) else {
            return;
        };
        let d = if repair {
            tl.time_to_repair()
        } else {
            tl.time_to_failure()
        };
        self.schedule.schedule_in(d, event);
    }

    /// The stochastic link fault to arm next: hard unless the config
    /// degrades links instead.
    fn stochastic_link_fail(&self, link: usize) -> Event {
        let hard = self
            .faults
            .as_ref()
            .is_some_and(|f| f.link_degrade_factor.is_none());
        Event::LinkFail { link, hard }
    }

    /// Schedules the first stochastic fault of every entity plus every
    /// scripted trace event.
    pub(super) fn arm_faults(&mut self) {
        if self.faults.is_none() {
            return;
        }
        for w in 0..self.workers.len() {
            self.rearm(Entity::Worker(w), false, Event::WorkerCrash(w));
        }
        for s in 0..self.config.sites {
            self.rearm(Entity::Server(s), false, Event::ServerFail(s));
        }
        if let Some(b) = self.faults.as_mut().and_then(|f| f.burst.as_mut()) {
            let gap = b.next_gap();
            self.schedule.schedule_in(gap, Event::BurstStrike);
        }
        for link in 0..self.net.link_count() {
            self.rearm(Entity::Link(link), false, self.stochastic_link_fail(link));
        }
        let Some(trace) = self.config.faults.as_ref().and_then(|f| f.trace.as_ref()) else {
            return;
        };
        let wps = self.config.workers_per_site;
        let access = |site: usize| access_link(&self.site_routes[site]).index();
        for e in &trace.events {
            let event = match e.kind {
                FaultKind::WorkerCrash { site, worker } => {
                    Event::WorkerCrash(flat_worker(site, worker, wps))
                }
                FaultKind::WorkerRecover { site, worker } => {
                    Event::WorkerRecover(flat_worker(site, worker, wps))
                }
                FaultKind::ServerFail { site } => Event::ServerFail(site),
                FaultKind::ServerRecover { site } => Event::ServerRecover(site),
                FaultKind::LinkDown { link } => Event::LinkFail { link, hard: true },
                FaultKind::LinkUp { link } => Event::LinkRecover { link },
                // A site partition severs the site's access link — the
                // one hop every route into the site crosses.
                FaultKind::Partition { site } => Event::LinkFail {
                    link: access(site),
                    hard: true,
                },
                FaultKind::PartitionHeal { site } => Event::LinkRecover { link: access(site) },
            };
            self.schedule.schedule_at(SimTime::from_secs(e.at_s), event);
        }
    }

    /// Where downtime accounting stops: availability is measured against
    /// the job's makespan, so once the last task has completed, repairs
    /// that drain later must not accrue further downtime.
    fn downtime_end(&self) -> SimTime {
        if self.scheduler.unfinished() == 0 {
            self.now().min(self.last_completion)
        } else {
            self.now()
        }
    }

    /// A link fails (hard outage or degraded-bandwidth window). Flows
    /// crossing a hard-down link stall at rate zero — the transfer guard,
    /// when armed, is what turns the stall into a retry.
    pub(super) fn handle_link_fail(&mut self, link: usize, hard: bool) {
        if self.scheduler.unfinished() == 0 {
            return;
        }
        let now = self.now();
        let faults = self.faults.as_mut().expect("link faults imply fault state");
        // Already impaired (scripted + stochastic overlap): ignore; the
        // stochastic process re-arms from the recovery, like worker
        // crashes.
        if faults.link_window[link].is_some() {
            return;
        }
        let edge = EdgeId(link as u32);
        let mode = if hard {
            self.net.set_link_down(now, edge);
            LinkFaultMode::Hard
        } else {
            let factor = faults
                .link_degrade_factor
                .expect("soft link fault implies a degrade factor");
            self.net.set_link_capacity_factor(now, edge, factor);
            LinkFaultMode::Degraded
        };
        faults.link_window[link] = Some((mode, now));
        self.ledger.link_outages += 1;
        self.instruments.link_outages.incr();
        self.resync_net();
        self.rearm(Entity::Link(link), true, Event::LinkRecover { link });
    }

    /// The link's repair completes: restore its capacity and account the
    /// outage window (clipped to the makespan like worker downtime).
    pub(super) fn handle_link_recover(&mut self, link: usize) {
        let now = self.now();
        let end = self.downtime_end();
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let Some((mode, since)) = faults.link_window[link].take() else {
            return;
        };
        let edge = EdgeId(link as u32);
        match mode {
            LinkFaultMode::Hard => self.net.set_link_up(now, edge),
            LinkFaultMode::Degraded => self.net.set_link_capacity_factor(now, edge, 1.0),
        }
        self.ledger.link_downtime_s += (end.max(since) - since).as_secs();
        self.resync_net();
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.rearm(Entity::Link(link), false, self.stochastic_link_fail(link));
    }

    /// A correlated burst strikes: one uniformly-drawn site loses up to
    /// `burst_size` live workers at once (lowest worker index first —
    /// deterministic, and the draws happen in a fixed order so the burst
    /// stream never depends on grid state). Victims repair through their
    /// own MTTR timelines like any independent crash.
    pub(super) fn handle_burst_strike(&mut self) {
        // Post-completion the process stops re-arming, draining like the
        // per-entity churn processes.
        if self.scheduler.unfinished() == 0 {
            return;
        }
        let b = self
            .faults
            .as_mut()
            .and_then(|f| f.burst.as_mut())
            .expect("burst event implies the state");
        let site = b.pick_site(self.config.sites);
        let gap = b.next_gap();
        let size = b.size as usize;
        self.schedule.schedule_in(gap, Event::BurstStrike);
        let base = site * self.config.workers_per_site;
        let mut struck = 0usize;
        for w in base..base + self.config.workers_per_site {
            if struck >= size {
                break;
            }
            if matches!(self.workers[w].state, WorkerState::Down | WorkerState::Done) {
                continue;
            }
            self.handle_worker_crash(w);
            struck += 1;
        }
    }

    pub(super) fn handle_worker_crash(&mut self, w: usize) {
        // Once the job is done the churn processes stop re-arming and
        // pending fault events drain without effect. A worker already down
        // (scripted + stochastic overlap) ignores the crash.
        if self.scheduler.unfinished() == 0 || self.workers[w].state == WorkerState::Down {
            return;
        }
        let torn = self.teardown_execution(w);
        let now = self.now();
        self.workers[w].state = WorkerState::Down;
        self.workers[w].down_since = Some(now);
        self.ledger.worker_crashes += 1;
        self.telemetry
            .span_begin(Track::worker(w), "down", now.as_secs());
        self.control_on_worker_crash(self.workers[w].id.site.index(), now.as_secs());
        self.orphan(w, torn);
        self.rearm(Entity::Worker(w), true, Event::WorkerRecover(w));
    }

    pub(super) fn handle_worker_recover(&mut self, w: usize) {
        if self.workers[w].state != WorkerState::Down {
            return;
        }
        let site = self.workers[w].id.site.index();
        if let Some(since) = self.workers[w].down_since.take() {
            let end = self.downtime_end().max(since);
            self.ledger.per_site[site].worker_downtime_s += (end - since).as_secs();
        }
        let t_s = self.now().as_secs();
        self.telemetry.span_end(Track::worker(w), "down", t_s);
        self.workers[w].state = WorkerState::Idle;
        self.control_on_worker_recover(site, t_s);
        self.scheduler.on_worker_recovered(self.workers[w].id);
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.schedule.schedule_now(Event::WorkerIdle(w));
        self.rearm(Entity::Worker(w), false, Event::WorkerCrash(w));
    }

    pub(super) fn handle_server_fail(&mut self, site: usize) {
        if self.scheduler.unfinished() == 0 || self.servers[site].down {
            return;
        }
        let now = self.now();
        self.servers[site].down = true;
        self.servers[site].down_since = Some(now);
        self.ledger.server_outages += 1;
        self.telemetry
            .span_begin(Track::server(site), "outage", now.as_secs());
        // The active batch dissolves and its request goes back to the head
        // of the queue, to be re-served (re-fetching whatever the outage
        // lost) after repair. The worker keeps waiting; its task stays
        // assigned.
        if let Some(w) = self.dissolve_batch(site) {
            self.disarm_transfer_guard(site);
            let current = self.workers[w]
                .current
                .as_mut()
                .expect("active batch worker is running");
            for f in current.pinned.drain(..) {
                self.stores[site].unpin(f);
            }
            let task_id = current.task.index() as u64;
            let generation = self.workers[w].generation;
            self.servers[site].queue.push_front(BatchRequest {
                worker: w,
                generation,
                enqueued_at: now,
            });
            self.telemetry
                .span_end(Track::worker(w), "staging", now.as_secs());
            self.telemetry
                .span_begin_for_task(Track::worker(w), "queued", now.as_secs(), task_id);
        }
        self.abort_inbound_pushes(site);
        self.resync_net();
        self.ckpt_on_server_fail(site);
        // The outage loses every unpinned cached file.
        let lost = self.stores[site].fail();
        self.ledger.per_site[site].files_lost += lost.len() as u64;
        for f in lost {
            self.copy_gone(site, f);
        }
        self.rearm(Entity::Server(site), true, Event::ServerRecover(site));
    }

    pub(super) fn handle_server_recover(&mut self, site: usize) {
        if !self.servers[site].down {
            return;
        }
        self.servers[site].down = false;
        if let Some(since) = self.servers[site].down_since.take() {
            let end = self.downtime_end().max(since);
            self.ledger.per_site[site].server_downtime_s += (end - since).as_secs();
        }
        self.telemetry
            .span_end(Track::server(site), "outage", self.now().as_secs());
        self.maybe_start_service(site);
        if self.scheduler.unfinished() == 0 {
            return;
        }
        self.rearm(Entity::Server(site), false, Event::ServerFail(site));
    }

    /// Closes the fault windows still open when the event queue drains (a
    /// scripted crash or outage with no scripted recovery never sees a
    /// recover event, nor does a link window open at the end): ends their
    /// spans and books their downtime up to the makespan.
    pub(super) fn close_open_windows(&mut self) {
        let t = self.now().as_secs();
        let end = self.last_completion;
        let open_for = |since: SimTime| (end.max(since) - since).as_secs();
        for (w, worker) in self.workers.iter().enumerate() {
            if let Some(since) = worker.down_since {
                self.telemetry.span_end(Track::worker(w), "down", t);
                self.ledger.per_site[worker.id.site.index()].worker_downtime_s += open_for(since);
            }
        }
        for (s, server) in self.servers.iter().enumerate() {
            if let Some(since) = server.down_since {
                self.telemetry.span_end(Track::server(s), "outage", t);
                self.ledger.per_site[s].server_downtime_s += open_for(since);
            }
        }
        for (_, since) in self
            .faults
            .iter()
            .flat_map(|f| f.link_window.iter().flatten())
        {
            self.ledger.link_downtime_s += open_for(*since);
        }
    }
}

/// Flattens a (site, worker-in-site) pair to the engine's worker index.
///
/// # Panics
///
/// Panics if the worker index is out of the configured range (a fault
/// trace referencing a worker the run does not have).
fn flat_worker(site: usize, worker: usize, workers_per_site: usize) -> usize {
    assert!(
        worker < workers_per_site,
        "fault trace references worker {worker} at site {site} but the run has \
         {workers_per_site} workers per site"
    );
    site * workers_per_site + worker
}
