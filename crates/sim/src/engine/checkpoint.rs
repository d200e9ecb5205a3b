//! Checkpoint/restart.
//!
//! With an active [`gridsched_checkpoint::CheckpointConfig`], compute is
//! segmented: after every checkpoint interval (fixed, or the per-site
//! Young/Daly optimum `sqrt(2 · MTBF · C)`) the worker stalls and writes a
//! checkpoint image to its site's data server — a real flow across the
//! site's access link, contending with the server's file fetches. The
//! latest image of each task survives worker crashes (but dies with the
//! data server that holds it): when a fault-orphaned task is reassigned,
//! the new execution *restores* from the image — fetching it through the
//! backbone when it lives at another site — and computes only the
//! remaining flops. `wasted_compute_s` then counts only the work since the
//! last durable image, and `work_saved_s` the work a restore rescued.
//!
//! An inert checkpoint config (or none) leaves the engine byte-identical
//! to the churn engine without checkpointing; `tests/checkpoint_restart.rs`
//! property-tests this.

use gridsched_checkpoint::{young_daly_interval, CheckpointConfig, CheckpointPolicy, ImageTracker};
use gridsched_storage::{CheckpointImage, ImageVault};
use gridsched_topology::Graph;

use super::*;

/// Runtime state of the checkpoint/restart subsystem.
#[derive(Debug)]
pub(super) struct CkptState {
    /// Checkpoint image size in bytes.
    size_bytes: f64,
    /// Per-site checkpoint interval, seconds (Young/Daly adapts to each
    /// site's access-link write cost; fixed policies repeat one value).
    interval_s: Vec<f64>,
    /// Per-site image storage, dying with the site's data server.
    vaults: Vec<ImageVault>,
    /// Which site holds each task's latest image.
    tracker: ImageTracker,
    /// Per-site access-link write cost of one image, seconds — kept so
    /// the adaptive Young/Daly loop can re-derive `interval_s` at tick
    /// time from the *observed* failure process.
    write_cost_s: Vec<f64>,
    /// Whether the policy is [`CheckpointPolicy::YoungDalyAdaptive`]
    /// (the control plane owns the interval; static policies never move).
    adaptive: bool,
}

impl CkptState {
    /// The state for a non-inert config: per-site intervals (Young/Daly
    /// adapts to the write cost over each site's access link, `routes`
    /// being the sites' routes to the file server in `graph`) and per-site
    /// image vaults.
    ///
    /// # Panics
    ///
    /// Panics if the policy is Young/Daly and the fault model has no worker
    /// MTBF to derive the interval from.
    pub(super) fn new(
        c: &CheckpointConfig,
        config: &SimConfig,
        routes: &[Arc<Route>],
        graph: &Graph,
    ) -> Self {
        let mtbf = config.faults.as_ref().and_then(|f| f.worker_mtbf_s);
        let write_cost_s: Vec<f64> = routes
            .iter()
            .map(|route| c.size_bytes / graph.link(access_link(route)).bandwidth_bps)
            .collect();
        CkptState {
            size_bytes: c.size_bytes,
            interval_s: write_cost_s
                .iter()
                .map(|&cost| {
                    c.interval_s(mtbf, cost)
                        .expect("non-inert checkpoint config has an interval")
                })
                .collect(),
            vaults: vec![ImageVault::new(); routes.len()],
            tracker: ImageTracker::new(),
            write_cost_s,
            adaptive: c.policy == CheckpointPolicy::YoungDalyAdaptive,
        }
    }

    /// The current checkpoint interval at `site`, seconds.
    pub(super) fn interval_s(&self, site: usize) -> f64 {
        self.interval_s[site]
    }

    /// The adaptive Young/Daly loop: re-derives each site's interval from
    /// the failure interarrivals `plane` observed there. Static policies
    /// never move.
    pub(super) fn retune(&mut self, plane: &ControlPlane) {
        if !self.adaptive {
            return;
        }
        for (site, interval) in self.interval_s.iter_mut().enumerate() {
            if let Some(mtbf) = plane.site_worker_mtbf_s(site) {
                *interval = young_daly_interval(mtbf, self.write_cost_s[site]);
            }
        }
    }

    /// Drops a finished task's image — dead weight, not a loss.
    pub(super) fn forget(&mut self, task: TaskId) {
        if let Some(s) = self.tracker.site_of(task) {
            self.vaults[s].remove(task);
            self.tracker.forget(task);
        }
    }

    /// Fills the vault totals into the report.
    pub(super) fn book_vaults(&self, r: &mut MetricsReport) {
        r.checkpoints_written = self.vaults.iter().map(ImageVault::written).sum();
        r.checkpoints_lost = self.vaults.iter().map(ImageVault::lost).sum();
    }
}

impl GridSim {
    /// Loads `w`'s task's latest checkpoint image into the execution, if
    /// one survives. Returns `true` when a cross-site image fetch was
    /// started (the worker is [`WorkerState::Restoring`] until it lands);
    /// a local image restores for free and compute can begin immediately.
    pub(super) fn try_restore(&mut self, w: usize, site: usize) -> bool {
        let Some(ckpt) = self.checkpointing.as_ref() else {
            return false;
        };
        let current = self.workers[w]
            .current
            .as_mut()
            .expect("restoring worker is running");
        let Some(img_site) = ckpt.tracker.site_of(current.task) else {
            return false;
        };
        let image = ckpt.vaults[img_site]
            .get(current.task)
            .expect("tracker and vaults agree");
        current.progress_flops = image.flops_done;
        current.progress_s = image.invested_s;
        current.durable_flops = image.flops_done;
        current.durable_s = image.invested_s;
        let task_id = current.task.index() as u64;
        if img_site == site {
            // Intra-site reads are free in the paper's model; the rescue
            // takes effect right now.
            self.ledger.checkpoint_restores += 1;
            self.ledger.work_saved_s += image.invested_s;
            return false;
        }
        let size = ckpt.size_bytes;
        let (links, latency_s) = union_route(&self.site_routes[img_site], &self.site_routes[site]);
        let fid = self.start_flow(
            &links,
            size,
            latency_s,
            FlowPurpose::Restore {
                worker: w,
                from_site: img_site,
            },
        );
        let started = self.now();
        let current = self.workers[w].current.as_mut().expect("running");
        current.ckpt_flow = Some(fid);
        current.ckpt_flow_started = Some(started);
        self.workers[w].state = WorkerState::Restoring;
        self.telemetry
            .span_begin_for_task(Track::worker(w), "restore", started.as_secs(), task_id);
        self.resync_net();
        true
    }

    /// A compute segment ended: commit its progress and write a checkpoint
    /// image to the site's data server (skipped while the server is down —
    /// there is nowhere to write, so the worker keeps computing).
    pub(super) fn handle_checkpoint_due(&mut self, w: usize, generation: u64) {
        if self.workers[w].generation != generation {
            // Stale event from an aborted execution; the handle should
            // have been cancelled, but be tolerant.
            return;
        }
        debug_assert_eq!(self.workers[w].state, WorkerState::Computing);
        let site = self.workers[w].id.site.index();
        let speed = self.workers[w].speed_flops;
        let now = self.now();
        let current = self.workers[w].current.as_mut().expect("computing");
        let started = current
            .compute_started
            .take()
            .expect("segment boundary implies a running segment");
        let seg_s = (now - started).as_secs();
        current.progress_flops += seg_s * speed;
        current.progress_s += seg_s;
        current.compute_handle = None;
        self.telemetry
            .span_end(Track::worker(w), "compute", now.as_secs());
        if self.servers[site].down {
            self.begin_compute_segment(w);
            return;
        }
        let size = self
            .checkpointing
            .as_ref()
            .expect("checkpoint event implies checkpointing")
            .size_bytes;
        let link = access_link(&self.site_routes[site]);
        let fid = self.start_flow(&[link], size, 0.0, FlowPurpose::Checkpoint { worker: w });
        let current = self.workers[w].current.as_mut().expect("computing");
        current.ckpt_flow = Some(fid);
        current.ckpt_flow_started = Some(now);
        current.pending_image = Some((current.progress_flops, current.progress_s));
        let task_id = current.task.index() as u64;
        self.telemetry
            .span_begin_for_task(Track::worker(w), "checkpoint", now.as_secs(), task_id);
        self.resync_net();
    }

    /// `worker`'s image flow `fid` landed — its image write (`restore` =
    /// false) or its cross-site restore fetch — and computing resumes. A
    /// written image becomes the task's latest unless a fresher one
    /// exists; a restore rescues the image's work.
    pub(super) fn image_flow_done(&mut self, worker: usize, fid: FlowId, restore: bool) {
        let site = self.workers[worker].id.site.index();
        let now = self.now();
        let current = self.workers[worker]
            .current
            .as_mut()
            .expect("image flow belongs to a running task");
        debug_assert_eq!(current.ckpt_flow, Some(fid));
        let started = current.ckpt_flow_started.take().expect("flow in flight");
        current.ckpt_flow = None;
        self.ledger.checkpoint_overhead_s += (now - started).as_secs();
        let phase = if restore {
            self.ledger.checkpoint_restores += 1;
            self.ledger.work_saved_s += current.progress_s;
            "restore"
        } else {
            let (flops, invested) = current.pending_image.take().expect("image pending");
            let task = current.task;
            let ckpt = self.checkpointing.as_mut().expect("checkpoint flow");
            // Only-improve: a lagging storage-affinity replica's image
            // never clobbers a fresher one of the same task.
            let fresher = ckpt
                .tracker
                .site_of(task)
                .and_then(|s| ckpt.vaults[s].get(task))
                .is_none_or(|old| flops > old.flops_done);
            if fresher {
                if let Some(old) = ckpt.tracker.record(task, site) {
                    ckpt.vaults[old].remove(task);
                }
                ckpt.vaults[site].put(
                    task,
                    CheckpointImage {
                        flops_done: flops,
                        invested_s: invested,
                        bytes: ckpt.size_bytes,
                    },
                );
                current.durable_flops = flops;
                current.durable_s = invested;
            }
            "checkpoint"
        };
        self.telemetry
            .span_end(Track::worker(worker), phase, now.as_secs());
        self.resync_net();
        self.begin_compute_segment(worker);
    }

    /// Adds the elapsed stall of an aborted image write or restore fetch
    /// to the checkpoint overhead (the time was spent even though the
    /// image never landed).
    pub(super) fn account_aborted_ckpt_stall(&mut self, started: Option<SimTime>) {
        if let Some(started) = started {
            self.ledger.checkpoint_overhead_s += (self.now() - started).as_secs();
        }
    }

    /// `site`'s data server failed: in-flight image writes to it and image
    /// fetches *from* it die, and every image it held is lost. Writers
    /// drop the image and keep computing; restorers lose their image and
    /// restart from scratch (their input files are already pinned
    /// locally).
    pub(super) fn ckpt_on_server_fail(&mut self, site: usize) {
        if self.checkpointing.is_none() {
            return;
        }
        let mut writes: Vec<(FlowId, usize)> = Vec::new();
        let mut restores: Vec<(FlowId, usize)> = Vec::new();
        for (&fid, p) in &self.flow_purpose {
            match *p {
                FlowPurpose::Checkpoint { worker }
                    if self.workers[worker].id.site.index() == site =>
                {
                    writes.push((fid, worker));
                }
                FlowPurpose::Restore { worker, from_site } if from_site == site => {
                    restores.push((fid, worker));
                }
                _ => {}
            }
        }
        writes.sort_unstable();
        restores.sort_unstable();
        for &(fid, w) in writes.iter().chain(&restores) {
            self.abort_flow(fid);
            let current = self.workers[w].current.as_mut().expect("flow owner runs");
            current.ckpt_flow = None;
            let stall_started = current.ckpt_flow_started.take();
            current.pending_image = None;
            self.account_aborted_ckpt_stall(stall_started);
        }
        self.resync_net();
        let t = self.now().as_secs();
        for &(_, w) in &writes {
            self.telemetry.span_end(Track::worker(w), "checkpoint", t);
            self.begin_compute_segment(w);
        }
        for &(_, w) in &restores {
            self.telemetry.span_end(Track::worker(w), "restore", t);
            let current = self.workers[w].current.as_mut().expect("restorer runs");
            current.progress_flops = 0.0;
            current.progress_s = 0.0;
            current.durable_flops = 0.0;
            current.durable_s = 0.0;
            self.begin_compute_segment(w);
        }
        let ckpt = self.checkpointing.as_mut().expect("checked above");
        ckpt.vaults[site].fail();
        ckpt.tracker.drop_site(site);
        // Running executions whose durable image just vanished have
        // nothing to fall back on anymore: a later crash wastes
        // everything they have computed, not just the tail.
        for worker in &mut self.workers {
            let Some(current) = worker.current.as_mut() else {
                continue;
            };
            if current.durable_s > 0.0 && ckpt.tracker.site_of(current.task).is_none() {
                current.durable_flops = 0.0;
                current.durable_s = 0.0;
            }
        }
    }
}
