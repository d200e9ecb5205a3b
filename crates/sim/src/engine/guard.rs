//! The transfer guard ([`SimConfig::transfer_timeout_mult`]): a batch
//! fetch that blows its deadline is retried after a jittered backoff —
//! failing over to a replica holder and resuming from the delivered bytes
//! unless naive — and requeued once its retry budget is spent. Per-site
//! route breakers hear every outcome. With no link faults the guard never
//! fires, so the run matches the unguarded engine byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gridsched_core::CircuitBreaker;
use gridsched_des::rng::derive_seed;

use super::*;

/// Per-site transfer-guard bookkeeping for the site's active batch fetch.
#[derive(Debug, Default)]
struct GuardSlot {
    /// Monotonic stamp distinguishing live timeout/retry events from
    /// stale ones (bumped on every arm/disarm, like worker generations).
    epoch: u64,
    /// Timed-out attempts of the current file so far.
    attempts: u32,
    /// Bytes the current attempt still has to deliver. Resume keeps this
    /// shrinking across retries; naive mode resets it to the full file
    /// size — it is also the byte base for splitting a cancelled attempt
    /// into delivered vs wasted.
    remaining: f64,
    /// The armed deadline of the in-flight attempt.
    timeout: Option<EventHandle>,
    /// The armed backoff-delayed retry (no flow in flight meanwhile).
    retry: Option<EventHandle>,
    /// The file awaiting retry while no flow is in flight.
    pending_file: Option<FileId>,
    /// Failover source site of the in-flight attempt (`None` = the
    /// origin file server).
    source: Option<usize>,
}

/// The transfer-resilience layer: per-site guard slots, per-site route
/// circuit breakers, and the backoff jitter's own decorrelated RNG stream
/// (same derivation pattern as the fault processes).
pub(super) struct XferGuard {
    rng: StdRng,
    timeout_mult: f64,
    max_retries: u32,
    backoff_s: f64,
    /// Restart-from-zero mode (the ablation baseline): no resume, no
    /// failover — every retry re-fetches the whole file from the origin.
    naive: bool,
    /// Per-site breakers over the site ↔ file-server route, multiplied
    /// into placement scores and failover-source choice.
    breakers: Vec<CircuitBreaker>,
    slots: Vec<GuardSlot>,
}

/// Seed-derivation tag of the transfer guard's jitter stream (workers,
/// servers, bursts and links use `0x1…`–`0x4…`).
const XFER_STREAM_TAG: u64 = 0x5_0000_0000;

impl XferGuard {
    pub(super) fn new(config: &SimConfig, timeout_mult: f64) -> Self {
        let base = derive_seed(config.seed, Stream::Faults);
        let seed = derive_seed(base ^ XFER_STREAM_TAG, Stream::Faults);
        XferGuard {
            rng: StdRng::seed_from_u64(seed),
            timeout_mult,
            max_retries: config.transfer_retries,
            backoff_s: config.retry_backoff_s,
            naive: config.transfer_naive_retry,
            breakers: (0..config.sites).map(|_| CircuitBreaker::new()).collect(),
            slots: (0..config.sites).map(|_| GuardSlot::default()).collect(),
        }
    }

    /// Multiplies each site's route-breaker factor into its placement
    /// score, first letting open breakers cool into half-open at `t_s`.
    pub(super) fn weigh_scores(&mut self, scores: &mut [f64], t_s: f64) {
        for (breaker, score) in self.breakers.iter_mut().zip(scores) {
            let _ = breaker.tick(t_s);
            *score *= breaker.score_factor();
        }
    }

    /// Arms the deadline for `site`'s just-started fetch of `remaining`
    /// bytes over `links`: the timeout multiple × the transfer's expected
    /// duration at the current fair share. The estimate lower-bounds the
    /// true max–min rate, so `remaining / estimate` *upper*-bounds the
    /// healthy transfer time — a flow progressing at its fair share never
    /// times out.
    fn arm(
        &mut self,
        schedule: &mut Schedule<Event>,
        net: &NetSim,
        site: usize,
        remaining: f64,
        links: &[EdgeId],
        latency_s: f64,
    ) {
        let est = net.fair_share_estimate(links);
        // An empty route's infinite share adds no transfer time.
        let expected_s = latency_s + remaining / est;
        let slot = &mut self.slots[site];
        slot.epoch += 1;
        slot.remaining = remaining;
        slot.timeout = Some(schedule.schedule_in(
            SimDuration::from_secs(self.timeout_mult * expected_s),
            Event::TransferTimeout {
                site,
                epoch: slot.epoch,
            },
        ));
    }

    /// Stands down `site`'s slot: bumps the epoch (invalidating any
    /// in-flight timeout/retry event) and cancels the armed handles.
    fn disarm(&mut self, schedule: &mut Schedule<Event>, site: usize) {
        let slot = &mut self.slots[site];
        slot.epoch += 1;
        slot.pending_file = None;
        slot.source = None;
        if let Some(h) = slot.timeout.take() {
            schedule.cancel(h);
        }
        if let Some(h) = slot.retry.take() {
            schedule.cancel(h);
        }
    }
}

impl GridSim {
    /// Bytes the in-flight attempt of `site`'s batch fetch carries: the
    /// whole file, or under the guard what the attempt still had to
    /// deliver when it started (a resumed re-fetch is smaller than the
    /// file).
    pub(super) fn attempt_bytes(&self, site: usize) -> f64 {
        self.xfer
            .as_ref()
            .map_or(self.config.workload.file_size_bytes, |g| {
                g.slots[site].remaining
            })
    }

    /// `site`'s batch just started fetching a fresh file over `route`:
    /// fresh attempt budget, and a deadline armed *after* the flow started
    /// so the fair-share estimate sees the flow's own claim on its route.
    pub(super) fn guard_fresh_fetch(&mut self, site: usize, bytes: f64, route: &Route) {
        let Some(guard) = self.xfer.as_mut() else {
            return;
        };
        let slot = &mut guard.slots[site];
        slot.attempts = 0;
        slot.source = None;
        slot.pending_file = None;
        guard.arm(
            &mut self.schedule,
            &self.net,
            site,
            bytes,
            &route.links,
            route.latency_s,
        );
    }

    /// `site`'s guarded fetch landed: stand the guard down and report the
    /// success to the route breakers (the failover source's too).
    pub(super) fn guard_fetch_done(&mut self, site: usize) {
        let t_s = self.now().as_secs();
        let Some(guard) = self.xfer.as_mut() else {
            return;
        };
        let src = guard.slots[site].source;
        guard.disarm(&mut self.schedule, site);
        let _ = guard.breakers[site].on_success(t_s);
        if let Some(s) = src {
            let _ = guard.breakers[s].on_success(t_s);
        }
    }

    /// Stands down `site`'s guard slot whenever the guarded fetch ends for
    /// another reason than completion — batch dissolution, execution
    /// teardown.
    pub(super) fn disarm_transfer_guard(&mut self, site: usize) {
        if let Some(guard) = self.xfer.as_mut() {
            guard.disarm(&mut self.schedule, site);
        }
    }

    /// `site`'s in-flight batch fetch blew its deadline: cancel the flow,
    /// feed the route breakers, and either schedule a backoff-delayed
    /// retry or — once the attempt budget is spent — requeue the task.
    pub(super) fn handle_transfer_timeout(&mut self, site: usize, epoch: u64) {
        if self
            .xfer
            .as_ref()
            .is_none_or(|g| g.slots[site].epoch != epoch)
        {
            // Stale event from a disarmed guard; the handle should have
            // been cancelled, but be tolerant.
            return;
        }
        let Some(batch) = self.servers[site].active.as_mut() else {
            return;
        };
        let w = batch.worker;
        let Some((file, fid)) = batch.current.take() else {
            return;
        };
        let now = self.now();
        let attempt = self.attempt_bytes(site);
        // A cancelled attempt, not an aborted flow: it is booked as
        // retrying or requeued below.
        self.flow_purpose.remove(&fid);
        let left = self
            .net
            .cancel_flow(now, fid)
            .expect("guarded fetch is an active flow");
        // What did move stays on the books; whether it is kept (resume)
        // or re-sent (naive restart) is decided below.
        let delivered = (attempt - left).max(0.0);
        self.ledger.per_site[site].bytes_transferred += delivered;
        self.resync_net();
        self.ledger.xfer_timeouts += 1;
        self.instruments.xfer_timeouts.incr();
        let t_s = now.as_secs();
        let full_size = self.config.workload.file_size_bytes;
        let guard = self.xfer.as_mut().expect("guarded");
        let src = guard.slots[site].source.take();
        // The destination's route breaker always hears the failure; the
        // failover source's too when one was in play.
        let _ = guard.breakers[site].on_failure(t_s);
        if let Some(s) = src {
            let _ = guard.breakers[s].on_failure(t_s);
        }
        let slot = &mut guard.slots[site];
        slot.epoch += 1;
        slot.timeout = None;
        slot.attempts += 1;
        if slot.attempts > guard.max_retries {
            self.ledger.flows_requeued += 1;
            self.requeue_after_exhausted_retries(site, w);
            return;
        }
        self.ledger.flows_retrying += 1;
        if guard.naive {
            self.ledger.xfer_bytes_retransmitted += delivered;
            slot.remaining = full_size;
        } else {
            self.ledger.xfer_bytes_resumed += delivered;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            self.instruments.xfer_bytes_resumed.record(delivered as u64);
            slot.remaining = left;
        }
        slot.pending_file = Some(file);
        // Seeded exponential backoff with jitter in [0.5, 1.5) of the
        // nominal delay — retries across sites decorrelate instead of
        // thundering back in lockstep.
        let nominal = guard.backoff_s * 2f64.powi(i32::try_from(slot.attempts - 1).unwrap_or(30));
        let backoff = nominal * (0.5 + guard.rng.gen::<f64>());
        slot.retry = Some(self.schedule.schedule_in(
            SimDuration::from_secs(backoff),
            Event::TransferRetry {
                site,
                epoch: slot.epoch,
            },
        ));
    }

    /// The retry budget for `site`'s fetch is spent: dissolve the batch
    /// and hand the task back to the scheduler — it may land anywhere,
    /// including a site whose route still works. The worker itself is
    /// healthy (the network path failed, not the machine), so it goes
    /// straight back to the idle pool. The guard slot was already stood
    /// down by the timeout; it is not disarmed again.
    fn requeue_after_exhausted_retries(&mut self, site: usize, w: usize) {
        let owner = self
            .dissolve_batch(site)
            .expect("exhausted retries imply an active batch");
        debug_assert_eq!(owner, w);
        let current = self.workers[w]
            .current
            .take()
            .expect("active batch worker is running");
        let t = self.now().as_secs();
        self.telemetry.span_end(Track::worker(w), "staging", t);
        self.telemetry.instant_for_task(
            Track::worker(w),
            "requeued",
            t,
            current.task.index() as u64,
        );
        for f in current.pinned {
            self.stores[site].unpin(f);
        }
        self.workers[w].state = WorkerState::Idle;
        // Lost-then-recovered in one instant: the scheduler orphans the
        // task (requeueing it unless another replica still runs) and
        // immediately gets the worker back.
        self.orphan(w, Some((current.task, current.is_replica)));
        self.scheduler.on_worker_recovered(self.workers[w].id);
        self.schedule.schedule_now(Event::WorkerIdle(w));
        self.maybe_start_service(site);
    }

    /// The backoff elapsed: re-issue `site`'s pending fetch — from the
    /// best-scored replica holder when failover finds one, else from the
    /// origin file server (even through a still-down route: the flow
    /// stalls and the next timeout fires, burning another attempt).
    pub(super) fn handle_transfer_retry(&mut self, site: usize, epoch: u64) {
        let t_s = self.now().as_secs();
        let Some(guard) = self.xfer.as_mut().filter(|g| g.slots[site].epoch == epoch) else {
            return;
        };
        let Some(batch) = self.servers[site].active.as_ref() else {
            return;
        };
        debug_assert!(batch.current.is_none(), "retry implies no flow in flight");
        // Open breakers may have cooled into half-open by now.
        for b in &mut guard.breakers {
            let _ = b.tick(t_s);
        }
        let slot = &mut guard.slots[site];
        slot.retry = None;
        let Some(file) = slot.pending_file.take() else {
            return;
        };
        let remaining = slot.remaining;
        // Failover: the highest-scored other site that holds the file,
        // is up, and has a working route (ties → lowest index; no RNG —
        // the choice must not perturb any other random stream).
        let mut source: Option<usize> = None;
        if !guard.naive {
            let mut best = 0.0_f64;
            for s in 0..self.config.sites {
                if s == site || self.servers[s].down || !self.stores[s].contains(file) {
                    continue;
                }
                let (links, _) = union_route(&self.site_routes[s], &self.site_routes[site]);
                let score = guard.breakers[s].score_factor();
                if self.net.route_up(&links) && score > best {
                    best = score;
                    source = Some(s);
                }
            }
        }
        guard.slots[site].source = source;
        let (links, latency_s) = match source {
            Some(src) => {
                self.ledger.xfer_failovers += 1;
                self.instruments.xfer_failovers.incr();
                union_route(&self.site_routes[src], &self.site_routes[site])
            }
            None => {
                let route = &self.site_routes[site];
                (route.links.clone(), route.latency_s)
            }
        };
        let fid = self.start_flow(&links, remaining, latency_s, FlowPurpose::Batch { site });
        self.servers[site]
            .active
            .as_mut()
            .expect("still active")
            .current = Some((file, fid));
        self.ledger.xfer_retries += 1;
        self.instruments.xfer_retries.incr();
        self.resync_net();
        if let Some(guard) = self.xfer.as_mut() {
            guard.arm(
                &mut self.schedule,
                &self.net,
                site,
                remaining,
                &links,
                latency_s,
            );
        }
    }
}
