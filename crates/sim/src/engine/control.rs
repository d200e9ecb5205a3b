//! The closed-loop controllers' engine hooks: the control tick, which
//! actuates what [`gridsched_core::ControlPlane`] decided, and the
//! estimator feeds from crashes, repairs and completions.

use gridsched_core::ControlDirective;

use super::*;

impl GridSim {
    /// One controller tick at boundary `at`: feeds the cumulative replica
    /// counters to the plane, then actuates whatever it decided — a cap
    /// move goes to the scheduler (waking parked capacity on raises), a
    /// breaker half-open wakes one probe worker at the site, fresh
    /// placement scores go to the scheduler *and* steer the engine's own
    /// replication push targeting, and the adaptive Young/Daly loop
    /// re-derives each site's checkpoint interval from the observed
    /// failure interarrival process (taking effect at the next segment
    /// boundary — in-flight segments are never rescheduled).
    pub(super) fn control_tick(&mut self, at: SimTime) {
        let mut plane = self.control.take().expect("tick implies a control plane");
        self.instruments.control_ticks.incr();
        // Cancelled *or* fault-lost replicas both count as speculative
        // waste the throttle should react to.
        let outcome = plane.tick(
            at.as_secs(),
            self.ledger.replicas_cancelled + self.ledger.replicas_lost,
            self.ledger.replicas_completed,
        );
        if let Some(cap) = outcome.new_cap {
            self.scheduler
                .on_control(&ControlDirective::SetReplicaCap(cap));
            if outcome.cap_raised {
                self.instruments.control_cap_raises.incr();
                // The raise re-admits parked replica candidates.
                self.wake_parked();
            } else {
                self.instruments.control_cap_lowers.incr();
            }
        }
        for &site in &outcome.half_opened {
            self.instruments.control_breaker_half_opens.incr();
            // Half-open re-admits the site's traffic (the dispatch gate
            // only blocks while fully open): wake every parked worker.
            // The first crash re-trips the breaker for a fresh cooldown;
            // parking the whole site until a completion closed it would
            // idle repaired workers for hours on compute-heavy tasks.
            self.wake_site_parked(site);
        }
        if let Some(mut scores) = outcome.scores {
            // Route breakers multiply into placement: a site whose
            // transfers keep timing out scores toward zero even when its
            // workers are perfectly healthy.
            if let Some(guard) = self.xfer.as_mut() {
                guard.weigh_scores(&mut scores, at.as_secs());
            }
            self.scheduler
                .on_control(&ControlDirective::SiteScores(scores));
        }
        if plane.checkpoint_enabled() {
            if let Some(ckpt) = self.checkpointing.as_mut() {
                ckpt.retune(&plane);
            }
        }
        self.control = Some(plane);
    }

    /// Feeds a worker crash at `site` to the estimators: availability
    /// integral, failure interarrival (the self-tuning Young/Daly's input)
    /// and the site's circuit breaker.
    pub(super) fn control_on_worker_crash(&mut self, site: usize, t_s: f64) {
        let Some(plane) = self.control.as_mut() else {
            return;
        };
        let tripped = plane.on_worker_crash(site, t_s);
        self.instruments.control_estimates.incr();
        if tripped {
            self.instruments.control_breaker_opens.incr();
        }
    }

    /// Feeds a worker repair at `site` to the availability estimator.
    pub(super) fn control_on_worker_recover(&mut self, site: usize, t_s: f64) {
        if let Some(plane) = self.control.as_mut() {
            plane.on_worker_recover(site, t_s);
            self.instruments.control_estimates.incr();
        }
    }

    /// A task completed at `site`: the success signal a half-open breaker
    /// waits for. Closing it re-opens the site to dispatch.
    pub(super) fn control_on_success(&mut self, site: usize, t_s: f64) {
        let closed = self
            .control
            .as_mut()
            .is_some_and(|plane| plane.on_site_success(site, t_s));
        if closed {
            self.instruments.control_breaker_closes.incr();
            self.wake_site_parked(site);
        }
    }
}
