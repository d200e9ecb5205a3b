//! Proactive replication pushes (the [`crate::replication`] ablation):
//! once a file's popularity crosses the threshold, the engine pushes it to
//! a random site that lacks it.

use rand::rngs::StdRng;
use rand::Rng;

use super::*;
use crate::replication::ReplicationState;

/// Runtime state of the replication extension: popularity bookkeeping and
/// the push-placement RNG stream.
pub(super) struct Replication {
    pub(super) state: ReplicationState,
    pub(super) rng: StdRng,
}

impl Replication {
    /// The state for `config`'s replication extension, if enabled.
    pub(super) fn new(config: &SimConfig) -> Option<Self> {
        let rc = config.replication?;
        Some(Replication {
            state: ReplicationState::new(rc, config.workload.file_count()),
            rng: rng_for(config.seed, Stream::Replication),
        })
    }
}

impl GridSim {
    /// Records one reference of each of `files` (started at
    /// `origin_site`) and pushes every file that just became eligible to a
    /// site lacking it.
    pub(super) fn maybe_replicate(&mut self, files: &[FileId], origin_site: usize) {
        if self.config.sites < 2 {
            return;
        }
        // Held outside `self` while flows start; nothing below reads it.
        let Some(mut rep) = self.replication.take() else {
            return;
        };
        for &f in files {
            if !rep.state.record_reference(f) {
                continue;
            }
            // Pick a random site lacking the file (skipping servers that
            // are down — nothing can receive a push during an outage).
            let mut any_down = false;
            let mut candidates: Vec<usize> = Vec::new();
            for s in 0..self.config.sites {
                if s == origin_site {
                    continue;
                }
                if self.servers[s].down {
                    any_down = true;
                } else if !self.stores[s].contains(f) {
                    candidates.push(s);
                }
            }
            let plane = self.control.as_ref().filter(|p| p.placement_enabled());
            let Some(target) = pick_scored_push_target(&mut rep.rng, &candidates, plane) else {
                // Nothing can receive the file right now. If no server is
                // down, every possible target already holds the file —
                // coverage is complete, so stop re-scanning (and
                // re-drawing) on later references until a copy is lost
                // again (`on_copy_lost` re-arms the file on eviction or
                // outage). A down server, by contrast, comes back empty
                // after repair, so outage windows keep the file eligible.
                if !any_down {
                    rep.state.mark_exhausted(f);
                }
                continue;
            };
            rep.state.mark_pushed(f);
            self.ledger.replication_pushes += 1;
            let route = Arc::clone(&self.site_routes[target]);
            self.start_flow(
                &route.links,
                self.config.workload.file_size_bytes,
                route.latency_s,
                FlowPurpose::Replication {
                    site: target,
                    file: f,
                },
            );
            self.resync_net();
        }
        self.replication = Some(rep);
    }

    /// A push of `file` to `site` landed.
    pub(super) fn push_landed(&mut self, site: usize, file: FileId) {
        let bytes = self.config.workload.file_size_bytes;
        self.ledger.replication_bytes += bytes;
        self.ledger.per_site[site].file_transfers += 1;
        self.ledger.per_site[site].bytes_transferred += bytes;
        if !self.stores[site].contains(file) {
            self.insert_file(site, file);
        }
        self.resync_net();
    }

    /// `site`'s data server failed: its inbound pushes have no destination
    /// anymore. Aborts them in flow order; the caller resyncs the network.
    pub(super) fn abort_inbound_pushes(&mut self, site: usize) {
        let mut inbound: Vec<FlowId> = self
            .flow_purpose
            .iter()
            .filter(|(_, p)| matches!(p, FlowPurpose::Replication { site: s, .. } if *s == site))
            .map(|(&fid, _)| fid)
            .collect();
        inbound.sort_unstable();
        for fid in inbound {
            self.abort_flow(fid);
        }
    }
}

/// Chooses a replication push target among `candidates`. Open-loop runs
/// keep the legacy uniform draw byte for byte; with the churn-placement
/// loop on (`plane`), the draw is restricted to the highest-scoring
/// candidates (availability × breaker factor) — the same *number* of RNG
/// draws as the uniform pick (one iff the slate is non-empty), so enabling
/// the loop never desynchronises the replication stream's draw count.
fn pick_scored_push_target(
    rng: &mut StdRng,
    candidates: &[usize],
    plane: Option<&ControlPlane>,
) -> Option<usize> {
    let Some(plane) = plane else {
        return pick_push_target(rng, candidates);
    };
    let scores = plane.site_scores();
    let best = candidates
        .iter()
        .map(|&s| scores[s])
        .fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&s| scores[s] >= best - 1e-9)
        .collect();
    pick_push_target(rng, &tied)
}

/// Chooses a replication push target uniformly among `candidates`,
/// consuming one RNG draw **iff** the slate is non-empty. An empty slate
/// must leave the replication stream untouched: drawing on it would let
/// transient store/outage states shift every later placement decision — a
/// determinism hazard across configurations.
pub(super) fn pick_push_target<R: Rng + ?Sized>(
    rng: &mut R,
    candidates: &[usize],
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[rng.gen_range(0..candidates.len())])
}
