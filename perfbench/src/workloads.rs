//! The three benchmark workloads. Each is a fixed batch of simulations
//! built from one benchmark seed; the program receives only the generated
//! workload and configuration, never the seed's meaning.

use std::sync::Arc;

use gridsched_core::{ReplicaThrottle, StrategyKind};
use gridsched_sim::{CheckpointConfig, ControlConfig, FaultConfig, SimConfig};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

/// One simulated input: the Coadd generator seed and the simulation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub workload_seed: u64,
    pub sim_seed: u64,
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Table-1 setup under the six compared strategies.
    Paper6000,
    /// 10⁴ workers over 160 sites: the Θ(S)-per-task scaling target.
    Sites160,
    /// Every fault, checkpoint, control and transfer-guard subsystem on.
    ChurnAll,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Paper6000, Kind::Sites160, Kind::ChurnAll];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper6000 => "paper-6000",
            Kind::Sites160 => "sites-160",
            Kind::ChurnAll => "churn-all",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The inputs one run with benchmark seed `seed` simulates; inputs are
    /// disjoint across benchmark seeds.
    ///
    /// sites-160 feeds the seed to both the Coadd generator and
    /// `SimConfig::with_seed`; churn-all does the same for four inputs,
    /// seeds `4·seed + j`, because one fault timeline moves its mean
    /// makespan by ~9% from seed to seed. paper-6000 cannot vary
    /// the simulation seed at all: its ten worker speeds come from a power
    /// law, so one draw moves the mean makespan by a third. It averages
    /// four fixed platforms instead (simulation seeds 0–3, like the
    /// paper's fixed testbed), each running its own Coadd job of seed
    /// `4·seed + j`.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        let derived = |k: u64, j: u64| seed.wrapping_mul(k).wrapping_add(j);
        match self {
            Kind::Paper6000 => (0..4)
                .map(|j| Input {
                    workload_seed: derived(4, j),
                    sim_seed: j,
                })
                .collect(),
            Kind::Sites160 => vec![Input {
                workload_seed: seed,
                sim_seed: seed,
            }],
            Kind::ChurnAll => (0..4)
                .map(|j| Input {
                    workload_seed: derived(4, j),
                    sim_seed: derived(4, j),
                })
                .collect(),
        }
    }

    /// The workload generator for an input.
    pub fn coadd(self, input: Input) -> CoaddConfig {
        let mut cfg = CoaddConfig::paper_6000().with_seed(input.workload_seed);
        if self == Kind::Sites160 {
            // The thinned strip of `perf_scale`: same sharing structure,
            // ~12 files per task, two tasks per worker.
            cfg.tasks = 20_000;
            cfg.window_min = 4;
            cfg.window_max = 8;
            cfg.layers_mean = 3.0;
            cfg.layers_std = 0.5;
            cfg.layers_min = 2;
            cfg.layers_max = 4;
        }
        cfg
    }

    /// The batch of simulation configurations over an input's workload.
    pub fn configs(self, workload: &Arc<Workload>, input: Input) -> Vec<SimConfig> {
        let base =
            |strategy| SimConfig::paper(Arc::clone(workload), strategy).with_seed(input.sim_seed);
        match self {
            Kind::Paper6000 => StrategyKind::PAPER_SET.into_iter().map(base).collect(),
            Kind::Sites160 => {
                const SITES: usize = 160;
                const WORKERS: usize = 10_000;
                let throttle = ReplicaThrottle::none()
                    .with_replica_cap(4)
                    .with_site_budget(256);
                [
                    (StrategyKind::Combined2, None),
                    (StrategyKind::Sufferage, None),
                    (StrategyKind::StorageAffinity, Some(throttle)),
                ]
                .into_iter()
                .map(|(strategy, throttle)| {
                    let mut config = base(strategy);
                    // The paper topology has 90 sites; widen each MAN so
                    // 160 fit, as `perf_scale` does.
                    config.topology.sites_per_man = SITES.div_ceil(config.topology.mans);
                    let config = config
                        .with_sites(SITES)
                        .with_workers_per_site(WORKERS / SITES)
                        .with_capacity(workload.file_count());
                    match throttle {
                        Some(t) => config.with_replica_throttle(t),
                        None => config,
                    }
                })
                .collect()
            }
            Kind::ChurnAll => {
                let faults = FaultConfig::none()
                    .with_worker_faults(7_200.0, 1_200.0)
                    .with_server_faults(40_000.0, 900.0)
                    .with_link_faults(20_000.0, 900.0);
                [
                    StrategyKind::Rest2,
                    StrategyKind::Combined2,
                    StrategyKind::StorageAffinity,
                ]
                .into_iter()
                .map(|strategy| {
                    let mut control = ControlConfig::none()
                        .with_churn_placement()
                        .with_adaptive_checkpoint();
                    // The engine accepts the adaptive throttle for
                    // storage affinity only.
                    if strategy == StrategyKind::StorageAffinity {
                        control = control.with_adaptive_throttle();
                    }
                    base(strategy)
                        .with_workers_per_site(10)
                        .with_capacity(3_000)
                        .with_faults(faults.clone())
                        .with_transfer_timeout(3.0)
                        .with_transfer_retries(4)
                        .with_checkpointing(CheckpointConfig::young_daly_adaptive())
                        .with_control(control)
                })
                .collect()
            }
        }
    }

    /// One line on why the workload exists (the docs carry the long form).
    pub fn why(self) -> &'static str {
        match self {
            Kind::Paper6000 => {
                "the paper's Table-1 run: tight storage, so storage and the file hooks work hardest"
            }
            Kind::Sites160 => {
                "10^4 workers over 160 sites: the per-task cost that grows with the site count"
            }
            Kind::ChurnAll => {
                "faults, checkpointing, control loops and the transfer guard all on at once"
            }
        }
    }
}
