//! Engine unit tests: completion, determinism and the subsystems' edge
//! paths on small runs.

use super::replication::pick_push_target;
use super::*;
use rand::Rng;

use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::Workload;

fn small_config(strategy: StrategyKind) -> SimConfig {
    let wl = Arc::new(CoaddConfig::small(0).generate());
    SimConfig::paper(wl, strategy)
        .with_sites(3)
        .with_capacity(400)
        .with_seed(1)
}

#[test]
fn completes_all_tasks_worker_centric() {
    for strategy in [
        StrategyKind::Overlap,
        StrategyKind::Rest,
        StrategyKind::Combined,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Workqueue,
    ] {
        let report = GridSim::new(small_config(strategy)).run();
        assert_eq!(report.tasks_completed, 200, "{strategy}");
        assert!(report.makespan_minutes > 0.0, "{strategy}");
        assert!(report.file_transfers > 0, "{strategy}");
        assert_eq!(report.replicas_launched, 0, "{strategy} never replicates");
    }
}

#[test]
fn completes_all_tasks_storage_affinity() {
    let report = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.makespan_minutes > 0.0);
    // Fault-free: every launched replica either won or was cancelled.
    assert_eq!(
        report.replicas_launched,
        report.replicas_cancelled + report.replicas_completed
    );
    assert_eq!(report.replicas_lost, 0);
}

#[test]
fn throttled_storage_affinity_completes_with_fewer_replicas() {
    let uncapped = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
    let capped = GridSim::new(
        small_config(StrategyKind::StorageAffinity)
            .with_replica_cap(1)
            .with_site_replica_budget(2),
    )
    .run();
    assert_eq!(capped.tasks_completed, 200);
    assert!(
        capped.replicas_launched <= uncapped.replicas_launched,
        "throttle must not inflate the replica count: {} vs {}",
        capped.replicas_launched,
        uncapped.replicas_launched
    );
    assert_eq!(
        capped.replicas_launched,
        capped.replicas_cancelled + capped.replicas_completed
    );
    assert_eq!(capped.config.replica_throttle, "cap=1 site-budget=2");
    // Throttled runs are just as deterministic.
    let again = GridSim::new(
        small_config(StrategyKind::StorageAffinity)
            .with_replica_cap(1)
            .with_site_replica_budget(2),
    )
    .run();
    assert_eq!(capped, again);
}

#[test]
fn throttled_churned_run_completes() {
    // Liveness under the throttle's targeted wake-ups: crashes orphan
    // tasks whose only route back is replication, and parked workers
    // must be woken to pick them up.
    let config = small_config(StrategyKind::StorageAffinity)
        .with_replica_cap(1)
        .with_site_replica_budget(1)
        .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 400.0));
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert_eq!(
        report.replicas_launched,
        report.replicas_cancelled + report.replicas_completed + report.replicas_lost
    );
}

#[test]
#[should_panic(expected = "only applies to storage-affinity")]
fn throttle_with_worker_centric_strategy_panics() {
    let _ = GridSim::new(small_config(StrategyKind::Rest).with_replica_cap(1));
}

#[test]
fn push_attempts_on_empty_slates_leave_rng_and_later_decisions_unchanged() {
    // Regression for the `maybe_replicate` determinism hazard: a push
    // attempt during a full-coverage or all-servers-down window must
    // not consume the placement RNG (so later pushes land exactly
    // where they would have), full coverage must exhaust the file
    // (no more O(S) re-scans while coverage holds, re-armed when a
    // copy is lost), and an outage window must only *defer* the push.
    use rand::rngs::StdRng;
    let wl = Arc::new(CoaddConfig::small(0).generate());
    let config = SimConfig::paper(wl, StrategyKind::Rest)
        .with_sites(3)
        .with_replication(crate::replication::ReplicationConfig {
            popularity_threshold: 1,
            max_replicas_per_file: 5,
        });
    let mut sim = GridSim::new(config);
    let probe = |rng: &StdRng| rng.clone().gen_range(0..1_000_000u64);
    let f = FileId(0);
    // Full coverage: every non-origin store already holds `f`.
    for s in 1..3 {
        let evicted = sim.stores[s].insert(f);
        assert!(evicted.is_empty());
    }
    let before = probe(&sim.replication.as_ref().expect("enabled").rng);
    sim.maybe_replicate(&[f], 0);
    assert_eq!(sim.ledger.replication_pushes, 0, "nowhere to push");
    assert_eq!(
        probe(&sim.replication.as_ref().expect("enabled").rng),
        before,
        "full-coverage slate must not advance the RNG"
    );
    // Exhaustion holds while coverage holds: no re-scan, no draw.
    sim.maybe_replicate(&[f], 0);
    assert_eq!(
        sim.ledger.replication_pushes, 0,
        "exhausted file stays inert"
    );
    // All-servers-down window: skipped draw, but the file stays
    // eligible and pushes as soon as a server is back.
    let g = FileId(1);
    sim.servers[1].down = true;
    sim.servers[2].down = true;
    sim.maybe_replicate(&[g], 0);
    assert_eq!(sim.ledger.replication_pushes, 0, "outage blocks the push");
    assert_eq!(
        probe(&sim.replication.as_ref().expect("enabled").rng),
        before,
        "outage-window slate must not advance the RNG"
    );
    sim.servers[1].down = false;
    sim.servers[2].down = false;
    sim.maybe_replicate(&[g], 0);
    assert_eq!(
        sim.ledger.replication_pushes, 1,
        "outage only defers the push"
    );
    assert_ne!(
        probe(&sim.replication.as_ref().expect("enabled").rng),
        before,
        "the deferred push consumes exactly the draw it always would"
    );
    // A lost copy re-arms an exhausted file (the engine forwards every
    // eviction/outage loss through `on_copy_lost`): the next reference
    // pushes `f` to the now-empty site after all.
    let lost = sim.stores[2].fail();
    assert!(lost.contains(&f));
    for e in lost {
        sim.replication
            .as_mut()
            .expect("enabled")
            .state
            .on_copy_lost(e);
    }
    sim.maybe_replicate(&[f], 0);
    assert_eq!(
        sim.ledger.replication_pushes, 2,
        "broken coverage re-arms f"
    );
}

#[test]
fn empty_push_slate_leaves_rng_untouched() {
    // Regression: `maybe_replicate` used to draw from the replication
    // RNG even when no site could receive the push (full coverage or
    // an outage window), so transient state shifted every later
    // placement. The draw must be skipped entirely.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(42);
    let mut untouched = rng.clone();
    assert_eq!(pick_push_target(&mut rng, &[]), None);
    assert_eq!(pick_push_target(&mut rng, &[]), None);
    assert_eq!(
        rng.gen_range(0..1_000_000),
        untouched.gen_range(0..1_000_000),
        "empty slates must not advance the stream"
    );
    // Non-empty slates still consume exactly one draw each.
    let picked = pick_push_target(&mut rng, &[3, 5, 9]).expect("non-empty");
    assert!([3, 5, 9].contains(&picked));
    assert_ne!(
        rng.gen_range(0..1_000_000),
        untouched.gen_range(0..1_000_000),
        "a real pick consumes the stream"
    );
}

#[test]
fn deterministic_runs() {
    let a = GridSim::new(small_config(StrategyKind::Rest2)).run();
    let b = GridSim::new(small_config(StrategyKind::Rest2)).run();
    assert_eq!(a, b, "same config ⇒ identical report");
}

#[test]
fn seeds_change_results() {
    let a = GridSim::new(small_config(StrategyKind::Rest2)).run();
    let b = GridSim::new(small_config(StrategyKind::Rest2).with_seed(2)).run();
    assert_ne!(
        a.makespan_minutes, b.makespan_minutes,
        "different seeds should differ"
    );
}

#[test]
fn transfers_bounded_by_accesses() {
    let report = GridSim::new(small_config(StrategyKind::Rest)).run();
    let wl = CoaddConfig::small(0).generate();
    let total_accesses: u64 = wl.tasks().iter().map(|t| t.file_count() as u64).sum();
    assert!(report.file_transfers <= total_accesses);
    // With data reuse, transfers should be well below total accesses.
    assert!(
        (report.file_transfers as f64) < 0.9 * total_accesses as f64,
        "reuse should eliminate many transfers: {} vs {}",
        report.file_transfers,
        total_accesses
    );
}

#[test]
fn locality_beats_workqueue_on_transfers() {
    let rest = GridSim::new(small_config(StrategyKind::Rest)).run();
    let wq = GridSim::new(small_config(StrategyKind::Workqueue)).run();
    assert!(
        rest.file_transfers < wq.file_transfers,
        "rest ({}) should transfer fewer files than workqueue ({})",
        rest.file_transfers,
        wq.file_transfers
    );
}

#[test]
fn tiny_capacity_still_completes() {
    // Capacity barely above the largest task: heavy thrash, but no
    // deadlock and no capacity violation beyond pinned overflow.
    let wl = Arc::new(CoaddConfig::small(0).generate());
    let max_task = wl.tasks().iter().map(|t| t.file_count()).max().unwrap();
    let config = SimConfig::paper(wl, StrategyKind::Rest)
        .with_sites(2)
        .with_capacity(max_task + 5)
        .with_seed(3);
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.total_evictions > 0, "thrash expected");
}

#[test]
fn single_site_single_worker() {
    let wl = Arc::new(CoaddConfig::small(1).generate());
    let config = SimConfig::paper(wl, StrategyKind::Combined)
        .with_sites(1)
        .with_seed(4);
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert_eq!(report.per_site.len(), 1);
    assert_eq!(report.per_site[0].requests, 200);
}

#[test]
fn multi_worker_site_contends() {
    let wl = Arc::new(CoaddConfig::small(2).generate());
    let config = SimConfig::paper(wl, StrategyKind::Rest)
        .with_sites(2)
        .with_workers_per_site(4)
        .with_seed(5);
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    // With several workers per site, requests queue behind each other.
    let waited: f64 = report.per_site.iter().map(|s| s.waiting_time_s).sum();
    assert!(waited > 0.0, "queueing must appear with 4 workers/site");
}

#[test]
fn replication_extension_pushes_files() {
    let wl = Arc::new(CoaddConfig::small(0).generate());
    let config = SimConfig::paper(wl, StrategyKind::Rest)
        .with_sites(3)
        .with_seed(6)
        .with_replication(crate::replication::ReplicationConfig {
            popularity_threshold: 2,
            max_replicas_per_file: 1,
        });
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.replication_pushes > 0);
    assert!(report.replication_bytes > 0.0);
}

#[test]
fn fixed_speed_makespan_sanity() {
    // One site, one worker, fixed speed: makespan must exceed the pure
    // compute lower bound and the pure transfer lower bound.
    let wl = Arc::new(CoaddConfig::small(3).generate());
    let total_flops: f64 = wl.tasks().iter().map(|t| t.flops).sum();
    let speed = 1e11;
    let config = SimConfig::paper(Arc::clone(&wl), StrategyKind::Workqueue)
        .with_sites(1)
        .with_speeds(SpeedModelFixed(speed))
        .with_seed(7);
    let report = GridSim::new(config).run();
    let compute_minutes = total_flops / speed / 60.0;
    assert!(
        report.makespan_minutes >= compute_minutes,
        "makespan {} must cover compute {}",
        report.makespan_minutes,
        compute_minutes
    );
}

// Local alias so the test reads naturally.
#[allow(non_snake_case)]
fn SpeedModelFixed(s: f64) -> crate::speeds::SpeedModel {
    crate::speeds::SpeedModel::Fixed(s)
}

#[test]
fn worker_churn_completes_with_reexecutions() {
    let config = small_config(StrategyKind::Rest2)
        .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0));
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.worker_crashes > 0, "churn must inject crashes");
    assert!(report.re_executions >= report.tasks_lost);
    assert!(report.mean_worker_availability() < 1.0);
}

#[test]
fn server_churn_completes_and_loses_files() {
    let config = small_config(StrategyKind::StorageAffinity)
        .with_faults(gridsched_faults::FaultConfig::none().with_server_faults(15_000.0, 900.0));
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.server_outages > 0, "churn must inject outages");
    assert!(report.mean_server_availability() < 1.0);
}

#[test]
fn checkpointing_saves_work_under_churn() {
    let faulty = || {
        small_config(StrategyKind::Rest2)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0))
    };
    let plain = GridSim::new(faulty()).run();
    let ckpt = GridSim::new(
        faulty().with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(300.0)),
    )
    .run();
    assert_eq!(ckpt.tasks_completed, 200);
    assert!(ckpt.checkpoints_written > 0, "churned run must checkpoint");
    assert!(ckpt.work_saved_s > 0.0, "resumes must rescue work");
    assert!(ckpt.checkpoint_restores > 0);
    assert!(
        ckpt.wasted_compute_s < plain.wasted_compute_s,
        "checkpointing must cut re-executed compute: {} vs {}",
        ckpt.wasted_compute_s,
        plain.wasted_compute_s
    );
    // Fault-free metrics of the checkpoint run stay self-consistent.
    assert!(ckpt.checkpoint_overhead_s > 0.0);
    assert_eq!(plain.checkpoints_written, 0);
    assert_eq!(plain.work_saved_s, 0.0);
}

#[test]
fn young_daly_derives_interval_from_fault_model() {
    let config = small_config(StrategyKind::Workqueue)
        .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
        .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly());
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.checkpoints_written > 0);
    assert_eq!(report.config.checkpointing, "young-daly image=25MB");
}

#[test]
#[should_panic(expected = "needs a worker MTBF")]
fn young_daly_without_faults_panics() {
    let config = small_config(StrategyKind::Rest)
        .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly());
    let _ = GridSim::new(config);
}

#[test]
fn inert_checkpoint_config_is_invisible() {
    let faulty = || {
        small_config(StrategyKind::StorageAffinity)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(4_000.0, 500.0))
    };
    let a = GridSim::new(faulty()).run();
    let b =
        GridSim::new(faulty().with_checkpointing(gridsched_checkpoint::CheckpointConfig::none()))
            .run();
    assert_eq!(a, b, "policy none must reproduce the churn engine exactly");
}

#[test]
fn checkpointing_without_faults_only_adds_overhead() {
    let config = small_config(StrategyKind::Combined)
        .with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(120.0));
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.checkpoints_written > 0);
    // Nothing ever crashes, so nothing is restored or lost.
    assert_eq!(report.checkpoint_restores, 0);
    assert_eq!(report.checkpoints_lost, 0);
    assert_eq!(report.work_saved_s, 0.0);
    assert!(report.checkpoint_overhead_s > 0.0);
}

#[test]
fn checkpointed_churn_is_deterministic() {
    let config = || {
        small_config(StrategyKind::Combined2)
            .with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_worker_faults(3_500.0, 450.0)
                    .with_server_faults(20_000.0, 700.0),
            )
            .with_checkpointing(gridsched_checkpoint::CheckpointConfig::fixed(400.0))
    };
    let a = GridSim::new(config()).run();
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "checkpointing broke determinism");
}

#[test]
fn weibull_repairs_change_downtime_not_crash_count() {
    let cfg = |shape: f64| {
        small_config(StrategyKind::Rest).with_faults(
            gridsched_faults::FaultConfig::none()
                .with_worker_faults(3_000.0, 400.0)
                .with_worker_repair_shape(shape),
        )
    };
    let exp = GridSim::new(cfg(1.0)).run();
    let fat = GridSim::new(cfg(0.5)).run();
    assert_eq!(exp.tasks_completed, 200);
    assert_eq!(fat.tasks_completed, 200);
    // Shape 1.0 must match the legacy exponential engine exactly.
    let legacy = GridSim::new(
        small_config(StrategyKind::Rest)
            .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(3_000.0, 400.0)),
    )
    .run();
    assert_eq!(exp.makespan_minutes, legacy.makespan_minutes);
    // A different shape must actually change the run.
    assert_ne!(fat.makespan_minutes, exp.makespan_minutes);
}

#[test]
fn combined_churn_is_deterministic() {
    let config = || {
        small_config(StrategyKind::Combined2).with_faults(
            gridsched_faults::FaultConfig::none()
                .with_worker_faults(4_000.0, 500.0)
                .with_server_faults(25_000.0, 800.0),
        )
    };
    let a = GridSim::new(config()).run();
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "fault injection broke determinism");
}

#[test]
fn burst_churn_completes_and_is_deterministic() {
    let config = || {
        small_config(StrategyKind::Rest2).with_faults(
            gridsched_faults::FaultConfig::none()
                .with_worker_faults(3_000.0, 400.0)
                .with_worker_bursts(4_000.0, 2),
        )
    };
    let a = GridSim::new(config()).run();
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "bursts broke determinism");
    assert_eq!(a.tasks_completed, 200);
    assert!(a.worker_crashes > 0);
    assert!(a.config.faults.contains("bursts rate=4000s size=2"));
}

#[test]
#[should_panic(expected = "correlated crash bursts need worker faults")]
fn bursts_without_worker_faults_panic() {
    let config = small_config(StrategyKind::Rest).with_faults(
        gridsched_faults::FaultConfig::none()
            .with_server_faults(20_000.0, 900.0)
            .with_worker_bursts(3_000.0, 2),
    );
    let _ = GridSim::new(config);
}

#[test]
fn adaptive_throttle_completes_and_is_deterministic() {
    use gridsched_core::ControlConfig;
    let config = || {
        small_config(StrategyKind::StorageAffinity).with_control(
            ControlConfig::none()
                .with_adaptive_throttle()
                .with_tick_s(120.0),
        )
    };
    let a = GridSim::new(config()).run();
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "the throttle controller broke determinism");
    assert_eq!(a.tasks_completed, 200);
    // The summary reports the *configured* throttle (none — the
    // controller's starting cap is runtime state) plus the loop.
    assert_eq!(a.config.replica_throttle, "none");
    assert_eq!(a.config.control, "throttle tick=120s");
    // The adaptive run is throttled from the start, so speculation
    // stays at or below the uncapped baseline.
    let uncapped = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
    assert!(
        a.replicas_launched <= uncapped.replicas_launched,
        "adaptive throttle must not inflate replicas: {} vs {}",
        a.replicas_launched,
        uncapped.replicas_launched
    );
}

#[test]
#[should_panic(expected = "adaptive replica throttle only applies to storage-affinity")]
fn adaptive_throttle_with_worker_centric_strategy_panics() {
    use gridsched_core::ControlConfig;
    let config = small_config(StrategyKind::Rest)
        .with_control(ControlConfig::none().with_adaptive_throttle());
    let _ = GridSim::new(config);
}

#[test]
fn churn_placement_under_bursts_completes_and_is_deterministic() {
    use gridsched_core::ControlConfig;
    let config = || {
        small_config(StrategyKind::Rest2)
            .with_faults(
                gridsched_faults::FaultConfig::none()
                    .with_worker_faults(2_500.0, 600.0)
                    .with_worker_bursts(3_000.0, 1),
            )
            .with_control(
                ControlConfig::none()
                    .with_churn_placement()
                    .with_tick_s(120.0),
            )
    };
    let a = GridSim::new(config()).run();
    assert_eq!(a.tasks_completed, 200);
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "breaker gating broke determinism");
}

#[test]
fn adaptive_young_daly_checkpoints_without_declared_mtbf() {
    use gridsched_core::ControlConfig;
    let config = small_config(StrategyKind::Workqueue)
        .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
        .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly_adaptive())
        .with_control(
            ControlConfig::none()
                .with_adaptive_checkpoint()
                .with_tick_s(300.0),
        );
    let report = GridSim::new(config).run();
    assert_eq!(report.tasks_completed, 200);
    assert!(
        report.checkpoints_written > 0,
        "the loop must switch checkpointing on once failures are observed"
    );
    assert_eq!(
        report.config.checkpointing,
        "young-daly-adaptive image=25MB"
    );
}

#[test]
#[should_panic(expected = "young-daly-adaptive checkpointing needs the adaptive-checkpoint")]
fn adaptive_young_daly_without_the_loop_panics() {
    let config = small_config(StrategyKind::Workqueue)
        .with_faults(gridsched_faults::FaultConfig::none().with_worker_faults(2_500.0, 300.0))
        .with_checkpointing(gridsched_checkpoint::CheckpointConfig::young_daly_adaptive());
    let _ = GridSim::new(config);
}

#[test]
fn workload_type_reexport_sanity() {
    // Guard against accidental API drift: the engine consumes the same
    // Workload type the workload crate exports.
    fn takes(_: &Workload) {}
    let wl = CoaddConfig::small(0).generate();
    takes(&wl);
}

// ----- network faults & transfer resilience ---------------------------

#[test]
fn stochastic_link_faults_with_guard_complete_and_are_deterministic() {
    let config = || {
        small_config(StrategyKind::Rest)
            .with_faults(gridsched_faults::FaultConfig::none().with_link_faults(4_000.0, 600.0))
            .with_transfer_timeout(3.0)
            .with_transfer_retries(4)
            .with_retry_backoff(30.0)
    };
    let a = GridSim::new(config()).run();
    assert_eq!(a.tasks_completed, 200);
    assert!(a.link_outages > 0, "the MTBF must bite within the run");
    assert!(a.link_downtime_s > 0.0);
    // Flow conservation (also debug-asserted in report()).
    assert_eq!(
        a.flows_started,
        a.flows_completed + a.flows_aborted + a.flows_retrying + a.flows_requeued
    );
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "link faults + guard broke determinism");
}

#[test]
fn degraded_link_windows_complete_without_a_guard() {
    // Degraded windows slow flows down but never stall them, so no
    // transfer guard is needed for liveness.
    let report = GridSim::new(
        small_config(StrategyKind::Rest2).with_faults(
            gridsched_faults::FaultConfig::none()
                .with_link_faults(3_000.0, 900.0)
                .with_link_degrade_factor(0.25),
        ),
    )
    .run();
    assert_eq!(report.tasks_completed, 200);
    assert!(report.link_outages > 0);
    assert_eq!(report.xfer_timeouts, 0, "no guard configured");
}

#[test]
fn scripted_link_outage_accounts_downtime_and_heals() {
    let trace =
        gridsched_faults::FaultTrace::parse("600 link-down 0\n2400 link-up 0").expect("parses");
    let report = GridSim::new(
        small_config(StrategyKind::Workqueue)
            .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace)),
    )
    .run();
    assert_eq!(report.tasks_completed, 200);
    assert_eq!(report.link_outages, 1);
    assert!(
        report.link_downtime_s > 0.0,
        "the outage window must accrue downtime"
    );
}

#[test]
fn scripted_partition_with_guard_times_out_and_completes() {
    // Site 0 is cut off for its first busy stretch; the guard turns
    // the stalled fetches into retries (and, budget spent, requeues)
    // instead of waiting out the whole partition.
    let trace = gridsched_faults::FaultTrace::parse("60 partition 0\n6000 partition-heal 0")
        .expect("parses");
    let config = || {
        small_config(StrategyKind::Rest)
            .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace.clone()))
            .with_transfer_timeout(2.0)
            .with_transfer_retries(2)
            .with_retry_backoff(60.0)
    };
    let a = GridSim::new(config()).run();
    assert_eq!(a.tasks_completed, 200);
    assert!(
        a.xfer_timeouts > 0,
        "stalled fetches behind the partition must hit the deadline"
    );
    assert!(a.xfer_retries > 0 || a.flows_requeued > 0);
    assert_eq!(
        a.flows_started,
        a.flows_completed + a.flows_aborted + a.flows_retrying + a.flows_requeued
    );
    let b = GridSim::new(config()).run();
    assert_eq!(a, b, "partition + guard broke determinism");
}

#[test]
fn guard_on_a_healthy_run_never_fires() {
    // The deadline is timeout_mult × an upper bound on the transfer
    // time (the fair-share estimate lower-bounds the max–min rate),
    // so on a fault-free run no timeout can ever dispatch — the
    // guarded run's behaviour matches the unguarded run exactly.
    let base = GridSim::new(small_config(StrategyKind::StorageAffinity)).run();
    let guarded = GridSim::new(
        small_config(StrategyKind::StorageAffinity)
            .with_transfer_timeout(1.5)
            .with_transfer_retries(3)
            .with_retry_backoff(30.0),
    )
    .run();
    assert_eq!(guarded.xfer_timeouts, 0);
    assert_eq!(guarded.flows_retrying, 0);
    assert_eq!(guarded.flows_requeued, 0);
    assert_eq!(guarded.makespan_minutes, base.makespan_minutes);
    assert_eq!(guarded.file_transfers, base.file_transfers);
    assert_eq!(guarded.events_dispatched, base.events_dispatched);
    assert_eq!(guarded.per_site, base.per_site);
}

#[test]
fn naive_retry_retransmits_what_resume_keeps() {
    // Under the same flap storm, restart-from-zero re-sends delivered
    // bytes that partial-transfer resume keeps.
    let trace = gridsched_faults::FaultTrace::parse(
        "300 link-down 0\n1500 link-up 0\n2400 link-down 0\n3600 link-up 0",
    )
    .expect("parses");
    let config = |naive: bool| {
        let c = small_config(StrategyKind::Rest)
            .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace.clone()))
            .with_transfer_timeout(2.0)
            .with_transfer_retries(5)
            .with_retry_backoff(30.0);
        if naive {
            c.with_naive_retry()
        } else {
            c
        }
    };
    let resume = GridSim::new(config(false)).run();
    let naive = GridSim::new(config(true)).run();
    assert_eq!(resume.tasks_completed, 200);
    assert_eq!(naive.tasks_completed, 200);
    assert!(resume.xfer_timeouts > 0, "the flap storm must bite");
    assert!(naive.xfer_timeouts > 0, "the flap storm must bite");
    assert_eq!(resume.xfer_bytes_retransmitted, 0.0);
    assert_eq!(naive.xfer_bytes_resumed, 0.0);
    // Byte math stays sound either way: both runs moved at least one
    // full file per transfer they completed.
    assert!(resume.bytes_transferred > 0.0);
    assert!(naive.bytes_transferred >= resume.bytes_transferred - 1e-6);
}

#[test]
#[should_panic(expected = "references link")]
fn trace_with_out_of_range_link_panics() {
    let trace = gridsched_faults::FaultTrace::parse("600 link-down 9999").expect("parses");
    let _ = GridSim::new(
        small_config(StrategyKind::Rest)
            .with_faults(gridsched_faults::FaultConfig::none().with_trace(trace)),
    );
}
