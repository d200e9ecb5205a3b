//! Cross-commit identity: pinned results of small runs with every
//! subsystem on at once.
//!
//! Every other identity test compares two paths of the *same* build (eval
//! modes, telemetry on/off, inert configs), so a refactor that shifts the
//! whole engine's behaviour passes them all. This test pins absolute
//! values instead: for each of the 8 strategies, the event count, transfer
//! and eviction totals, the flow ledger, a few churn counters, the exact
//! bits of the makespan and byte totals, and the final hash of the
//! windowed event digest. A change that is meant to alter behaviour must
//! re-record the table (the failure message prints the new rows) and say
//! why; a refactor must leave it untouched.

use std::sync::Arc;

use gridsched::prelude::*;

/// The pinned columns, in row order.
const COLUMNS: [&str; 11] = [
    "events_dispatched",
    "file_transfers",
    "total_evictions",
    "flows_started",
    "xfer_timeouts",
    "checkpoint_restores",
    "tasks_lost",
    "makespan_minutes bits",
    "bytes_transferred bits",
    "wasted_compute_s bits",
    "digest final_hash",
];

const STRATEGIES: [StrategyKind; 8] = [
    StrategyKind::StorageAffinity,
    StrategyKind::Overlap,
    StrategyKind::Rest,
    StrategyKind::Combined,
    StrategyKind::Rest2,
    StrategyKind::Combined2,
    StrategyKind::Workqueue,
    StrategyKind::Sufferage,
];

/// The all-subsystems config: worker, server and link churn, the transfer
/// guard, Young–Daly checkpointing and the churn-aware placement loop.
fn all_subsystems(strategy: StrategyKind) -> SimConfig {
    let mut coadd = CoaddConfig::small(3);
    coadd.tasks = 160;
    let faults = FaultConfig::none()
        .with_worker_faults(3_600.0, 600.0)
        .with_server_faults(20_000.0, 900.0)
        .with_link_faults(8_000.0, 600.0);
    SimConfig::paper(Arc::new(coadd.generate()), strategy)
        .with_sites(3)
        .with_workers_per_site(3)
        .with_capacity(400)
        .with_seed(5)
        .with_faults(faults)
        .with_transfer_timeout(2.0)
        .with_transfer_retries(3)
        .with_checkpointing(CheckpointConfig::young_daly())
        .with_control(ControlConfig::none().with_churn_placement())
}

/// [`all_subsystems`] under FIFO replacement (server churn reaches
/// `SiteStore::fail`).
fn all_subsystems_fifo(strategy: StrategyKind) -> SimConfig {
    all_subsystems(strategy).with_policy(EvictionPolicy::Fifo)
}

/// [`all_subsystems`] under LFU replacement.
fn all_subsystems_lfu(strategy: StrategyKind) -> SimConfig {
    all_subsystems(strategy).with_policy(EvictionPolicy::Lfu)
}

/// The edge-path config: the paths [`all_subsystems`] does not reach.
/// Correlated crash bursts, proactive replication pushes, degraded
/// (soft) link windows next to a scripted hard partition of site 0, the
/// naive-restart transfer guard with a budget small enough to exhaust
/// (the requeue path), and self-tuned Young–Daly checkpointing. Storage
/// affinity also runs the adaptive replica throttle (the engine accepts
/// it for that strategy only).
fn edge_paths(strategy: StrategyKind) -> SimConfig {
    let mut coadd = CoaddConfig::small(4);
    coadd.tasks = 160;
    let trace = FaultTrace::parse(
        "600 partition 0\n4200 partition-heal 0\n9000 partition 1\n12000 partition-heal 1\n",
    )
    .expect("trace parses");
    let faults = FaultConfig::none()
        .with_worker_faults(5_400.0, 900.0)
        .with_worker_bursts(7_200.0, 2)
        .with_server_faults(15_000.0, 600.0)
        .with_link_faults(6_000.0, 900.0)
        .with_link_degrade_factor(0.2)
        .with_trace(trace);
    let mut control = ControlConfig::none()
        .with_churn_placement()
        .with_adaptive_checkpoint();
    if strategy == StrategyKind::StorageAffinity {
        control = control.with_adaptive_throttle();
    }
    SimConfig::paper(Arc::new(coadd.generate()), strategy)
        .with_sites(3)
        .with_workers_per_site(3)
        .with_capacity(300)
        .with_seed(11)
        .with_faults(faults)
        .with_replication(ReplicationConfig {
            popularity_threshold: 3,
            max_replicas_per_file: 2,
        })
        .with_transfer_timeout(1.5)
        .with_transfer_retries(1)
        .with_retry_backoff(45.0)
        .with_naive_retry()
        .with_checkpointing(CheckpointConfig::young_daly_adaptive())
        .with_control(control)
}

/// Runs `config` with a windowed digest and reads back the pinned columns
/// plus the full report.
fn observe(config: SimConfig, tag: &str) -> ([u64; 11], MetricsReport) {
    let path = std::env::temp_dir()
        .join(format!(
            "gridsched-golden-{}-{tag}.jsonl",
            std::process::id()
        ))
        .to_str()
        .expect("utf-8 temp path")
        .to_string();
    let config = config
        .with_digest_out(path.as_str())
        .with_digest_window(900.0);
    let r = GridSim::new(config).run();
    let text = std::fs::read_to_string(&path).expect("digest written");
    let _ = std::fs::remove_file(&path);
    let digest = DigestStream::parse_jsonl(&text).expect("digest parses");
    let row = [
        r.events_dispatched,
        r.file_transfers,
        r.total_evictions,
        r.flows_started,
        r.xfer_timeouts,
        r.checkpoint_restores,
        r.tasks_lost,
        r.makespan_minutes.to_bits(),
        r.bytes_transferred.to_bits(),
        r.wasted_compute_s.to_bits(),
        digest.final_hash,
    ];
    (row, r)
}

/// Checks every strategy's run of `config` against its recorded row and
/// returns the reports.
fn check(
    name: &str,
    config: fn(StrategyKind) -> SimConfig,
    golden: &[[u64; 11]; 8],
) -> Vec<MetricsReport> {
    let mut reports = Vec::new();
    for (strategy, expected) in STRATEGIES.into_iter().zip(golden) {
        let (observed, report) = observe(config(strategy), &format!("{name}-{strategy}"));
        for ((column, want), got) in COLUMNS.iter().zip(expected).zip(observed) {
            assert_eq!(
                got, *want,
                "{name} {strategy}: {column} drifted from the recorded run; \
                 observed row: {observed:?}"
            );
        }
        reports.push(report);
    }
    reports
}

/// Recorded rows, one per entry of [`STRATEGIES`], columns as [`COLUMNS`].
#[rustfmt::skip]
const GOLDEN: [[u64; 11]; 8] = [
    // StorageAffinity
    [14777, 5404, 885, 7229, 289, 166, 100,
     4658339777059829780, 4773704802539614786, 4688870151157716617, 2260019472543751096],
    // Overlap
    [10825, 4697, 1513, 5946, 233, 111, 243,
     4655546468237996905, 4772547537704107627, 4676374278678975911, 2248538493135920550],
    // Rest
    [7690, 2378, 558, 3424, 172, 93, 191,
     4654161672262211888, 4768154085221143353, 4676477748773272365, 13017220473615805025],
    // Combined
    [9797, 3571, 1146, 4774, 175, 90, 214,
     4655745581224388858, 4770706301146314698, 4676373364682439998, 5492273618904748674],
    // Rest2
    [8234, 2835, 704, 3941, 171, 90, 197,
     4654311016930213026, 4769491049795329430, 4676482227933280940, 2497566745780130316],
    // Combined2
    [8039, 2804, 698, 3868, 160, 95, 193,
     4654037109432135129, 4769434277032505724, 4676051060545425253, 10487078520618776179],
    // Workqueue
    [12033, 5338, 1811, 6697, 258, 114, 278,
     4656461788805690575, 4773598576081658770, 4677491885515642470, 8208027445028776184],
    // Sufferage
    [9930, 3804, 1301, 5066, 235, 91, 241,
     4655377840431349897, 4771093762021839010, 4678271356213461092, 2572029918113897519],
];

/// Recorded rows of [`edge_paths`], one per entry of [`STRATEGIES`].
#[rustfmt::skip]
const GOLDEN_EDGE: [[u64; 11]; 8] = [
    // StorageAffinity
    [17174, 8478, 2774, 9995, 205, 110, 278,
     4658107278928225322, 4776411372272653635, 4679080909483823219, 7730095910144834566],
    // Overlap
    [14577, 6596, 1926, 8280, 154, 118, 263,
     4657444344228114873, 4774832829610117078, 4678793359778920385, 12292430801188500626],
    // Rest
    [13907, 6290, 2000, 7590, 140, 129, 251,
     4657188358776193247, 4774565664058005142, 4677480360079529094, 2057175811980633803],
    // Combined
    [12856, 5655, 1871, 6988, 129, 119, 221,
     4656833697514226502, 4774031280840211846, 4677534172441842912, 5989825505692981124],
    // Rest2
    [13729, 6164, 2501, 7608, 169, 128, 234,
     4657041345288263994, 4774473645245948976, 4679278263320115535, 1420805913510301000],
    // Combined2
    [13618, 6091, 2175, 7456, 194, 96, 250,
     4657017570707499244, 4774433682782907774, 4676872552206691210, 2848653913410569493],
    // Workqueue
    [14153, 6390, 2131, 8165, 172, 96, 256,
     4657255167469406462, 4774682382072421052, 4675866634614880980, 17001008227715392757],
    // Sufferage
    [13971, 6321, 2088, 7620, 132, 105, 246,
     4657228530209063782, 4774593651499867384, 4677468585628839232, 12997450887650356563],
];

/// Recorded rows of [`all_subsystems_fifo`], one per entry of [`STRATEGIES`].
#[rustfmt::skip]
const GOLDEN_FIFO: [[u64; 11]; 8] = [
    // StorageAffinity
    [13947, 5221, 1029, 6921, 276, 142, 108,
     4657952492003604734, 4773421223949922432, 4687519830471625659, 8149522525024379191],
    // Overlap
    [10825, 4697, 1513, 5946, 233, 111, 243,
     4655546468237996905, 4772547537704107627, 4676374278678975911, 2248538493135920550],
    // Rest
    [7577, 2372, 554, 3414, 169, 87, 182,
     4653962119066771547, 4768147558241698756, 4675462467796816236, 9619404176748194935],
    // Combined
    [9474, 3408, 1028, 4592, 200, 92, 214,
     4655498484186728215, 4770435950411000882, 4676525533127918956, 10605301291448088854],
    // Rest2
    [8989, 3031, 746, 4177, 194, 93, 207,
     4655322823251463402, 4769818604614010494, 4676578796432484034, 8095410708942207113],
    // Combined2
    [8123, 2748, 758, 3847, 165, 93, 196,
     4654294351639086779, 4769339033421417475, 4676643722476551992, 4839512963143980995],
    // Workqueue
    [12059, 5366, 1839, 6724, 258, 114, 278,
     4656461788805690575, 4773646411412841628, 4677449664318713446, 7868144919003227343],
    // Sufferage
    [9749, 3717, 1362, 4938, 227, 91, 226,
     4655313964328310989, 4770941364198777225, 4677592210889304512, 2123301077928621219],
];

/// Recorded rows of [`all_subsystems_lfu`], one per entry of [`STRATEGIES`].
#[rustfmt::skip]
const GOLDEN_LFU: [[u64; 11]; 8] = [
    // StorageAffinity
    [15473, 5496, 1031, 7457, 339, 165, 103,
     4658730622489850279, 4773844535967658738, 4688953417860148958, 11220872635125644291],
    // Overlap
    [11656, 4937, 1864, 6302, 256, 116, 271,
     4656330871286413350, 4772951076723438890, 4677685732982794184, 6751962076111726019],
    // Rest
    [8527, 2961, 917, 4076, 187, 93, 199,
     4654521928559103950, 4769704075862094644, 4676119466695742536, 7350030540097383658],
    // Combined
    [11111, 4355, 1407, 5720, 236, 111, 261,
     4656348159648538188, 4772003083975293310, 4677536215815170666, 11765625581584311583],
    // Rest2
    [10388, 3728, 1006, 5005, 231, 105, 238,
     4656249283761185227, 4770955946402464105, 4677133836812526842, 5414235230443588220],
    // Combined2
    [9861, 3760, 1107, 5003, 217, 90, 233,
     4655386516928501446, 4771022977398221444, 4677022531210048255, 17753285857647740103],
    // Workqueue
    [14166, 6666, 2866, 8185, 360, 113, 325,
     4657224740124637594, 4774807822688801517, 4676498852423238406, 12560188741997397122],
    // Sufferage
    [10719, 4117, 1588, 5458, 260, 107, 258,
     4656098791094188737, 4771601125997983691, 4677820319388690362, 14322201036096552324],
];

#[test]
fn all_subsystems_run_matches_recorded_values() {
    check("all", all_subsystems, &GOLDEN);
}

#[test]
fn edge_path_run_matches_recorded_values() {
    let reports = check("edge", edge_paths, &GOLDEN_EDGE);
    // The config really reaches the paths it is meant to pin: summed over
    // the strategies, each one fires.
    let total = |count: fn(&MetricsReport) -> u64| reports.iter().map(count).sum::<u64>();
    for (path, hits) in [
        ("replication pushes", total(|r| r.replication_pushes)),
        ("link outages", total(|r| r.link_outages)),
        ("exhausted-retry requeues", total(|r| r.flows_requeued)),
        (
            "naive retransmits",
            total(|r| u64::from(r.xfer_bytes_retransmitted > 0.0)),
        ),
        ("checkpoints written", total(|r| r.checkpoints_written)),
        ("checkpoint restores", total(|r| r.checkpoint_restores)),
    ] {
        assert!(hits > 0, "the edge-path config never reaches {path}");
    }
}

/// Checks a replacement-policy table and that its runs reach both policy
/// evictions and server-outage losses (`SiteStore::fail`).
fn check_policy(name: &str, config: fn(StrategyKind) -> SimConfig, golden: &[[u64; 11]; 8]) {
    let reports = check(name, config, golden);
    let evictions: u64 = reports.iter().map(|r| r.total_evictions).sum();
    let outages: u64 = reports.iter().map(|r| r.server_outages).sum();
    assert!(evictions > 0, "{name}: the config never evicts");
    assert!(outages > 0, "{name}: the config never fails a server");
}

#[test]
fn fifo_run_matches_recorded_values() {
    check_policy("fifo", all_subsystems_fifo, &GOLDEN_FIFO);
}

#[test]
fn lfu_run_matches_recorded_values() {
    check_policy("lfu", all_subsystems_lfu, &GOLDEN_LFU);
}
