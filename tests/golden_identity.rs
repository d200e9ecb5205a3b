//! Cross-commit identity: pinned results of one small run with every
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
fn config(strategy: StrategyKind, digest_out: &str) -> SimConfig {
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
        .with_digest_out(digest_out)
        .with_digest_window(900.0)
}

fn observe(strategy: StrategyKind) -> [u64; 11] {
    let path = std::env::temp_dir()
        .join(format!(
            "gridsched-golden-{}-{strategy}.jsonl",
            std::process::id()
        ))
        .to_str()
        .expect("utf-8 temp path")
        .to_string();
    let r = GridSim::new(config(strategy, &path)).run();
    let text = std::fs::read_to_string(&path).expect("digest written");
    let _ = std::fs::remove_file(&path);
    let digest = DigestStream::parse_jsonl(&text).expect("digest parses");
    [
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
    ]
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

#[test]
fn all_subsystems_run_matches_recorded_values() {
    for (strategy, expected) in STRATEGIES.into_iter().zip(GOLDEN) {
        let observed = observe(strategy);
        for ((column, want), got) in COLUMNS.iter().zip(expected).zip(observed) {
            assert_eq!(
                got, want,
                "{strategy}: {column} drifted from the recorded run; \
                 observed row: {observed:?}"
            );
        }
    }
}
