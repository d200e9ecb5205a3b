//! Acceptance tests for the run-forensics and determinism-digest layers.
//!
//! Forensics contract: the per-task blame decomposition tiles each
//! execution exactly (components sum to the span), and the critical path
//! is a chain of disjoint recorded segments, so its length lower-bounds
//! the makespan. Digest contract: the windowed event-stream digest is a
//! pure function of the simulated schedule — byte-identical across every
//! scheduler evaluation path and across repeated runs, and divergent
//! (with a pinpointed first window/ordinal) the moment the schedule
//! actually differs.

use std::sync::Arc;

use proptest::prelude::*;

use gridsched::prelude::*;

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("gridsched-forensics-{}-{tag}", std::process::id()))
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

const ALL_STRATEGIES: [StrategyKind; 8] = [
    StrategyKind::StorageAffinity,
    StrategyKind::Overlap,
    StrategyKind::Rest,
    StrategyKind::Combined,
    StrategyKind::Rest2,
    StrategyKind::Combined2,
    StrategyKind::Workqueue,
    StrategyKind::Sufferage,
];

fn small_workload(seed: u64, tasks: u32) -> Arc<Workload> {
    let mut cfg = CoaddConfig::small(seed);
    cfg.tasks = tasks;
    Arc::new(cfg.generate())
}

/// Runs one traced simulation and analyzes the recording.
fn blame_for(config: &SimConfig, tag: &str) -> (MetricsReport, BlameReport) {
    let trace_path = temp_path(tag);
    let report = GridSim::new(config.clone().with_trace_out(&trace_path))
        .with_telemetry(Telemetry::enabled())
        .run();
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let _ = std::fs::remove_file(&trace_path);
    let blame = BlameReport::from_chrome_trace(&text).expect("trace parses");
    (report, blame)
}

/// Blame components must sum to each task's span (exact tiling), every
/// workload task must appear, and the critical path must be a non-empty
/// chain of segments that lower-bounds the makespan.
#[test]
fn blame_tiles_spans_and_critical_path_bounds_makespan() {
    for (i, strategy) in [
        StrategyKind::StorageAffinity,
        StrategyKind::Rest2,
        StrategyKind::Combined2,
        StrategyKind::Sufferage,
    ]
    .into_iter()
    .enumerate()
    {
        let config = SimConfig::paper(small_workload(1, 100), strategy)
            .with_sites(3)
            .with_capacity(500)
            .with_seed(1);
        let (report, blame) = blame_for(&config, &format!("blame-{i}.json"));
        assert_eq!(blame.tasks.len(), 100, "{strategy}");
        assert_eq!(
            blame.tasks.iter().filter(|t| t.completed).count(),
            100,
            "{strategy}"
        );
        for task in &blame.tasks {
            let sum = task.queue_wait_us
                + task.staging_us
                + task.restore_us
                + task.compute_us
                + task.checkpoint_us
                + task.re_executed_us;
            assert_eq!(
                sum, task.span_us,
                "{strategy}: task {} blame does not tile its span",
                task.task
            );
        }
        let makespan_us = (report.makespan_minutes * 60.0 * 1e6).round() as u64;
        let path = blame.critical_path_us();
        assert!(path > 0, "{strategy}: empty critical path");
        assert!(
            path <= makespan_us + blame.critical_path.len() as u64,
            "{strategy}: critical path {path} µs exceeds makespan {makespan_us} µs \
             (tolerance one µs of rounding per segment)"
        );
        // Segments are chained backwards from the makespan and must not
        // overlap in time.
        for pair in blame.critical_path.windows(2) {
            assert!(
                pair[0].end_us <= pair[1].start_us,
                "{strategy}: critical-path segments overlap"
            );
        }
    }
}

/// Under churn + checkpointing, lost attempts surface as re-executed
/// work, and restored attempts as restore time — and the tiling identity
/// still holds for every task.
#[test]
fn blame_accounts_for_reexecution_under_churn() {
    let config = SimConfig::paper(small_workload(3, 80), StrategyKind::Combined2)
        .with_sites(3)
        .with_capacity(400)
        .with_seed(2)
        .with_faults(
            FaultConfig::none()
                .with_worker_faults(3_000.0, 400.0)
                .with_server_faults(25_000.0, 700.0),
        )
        .with_checkpointing(CheckpointConfig::fixed(300.0));
    let (report, blame) = blame_for(&config, "blame-churn.json");
    assert!(
        report.re_executions > 0,
        "config produced no churn; tighten it"
    );
    for task in &blame.tasks {
        let sum = task.queue_wait_us
            + task.staging_us
            + task.restore_us
            + task.compute_us
            + task.checkpoint_us
            + task.re_executed_us;
        assert_eq!(sum, task.span_us, "task {} does not tile", task.task);
    }
    let reexecuted: u64 = blame.tasks.iter().map(|t| t.re_executed_us).sum();
    assert!(
        reexecuted > 0,
        "re-executions happened but no blame landed on re_executed"
    );
}

/// Two runs of the same config produce byte-identical digest files; a
/// seed change diverges, and the bisector names a first window whose
/// ordinal range contains the divergence.
#[test]
fn digest_identity_and_divergence() {
    let base = SimConfig::paper(small_workload(1, 100), StrategyKind::Rest2)
        .with_sites(3)
        .with_capacity(500)
        .with_seed(1)
        .with_digest_window(600.0);
    let paths: Vec<String> = (0..3)
        .map(|i| temp_path(&format!("dig-{i}.jsonl")))
        .collect();
    let _ = GridSim::new(base.clone().with_digest_out(&paths[0])).run();
    let _ = GridSim::new(base.clone().with_digest_out(&paths[1])).run();
    let _ = GridSim::new(base.clone().with_seed(9).with_digest_out(&paths[2])).run();
    let bytes: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).expect("digest written"))
        .collect();
    assert_eq!(
        bytes[0], bytes[1],
        "same config+seed must digest identically"
    );
    assert_ne!(bytes[0], bytes[2], "seed change must perturb the digest");
    let parse = |b: &[u8]| {
        DigestStream::parse_jsonl(std::str::from_utf8(b).unwrap()).expect("digest parses")
    };
    let (a, b, c) = (parse(&bytes[0]), parse(&bytes[1]), parse(&bytes[2]));
    assert!(diff_digests(&a, &b).unwrap().is_none());
    let div = diff_digests(&a, &c)
        .unwrap()
        .expect("bisector must report the divergence");
    assert!(div.ordinal_lo <= div.ordinal_hi);
    assert!(
        div.ordinal_hi < a.events.max(c.events),
        "divergent ordinal range must point into the stream"
    );
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}

proptest! {
    // Whole-simulation cases are expensive; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The digest acceptance matrix: for a random grid shape and seed,
    /// all 8 strategies × both evaluation paths produce a digest file
    /// that is byte-identical between `Incremental` and `Naive` — the
    /// digest witnesses the schedule, and the schedule is eval-mode
    /// invariant.
    #[test]
    fn digests_identical_across_eval_modes(
        sites in 2usize..5,
        capacity in 200usize..800,
        seed in 0u64..3,
    ) {
        let workload = small_workload(seed, 60);
        for strategy in ALL_STRATEGIES {
            let base = SimConfig::paper(Arc::clone(&workload), strategy)
                .with_sites(sites)
                .with_capacity(capacity)
                .with_seed(seed)
                .with_digest_window(900.0);
            let mut digests = Vec::new();
            for (i, mode) in [EvalMode::Incremental, EvalMode::Naive]
                .into_iter()
                .enumerate()
            {
                let path = temp_path(&format!("mode-{i}.jsonl"));
                let _ = GridSim::new(
                    base.clone().with_eval_mode(mode).with_digest_out(&path),
                )
                .run();
                digests.push(std::fs::read(&path).expect("digest written"));
                let _ = std::fs::remove_file(&path);
            }
            prop_assert_eq!(
                &digests[0], &digests[1],
                "incremental vs naive digest ({})", strategy
            );
        }
    }
}
