//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-6000|sites-160|churn-all|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop on one thread: a fixed batch of
//! simulations, each started when the previous one returns, repeated as a
//! whole ("a pass") until `--seconds` have gone by (at least three passes).
//! `--trace 0` times the passes with telemetry off and prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes,
//! then runs the layer micro-benchmarks, and prints the per-layer metrics. Either
//! way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, every earlier line is
//! the human-readable report and run manifest, and the exit code is
//! non-zero when any simulation failed. See `perfbench/README.md`.

mod layers;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gridsched_sim::telemetry::InstrumentValue;
use gridsched_sim::{GridSim, MetricsReport, SimConfig, Telemetry};
use gridsched_topology::generate;

use layers::Spans;
use stats::{median, ratio, relative_iqr, valid_name, Ratio};
use workloads::Kind;

/// Passes every run makes, however short `--seconds` is: three give a
/// median and a repeat to check determinism against.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs every `--trace 1` run makes.
const MIN_TRACED_PAIRS: usize = 2;
/// Set-ups timed for `setup_s`, which is their median.
const SETUP_REPEATS: usize = 15;
/// Upper bound on the `net` micro-benchmark's completions.
const NET_MICRO_COMPLETIONS: u64 = 20_000;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <paper-6000|sites-160|churn-all|all> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        kinds: Vec::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                args.kinds = match v.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))],
                };
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.kinds.is_empty() {
        usage("--workload is required");
    }
    args
}

/// The end-to-end metrics of `--trace 0`, in output order, with units —
/// the `end_to_end` list of `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_min", "min"),
    ("transfer_gb", "GB"),
];

/// The per-layer metrics of `--trace 1`, in output order, with units —
/// the `per_layer` list of `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 35] = [
    ("workload.generate_s", "s"),
    ("topology.generate_s", "s"),
    ("sim.new_s", "s"),
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("core.picks", "count"),
    ("core.repairs_per_pick", "ratio"),
    ("core.idle_ns_per_call", "ns"),
    ("core.hook_ns_per_call", "ns"),
    ("core.replicas_launched", "count"),
    ("core.replica_useful_ratio", "ratio"),
    ("core.pending_log_replay_mean", "ratio"),
    ("core.control_ticks", "count"),
    ("core.breaker_opens", "count"),
    ("net.recomputes", "count"),
    ("net.touched_per_recompute", "ratio"),
    ("net.ns_per_recompute", "ns"),
    ("net.link_outages", "count"),
    ("sim.flows_started", "count"),
    ("sim.flow_success_ratio", "ratio"),
    ("sim.xfer_timeouts", "count"),
    ("sim.xfer_retries", "count"),
    ("sim.retransmit_gb", "GB"),
    ("sim.wake_fanout_mean", "ratio"),
    ("storage.evictions", "count"),
    ("storage.transfers_per_task", "ratio"),
    ("storage.insert_ns", "ns"),
    ("sim.wasted_compute_h", "h"),
    ("faults.worker_crashes", "count"),
    ("faults.server_outages", "count"),
    ("checkpoint.written", "count"),
    ("checkpoint.overhead_h", "h"),
    ("checkpoint.saved_per_overhead", "ratio"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.digest_ns_per_event", "ns"),
];

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Human note: spread over passes, a ratio's base, …
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    debug_assert!(valid_name(name), "bad metric name {name}");
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn count(name: &str, value: u64) -> Metric {
    metric(name, value as f64, "count", "")
}

fn ratio_metric(name: &str, r: Ratio, base: &str) -> Metric {
    metric(
        name,
        r.or_zero(),
        "ratio",
        format!("{}, base is {base}", r.display()),
    )
}

/// A timing over passes: the median, noted with its spread and sample count.
fn timing(name: &str, samples: &[f64]) -> Metric {
    let spread = relative_iqr(samples).map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
    metric(
        name,
        median(samples),
        "s",
        format!(
            "median of {} at reference host speed, IQR/median {spread}",
            samples.len()
        ),
    )
}

/// Instrument readings summed over a pass's simulations.
#[derive(Debug, Default, Clone, PartialEq)]
struct Instruments {
    counters: BTreeMap<&'static str, u64>,
    /// `(observations, sum)` per histogram.
    histograms: BTreeMap<&'static str, (u64, u64)>,
}

impl Instruments {
    fn add(&mut self, telemetry: &Telemetry) {
        for snap in telemetry.snapshot() {
            match snap.value {
                InstrumentValue::Counter { value } => {
                    *self.counters.entry(snap.name).or_default() += value;
                }
                InstrumentValue::Histogram { count, sum, .. } => {
                    let h = self.histograms.entry(snap.name).or_default();
                    h.0 += count;
                    h.1 += sum;
                }
            }
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn mean(&self, name: &str) -> Ratio {
        let (n, sum) = self.histograms.get(name).copied().unwrap_or((0, 0));
        ratio(sum as f64, n as f64)
    }
}

/// One pass over a workload's batch.
struct Pass {
    new_s: f64,
    run_s: f64,
    /// Host-speed samples taken before each simulation and after the last.
    speed: Vec<f64>,
    reports: Vec<Result<MetricsReport, String>>,
    instruments: Instruments,
}

impl Pass {
    /// `run_s` at the reference host speed.
    fn run_ref_s(&self) -> f64 {
        speed::normalise(self.run_s, &self.speed)
    }
}

/// Host seconds, at the reference host speed, to set a workload up —
/// generate it and build every simulation of the batch — repeated
/// `SETUP_REPEATS` times.
fn setup_samples(kind: Kind, seed: u64) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let before = speed::sample();
            let mut secs = 0.0;
            for input in kind.inputs(seed) {
                let start = Instant::now();
                let workload = Arc::new(kind.coadd(input).generate());
                secs += start.elapsed().as_secs_f64();
                for config in kind.configs(&workload, input) {
                    let start = Instant::now();
                    let sim = GridSim::new(config);
                    secs += start.elapsed().as_secs_f64();
                    drop(black_box(sim));
                }
            }
            speed::normalise(secs, &[before, speed::sample()])
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one pass: for each replicate input, generate the workload, then
/// build and run each simulation in turn. A traced pass gives every
/// simulation its own enabled telemetry and also times a direct topology
/// generation.
fn run_pass(kind: Kind, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    let pass = spans.open(if traced { "pass.traced" } else { "pass" });
    let mut out = Pass {
        new_s: 0.0,
        run_s: 0.0,
        speed: Vec::new(),
        reports: Vec::new(),
        instruments: Instruments::default(),
    };
    for input in kind.inputs(seed) {
        let (workload, _) = spans.time("workload.generate", Some(pass), || {
            Arc::new(kind.coadd(input).generate())
        });
        let configs = kind.configs(&workload, input);
        if traced {
            let topology = &configs[0].topology;
            spans.time("topology.generate", Some(pass), || {
                black_box(generate(topology))
            });
        }
        for config in configs {
            out.speed.push(speed::sample());
            run_sim(config, traced, spans, pass, &mut out);
        }
    }
    out.speed.push(speed::sample());
    spans.close(pass);
    out
}

/// Builds and runs one simulation under `catch_unwind`, adding its report,
/// timings and instrument readings to `out`.
fn run_sim(config: SimConfig, traced: bool, spans: &mut Spans, pass: usize, out: &mut Pass) {
    let telemetry = traced.then(Telemetry::enabled);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let (sim, new_s) = spans.time("sim.new", Some(pass), || {
            let sim = GridSim::new(config);
            match &telemetry {
                Some(t) => sim.with_telemetry(t.clone()),
                None => sim,
            }
        });
        let (report, run_s) = spans.time("sim.run", Some(pass), || sim.run());
        (report, new_s, run_s)
    }));
    match result {
        Ok((report, new_s, run_s)) => {
            out.new_s += new_s;
            out.run_s += run_s;
            out.reports.push(Ok(report));
        }
        Err(payload) => out.reports.push(Err(panic_message(payload.as_ref()))),
    }
    if let Some(t) = &telemetry {
        out.instruments.add(t);
    }
}

/// Why a simulation's report is wrong on its own, if it is.
fn report_fault(report: &MetricsReport) -> Option<String> {
    if report.tasks_completed != report.config.tasks as u64 {
        return Some(format!(
            "completed {} of {} tasks",
            report.tasks_completed, report.config.tasks
        ));
    }
    if !(report.makespan_minutes.is_finite() && report.makespan_minutes > 0.0) {
        return Some(format!("makespan {}", report.makespan_minutes));
    }
    if report.replicas_launched
        != report.replicas_cancelled + report.replicas_completed + report.replicas_lost
    {
        return Some("replica ledger out of balance".to_string());
    }
    let flow_sinks = report.flows_completed
        + report.flows_aborted
        + report.flows_retrying
        + report.flows_requeued;
    if flow_sinks > report.flows_started {
        return Some("flow ledger: more flows ended than started".to_string());
    }
    None
}

/// Failure accounting over every pass: a simulation fails if it panicked,
/// left tasks unfinished, broke a ledger, or reported anything different
/// from the same simulation in the first pass (events, makespan,
/// transfers, evictions — the whole report is compared).
fn check(passes: &[&Pass], lines: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let reference = &passes[0].reports;
    for (p, pass) in passes.iter().enumerate() {
        for (i, result) in pass.reports.iter().enumerate() {
            attempted += 1;
            let fault = match (result, &reference[i]) {
                (Err(msg), _) => Some(format!("panicked: {msg}")),
                (Ok(r), _) if report_fault(r).is_some() => report_fault(r),
                (Ok(r), Ok(first)) if r != first => Some(format!(
                    "differs from pass 0 (events {} vs {}, makespan {} vs {})",
                    r.events_dispatched,
                    first.events_dispatched,
                    r.makespan_minutes,
                    first.makespan_minutes
                )),
                _ => None,
            };
            if let Some(fault) = fault {
                failed += 1;
                lines.push(format!("FAIL pass {p} sim {i}: {fault}"));
            }
        }
    }
    (attempted, failed)
}

fn ok_reports(pass: &Pass) -> Vec<&MetricsReport> {
    pass.reports
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect()
}

fn mean_of(reports: &[&MetricsReport], f: impl Fn(&MetricsReport) -> f64) -> f64 {
    reports.iter().map(|r| f(r)).sum::<f64>() / reports.len().max(1) as f64
}

fn sum_of(reports: &[&MetricsReport], f: impl Fn(&MetricsReport) -> u64) -> u64 {
    reports.iter().map(|r| f(r)).sum()
}

/// Process peak resident set size (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// A check outside the simulations failed (a layer micro-benchmark).
    broken: bool,
    lines: Vec<String>,
}

/// Calls `pass(0)`, `pass(1)`, … until `seconds` have gone by and at
/// least `min` calls were made.
fn passes_until(seconds: f64, min: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        pass(n);
        n += 1;
    }
}

/// `--trace 0`: timed passes with telemetry off, end-to-end metrics.
fn timed(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let setup = setup_samples(kind, seed);
    let mut spans = Spans::new();
    let mut passes = Vec::new();
    passes_until(seconds, MIN_PASSES, |_| {
        passes.push(run_pass(kind, seed, false, &mut spans));
    });
    let rss = peak_rss_mb();
    let mut lines = vec![format!(
        "{} passes of {} simulations",
        passes.len(),
        passes[0].reports.len()
    )];
    for p in &passes {
        lines.push(format!(
            "pass run_s {:.3} raw, {:.3} at reference speed (host speed {:.2}x)",
            p.run_s,
            p.run_ref_s(),
            speed::NOMINAL_S / median(&p.speed)
        ));
    }
    let refs: Vec<&Pass> = passes.iter().collect();
    let (attempted, failed) = check(&refs, &mut lines);
    let run: Vec<f64> = passes.iter().map(Pass::run_ref_s).collect();
    let reports = ok_reports(&passes[0]);
    for (i, r) in reports.iter().enumerate() {
        lines.push(format!(
            "sim {i}: {} events, makespan {:.1} min, {:.1} GB, wasted {:.1} h, {} evictions",
            r.events_dispatched,
            r.makespan_minutes,
            r.bytes_transferred / 1e9,
            r.wasted_compute_s / 3600.0,
            r.total_evictions
        ));
    }
    lines.push(format!(
        "wasted_compute_h {:.3} h (mean over simulations; reported, not gated)",
        mean_of(&reports, |r| r.wasted_compute_s / 3600.0)
    ));
    let events = sum_of(&reports, |r| r.events_dispatched);
    let run_s = timing("run_s", &run);
    let events_per_s = events as f64 / run_s.value;
    let metrics = vec![
        timing("setup_s", &setup),
        metric(
            "events_per_s",
            events_per_s,
            "1/s",
            format!("{events} events / median run_s"),
        ),
        run_s,
        metric("peak_rss_mb", rss, "MB", "VmHWM after the workload"),
        metric(
            "makespan_min",
            mean_of(&reports, |r| r.makespan_minutes),
            "min",
            "mean over simulations",
        ),
        metric(
            "transfer_gb",
            mean_of(&reports, |r| r.bytes_transferred / 1e9),
            "GB",
            "mean over simulations",
        ),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        broken: false,
        lines,
    }
}

/// `--trace 1`: untraced and traced passes alternate (so the overhead
/// ratio compares like with like), every report must match across both,
/// then the layer micro-benchmarks run on the workload's inputs.
fn traced(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut spans = Spans::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    passes_until(seconds, MIN_TRACED_PAIRS, |i| {
        for on in [i % 2 == 1, i % 2 == 0] {
            let pass = run_pass(kind, seed, on, &mut spans);
            if on { &mut traced } else { &mut plain }.push(pass);
        }
    });
    let mut lines = vec![format!(
        "{} untraced + {} traced passes of {} simulations",
        plain.len(),
        traced.len(),
        plain[0].reports.len()
    )];
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let (attempted, failed) = check(&all, &mut lines);
    let mut broken = false;
    if traced
        .iter()
        .any(|p| p.instruments != traced[0].instruments)
    {
        lines.push("FAIL instrument counts differ between traced passes".to_string());
        broken = true;
    }

    let reports = ok_reports(&traced[0]);
    let ins = &traced[0].instruments;
    let sum = |f: fn(&MetricsReport) -> u64| sum_of(&reports, f);
    let total = |f: fn(&MetricsReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let events = sum(|r| r.events_dispatched);
    let tasks = sum(|r| r.config.tasks as u64);
    let picks = ins.counter("scheduler.rank.picks");
    let recomputes = ins.counter("net.solver.recomputes");
    let touched = ins.mean("net.solver.touched_flows");
    let launched = sum(|r| r.replicas_launched);
    let flows = sum(|r| r.flows_started);
    let overhead_h = total(|r| r.checkpoint_overhead_s) / 3600.0;
    let per_pass = |ps: &[Pass], f: fn(&Pass) -> f64| ps.iter().map(f).collect::<Vec<_>>();
    let run_plain = median(&per_pass(&plain, Pass::run_ref_s));
    let run_traced = median(&per_pass(&traced, Pass::run_ref_s));

    let concurrency = touched.value().map_or(1, |m| m.round().max(1.0) as usize);
    let completions = recomputes.clamp(1, NET_MICRO_COMPLETIONS);
    let micro = panic::catch_unwind(|| run_micro(kind, seed, events, concurrency, completions))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload.as_ref()))));
    let micro = micro.unwrap_or_else(|msg| {
        lines.push(format!("FAIL micro-benchmark {msg}"));
        broken = true;
        Micro::default()
    });
    lines.push(format!(
        "micro-benchmarks: des/digest {events} events, {} pending; net {concurrency} flows in flight, \
         {completions} completions",
        micro.pending
    ));
    let core = micro.core;

    let span_median = |name: &str| median(&spans.durations(name));
    let metrics = vec![
        metric(
            "workload.generate_s",
            span_median("workload.generate"),
            "s",
            "span median",
        ),
        metric(
            "topology.generate_s",
            span_median("topology.generate"),
            "s",
            "span median",
        ),
        timing(
            "sim.new_s",
            &per_pass(&plain, |p| speed::normalise(p.new_s, &p.speed)),
        ),
        count("des.events", events),
        metric(
            "des.ns_per_event",
            micro.des_ns,
            "ns",
            "micro: Schedule::schedule_at + next",
        ),
        count("core.picks", picks),
        ratio_metric(
            "core.repairs_per_pick",
            ratio(ins.counter("scheduler.rank.repairs") as f64, picks as f64),
            "core.picks",
        ),
        metric(
            "core.idle_ns_per_call",
            core.idle_s * 1e9 / core.idle_calls.max(1) as f64,
            "ns",
            format!("micro: {} on_worker_idle calls", core.idle_calls),
        ),
        metric(
            "core.hook_ns_per_call",
            core.hook_s * 1e9 / core.hook_calls.max(1) as f64,
            "ns",
            format!("micro: {} file-hook calls", core.hook_calls),
        ),
        count("core.replicas_launched", launched),
        ratio_metric(
            "core.replica_useful_ratio",
            ratio(sum(|r| r.replicas_completed) as f64, launched as f64),
            "core.replicas_launched",
        ),
        ratio_metric(
            "core.pending_log_replay_mean",
            ins.mean("scheduler.pending_log.replay_len"),
            "replays",
        ),
        count("core.control_ticks", ins.counter("control.ticks")),
        count("core.breaker_opens", ins.counter("control.breaker.opens")),
        count("net.recomputes", recomputes),
        ratio_metric("net.touched_per_recompute", touched, "net.recomputes"),
        metric(
            "net.ns_per_recompute",
            micro.net_ns,
            "ns",
            "micro: NetSim start_flow + next_completion + finish_flow",
        ),
        count("net.link_outages", sum(|r| r.link_outages)),
        count("sim.flows_started", flows),
        ratio_metric(
            "sim.flow_success_ratio",
            ratio(sum(|r| r.flows_completed) as f64, flows as f64),
            "sim.flows_started",
        ),
        count("sim.xfer_timeouts", sum(|r| r.xfer_timeouts)),
        count("sim.xfer_retries", sum(|r| r.xfer_retries)),
        metric(
            "sim.retransmit_gb",
            total(|r| r.xfer_bytes_retransmitted) / 1e9,
            "GB",
            "",
        ),
        ratio_metric(
            "sim.wake_fanout_mean",
            ins.mean("engine.wake.fanout"),
            "wake calls",
        ),
        count("storage.evictions", sum(|r| r.total_evictions)),
        ratio_metric(
            "storage.transfers_per_task",
            ratio(sum(|r| r.file_transfers) as f64, tasks as f64),
            "tasks",
        ),
        metric(
            "storage.insert_ns",
            micro.storage_ns,
            "ns",
            "micro: SiteStore::insert in reference order",
        ),
        metric(
            "sim.wasted_compute_h",
            total(|r| r.wasted_compute_s) / 3600.0 / reports.len().max(1) as f64,
            "h",
            "mean over simulations",
        ),
        count("faults.worker_crashes", sum(|r| r.worker_crashes)),
        count("faults.server_outages", sum(|r| r.server_outages)),
        count("checkpoint.written", sum(|r| r.checkpoints_written)),
        metric("checkpoint.overhead_h", overhead_h, "h", ""),
        ratio_metric(
            "checkpoint.saved_per_overhead",
            ratio(total(|r| r.work_saved_s) / 3600.0, overhead_h),
            "checkpoint.overhead_h",
        ),
        ratio_metric(
            "telemetry.overhead_ratio",
            ratio(run_traced, run_plain),
            "untraced run_s",
        ),
        metric(
            "telemetry.digest_ns_per_event",
            micro.digest_ns,
            "ns",
            "micro: DigestFold::record",
        ),
    ];
    for name in [
        "pass.traced",
        "workload.generate",
        "topology.generate",
        "sim.new",
        "sim.run",
    ] {
        let d = spans.durations(name);
        lines.push(format!(
            "span {name:<18} n={:<3} total {:.3}s self {:.3}s",
            d.len(),
            d.iter().sum::<f64>(),
            spans.self_time(name)
        ));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        broken,
        lines,
    }
}

/// What the layer micro-benchmarks measured (all zero if one failed).
#[derive(Debug, Default)]
struct Micro {
    /// Events queued in the `des` micro-benchmark: the workload's worker count.
    pending: usize,
    des_ns: f64,
    core: layers::CoreTiming,
    net_ns: f64,
    storage_ns: f64,
    digest_ns: f64,
}

/// Runs every layer micro-benchmark on the workload's first input: `events` sizes
/// the `des` and digest micro-benchmarks, `concurrency` and `completions`
/// the `net` one.
fn run_micro(
    kind: Kind,
    seed: u64,
    events: u64,
    concurrency: usize,
    completions: u64,
) -> Result<Micro, String> {
    let input = kind.inputs(seed)[0];
    let workload = Arc::new(kind.coadd(input).generate());
    let configs = kind.configs(&workload, input);
    let first = &configs[0];
    let mut core = layers::CoreTiming::default();
    for config in &configs {
        let t = layers::core_timing(config)
            .ok_or_else(|| format!("core: {} did not finish", config.strategy))?;
        core.idle_calls += t.idle_calls;
        core.idle_s += t.idle_s;
        core.hook_calls += t.hook_calls;
        core.hook_s += t.hook_s;
    }
    let pending = first.sites * first.workers_per_site;
    Ok(Micro {
        pending,
        des_ns: layers::des_ns_per_event(events, pending),
        core,
        net_ns: layers::net_ns_per_recompute(
            &generate(&first.topology),
            first.sites,
            concurrency,
            completions as usize,
            workload.file_size_bytes,
        ),
        storage_ns: layers::storage_insert_ns(first),
        digest_ns: layers::digest_ns_per_event(events),
    })
}

/// FNV-1a over every source file that builds the benchmark, so two
/// codebases never compare by accident (the checkout need not be a git
/// repository).
fn source_revision() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        let p = Path::new(root);
        if p.is_dir() {
            walk(p, &mut files);
        } else if p.is_file() {
            files.push(p.to_path_buf());
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x} ({} files)", files.len())
}

fn manifest(args: &Args) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("revision {}", source_revision()),
        format!(
            "host cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\" threads=1",
            env!("PERFBENCH_RUSTC")
        ),
        format!(
            "run seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    ]
}

fn config_line(i: usize, c: &SimConfig) -> String {
    let s = c.summary();
    format!(
        "sim {i}: {} sites={} workers/site={} capacity={} {} tasks={} seed={} \
         topology-seed={} faults={} checkpointing={} throttle={} control={} guard={}",
        s.strategy,
        s.sites,
        s.workers_per_site,
        s.capacity_files,
        s.policy,
        s.tasks,
        s.seed,
        s.topology_seed,
        s.faults,
        s.checkpointing,
        s.replica_throttle,
        s.control,
        s.transfer_guard
    )
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args();
    for line in manifest(&args) {
        println!("# {line}");
    }
    let mut outcomes = Vec::new();
    for &kind in &args.kinds {
        println!("# workload {} — {}", kind.name(), kind.why());
        for input in kind.inputs(args.seed) {
            let workload = Arc::new(kind.coadd(input).generate());
            for (i, c) in kind.configs(&workload, input).iter().enumerate() {
                println!(
                    "#   workload-seed={} {}",
                    input.workload_seed,
                    config_line(i, c)
                );
            }
        }
        let (mut outcome, declared) = if args.trace {
            (traced(kind, args.seed, args.seconds), &PER_LAYER[..])
        } else {
            (timed(kind, args.seed, args.seconds), &END_TO_END[..])
        };
        let emitted = outcome.metrics.iter().map(|m| (m.name.as_str(), m.unit));
        if !emitted.eq(declared.iter().copied()) {
            outcome
                .lines
                .push("FAIL the metrics differ from the declared list".to_string());
            outcome.broken = true;
        }
        for line in &outcome.lines {
            println!("#   {line}");
        }
        println!("#   {:<30} {:>16} {:<6} note", "metric", "value", "unit");
        for m in &outcome.metrics {
            println!(
                "#   {:<30} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "#   sims_failed {} of {} attempted",
            outcome.failed, outcome.attempted
        );
        outcomes.push((kind, outcome));
    }
    let single = outcomes.len() == 1;
    let metrics: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|(kind, o)| {
            o.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", kind.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed = outcomes.iter().map(|(_, o)| o.failed).sum();
    let correct = failed == 0 && outcomes.iter().all(|(_, o)| !o.broken);
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(
            json.matches("\"name\": ").count(),
            Kind::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for kind in Kind::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let m = metric("run_s", 0.1 + 0.2, "s", "");
        let line = json_result(true, 3, 0, &[("run_s".to_string(), &m)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
