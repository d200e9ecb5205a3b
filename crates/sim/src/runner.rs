//! Experiment runner: replicate runs over topologies and average.
//!
//! "Each experiment is performed with 5 different topologies and the
//! results are averaged over the 5 runs" (§5.2). [`run_averaged`] runs one
//! simulation per topology seed — in parallel, one thread per seed — and
//! returns the element-wise average report.

use crate::config::SimConfig;
use crate::engine::GridSim;
use crate::metrics::{Mean, MetricsReport};

/// One (x, report) pair of a sweep, e.g. (capacity = 3000, averaged
/// metrics).
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Algorithm label (paper naming).
    pub strategy: String,
    /// The swept parameter's value at this point.
    pub x: f64,
    /// Averaged metrics at this point.
    pub report: MetricsReport,
}

/// The replicate spread of the makespan — the band around the mean that
/// [`run_averaged`] alone would discard. A mean makespan is only as
/// trustworthy as the band the replicates actually span.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpread {
    /// How many replicates the spread covers.
    pub replicates: usize,
    /// (min, max) makespan in minutes.
    pub makespan_minutes: (f64, f64),
}

/// Runs `base` once per topology seed (in parallel) and averages.
///
/// The master seed is varied together with the topology seed so worker
/// speeds differ per replicate, as they would per Tiers topology in the
/// paper's setup.
///
/// # Panics
///
/// Panics if `topology_seeds` is empty or a worker thread panics.
#[must_use]
pub fn run_averaged(base: &SimConfig, topology_seeds: &[u64]) -> MetricsReport {
    average_reports(&run_replicates(base, topology_seeds))
}

/// Like [`run_averaged`], but also returns the makespan spread.
///
/// # Panics
///
/// Panics if `topology_seeds` is empty or a worker thread panics.
#[must_use]
pub fn run_averaged_with_spread(
    base: &SimConfig,
    topology_seeds: &[u64],
) -> (MetricsReport, ReportSpread) {
    let reports = run_replicates(base, topology_seeds);
    (average_reports(&reports), report_spread(&reports))
}

fn run_replicates(base: &SimConfig, topology_seeds: &[u64]) -> Vec<MetricsReport> {
    assert!(!topology_seeds.is_empty(), "need at least one replicate");
    let multi = topology_seeds.len() > 1;
    std::thread::scope(|scope| {
        let handles: Vec<_> = topology_seeds
            .iter()
            .map(|&ts| {
                let mut config = base
                    .clone()
                    .with_topology_seed(ts)
                    .with_seed(base.seed.wrapping_add(ts));
                // Replicates run concurrently: with several seeds writing,
                // a shared output path would be a data race on disk —
                // suffix per seed so every replicate keeps its own files.
                if multi {
                    config.suffix_outputs_for_seed(ts);
                }
                scope.spawn(move || GridSim::new(config).run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulation thread panicked"))
            .collect()
    })
}

/// The makespan (min, max) over several reports.
///
/// # Panics
///
/// Panics if `reports` is empty.
#[must_use]
pub fn report_spread(reports: &[MetricsReport]) -> ReportSpread {
    assert!(
        !reports.is_empty(),
        "cannot take the spread of zero reports"
    );
    let first = reports[0].makespan_minutes;
    ReportSpread {
        replicates: reports.len(),
        makespan_minutes: reports
            .iter()
            .map(|r| r.makespan_minutes)
            .fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))),
    }
}

/// Field-by-field average of several reports, by the rules declared in
/// [`crate::metrics`]: rounded mean for counters, sequential-sum mean for
/// quantities, element-wise per site, config from the first report.
///
/// # Panics
///
/// Panics if `reports` is empty or their per-site vectors disagree in
/// length.
#[must_use]
pub fn average_reports(reports: &[MetricsReport]) -> MetricsReport {
    assert!(!reports.is_empty(), "cannot average zero reports");
    Mean::mean(&reports.iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use gridsched_core::StrategyKind;
    use gridsched_workload::coadd::CoaddConfig;

    #[test]
    fn averaging_is_elementwise() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let cfg = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(2)
            .with_seed(0);
        let a = GridSim::new(cfg.clone().with_topology_seed(0)).run();
        let b = GridSim::new(cfg.with_topology_seed(1)).run();
        let avg = average_reports(&[a.clone(), b.clone()]);
        assert!(
            (avg.makespan_minutes - (a.makespan_minutes + b.makespan_minutes) / 2.0).abs() < 1e-9
        );
        assert_eq!(avg.tasks_completed, 200);
    }

    #[test]
    fn run_averaged_parallel() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let cfg = SimConfig::paper(wl, StrategyKind::Rest2).with_sites(2);
        let avg = run_averaged(&cfg, &[0, 1, 2]);
        assert_eq!(avg.tasks_completed, 200);
        assert!(avg.makespan_minutes > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn empty_seed_list_panics() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let cfg = SimConfig::paper(wl, StrategyKind::Rest);
        let _ = run_averaged(&cfg, &[]);
    }

    #[test]
    fn spread_brackets_the_mean() {
        let wl = Arc::new(CoaddConfig::small(0).generate());
        let cfg = SimConfig::paper(wl, StrategyKind::Rest)
            .with_sites(2)
            .with_seed(0);
        let (avg, spread) = run_averaged_with_spread(&cfg, &[0, 1, 2]);
        assert_eq!(spread.replicates, 3);
        let (lo, hi) = spread.makespan_minutes;
        assert!(lo <= avg.makespan_minutes && avg.makespan_minutes <= hi);
        assert!(lo > 0.0);
        // Distinct topologies should actually disagree somewhere.
        assert!(
            spread.makespan_minutes.0 < spread.makespan_minutes.1,
            "three topologies with identical makespans is vanishingly unlikely"
        );
        // Single-replicate spread degenerates to the report itself.
        let one = report_spread(&[GridSim::new(cfg.clone().with_topology_seed(0)).run()]);
        assert_eq!(one.makespan_minutes.0, one.makespan_minutes.1);
    }
}
