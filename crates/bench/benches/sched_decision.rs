//! §4.4 complexity benchmark — one scheduling decision.
//!
//! The paper: the worker-centric basic algorithm is `O(T·I)` per request
//! (`T` pending tasks, `I` files per task), versus `O(T·I·S)` for
//! task-centric assignment. We measure:
//!
//! * the naive `O(T·I)` weight evaluation (direct file probing),
//! * the ranked `O(log T)` pick off the per-site priority index (this
//!   library's incremental fast path),
//! * storage affinity's full `O(T·I·S)` assignment phase,
//!
//! at several queue lengths `T`; plus the scheduler's storage hooks that
//! keep the ranked pick current (`storage_hooks`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rand::rngs::StdRng;
use rand::SeedableRng;

use gridsched_core::index::{enable_ranks, ComboAggregates, FileIndex, SiteView};
use gridsched_core::weight::weigh_all_naive;
use gridsched_core::{
    ChooseTask, GridEnv, Scheduler, SiteId, StorageAffinity, TaskPool, WeightMetric, WorkerCentric,
};
use gridsched_storage::{EvictionPolicy, SiteStore};
use gridsched_workload::coadd::CoaddConfig;
use gridsched_workload::{FileId, TaskId, Workload};

fn warm_store(workload: &Workload, files: usize) -> SiteStore {
    let mut store = SiteStore::new(files.max(1), EvictionPolicy::Lru);
    // Fill with the first tasks' inputs so overlaps are non-trivial.
    'outer: for task in workload.tasks() {
        for &f in task.files() {
            if store.len() >= files {
                break 'outer;
            }
            store.insert(f);
        }
    }
    store
}

fn bench_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_decision");
    for &tasks in &[500u32, 2000, 6000] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = tasks;
        let workload = Arc::new(cfg.generate());
        let store = warm_store(&workload, 3000);
        let pool = TaskPool::full(workload.task_count());
        let index = FileIndex::build(&workload);
        let chooser = ChooseTask::new(1);

        for metric in [
            WeightMetric::Overlap,
            WeightMetric::Rest,
            WeightMetric::Combined,
        ] {
            let mut view = SiteView::new(workload.task_count());
            let mut combo = ComboAggregates::new(&index, &pool, 1);
            for f in store.resident() {
                view.on_file_added(&index, f, store.ref_count(f));
                combo.on_file_added(0, &index, &view, f, store.ref_count(f), &pool);
            }
            enable_ranks(std::slice::from_mut(&mut view), metric, &index, &pool);
            let totals = (metric == WeightMetric::Combined).then(|| combo.totals(0));
            let mut rng = StdRng::seed_from_u64(0);
            group.bench_with_input(
                BenchmarkId::new(format!("naive_OTI_{metric}"), tasks),
                &tasks,
                |b, _| {
                    b.iter(|| {
                        std::hint::black_box(weigh_all_naive(metric, &workload, &pool, &store))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("ranked_OlogT_{metric}"), tasks),
                &tasks,
                |b, _| {
                    b.iter(|| {
                        std::hint::black_box(view.pick_ranked(
                            &chooser,
                            &mut rng,
                            |t| pool.contains(t),
                            totals,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_storage_affinity_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_assignment_OTIS");
    group.sample_size(10);
    for &sites in &[10usize, 26] {
        let mut cfg = CoaddConfig::paper_6000();
        cfg.tasks = 2000;
        let workload = Arc::new(cfg.generate());
        let env = GridEnv {
            sites,
            workers_per_site: 1,
            capacity_files: 6000,
        };
        let stores: Vec<SiteStore> = (0..sites)
            .map(|_| SiteStore::new(6000, EvictionPolicy::Lru))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(sites), &sites, |b, _| {
            b.iter(|| {
                let mut sched = StorageAffinity::new(workload.clone());
                sched.initialize(&env, &stores);
                std::hint::black_box(sched.unfinished())
            })
        });
    }
    group.finish();
}

/// The worker-centric scheduler's storage hooks at the Coadd-6000 fan-out
/// (~78 files per task, ~10 readers per file), on one site holding 3000
/// files:
///
/// * `task_references_batched` — 32 task starts, each one
///   `on_task_references` call (what the engine does);
/// * `task_references_per_file` — the same files replayed one at a time
///   through `on_task_reference`;
/// * `file_added_evicted` — 32 absent files arriving, then leaving again.
fn bench_storage_hooks(c: &mut Criterion) {
    const SITE: SiteId = SiteId(0);
    let mut group = c.benchmark_group("storage_hooks");
    let workload = Arc::new(CoaddConfig::paper_6000().generate());
    let mid = workload.task_count() as u32 / 2;
    let starts: Vec<TaskId> = (mid..mid + 32).map(TaskId).collect();
    let mut store = SiteStore::new(3000, EvictionPolicy::Lru);
    // The starting tasks' inputs are resident, plus the job's first files.
    for f in starts
        .iter()
        .flat_map(|&t| workload.task(t).files())
        .chain(workload.tasks().iter().flat_map(|t| t.files()))
    {
        if store.len() == 3000 {
            break;
        }
        store.insert(*f);
    }
    let absent: Vec<FileId> = (0..workload.file_count() as u32)
        .map(FileId)
        .filter(|&f| !store.contains(f))
        .step_by(7)
        .take(32)
        .collect();
    let env = GridEnv {
        sites: 1,
        workers_per_site: 1,
        capacity_files: 3000,
    };
    for metric in [
        WeightMetric::Overlap,
        WeightMetric::Rest,
        WeightMetric::Combined,
    ] {
        let mut sched = WorkerCentric::new(Arc::clone(&workload), metric, 1, 0);
        sched.initialize(&env, std::slice::from_ref(&store));
        group.bench_with_input(
            BenchmarkId::new(format!("task_references_batched_{metric}"), 32),
            &32,
            |b, _| {
                b.iter(|| {
                    for &t in &starts {
                        sched.on_task_references(SITE, workload.task(t).files());
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("task_references_per_file_{metric}"), 32),
            &32,
            |b, _| {
                b.iter(|| {
                    for &t in &starts {
                        for &f in workload.task(t).files() {
                            sched.on_task_reference(SITE, f);
                        }
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("file_added_evicted_{metric}"), 32),
            &32,
            |b, _| {
                b.iter(|| {
                    for &f in &absent {
                        sched.on_file_added(SITE, f, 0);
                    }
                    for &f in &absent {
                        sched.on_file_evicted(SITE, f, 0);
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decision,
    bench_storage_affinity_assignment,
    bench_storage_hooks
);
criterion_main!(benches);
