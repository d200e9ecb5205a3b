//! Inverted file→task index and incrementally-maintained per-site views.
//!
//! The paper's basic algorithm re-derives `|F_t|` (and `ref_t`) for every
//! pending task by probing the requesting site's storage — `O(T·I)` per
//! scheduling decision (§4.4). Because storage contents change only when a
//! file arrives, is evicted, or is referenced, the same quantities can be
//! maintained **incrementally**: an inverted index maps each file to the
//! tasks that read it, and every storage change updates the per-task
//! overlap counters of the affected tasks. A scheduling decision then
//! degenerates to an `O(T)` scan over cached counters.
//!
//! An `O(T)` scan per decision is still an `O(T²)` run, which caps the
//! engine far below 10⁵ workers. The same storage-change notifications can
//! therefore also maintain a **priority index**: every [`SiteView`] may
//! carry a [`TaskRank`] that buckets the pending tasks by their (small
//! integer) overlap or missing-file count, each bucket an ordered set.
//! A scheduling decision then degenerates to reading the best few bucket
//! heads — `O(log T)` amortized — instead of scanning the pool.
//!
//! ## Sparse membership propagation
//!
//! With one `TaskRank` per site, *eagerly* mirroring pool membership into
//! every rank makes each pool insert/remove an `O(S log T)` broadcast —
//! the dominant cost of a scheduling decision once the site count grows
//! (the `perf_scale` sites sweep showed wall time ~linear in `S`).
//! Membership therefore propagates **lazily**:
//!
//! * a pool *removal* touches no rank at all — the entry goes stale in
//!   place, and a read that encounters it skips it via the caller's `live`
//!   predicate and physically removes it then (each stale entry is
//!   repaired at most once per site, and only if it ever surfaces near a
//!   bucket head at that site);
//! * a pool *insert* (requeue, replica-cap release) appends to a shared
//!   [`PendingLog`]; each view holds a cursor and replays the suffix on
//!   its next read ([`SiteView::sync_pending`]) — `O(1)` at event time,
//!   each (site, insert) pair processed once.
//!
//! Storage-change notifications stay eager — they are site-local already —
//! so every *physical* rank entry always carries current coordinates; only
//! pool membership can go stale. The `combined` metric's queue-wide
//! normalisers cannot be read off a rank with stale members, so they move
//! to [`ComboAggregates`], which maintains them exactly with per-file site
//! residency lists: a membership change costs `O(Σ_f |sites holding f|)`
//! over the task's files — flat in `S` for data-local workloads — instead
//! of `O(S)`.
//!
//! None of this changes any scheduling decision — the ranked picks are
//! property-tested to agree exactly with
//! [`crate::weight::weigh_all_naive`] plus [`crate::choose::ChooseTask`] —
//! it only changes the constant/complexity; the `sched_decision` criterion
//! bench and the `perf_scale` harness quantify the gap.

use std::collections::BTreeSet;

use rand::Rng;

use gridsched_storage::SiteStore;
use gridsched_telemetry::{Counter, Histogram, Telemetry};
use gridsched_workload::{FileId, TaskId, Workload};

use crate::choose::ChooseTask;
use crate::pool::TaskPool;
use crate::weight::{combined_weight, rest_weight, total_rest_from_counts, WeightMetric};

/// Compressed-sparse-row inverted index: for each file, the tasks reading
/// it; plus per-task input-set sizes (`|t|`).
///
/// Immutable after construction; shared by all sites' views.
#[derive(Debug, Clone)]
pub struct FileIndex {
    offsets: Vec<u32>,
    task_lists: Vec<u32>,
    task_sizes: Vec<u32>,
}

impl FileIndex {
    /// Builds the index from a workload.
    #[must_use]
    pub fn build(workload: &Workload) -> Self {
        let num_files = workload.file_count();
        let mut counts = vec![0u32; num_files];
        for t in workload.tasks() {
            for f in t.files() {
                counts[f.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_files + 1);
        let mut acc = 0u32;
        for &c in &counts {
            offsets.push(acc);
            acc += c;
        }
        offsets.push(acc);
        let mut task_lists = vec![0u32; acc as usize];
        let mut cursor = offsets.clone();
        for t in workload.tasks() {
            for f in t.files() {
                let slot = &mut cursor[f.index()];
                task_lists[*slot as usize] = t.id.0;
                *slot += 1;
            }
        }
        let task_sizes = workload
            .tasks()
            .iter()
            .map(|t| t.file_count() as u32)
            .collect();
        FileIndex {
            offsets,
            task_lists,
            task_sizes,
        }
    }

    /// The tasks reading `file`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if the file is out of range.
    #[must_use]
    pub fn tasks_of(&self, file: FileId) -> &[u32] {
        let lo = self.offsets[file.index()] as usize;
        let hi = self.offsets[file.index() + 1] as usize;
        &self.task_lists[lo..hi]
    }

    /// `|t|` — the input-set size of `task`.
    ///
    /// # Panics
    ///
    /// Panics if the task is out of range.
    #[must_use]
    pub fn task_size(&self, task: TaskId) -> u32 {
        self.task_sizes[task.index()]
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.task_sizes.len()
    }

    /// Number of files covered.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The largest input-set size over all tasks (`max |t|`) — the number
    /// of levels a [`TaskRank`] needs.
    #[must_use]
    pub fn max_task_size(&self) -> u32 {
        self.task_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// An incrementally-maintained per-site priority index over the *pending*
/// tasks, bucketed by the metric's small-integer level:
///
/// * `Overlap` — level `|F_t|`, best bucket is the **highest** level;
/// * `Rest` / `Combined` — level `|t| − |F_t|` (missing files), best
///   bucket is the **lowest** level.
///
/// Within a bucket, tasks are ordered so the bucket head is exactly the
/// task the full-scan argmax would select among that bucket: ascending id
/// for `Overlap`/`Rest` (all weights in a bucket are equal there), and
/// descending cached reference sum (ties by id) for finite `Combined`
/// buckets. The zero-missing `Combined` bucket orders by id alone — its
/// weight is `+∞` regardless of references.
///
/// The bucket kind follows from (metric, level) alone: id-ordered levels
/// are bitsets (a re-file is two bit flips), finite
/// `Combined` levels are `(u64::MAX − refsum, id)` `BTreeSet`s (a re-file
/// is one `O(log T)` remove + insert).
///
/// The owning [`SiteView`] keeps the bucket coordinates in sync on every
/// counter change. Pool membership propagates **lazily** (see the module
/// docs): a member may be stale — no longer pending — until a read at this
/// site encounters and repairs it, so `len()` bounds the pending
/// population from above rather than equalling it.
#[derive(Debug, Clone)]
pub struct TaskRank {
    metric: WeightMetric,
    buckets: Vec<Bucket>,
    member: Vec<bool>,
    level_of: Vec<u32>,
    /// Member tasks' `BTreeSet` key — indexed only for keyed levels, so
    /// empty unless the metric is `Combined`.
    key_of: Vec<u64>,
    len: usize,
}

/// One rank level; see [`TaskRank`] for which kind a level gets.
#[derive(Debug, Clone)]
enum Bucket {
    Ids(IdBucket),
    Keyed(BTreeSet<(u64, u32)>),
}

impl Bucket {
    /// The members in bucket order.
    fn iter(&self) -> BucketIter<'_> {
        match self {
            Bucket::Ids(bits) => BucketIter::Ids(bits.iter()),
            Bucket::Keyed(set) => BucketIter::Keyed(set.iter()),
        }
    }
}

enum BucketIter<'a> {
    Ids(IdIter<'a>),
    Keyed(std::collections::btree_set::Iter<'a, (u64, u32)>),
}

impl Iterator for BucketIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            BucketIter::Ids(it) => it.next(),
            BucketIter::Keyed(it) => it.next().map(|&(_, t)| t),
        }
    }
}

/// A set of task ids iterated in ascending order: one bit per task, a
/// one-bit-per-word summary of the non-zero words (so a walk skips empty
/// words 4096 ids at a time) and a member count. The words are allocated
/// on the first insert — most levels of most sites never hold a task.
#[derive(Debug, Clone, Default)]
struct IdBucket {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl IdBucket {
    /// Adds `t` (not a member) to a set over ids `0..num_ids`.
    fn insert(&mut self, t: u32, num_ids: usize) {
        if self.words.is_empty() {
            self.words = vec![0; num_ids.div_ceil(64)];
            self.summary = vec![0; self.words.len().div_ceil(64)];
        }
        let w = (t / 64) as usize;
        debug_assert_eq!(self.words[w] >> (t % 64) & 1, 0, "task {t} already filed");
        self.words[w] |= 1 << (t % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
    }

    /// Drops member `t`.
    fn remove(&mut self, t: u32) {
        let w = (t / 64) as usize;
        debug_assert_eq!(self.words[w] >> (t % 64) & 1, 1, "task {t} not filed");
        self.words[w] &= !(1 << (t % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    fn iter(&self) -> IdIter<'_> {
        // An empty level ends the walk at once, without reading the summary.
        let summary_ix = if self.len == 0 { self.summary.len() } else { 0 };
        IdIter {
            bucket: self,
            summary_ix,
            summary_bits: self.summary.get(summary_ix).copied().unwrap_or(0),
            word_ix: 0,
            bits: 0,
        }
    }
}

struct IdIter<'a> {
    bucket: &'a IdBucket,
    summary_ix: usize,
    /// Not-yet-visited non-zero words of `summary[summary_ix]`.
    summary_bits: u64,
    word_ix: usize,
    /// Not-yet-yielded members of `words[word_ix]`.
    bits: u64,
}

impl Iterator for IdIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            while self.summary_bits == 0 {
                self.summary_ix += 1;
                self.summary_bits = *self.bucket.summary.get(self.summary_ix)?;
            }
            self.word_ix = self.summary_ix * 64 + self.summary_bits.trailing_zeros() as usize;
            self.summary_bits &= self.summary_bits - 1;
            self.bits = self.bucket.words[self.word_ix];
        }
        let t = self.word_ix as u32 * 64 + self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(t)
    }
}

impl TaskRank {
    fn new(metric: WeightMetric, num_tasks: usize, max_level: u32) -> Self {
        let keyed = metric == WeightMetric::Combined;
        let buckets = (0..=max_level)
            .map(|level| {
                // Only finite Combined levels order by references; level 0
                // there means zero missing files (weight +∞ for every
                // reference count).
                if keyed && level > 0 {
                    Bucket::Keyed(BTreeSet::new())
                } else {
                    Bucket::Ids(IdBucket::default())
                }
            })
            .collect();
        TaskRank {
            metric,
            buckets,
            member: vec![false; num_tasks],
            level_of: vec![0; num_tasks],
            key_of: if keyed {
                vec![0; num_tasks]
            } else {
                Vec::new()
            },
            len: 0,
        }
    }

    /// Number of member tasks (pending plus not-yet-repaired stale).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no task is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The metric whose ordering this rank maintains.
    #[must_use]
    pub fn metric(&self) -> WeightMetric {
        self.metric
    }

    fn level_for(&self, size: u32, overlap: u32) -> u32 {
        match self.metric {
            WeightMetric::Overlap => overlap,
            WeightMetric::Rest | WeightMetric::Combined => size - overlap,
        }
    }

    /// Files member `t` under `level`.
    fn file(&mut self, t: usize, level: u32, refsum: u64) {
        match &mut self.buckets[level as usize] {
            Bucket::Ids(bits) => bits.insert(t as u32, self.member.len()),
            Bucket::Keyed(set) => {
                let key = u64::MAX - refsum;
                set.insert((key, t as u32));
                self.key_of[t] = key;
            }
        }
        self.level_of[t] = level;
    }

    /// Takes member `t` out of its bucket.
    fn unfile(&mut self, t: usize) {
        match &mut self.buckets[self.level_of[t] as usize] {
            Bucket::Ids(bits) => bits.remove(t as u32),
            Bucket::Keyed(set) => {
                set.remove(&(self.key_of[t], t as u32));
            }
        }
    }

    fn insert(&mut self, t: usize, level: u32, refsum: u64) {
        if self.member[t] {
            return;
        }
        self.file(t, level, refsum);
        self.member[t] = true;
        self.len += 1;
    }

    fn remove(&mut self, t: usize) {
        if !self.member[t] {
            return;
        }
        self.unfile(t);
        self.member[t] = false;
        self.len -= 1;
    }

    /// Re-files `t` after its cached counters changed.
    fn sync(&mut self, t: usize, level: u32, refsum: u64) {
        if !self.member[t] {
            return;
        }
        if level == self.level_of[t] {
            match self.buckets[level as usize] {
                Bucket::Ids(_) => return,
                Bucket::Keyed(_) if self.key_of[t] == u64::MAX - refsum => return,
                Bucket::Keyed(_) => {}
            }
        }
        self.unfile(t);
        self.file(t, level, refsum);
    }
}

/// Hot-path instruments of the lazy-membership machinery, shared by every
/// [`SiteView`] of one scheduler (cloning shares the underlying cells).
///
/// The default handles are inert — recording costs one branch — so the
/// instrumented paths are byte-identical with telemetry off, and the
/// numbers confirm the complexity claims with it on: mean repairs per pick
/// should stay flat as the site count grows (each stale entry is repaired
/// at most once per site), and replay lengths track the requeue window,
/// not the run length.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Ranked reads ([`SiteView::pick_ranked`] /
    /// [`SiteView::top_overlap_where`]) — `scheduler.rank.picks`.
    pub picks: Counter,
    /// Stale entries physically removed during ranked reads —
    /// `scheduler.rank.repairs`.
    pub repairs: Counter,
    /// [`SiteView::sync_pending`] calls with a rank attached —
    /// `scheduler.pending_log.replays`.
    pub replays: Counter,
    /// Journal entries replayed per sync —
    /// `scheduler.pending_log.replay_len`.
    pub replay_len: Histogram,
}

impl RankStats {
    /// Handles registered on `telemetry` under the canonical instrument
    /// names (inert handles when the collector is disabled).
    #[must_use]
    pub fn attach(telemetry: &Telemetry) -> Self {
        RankStats {
            picks: telemetry.counter("scheduler.rank.picks"),
            repairs: telemetry.counter("scheduler.rank.repairs"),
            replays: telemetry.counter("scheduler.pending_log.replays"),
            replay_len: telemetry.histogram("scheduler.pending_log.replay_len"),
        }
    }
}

/// Shared journal of *become-live* membership transitions (requeues after
/// faults, replica-cap releases): the scheduler appends in `O(1)`; each
/// [`SiteView`] holds a cursor and replays the suffix it has not seen yet
/// on its next read ([`SiteView::sync_pending`]).
///
/// Pool *removals* are never journaled — stale rank entries are filtered
/// (and repaired) lazily at read time instead.
#[derive(Debug, Clone, Default)]
pub struct PendingLog {
    entries: Vec<u32>,
}

impl PendingLog {
    /// Amortization period for [`PendingLog::record`]'s compaction sweep.
    const COMPACT_EVERY: usize = 4096;

    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        PendingLog::default()
    }

    /// Records that `task` (re-)became live for the per-site ranks, and
    /// periodically drains the prefix every view has already replayed —
    /// the journal stays bounded by the in-flight window (entries some
    /// cursor still trails) instead of growing for the run's lifetime.
    /// The sweep is `O(views)` once per [`PendingLog::COMPACT_EVERY`]
    /// appends.
    pub fn record(&mut self, task: TaskId, views: &mut [SiteView]) {
        self.entries.push(task.0);
        if self.entries.len().is_multiple_of(Self::COMPACT_EVERY) {
            let replayed = views
                .iter()
                .map(|v| v.log_cursor)
                .min()
                .unwrap_or(self.entries.len());
            if replayed > 0 {
                self.entries.drain(..replayed);
                for v in views {
                    v.log_cursor -= replayed;
                }
            }
        }
    }

    /// Number of journaled transitions still retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Reusable scratch of [`SiteView::on_task_references`]: per-task deltas
/// (all zero between calls) and the readers touched by the current call.
/// One per scheduler — views of all sites share it.
#[derive(Debug, Clone, Default)]
pub struct RefScratch {
    delta: Vec<u32>,
    touched: Vec<u32>,
}

/// Incrementally-maintained per-site overlap state.
///
/// For every task `t`, caches:
/// * `overlap[t]` — `|F_t|` against this site's *current* storage,
/// * `refsum[t]` — `Σ_{i ∈ F_t} r_i` over the resident overlap.
///
/// The owner must forward every storage change:
/// [`SiteView::on_file_added`] after an insert,
/// [`SiteView::on_file_evicted`] for each eviction, and
/// [`SiteView::on_task_references`] after a task start's `r_i` increments.
#[derive(Debug, Clone)]
pub struct SiteView {
    overlap: Vec<u32>,
    refsum: Vec<u64>,
    rank: Option<TaskRank>,
    /// How far into the shared [`PendingLog`] this view has replayed.
    log_cursor: usize,
    /// Hot-path instruments (inert by default; see [`RankStats`]).
    stats: RankStats,
}

impl SiteView {
    /// A view for an initially-empty site storage.
    #[must_use]
    pub fn new(num_tasks: usize) -> Self {
        SiteView {
            overlap: vec![0; num_tasks],
            refsum: vec![0; num_tasks],
            rank: None,
            log_cursor: 0,
            stats: RankStats::default(),
        }
    }

    /// Installs hot-path instrument handles (typically shared across all
    /// of a scheduler's views). Recording through inert handles — the
    /// default — is a no-op, so this never changes scheduling behaviour.
    pub fn set_stats(&mut self, stats: RankStats) {
        self.stats = stats;
    }

    /// Replays the [`PendingLog`] suffix this view has not seen yet,
    /// admitting every journaled task that is still live (per the caller's
    /// predicate) into the priority index. Call before any ranked read.
    ///
    /// `O(new entries)` — each (site, journal entry) pair is processed at
    /// most once over the run. No-op beyond cursor advancement when no
    /// rank is attached.
    pub fn sync_pending<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        log: &PendingLog,
        mut live: F,
    ) {
        if self.rank.is_none() {
            self.log_cursor = log.entries.len();
            return;
        }
        self.stats.replays.incr();
        self.stats
            .replay_len
            .record((log.entries.len() - self.log_cursor) as u64);
        while self.log_cursor < log.entries.len() {
            let task = TaskId(log.entries[self.log_cursor]);
            self.log_cursor += 1;
            if live(task) {
                self.rank_insert(index, task);
            }
        }
    }

    /// Attaches an (empty) priority index ordered for `metric`. Call after
    /// seeding the counters from pre-populated storage, then admit the
    /// pending pool via [`SiteView::rank_insert`].
    pub fn enable_rank(&mut self, metric: WeightMetric, index: &FileIndex) {
        self.rank = Some(TaskRank::new(
            metric,
            self.overlap.len(),
            index.max_task_size(),
        ));
    }

    /// The attached priority index, if any.
    #[must_use]
    pub fn rank(&self) -> Option<&TaskRank> {
        self.rank.as_ref()
    }

    /// Admits `task` (newly pending) into the priority index. No-op
    /// without a rank or if already tracked.
    pub fn rank_insert(&mut self, index: &FileIndex, task: TaskId) {
        let t = task.index();
        let (overlap, refsum) = (self.overlap[t], self.refsum[t]);
        if let Some(rank) = self.rank.as_mut() {
            let level = rank.level_for(index.task_size(task), overlap);
            rank.insert(t, level, refsum);
        }
    }

    /// Withdraws `task` (assigned/completed) from the priority index.
    /// No-op without a rank or if not tracked.
    pub fn rank_remove(&mut self, task: TaskId) {
        if let Some(rank) = self.rank.as_mut() {
            rank.remove(task.index());
        }
    }

    /// Bulk-admits `tasks` (ascending, not yet tracked) into a freshly
    /// enabled priority index — equivalent to [`SiteView::rank_insert`]
    /// per task. Id-ordered levels take each task as a bit; keyed levels
    /// collect per-level runs in one pass, then load them via
    /// `BTreeSet::from_iter` (a bulk build, far leaner than `O(T)` tree
    /// inserts per site).
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached.
    pub fn rank_bulk_admit(&mut self, index: &FileIndex, tasks: &[TaskId]) {
        let rank = self
            .rank
            .as_mut()
            .expect("rank_bulk_admit requires an enabled rank");
        let mut keyed: Vec<Vec<(u64, u32)>> = vec![Vec::new(); rank.buckets.len()];
        for &task in tasks {
            let t = task.index();
            if rank.member[t] {
                continue;
            }
            let level = rank.level_for(index.task_size(task), self.overlap[t]);
            match &mut rank.buckets[level as usize] {
                Bucket::Ids(bits) => bits.insert(task.0, rank.member.len()),
                Bucket::Keyed(_) => {
                    let key = u64::MAX - self.refsum[t];
                    keyed[level as usize].push((key, task.0));
                    rank.key_of[t] = key;
                }
            }
            rank.member[t] = true;
            rank.level_of[t] = level;
            rank.len += 1;
        }
        for (level, (bucket, entries)) in rank.buckets.iter_mut().zip(keyed).enumerate() {
            if let Bucket::Keyed(set) = bucket {
                if !entries.is_empty() {
                    // A hard assert: silently overwriting a non-empty
                    // bucket would drop tracked tasks while member[]/len
                    // still count them. Cold path (once per rank enable),
                    // so it is free.
                    assert!(
                        set.is_empty(),
                        "rank_bulk_admit into a non-empty bucket (level {level})"
                    );
                    *set = entries.into_iter().collect();
                }
            }
        }
    }

    /// Records that `file` became resident with current reference count
    /// `ref_count`.
    pub fn on_file_added(&mut self, index: &FileIndex, file: FileId, ref_count: u32) {
        self.on_file_added_pruning(index, file, ref_count, |_| true);
    }

    /// [`SiteView::on_file_added`] with opportunistic stale repair: a rank
    /// member failing `live` is physically removed instead of re-filed —
    /// the event handler is touching the entry anyway, so the repair that
    /// would otherwise wait for a read at this site comes for free, and
    /// dead entries stop paying `O(log T)` re-files on every later storage
    /// event. The predicate must be the owner's rank-liveness (the same
    /// one its reads pass), or live tasks would vanish from the index.
    pub fn on_file_added_pruning<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        file: FileId,
        ref_count: u32,
        mut live: F,
    ) {
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            self.overlap[ti] += 1;
            self.refsum[ti] += u64::from(ref_count);
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if live(TaskId(t)) {
                    let level = rank.level_for(index.task_size(TaskId(t)), self.overlap[ti]);
                    rank.sync(ti, level, self.refsum[ti]);
                } else {
                    rank.remove(ti);
                }
            }
        }
    }

    /// Records that `file` was evicted while holding reference count
    /// `ref_count`.
    pub fn on_file_evicted(&mut self, index: &FileIndex, file: FileId, ref_count: u32) {
        self.on_file_evicted_pruning(index, file, ref_count, |_| true);
    }

    /// [`SiteView::on_file_evicted`] with opportunistic stale repair (see
    /// [`SiteView::on_file_added_pruning`]).
    pub fn on_file_evicted_pruning<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        file: FileId,
        ref_count: u32,
        mut live: F,
    ) {
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            self.overlap[ti] -= 1;
            self.refsum[ti] -= u64::from(ref_count);
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if live(TaskId(t)) {
                    let level = rank.level_for(index.task_size(TaskId(t)), self.overlap[ti]);
                    rank.sync(ti, level, self.refsum[ti]);
                } else {
                    rank.remove(ti);
                }
            }
        }
    }

    /// Records that one task start referenced each of `files` (all
    /// resident; `r_i += 1` per file), with the opportunistic stale repair
    /// of [`SiteView::on_file_added_pruning`].
    ///
    /// A task reading `k` of the files gains `k` in its refsum and is
    /// re-filed once, not `k` times: the deltas gather in `scratch` first,
    /// then each distinct reader is visited once. The end state equals
    /// referencing the files one at a time, because a bucket's order
    /// depends only on the final counters.
    ///
    /// Returns `Σ delta` over the distinct readers passing `live` — the
    /// rise of the site's pending `Σ refsum` (see
    /// [`ComboAggregates::on_task_references`]).
    pub fn on_task_references<F: FnMut(TaskId) -> bool>(
        &mut self,
        index: &FileIndex,
        files: &[FileId],
        scratch: &mut RefScratch,
        mut live: F,
    ) -> u64 {
        if scratch.delta.len() < self.refsum.len() {
            scratch.delta.resize(self.refsum.len(), 0);
        }
        for &file in files {
            for &t in index.tasks_of(file) {
                let delta = &mut scratch.delta[t as usize];
                if *delta == 0 {
                    scratch.touched.push(t);
                }
                *delta += 1;
            }
        }
        let mut live_delta = 0;
        for t in scratch.touched.drain(..) {
            let ti = t as usize;
            let delta = u64::from(std::mem::take(&mut scratch.delta[ti]));
            self.refsum[ti] += delta;
            let is_live = live(TaskId(t));
            if is_live {
                live_delta += delta;
            }
            if let Some(rank) = self.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if is_live {
                    let level = rank.level_of[ti];
                    rank.sync(ti, level, self.refsum[ti]);
                } else {
                    rank.remove(ti);
                }
            }
        }
        live_delta
    }

    /// Cached `|F_t|`.
    #[must_use]
    pub fn overlap(&self, task: TaskId) -> u32 {
        self.overlap[task.index()]
    }

    /// Cached `Σ r_i` over the resident overlap of `task`.
    #[must_use]
    pub fn refsum(&self, task: TaskId) -> u64 {
        self.refsum[task.index()]
    }

    /// The worker-centric pick straight off the priority index —
    /// equivalent to `chooser.pick(weigh_all(...), rng)` but reading only
    /// the best few bucket heads (`O(log T)` amortized; `Combined`
    /// additionally reads its queue-wide normalisers from the supplied
    /// `combined_totals`, maintained exactly by [`ComboAggregates`]).
    ///
    /// Pool membership is lazy: entries failing `live` are skipped *and
    /// physically removed* (each stale entry is repaired at most once), so
    /// the candidate set equals what an eagerly-maintained rank would
    /// hold. It provably contains the full scan's top-`n` (within a bucket
    /// the order matches the argmax tie-break; across buckets every bucket
    /// contributes its first `n` live members), and the weights are
    /// computed with the identical expressions — so the pick, including
    /// its RNG consumption, is bit-identical. Call
    /// [`SiteView::sync_pending`] first so journaled re-inserts are
    /// visible.
    ///
    /// Returns `None` when no live task is tracked.
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached (see [`SiteView::enable_rank`]), or
    /// if the rank orders by [`WeightMetric::Combined`] and
    /// `combined_totals` is `None`.
    pub fn pick_ranked<R, F>(
        &mut self,
        chooser: &ChooseTask,
        rng: &mut R,
        mut live: F,
        combined_totals: Option<(u64, f64)>,
    ) -> Option<TaskId>
    where
        R: Rng + ?Sized,
        F: FnMut(TaskId) -> bool,
    {
        self.stats.picks.incr();
        let n = chooser.n();
        let mut stale: Vec<u32> = Vec::new();
        let mut cands: Vec<(TaskId, f64)> = Vec::with_capacity(n);
        {
            let rank = self
                .rank
                .as_ref()
                .expect("pick_ranked requires an enabled rank");
            match rank.metric {
                WeightMetric::Overlap => {
                    // Strictly decreasing weight per level: the first n
                    // live tasks in (level desc, id asc) order are the
                    // exact top-n.
                    'levels: for level in (0..rank.buckets.len()).rev() {
                        for t in rank.buckets[level].iter() {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            cands.push((TaskId(t), level as f64));
                            if cands.len() == n {
                                break 'levels;
                            }
                        }
                    }
                }
                WeightMetric::Rest => {
                    // Strictly decreasing weight as missing grows:
                    // ascending levels yield the exact top-n.
                    'levels: for (level, bucket) in rank.buckets.iter().enumerate() {
                        for t in bucket.iter() {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            cands.push((TaskId(t), rest_weight(level)));
                            if cands.len() == n {
                                break 'levels;
                            }
                        }
                    }
                }
                WeightMetric::Combined => {
                    // Weights mix normalised references and rest, so no
                    // single bucket order is globally sorted — but within
                    // a bucket the order is weight-descending, hence the
                    // global top-n is contained in the union of every
                    // bucket's first n live members.
                    let (total_ref, total_rest) =
                        combined_totals.expect("Combined pick needs ComboAggregates totals");
                    for (level, bucket) in rank.buckets.iter().enumerate() {
                        let mut taken = 0;
                        for t in bucket.iter() {
                            if !live(TaskId(t)) {
                                stale.push(t);
                                continue;
                            }
                            let w = combined_weight(
                                self.refsum[t as usize],
                                rest_weight(level),
                                total_ref,
                                total_rest,
                            );
                            cands.push((TaskId(t), w));
                            taken += 1;
                            if taken == n {
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.repair(&stale);
        chooser.pick(&cands, rng)
    }

    /// Physically removes lazily-discovered stale entries from the rank.
    fn repair(&mut self, stale: &[u32]) {
        if stale.is_empty() {
            return;
        }
        self.stats.repairs.add(stale.len() as u64);
        let rank = self.rank.as_mut().expect("repair follows a ranked read");
        for &t in stale {
            rank.remove(t as usize);
        }
    }

    /// The live task with the largest overlap (ties to the lowest id)
    /// that satisfies `keep`, walking the index in (overlap desc, id asc)
    /// order — the storage-affinity replica selection and the sufferage
    /// fallback.
    ///
    /// `live` is the lazy-membership predicate: entries failing it are
    /// skipped and physically repaired. `keep` is a *transient* caller
    /// filter (e.g. "not already executing at this worker") — entries
    /// failing only `keep` stay in the rank. Call
    /// [`SiteView::sync_pending`] first.
    ///
    /// # Panics
    ///
    /// Panics if no rank is attached or the rank does not order by
    /// [`WeightMetric::Overlap`].
    pub fn top_overlap_where<L, K>(&mut self, mut live: L, mut keep: K) -> Option<TaskId>
    where
        L: FnMut(TaskId) -> bool,
        K: FnMut(TaskId) -> bool,
    {
        self.stats.picks.incr();
        let mut stale: Vec<u32> = Vec::new();
        let mut found = None;
        {
            let rank = self
                .rank
                .as_ref()
                .expect("top_overlap_where requires an enabled rank");
            assert_eq!(
                rank.metric,
                WeightMetric::Overlap,
                "top_overlap_where needs an Overlap-ordered rank"
            );
            'levels: for level in (0..rank.buckets.len()).rev() {
                for t in rank.buckets[level].iter() {
                    let task = TaskId(t);
                    if !live(task) {
                        stale.push(t);
                        continue;
                    }
                    if keep(task) {
                        found = Some(task);
                        break 'levels;
                    }
                }
            }
        }
        self.repair(&stale);
        found
    }

    /// Debug helper: checks this view against ground truth from the store.
    ///
    /// # Panics
    ///
    /// Panics (in any build) if a cached counter disagrees with the store.
    pub fn assert_consistent(&self, index: &FileIndex, workload: &Workload, store: &SiteStore) {
        for t in workload.tasks() {
            let files = t.files();
            let overlap = store.overlap(files) as u32;
            let refsum = store.overlap_ref_sum(files);
            assert_eq!(
                self.overlap(t.id),
                overlap,
                "overlap mismatch for task {}",
                t.id
            );
            assert_eq!(
                self.refsum(t.id),
                refsum,
                "refsum mismatch for task {}",
                t.id
            );
        }
        let _ = index;
    }
}

/// Attaches a `metric`-ordered priority index to every view and admits the
/// current pending pool — the shared initialize-time step of every
/// incremental-mode scheduler. Admission is bulk: per-bucket sorted runs
/// handed to `BTreeSet::from_iter` (which bulk-builds), instead of
/// `S × T` individual tree inserts.
pub fn enable_ranks(
    views: &mut [SiteView],
    metric: WeightMetric,
    index: &FileIndex,
    pool: &TaskPool,
) {
    let pending: Vec<TaskId> = pool.iter().collect();
    for view in views {
        view.enable_rank(metric, index);
        view.rank_bulk_admit(index, &pending);
    }
}

/// Exact, sparsely-maintained queue-wide normalisers for the `combined`
/// metric — `totalRef` and the per-missing-count histogram behind
/// `totalRest` — for **every** site at once.
///
/// The naive definition is per-site and per-membership:
/// `totalRef(s) = Σ_{t pending} refsum_s(t)` and
/// `counts_s[m] = #{t pending : missing_s(t) = m}` — maintaining these
/// eagerly costs `O(S)` per pool insert/remove, the broadcast this module
/// eliminates. Two observations make the maintenance sparse:
///
/// * a task with **zero overlap** at a site contributes `refsum = 0` and
///   `missing = |t|` there — so a global `pending_by_size` histogram is a
///   correct baseline for every site, and each site only needs a
///   *correction* for its nonzero-overlap pending tasks;
/// * a task has nonzero overlap exactly at the sites holding at least one
///   of its files — enumerable from per-file **residency lists** in
///   `O(Σ_f |sites holding f|)`, independent of `S` for data-local
///   workloads.
///
/// Storage events stay site-local (`O(tasks reading the file)`), exactly
/// like the [`SiteView`] counter maintenance they piggyback on. All
/// arithmetic is integer, so the totals are bit-exact; `totalRest` is
/// produced by feeding the reconstructed histogram through the canonical
/// [`total_rest_from_counts`] accumulation.
///
/// Event routing (the owner must keep this in lock-step with the views;
/// all hooks take the *already updated* [`SiteView`] of the event's site):
/// [`ComboAggregates::on_file_added`] / [`ComboAggregates::on_file_evicted`]
/// / [`ComboAggregates::on_task_references`] after the view update, and
/// [`ComboAggregates::on_pool_remove`] / [`ComboAggregates::on_pool_insert`]
/// on membership changes.
#[derive(Debug, Clone)]
pub struct ComboAggregates {
    /// Baseline histogram: `#pending tasks with |t| = k` (global).
    pending_by_size: Vec<i64>,
    /// Per-site corrections, flattened `site * levels + m`: for each
    /// pending task with nonzero overlap at the site,
    /// `[missing = m] − [|t| = m]`.
    corr: Vec<i64>,
    /// Per-site `Σ refsum` over pending tasks (zero-overlap tasks
    /// contribute zero, so only nonzero-overlap sites ever adjust this).
    total_ref: Vec<u64>,
    /// `residency[f]` — sites currently holding file `f`.
    residency: Vec<Vec<u32>>,
    /// Site-dedup scratch for membership sweeps (stamp pattern).
    seen: Vec<u64>,
    stamp: u64,
    levels: usize,
}

impl ComboAggregates {
    /// Aggregates for `sites` initially-**empty** site stores over the
    /// current pending pool. Pre-populated stores must be seeded through
    /// [`ComboAggregates::on_file_added`], file by file, after the
    /// corresponding view update.
    #[must_use]
    pub fn new(index: &FileIndex, pool: &TaskPool, sites: usize) -> Self {
        let levels = index.max_task_size() as usize + 1;
        let mut pending_by_size = vec![0i64; levels];
        for t in pool.iter() {
            pending_by_size[index.task_size(t) as usize] += 1;
        }
        ComboAggregates {
            pending_by_size,
            corr: vec![0; sites * levels],
            total_ref: vec![0; sites],
            residency: vec![Vec::new(); index.file_count()],
            seen: vec![0; sites],
            stamp: 0,
            levels,
        }
    }

    /// The exact `(totalRef, totalRest)` pair for `site`, over the current
    /// pending pool — `O(levels)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a reconstructed count is negative — an event was
    /// routed out of lock-step.
    #[must_use]
    pub fn totals(&self, site: usize) -> (u64, f64) {
        let corr = &self.corr[site * self.levels..(site + 1) * self.levels];
        let total_rest = total_rest_from_counts((0..self.levels).map(|m| {
            let count = self.pending_by_size[m] + corr[m];
            debug_assert!(count >= 0, "negative count at level {m}");
            count as u32
        }));
        (self.total_ref[site], total_rest)
    }

    /// `file` became resident at `site` with reference count `ref_count`;
    /// `view` is the site's view, already updated.
    pub fn on_file_added(
        &mut self,
        site: usize,
        index: &FileIndex,
        view: &SiteView,
        file: FileId,
        ref_count: u32,
        pool: &TaskPool,
    ) {
        self.residency[file.index()].push(site as u32);
        let corr = &mut self.corr[site * self.levels..(site + 1) * self.levels];
        for &t in index.tasks_of(file) {
            let task = TaskId(t);
            if !pool.contains(task) {
                continue;
            }
            // Overlap rose by one, so the task misses one file fewer. When
            // it just joined the nonzero-overlap set, the old "missing"
            // equals |t| — exactly the baseline slot its correction must
            // now cancel, so the uniform two-slot update covers both cases.
            let m_new = (index.task_size(task) - view.overlap(task)) as usize;
            corr[m_new + 1] -= 1;
            corr[m_new] += 1;
            self.total_ref[site] += u64::from(ref_count);
        }
    }

    /// `file` was evicted at `site` while holding `ref_count`; `view` is
    /// the site's view, already updated.
    pub fn on_file_evicted(
        &mut self,
        site: usize,
        index: &FileIndex,
        view: &SiteView,
        file: FileId,
        ref_count: u32,
        pool: &TaskPool,
    ) {
        let slot = self.residency[file.index()]
            .iter()
            .position(|&s| s == site as u32)
            .expect("evicted file was resident");
        self.residency[file.index()].swap_remove(slot);
        let corr = &mut self.corr[site * self.levels..(site + 1) * self.levels];
        for &t in index.tasks_of(file) {
            let task = TaskId(t);
            if !pool.contains(task) {
                continue;
            }
            let m_new = (index.task_size(task) - view.overlap(task)) as usize;
            corr[m_new - 1] -= 1;
            corr[m_new] += 1;
            self.total_ref[site] -= u64::from(ref_count);
        }
    }

    /// A task start at `site` raised the refsum of its pending readers by
    /// `pending_delta` in total — the value [`SiteView::on_task_references`]
    /// returns when its `live` predicate is pool membership.
    pub fn on_task_references(&mut self, site: usize, pending_delta: u64) {
        self.total_ref[site] += pending_delta;
    }

    /// `task` (input set `files`) left the pending pool. Touches only the
    /// sites where the task has nonzero overlap, via the residency lists.
    pub fn on_pool_remove(
        &mut self,
        index: &FileIndex,
        task: TaskId,
        files: &[FileId],
        views: &[SiteView],
    ) {
        let size = index.task_size(task) as usize;
        self.pending_by_size[size] -= 1;
        self.for_each_overlap_site(files, |aggr, site| {
            let view = &views[site];
            let m = size - view.overlap(task) as usize;
            let corr = &mut aggr.corr[site * aggr.levels..(site + 1) * aggr.levels];
            corr[m] -= 1;
            corr[size] += 1;
            aggr.total_ref[site] -= view.refsum(task);
        });
    }

    /// `task` (input set `files`) re-joined the pending pool.
    pub fn on_pool_insert(
        &mut self,
        index: &FileIndex,
        task: TaskId,
        files: &[FileId],
        views: &[SiteView],
    ) {
        let size = index.task_size(task) as usize;
        self.pending_by_size[size] += 1;
        self.for_each_overlap_site(files, |aggr, site| {
            let view = &views[site];
            let m = size - view.overlap(task) as usize;
            let corr = &mut aggr.corr[site * aggr.levels..(site + 1) * aggr.levels];
            corr[m] += 1;
            corr[size] -= 1;
            aggr.total_ref[site] += view.refsum(task);
        });
    }

    /// Visits each distinct site holding at least one of `files` — exactly
    /// the sites where the owning task's overlap is nonzero.
    fn for_each_overlap_site<F: FnMut(&mut Self, usize)>(&mut self, files: &[FileId], mut f: F) {
        self.stamp += 1;
        let stamp = self.stamp;
        for &file in files {
            let sites = std::mem::take(&mut self.residency[file.index()]);
            for &s in &sites {
                let s = s as usize;
                if self.seen[s] != stamp {
                    self.seen[s] = stamp;
                    f(self, s);
                }
            }
            self.residency[file.index()] = sites;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;

    fn wl() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 0.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2)], 0.0),
                TaskSpec::new(TaskId(2), vec![FileId(2), FileId(3)], 0.0),
            ],
            4,
            1.0,
            "w",
        )
    }

    #[test]
    fn index_layout() {
        let idx = FileIndex::build(&wl());
        assert_eq!(idx.file_count(), 4);
        assert_eq!(idx.task_count(), 3);
        assert_eq!(idx.tasks_of(FileId(1)), &[0, 1]);
        assert_eq!(idx.tasks_of(FileId(3)), &[2]);
        assert_eq!(idx.task_size(TaskId(0)), 2);
    }

    #[test]
    fn view_tracks_store() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut view = SiteView::new(3);

        store.insert(FileId(1));
        view.on_file_added(&idx, FileId(1), store.ref_count(FileId(1)));
        assert_eq!(view.overlap(TaskId(0)), 1);
        assert_eq!(view.overlap(TaskId(1)), 1);
        assert_eq!(view.overlap(TaskId(2)), 0);

        store.record_task_reference(FileId(1));
        view.on_task_references(&idx, &[FileId(1)], &mut RefScratch::default(), |_| true);
        assert_eq!(view.refsum(TaskId(0)), 1);

        view.assert_consistent(&idx, &workload, &store);
    }

    #[test]
    fn eviction_rolls_back_counters() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(1, EvictionPolicy::Lru);
        let mut view = SiteView::new(3);

        store.insert(FileId(1));
        view.on_file_added(&idx, FileId(1), store.ref_count(FileId(1)));
        store.record_task_reference(FileId(1));
        view.on_task_references(&idx, &[FileId(1)], &mut RefScratch::default(), |_| true);

        // Inserting file 2 evicts file 1 (capacity 1).
        let ref_before = store.ref_count(FileId(1));
        let evicted = store.insert(FileId(2));
        assert_eq!(evicted, vec![FileId(1)]);
        view.on_file_evicted(&idx, FileId(1), ref_before);
        view.on_file_added(&idx, FileId(2), store.ref_count(FileId(2)));

        view.assert_consistent(&idx, &workload, &store);
        assert_eq!(view.overlap(TaskId(0)), 0);
        assert_eq!(view.refsum(TaskId(0)), 0);
    }

    /// The overlap and refsum counters every rank is keyed on track the
    /// store through inserts and task references.
    #[test]
    fn view_counters_match_store_on_example() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut view = SiteView::new(3);
        for f in [0u32, 2] {
            store.insert(FileId(f));
            view.on_file_added(&idx, FileId(f), store.ref_count(FileId(f)));
            view.assert_consistent(&idx, &workload, &store);
        }
        store.record_task_reference(FileId(2));
        view.on_task_references(&idx, &[FileId(2)], &mut RefScratch::default(), |_| true);
        view.assert_consistent(&idx, &workload, &store);
    }
}

#[cfg(test)]
mod rank_tests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wl() -> Workload {
        Workload::new(
            vec![
                TaskSpec::new(TaskId(0), vec![FileId(0), FileId(1)], 0.0),
                TaskSpec::new(TaskId(1), vec![FileId(1), FileId(2)], 0.0),
                TaskSpec::new(TaskId(2), vec![FileId(2), FileId(3)], 0.0),
                TaskSpec::new(TaskId(3), vec![FileId(0), FileId(3)], 0.0),
            ],
            4,
            1.0,
            "w",
        )
    }

    fn ranked_view(metric: WeightMetric, resident: &[u32]) -> (FileIndex, SiteView, SiteStore) {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut store = SiteStore::new(10, EvictionPolicy::Lru);
        let mut view = SiteView::new(4);
        view.enable_rank(metric, &idx);
        for t in 0..4 {
            view.rank_insert(&idx, TaskId(t));
        }
        for &f in resident {
            store.insert(FileId(f));
            view.on_file_added(&idx, FileId(f), store.ref_count(FileId(f)));
        }
        (idx, view, store)
    }

    #[test]
    fn ranked_overlap_pick_is_argmax() {
        let (_, mut view, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        let mut rng = StdRng::seed_from_u64(0);
        // Task 2 overlaps {2,3} fully; deterministic argmax.
        assert_eq!(
            view.pick_ranked(&ChooseTask::new(1), &mut rng, |_| true, None),
            Some(TaskId(2))
        );
    }

    #[test]
    fn ranked_rest_prefers_zero_missing() {
        let (_, mut view, _) = ranked_view(WeightMetric::Rest, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            view.pick_ranked(&ChooseTask::new(1), &mut rng, |_| true, None),
            Some(TaskId(0)),
            "task 0 needs zero transfers"
        );
    }

    #[test]
    fn ranked_tracks_lazy_membership() {
        // Membership is conveyed through the `live` predicate + the
        // PendingLog, never by touching the rank directly.
        let (idx, mut view, _) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let chooser = ChooseTask::new(1);
        let mut pool = TaskPool::full(4);
        let mut log = PendingLog::new();
        let mut pick = |view: &mut SiteView, pool: &TaskPool, log: &PendingLog| {
            view.sync_pending(&idx, log, |t| pool.contains(t));
            view.pick_ranked(&chooser, &mut rng, |t| pool.contains(t), None)
        };
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(0)));
        pool.remove(TaskId(0));
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(1)));
        // The stale entry was physically repaired during the read.
        assert_eq!(view.rank().expect("enabled").len(), 3);
        pool.insert(TaskId(0));
        log.record(TaskId(0), std::slice::from_mut(&mut view));
        assert_eq!(pick(&mut view, &pool, &log), Some(TaskId(0)));
        for t in 0..4 {
            pool.remove(TaskId(t));
        }
        assert_eq!(pick(&mut view, &pool, &log), None);
        assert!(view.rank().expect("enabled").is_empty(), "all repaired");
    }

    #[test]
    fn rank_stats_count_picks_replays_and_repairs() {
        let (idx, mut view, _) = ranked_view(WeightMetric::Overlap, &[0, 1]);
        let telemetry = Telemetry::enabled();
        view.set_stats(RankStats::attach(&telemetry));
        let mut pool = TaskPool::full(4);
        let log = PendingLog::new();
        view.sync_pending(&idx, &log, |t| pool.contains(t));
        // Task 0 (overlap 2, the bucket head) goes stale in place; the next
        // ranked read must skip and physically repair it.
        pool.remove(TaskId(0));
        let mut rng = StdRng::seed_from_u64(0);
        let picked = view.pick_ranked(&ChooseTask::new(1), &mut rng, |t| pool.contains(t), None);
        assert_eq!(picked, Some(TaskId(1)));
        assert_eq!(telemetry.counter("scheduler.rank.picks").get(), 1);
        assert_eq!(telemetry.counter("scheduler.rank.repairs").get(), 1);
        assert_eq!(telemetry.counter("scheduler.pending_log.replays").get(), 1);
        let lens = telemetry.histogram("scheduler.pending_log.replay_len");
        assert_eq!(lens.count(), 1, "one sync call, zero entries replayed");
        assert_eq!(lens.sum(), 0);
    }

    #[test]
    fn top_overlap_where_filters() {
        let (_, mut view, _) = ranked_view(WeightMetric::Overlap, &[2, 3]);
        assert_eq!(view.top_overlap_where(|_| true, |_| true), Some(TaskId(2)));
        assert_eq!(
            view.top_overlap_where(|_| true, |t| t != TaskId(2)),
            Some(TaskId(1)),
            "next-best overlap after filtering the argmax"
        );
        assert_eq!(view.top_overlap_where(|_| true, |_| false), None);
        // A transient `keep` filter must not shrink the rank...
        assert_eq!(view.rank().expect("enabled").len(), 4);
        // ...but a failing `live` predicate repairs the walked entries.
        assert_eq!(view.top_overlap_where(|_| false, |_| true), None);
        assert!(view.rank().expect("enabled").is_empty());
    }

    #[test]
    fn combo_aggregates_track_membership_and_storage() {
        let workload = wl();
        let idx = FileIndex::build(&workload);
        let mut pool = TaskPool::full(4);
        let mut combo = ComboAggregates::new(&idx, &pool, 2);
        let mut views = vec![SiteView::new(4), SiteView::new(4)];
        let mut store = SiteStore::new(2, EvictionPolicy::Lru);

        // Baseline (empty stores): totalRef 0, counts all at |t| = 2.
        let naive_totals = |pool: &TaskPool, store: &SiteStore| {
            let mut total_ref = 0u64;
            let mut counts: Vec<u32> = Vec::new();
            for t in pool.iter() {
                let files = workload.task(t).files();
                let missing = files.len() - store.overlap(files);
                total_ref += store.overlap_ref_sum(files);
                if missing >= counts.len() {
                    counts.resize(missing + 1, 0);
                }
                counts[missing] += 1;
            }
            (total_ref, total_rest_from_counts(counts))
        };
        let check = |combo: &ComboAggregates, pool: &TaskPool, store: &SiteStore| {
            let (r, rest) = combo.totals(0);
            let (nr, nrest) = naive_totals(pool, store);
            assert_eq!(r, nr);
            assert_eq!(rest.to_bits(), nrest.to_bits(), "bit-identical totalRest");
        };
        check(&combo, &pool, &store);

        // File events at site 0.
        for f in [1u32, 2] {
            store.insert(FileId(f));
            views[0].on_file_added(&idx, FileId(f), store.ref_count(FileId(f)));
            combo.on_file_added(
                0,
                &idx,
                &views[0],
                FileId(f),
                store.ref_count(FileId(f)),
                &pool,
            );
        }
        store.record_task_reference(FileId(1));
        let pending_delta =
            views[0].on_task_references(&idx, &[FileId(1)], &mut RefScratch::default(), |t| {
                pool.contains(t)
            });
        combo.on_task_references(0, pending_delta);
        check(&combo, &pool, &store);

        // Membership: remove a nonzero-overlap task, then re-admit it.
        let files1: Vec<FileId> = workload.task(TaskId(1)).files().to_vec();
        pool.remove(TaskId(1));
        combo.on_pool_remove(&idx, TaskId(1), &files1, &views);
        check(&combo, &pool, &store);
        pool.insert(TaskId(1));
        combo.on_pool_insert(&idx, TaskId(1), &files1, &views);
        check(&combo, &pool, &store);

        // Eviction (capacity 2, LRU) rolls the correction back.
        let evicted = store.insert(FileId(3));
        assert_eq!(evicted.len(), 1, "capacity 2 forces one eviction");
        for e in evicted {
            let rc = store.ref_count(e);
            views[0].on_file_evicted(&idx, e, rc);
            combo.on_file_evicted(0, &idx, &views[0], e, rc, &pool);
        }
        views[0].on_file_added(&idx, FileId(3), store.ref_count(FileId(3)));
        combo.on_file_added(
            0,
            &idx,
            &views[0],
            FileId(3),
            store.ref_count(FileId(3)),
            &pool,
        );
        check(&combo, &pool, &store);

        // Site 1 never saw a file: its totals stay at the baseline.
        let (r1, _) = combo.totals(1);
        assert_eq!(r1, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gridsched_storage::EvictionPolicy;
    use gridsched_workload::TaskSpec;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Reference(u32),
        RemoveTask(u32),
    }

    fn arb_workload() -> impl Strategy<Value = Workload> {
        // 3..10 tasks over 12 files, 1..6 files each.
        proptest::collection::vec(proptest::collection::btree_set(0u32..12, 1..6), 3..10).prop_map(
            |task_files| {
                let tasks: Vec<TaskSpec> = task_files
                    .into_iter()
                    .enumerate()
                    .map(|(i, fs)| {
                        TaskSpec::new(TaskId(i as u32), fs.into_iter().map(FileId).collect(), 0.0)
                    })
                    .collect();
                Workload::new(tasks, 12, 1.0, "prop")
            },
        )
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0u32..12).prop_map(Op::Insert),
            (0u32..12).prop_map(Op::Reference),
            (0u32..10).prop_map(Op::RemoveTask),
        ];
        proptest::collection::vec(op, 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The overlap and refsum counters every rank is keyed on match the
        /// store after every insert, eviction and task reference.
        #[test]
        fn view_counters_always_match_store(
            workload in arb_workload(),
            ops in arb_ops(),
            cap in 1usize..8,
        ) {
            let idx = FileIndex::build(&workload);
            let mut store = SiteStore::new(cap, EvictionPolicy::Lru);
            let mut view = SiteView::new(workload.task_count());
            let mut scratch = RefScratch::default();
            for op in ops {
                match op {
                    Op::Insert(f) => {
                        let f = FileId(f);
                        if !store.contains(f) {
                            let evicted = store.insert(f);
                            for e in evicted {
                                view.on_file_evicted(&idx, e, store.ref_count(e));
                            }
                            view.on_file_added(&idx, f, store.ref_count(f));
                        }
                    }
                    Op::Reference(f) => {
                        let f = FileId(f);
                        if store.contains(f) {
                            store.record_task_reference(f);
                            view.on_task_references(&idx, &[f], &mut scratch, |_| true);
                        }
                    }
                    // Pool membership does not touch the counters.
                    Op::RemoveTask(_) => {}
                }
                view.assert_consistent(&idx, &workload, &store);
            }
        }

        /// The ranked pick — lazy membership (stale filtering + PendingLog
        /// replay), `ComboAggregates` normalisers, candidate selection off
        /// the bucket heads — makes the same choice as the full naive scan
        /// + `ChooseTask`, consuming the RNG identically, across storage
        /// churn and pool membership changes.
        #[test]
        fn ranked_pick_matches_naive_scan(
            workload in arb_workload(),
            ops in arb_ops(),
            cap in 1usize..8,
            metric_ix in 0usize..3,
            n in 1usize..4,
            seed in 0u64..8,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let metric = [WeightMetric::Overlap, WeightMetric::Rest, WeightMetric::Combined][metric_ix];
            let chooser = ChooseTask::new(n);
            let idx = FileIndex::build(&workload);
            let mut store = SiteStore::new(cap, EvictionPolicy::Lru);
            let mut view = SiteView::new(workload.task_count());
            view.enable_rank(metric, &idx);
            let mut pool = TaskPool::full(workload.task_count());
            for t in pool.iter().collect::<Vec<_>>() {
                view.rank_insert(&idx, t);
            }
            let mut combo = ComboAggregates::new(&idx, &pool, 1);
            let mut log = PendingLog::new();
            let mut scratch = RefScratch::default();
            let mut rng_naive = StdRng::seed_from_u64(seed);
            let mut rng_ranked = StdRng::seed_from_u64(seed);
            for op in ops {
                match op {
                    Op::Insert(f) => {
                        let f = FileId(f);
                        if !store.contains(f) {
                            let evicted = store.insert(f);
                            for e in evicted {
                                view.on_file_evicted(&idx, e, store.ref_count(e));
                                combo.on_file_evicted(0, &idx, &view, e, store.ref_count(e), &pool);
                            }
                            view.on_file_added(&idx, f, store.ref_count(f));
                            combo.on_file_added(0, &idx, &view, f, store.ref_count(f), &pool);
                        }
                    }
                    Op::Reference(f) => {
                        let f = FileId(f);
                        if store.contains(f) {
                            store.record_task_reference(f);
                            let pending_delta = view.on_task_references(
                                &idx, &[f], &mut scratch, |t| pool.contains(t),
                            );
                            combo.on_task_references(0, pending_delta);
                        }
                    }
                    Op::RemoveTask(t) => {
                        // Toggle pool membership to exercise requeues: a
                        // removal touches no rank (lazy), an insert goes
                        // through the journal.
                        if (t as usize) < workload.task_count() {
                            let t = TaskId(t);
                            let files: Vec<FileId> = workload.task(t).files().to_vec();
                            if pool.contains(t) {
                                pool.remove(t);
                                combo.on_pool_remove(&idx, t, &files, std::slice::from_ref(&view));
                            } else {
                                pool.insert(t);
                                combo.on_pool_insert(&idx, t, &files, std::slice::from_ref(&view));
                                log.record(t, std::slice::from_mut(&mut view));
                            }
                        }
                    }
                }
                let weights = crate::weight::weigh_all_naive(metric, &workload, &pool, &store);
                let naive = chooser.pick(&weights, &mut rng_naive);
                let totals = (metric == WeightMetric::Combined).then(|| combo.totals(0));
                view.sync_pending(&idx, &log, |t| pool.contains(t));
                let ranked = view.pick_ranked(&chooser, &mut rng_ranked, |t| pool.contains(t), totals);
                prop_assert_eq!(naive, ranked, "metric {} n {}", metric, n);
            }
        }
    }

    /// The per-file reference update that [`SiteView::on_task_references`]
    /// batches: `r_i += 1` for one resident `file`, re-filing (or pruning)
    /// every reader on each call. Returns how many readers pass `live` —
    /// what `ComboAggregates` adds to `totalRef` per file. Test oracle of
    /// the batched update only.
    fn reference_sequential<F: FnMut(TaskId) -> bool>(
        view: &mut SiteView,
        index: &FileIndex,
        file: FileId,
        mut live: F,
    ) -> u64 {
        let mut live_readers = 0;
        for &t in index.tasks_of(file) {
            let ti = t as usize;
            view.refsum[ti] += 1;
            let is_live = live(TaskId(t));
            live_readers += u64::from(is_live);
            if let Some(rank) = view.rank.as_mut() {
                if !rank.member[ti] {
                    continue;
                }
                if is_live {
                    let level = rank.level_of[ti];
                    rank.sync(ti, level, view.refsum[ti]);
                } else {
                    rank.remove(ti);
                }
            }
        }
        live_readers
    }

    /// Each level's members in bucket order.
    fn rank_contents(view: &SiteView) -> Vec<Vec<u32>> {
        let rank = view.rank.as_ref().expect("enabled");
        rank.buckets.iter().map(|b| b.iter().collect()).collect()
    }

    #[derive(Debug, Clone)]
    enum BitOp {
        Insert(u32),
        /// Removes the oracle's member at this position (mod its length).
        RemoveNth(usize),
        /// Walks only to the first member, as a pick usually does.
        First,
    }

    fn arb_bit_ops() -> impl Strategy<Value = (u32, Vec<BitOp>)> {
        // Small universes hit word boundaries densely; large ones span
        // several summary words (4096 ids each).
        prop_oneof![1u32..200, 4000u32..13000].prop_flat_map(|n| {
            let op = prop_oneof![
                (0..n).prop_map(BitOp::Insert),
                (0usize..64).prop_map(BitOp::RemoveNth),
                Just(BitOp::First),
            ];
            (Just(n), proptest::collection::vec(op, 0..150))
        })
    }

    #[derive(Debug, Clone)]
    enum BatchOp {
        Insert(u32),
        /// One task start referencing these files (the resident ones,
        /// repeats allowed).
        Start(Vec<u32>),
        /// Toggles a task's pool membership — the liveness predicate.
        Toggle(u32),
    }

    fn arb_batch_ops() -> impl Strategy<Value = Vec<BatchOp>> {
        let op = prop_oneof![
            (0u32..12).prop_map(BatchOp::Insert),
            proptest::collection::vec(0u32..12, 0..8).prop_map(BatchOp::Start),
            (0u32..10).prop_map(BatchOp::Toggle),
        ];
        proptest::collection::vec(op, 0..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An id-ordered bitset bucket holds and walks exactly what a
        /// `BTreeSet<(0, id)>` — the bucket kind it replaced — would, and
        /// its summary and count stay exact, after every op.
        #[test]
        fn id_bucket_matches_btreeset_oracle((n, ops) in arb_bit_ops()) {
            let mut bits = IdBucket::default();
            let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::new();
            for op in ops {
                match op {
                    // The rank never files a member twice.
                    BitOp::Insert(t) => {
                        if oracle.insert((0, t)) {
                            bits.insert(t, n as usize);
                        }
                    }
                    BitOp::RemoveNth(k) => {
                        if let Some(&(_, t)) = oracle.iter().nth(k % oracle.len().max(1)) {
                            oracle.remove(&(0, t));
                            bits.remove(t);
                        }
                    }
                    BitOp::First => {
                        prop_assert_eq!(bits.iter().next(), oracle.first().map(|&(_, t)| t));
                    }
                }
                let want: Vec<u32> = oracle.iter().map(|&(_, t)| t).collect();
                prop_assert_eq!(bits.iter().collect::<Vec<_>>(), want);
                prop_assert_eq!(bits.len, oracle.len());
                prop_assert_eq!(bits.len == 0, oracle.is_empty());
                for (w, &word) in bits.words.iter().enumerate() {
                    prop_assert_eq!(
                        bits.summary[w / 64] >> (w % 64) & 1 == 1,
                        word != 0,
                        "summary bit of word {}", w
                    );
                }
            }
        }

        /// A task start's references applied in one batch leave the view —
        /// counters, rank membership and order, the ranked pick and its
        /// RNG draws — and the `combined` normalisers exactly as applying
        /// them file by file does, for every metric, with pool membership
        /// (the liveness predicate) toggling underneath.
        #[test]
        fn batched_references_match_sequential(
            workload in arb_workload(),
            ops in arb_batch_ops(),
            cap in 1usize..8,
            metric_ix in 0usize..3,
            n in 1usize..4,
            seed in 0u64..8,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let metric = [WeightMetric::Overlap, WeightMetric::Rest, WeightMetric::Combined][metric_ix];
            let chooser = ChooseTask::new(n);
            let idx = FileIndex::build(&workload);
            let mut store = SiteStore::new(cap, EvictionPolicy::Lru);
            let mut pool = TaskPool::full(workload.task_count());
            // [batched, sequential]
            let mut views = vec![SiteView::new(workload.task_count()); 2];
            enable_ranks(&mut views, metric, &idx, &pool);
            let mut combos = vec![ComboAggregates::new(&idx, &pool, 1); 2];
            let mut log = PendingLog::new();
            let mut scratch = RefScratch::default();
            let mut rngs = [StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed)];
            for op in ops {
                let is_start = matches!(op, BatchOp::Start(_));
                match op {
                    BatchOp::Insert(f) => {
                        let f = FileId(f);
                        if !store.contains(f) {
                            let evicted = store.insert(f);
                            for (view, combo) in views.iter_mut().zip(&mut combos) {
                                for &e in &evicted {
                                    let rc = store.ref_count(e);
                                    view.on_file_evicted_pruning(&idx, e, rc, |t| pool.contains(t));
                                    combo.on_file_evicted(0, &idx, view, e, rc, &pool);
                                }
                                let rc = store.ref_count(f);
                                view.on_file_added_pruning(&idx, f, rc, |t| pool.contains(t));
                                combo.on_file_added(0, &idx, view, f, rc, &pool);
                            }
                        }
                    }
                    BatchOp::Start(files) => {
                        let files: Vec<FileId> =
                            files.into_iter().map(FileId).filter(|&f| store.contains(f)).collect();
                        for &f in &files {
                            store.record_task_reference(f);
                        }
                        let live = |t| pool.contains(t);
                        let batched = views[0].on_task_references(&idx, &files, &mut scratch, live);
                        combos[0].on_task_references(0, batched);
                        let mut sequential = 0;
                        for &f in &files {
                            sequential += reference_sequential(&mut views[1], &idx, f, live);
                        }
                        combos[1].on_task_references(0, sequential);
                        prop_assert_eq!(batched, sequential);
                    }
                    BatchOp::Toggle(t) => {
                        if (t as usize) < workload.task_count() {
                            let t = TaskId(t);
                            let files = workload.task(t).files();
                            if pool.remove(t) {
                                for (v, combo) in combos.iter_mut().enumerate() {
                                    combo.on_pool_remove(&idx, t, files, &views[v..=v]);
                                }
                            } else {
                                pool.insert(t);
                                for (v, combo) in combos.iter_mut().enumerate() {
                                    combo.on_pool_insert(&idx, t, files, &views[v..=v]);
                                }
                                log.record(t, &mut views);
                            }
                        }
                    }
                }
                for t in 0..workload.task_count() {
                    let t = TaskId(t as u32);
                    prop_assert_eq!(views[0].overlap(t), views[1].overlap(t));
                    prop_assert_eq!(views[0].refsum(t), views[1].refsum(t), "refsum of {}", t);
                }
                let ranks = [views[0].rank().expect("enabled"), views[1].rank().expect("enabled")];
                prop_assert_eq!(&ranks[0].member, &ranks[1].member);
                prop_assert_eq!(ranks[0].len(), ranks[1].len());
                prop_assert_eq!(rank_contents(&views[0]), rank_contents(&views[1]));
                let totals = [combos[0].totals(0), combos[1].totals(0)];
                prop_assert_eq!(totals[0].0, totals[1].0);
                prop_assert_eq!(totals[0].1.to_bits(), totals[1].1.to_bits());
                if is_start {
                    let mut picks = Vec::new();
                    for ((view, rng), total) in views.iter_mut().zip(&mut rngs).zip(totals) {
                        view.assert_consistent(&idx, &workload, &store);
                        view.sync_pending(&idx, &log, |t| pool.contains(t));
                        let total = (metric == WeightMetric::Combined).then_some(total);
                        picks.push(view.pick_ranked(&chooser, rng, |t| pool.contains(t), total));
                    }
                    prop_assert_eq!(picks[0], picks[1], "metric {} n {}", metric, n);
                    prop_assert_eq!(rank_contents(&views[0]), rank_contents(&views[1]));
                }
            }
        }
    }
}
