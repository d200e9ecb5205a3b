//! Capacity-bounded site storage with pinning and reference tracking.
//!
//! Every touch of a resident file must be O(1), because each task start
//! touches all of its inputs (~78 files in the paper's Coadd workload).
//! Resident files therefore live in a slot pool: LRU and FIFO keep their
//! eviction order as an intrusive doubly linked list through the slots
//! (oldest at the head), and only LFU, whose order moves by frequency,
//! keeps a `BTreeSet`. File → slot and `r_i` are hash maps keyed by a
//! one-multiply id hash, so memory stays O(resident + referenced files).

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use gridsched_workload::FileId;

use crate::fileset::FileSet;
use crate::policy::EvictionPolicy;

/// Counters describing a store's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Files inserted (network arrivals or replication pushes).
    pub insertions: u64,
    /// Files evicted by the replacement policy.
    pub evictions: u64,
    /// Inserts that had to exceed capacity because every resident file was
    /// pinned.
    pub overflow_inserts: u64,
    /// Highest number of resident files ever observed.
    pub max_resident: usize,
}

/// Multiplicative (Fibonacci) hashing of file ids: one multiply instead of
/// SipHash. File ids are bounded by the workload's file count (the trace
/// loader rejects larger ones) and no output depends on map order, so the
/// maps need speed, not collision resistance. `finish` rotates the
/// product's well-mixed high bits into the low bits the table indexes by,
/// so strided ids spread as well as consecutive ones.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

const GOLDEN_RATIO: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN_RATIO);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(GOLDEN_RATIO);
    }
}

type IdMap<V> = HashMap<FileId, V, BuildHasherDefault<IdHasher>>;

/// End-of-list link.
const NIL: u32 = u32::MAX;

/// One resident file's metadata in the slot pool.
#[derive(Debug, Clone, Copy)]
struct Slot {
    file: FileId,
    /// Number of active pins (batch requests / executing tasks).
    pins: u32,
    /// Use count while resident (LFU only).
    freq: u64,
    /// Insertion sequence number, `StoreStats::insertions` at insert time
    /// (LFU tie-break only).
    inserted: u64,
    /// Neighbours in the LRU/FIFO list; `NIL` at its ends, in free slots
    /// and under LFU.
    prev: u32,
    next: u32,
}

/// The local storage of one site's data server.
///
/// Holds up to `capacity` equally-sized files; evicts per
/// [`EvictionPolicy`] when full, never evicting **pinned** files; tracks
/// `r_i` — the number of past task references of each file at this site —
/// which survives eviction (it is scheduler bookkeeping, not cache state).
///
/// # Example
///
/// ```
/// use gridsched_storage::{EvictionPolicy, SiteStore};
/// use gridsched_workload::FileId;
///
/// let mut store = SiteStore::new(2, EvictionPolicy::Lru);
/// store.insert(FileId(0));
/// store.insert(FileId(1));
/// store.touch(FileId(0));               // 0 is now more recent than 1
/// let evicted = store.insert(FileId(2)); // evicts 1
/// assert_eq!(evicted, vec![FileId(1)]);
/// assert!(store.contains(FileId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SiteStore {
    capacity: usize,
    policy: EvictionPolicy,
    /// Slot pool; slots listed in `free` are unused.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Resident file → its slot.
    slot_of: IdMap<u32>,
    /// Dense residency bitset mirroring `slot_of` — the hot-path membership
    /// structure.
    resident: FileSet,
    /// LRU/FIFO eviction order, oldest first (empty under LFU).
    head: u32,
    tail: u32,
    /// LFU eviction order `((freq, inserted), slot)` (empty otherwise).
    lfu_order: BTreeSet<((u64, u64), u32)>,
    refs: IdMap<u32>,
    stats: StoreStats,
}

impl SiteStore {
    /// Creates an empty store holding at most `capacity` files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        assert!(capacity > 0, "storage capacity must be positive");
        SiteStore {
            capacity,
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: IdMap::default(),
            resident: FileSet::new(),
            head: NIL,
            tail: NIL,
            lfu_order: BTreeSet::new(),
            refs: IdMap::default(),
            stats: StoreStats::default(),
        }
    }

    /// The configured capacity in files.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The replacement policy.
    #[must_use]
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of resident files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether no files are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Whether `file` is resident (one bitset probe).
    #[must_use]
    pub fn contains(&self, file: FileId) -> bool {
        self.resident.contains(file)
    }

    /// The paper's **overlap cardinality** `|F_t|`: how many of `files` are
    /// resident.
    #[must_use]
    pub fn overlap(&self, files: &[FileId]) -> usize {
        files.iter().filter(|f| self.contains(**f)).count()
    }

    /// The files from `files` that are *not* resident (the batch request a
    /// data server sends to the external file server).
    #[must_use]
    pub fn missing(&self, files: &[FileId]) -> Vec<FileId> {
        files
            .iter()
            .copied()
            .filter(|f| !self.contains(*f))
            .collect()
    }

    /// `r_i` — past task references of `file` at this site (0 if never
    /// referenced; survives eviction).
    #[must_use]
    pub fn ref_count(&self, file: FileId) -> u32 {
        self.refs.get(&file).copied().unwrap_or(0)
    }

    /// Sum of `r_i` over the *resident* subset of `files` — `ref_t` in the
    /// paper's combined metric.
    #[must_use]
    pub fn overlap_ref_sum(&self, files: &[FileId]) -> u64 {
        files
            .iter()
            .filter(|f| self.contains(**f))
            .map(|f| u64::from(self.ref_count(*f)))
            .sum()
    }

    /// Inserts `file`, evicting per policy if the store is full. Returns the
    /// evicted files (empty if there was room or the file was already
    /// resident).
    ///
    /// If every resident file is pinned, the store *overflows* (the insert
    /// succeeds beyond capacity and is counted in
    /// [`StoreStats::overflow_inserts`]); the data server cannot drop files
    /// an executing task still needs.
    pub fn insert(&mut self, file: FileId) -> Vec<FileId> {
        if self.contains(file) {
            self.touch(file);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.len() >= self.capacity {
            match self.evict_one() {
                Some(f) => evicted.push(f),
                None => {
                    self.stats.overflow_inserts += 1;
                    break;
                }
            }
        }
        self.stats.insertions += 1;
        let inserted = self.stats.insertions;
        let slot = Slot {
            file,
            pins: 0,
            freq: 0,
            inserted,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("fewer than u32::MAX resident files");
                self.slots.push(slot);
                s
            }
        };
        self.slot_of.insert(file, s);
        self.resident.insert(file);
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => self.push_back(s),
            EvictionPolicy::Lfu => {
                self.lfu_order.insert(((0, inserted), s));
            }
        }
        self.stats.max_resident = self.stats.max_resident.max(self.len());
        evicted
    }

    /// Evicts the policy's best victim among unpinned files. Returns `None`
    /// if everything is pinned.
    fn evict_one(&mut self) -> Option<FileId> {
        let victim = match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                let mut s = self.head;
                while s != NIL && self.slots[s as usize].pins > 0 {
                    s = self.slots[s as usize].next;
                }
                (s != NIL).then_some(s)
            }
            EvictionPolicy::Lfu => self
                .lfu_order
                .iter()
                .map(|&(_, s)| s)
                .find(|&s| self.slots[s as usize].pins == 0),
        }?;
        let file = self.slots[victim as usize].file;
        self.remove(file);
        self.stats.evictions += 1;
        Some(file)
    }

    /// Drops resident, unpinned `file` and frees its slot.
    fn remove(&mut self, file: FileId) {
        let s = self
            .slot_of
            .remove(&file)
            .expect("removing a resident file");
        self.resident.remove(file);
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => self.unlink(s),
            EvictionPolicy::Lfu => {
                let slot = self.slots[s as usize];
                self.lfu_order.remove(&((slot.freq, slot.inserted), s));
            }
        }
        self.free.push(s);
    }

    /// Appends slot `s` at the newest end of the LRU/FIFO list.
    fn push_back(&mut self, s: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[s as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.head = s,
            t => self.slots[t as usize].next = s,
        }
        self.tail = s;
    }

    /// Takes slot `s` out of the LRU/FIFO list, leaving its links `NIL`.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        let slot = &mut self.slots[s as usize];
        slot.prev = NIL;
        slot.next = NIL;
    }

    /// Marks `file` as used now (updates LRU recency / LFU frequency). No-op
    /// for non-resident files.
    pub fn touch(&mut self, file: FileId) {
        let Some(&s) = self.slot_of.get(&file) else {
            return;
        };
        match self.policy {
            EvictionPolicy::Lru => {
                self.unlink(s);
                self.push_back(s);
            }
            EvictionPolicy::Fifo => {} // insertion order never changes
            EvictionPolicy::Lfu => {
                let slot = &mut self.slots[s as usize];
                let old = ((slot.freq, slot.inserted), s);
                slot.freq += 1;
                let new = ((slot.freq, slot.inserted), s);
                self.lfu_order.remove(&old);
                self.lfu_order.insert(new);
            }
        }
    }

    /// Records that a task at this site referenced `file` (increments `r_i`)
    /// and touches it.
    pub fn record_task_reference(&mut self, file: FileId) {
        *self.refs.entry(file).or_insert(0) += 1;
        self.touch(file);
    }

    /// Pins `file` against eviction. Pins nest (two batch requests may pin
    /// the same file).
    ///
    /// # Panics
    ///
    /// Panics if `file` is not resident — the caller must insert before
    /// pinning.
    pub fn pin(&mut self, file: FileId) {
        self.resident_slot(file, "pin").pins += 1;
    }

    /// Releases one pin on `file`.
    ///
    /// # Panics
    ///
    /// Panics if `file` is not resident or not pinned.
    pub fn unpin(&mut self, file: FileId) {
        let slot = self.resident_slot(file, "unpin");
        assert!(slot.pins > 0, "unpin: file {file} not pinned");
        slot.pins -= 1;
    }

    /// The slot of resident `file`; panics naming `op` otherwise.
    fn resident_slot(&mut self, file: FileId, op: &str) -> &mut Slot {
        let s = *self
            .slot_of
            .get(&file)
            .unwrap_or_else(|| panic!("{op}: file {file} not resident"));
        &mut self.slots[s as usize]
    }

    /// Number of currently pinned files.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        // Free slots were unpinned when they were released.
        self.slots.iter().filter(|s| s.pins > 0).count()
    }

    /// A data-server outage: every **unpinned** resident file is lost.
    ///
    /// Pinned files survive — they are held in memory by executions in
    /// progress, not only on the failed server's disk. Reference counts
    /// (`r_i`) survive too: they are scheduler bookkeeping, not cache
    /// state. Lost files are *not* counted as policy evictions in
    /// [`StoreStats`] (the caller accounts them separately).
    ///
    /// Returns the lost files in ascending id order (deterministic, so
    /// downstream scheduler notifications are reproducible).
    pub fn fail(&mut self) -> Vec<FileId> {
        let lost: Vec<FileId> = self
            .resident()
            .filter(|f| self.slots[self.slot_of[f] as usize].pins == 0)
            .collect();
        for &f in &lost {
            self.remove(f);
        }
        lost
    }

    /// Iterates over resident files in ascending id order.
    pub fn resident(&self) -> impl Iterator<Item = FileId> + '_ {
        self.resident.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = SiteStore::new(10, EvictionPolicy::Lru);
        assert!(s.insert(f(1)).is_empty());
        assert!(s.contains(f(1)));
        assert!(!s.contains(f(2)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.overlap(&[f(1), f(2), f(3)]), 1);
        assert_eq!(s.missing(&[f(1), f(2)]), vec![f(2)]);
    }

    #[test]
    fn reinsert_is_touch_not_duplicate() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(1)); // refresh 1
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(2)], "2 is now least recent");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = SiteStore::new(3, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        let ev = s.insert(f(4));
        assert_eq!(ev, vec![f(2)]);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = SiteStore::new(3, EvictionPolicy::Fifo);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        s.touch(f(1));
        let ev = s.insert(f(4));
        assert_eq!(
            ev,
            vec![f(1)],
            "FIFO evicts oldest insert regardless of use"
        );
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut s = SiteStore::new(3, EvictionPolicy::Lfu);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        s.touch(f(1));
        s.touch(f(1));
        s.touch(f(2));
        let ev = s.insert(f(4));
        assert_eq!(ev, vec![f(3)], "3 has freq 0");
    }

    #[test]
    fn lfu_ties_break_by_age() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lfu);
        s.insert(f(1));
        s.insert(f(2));
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(1)], "equal freq → oldest goes");
    }

    #[test]
    fn pinned_files_survive() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.pin(f(1));
        let ev = s.insert(f(3));
        assert_eq!(ev, vec![f(2)], "pinned 1 must not be evicted");
        assert!(s.contains(f(1)));
    }

    #[test]
    fn all_pinned_overflows() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.pin(f(1));
        s.pin(f(2));
        let ev = s.insert(f(3));
        assert!(ev.is_empty());
        assert_eq!(s.len(), 3, "overflow beyond capacity");
        assert_eq!(s.stats().overflow_inserts, 1);
        // After unpinning, the next insert shrinks back.
        s.unpin(f(1));
        s.unpin(f(2));
        let ev = s.insert(f(4));
        assert_eq!(ev.len(), 2, "evicts down to capacity");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn pins_nest() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.pin(f(1));
        s.pin(f(1));
        s.unpin(f(1));
        // still pinned once
        let ev = s.insert(f(2));
        assert!(ev.is_empty());
        assert_eq!(s.len(), 2);
        s.unpin(f(1));
        assert_eq!(s.pinned_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn pin_missing_panics() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.pin(f(1));
    }

    #[test]
    #[should_panic(expected = "not pinned")]
    fn unpin_unpinned_panics() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.unpin(f(1));
    }

    #[test]
    fn reference_counts_survive_eviction() {
        let mut s = SiteStore::new(1, EvictionPolicy::Lru);
        s.insert(f(1));
        s.record_task_reference(f(1));
        s.record_task_reference(f(1));
        assert_eq!(s.ref_count(f(1)), 2);
        s.insert(f(2)); // evicts 1
        assert!(!s.contains(f(1)));
        assert_eq!(s.ref_count(f(1)), 2, "r_i survives eviction");
    }

    #[test]
    fn overlap_ref_sum_counts_only_resident() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.record_task_reference(f(1));
        s.record_task_reference(f(2));
        s.record_task_reference(f(2));
        s.insert(f(3)); // evicts 1
        assert_eq!(
            s.overlap_ref_sum(&[f(1), f(2), f(3)]),
            2,
            "only resident 2 counts"
        );
    }

    #[test]
    fn stats_track_behaviour() {
        let mut s = SiteStore::new(2, EvictionPolicy::Lru);
        s.insert(f(1));
        s.insert(f(2));
        s.insert(f(3));
        let st = s.stats();
        assert_eq!(st.insertions, 3);
        assert_eq!(st.evictions, 1);
        assert_eq!(st.max_resident, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SiteStore::new(0, EvictionPolicy::Lru);
    }
}

/// The HashMap + `BTreeSet` store the slot pool replaced, kept verbatim as
/// the reference model, minus its residency bitset (which mirrored
/// `entries`) and the API the property tests do not call.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeSet, HashMap};

    use gridsched_workload::FileId;

    use super::StoreStats;
    use crate::policy::EvictionPolicy;

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        /// Current position in the eviction order.
        key: (u64, u64),
        /// Number of active pins (batch requests / executing tasks).
        pins: u32,
        /// Use count while resident (for LFU).
        freq: u64,
        /// Insertion tick (for FIFO and LFU tie-breaks).
        inserted: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct OracleStore {
        capacity: usize,
        policy: EvictionPolicy,
        entries: HashMap<FileId, Entry>,
        order: BTreeSet<((u64, u64), FileId)>,
        refs: HashMap<FileId, u32>,
        tick: u64,
        stats: StoreStats,
    }

    impl OracleStore {
        pub(super) fn new(capacity: usize, policy: EvictionPolicy) -> Self {
            assert!(capacity > 0, "storage capacity must be positive");
            OracleStore {
                capacity,
                policy,
                entries: HashMap::new(),
                order: BTreeSet::new(),
                refs: HashMap::new(),
                tick: 0,
                stats: StoreStats::default(),
            }
        }

        pub(super) fn len(&self) -> usize {
            self.entries.len()
        }

        pub(super) fn stats(&self) -> StoreStats {
            self.stats
        }

        pub(super) fn contains(&self, file: FileId) -> bool {
            self.entries.contains_key(&file)
        }

        pub(super) fn ref_count(&self, file: FileId) -> u32 {
            self.refs.get(&file).copied().unwrap_or(0)
        }

        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn order_key(&self, policy_tick: u64, freq: u64, inserted: u64) -> (u64, u64) {
            match self.policy {
                EvictionPolicy::Lru => (policy_tick, 0),
                EvictionPolicy::Fifo => (inserted, 0),
                EvictionPolicy::Lfu => (freq, inserted),
            }
        }

        pub(super) fn insert(&mut self, file: FileId) -> Vec<FileId> {
            if self.contains(file) {
                self.touch(file);
                return Vec::new();
            }
            let mut evicted = Vec::new();
            while self.entries.len() >= self.capacity {
                match self.evict_one() {
                    Some(f) => evicted.push(f),
                    None => {
                        self.stats.overflow_inserts += 1;
                        break;
                    }
                }
            }
            let tick = self.next_tick();
            let key = self.order_key(tick, 0, tick);
            self.entries.insert(
                file,
                Entry {
                    key,
                    pins: 0,
                    freq: 0,
                    inserted: tick,
                },
            );
            self.order.insert((key, file));
            self.stats.insertions += 1;
            self.stats.max_resident = self.stats.max_resident.max(self.entries.len());
            evicted
        }

        fn evict_one(&mut self) -> Option<FileId> {
            let victim = self
                .order
                .iter()
                .find(|(_, f)| self.entries[f].pins == 0)
                .map(|&(key, f)| (key, f))?;
            self.order.remove(&victim);
            self.entries.remove(&victim.1);
            self.stats.evictions += 1;
            Some(victim.1)
        }

        pub(super) fn touch(&mut self, file: FileId) {
            let tick = self.next_tick();
            let policy = self.policy;
            let Some(entry) = self.entries.get_mut(&file) else {
                return;
            };
            entry.freq += 1;
            let new_key = match policy {
                EvictionPolicy::Lru => (tick, 0),
                EvictionPolicy::Fifo => entry.key, // insertion order never changes
                EvictionPolicy::Lfu => (entry.freq, entry.inserted),
            };
            if new_key != entry.key {
                let old = (entry.key, file);
                entry.key = new_key;
                self.order.remove(&old);
                self.order.insert((new_key, file));
            }
        }

        pub(super) fn record_task_reference(&mut self, file: FileId) {
            *self.refs.entry(file).or_insert(0) += 1;
            self.touch(file);
        }

        pub(super) fn pin(&mut self, file: FileId) {
            let entry = self
                .entries
                .get_mut(&file)
                .unwrap_or_else(|| panic!("pin: file {file} not resident"));
            entry.pins += 1;
        }

        pub(super) fn unpin(&mut self, file: FileId) {
            let entry = self
                .entries
                .get_mut(&file)
                .unwrap_or_else(|| panic!("unpin: file {file} not resident"));
            assert!(entry.pins > 0, "unpin: file {file} not pinned");
            entry.pins -= 1;
        }

        pub(super) fn pinned_count(&self) -> usize {
            self.entries.values().filter(|e| e.pins > 0).count()
        }

        pub(super) fn fail(&mut self) -> Vec<FileId> {
            let mut lost: Vec<FileId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .map(|(&f, _)| f)
                .collect();
            lost.sort_unstable();
            for &f in &lost {
                let entry = self.entries.remove(&f).expect("collected above");
                self.order.remove(&(entry.key, f));
            }
            lost
        }

        pub(super) fn resident(&self) -> impl Iterator<Item = FileId> + '_ {
            self.entries.keys().copied()
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::OracleStore;
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Touch(u32),
        Reference(u32),
        PinCycle(u32),
    }

    fn arb_ops() -> impl Strategy<Value = (usize, EvictionPolicy, Vec<Op>)> {
        let op = prop_oneof![
            (0u32..50).prop_map(Op::Insert),
            (0u32..50).prop_map(Op::Touch),
            (0u32..50).prop_map(Op::Reference),
            (0u32..50).prop_map(Op::PinCycle),
        ];
        (
            1usize..20,
            arb_policy(),
            proptest::collection::vec(op, 0..200),
        )
    }

    fn arb_policy() -> impl Strategy<Value = EvictionPolicy> {
        prop_oneof![
            Just(EvictionPolicy::Lru),
            Just(EvictionPolicy::Fifo),
            Just(EvictionPolicy::Lfu)
        ]
    }

    /// Walks the LRU/FIFO list and checks the slot pool's structure:
    /// the list (or the LFU set) holds exactly the resident files, it has
    /// no cycle, its head and tail agree with the links, and free slots
    /// are unlinked and unpinned.
    fn check_list_invariants(s: &SiteStore) {
        let mut listed = 0;
        let mut prev = NIL;
        let mut at = s.head;
        while at != NIL {
            listed += 1;
            assert!(listed <= s.slots.len(), "cycle in the recency list");
            let slot = s.slots[at as usize];
            assert_eq!(slot.prev, prev, "broken back link at slot {at}");
            assert_eq!(
                s.slot_of.get(&slot.file),
                Some(&at),
                "listed slot not indexed"
            );
            assert!(s.contains(slot.file));
            prev = at;
            at = slot.next;
        }
        assert_eq!(s.tail, prev, "tail is not the last listed slot");
        match s.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => {
                assert_eq!(listed, s.len());
                assert!(s.lfu_order.is_empty());
            }
            EvictionPolicy::Lfu => {
                assert_eq!(listed, 0, "LFU never links the list");
                assert_eq!(s.lfu_order.len(), s.len());
                for &((freq, inserted), at) in &s.lfu_order {
                    let slot = s.slots[at as usize];
                    assert_eq!((slot.freq, slot.inserted), (freq, inserted));
                    assert_eq!(s.slot_of.get(&slot.file), Some(&at));
                }
            }
        }
        assert_eq!(s.resident.len(), s.len());
        assert_eq!(s.free.len() + s.len(), s.slots.len());
        for &at in &s.free {
            let slot = s.slots[at as usize];
            assert_eq!((slot.prev, slot.next, slot.pins), (NIL, NIL, 0));
            assert_ne!(
                s.slot_of.get(&slot.file),
                Some(&at),
                "free slot still indexed"
            );
        }
    }

    /// Store operations for the oracle comparison; pins are held across
    /// ops, so eviction must skip pinned files and inserts can overflow.
    #[derive(Debug, Clone)]
    enum OracleOp {
        Insert(u32),
        Touch(u32),
        Reference(u32),
        Pin(u32),
        Unpin(u32),
        Fail,
    }

    fn arb_oracle_ops() -> impl Strategy<Value = (usize, EvictionPolicy, Vec<OracleOp>)> {
        // A server failure empties most of the store, so it is drawn
        // rarely (1 in 60) to let the store fill and evict between them.
        let op = (0u32..6, 0u32..50).prop_map(|(kind, x)| match kind {
            0 => OracleOp::Insert(x),
            1 => OracleOp::Touch(x),
            2 => OracleOp::Reference(x),
            3 => OracleOp::Pin(x),
            4 => OracleOp::Unpin(x),
            _ if x < 5 => OracleOp::Fail,
            _ => OracleOp::Insert(x),
        });
        (
            1usize..20,
            arb_policy(),
            proptest::collection::vec(op, 0..300),
        )
    }

    proptest! {
        #[test]
        fn capacity_respected_without_pins((cap, policy, ops) in arb_ops()) {
            let mut s = SiteStore::new(cap, policy);
            for op in ops {
                match op {
                    Op::Insert(x) => { s.insert(FileId(x)); }
                    Op::Touch(x) => s.touch(FileId(x)),
                    Op::Reference(x) => s.record_task_reference(FileId(x)),
                    Op::PinCycle(x) => {
                        if s.contains(FileId(x)) {
                            s.pin(FileId(x));
                            s.unpin(FileId(x));
                        }
                    }
                }
                // No pins held across ops → never exceeds capacity.
                prop_assert!(s.len() <= cap, "len {} > cap {}", s.len(), cap);
                prop_assert_eq!(s.pinned_count(), 0);
            }
        }

        #[test]
        fn list_invariants_hold((cap, policy, ops) in arb_ops()) {
            let mut s = SiteStore::new(cap, policy);
            for op in ops {
                match op {
                    Op::Insert(x) => { s.insert(FileId(x)); }
                    Op::Touch(x) => s.touch(FileId(x)),
                    Op::Reference(x) => s.record_task_reference(FileId(x)),
                    Op::PinCycle(_) => {}
                }
                check_list_invariants(&s);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slot_pool_matches_oracle((cap, policy, ops) in arb_oracle_ops()) {
            let mut s = SiteStore::new(cap, policy);
            let mut o = OracleStore::new(cap, policy);
            let mut held = [0u32; 50];
            for (step, op) in ops.into_iter().enumerate() {
                let ctx = format!("step {step} {op:?} (cap {cap}, {policy:?})");
                match op {
                    OracleOp::Insert(x) => {
                        prop_assert_eq!(s.insert(FileId(x)), o.insert(FileId(x)), "{}", ctx);
                    }
                    OracleOp::Touch(x) => {
                        s.touch(FileId(x));
                        o.touch(FileId(x));
                    }
                    OracleOp::Reference(x) => {
                        s.record_task_reference(FileId(x));
                        o.record_task_reference(FileId(x));
                    }
                    OracleOp::Pin(x) => {
                        if o.contains(FileId(x)) {
                            s.pin(FileId(x));
                            o.pin(FileId(x));
                            held[x as usize] += 1;
                        }
                    }
                    OracleOp::Unpin(x) => {
                        if held[x as usize] > 0 {
                            s.unpin(FileId(x));
                            o.unpin(FileId(x));
                            held[x as usize] -= 1;
                        }
                    }
                    OracleOp::Fail => prop_assert_eq!(s.fail(), o.fail(), "{}", ctx),
                }
                prop_assert_eq!(s.len(), o.len(), "{}", ctx);
                prop_assert_eq!(s.pinned_count(), o.pinned_count(), "{}", ctx);
                prop_assert_eq!(s.stats(), o.stats(), "{}", ctx);
                for x in 0..50u32 {
                    let f = FileId(x);
                    prop_assert_eq!(s.contains(f), o.contains(f), "{} file {}", ctx, x);
                    prop_assert_eq!(s.ref_count(f), o.ref_count(f), "{} file {}", ctx, x);
                }
                let mut expected: Vec<FileId> = o.resident().collect();
                expected.sort_unstable();
                prop_assert_eq!(s.resident().collect::<Vec<_>>(), expected, "{}", ctx);
                check_list_invariants(&s);
            }
        }
    }
}
