//! Per-node runtime state.
//!
//! Each graph node owns the mutable state its [`crate::graph::Plan`] needs:
//! chronicle-context FIFO buffers partitioned by correlation key for
//! two-sided joins, keyed occurrence histories for negations, element
//! histories for `SEQ+`, the open run of a `TSEQ+`, and anchored waits for
//! pseudo-event-resolved negations. Everything here is passive — the engine
//! drives it.

use std::collections::VecDeque;
use std::sync::Arc;

use rfid_epc::hash::TagTable;
use rfid_events::{Instance, Span, Timestamp};

use crate::key::{Key, SeqMap};
use crate::plan::InlineBuf;

/// Keyed state of a node: correlation key → a slot holding a `T`, plus the
/// expiry log that says when to look at a slot again. Join buffers
/// ([`KeyedBuffer`]) and negation histories ([`NegationState`]) are both
/// this table; they differ in what a slot holds.
///
/// The [`Key`] is stored once, in its slot. The index in front of the arena
/// is a [`TagTable`]: one eight-byte cell per live key — 32 bits of
/// [`Key::precomputed_hash`] over `slot id + 1`. A probe reads cells on the
/// key's home line until the tag matches, then compares the key in the slot
/// the cell names — the line the caller is about to read anyway; cells that
/// share a tag, or a whole hash, are told apart there. Releasing a key
/// shifts its probe run back, so a stream of ever-fresh keys leaves no
/// tombstones: cells and slots track the peak live population, not the
/// number of keys seen.
///
/// Callers pass the hash a key is filed under beside the key — the same
/// one every time, which is what lets a test force collisions. A table whose
/// log is used files under `key.precomputed_hash()`, as
/// [`SlotTable::expire`] and [`SlotTable::rebuild_log`] release under it.
#[derive(Debug, Clone, Default)]
pub struct SlotTable<T> {
    index: TagTable,
    /// Slot arena, recycled through `free`.
    slots: Vec<Slot<T>>,
    /// Freed slot ids available for reuse, last freed first.
    free: Vec<u32>,
    /// Expiry log: `(time, slot)` records in the order they were logged.
    /// [`SlotTable::expire`] walks only the expired prefix, so an expiry
    /// costs O(records that died) instead of a scan over every live key. A
    /// record may outlive what it was logged for (the entry was consumed,
    /// the slot freed and reused): it then only prompts a look at a slot
    /// whose dead content, if any, is dead by time — harmless. Slot ids keep
    /// a record at 16 bytes where a cloned [`Key`] was 40 and a hash.
    log: VecDeque<(Timestamp, u32)>,
}

/// One key's slot. `key` doubles as the occupancy flag: `None` marks a free
/// slot (stale log records naming it are skipped, a second release is a
/// no-op). A freed slot keeps its `value` for the next key, so the holder
/// frees a slot only when the value is as a fresh key should find it.
#[derive(Debug, Clone, Default)]
struct Slot<T> {
    key: Option<Key>,
    value: T,
}

impl<T: Default> SlotTable<T> {
    /// Live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// The slot of `key`, if it is live.
    #[inline]
    pub fn find(&self, hash: u64, key: &Key) -> Option<u32> {
        let slots = &self.slots;
        self.index
            .find(hash as u32, |v| {
                slots[v as usize - 1].key.as_ref() == Some(key)
            })
            .map(|(_, v)| v - 1)
    }

    /// The slot of `key`, taking a free one (or growing the arena) on first
    /// sight — the one place a probe's borrowed key is cloned, into the slot.
    pub fn slot_of(&mut self, hash: u64, key: &Key) -> u32 {
        if let Some(slot) = self.find(hash, key) {
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot::default());
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize].key = Some(key.clone());
        self.index.insert(hash as u32, slot + 1);
        slot
    }

    /// What `slot` holds.
    pub fn value(&self, slot: u32) -> &T {
        &self.slots[slot as usize].value
    }

    /// What `slot` holds, mutably.
    pub fn value_mut(&mut self, slot: u32) -> &mut T {
        &mut self.slots[slot as usize].value
    }

    /// Unlinks the key of `slot`, filed under `hash`, and puts the slot on
    /// the free list.
    pub fn release(&mut self, hash: u64, slot: u32) {
        if self.slots[slot as usize].key.take().is_some() {
            let (at, _) = self
                .index
                .find(hash as u32, |v| v == slot + 1)
                .expect("a live slot is indexed under its hash");
            self.index.remove(at);
            self.free.push(slot);
        }
    }

    /// Appends a record: look at `slot` once `t` has expired.
    pub fn log(&mut self, t: Timestamp, slot: u32) {
        self.log.push_back((t, slot));
    }

    /// Records in the log, stale ones included.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Pops every record at the head of the log with a time before
    /// `dead_before` and hands the value of the live slot it names to
    /// `drain`, which drops what has died and says whether the slot is to
    /// be released. Out-of-order records behind a live head wait for a
    /// later call — expiry is garbage collection, laziness is harmless.
    pub fn expire(&mut self, dead_before: Timestamp, mut drain: impl FnMut(&mut T) -> bool) {
        while let Some(&(t, slot)) = self.log.front() {
            if t >= dead_before {
                break;
            }
            self.log.pop_front();
            let s = &mut self.slots[slot as usize];
            let Some(hash) = s.key.as_ref().map(Key::precomputed_hash) else {
                continue;
            };
            if drain(&mut s.value) {
                self.release(hash, slot);
            }
        }
    }

    /// Replaces the log by what the live slots hold, in time order:
    /// `times` reports the time of each thing in a value that should have
    /// a record. A slot that reports nothing is released.
    pub fn rebuild_log(
        &mut self,
        capacity: usize,
        mut times: impl FnMut(&T, &mut dyn FnMut(Timestamp)),
    ) {
        let mut live: Vec<(Timestamp, u32)> = Vec::with_capacity(capacity);
        for slot in 0..self.slots.len() as u32 {
            let s = &self.slots[slot as usize];
            let Some(hash) = s.key.as_ref().map(Key::precomputed_hash) else {
                continue;
            };
            let before = live.len();
            times(&s.value, &mut |t| live.push((t, slot)));
            if live.len() == before {
                self.release(hash, slot);
            }
        }
        live.sort_by_key(|&(t, _)| t);
        self.log = live.into();
    }
}

/// Entries a per-key join queue holds without touching the heap. Chronicle
/// pairing consumes matches eagerly, so almost every key's queue holds at
/// most a couple of unmatched initiators at any instant.
const INLINE_ENTRIES: usize = 2;

/// FIFO with an inline fast path: queues up to [`INLINE_ENTRIES`] long live
/// directly in the key's slot (no second pointer chase per probe);
/// longer queues are promoted to a heap deque and stay there.
#[derive(Debug, Clone)]
enum MicroDeque<T> {
    /// `buf[..len]` holds the queue, oldest first.
    Inline {
        len: u8,
        buf: [Option<T>; INLINE_ENTRIES],
    },
    /// Overflow representation, oldest first.
    Heap(VecDeque<T>),
}

impl<T> Default for MicroDeque<T> {
    fn default() -> Self {
        MicroDeque::Inline {
            len: 0,
            buf: [const { None }; INLINE_ENTRIES],
        }
    }
}

impl<T> MicroDeque<T> {
    fn len(&self) -> usize {
        match self {
            MicroDeque::Inline { len, .. } => usize::from(*len),
            MicroDeque::Heap(q) => q.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn front(&self) -> Option<&T> {
        match self {
            MicroDeque::Inline { len: 0, .. } => None,
            MicroDeque::Inline { buf, .. } => buf[0].as_ref(),
            MicroDeque::Heap(q) => q.front(),
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        match self {
            MicroDeque::Inline { len: 0, .. } => None,
            MicroDeque::Inline { len, buf } => {
                let out = buf[0].take();
                buf.rotate_left(1);
                *len -= 1;
                out
            }
            MicroDeque::Heap(q) => q.pop_front(),
        }
    }

    fn push_back(&mut self, value: T) {
        match self {
            MicroDeque::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < INLINE_ENTRIES {
                    buf[n] = Some(value);
                    *len += 1;
                } else {
                    let mut q: VecDeque<T> = buf
                        .iter_mut()
                        .map(|s| s.take().expect("slot full"))
                        .collect();
                    q.push_back(value);
                    *self = MicroDeque::Heap(q);
                }
            }
            MicroDeque::Heap(q) => q.push_back(value),
        }
    }

    fn remove(&mut self, pos: usize) -> Option<T> {
        match self {
            MicroDeque::Inline { len, buf } => {
                let n = usize::from(*len);
                if pos >= n {
                    return None;
                }
                let out = buf[pos].take();
                buf[pos..n].rotate_left(1);
                *len -= 1;
                out
            }
            MicroDeque::Heap(q) => q.remove(pos),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            MicroDeque::Inline { len, buf } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    let v = buf[i].take().expect("slot full");
                    if keep(&v) {
                        buf[kept] = Some(v);
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            MicroDeque::Heap(q) => q.retain(|v| keep(v)),
        }
    }

    fn iter(&self) -> MicroIter<'_, T> {
        match self {
            MicroDeque::Inline { len, buf } => MicroIter::Inline(buf[..usize::from(*len)].iter()),
            MicroDeque::Heap(q) => MicroIter::Heap(q.iter()),
        }
    }
}

/// Iterator over a [`MicroDeque`], oldest first.
enum MicroIter<'a, T> {
    Inline(std::slice::Iter<'a, Option<T>>),
    Heap(std::collections::vec_deque::Iter<'a, T>),
}

impl<'a, T> Iterator for MicroIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        match self {
            MicroIter::Inline(it) => it.next().map(|s| s.as_ref().expect("slot full")),
            MicroIter::Heap(it) => it.next(),
        }
    }
}

/// One side of a two-sided join: FIFO queues per correlation key.
///
/// The paper's chronicle context pairs "the oldest initiator with the oldest
/// terminator"; partitioning by key keeps that property *per correlated
/// group* while making lookup O(1) in the number of keys.
#[derive(Debug, Default, Clone)]
pub struct KeyedBuffer {
    /// Per-key queues; one expiry-log record `(t_end, slot)` per admitted
    /// entry, in admission order. Entries consumed by a chronicle take
    /// leave their record stale in the log.
    table: SlotTable<MicroDeque<Arc<Instance>>>,
    len: usize,
    /// Instances evicted by the unbounded-buffer cap (reported in stats).
    pub dropped: u64,
}

/// Drops the leading entries of `q` that ended before `dead_before` (they
/// can never match again); returns how many.
fn drop_dead_prefix(q: &mut MicroDeque<Arc<Instance>>, dead_before: Timestamp) -> usize {
    let mut dropped = 0;
    while q.front().is_some_and(|front| front.t_end() < dead_before) {
        q.pop_front();
        dropped += 1;
    }
    dropped
}

impl KeyedBuffer {
    /// Total buffered instances across keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Distinct correlation keys currently indexed (reported in stats).
    pub fn key_count(&self) -> usize {
        self.table.len()
    }

    /// Logs and appends `entry` to the queue of `slot`; evicts the oldest
    /// entry of that key when `cap` is exceeded.
    fn admit(&mut self, slot: u32, entry: Arc<Instance>, cap: usize) {
        self.table.log(entry.t_end(), slot);
        let q = self.table.value_mut(slot);
        q.push_back(entry);
        self.len += 1;
        if q.len() > cap {
            q.pop_front();
            self.len -= 1;
            self.dropped += 1;
        }
    }

    /// Drops what died before `dead_before` ([`KeyedBuffer::prune`]), then
    /// appends an entry under a key; evicts the oldest entry of that key
    /// when `cap` is exceeded (only finite for sides with unbounded
    /// retention). Returns how many entries the expiry dropped.
    pub fn push(
        &mut self,
        key: &Key,
        entry: Arc<Instance>,
        cap: usize,
        dead_before: Timestamp,
    ) -> usize {
        let dropped = self.prune(dead_before);
        let slot = self.table.slot_of(key.precomputed_hash(), key);
        self.admit(slot, entry, cap);
        dropped
    }

    /// Chronicle take-or-admit in a single probe: drops what died before
    /// `dead_before` across keys, removes and returns the oldest entry of
    /// `key`'s queue satisfying `pred`, then appends `entry` to the same
    /// queue. This is the self-join arrival in one slot access — the
    /// arriving instance always becomes an initiator, matched or not, so
    /// splitting the take and the push would probe for the same slot
    /// twice. Also returns how many entries the expiry dropped.
    pub fn take_match_and_push(
        &mut self,
        key: &Key,
        dead_before: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
        entry: Arc<Instance>,
        cap: usize,
    ) -> (Option<Arc<Instance>>, usize) {
        let dropped = self.prune(dead_before);
        let slot = self.table.slot_of(key.precomputed_hash(), key);
        let taken = self.take_from(slot, dead_before, pred);
        self.admit(slot, entry, cap);
        (taken, dropped)
    }

    /// Removes and returns the oldest entry of `slot` satisfying `pred`,
    /// first discarding its dead prefix.
    fn take_from(
        &mut self,
        slot: u32,
        dead_before: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
    ) -> Option<Arc<Instance>> {
        let q = self.table.value_mut(slot);
        self.len -= drop_dead_prefix(q, dead_before);
        let pos = q.iter().position(pred)?;
        self.len -= 1;
        q.remove(pos)
    }

    /// Removes and returns the oldest entry under `key` satisfying `pred`,
    /// first discarding leading entries older than `dead_before` (they can
    /// never match again).
    pub fn take_oldest_match(
        &mut self,
        key: &Key,
        dead_before: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
    ) -> Option<Arc<Instance>> {
        let slot = self.table.find(key.precomputed_hash(), key)?;
        self.take_from(slot, dead_before, pred)
    }

    /// Removes every entry under `key` holding exactly this instance
    /// (pointer identity). Used when a pair is consumed: with same-pattern
    /// children under different windows, one physical instance may sit in
    /// both side buffers, and chronicle consumption must retire every copy.
    pub fn remove_ptr_eq(&mut self, key: &Key, inst: &Arc<Instance>) {
        if let Some(slot) = self.table.find(key.precomputed_hash(), key) {
            let q = self.table.value_mut(slot);
            let before = q.len();
            q.retain(|e| !Arc::ptr_eq(e, inst));
            self.len -= before - q.len();
        }
    }

    /// Drops every entry (across keys) whose expiry-log record has
    /// `t_end < dead_before`, visiting only those keys, and releases the
    /// keys whose queues drained; returns how many entries it dropped.
    /// Per-key matching already discards dead heads itself, so what the
    /// lazy log leaves behind is never matched.
    fn prune(&mut self, dead_before: Timestamp) -> usize {
        let before = self.len;
        let len = &mut self.len;
        self.table.expire(dead_before, |q| {
            *len -= drop_dead_prefix(q, dead_before);
            q.is_empty()
        });
        // Consumed entries leave stale log records behind; under an
        // unbounded horizon (`dead_before` zero) nothing above pops them,
        // so compact once the log outgrows the live population (which also
        // releases the keys a chronicle take emptied). The threshold makes
        // the rebuild amortized O(1) per admission.
        if self.table.log_len() > self.len * 2 + 32 {
            self.table.rebuild_log(self.len, |q, record| {
                q.iter().for_each(|e| record(e.t_end()));
            });
        }
        before - self.len
    }

    /// Expiry-log length (the compaction-threshold regression test).
    #[cfg(test)]
    fn expiry_log_len(&self) -> usize {
        self.table.log_len()
    }
}

/// End-times a key history can hold without touching the heap. Shelf-style
/// in-field rules keep one or two live records per `(reader, object)` key,
/// so the whole history sits beside its key in the slot.
const INLINE_TIMES: usize = 5;

/// Ascending end-time store with an inline fast path: histories up to
/// [`INLINE_TIMES`] records live directly in the slot; only wider
/// histories are promoted to a heap deque (and stay there — demotion would
/// churn on the boundary).
#[derive(Debug, Clone)]
enum Times {
    /// `buf[..len]` ascending.
    Inline {
        len: u8,
        buf: [Timestamp; INLINE_TIMES],
    },
    /// Overflow representation, ascending.
    Heap(VecDeque<Timestamp>),
}

impl Default for Times {
    fn default() -> Self {
        Times::Inline {
            len: 0,
            buf: [Timestamp::ZERO; INLINE_TIMES],
        }
    }
}

impl Times {
    fn len(&self) -> usize {
        match self {
            Times::Inline { len, .. } => usize::from(*len),
            Times::Heap(q) => q.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn front(&self) -> Option<Timestamp> {
        match self {
            Times::Inline { len: 0, .. } => None,
            Times::Inline { buf, .. } => Some(buf[0]),
            Times::Heap(q) => q.front().copied(),
        }
    }

    fn pop_front(&mut self) {
        match self {
            Times::Inline { len: 0, .. } => {}
            Times::Inline { len, buf } => {
                buf.copy_within(1..usize::from(*len), 0);
                *len -= 1;
            }
            Times::Heap(q) => {
                q.pop_front();
            }
        }
    }

    /// Inserts keeping ascending order. Streams are processed in timestamp
    /// order, but composite inner events may be delivered with lag, hence
    /// the out-of-order insert path.
    fn insert(&mut self, t: Timestamp) {
        match self {
            Times::Inline { len, buf } => {
                let n = usize::from(*len);
                if n == INLINE_TIMES {
                    let mut q: VecDeque<Timestamp> = buf.iter().copied().collect();
                    insert_sorted(&mut q, t);
                    *self = Times::Heap(q);
                    return;
                }
                let mut pos = n;
                while pos > 0 && buf[pos - 1] > t {
                    pos -= 1;
                }
                buf.copy_within(pos..n, pos + 1);
                buf[pos] = t;
                *len += 1;
            }
            Times::Heap(q) => insert_sorted(q, t),
        }
    }

    /// The latest stored end-time `<= to` (`< to` when `exclusive`).
    fn last_before(&self, to: Timestamp, exclusive: bool) -> Option<Timestamp> {
        let within = |t: Timestamp| if exclusive { t < to } else { t <= to };
        match self {
            Times::Inline { len, buf } => buf[..usize::from(*len)]
                .iter()
                .rev()
                .copied()
                .find(|&t| within(t)),
            Times::Heap(q) => {
                let end = q.partition_point(|&t| within(t));
                end.checked_sub(1).and_then(|i| q.get(i).copied())
            }
        }
    }

    /// The earliest stored end-time `>= from`.
    fn first_at_or_after(&self, from: Timestamp) -> Option<Timestamp> {
        match self {
            Times::Inline { len, buf } => buf[..usize::from(*len)]
                .iter()
                .copied()
                .find(|&t| t >= from),
            Times::Heap(q) => {
                let start = q.partition_point(|&t| t < from);
                q.get(start).copied()
            }
        }
    }
}

fn insert_sorted(q: &mut VecDeque<Timestamp>, t: Timestamp) {
    match q.back() {
        Some(&back) if back > t => {
            let pos = q.partition_point(|&x| x <= t);
            q.insert(pos, t);
        }
        _ => q.push_back(t),
    }
}

/// Occurrence history for one correlation key of a negation node.
#[derive(Debug, Default, Clone)]
struct KeyHist {
    /// First occurrence ever (survives pruning — answers unbounded
    /// "never occurred before t" queries).
    earliest: Option<Timestamp>,
    /// Recent occurrence end-times, ascending.
    times: Times,
}

impl KeyHist {
    /// Inserts an occurrence end-time, keeping the store sorted.
    fn insert(&mut self, t: Timestamp) {
        self.earliest = Some(match self.earliest {
            Some(e) => e.min(t),
            None => t,
        });
        self.times.insert(t);
    }

    /// Whether any stored occurrence falls in `[from, to]` (or `[from, to)`
    /// when `exclusive_end`).
    fn any_in(&self, from: Timestamp, to: Timestamp, exclusive_end: bool) -> bool {
        if let Some(earliest) = self.earliest {
            // Fast path for "never occurred before" queries anchored at the
            // epoch; also correct when pruning removed old entries.
            if from == Timestamp::ZERO {
                return if exclusive_end {
                    earliest < to
                } else {
                    earliest <= to
                };
            }
            if earliest > to || (exclusive_end && earliest == to) {
                return false;
            }
        }
        match self.times.first_at_or_after(from) {
            Some(t) if exclusive_end => t < to,
            Some(t) => t <= to,
            None => false,
        }
    }
}

/// One spec's keyed histories: one expiry-log record `(t, slot)` per
/// recorded occurrence, so pruning visits only keys that hold expired
/// records instead of scanning every live key at each admission.
#[derive(Debug, Default, Clone)]
struct HistTable {
    table: SlotTable<KeyHist>,
    /// Occurrence records retained across keys (what walking every slot's
    /// `times` would count).
    recorded: usize,
}

impl HistTable {
    /// Logs an occurrence at `t` under `key` and returns the key's history
    /// for the caller to insert `t` into.
    fn record(&mut self, key: &Key, t: Timestamp) -> &mut KeyHist {
        let slot = self.table.slot_of(key.precomputed_hash(), key);
        self.table.log(t, slot);
        self.recorded += 1;
        self.table.value_mut(slot)
    }

    fn hist(&self, key: &Key) -> Option<&KeyHist> {
        let slot = self.table.find(key.precomputed_hash(), key)?;
        Some(self.table.value(slot))
    }
}

/// State of a `NOT` node: one keyed history per registered
/// [`crate::graph::HistSpec`].
#[derive(Debug, Clone)]
pub struct NegationState {
    tables: Vec<HistTable>,
    /// Keys removed from the histories by [`NegationState::prune`].
    dropped_keys: u64,
}

impl NegationState {
    /// Empty histories for `specs` registered history specs.
    pub fn new(specs: usize) -> Self {
        Self {
            tables: (0..specs).map(|_| HistTable::default()).collect(),
            dropped_keys: 0,
        }
    }

    /// Drops what history `spec` holds from before `dead_before`
    /// ([`NegationState::prune`]), then records an inner occurrence ending
    /// at `t` under `key` in it. Returns how many records the expiry
    /// dropped.
    pub fn record(
        &mut self,
        spec: usize,
        key: &Key,
        t: Timestamp,
        dead_before: Timestamp,
    ) -> usize {
        let dropped = self.prune(spec, dead_before);
        self.tables[spec].record(key, t).insert(t);
        dropped
    }

    /// Drops what history `spec` holds from before `dead_before`, finds
    /// the latest occurrence at or before `to` (strictly before when
    /// `exclusive_end`), then records an occurrence ending at `t` against
    /// the same history entry, in one bucket probe — the fused in-field
    /// delivery ([`crate::plan::EdgeOp::QueryRecord`]). Equivalent to
    /// [`NegationState::last_occurrence`] and then
    /// [`NegationState::record`] under the same key; also returns how
    /// many records the expiry dropped.
    pub fn fused_last(
        &mut self,
        spec: usize,
        key: &Key,
        t: Timestamp,
        to: Timestamp,
        exclusive_end: bool,
        dead_before: Timestamp,
    ) -> (Option<Timestamp>, usize) {
        let dropped = self.prune(spec, dead_before);
        let hist = self.tables[spec].record(key, t);
        let last = hist.times.last_before(to, exclusive_end);
        hist.insert(t);
        (last, dropped)
    }

    /// The latest retained occurrence under `key` at or before `to`
    /// (strictly before when `exclusive_end`). One answer serves every
    /// window that ends at `to`: a window reaching back to `from` holds an
    /// occurrence exactly when this is `Some(t)` with `t >= from`. A key
    /// the expiry dropped held nothing within the node's retention, which
    /// covers every attached window, so `None` is exact for it too.
    pub fn last_occurrence(
        &self,
        spec: usize,
        key: &Key,
        to: Timestamp,
        exclusive_end: bool,
    ) -> Option<Timestamp> {
        self.tables
            .get(spec)?
            .hist(key)?
            .times
            .last_before(to, exclusive_end)
    }

    /// Whether any occurrence under `key` falls in `[from, to]`
    /// (or `[from, to)` when `exclusive_end`).
    pub fn occurred(
        &self,
        spec: usize,
        key: &Key,
        from: Timestamp,
        to: Timestamp,
        exclusive_end: bool,
    ) -> bool {
        let Some(hist) = self.tables.get(spec).and_then(|tb| tb.hist(key)) else {
            // A dropped key cannot be the subject of an epoch-anchored query:
            // those only arise under unbounded windows (retention = MAX, so
            // nothing is ever dropped) or before the clock passes the
            // retention horizon (so nothing has been dropped yet).
            debug_assert!(
                from > Timestamp::ZERO || self.dropped_keys == 0,
                "unbounded negation query after key drops — retention invariant violated"
            );
            return false;
        };
        hist.any_in(from, to, exclusive_end)
    }

    /// Drops history `spec`'s occurrences older than `dead_before`, and
    /// removes whole key entries once they hold nothing a future query can
    /// reach: an empty deque with `earliest < dead_before`. Without the
    /// removal a stream over millions of distinct EPCs grows the histories
    /// map forever. Returns the number of occurrence records removed.
    ///
    /// Removing keys is exact for epoch-anchored ("never occurred") queries
    /// because those only exist where nothing is ever dropped: an unbounded
    /// parent window forces the node's retention to `Span::MAX`, which makes
    /// `dead_before` zero here; and a window that merely *saturates* at the
    /// epoch early in the stream implies the clock has not yet passed the
    /// retention horizon, so no drop has happened yet (the clock is
    /// monotone, so drops strictly follow all saturated queries). The count
    /// `dropped_keys` records that keys were removed so the invariant is
    /// checkable (`debug_assert` in [`NegationState::occurred`]).
    fn prune(&mut self, spec: usize, dead_before: Timestamp) -> usize {
        if dead_before == Timestamp::ZERO {
            return 0;
        }
        let mut removed = 0;
        let dropped_keys = &mut self.dropped_keys;
        let tb = &mut self.tables[spec];
        // The expiry log names exactly the keys holding records that just
        // died, so this is O(expired records) — not a retain over every
        // live key. Lagged records behind a live log head are collected
        // later, which is sound: `occurred` range-checks its answers, so a
        // stale record is never *wrongly counted*, only kept a little
        // longer.
        tb.table.expire(dead_before, |hist| {
            while hist.times.front().is_some_and(|t| t < dead_before) {
                hist.times.pop_front();
                removed += 1;
            }
            match hist.earliest {
                Some(e) if hist.times.is_empty() && e < dead_before => {
                    *dropped_keys += 1;
                    *hist = KeyHist::default();
                    true
                }
                _ => false,
            }
        });
        tb.recorded -= removed;
        removed
    }

    /// Total retained occurrence records (diagnostics): a running count,
    /// so the engine's `stats()` can read it after every batch.
    pub fn recorded(&self) -> usize {
        self.tables.iter().map(|tb| tb.recorded).sum()
    }

    /// Distinct correlation keys currently held across all history specs
    /// (the quantity [`NegationState::prune`] bounds; reported in stats).
    pub fn key_count(&self) -> usize {
        self.tables.iter().map(|tb| tb.table.len()).sum()
    }
}

/// State of a `SEQ+` node: the element history parents query.
#[derive(Debug, Default, Clone)]
pub struct AperiodicState {
    /// (end-time, instance), ascending by end-time.
    hist: VecDeque<(Timestamp, Arc<Instance>)>,
}

impl AperiodicState {
    /// Drops the occurrences older than `dead_before`, then records an
    /// inner occurrence. Returns how many occurrences it dropped.
    pub fn record(&mut self, inst: Arc<Instance>, dead_before: Timestamp) -> usize {
        let dropped = self.prune(dead_before);
        let t = inst.t_end();
        match self.hist.back() {
            Some(&(back, _)) if back > t => {
                let pos = self.hist.partition_point(|&(x, _)| x <= t);
                self.hist.insert(pos, (t, inst));
            }
            _ => self.hist.push_back((t, inst)),
        }
        dropped
    }

    /// Removes and returns all occurrences with end-time in `[from, to]`,
    /// oldest first (chronicle: a consumed run is not reused).
    pub fn take_window(&mut self, from: Timestamp, to: Timestamp) -> Vec<Arc<Instance>> {
        let start = self.hist.partition_point(|&(t, _)| t < from);
        let end = self.hist.partition_point(|&(t, _)| t <= to);
        self.hist.drain(start..end).map(|(_, i)| i).collect()
    }

    /// Drops occurrences older than `dead_before`; returns how many.
    fn prune(&mut self, dead_before: Timestamp) -> usize {
        let before = self.hist.len();
        while self.hist.front().is_some_and(|&(t, _)| t < dead_before) {
            self.hist.pop_front();
        }
        before - self.hist.len()
    }

    /// Retained element count (diagnostics).
    pub fn len(&self) -> usize {
        self.hist.len()
    }
}

/// Inline capacity of an open `TSEQ+` run: the paper's conveyor runs pack
/// 4–12 items per case, so a run of up to [`RUN_INLINE`] elements never
/// touches the heap; longer runs spill (counted in the plan-shape stats).
pub const RUN_INLINE: usize = 12;

/// State of a `TSEQ+` node: the open run, NFA-style — a single active
/// run per node whose elements live inline ([`InlineBuf`]) instead of a
/// per-run `Vec`, plus the armed closure that advances or fires it.
///
/// Closure scheduling is re-armed rather than re-scheduled: at most one
/// pseudo event per node sits in the queue, and `close_exec`/`close_seq`
/// record where the closure *currently* belongs. A popped closure whose
/// `(at, seq)` no longer matches is stale (the run was extended) and is
/// pushed back at the recorded position — the exact `(at, seq)` the
/// per-arrival scheme would have used, so ordering is unchanged while the
/// queue holds one entry per run instead of one per element.
#[derive(Debug, Default, Clone)]
pub struct TimedRunState {
    /// Elements of the current open run, in arrival order.
    pub open: InlineBuf<Arc<Instance>, RUN_INLINE>,
    /// End-time of the last element.
    pub last_end: Timestamp,
    /// Execution time the armed closure should fire at.
    pub close_exec: Timestamp,
    /// Sequence number the armed closure should fire with.
    pub close_seq: u64,
    /// Whether a closure pseudo event for this run is in the queue.
    pub armed: bool,
}

/// A push-side instance waiting for a negation window to close.
#[derive(Debug, Clone)]
pub struct WaitEntry {
    /// The waiting instance.
    pub inst: Arc<Instance>,
    /// Correlation key the negation must be queried under.
    pub key: Key,
    /// Start of the yet-unchecked part of the negation window.
    pub from: Timestamp,
    /// End of the negation window (the pseudo event's execution time).
    pub to: Timestamp,
}

/// State of a node whose plan waits on negation windows.
#[derive(Debug, Default, Clone)]
pub struct WaitState {
    /// Waiting entries by anchor (the admission sequence number).
    pub waiting: SeqMap<WaitEntry>,
}

/// The full runtime state of one node.
#[derive(Debug, Default, Clone)]
pub enum NodeState {
    /// Leaves, `OR` forwarding, and pure query plans hold no state.
    #[default]
    Stateless,
    /// Two-sided chronicle join buffers.
    Join {
        /// Left-side buffer.
        left: KeyedBuffer,
        /// Right-side buffer.
        right: KeyedBuffer,
    },
    /// Negation histories.
    Negation(NegationState),
    /// `SEQ+` element history.
    Aperiodic(AperiodicState),
    /// `TSEQ+` open run.
    TimedRun(TimedRunState),
    /// Negation-wait anchors (`AND` with `NOT`, `SEQ(A; ¬B)`).
    Wait(WaitState),
}

impl NodeState {
    /// The join buffers; panics if the node is not a join (engine bug).
    pub fn join_mut(&mut self) -> (&mut KeyedBuffer, &mut KeyedBuffer) {
        match self {
            NodeState::Join { left, right } => (left, right),
            other => panic!("expected join state, found {other:?}"),
        }
    }
}

/// Retention helper: the earliest timestamp a buffer still needs, given
/// the current clock and its retention span.
pub fn dead_before(clock: Timestamp, retention: Span) -> Timestamp {
    if retention == Span::MAX {
        return Timestamp::ZERO;
    }
    clock.saturating_sub(retention)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Gid96, ReaderId};
    use rfid_events::Observation;

    fn inst(ms: u64) -> Arc<Instance> {
        Arc::new(Instance::observation(Observation::new(
            ReaderId(0),
            Gid96::new(1, 1, ms).unwrap().into(),
            Timestamp::from_millis(ms),
        )))
    }

    fn ms(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    #[test]
    fn keyed_buffer_fifo_and_match() {
        let mut buf = KeyedBuffer::default();
        let key = Key::EMPTY;
        buf.push(&key, inst(100), usize::MAX, Timestamp::ZERO);
        buf.push(&key, inst(200), usize::MAX, Timestamp::ZERO);
        buf.push(&key, inst(300), usize::MAX, Timestamp::ZERO);
        assert_eq!(buf.len(), 3);

        // Oldest matching wins (chronicle).
        let got = buf
            .take_oldest_match(&key, Timestamp::ZERO, |e| e.t_end() >= ms(200))
            .unwrap();
        assert_eq!(got.t_end(), ms(200));
        assert_eq!(buf.len(), 2);

        // Dead-before discards the stale head before matching.
        let got = buf.take_oldest_match(&key, ms(250), |_| true).unwrap();
        assert_eq!(got.t_end(), ms(300));
        assert_eq!(buf.len(), 0, "stale head was discarded");
    }

    #[test]
    fn keyed_buffer_cap_evicts_oldest() {
        let mut buf = KeyedBuffer::default();
        let key = Key::EMPTY;
        for i in 0..5 {
            buf.push(&key, inst(i * 100), 3, Timestamp::ZERO);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped, 2);
        let got = buf
            .take_oldest_match(&key, Timestamp::ZERO, |_| true)
            .unwrap();
        assert_eq!(got.t_end(), ms(200), "entries 0 and 1 were evicted");
    }

    /// An admission expires what died under any key, not just its own.
    #[test]
    fn keyed_buffer_prune_across_keys() {
        let mut buf = KeyedBuffer::default();
        buf.push(&Key::EMPTY, inst(100), usize::MAX, Timestamp::ZERO);
        let other_key = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(7))]);
        let dropped = buf.push(&other_key, inst(900), usize::MAX, ms(500));
        assert_eq!((dropped, buf.len(), buf.key_count()), (1, 1, 1));
    }

    /// Pins the `rebuild_expiry` compaction threshold: stale log records
    /// (from consumed entries) are tolerated up to `2·len + 32`, after
    /// which a prune — even one that expires nothing — rebuilds the log.
    #[test]
    fn expiry_log_compaction_threshold_is_two_len_plus_32() {
        let mut buf = KeyedBuffer::default();
        // 33 entries under distinct keys, all consumed: the whole log goes
        // stale while `len` drops to zero.
        for i in 0..33u64 {
            let key = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(i as u32))]);
            buf.push(&key, inst(100 + i), usize::MAX, Timestamp::ZERO);
            let taken = buf.take_oldest_match(&key, Timestamp::ZERO, |_| true);
            assert!(taken.is_some());
        }
        assert_eq!(buf.len(), 0);
        assert_eq!(
            buf.expiry_log_len(),
            33,
            "consumed entries go stale in place"
        );

        // At 32 stale records the threshold (0·2 + 32) is not exceeded.
        let mut at_threshold = KeyedBuffer::default();
        for i in 0..32u64 {
            let key = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(i as u32))]);
            at_threshold.push(&key, inst(100 + i), usize::MAX, Timestamp::ZERO);
            at_threshold.take_oldest_match(&key, Timestamp::ZERO, |_| true);
        }
        at_threshold.prune(Timestamp::ZERO);
        assert_eq!(at_threshold.expiry_log_len(), 32, "32 > 0*2+32 is false");

        // One more tips it over: the same no-op prune compacts to empty.
        buf.prune(Timestamp::ZERO);
        assert_eq!(buf.expiry_log_len(), 0, "33 > 0*2+32 triggers the rebuild");
        assert_eq!(
            buf.key_count(),
            0,
            "drained keys are unlinked by the rebuild"
        );

        // Live entries are preserved (and re-sorted) by compaction.
        let key = Key::EMPTY;
        for i in 0..40u64 {
            buf.push(&key, inst(1000 + i), usize::MAX, Timestamp::ZERO);
        }
        for _ in 0..30 {
            buf.take_oldest_match(&key, Timestamp::ZERO, |_| true);
        }
        // len = 10 live, 40 log records: 40 > 10*2 + 32 is false — stale
        // records ride along until the imbalance is 2x + 32.
        buf.prune(Timestamp::ZERO);
        assert_eq!(buf.expiry_log_len(), 40);
        for _ in 0..7 {
            buf.take_oldest_match(&key, Timestamp::ZERO, |_| true);
        }
        // len = 3 live, 40 log records: 40 > 3*2 + 32 compacts to the live 3.
        buf.prune(Timestamp::ZERO);
        assert_eq!(buf.expiry_log_len(), 3);
        assert_eq!(buf.len(), 3);
    }

    /// Slot recycling: a key whose queue drains by time is unlinked and its
    /// slot reused by the next new key, with stale log records harmless.
    #[test]
    fn keyed_buffer_recycles_slots_after_prune() {
        let mut buf = KeyedBuffer::default();
        let k1 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(1))]);
        let k2 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(2))]);
        buf.push(&k1, inst(100), usize::MAX, Timestamp::ZERO);
        buf.prune(Timestamp::from_millis(500));
        assert_eq!((buf.len(), buf.key_count()), (0, 0));
        // k2 reuses k1's slot; matching under k1 must not see k2's entry.
        buf.push(&k2, inst(900), usize::MAX, Timestamp::ZERO);
        assert_eq!(buf.key_count(), 1);
        assert!(buf
            .take_oldest_match(&k1, Timestamp::ZERO, |_| true)
            .is_none());
        assert!(buf
            .take_oldest_match(&k2, Timestamp::ZERO, |_| true)
            .is_some());
    }

    fn reader_key(i: u32) -> Key {
        Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(i))])
    }

    /// The table against a `BTreeMap` (keyed by the key's number), driven
    /// with forced hashes: 24 tags shared by 400 keys, each tag under two
    /// full hashes, so cells share tags and keys share whole hashes; the
    /// tags are the top of the tag space, so every probe run starts in the
    /// last cells of the array — whatever its length — and wraps, and
    /// releases land in the middle of runs of mixed homes. Every fifth key
    /// is filed under its own hash instead.
    #[test]
    fn slot_table_is_a_map_under_forced_collisions() {
        let keys: Vec<Key> = (0..400).map(reader_key).collect();
        let hash_of = |k: usize| match k % 5 {
            0 => keys[k].precomputed_hash(),
            _ => ((k % 2) as u64) << 40 | (0xFFFF_FFE8 + (k % 24) as u64),
        };
        let mut table: SlotTable<u64> = SlotTable::default();
        let mut model = std::collections::BTreeMap::<usize, u64>::new();
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut peak = 0;
        for step in 1..=25_000u64 {
            let k = next() % keys.len();
            match next() % 4 {
                0 | 1 => {
                    let slot = table.slot_of(hash_of(k), &keys[k]);
                    // A fresh key finds the value its slot was freed with.
                    assert_eq!(*table.value(slot), model.get(&k).copied().unwrap_or(0));
                    *table.value_mut(slot) = step;
                    model.insert(k, step);
                }
                2 => {
                    let found = table.find(hash_of(k), &keys[k]);
                    assert_eq!(found.map(|s| *table.value(s)), model.get(&k).copied());
                }
                _ => {
                    if let Some(slot) = table.find(hash_of(k), &keys[k]) {
                        *table.value_mut(slot) = 0;
                        table.release(hash_of(k), slot);
                        table.release(hash_of(k), slot); // a no-op on a free slot
                    }
                    assert!(table.find(hash_of(k), &keys[k]).is_none());
                    model.remove(&k);
                }
            }
            peak = peak.max(model.len());
            assert_eq!(table.len(), model.len(), "step {step}");
        }
        assert!(peak > 200, "the table grew through several doublings");
        assert!(table.slots.len() <= peak);
        assert!(table.index.cells() <= 4 * peak);
        for (k, key) in keys.iter().enumerate() {
            let found = table.find(hash_of(k), key);
            assert_eq!(found.map(|s| *table.value(s)), model.get(&k).copied());
            if let Some(slot) = found {
                table.release(hash_of(k), slot);
            }
        }
        assert_eq!(table.len(), 0);
        assert!(keys
            .iter()
            .enumerate()
            .all(|(k, key)| table.find(hash_of(k), key).is_none()));
    }

    /// A million distinct keys, a few thousand live at once: the slot arena
    /// and the index stay the size of the peak live population — released
    /// keys leave no tombstones behind and nothing grows with the number of
    /// keys seen.
    #[test]
    fn key_churn_grows_neither_the_arena_nor_the_index() {
        let mut buf = KeyedBuffer::default();
        let mut neg = NegationState::new(1);
        let mut peak = 0;
        for i in 0..1_000_000u64 {
            let key = Key::from_parts(&[crate::key::KeyPart::Object(
                Gid96::new(1, 1, i).unwrap().into(),
            )]);
            // Each admission expires what its key's predecessors left
            // 4 s behind.
            let horizon = Timestamp::from_millis(i.saturating_sub(4000));
            buf.push(&key, inst(i), usize::MAX, horizon);
            neg.record(0, &key, Timestamp::from_millis(i), horizon);
            if i % 1000 == 999 {
                assert_eq!(buf.key_count(), neg.key_count());
                peak = peak.max(buf.key_count());
            }
        }
        assert!((4000..=8000).contains(&peak), "peak live keys: {peak}");
        for table in [&buf.table.index, &neg.tables[0].table.index] {
            assert!(table.cells() <= 4 * peak, "{} cells", table.cells());
        }
        for slots in [buf.table.slots.len(), neg.tables[0].table.slots.len()] {
            assert!(slots <= peak, "{slots} slots for {peak} live keys");
        }
        assert_eq!(neg.recorded(), recorded_by_walk(&neg));
    }

    /// What [`NegationState::recorded`] counted before it kept a count.
    fn recorded_by_walk(neg: &NegationState) -> usize {
        neg.tables
            .iter()
            .flat_map(|tb| tb.table.slots.iter())
            .filter(|s| s.key.is_some())
            .map(|s| s.value.times.len())
            .sum()
    }

    #[test]
    fn negation_record_count_equals_the_walk() {
        let mut neg = NegationState::new(3);
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..6_000u64 {
            let spec = (next() % 3) as usize;
            let key = reader_key((next() % 40) as u32);
            // Mostly advancing, every few records lagged behind the clock:
            // the out-of-order insert path, inline and promoted histories.
            let t = Timestamp::from_millis((step * 10).saturating_sub(next() % 4 * 250));
            match next() % 3 {
                0 => {
                    neg.record(spec, &key, t, Timestamp::ZERO);
                }
                _ => {
                    neg.fused_last(spec, &key, t, t, next() % 2 == 0, Timestamp::ZERO);
                }
            }
            if step % 97 == 0 {
                // Removes records and, with them, whole keys.
                let horizon = Timestamp::from_millis((step * 10).saturating_sub(900));
                let removed: usize = (0..3).map(|spec| neg.prune(spec, horizon)).sum();
                assert!(step == 0 || removed > 0);
            }
            assert_eq!(neg.recorded(), recorded_by_walk(&neg), "step {step}");
        }
        assert!(neg.dropped_keys > 0, "some keys were dropped whole");
        assert!(neg.recorded() > 0);
    }

    #[test]
    fn negation_history_windows() {
        let mut neg = NegationState::new(1);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(2), Timestamp::ZERO);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(8), Timestamp::ZERO);

        let occ = |from: u64, to: u64, excl: bool| {
            neg.occurred(
                0,
                &Key::EMPTY,
                Timestamp::from_secs(from),
                Timestamp::from_secs(to),
                excl,
            )
        };
        assert!(occ(0, 10, false));
        assert!(occ(3, 8, false));
        assert!(!occ(3, 8, true), "exclusive end misses the t=8 record");
        assert!(!occ(3, 7, false));
        assert!(occ(2, 2, false), "point query hits");
        assert!(!occ(9, 20, false));
    }

    #[test]
    fn negation_earliest_survives_pruning() {
        let mut neg = NegationState::new(1);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(1), Timestamp::ZERO);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(100), Timestamp::ZERO);
        assert_eq!(
            neg.prune(0, Timestamp::from_secs(50)),
            1,
            "one record removed"
        );
        assert_eq!(neg.recorded(), 1);
        assert_eq!(neg.key_count(), 1, "key still holds a live record");
        // "Did it ever occur before t=10?" still answerable exactly.
        assert!(neg.occurred(
            0,
            &Key::EMPTY,
            Timestamp::ZERO,
            Timestamp::from_secs(10),
            true
        ));
        assert!(!neg.occurred(
            0,
            &Key::EMPTY,
            Timestamp::ZERO,
            Timestamp::from_secs(1),
            true
        ));
    }

    #[test]
    fn negation_prune_drops_drained_keys() {
        let mut neg = NegationState::new(1);
        // A million-distinct-EPC stream in miniature: each key occurs once.
        let keys: Vec<Key> = (0..4)
            .map(|i| Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(i))]))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            neg.record(0, k, Timestamp::from_secs(i as u64), Timestamp::ZERO);
        }
        assert_eq!(neg.key_count(), 4);

        // Keys 0 and 1 are fully behind the horizon: entry and `earliest`
        // both stale, so the whole entry goes.
        assert_eq!(
            neg.prune(0, Timestamp::from_secs(2)),
            2,
            "two records removed"
        );
        assert_eq!(neg.key_count(), 2, "drained keys are dropped");
        assert_eq!(neg.recorded(), 2);

        // Bounded-window queries over the dropped range stay exact: nothing
        // occurred for key 0 in any window a live clock can still ask about.
        assert!(!neg.occurred(
            0,
            &keys[0],
            Timestamp::from_secs(2),
            Timestamp::from_secs(10),
            false
        ));
        // Live keys are untouched.
        assert!(neg.occurred(
            0,
            &keys[3],
            Timestamp::from_secs(2),
            Timestamp::from_secs(10),
            false
        ));

        // A zero horizon is a no-op, not a mass drop.
        let before = neg.key_count();
        assert_eq!(neg.prune(0, Timestamp::ZERO), 0);
        assert_eq!(neg.key_count(), before);
    }

    #[test]
    fn negation_keys_are_independent() {
        let mut neg = NegationState::new(1);
        let k1 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(1))]);
        let k2 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(2))]);
        neg.record(0, &k1, Timestamp::from_secs(5), Timestamp::ZERO);
        assert!(neg.occurred(0, &k1, Timestamp::ZERO, Timestamp::from_secs(10), false));
        assert!(!neg.occurred(0, &k2, Timestamp::ZERO, Timestamp::from_secs(10), false));
    }

    #[test]
    fn negation_out_of_order_record_stays_sorted() {
        let mut neg = NegationState::new(1);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(10), Timestamp::ZERO);
        neg.record(0, &Key::EMPTY, Timestamp::from_secs(4), Timestamp::ZERO); // lagged delivery
        assert!(neg.occurred(
            0,
            &Key::EMPTY,
            Timestamp::from_secs(3),
            Timestamp::from_secs(5),
            false
        ));
    }

    #[test]
    fn aperiodic_take_window_consumes() {
        let mut ap = AperiodicState::default();
        for ms in [100u64, 200, 300, 400] {
            ap.record(inst(ms), Timestamp::ZERO);
        }
        let got = ap.take_window(Timestamp::from_millis(150), Timestamp::from_millis(400));
        assert_eq!(got.len(), 3, "window is inclusive at both ends");
        assert_eq!(ap.len(), 1, "taken elements are consumed");
        let again = ap.take_window(Timestamp::from_millis(150), Timestamp::from_millis(400));
        assert!(again.is_empty());
    }

    #[test]
    fn dead_before_clamps() {
        assert_eq!(
            dead_before(Timestamp::from_secs(100), Span::from_secs(12)),
            Timestamp::from_secs(88)
        );
        assert_eq!(
            dead_before(Timestamp::from_secs(5), Span::from_secs(10)),
            Timestamp::ZERO
        );
        assert_eq!(
            dead_before(Timestamp::from_secs(100), Span::MAX),
            Timestamp::ZERO
        );
    }
}
