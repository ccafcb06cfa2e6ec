//! Runtime state.
//!
//! Keyed state — the chronicle-context FIFO buffers of two-sided joins and
//! the occurrence histories of negations — lives in one [`KeyTable`] per
//! interned key spec, a *lane* per store. The rest is per node: element
//! histories for `SEQ+`, the open run of a `TSEQ+`, and anchored waits for
//! pseudo-event-resolved negations. Everything here is passive — the engine
//! drives it.

use std::collections::VecDeque;
use std::sync::Arc;

use rfid_epc::hash::TagTable;
use rfid_events::{Instance, Span, Timestamp};

use crate::graph::NodeId;
use crate::key::{Key, KeySpecId, SeqMap};
use crate::plan::InlineBuf;

/// Where the key of the arrival being propagated sits in its spec's table,
/// memoised beside the key (`KeyMemo` in `engine.rs`): an arrival probes
/// the index at most once per spec, however many lanes read it.
#[derive(Debug, Clone, Copy, Default)]
pub enum Found {
    /// Not looked up yet.
    #[default]
    Unprobed,
    /// Not in the table.
    Absent,
    /// In this slot — unless an expiry released it since, which leaves the
    /// key absent: only the arrival itself inserts under its key.
    At(u32),
}

/// Key → slot for one key spec. The [`Key`] is stored once, in its slot.
/// The index in front is a [`TagTable`]: one eight-byte cell per live key —
/// 32 bits of [`Key::precomputed_hash`] over `slot id + 1`. A probe reads
/// cells on the key's home line until the tag matches, then compares the
/// key in the slot the cell names; cells that share a tag, or a whole hash,
/// are told apart there. Releasing a key shifts its probe run back, so a
/// stream of ever-fresh keys leaves no tombstones: cells and slots track
/// the peak live population, not the number of keys seen. The empty spec
/// has no index: its one key holds slot 0 for good.
///
/// Callers pass the hash a key is filed under beside the key — the same one
/// every time, which is what lets a test force collisions; the lanes file
/// under `key.precomputed_hash()`.
#[derive(Debug, Clone)]
pub struct SlotTable {
    /// `None` for the empty spec.
    index: Option<TagTable>,
    /// Slot → its key; `None` marks a free slot.
    keys: Vec<Option<Key>>,
    /// Slot × lane: `columns` cells per slot, one per lane, each naming
    /// where in the lane's values its part of the slot is, or [`NOT_HELD`].
    /// A slot no lane holds is released.
    at: Vec<u32>,
    columns: usize,
    /// Freed slot ids available for reuse, last freed first.
    free: Vec<u32>,
    /// The spec, named when slot ids run out.
    spec: KeySpecId,
}

/// Slots a keyed table, and each of its lanes, has room for before it
/// first grows.
const FIRST_SLOTS: usize = 64;

/// Index work, counted in tests (`tests::index_ops`); nothing otherwise.
#[inline]
fn tally(op: usize) {
    #[cfg(test)]
    tests::OPS.with(|ops| ops[op].set(ops[op].get() + 1));
    let _ = op;
}

const PROBE: usize = 0;
const INSERT: usize = 1;
const RELEASE: usize = 2;

impl SlotTable {
    /// An empty table for `spec`.
    pub fn new(spec: KeySpecId) -> Self {
        let fixed = spec == KeySpecId::EMPTY;
        Self {
            index: (!fixed).then(TagTable::default),
            keys: if fixed {
                vec![Some(Key::EMPTY)]
            } else {
                Vec::with_capacity(FIRST_SLOTS)
            },
            at: Vec::new(),
            columns: 0,
            free: Vec::new(),
            spec,
        }
    }

    /// Gives every slot `columns` lane cells, keeping the first ones.
    fn set_columns(&mut self, columns: usize) {
        if columns == self.columns {
            return;
        }
        let mut at = Vec::with_capacity(self.keys.capacity() * columns);
        at.resize(self.keys.len() * columns, NOT_HELD);
        let keep = columns.min(self.columns);
        for (new, old) in at
            .chunks_mut(columns.max(1))
            .zip(self.at.chunks(self.columns.max(1)))
        {
            new[..keep].copy_from_slice(&old[..keep]);
        }
        (self.at, self.columns) = (at, columns);
    }

    /// Where `lane`'s part of `slot` is in its values, if it holds the slot.
    fn at<T>(&self, lane: &Lane<T>, slot: Option<u32>) -> Option<usize> {
        let at = self.at[slot? as usize * self.columns + lane.column as usize];
        (at != NOT_HELD).then_some(at as usize)
    }

    /// What `lane` holds in `slot`, if it holds it.
    fn get_mut<'l, T>(&self, lane: &'l mut Lane<T>, slot: Option<u32>) -> Option<&'l mut T> {
        let at = self.at(lane, slot)?;
        Some(&mut lane.values[at])
    }

    /// The slot of `key`, filed under `hash`, if it is live: one probe.
    #[inline]
    pub fn find(&self, hash: u64, key: &Key) -> Option<u32> {
        let Some(index) = &self.index else {
            return Some(0);
        };
        tally(PROBE);
        let keys = &self.keys;
        index
            .find(hash as u32, |v| keys[v as usize - 1].as_ref() == Some(key))
            .map(|(_, v)| v - 1)
    }

    /// The slot of `key`, probed only if `found` has not been yet.
    #[inline]
    pub fn lookup(&self, hash: u64, key: &Key, found: &mut Found) -> Option<u32> {
        let slot = match *found {
            Found::Unprobed => self.find(hash, key),
            Found::Absent => None,
            Found::At(slot) => Some(slot).filter(|&s| self.keys[s as usize].is_some()),
        };
        *found = slot.map_or(Found::Absent, Found::At);
        slot
    }

    /// The slot of `key`, taking a free one (or growing the arena) on first
    /// sight — the one place a probe's borrowed key is cloned, into the slot.
    pub fn slot_of(&mut self, hash: u64, key: &Key, found: &mut Found) -> u32 {
        if let Some(slot) = self.lookup(hash, key, found) {
            return slot;
        }
        tally(INSERT);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.keys.push(None);
            self.at.resize(self.at.len() + self.columns, NOT_HELD);
            self.slot_id(self.keys.len() - 1)
        });
        self.keys[slot as usize] = Some(key.clone());
        let index = self.index.as_mut().expect("the empty key is never absent");
        index.insert(hash as u32, slot + 1);
        *found = Found::At(slot);
        slot
    }

    /// `slot` as an id, checked: the index files it as `slot + 1`.
    fn slot_id(&self, slot: usize) -> u32 {
        let spec = self.spec.0;
        assert!(
            u32::try_from(slot + 1).is_ok(),
            "key spec {spec}'s slot table ran out of u32 slot ids"
        );
        slot as u32
    }

    /// Unlinks the key of `slot`, filed under `hash`, and puts the slot on
    /// the free list; a no-op on a free slot and on the empty spec.
    pub fn release(&mut self, hash: u64, slot: u32) {
        let Some(index) = &mut self.index else {
            return;
        };
        if self.keys[slot as usize].take().is_some() {
            tally(RELEASE);
            let (at, _) = index
                .find(hash as u32, |v| v == slot + 1)
                .expect("a live slot is indexed under its hash");
            index.remove(at);
            self.free.push(slot);
        }
    }

    /// `lane` takes hold of `slot`, if it does not hold it yet, logs an
    /// entry at `t` there (unless the lane never expires) and returns what
    /// it holds there.
    fn hold<'l, T: Default>(
        &mut self,
        lane: &'l mut Lane<T>,
        slot: u32,
        t: Timestamp,
    ) -> &'l mut T {
        let at = &mut self.at[slot as usize * self.columns + lane.column as usize];
        if *at == NOT_HELD {
            *at = lane.spare.pop().unwrap_or_else(|| {
                lane.values.push(T::default());
                (lane.values.len() - 1) as u32
            });
            lane.keys += 1;
        }
        if lane.retain != Span::MAX {
            lane.log.push_back((t, slot));
        }
        lane.len += 1;
        &mut lane.values[*at as usize]
    }

    /// `lane` lets go of `slot`, which is released once no lane holds it.
    fn let_go<T>(&mut self, lane: &mut Lane<T>, slot: u32) {
        let cell = slot as usize * self.columns + lane.column as usize;
        lane.spare
            .push(std::mem::replace(&mut self.at[cell], NOT_HELD));
        lane.keys -= 1;
        let row = slot as usize * self.columns..(slot as usize + 1) * self.columns;
        if self.index.is_some() && self.at[row].iter().all(|&at| at == NOT_HELD) {
            let hash = self.keys[slot as usize]
                .as_ref()
                .map_or(0, Key::precomputed_hash);
            self.release(hash, slot);
        }
    }

    /// Pops every record at the head of `lane`'s log with a time before
    /// `dead_before` and hands what the lane holds in the slot it names,
    /// if it holds the slot, to `drain`, which drops what has died and
    /// says whether the lane lets go. Out-of-order records behind a live
    /// head wait for a later call — expiry is garbage collection, laziness
    /// is harmless.
    fn expire<T>(
        &mut self,
        lane: &mut Lane<T>,
        dead_before: Timestamp,
        mut drain: impl FnMut(&mut T) -> bool,
    ) {
        while let Some(&(t, slot)) = lane.log.front() {
            if t >= dead_before {
                break;
            }
            lane.log.pop_front();
            let at = self.at[slot as usize * self.columns + lane.column as usize];
            if at != NOT_HELD && drain(&mut lane.values[at as usize]) {
                self.let_go(lane, slot);
            }
        }
    }
}

/// One store's part of a [`KeyTable`]: what it holds under each key it
/// holds, its solved retention and cap, and its own expiry log of
/// `(time, slot)` records in the order logged. Each admission first drops
/// what ended more than the retention before the clock, walking only the
/// log's expired prefix, O(records that died). A store that never expires
/// ([`Span::MAX`]) logs nothing: its entries leave only by use, or by the
/// cap.
///
/// A lane is exact without telling its records apart. A record may outlive
/// what it was logged for — the entry was consumed, or the lane let go of
/// the slot and holds it again, perhaps for another key. It then only
/// prompts a look at what the lane holds there now, and the drain drops
/// only what is dead by time, which nothing can match. What the lane holds
/// is never empty (a join queue is let go once a take empties it, a
/// history once it drains), so where the log is in time order — every
/// store fed in stream order, as a leaf's are — each entry such a record
/// drops has its own record in the same expiry, and drop counts are the
/// ones a record per hold would give. A composite delivered with lag may
/// have its dead entry dropped one expiry early.
#[derive(Debug, Clone)]
pub struct Lane<T> {
    /// The node whose store this is.
    owner: NodeId,
    /// The lane's cell in each slot ([`SlotTable::at`]).
    column: u32,
    /// The store's solved retention ([`crate::Program::retention`]).
    retain: Span,
    /// Entries a join key holds at most: finite only where the side never
    /// expires by time.
    cap: usize,
    /// What the lane holds, one value per key it holds: as long as the
    /// lane's own peak live keys, not the table's.
    values: Vec<T>,
    /// Values no key holds, each as a fresh key should find it, last freed
    /// first.
    spare: Vec<u32>,
    /// Slots held: the store's live keys (reported in stats).
    pub keys: usize,
    /// Entries retained across keys: queued instances, recorded times.
    pub len: usize,
    /// Instances the cap evicted (a join side), or records expired (a
    /// history).
    pub dropped: u64,
    log: VecDeque<(Timestamp, u32)>,
}

impl<T> Lane<T> {
    fn new(
        owner: NodeId,
        column: usize,
        retain: Span,
        unbounded_cap: usize,
        capacity: usize,
    ) -> Self {
        Self {
            owner,
            column: column as u32,
            retain,
            cap: if retain == Span::MAX {
                unbounded_cap
            } else {
                usize::MAX
            },
            values: Vec::with_capacity(capacity),
            spare: Vec::new(),
            keys: 0,
            len: 0,
            dropped: 0,
            log: VecDeque::new(),
        }
    }
}

/// One side of a two-sided join: FIFO queues per correlation key.
///
/// The paper's chronicle context pairs "the oldest initiator with the oldest
/// terminator"; partitioning by key keeps that property *per correlated
/// group* while making lookup O(1) in the number of keys. One log record
/// per admitted entry, at its `t_end`; entries a chronicle take consumes
/// leave their record stale, and a take that empties a key's queue lets
/// go of the key.
pub type KeyedBuffer = Lane<MicroDeque<Arc<Instance>>>;

/// The cell of a slot its lane does not hold.
const NOT_HELD: u32 = u32::MAX;

/// One `NOT` history registration's keyed occurrence histories, each the
/// ascending end-times of its key: one log record per recorded occurrence,
/// so pruning visits only keys that hold expired records.
pub type HistTable = Lane<Times>;

/// The keyed state of one interned key spec: a [`SlotTable`] and one lane
/// per store that reads the spec — a join side that admits, or a history
/// registration on a `NOT` ([`crate::Program::stores`]). An arrival finds
/// its key's slot once, whichever lanes read it; a slot is released only
/// when its last lane lets go. Every admission expires its lane first, so
/// an expiry never releases the slot that admission then takes hold of.
#[derive(Debug, Clone)]
pub struct KeyTable {
    slots: SlotTable,
    /// The join-side lanes.
    pub joins: Vec<KeyedBuffer>,
    /// The history lanes.
    pub hists: Vec<HistTable>,
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

impl KeyTable {
    /// An empty table for `spec`.
    pub fn new(spec: KeySpecId) -> Self {
        Self {
            slots: SlotTable::new(spec),
            joins: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Adds an empty join-side lane for `owner`, or a history lane with
    /// `hist`, whose store is retained for `retain` and, if that is
    /// [`Span::MAX`], holds at most `unbounded_cap` entries per key; returns
    /// its id. Every slot gains an empty cell for it.
    pub fn add_lane(
        &mut self,
        owner: NodeId,
        hist: bool,
        retain: Span,
        unbounded_cap: usize,
    ) -> u32 {
        let column = self.slots.columns;
        self.slots.set_columns(column + 1);
        let room = self.slots.keys.capacity();
        let n = if hist {
            (self.hists).push(Lane::new(owner, column, retain, unbounded_cap, room));
            self.hists.len()
        } else {
            (self.joins).push(Lane::new(owner, column, retain, unbounded_cap, room));
            self.joins.len()
        };
        (n - 1) as u32
    }

    /// Drops the lanes of nodes from `first` on. None has seen the stream,
    /// so none holds a slot, and lanes are added in node order, so they are
    /// the last cells of every slot and the rest keep their ids.
    pub fn truncate(&mut self, first: NodeId) {
        self.joins.retain(|l| l.owner < first);
        self.hists.retain(|l| l.owner < first);
        self.slots.set_columns(self.joins.len() + self.hists.len());
    }

    /// Drops what join lane `lane` no longer needs at `clock`, then appends
    /// `entry` under `key`, evicting the key's oldest entry past the lane's
    /// cap. Returns how many entries the expiry dropped, `None` in a lane
    /// that never expires.
    pub fn push(
        &mut self,
        lane: u32,
        (key, found): (&Key, &mut Found),
        entry: Arc<Instance>,
        clock: Timestamp,
    ) -> Option<usize> {
        let dropped = self.prune(lane, clock);
        let slot = self.slots.slot_of(key.precomputed_hash(), key, found);
        self.admit(lane, slot, entry);
        dropped
    }

    /// Chronicle take-or-admit in one slot access: expires the lane at
    /// `clock` across keys, removes and returns the oldest entry of `key`'s
    /// queue satisfying `pred`, then appends `entry` to the same queue —
    /// the self-join arrival, whose instance always becomes an initiator.
    /// Also returns what the expiry dropped, as [`KeyTable::push`] does.
    pub fn take_match_and_push(
        &mut self,
        lane: u32,
        (key, found): (&Key, &mut Found),
        clock: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
        entry: Arc<Instance>,
    ) -> (Option<Arc<Instance>>, Option<usize>) {
        let dropped = self.prune(lane, clock);
        let slot = self.slots.slot_of(key.precomputed_hash(), key, found);
        // The admit refills the queue, so the take keeps the key.
        let taken = self.take_from(lane, slot, clock, pred, true);
        self.admit(lane, slot, entry);
        (taken, dropped)
    }

    /// Logs `entry` and appends it to the queue of `slot`, evicting that
    /// key's oldest entry past the lane's cap.
    fn admit(&mut self, lane: u32, slot: u32, entry: Arc<Instance>) {
        let (buf, t) = (&mut self.joins[lane as usize], entry.t_end());
        let cap = buf.cap;
        let q = self.slots.hold(buf, slot, t);
        q.push_back(entry);
        let evicted = q.len() > cap;
        if evicted {
            q.pop_front();
        }
        let emptied = q.is_empty(); // a zero cap keeps nothing
        buf.len -= usize::from(evicted);
        buf.dropped += u64::from(evicted);
        if emptied {
            self.slots.let_go(buf, slot);
        }
    }

    /// Removes and returns the oldest entry under `key` satisfying `pred`,
    /// first discarding the leading entries that are dead at `clock` (they
    /// can never match again); lets go of the key if that empties its queue.
    pub fn take_oldest_match(
        &mut self,
        lane: u32,
        (key, found): (&Key, &mut Found),
        clock: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
    ) -> Option<Arc<Instance>> {
        let slot = self.slots.lookup(key.precomputed_hash(), key, found)?;
        self.take_from(lane, slot, clock, pred, false)
    }

    /// The take of both: lets go of `slot` if its queue empties, unless
    /// `refill`. A held queue is never empty.
    fn take_from(
        &mut self,
        lane: u32,
        slot: u32,
        clock: Timestamp,
        pred: impl FnMut(&Arc<Instance>) -> bool,
        refill: bool,
    ) -> Option<Arc<Instance>> {
        let buf = &mut self.joins[lane as usize];
        let dead_before = dead_before(clock, buf.retain).unwrap_or(Timestamp::ZERO);
        let q = self.slots.get_mut(buf, Some(slot))?;
        let dead = drop_dead_prefix(q, dead_before);
        let taken = q.iter().position(pred).and_then(|pos| q.remove(pos));
        let emptied = q.is_empty() && !refill;
        buf.len -= dead + usize::from(taken.is_some());
        if emptied {
            self.slots.let_go(buf, slot);
        }
        taken
    }

    /// Removes every entry under `key` holding exactly this instance
    /// (pointer identity), and lets go of the key if that empties its
    /// queue. Used when a pair is consumed: under overlapping sibling
    /// patterns (`any` beside `group(shelves)`, ROADMAP "The oracle's one
    /// open disagreement") one physical instance may sit in both side
    /// buffers, and chronicle consumption must retire every copy.
    pub fn remove_ptr_eq(
        &mut self,
        lane: u32,
        (key, found): (&Key, &mut Found),
        inst: &Arc<Instance>,
    ) {
        let Some(slot) = self.slots.lookup(key.precomputed_hash(), key, found) else {
            return;
        };
        let buf = &mut self.joins[lane as usize];
        if let Some(q) = self.slots.get_mut(buf, Some(slot)) {
            let before = q.len();
            q.retain(|e| !Arc::ptr_eq(e, inst));
            let (removed, emptied) = (before - q.len(), q.is_empty());
            buf.len -= removed;
            if emptied {
                self.slots.let_go(buf, slot);
            }
        }
    }

    /// Drops the entries of join lane `lane` that are dead at `clock`,
    /// visiting only the keys their log records name, and lets go of the
    /// keys whose queues drained; returns how many entries it dropped,
    /// `None` in a lane that never expires. Per-key matching discards dead
    /// heads itself, so what the lazy log leaves behind is never matched.
    fn prune(&mut self, lane: u32, clock: Timestamp) -> Option<usize> {
        let buf = &mut self.joins[lane as usize];
        let dead = dead_before(clock, buf.retain)?;
        let mut dropped = 0;
        self.slots.expire(buf, dead, |q| {
            dropped += drop_dead_prefix(q, dead);
            q.is_empty()
        });
        buf.len -= dropped;
        Some(dropped)
    }

    /// Expires history lane `lane` at `clock`, then records an occurrence
    /// ending at `t` under `key`. Returns what the expiry dropped, as
    /// [`KeyTable::push`] does.
    pub fn record(
        &mut self,
        lane: u32,
        (key, found): (&Key, &mut Found),
        t: Timestamp,
        clock: Timestamp,
    ) -> Option<usize> {
        let dropped = self.prune_hist(lane, clock);
        let slot = self.slots.slot_of(key.precomputed_hash(), key, found);
        let hist = &mut self.hists[lane as usize];
        self.slots.hold(hist, slot, t).insert(t);
        dropped
    }

    /// The latest retained occurrence under `key` at or before `to`
    /// (strictly before when `exclusive_end`). One answer serves every
    /// window that ends at `to`: a window reaching back to `from` holds an
    /// occurrence exactly when this is `Some(t)` with `t >= from`. A key
    /// the expiry dropped held nothing within the node's retention, which
    /// covers every attached window, so `None` is exact for it too.
    pub fn last_occurrence(
        &self,
        lane: u32,
        key: (&Key, &mut Found),
        to: Timestamp,
        exclusive_end: bool,
    ) -> Option<Timestamp> {
        self.hist(lane, key)?.last_before(to, exclusive_end)
    }

    /// Whether any occurrence under `key` falls in `[from, to]` (or
    /// `[from, to)` when `exclusive_end`).
    pub fn occurred(
        &self,
        lane: u32,
        key: (&Key, &mut Found),
        (from, to): (Timestamp, Timestamp),
        exclusive_end: bool,
    ) -> bool {
        // A window that reaches back to the epoch asks of a history that
        // has expired nothing, so what it holds is all that occurred: the
        // look-back is unbounded, which retains the history for
        // `Span::MAX`, or the clock — monotone — has not yet passed the
        // retention horizon.
        debug_assert!(
            from > Timestamp::ZERO || self.hists[lane as usize].dropped == 0,
            "an epoch-anchored negation query after its history expired records"
        );
        match self.hist(lane, key).and_then(|h| h.first_at_or_after(from)) {
            Some(t) if exclusive_end => t < to,
            Some(t) => t <= to,
            None => false,
        }
    }

    fn hist(&self, lane: u32, (key, found): (&Key, &mut Found)) -> Option<&Times> {
        let slot = self.slots.lookup(key.precomputed_hash(), key, found);
        let hist = &self.hists[lane as usize];
        Some(&hist.values[self.slots.at(hist, slot)?])
    }

    /// Drops history lane `lane`'s occurrences that are dead at `clock`,
    /// and lets go of a key once its times empty: no window a query can
    /// still ask reaches back past the horizon ([`KeyTable::occurred`]).
    /// Without that a stream over millions of distinct EPCs grows the table
    /// forever. Returns the number of records removed, `None` in a lane
    /// that never expires.
    fn prune_hist(&mut self, lane: u32, clock: Timestamp) -> Option<usize> {
        let hist = &mut self.hists[lane as usize];
        let dead = dead_before(clock, hist.retain)?;
        let mut removed = 0;
        // The log names exactly the keys holding records that just died. A
        // lagged record behind a live head is collected later, which is
        // sound: queries range-check their answers, so a stale record is
        // never *wrongly counted*, only kept a little longer.
        self.slots.expire(hist, dead, |times| {
            while times.front().is_some_and(|t| t < dead) {
                times.pop_front();
                removed += 1;
            }
            times.is_empty()
        });
        hist.len -= removed;
        hist.dropped += removed as u64;
        Some(removed)
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
pub enum MicroDeque<T> {
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

/// End-times a key history can hold without touching the heap. Shelf-style
/// in-field rules keep one or two live records per `(reader, object)` key,
/// so the whole history sits beside its key in the slot.
const INLINE_TIMES: usize = 5;

/// Ascending end-time store with an inline fast path: histories up to
/// [`INLINE_TIMES`] records live directly in the slot; only wider
/// histories are promoted to a heap deque (and stay there — demotion would
/// churn on the boundary).
#[derive(Debug, Clone)]
pub enum Times {
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

    /// The first stored end-time `>= from`.
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

/// State of a `SEQ+` node: the element history parents query.
#[derive(Debug, Clone)]
pub struct AperiodicState {
    /// The node's solved retention.
    retain: Span,
    /// (end-time, instance), ascending by end-time.
    hist: VecDeque<(Timestamp, Arc<Instance>)>,
}

impl AperiodicState {
    /// An empty history retained for `retain`.
    pub fn new(retain: Span) -> Self {
        Self {
            retain,
            hist: VecDeque::new(),
        }
    }

    /// Drops the occurrences dead at `clock`, then records an inner
    /// occurrence. Returns how many occurrences it dropped, `None` when the
    /// history never expires.
    pub fn record(&mut self, inst: Arc<Instance>, clock: Timestamp) -> Option<usize> {
        let dropped = dead_before(clock, self.retain).map(|dead| self.prune(dead));
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
    /// Start of the yet-unchecked part of the negation window, which ends
    /// when the wait's pseudo event is due.
    pub from: Timestamp,
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
    /// The node's lanes in its stores' key tables, in
    /// [`crate::Program::stores`] order: a join's sides, a `NOT`'s
    /// history registrations.
    Keyed(Box<[u32]>),
    /// `SEQ+` element history.
    Aperiodic(AperiodicState),
    /// `TSEQ+` open run.
    TimedRun(TimedRunState),
    /// Negation-wait anchors (`AND` with `NOT`, `SEQ(A; ¬B)`).
    Wait(WaitState),
}

impl NodeState {
    /// The node's lanes; panics on a node without keyed stores (engine bug).
    pub fn lanes(&self) -> &[u32] {
        match self {
            NodeState::Keyed(lanes) => lanes,
            other => panic!("expected keyed state, found {other:?}"),
        }
    }
}

/// What ended before this at `clock` can never match again in a store
/// retained for `retain`; `None` when the store never expires.
fn dead_before(clock: Timestamp, retain: Span) -> Option<Timestamp> {
    (retain != Span::MAX).then(|| clock.saturating_sub(retain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Gid96, ReaderId};
    use rfid_events::{Catalog, EventExpr, Observation};
    use std::cell::Cell;

    thread_local! {
        /// Index probes, inserts and releases on this thread.
        pub(super) static OPS: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
    }

    /// Index probes, inserts and releases on this thread so far.
    pub(crate) fn index_ops() -> [u64; 3] {
        OPS.with(|ops| ops.each_ref().map(Cell::get))
    }

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

    /// A keyed table with one join lane, retained for a second unless
    /// built `with` another retention, driven like the per-node buffer it
    /// replaced: every call probes afresh.
    struct Buf(KeyTable);

    impl Buf {
        fn new() -> Self {
            Self::with(Span::from_secs(1), usize::MAX)
        }
        fn with(retain: Span, unbounded_cap: usize) -> Self {
            let mut table = KeyTable::new(KeySpecId(1));
            table.add_lane(NodeId(0), false, retain, unbounded_cap);
            Buf(table)
        }
        fn push(&mut self, key: &Key, e: Arc<Instance>, clock: Timestamp) -> Option<usize> {
            self.0.push(0, (key, &mut Found::Unprobed), e, clock)
        }
        fn take_oldest_match(
            &mut self,
            key: &Key,
            clock: Timestamp,
            pred: impl FnMut(&Arc<Instance>) -> bool,
        ) -> Option<Arc<Instance>> {
            self.0
                .take_oldest_match(0, (key, &mut Found::Unprobed), clock, pred)
        }
        fn prune(&mut self, clock: Timestamp) -> Option<usize> {
            self.0.prune(0, clock)
        }
        fn len(&self) -> usize {
            self.0.joins[0].len
        }
        fn key_count(&self) -> usize {
            self.0.joins[0].keys
        }
    }

    /// A keyed table with `n` history lanes retained for a second, driven
    /// like the per-node negation state it replaced.
    struct Neg(KeyTable);

    impl Neg {
        fn new(n: usize) -> Self {
            let mut table = KeyTable::new(KeySpecId(1));
            for _ in 0..n {
                table.add_lane(NodeId(0), true, Span::from_secs(1), 0);
            }
            Neg(table)
        }
        fn record(&mut self, lane: usize, key: &Key, t: Timestamp, clock: Timestamp) -> usize {
            self.0
                .record(lane as u32, (key, &mut Found::Unprobed), t, clock)
                .expect("the lane expires")
        }
        fn occurred(
            &self,
            lane: usize,
            key: &Key,
            from: Timestamp,
            to: Timestamp,
            excl: bool,
        ) -> bool {
            self.0
                .occurred(lane as u32, (key, &mut Found::Unprobed), (from, to), excl)
        }
        fn prune(&mut self, lane: usize, clock: Timestamp) -> usize {
            let removed = self.0.prune_hist(lane as u32, clock);
            removed.expect("the lane expires")
        }
        fn recorded(&self) -> usize {
            self.0.hists.iter().map(|l| l.len).sum()
        }
        fn key_count(&self) -> usize {
            self.0.hists.iter().map(|l| l.keys).sum()
        }
    }

    #[test]
    fn keyed_buffer_fifo_and_match() {
        let mut buf = Buf::new();
        let key = Key::EMPTY;
        buf.push(&key, inst(100), ms(100));
        buf.push(&key, inst(200), ms(200));
        buf.push(&key, inst(300), ms(300));
        assert_eq!(buf.len(), 3);

        // Oldest matching wins (chronicle).
        let got = buf
            .take_oldest_match(&key, ms(300), |e| e.t_end() >= ms(200))
            .unwrap();
        assert_eq!(got.t_end(), ms(200));
        assert_eq!(buf.len(), 2);

        // What died a second before the clock goes before matching.
        let got = buf.take_oldest_match(&key, ms(1250), |_| true).unwrap();
        assert_eq!(got.t_end(), ms(300));
        assert_eq!(buf.len(), 0, "stale head was discarded");
    }

    #[test]
    fn keyed_buffer_cap_evicts_oldest() {
        let mut buf = Buf::with(Span::MAX, 3);
        let key = Key::EMPTY;
        for i in 0..5 {
            assert_eq!(buf.push(&key, inst(i * 100), ms(i * 100)), None);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.0.joins[0].dropped, 2);
        let got = buf.take_oldest_match(&key, ms(400), |_| true).unwrap();
        assert_eq!(got.t_end(), ms(200), "entries 0 and 1 were evicted");
    }

    /// An admission expires what died under any key, not just its own.
    #[test]
    fn keyed_buffer_prune_across_keys() {
        let mut buf = Buf::new();
        assert_eq!(buf.push(&Key::EMPTY, inst(100), ms(100)), Some(0));
        let other_key = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(7))]);
        let dropped = buf.push(&other_key, inst(900), ms(1500));
        assert_eq!((dropped, buf.len(), buf.key_count()), (Some(1), 1, 1));
    }

    /// A store that never expires ([`Span::MAX`]) logs nothing and says
    /// so (`None`) where an admission reports its expiry: a join lane lets
    /// go of a key once a take empties its queue, and a history lane keeps
    /// its records without a log beside them.
    #[test]
    fn a_store_that_never_expires_keeps_no_log() {
        let mut table = KeyTable::new(KeySpecId(1));
        let join = table.add_lane(NodeId(0), false, Span::MAX, 3);
        let hist = table.add_lane(NodeId(1), true, Span::MAX, 3);
        let zero = table.add_lane(NodeId(2), false, Span::MAX, 0);
        for i in 0..33u32 {
            let (key, t) = (reader_key(i), ms(100 + u64::from(i)));
            let e = inst(100 + u64::from(i));
            let dropped = table.push(join, (&key, &mut Found::Unprobed), e, t);
            assert_eq!(dropped, None);
            let taken = table.take_oldest_match(join, (&key, &mut Found::Unprobed), t, |_| true);
            assert!(taken.is_some());
        }
        // A zero cap evicts what it admits, and the key with it.
        let e = inst(200);
        table.push(zero, (&reader_key(0), &mut Found::Unprobed), e, ms(200));
        for lane in [join, zero] {
            let buf = &table.joins[lane as usize];
            assert_eq!((buf.len, buf.keys, buf.log.len()), (0, 0, 0));
        }
        for i in 0..100u64 {
            let key = reader_key((i % 10) as u32);
            let dropped = table.record(hist, (&key, &mut Found::Unprobed), ms(i), ms(i));
            assert_eq!(dropped, None);
        }
        let hist = &table.hists[hist as usize];
        assert_eq!((hist.len, hist.keys, hist.log.len()), (100, 10, 0));
    }

    /// Slot recycling: a key whose queue drains by time is unlinked and its
    /// slot reused by the next new key, with stale log records harmless.
    #[test]
    fn keyed_buffer_recycles_slots_after_prune() {
        let mut buf = Buf::new();
        let k1 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(1))]);
        let k2 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(2))]);
        buf.push(&k1, inst(100), ms(100));
        buf.prune(ms(1500));
        assert_eq!((buf.len(), buf.key_count()), (0, 0));
        // k2 reuses k1's slot; matching under k1 must not see k2's entry.
        buf.push(&k2, inst(900), ms(1500));
        assert_eq!(buf.key_count(), 1);
        assert!(buf.take_oldest_match(&k1, ms(1500), |_| true).is_none());
        assert!(buf.take_oldest_match(&k2, ms(1500), |_| true).is_some());
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
        let mut table = SlotTable::new(KeySpecId(1));
        // What the caller keeps per slot, beside the table.
        let mut values = vec![0u64; 400];
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
                    let slot = table.slot_of(hash_of(k), &keys[k], &mut Found::Unprobed);
                    // A fresh key finds the value its slot was freed with.
                    let value = &mut values[slot as usize];
                    assert_eq!(*value, model.get(&k).copied().unwrap_or(0));
                    *value = step;
                    model.insert(k, step);
                }
                2 => {
                    let found = table.find(hash_of(k), &keys[k]);
                    assert_eq!(found.map(|s| values[s as usize]), model.get(&k).copied());
                }
                _ => {
                    if let Some(slot) = table.find(hash_of(k), &keys[k]) {
                        values[slot as usize] = 0;
                        table.release(hash_of(k), slot);
                        table.release(hash_of(k), slot); // a no-op on a free slot
                    }
                    assert!(table.find(hash_of(k), &keys[k]).is_none());
                    model.remove(&k);
                }
            }
            peak = peak.max(model.len());
            let index = table.index.as_ref().unwrap();
            assert_eq!(index.len(), model.len(), "step {step}");
        }
        assert!(peak > 200, "the table grew through several doublings");
        assert!(table.keys.len() <= peak);
        assert!(table.index.as_ref().unwrap().cells() <= 4 * peak);
        for (k, key) in keys.iter().enumerate() {
            let found = table.find(hash_of(k), key);
            assert_eq!(found.map(|s| values[s as usize]), model.get(&k).copied());
            if let Some(slot) = found {
                table.release(hash_of(k), slot);
            }
        }
        assert!(table.index.as_ref().unwrap().is_empty());
        assert!(keys
            .iter()
            .enumerate()
            .all(|(k, key)| table.find(hash_of(k), key).is_none()));
    }

    /// A million distinct keys, a few thousand live at once, each admitted
    /// by a join lane and recorded by a history lane of one table: the slot
    /// arena and the index stay the size of the peak live population —
    /// released keys leave no tombstones behind and nothing grows with the
    /// number of keys seen — and the arrival that brings a key probes and
    /// inserts it once for both lanes.
    #[test]
    fn key_churn_grows_neither_the_arena_nor_the_index() {
        let mut table = KeyTable::new(KeySpecId(1));
        let (buf, hist) = (
            table.add_lane(NodeId(0), false, Span::from_secs(4), 0),
            table.add_lane(NodeId(1), true, Span::from_secs(4), 0),
        );
        let mut peak = 0;
        for i in 0..1_000_000u64 {
            let key = Key::from_parts(&[crate::key::KeyPart::Object(
                Gid96::new(1, 1, i).unwrap().into(),
            )]);
            // Each admission expires what its key's predecessors left
            // 4 s behind.
            let (clock, mut found) = (ms(i), Found::Unprobed);
            table.push(buf, (&key, &mut found), inst(i), clock);
            table.record(hist, (&key, &mut found), clock, clock);
            if i % 1000 == 999 {
                assert_eq!(table.joins[0].keys, table.hists[0].keys);
                peak = peak.max(table.joins[0].keys);
            }
        }
        assert!((4000..=8000).contains(&peak), "peak live keys: {peak}");
        let cells = table.slots.index.as_ref().unwrap().cells();
        assert!(cells <= 4 * peak, "{cells} cells");
        // Plus one: an arrival's key is inserted before the history lane,
        // expiring as it records, lets go of the key that died.
        let slots = table.slots.keys.len();
        assert!(slots <= peak + 1, "{slots} slots for {peak} live keys");
        let [probes, inserts, releases] = index_ops();
        assert_eq!((probes, inserts), (1_000_000, 1_000_000));
        assert_eq!(releases, 1_000_000 - table.joins[0].keys as u64);
        let neg = Neg(table);
        assert_eq!(neg.recorded(), recorded_by_walk(&neg));
    }

    /// What the lanes' running record counts count, by walking what each
    /// lane holds.
    fn recorded_by_walk(neg: &Neg) -> usize {
        let held = |l: &HistTable| -> usize {
            let slots = 0..neg.0.slots.keys.len() as u32;
            let held = slots.filter_map(|s| neg.0.slots.at(l, Some(s)));
            held.map(|at| l.values[at].len()).sum()
        };
        neg.0.hists.iter().map(held).sum()
    }

    #[test]
    fn negation_record_count_equals_the_walk() {
        let mut neg = Neg::new(3);
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut shed = 0;
        for step in 0..6_000u64 {
            let spec = (next() % 3) as usize;
            let key = reader_key((next() % 40) as u32);
            // Mostly advancing, every few records lagged behind the clock:
            // the out-of-order insert path, inline and promoted histories.
            let t = Timestamp::from_millis((step * 10).saturating_sub(next() % 4 * 250));
            neg.record(spec, &key, t, Timestamp::ZERO);
            if step % 97 == 0 {
                // Removes records and, with them, whole keys: what ended
                // 900 ms before the step.
                let (clock, keys) = (Timestamp::from_millis(step * 10 + 100), neg.key_count());
                let removed: usize = (0..3).map(|spec| neg.prune(spec, clock)).sum();
                assert!(step == 0 || removed > 0);
                shed += keys - neg.key_count();
            }
            assert_eq!(neg.recorded(), recorded_by_walk(&neg), "step {step}");
        }
        assert!(shed > 0, "some keys were dropped whole");
        assert!(neg.recorded() > 0);
    }

    /// What one store's own table held in the per-node layout, as plain
    /// maps: the model [`KeyTable`]'s lanes are checked against. A log
    /// record names the key and the hold it was logged under, so a stale
    /// record never reaches what the model holds — a stricter rule than
    /// the lanes keep, which tell no holds apart.
    #[derive(Default)]
    struct ModelLane {
        /// Key → (hold, entry times): a join queue, or a history's times.
        held: std::collections::BTreeMap<usize, (u64, VecDeque<u64>)>,
        /// A history key's earliest time, which survives pruning.
        earliest: std::collections::BTreeMap<usize, u64>,
        holds: u64,
        log: VecDeque<(u64, usize, u64)>,
        len: usize,
        dropped: u64,
    }

    impl ModelLane {
        fn hold(&mut self, key: usize) -> &mut VecDeque<u64> {
            if !self.held.contains_key(&key) {
                self.holds += 1;
                self.held.insert(key, (self.holds, VecDeque::new()));
            }
            &mut self.held.get_mut(&key).unwrap().1
        }

        fn expire(&mut self, dead: u64, hist: bool) -> usize {
            let mut dropped = 0;
            while self.log.front().is_some_and(|&(t, ..)| t < dead) {
                let (_, key, hold) = self.log.pop_front().unwrap();
                let Some((h, times)) = self.held.get_mut(&key) else {
                    continue;
                };
                if *h != hold {
                    continue;
                }
                while times.front().is_some_and(|&t| t < dead) {
                    times.pop_front();
                    dropped += 1;
                }
                let gone = times.is_empty() && (!hist || self.earliest[&key] < dead);
                if gone {
                    self.held.remove(&key);
                    if hist {
                        self.earliest.remove(&key);
                        self.dropped += 1;
                    }
                }
            }
            self.len -= dropped;
            dropped
        }

        fn push(&mut self, key: usize, t: u64, cap: usize, dead: u64) -> usize {
            let dropped = self.expire(dead, false);
            let q = self.hold(key);
            q.push_back(t);
            let evicted = q.len() > cap;
            if evicted {
                q.pop_front();
            }
            self.len += usize::from(!evicted);
            self.dropped += u64::from(evicted);
            let hold = self.held[&key].0;
            self.log.push_back((t, key, hold));
            dropped
        }

        /// A take that empties the key's queue drops the key.
        fn take(&mut self, key: usize, dead: u64, from: u64) -> Option<u64> {
            let (_, q) = self.held.get_mut(&key)?;
            while q.front().is_some_and(|&t| t < dead) {
                q.pop_front();
                self.len -= 1;
            }
            let pos = q.iter().position(|&t| t >= from);
            let taken = pos.and_then(|pos| q.remove(pos));
            self.len -= usize::from(taken.is_some());
            if q.is_empty() {
                self.held.remove(&key);
            }
            taken
        }

        fn record(&mut self, key: usize, t: u64, dead: u64) -> usize {
            let dropped = if dead == 0 {
                0
            } else {
                self.expire(dead, true)
            };
            self.hold(key).push_back(t);
            let e = self.earliest.entry(key).or_insert(t);
            *e = (*e).min(t);
            self.len += 1;
            let hold = self.held[&key].0;
            self.log.push_back((t, key, hold));
            dropped
        }
    }

    /// One table with many lanes of one spec against one model table per
    /// lane: random arrivals, each sharing one probe across the lanes it
    /// reaches, admit, take and record under retentions 0, finite and
    /// [`Span::MAX`]; a lane is added while slots are live (a late load),
    /// and the table is reset. Every returned drop count, every lane's
    /// contents, entry and live-key counts agree at every step.
    mod one_table_is_many {
        use super::*;
        use proptest::prelude::*;

        /// Lanes: (history?, retention in ms, `u64::MAX` for unbounded).
        const LANES: [(bool, u64); 6] = [
            (false, 0),
            (false, 40),
            (false, u64::MAX),
            (true, 60),
            (true, u64::MAX),
            (false, 25),
        ];
        /// The last lane is loaded late.
        const SEALED: usize = LANES.len() - 1;

        fn key(k: usize) -> Key {
            Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(k as u32))])
        }

        fn lane(table: &mut KeyTable, i: usize) -> u32 {
            let (hist, retain) = LANES[i];
            let span = if retain == u64::MAX {
                Span::MAX
            } else {
                Span::from_millis(retain)
            };
            table.add_lane(NodeId(i as u32), hist, span, 3)
        }

        fn fresh(lanes: usize) -> (KeyTable, Vec<u32>, Vec<ModelLane>) {
            let mut table = KeyTable::new(KeySpecId(1));
            let ids = (0..lanes).map(|i| lane(&mut table, i));
            let ids = ids.collect();
            (
                table,
                ids,
                (0..lanes).map(|_| ModelLane::default()).collect(),
            )
        }

        fn check(table: &KeyTable, ids: &[u32], model: &[ModelLane]) {
            for (i, m) in model.iter().enumerate() {
                let (hist, _) = LANES[i];
                let id = ids[i] as usize;
                let (len, keys) = if hist {
                    (table.hists[id].len, table.hists[id].keys)
                } else {
                    (table.joins[id].len, table.joins[id].keys)
                };
                assert_eq!((len, keys), (m.len, m.held.len()), "lane {i}");
                for k in 0..8 {
                    let key = key(k);
                    let slot = table.slots.find(key.precomputed_hash(), &key);
                    let got: Option<Vec<u64>> = if hist {
                        let lane = &table.hists[id];
                        let at = table.slots.at(lane, slot);
                        at.map(|at| match &lane.values[at] {
                            Times::Inline { len, buf } => buf[..usize::from(*len)].to_vec(),
                            Times::Heap(q) => q.iter().copied().collect(),
                        })
                        .map(|times| times.iter().map(|t| t.as_millis()).collect())
                    } else {
                        let lane = &table.joins[id];
                        let at = table.slots.at(lane, slot);
                        at.map(|at| {
                            lane.values[at]
                                .iter()
                                .map(|e| e.t_end().as_millis())
                                .collect()
                        })
                    };
                    let want = m.held.get(&k).map(|(_, q)| q.iter().copied().collect());
                    assert_eq!(got, want, "lane {i} key {k}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn one_table_behaves_as_a_table_per_lane(
                steps in prop::collection::vec((0..4usize, 0..15u64, any::<u8>(), any::<u8>(), 0..60u64), 1..250),
                late in 0..250usize,
                reset in 0..400usize,
            ) {
                let (mut table, mut ids, mut model) = fresh(SEALED);
                let mut clock = 0u64;
                for (step, (k, dt, reach, ops, back)) in steps.into_iter().enumerate() {
                    if step == late {
                        ids.push(lane(&mut table, SEALED));
                        model.push(ModelLane::default());
                    }
                    if step == reset {
                        (table, ids, model) = fresh(model.len());
                    }
                    clock += dt;
                    let (key, mut found) = (key(k), Found::Unprobed);
                    for i in (0..model.len()).filter(|i| reach >> i & 1 == 1) {
                        let (hist, retain) = LANES[i];
                        let dead = if retain == u64::MAX { 0 } else { clock.saturating_sub(retain) };
                        let (lane, m) = (ids[i], &mut model[i]);
                        let op = ops >> (i % 4) & 1;
                        if hist {
                            let dropped = table.record(lane, (&key, &mut found), ms(clock), ms(clock));
                            prop_assert_eq!(dropped.unwrap_or(0), m.record(k, clock, dead));
                            let to = ms(clock.saturating_sub(back));
                            let last = table.last_occurrence(lane, (&key, &mut found), to, op == 1);
                            let want = m.held.get(&k).and_then(|(_, q)| {
                                q.iter().rev().copied().find(|&t| if op == 1 { t < to.as_millis() } else { t <= to.as_millis() })
                            });
                            prop_assert_eq!(last.map(|t| t.as_millis()), want);
                        } else if op == 0 {
                            let cap = if retain == u64::MAX { 3 } else { usize::MAX };
                            let dropped = table.push(lane, (&key, &mut found), inst(clock), ms(clock));
                            prop_assert_eq!(dropped.unwrap_or(0), m.push(k, clock, cap, dead));
                        } else {
                            let from = clock.saturating_sub(back);
                            let taken = table.take_oldest_match(lane, (&key, &mut found), ms(clock), |e| e.t_end() >= ms(from));
                            prop_assert_eq!(taken.map(|e| e.t_end().as_millis()), m.take(k, dead, from));
                        }
                    }
                    check(&table, &ids, &model);
                }
            }
        }
    }

    /// Index work of a whole engine run, from a clean count.
    fn index_work(catalog: Catalog, rules: Vec<EventExpr>, stream: Vec<Observation>) -> [u64; 3] {
        let mut engine = crate::Engine::new(catalog, crate::EngineConfig::default());
        for (i, rule) in rules.into_iter().enumerate() {
            engine
                .add_rule(&format!("r{i}"), rule)
                .expect("a valid rule");
        }
        engine.compiled_plan();
        let before = index_ops();
        engine.process_all(stream, &mut |_, _| {});
        let after = index_ops();
        [0, 1, 2].map(|op| after[op] - before[op])
    }

    /// The four rules of the `freshkeys` ledger workload read one key spec,
    /// `(o)`, from five stores: both sides of `reverse` and of `open`, and
    /// `arrival`'s history. Over N fresh objects, each read in and then out,
    /// an object's key is inserted once and released at most once, and
    /// every read that reaches a store probes the index once.
    #[test]
    fn a_fresh_key_is_inserted_once_whichever_stores_read_it() {
        let mut catalog = Catalog::new();
        for (name, group) in [("in1", "in"), ("out1", "out"), ("probe1", "probe")] {
            catalog.readers.register(name, group, group);
        }
        let read = |reader: &str| EventExpr::observation_at(reader).bind_object("o");
        let rules = vec![
            read("out1").seq(read("in1")).within(Span::from_secs(30)),
            read("probe1").seq(read("out1")),
            (read("probe1").tseq_plus(Span::ZERO, Span::from_secs(86_400)))
                .within(Span::from_secs(172_800)),
            read("out1")
                .not()
                .seq(read("in1"))
                .within(Span::from_secs(60)),
        ];
        let (n, probed) = (20_000u64, 7u64);
        let mut stream = Vec::new();
        for i in 0..n {
            let epc = Gid96::new(1, 1, i).unwrap().into();
            let t = Timestamp::from_millis((i + 1) * 10);
            stream.push(Observation::new(ReaderId(0), epc, t));
            if i % 1000 == probed {
                stream.push(Observation::new(ReaderId(2), epc, t + Span::from_millis(2)));
            }
            stream.push(Observation::new(ReaderId(1), epc, t + Span::from_millis(5)));
        }
        let reads = stream.len() as u64;
        let [probes, inserts, releases] = index_work(catalog, rules, stream);
        assert_eq!((probes, inserts), (reads, n));
        assert!(releases <= n, "{releases} releases");
    }

    /// `dup` and `infield` of the canonical rule set read one key spec,
    /// `(r, o)`: a shelf read probes the index once for both.
    #[test]
    fn a_shelf_read_probes_once_for_dup_and_infield() {
        let mut catalog = Catalog::new();
        for shelf in ["s1", "s2"] {
            catalog.readers.register(shelf, "shelves", shelf);
        }
        let shelf = || {
            EventExpr::observation_in_group("shelves")
                .bind_reader("r")
                .bind_object("o")
        };
        let rules = vec![
            shelf().seq(shelf()).within(Span::from_secs(5)),
            shelf().not().seq(shelf()).within(Span::from_secs(3)),
        ];
        let mut stream = Vec::new();
        for second in 0..60u64 {
            for (i, object) in (0..40u64).enumerate() {
                let at = Timestamp::from_millis(second * 1000 + i as u64 * 7);
                let reader = ReaderId((object % 2) as u32);
                if (second + object) % 4 != 0 {
                    stream.push(Observation::new(
                        reader,
                        Gid96::new(1, 1, object).unwrap().into(),
                        at,
                    ));
                }
            }
        }
        let reads = stream.len() as u64;
        let [probes, inserts, _] = index_work(catalog, rules, stream);
        assert_eq!(probes, reads);
        assert!(inserts < reads / 4, "{inserts} inserts over {reads} reads");
    }

    /// Slot ids are checked: the index files a slot as `slot + 1`, and the
    /// panic names the table whose ids ran out.
    #[test]
    #[should_panic(expected = "key spec 7's slot table ran out of u32 slot ids")]
    fn slot_ids_are_checked() {
        SlotTable::new(KeySpecId(7)).slot_id(u32::MAX as usize);
    }

    #[test]
    fn negation_history_windows() {
        let mut neg = Neg::new(1);
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

    /// A history's times are all that occurred under its key while the
    /// lane has expired nothing, so a window from the epoch needs no
    /// earliest-occurrence marker beside them: a lane retained for
    /// [`Span::MAX`] never expires, and a finite one expires nothing before
    /// the clock passes its retention.
    #[test]
    fn an_epoch_query_reads_the_front_of_an_unexpired_history() {
        let mut table = KeyTable::new(KeySpecId(1));
        let lanes = [Span::MAX, Span::from_secs(100)].map(|retain| {
            let lane = table.add_lane(NodeId(0), true, retain, 0);
            for t in [1, 50, 100] {
                let at = Timestamp::from_secs(t);
                table.record(lane, (&Key::EMPTY, &mut Found::Unprobed), at, at);
            }
            lane
        });
        for lane in lanes {
            assert_eq!(table.hists[lane as usize].dropped, 0);
            let occ = |to: u64| {
                let window = (Timestamp::ZERO, Timestamp::from_secs(to));
                table.occurred(lane, (&Key::EMPTY, &mut Found::Unprobed), window, true)
            };
            assert!(occ(10), "the first record answers");
            assert!(!occ(1), "nothing before the first record");
        }
    }

    /// The engine never asks from the epoch of a history that has expired
    /// records; in a debug build, asking is a bug it reports.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an epoch-anchored negation query after its history expired")]
    fn an_epoch_query_after_expiry_is_refused() {
        let mut neg = Neg::new(1);
        neg.record(
            0,
            &Key::EMPTY,
            Timestamp::from_secs(1),
            Timestamp::from_secs(1),
        );
        neg.record(
            0,
            &Key::EMPTY,
            Timestamp::from_secs(100),
            Timestamp::from_secs(100),
        );
        assert_eq!(neg.recorded(), 1, "the record at 1 s expired");
        neg.occurred(
            0,
            &Key::EMPTY,
            Timestamp::ZERO,
            Timestamp::from_secs(10),
            true,
        );
    }

    #[test]
    fn negation_prune_drops_drained_keys() {
        let mut neg = Neg::new(1);
        // A million-distinct-EPC stream in miniature: each key occurs once.
        let keys: Vec<Key> = (0..4)
            .map(|i| Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(i))]))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            neg.record(0, k, Timestamp::from_secs(i as u64), Timestamp::ZERO);
        }
        assert_eq!(neg.key_count(), 4);

        // Keys 0 and 1 are fully behind the horizon: their times empty,
        // so the whole entry goes.
        assert_eq!(
            neg.prune(0, Timestamp::from_secs(3)),
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

        // A clock short of the retention is a no-op, not a mass drop.
        let before = neg.key_count();
        assert_eq!(neg.prune(0, Timestamp::from_secs(1)), 0);
        assert_eq!(neg.key_count(), before);
    }

    #[test]
    fn negation_keys_are_independent() {
        let mut neg = Neg::new(1);
        let k1 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(1))]);
        let k2 = Key::from_parts(&[crate::key::KeyPart::Reader(ReaderId(2))]);
        neg.record(0, &k1, Timestamp::from_secs(5), Timestamp::ZERO);
        assert!(neg.occurred(0, &k1, Timestamp::ZERO, Timestamp::from_secs(10), false));
        assert!(!neg.occurred(0, &k2, Timestamp::ZERO, Timestamp::from_secs(10), false));
    }

    #[test]
    fn negation_out_of_order_record_stays_sorted() {
        let mut neg = Neg::new(1);
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
        let mut ap = AperiodicState::new(Span::MAX);
        for ms in [100u64, 200, 300, 400] {
            assert_eq!(ap.record(inst(ms), Timestamp::from_millis(ms)), None);
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
            Some(Timestamp::from_secs(88))
        );
        assert_eq!(
            dead_before(Timestamp::from_secs(5), Span::from_secs(10)),
            Some(Timestamp::ZERO)
        );
        assert_eq!(dead_before(Timestamp::from_secs(100), Span::MAX), None);
    }
}
