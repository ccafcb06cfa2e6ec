//! # rfid-edge — reader-edge filtering
//!
//! Fig. 2 of the paper places an *Event Filtering* stage between the raw
//! reader observations and complex event detection. §3.1 shows that
//! filtering can be expressed as rules (Rule 1 flags duplicates, Rule 2
//! extracts infield events); deployments additionally run cheap stateless-ish
//! filters right at the edge, before events ever reach the engine, to cut
//! volume. This crate provides those:
//!
//! * [`DedupFilter`] — drops re-reads of the same `(reader, object)` within
//!   a window (the *drop* counterpart of Rule 1's *flag*);
//! * [`GlitchFilter`] — passes a tag only after `k` sightings within a
//!   window, suppressing RF ghosts (single spurious decodes);
//! * [`RateLimiter`] — at most one read per `(reader, object)` per period,
//!   taming bulk-read floods from smart shelves;
//! * [`Pipeline`] — composes filters in order, with per-stage drop counts.
//!
//! Every filter implements [`EdgeFilter`]: offer an observation, get back
//! the one it releases, if any (`GlitchFilter` releases the sighting that
//! corroborates a burst, not the burst's first). An offer allocates nothing
//! once a filter's map has grown to its working size, and a filter forgets a
//! tag once its window has passed, so that size is the tags of one window,
//! not every tag ever read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::Entry;

use rfid_epc::hash::MixMap;
use rfid_epc::{Epc, ReaderId};
use rfid_events::{Observation, Span, Timestamp};

/// A streaming observation filter.
pub trait EdgeFilter {
    /// Offers one observation (non-decreasing timestamps); returns the
    /// observation released downstream by this offer, if any.
    fn offer(&mut self, obs: Observation) -> Option<Observation>;

    /// End of stream: release anything still held back.
    fn flush(&mut self) -> Vec<Observation> {
        Vec::new()
    }

    /// Observations suppressed so far.
    fn dropped(&self) -> u64;
}

type TagKey = (ReaderId, Epc);

/// Map size below which no filter sweeps for expired tags.
const SWEEP_FLOOR: usize = 1024;

/// When a tag-keyed map next sweeps out what its filter's window has
/// expired: once it holds twice what the last sweep left alive. A sweep is
/// one pass over the map, so its cost spreads over the inserts that doubled
/// it, and between sweeps the map holds at most twice the tags of one
/// window (or [`SWEEP_FLOOR`]).
#[derive(Debug)]
struct SweepAt(usize);

impl SweepAt {
    fn new() -> Self {
        Self(SWEEP_FLOOR)
    }

    /// Whether a map of `len` entries is due; call before inserting.
    fn due(&self, len: usize) -> bool {
        len >= self.0
    }

    /// Records that a sweep left `alive` entries.
    fn swept(&mut self, alive: usize) {
        self.0 = (2 * alive).max(SWEEP_FLOOR);
    }
}

/// The last released read per tag: admits a read unless the tag's last
/// released read is less than `window` old. The state of both
/// [`DedupFilter`] and [`RateLimiter`].
#[derive(Debug)]
struct LastReleased {
    window: Span,
    at: MixMap<TagKey, Timestamp>,
    sweep: SweepAt,
    dropped: u64,
}

impl LastReleased {
    fn new(window: Span) -> Self {
        Self {
            window,
            at: MixMap::default(),
            sweep: SweepAt::new(),
            dropped: 0,
        }
    }

    fn offer(&mut self, obs: Observation) -> Option<Observation> {
        let window = self.window;
        if self.sweep.due(self.at.len()) {
            // A read at `last` suppresses only reads before `last + window`,
            // and timestamps do not decrease.
            self.at.retain(|_, last| obs.at < *last + window);
            self.sweep.swept(self.at.len());
        }
        match self.at.entry((obs.reader, obs.object)) {
            Entry::Occupied(last) if obs.at < *last.get() + window => {
                self.dropped += 1;
                None
            }
            released => {
                released.insert_entry(obs.at);
                Some(obs)
            }
        }
    }
}

/// Drops repeat reads of the same tag by the same reader within a window.
///
/// The surviving read is the *first* of each burst, and the window restarts
/// with every retained read (re-reads inside the window do not extend it —
/// a tag sitting on a shelf is re-admitted every `window`).
#[derive(Debug)]
pub struct DedupFilter(LastReleased);

impl DedupFilter {
    /// Creates a dedup filter with the given suppression window.
    pub fn new(window: Span) -> Self {
        Self(LastReleased::new(window))
    }
}

impl EdgeFilter for DedupFilter {
    fn offer(&mut self, obs: Observation) -> Option<Observation> {
        self.0.offer(obs)
    }

    fn dropped(&self) -> u64 {
        self.0.dropped
    }
}

/// Passes a tag only after `k` sightings within a window: a single decode
/// (an RF ghost) never reaches the engine. The releases are the first `k`-th
/// corroborating sighting; earlier sightings of the burst are absorbed.
#[derive(Debug)]
pub struct GlitchFilter {
    k: u32,
    window: Span,
    sightings: MixMap<TagKey, Vec<Timestamp>>,
    sweep: SweepAt,
    dropped: u64,
}

impl GlitchFilter {
    /// Requires `k` sightings within `window`.
    ///
    /// # Panics
    /// Panics if `k` is zero (a filter that passes nothing it has seen zero
    /// times is a configuration bug).
    pub fn new(k: u32, window: Span) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            window,
            sightings: MixMap::default(),
            sweep: SweepAt::new(),
            dropped: 0,
        }
    }
}

impl EdgeFilter for GlitchFilter {
    fn offer(&mut self, obs: Observation) -> Option<Observation> {
        if self.k == 1 {
            return Some(obs);
        }
        let horizon = obs.at.saturating_sub(self.window);
        if self.sweep.due(self.sightings.len()) {
            // A tag whose newest sighting is behind the horizon counts for
            // nothing any more (nor does one whose burst already passed).
            self.sightings
                .retain(|_, seen| seen.last().is_some_and(|&t| t >= horizon));
            self.sweep.swept(self.sightings.len());
        }
        let seen = self.sightings.entry((obs.reader, obs.object)).or_default();
        seen.push(obs.at);
        seen.retain(|&t| t >= horizon);
        if seen.len() as u32 >= self.k {
            seen.clear();
            Some(obs)
        } else {
            self.dropped += 1;
            None
        }
    }

    fn dropped(&self) -> u64 {
        // Sightings that were part of a burst that eventually passed are
        // still counted: they were individually suppressed.
        self.dropped
    }
}

/// At most one observation per `(reader, object)` per period — a hard rate
/// cap for bulk-read floods.
#[derive(Debug)]
pub struct RateLimiter(LastReleased);

impl RateLimiter {
    /// Creates a rate limiter with the given minimum spacing.
    pub fn new(period: Span) -> Self {
        Self(LastReleased::new(period))
    }
}

impl EdgeFilter for RateLimiter {
    fn offer(&mut self, obs: Observation) -> Option<Observation> {
        self.0.offer(obs)
    }

    fn dropped(&self) -> u64 {
        self.0.dropped
    }
}

/// A chain of filters applied in order.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn EdgeFilter + Send>>,
}

impl Pipeline {
    /// An empty pipeline (passes everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage.
    pub fn then(mut self, stage: impl EdgeFilter + Send + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Offers an observation through every stage and yields the one
    /// released, if any: nothing as soon as one stage holds it back. The
    /// zero-or-one result comes as an iterator, so callers forward it with a
    /// `for` or an `extend` (`.next()` gives the `Option`).
    pub fn offer(&mut self, obs: Observation) -> std::option::IntoIter<Observation> {
        Self::offer_from(&mut self.stages, obs).into_iter()
    }

    fn offer_from(
        stages: &mut [Box<dyn EdgeFilter + Send>],
        mut obs: Observation,
    ) -> Option<Observation> {
        for stage in stages {
            obs = stage.offer(obs)?;
        }
        Some(obs)
    }

    /// Flushes every stage in order (later stages see earlier flushes).
    pub fn flush(&mut self) -> Vec<Observation> {
        let mut released = Vec::new();
        for i in 0..self.stages.len() {
            let (flushing, later) = self.stages[i..].split_at_mut(1);
            for obs in flushing[0].flush() {
                released.extend(Self::offer_from(later, obs));
            }
        }
        released
    }

    /// Per-stage drop counts, in stage order.
    pub fn dropped_per_stage(&self) -> Vec<u64> {
        self.stages.iter().map(|s| s.dropped()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;

    fn obs(reader: u32, serial: u64, ms: u64) -> Observation {
        Observation::new(
            ReaderId(reader),
            Gid96::new(1, 1, serial).unwrap().into(),
            Timestamp::from_millis(ms),
        )
    }

    #[test]
    fn dedup_drops_bursts_keeps_revisits() {
        let mut f = DedupFilter::new(Span::from_secs(5));
        assert!(f.offer(obs(0, 1, 0)).is_some());
        assert!(f.offer(obs(0, 1, 1_000)).is_none(), "burst re-read dropped");
        assert!(f.offer(obs(0, 1, 4_999)).is_none());
        assert!(f.offer(obs(0, 1, 5_000)).is_some(), "window elapsed");
        assert!(
            f.offer(obs(1, 1, 5_100)).is_some(),
            "different reader is independent"
        );
        assert!(
            f.offer(obs(0, 2, 5_100)).is_some(),
            "different tag is independent"
        );
        assert_eq!(f.dropped(), 2);
    }

    #[test]
    fn glitch_filter_requires_corroboration() {
        let mut f = GlitchFilter::new(3, Span::from_secs(2));
        assert!(f.offer(obs(0, 1, 0)).is_none(), "single decode is a ghost");
        assert!(f.offer(obs(0, 1, 500)).is_none());
        assert!(
            f.offer(obs(0, 1, 900)).is_some(),
            "third sighting corroborates"
        );
        // Sightings outside the window do not count.
        assert!(f.offer(obs(0, 2, 10_000)).is_none());
        assert!(
            f.offer(obs(0, 2, 13_000)).is_none(),
            "first sighting aged out"
        );
        assert!(f.offer(obs(0, 2, 14_000)).is_none(), "only two in window");
        assert!(f.offer(obs(0, 2, 14_500)).is_some());
    }

    #[test]
    fn glitch_filter_k1_is_transparent() {
        let mut f = GlitchFilter::new(1, Span::from_secs(1));
        assert!(f.offer(obs(0, 1, 0)).is_some());
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn glitch_filter_rejects_k0() {
        let _ = GlitchFilter::new(0, Span::from_secs(1));
    }

    #[test]
    fn rate_limiter_spaces_reads() {
        let mut f = RateLimiter::new(Span::from_secs(30));
        assert!(f.offer(obs(0, 1, 0)).is_some());
        assert!(f.offer(obs(0, 1, 29_999)).is_none());
        assert!(f.offer(obs(0, 1, 30_000)).is_some());
        assert_eq!(f.dropped(), 1);
    }

    #[test]
    fn pipeline_chains_stages() {
        let mut p = Pipeline::new()
            .then(GlitchFilter::new(2, Span::from_secs(1)))
            .then(DedupFilter::new(Span::from_secs(10)));
        let mut out = Vec::new();
        // Ghost (one decode) → dropped by stage 1.
        out.extend(p.offer(obs(0, 1, 0)));
        // Corroborated burst → stage 1 releases once, stage 2 passes it.
        out.extend(p.offer(obs(0, 1, 500)));
        // Another corroborated burst within dedup window → stage 2 drops.
        out.extend(p.offer(obs(0, 1, 2_000)));
        out.extend(p.offer(obs(0, 1, 2_400)));
        assert_eq!(out.len(), 1);
        assert_eq!(p.dropped_per_stage(), vec![2, 1]);
    }

    #[test]
    fn pipeline_flush_carries_through() {
        let mut p = Pipeline::new().then(DedupFilter::new(Span::from_secs(1)));
        assert_eq!(p.offer(obs(0, 1, 0)).len(), 1);
        assert!(
            p.flush().is_empty(),
            "stateless-release filters hold nothing"
        );
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = Pipeline::new();
        assert_eq!(p.offer(obs(0, 1, 0)).len(), 1);
        assert!(p.dropped_per_stage().is_empty());
    }

    /// Dedup and rate limiting without ever forgetting a tag: a read passes
    /// unless the tag's last released read is less than a window old.
    fn last_released_reference(window_ms: u64, stream: &[Observation]) -> Vec<Observation> {
        let mut released_at = std::collections::HashMap::<TagKey, u64>::new();
        let mut out = stream.to_vec();
        out.retain(|o| {
            let (key, at) = ((o.reader, o.object), o.at.as_millis());
            let pass = released_at
                .get(&key)
                .is_none_or(|&last| at >= last + window_ms);
            if pass {
                released_at.insert(key, at);
            }
            pass
        });
        out
    }

    /// `GlitchFilter::new(2, window)` without ever forgetting a tag: a read
    /// passes when the tag's previous read, unless that one passed, is at
    /// most a window old.
    fn glitch_pair_reference(window_ms: u64, stream: &[Observation]) -> Vec<Observation> {
        let mut uncorroborated = std::collections::HashMap::<TagKey, u64>::new();
        let mut out = stream.to_vec();
        out.retain(|o| {
            let (key, at) = ((o.reader, o.object), o.at.as_millis());
            let pass = uncorroborated
                .remove(&key)
                .is_some_and(|earlier| earlier >= at.saturating_sub(window_ms));
            if !pass {
                uncorroborated.insert(key, at);
            }
            pass
        });
        out
    }

    const TAG_EVERY_MS: u64 = 2;

    /// Fresh tags forever: a new tag every [`TAG_EVERY_MS`], each read three
    /// times 300 ms apart, and one tag in ten read again 1.5 windows later.
    fn churn(window_ms: u64, tags: u64) -> Vec<Observation> {
        let mut stream = Vec::new();
        for n in 0..tags {
            let first = n * TAG_EVERY_MS;
            for k in 0..3 {
                stream.push(obs((n % 4) as u32, n, first + k * 300));
            }
            if n % 10 == 0 {
                stream.push(obs((n % 4) as u32, n, first + window_ms * 3 / 2));
            }
        }
        stream.sort();
        stream
    }

    #[test]
    fn fresh_key_churn_keeps_one_window_of_tags_and_the_same_output() {
        const WINDOW_MS: u64 = 5_000;
        const TAGS: u64 = 60_000;
        let window = Span::from_millis(WINDOW_MS);
        let stream = churn(WINDOW_MS, TAGS);
        // Tags with a read inside one window, at a new tag every 2 ms: those
        // first read up to 600 ms before it opens (their third read falls
        // inside), plus the tenth of a window's worth read again late.
        let per_window =
            ((WINDOW_MS + 600) / TAG_EVERY_MS + WINDOW_MS / TAG_EVERY_MS / 10 + 2) as usize;
        // What a sweep leaves can matter to one window; the next sweep
        // comes when the map has doubled.
        let bound = 2 * per_window;
        assert!(SWEEP_FLOOR < bound && bound < TAGS as usize / 4);

        let mut dedup = DedupFilter::new(window);
        let mut rate = RateLimiter::new(window);
        let mut glitch = GlitchFilter::new(2, window);
        let (mut d, mut r, mut g) = (Vec::new(), Vec::new(), Vec::new());
        for &o in &stream {
            d.extend(dedup.offer(o));
            r.extend(rate.offer(o));
            g.extend(glitch.offer(o));
            assert!(dedup.0.at.len() <= bound, "{} tags kept", dedup.0.at.len());
            assert!(rate.0.at.len() <= bound);
            assert!(glitch.sightings.len() <= bound);
        }
        let last_released = last_released_reference(WINDOW_MS, &stream);
        assert_eq!(d, last_released);
        assert_eq!(r, last_released);
        assert_eq!(g, glitch_pair_reference(WINDOW_MS, &stream));
        assert_eq!(dedup.dropped() as usize, stream.len() - d.len());
        assert_eq!(glitch.dropped() as usize, stream.len() - g.len());
    }
}
