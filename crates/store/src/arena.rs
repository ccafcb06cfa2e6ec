//! Per-row storage that never moves: `width` values a row, in segments of
//! [`SEGMENT_ROWS`] rows allocated once at their full size.
//!
//! A table's cells, tags, live flags and index links are each an
//! [`Arena`]. A doubling `Vec` would copy every row at each doubling, and
//! glibc keeps the freed copies resident; a segment is filled in place and
//! a full one is never touched again by growth.

/// Rows a segment holds.
pub(crate) const SEGMENT_ROWS: usize = 4096;

/// Rows of `width` values each, addressed by `(row, k)`.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    width: usize,
    rows: usize,
    /// Each segment's capacity is `SEGMENT_ROWS * width`; only the last
    /// one is short.
    segments: Vec<Vec<T>>,
}

impl<T: Clone + Default> Arena<T> {
    /// An empty arena of `width` values a row. A zero-width arena never
    /// allocates.
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width,
            rows: 0,
            segments: Vec::new(),
        }
    }

    /// Rows held.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Appends a row of default values and hands it back to be filled.
    #[inline]
    pub(crate) fn push_row(&mut self) -> &mut [T] {
        self.rows += 1;
        let full = SEGMENT_ROWS * self.width;
        if full == 0 {
            return &mut [];
        }
        if self.segments.last().is_none_or(|last| last.len() == full) {
            self.segments.push(Vec::with_capacity(full));
        }
        let last = self.segments.last_mut().expect("a segment");
        let start = last.len();
        last.resize(start + self.width, T::default());
        &mut last[start..]
    }

    /// Appends default rows until there are `rows`.
    pub(crate) fn grow_to(&mut self, rows: usize) {
        for _ in self.rows()..rows {
            self.push_row();
        }
    }

    /// Value `k` of `row`.
    #[inline]
    pub(crate) fn get(&self, row: usize, k: usize) -> &T {
        &self.segments[row / SEGMENT_ROWS][row % SEGMENT_ROWS * self.width + k]
    }

    /// Value `k` of `row`, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, row: usize, k: usize) -> &mut T {
        &mut self.segments[row / SEGMENT_ROWS][row % SEGMENT_ROWS * self.width + k]
    }

    /// Moves row `from`'s values to row `to`, leaving defaults behind.
    pub(crate) fn move_row(&mut self, from: usize, to: usize) {
        for k in 0..self.width {
            let value = std::mem::take(self.get_mut(from, k));
            *self.get_mut(to, k) = value;
        }
    }

    /// Keeps the first `rows` rows; the segments past them are freed.
    pub(crate) fn truncate(&mut self, rows: usize) {
        if rows >= self.rows {
            return;
        }
        self.rows = rows;
        self.segments.truncate(rows.div_ceil(SEGMENT_ROWS));
        if let Some(last) = self.segments.last_mut() {
            last.truncate((rows - 1) % SEGMENT_ROWS * self.width + self.width);
        }
    }
}

/// A clone keeps each segment's full capacity, so it too never moves.
impl<T: Clone> Clone for Arena<T> {
    fn clone(&self) -> Self {
        let segment = |s: &Vec<T>| {
            let mut copy = Vec::with_capacity(SEGMENT_ROWS * self.width);
            copy.extend_from_slice(s);
            copy
        };
        Self {
            width: self.width,
            rows: self.rows,
            segments: self.segments.iter().map(segment).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_stay_put_across_segments() {
        let mut arena = Arena::<u32>::new(2);
        let rows = 2 * SEGMENT_ROWS + 5;
        arena.grow_to(rows);
        for row in 0..rows {
            *arena.get_mut(row, 0) = row as u32;
            *arena.get_mut(row, 1) = !(row as u32);
        }
        let first = std::ptr::from_ref(arena.get(0, 0));
        arena.grow_to(3 * SEGMENT_ROWS);
        assert_eq!(std::ptr::from_ref(arena.get(0, 0)), first, "no row moved");
        assert_eq!(arena.segments.len(), 3);
        for row in 0..rows {
            assert_eq!(
                (*arena.get(row, 0), *arena.get(row, 1)),
                (row as u32, !(row as u32))
            );
        }
        let copy = arena.clone();
        assert!(copy
            .segments
            .iter()
            .all(|s| s.capacity() == 2 * SEGMENT_ROWS));

        arena.move_row(rows - 1, 1);
        assert_eq!(*arena.get(1, 0), (rows - 1) as u32);
        assert_eq!(*arena.get(rows - 1, 0), 0);
        arena.truncate(SEGMENT_ROWS + 1);
        assert_eq!((arena.rows(), arena.segments.len()), (SEGMENT_ROWS + 1, 2));
        assert_eq!(arena.segments[1].len(), 2);
        arena.truncate(SEGMENT_ROWS);
        assert_eq!(arena.segments.len(), 1);
        assert_eq!(arena.segments[0].len(), 2 * SEGMENT_ROWS);
        arena.truncate(0);
        assert!(arena.segments.is_empty());
        arena.grow_to(1);
        assert_eq!(*arena.get(0, 1), 0, "a fresh row holds defaults");
    }

    #[test]
    fn a_zero_width_arena_never_allocates() {
        let mut arena = Arena::<u8>::new(0);
        arena.grow_to(SEGMENT_ROWS + 1);
        arena.move_row(1, 0);
        arena.truncate(0);
        assert!(arena.segments.is_empty());
    }
}
