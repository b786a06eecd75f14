//! Bounded LRU window: the top of an LRU stack in a flat array.
//!
//! Both production stack walks — the conflict-vector profiler and the 3C
//! pre-classifier — only ever ask about the top `capacity + 1` entries of the
//! LRU stack: a block found deeper is [`StackScan::Beyond`] and visits
//! nothing. [`LruWindow`] keeps exactly those entries, most recent first, in
//! one contiguous `Vec<u64>`, so a scan is a linear search over cache-resident
//! words instead of a pointer chase through a linked list, and the blocks above
//! the accessed one come back as a slice. [`LruStack`](crate::LruStack) stays
//! as the unbounded reference structure the oracles walk.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::StackScan;

/// Multiply-and-fold hasher for block addresses. Block addresses of
/// power-of-two-aligned arrays share many low zero bits, and the hash table
/// picks buckets from the low bits of the hash, so the high product bits are
/// folded down before use.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word ^ (word >> 32);
    }
}

/// The most recent `capacity + 1` distinct blocks of an LRU stack, plus the
/// set of every block ever accessed.
///
/// [`LruWindow::access`] returns the same [`StackScan`] as
/// [`LruStack::access_scan`](crate::LruStack::access_scan)`(block, capacity)`,
/// and on [`StackScan::Within`] also the blocks above the accessed one, most
/// recent first — the blocks `access_scan` would have visited.
///
/// Memory grows with the window (at most `capacity + 1` entries, see
/// [`LruWindow::window`]) and with the number of *distinct* blocks seen, never
/// with the trace length.
///
/// # Example
///
/// ```
/// use cache_sim::{LruWindow, StackScan};
///
/// let mut window = LruWindow::new(2);
/// assert_eq!(window.access(10).0, StackScan::Cold);
/// assert_eq!(window.access(20).0, StackScan::Cold);
/// // Re-access 10: block 20 was touched in between.
/// let (scan, above) = window.access(10);
/// assert_eq!(scan, StackScan::Within { distance: 1 });
/// assert_eq!(above, &[20]);
/// // Three distinct blocks since the last use of 20: deeper than capacity 2.
/// window.access(30);
/// window.access(40);
/// assert_eq!(window.access(20).0, StackScan::Beyond);
/// assert_eq!(window.window(), &[20, 40, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct LruWindow {
    /// `buf[head..]` is the window, most recent first; `buf[..head]` is slack
    /// that lets a push to the front cost amortised O(1).
    buf: Vec<u64>,
    head: usize,
    /// Maximum window length: `capacity + 1`.
    max_len: usize,
    /// Every block seen so far, mapped to whether it is in the window.
    seen: HashMap<u64, bool, BuildHasherDefault<BlockHasher>>,
}

impl LruWindow {
    /// Creates an empty window for a scan limit of `capacity` blocks.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruWindow {
            buf: Vec::new(),
            head: 0,
            max_len: capacity.saturating_add(1),
            seen: HashMap::default(),
        }
    }

    /// The blocks held, most recent first: the top `capacity + 1` entries of
    /// the LRU stack (fewer before that many distinct blocks were seen).
    #[must_use]
    pub fn window(&self) -> &[u64] {
        &self.buf[self.head..]
    }

    /// Number of distinct blocks ever accessed.
    #[must_use]
    pub fn distinct_blocks(&self) -> usize {
        self.seen.len()
    }

    /// Accesses `block`, moves it to the top, and reports how deep it was.
    ///
    /// The slice holds the blocks above `block`, most recent first, when the
    /// outcome is [`StackScan::Within`], and is empty otherwise.
    pub fn access(&mut self, block: u64) -> (StackScan, &[u64]) {
        match self.seen.entry(block) {
            Entry::Vacant(slot) => {
                slot.insert(true);
                self.push_front(block);
                (StackScan::Cold, &[])
            }
            Entry::Occupied(mut slot) if !*slot.get() => {
                slot.insert(true);
                self.push_front(block);
                (StackScan::Beyond, &[])
            }
            Entry::Occupied(_) => {
                let window = &mut self.buf[self.head..];
                let distance = window
                    .iter()
                    .position(|&b| b == block)
                    .expect("a block marked in the window is in the window");
                window[..=distance].rotate_right(1);
                (StackScan::Within { distance }, &window[1..=distance])
            }
        }
    }

    fn push_front(&mut self, block: u64) {
        if self.head == 0 {
            // Open slack in front as long as the window, so the copy is paid
            // once per window-length pushes.
            let len = self.buf.len();
            let gap = len.max(8);
            self.buf.resize(len + gap, 0);
            self.buf.copy_within(0..len, gap);
            self.head = gap;
        }
        self.head -= 1;
        self.buf[self.head] = block;
        if self.buf.len() - self.head > self.max_len {
            let evicted = self.buf.pop().expect("the window is not empty");
            *self
                .seen
                .get_mut(&evicted)
                .expect("every window block was seen") = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_holds_more_than_capacity_plus_one_blocks() {
        for capacity in [0usize, 1, 7, 64] {
            let mut window = LruWindow::new(capacity);
            for i in 0..5_000u64 {
                // A strided sweep with a little reuse, so pushes, hits and
                // evictions all happen.
                window.access((i * 4096) % (3 * 4096 * 37) + (i % 3));
                assert!(window.window().len() <= capacity + 1);
                // The slack never exceeds the window length it was sized for.
                assert!(window.buf.len() <= 2 * (capacity + 1) + 8);
            }
            assert_eq!(window.window().len(), capacity + 1);
        }
    }

    #[test]
    fn seen_set_grows_with_distinct_blocks_only() {
        let mut window = LruWindow::new(4);
        for i in 0..10_000u64 {
            window.access(i % 10);
        }
        assert_eq!(window.distinct_blocks(), 10);
    }
}
