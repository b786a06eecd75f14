//! Shared 3C pre-classification of a block-address trace.
//!
//! The reuse class of an access (cold / near / far with respect to a
//! fully-associative LRU cache of the simulated capacity) depends only on the
//! trace and the cache geometry — *not* on the index function. The classical
//! consequence, which the paper's verification step leans on, is that
//! compulsory and capacity misses are index-function-independent: only
//! conflict behaviour changes per candidate function.
//!
//! [`ReuseStream`] exploits that by walking the LRU stack **once** per
//! (trace, geometry) and recording one compact reuse-class code per access.
//! Replaying `k` candidate index functions then pays the stack walk once
//! instead of `k` times; each replay only needs the per-access code to turn
//! its own misses into 3C classes.
//!
//! [`ReuseStream::build`] walks an [`LruWindow`]; [`ReuseStream::build_reference`]
//! runs the [`MissClassifier`] over the unbounded [`LruStack`](crate::LruStack)
//! and is the oracle the fast build is tested against. Both classify an
//! access at distance exactly `capacity` as far: [`StackScan::Within`] covers
//! distances up to and including the scan limit, one more than
//! [`ReuseClass::Near`].

use crate::{BlockAddr, LruWindow, MissClass, MissClassifier, ReuseClass, StackScan};

/// Compact per-access reuse code: first touch of the block.
const CODE_COLD: u8 = 0;
/// Reuse distance below capacity — a miss on this access is a conflict miss.
const CODE_NEAR: u8 = 1;
/// Reuse distance at or beyond capacity — a miss here is a capacity miss.
const CODE_FAR: u8 = 2;

/// A function-independent reuse-class stream for one (trace, geometry) pair.
///
/// Built by a single LRU-stack pass; one byte per access. The stream
/// answers, for access `i`, "if a cache of this capacity misses here, what 3C
/// class is the miss?" — exactly the information `Cache::access_block` derives
/// per access when classification is enabled.
///
/// # Example
///
/// ```
/// use cache_sim::{BlockAddr, MissClass, ReuseStream};
///
/// let trace = [BlockAddr(1), BlockAddr(2), BlockAddr(1)];
/// let stream = ReuseStream::build(&trace, 2);
/// assert_eq!(stream.len(), 3);
/// assert_eq!(stream.miss_class(0), MissClass::Compulsory);
/// assert_eq!(stream.miss_class(2), MissClass::Conflict); // distance 1 < 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseStream {
    codes: Vec<u8>,
    capacity_blocks: usize,
}

impl ReuseStream {
    /// Classifies every access of `trace` against a fully-associative LRU
    /// cache holding `capacity_blocks` blocks.
    ///
    /// Walks an [`LruWindow`]; the codes equal [`ReuseStream::build_reference`]'s.
    #[must_use]
    pub fn build(trace: &[BlockAddr], capacity_blocks: usize) -> Self {
        let mut window = LruWindow::new(capacity_blocks);
        let codes = trace
            .iter()
            .map(|&block| match window.access(block.as_u64()).0 {
                StackScan::Cold => CODE_COLD,
                StackScan::Within { distance } if distance < capacity_blocks => CODE_NEAR,
                StackScan::Within { .. } | StackScan::Beyond => CODE_FAR,
            })
            .collect();
        ReuseStream {
            codes,
            capacity_blocks,
        }
    }

    /// Reference form of [`ReuseStream::build`]: one
    /// [`MissClassifier::observe`] per access over an unbounded LRU stack.
    #[must_use]
    pub fn build_reference(trace: &[BlockAddr], capacity_blocks: usize) -> Self {
        let mut classifier = MissClassifier::new(capacity_blocks);
        let codes = trace
            .iter()
            .map(|&block| match classifier.observe(block) {
                ReuseClass::Cold => CODE_COLD,
                ReuseClass::Near(_) => CODE_NEAR,
                ReuseClass::Far => CODE_FAR,
            })
            .collect();
        ReuseStream {
            codes,
            capacity_blocks,
        }
    }

    /// Number of accesses classified.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the stream covers no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Capacity (in blocks) the reuse distances were compared against.
    #[must_use]
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// 3C class of access `i` *if it misses* in the simulated cache.
    ///
    /// Matches `MissClassifier::classify_miss(observe(trace[i]))`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn miss_class(&self, i: usize) -> MissClass {
        match self.codes[i] {
            CODE_COLD => MissClass::Compulsory,
            CODE_NEAR => MissClass::Conflict,
            _ => MissClass::Capacity,
        }
    }

    /// Number of accesses whose miss (if any) would be conflict-eligible.
    #[must_use]
    pub fn conflict_eligible(&self) -> usize {
        self.codes.iter().filter(|&&c| c == CODE_NEAR).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(ids: &[u64]) -> Vec<BlockAddr> {
        ids.iter().copied().map(BlockAddr).collect()
    }

    #[test]
    fn matches_the_classifier_access_by_access() {
        let trace = blocks(&[1, 2, 3, 1, 2, 4, 1, 5, 5, 2]);
        for capacity in [0usize, 1, 2, 3, 8] {
            let stream = ReuseStream::build(&trace, capacity);
            assert_eq!(stream, ReuseStream::build_reference(&trace, capacity));
            let mut classifier = MissClassifier::new(capacity);
            for (i, &b) in trace.iter().enumerate() {
                let reuse = classifier.observe(b);
                assert_eq!(
                    stream.miss_class(i),
                    MissClassifier::classify_miss(reuse),
                    "access {i} capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn cold_near_far_codes() {
        let trace = blocks(&[7, 8, 7, 9, 10, 8]);
        let stream = ReuseStream::build(&trace, 2);
        assert_eq!(stream.miss_class(0), MissClass::Compulsory);
        assert_eq!(stream.miss_class(2), MissClass::Conflict); // distance 1
        assert_eq!(stream.miss_class(5), MissClass::Capacity); // distance 3
        assert_eq!(stream.capacity_blocks(), 2);
        assert_eq!(stream.len(), 6);
        assert!(!stream.is_empty());
        assert_eq!(stream.conflict_eligible(), 1);
    }

    #[test]
    fn distance_equal_to_capacity_is_far() {
        // Exactly `capacity` distinct blocks since the last use of block 1:
        // the profiler records this access, but a fully-associative LRU cache
        // of `capacity` blocks misses it, so it is a capacity miss here.
        let trace = blocks(&[1, 2, 3, 4, 1]);
        for stream in [
            ReuseStream::build(&trace, 3),
            ReuseStream::build_reference(&trace, 3),
        ] {
            assert_eq!(stream.miss_class(4), MissClass::Capacity);
            assert_eq!(stream.conflict_eligible(), 0);
        }
    }

    #[test]
    fn empty_trace() {
        let stream = ReuseStream::build(&[], 4);
        assert!(stream.is_empty());
        assert_eq!(stream.len(), 0);
        assert_eq!(stream, ReuseStream::build_reference(&[], 4));
    }
}
