//! Conflict-vector profiling (paper Fig. 1).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use cache_sim::{BlockAddr, LruStack, LruWindow, StackScan};
use gf2::BitVec;
use serde::{Deserialize, Serialize};

use crate::memo::WordHasher;
use crate::FLAT_LOOKUP_MAX_BITS;

/// Summary counters of a profiling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// References profiled.
    pub references: u64,
    /// First-touch (compulsory) accesses, excluded from the histogram.
    pub compulsory: u64,
    /// Accesses whose reuse distance exceeds the cache capacity (capacity
    /// misses under any index function), excluded from the histogram.
    pub capacity: u64,
    /// Accesses that contributed conflict vectors to the histogram.
    pub profiled: u64,
    /// Total conflict vectors accumulated (one per intermediate block of each
    /// profiled access).
    pub conflict_vectors: u64,
}

/// The conflict-vector histogram `misses(v)` produced by the paper's profiling
/// algorithm (Fig. 1).
///
/// One pass over the block-address trace maintains an LRU stack. For every
/// access to a block `x` with at most `capacity` distinct blocks touched since
/// its previous use, the algorithm walks those blocks `y` and increments
/// `misses(x ⊕ y)` (truncated to the hashed width `n`). Compulsory accesses
/// and accesses with reuse distance larger than the cache capacity are
/// filtered out because no index function can avoid those misses.
///
/// The filter is the paper's "reuse distance > cache size", so an access at
/// distance exactly `capacity` *is* profiled, although a fully-associative
/// LRU cache of `capacity` blocks misses it and the 3C classifier
/// ([`cache_sim::MissClassifier`], [`cache_sim::ReuseStream`]) calls it a
/// capacity miss. The two walks differ by one on purpose: a profiled access
/// is a [`StackScan::Within`], which is wider than
/// [`cache_sim::ReuseClass::Near`].
///
/// The histogram then estimates the conflict misses of *any* hash function `H`
/// as `Σ_{v ∈ N(H)} misses(v)` (paper Eq. 4) — see
/// [`MissEstimator`](crate::MissEstimator).
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::ConflictProfile;
///
/// // Two blocks 256 apart ping-pong; with a 256-block cache their conflicts
/// // are recorded under the vector 0x100.
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// assert_eq!(profile.misses_of(0x100), 18);
/// assert_eq!(profile.summary().compulsory, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictProfile {
    hashed_bits: usize,
    capacity_blocks: usize,
    histogram: HashMap<BitVec, u64>,
    summary: ProfileSummary,
}

impl ConflictProfile {
    /// Profiles a block-address stream for a cache of `capacity_blocks`
    /// blocks, hashing the low `hashed_bits` bits of the block address.
    ///
    /// Walks a bounded [`LruWindow`] and counts conflict vectors in a flat
    /// array indexed by the vector when `hashed_bits ≤`
    /// [`FLAT_LOOKUP_MAX_BITS`] (a hash map keyed by the raw vector
    /// otherwise); the histogram is built once at the end from the distinct
    /// vectors. The result equals [`ConflictProfile::from_blocks_reference`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `hashed_bits` is 0 or larger than 64, or if
    /// `capacity_blocks` is 0.
    #[must_use]
    pub fn from_blocks<I>(blocks: I, hashed_bits: usize, capacity_blocks: usize) -> Self
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        assert!(
            (1..=64).contains(&hashed_bits),
            "hashed_bits must be in 1..=64"
        );
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let mask = u64::MAX >> (64 - hashed_bits);
        let mut counts = VectorCounts::new(hashed_bits);
        let mut window = LruWindow::new(capacity_blocks);
        let mut summary = ProfileSummary::default();
        for block in blocks {
            summary.references += 1;
            let x = block.as_u64();
            match window.access(x) {
                (StackScan::Cold, _) => summary.compulsory += 1,
                (StackScan::Beyond, _) => summary.capacity += 1,
                (StackScan::Within { .. }, above) => {
                    summary.profiled += 1;
                    summary.conflict_vectors += above.len() as u64;
                    counts.add(above.iter().map(|&y| (x ^ y) & mask));
                }
            }
        }
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            histogram: counts.into_histogram(hashed_bits),
            summary,
        }
    }

    /// Reference form of [`ConflictProfile::from_blocks`]: the paper's Fig. 1
    /// as written, one [`LruStack`] walk per access and one `BitVec`-keyed
    /// histogram increment per conflict vector. Kept as the oracle the fast
    /// profiler is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `hashed_bits` is 0 or larger than 64, or if
    /// `capacity_blocks` is 0.
    #[must_use]
    pub fn from_blocks_reference<I>(blocks: I, hashed_bits: usize, capacity_blocks: usize) -> Self
    where
        I: IntoIterator<Item = BlockAddr>,
    {
        assert!(
            (1..=64).contains(&hashed_bits),
            "hashed_bits must be in 1..=64"
        );
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let mut stack = LruStack::new();
        let mut histogram: HashMap<BitVec, u64> = HashMap::new();
        let mut summary = ProfileSummary::default();
        for block in blocks {
            summary.references += 1;
            let x = block.as_u64();
            let mut vectors: Vec<u64> = Vec::new();
            let scan = stack.access_scan(x, capacity_blocks, |y| vectors.push(x ^ y));
            match scan {
                StackScan::Cold => summary.compulsory += 1,
                StackScan::Beyond => summary.capacity += 1,
                StackScan::Within { .. } => {
                    summary.profiled += 1;
                    for v in vectors {
                        summary.conflict_vectors += 1;
                        let key = BitVec::from_u64(v, hashed_bits);
                        // The zero vector can only arise from truncation of
                        // high-order bits; it never represents an avoidable
                        // conflict, so it is not recorded.
                        if !key.is_zero() {
                            *histogram.entry(key).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            histogram,
            summary,
        }
    }

    /// Reconstructs a profile from a recorded `misses(v)` histogram — the
    /// restore path of the serving layer's kernel snapshots, where the
    /// original trace is no longer available. Entries with zero weight or a
    /// zero vector are dropped, exactly as profiling itself would never have
    /// recorded them; duplicate vectors accumulate.
    ///
    /// The [`ProfileSummary`] of a rebuilt profile reflects only what the
    /// histogram retains: `conflict_vectors` (and `profiled`) carry the total
    /// recorded weight, while the trace-level counters (`references`,
    /// `compulsory`, `capacity`) are zero because the snapshot does not keep
    /// the trace. Everything search and estimation consume — the histogram,
    /// widths, and capacity — is reconstructed exactly.
    ///
    /// # Panics
    ///
    /// Panics if `hashed_bits` is 0 or larger than 64, `capacity_blocks` is
    /// 0, or a vector has bits outside the hashed width
    /// ([`BitVec::from_u64`]'s contract).
    #[must_use]
    pub fn from_histogram<I>(entries: I, hashed_bits: usize, capacity_blocks: usize) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        assert!(
            (1..=64).contains(&hashed_bits),
            "hashed_bits must be in 1..=64"
        );
        assert!(capacity_blocks > 0, "cache capacity must be positive");
        let mut histogram: HashMap<BitVec, u64> = HashMap::new();
        let mut total = 0u64;
        for (v, w) in entries {
            if v == 0 || w == 0 {
                continue;
            }
            *histogram
                .entry(BitVec::from_u64(v, hashed_bits))
                .or_insert(0) += w;
            total += w;
        }
        ConflictProfile {
            hashed_bits,
            capacity_blocks,
            histogram,
            summary: ProfileSummary {
                profiled: total,
                conflict_vectors: total,
                ..ProfileSummary::default()
            },
        }
    }

    /// Number of hashed address bits `n`.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.hashed_bits
    }

    /// Cache capacity (in blocks) used to filter capacity misses.
    #[must_use]
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Profiling counters.
    #[must_use]
    pub fn summary(&self) -> ProfileSummary {
        self.summary
    }

    /// Number of distinct conflict vectors observed.
    #[must_use]
    pub fn distinct_vectors(&self) -> usize {
        self.histogram.len()
    }

    /// The accumulated weight `misses(v)` of a conflict vector.
    #[must_use]
    pub fn misses(&self, v: BitVec) -> u64 {
        debug_assert_eq!(v.width(), self.hashed_bits);
        self.histogram.get(&v).copied().unwrap_or(0)
    }

    /// Convenience form of [`ConflictProfile::misses`] taking the raw bits of
    /// the vector.
    #[must_use]
    pub fn misses_of(&self, v: u64) -> u64 {
        self.misses(BitVec::from_u64(v, self.hashed_bits))
    }

    /// Iterates over `(vector, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BitVec, u64)> + '_ {
        self.histogram.iter().map(|(&v, &w)| (v, w))
    }

    /// The `count` heaviest conflict vectors, sorted by decreasing weight
    /// (ties broken by vector value for determinism).
    #[must_use]
    pub fn heaviest(&self, count: usize) -> Vec<(BitVec, u64)> {
        let mut all: Vec<(BitVec, u64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(count);
        all
    }

    /// Total weight over all vectors: an upper bound on the number of conflict
    /// misses any single hash function can be charged with by Eq. 4.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.histogram.values().sum()
    }

    /// Merges another profile into this one (histograms and counters add).
    ///
    /// # Panics
    ///
    /// Panics if the two profiles disagree on `hashed_bits` or capacity.
    pub fn merge(&mut self, other: &ConflictProfile) {
        assert_eq!(self.hashed_bits, other.hashed_bits, "hashed bits differ");
        assert_eq!(
            self.capacity_blocks, other.capacity_blocks,
            "capacities differ"
        );
        for (v, w) in other.iter() {
            *self.histogram.entry(v).or_insert(0) += w;
        }
        self.summary.references += other.summary.references;
        self.summary.compulsory += other.summary.compulsory;
        self.summary.capacity += other.summary.capacity;
        self.summary.profiled += other.summary.profiled;
        self.summary.conflict_vectors += other.summary.conflict_vectors;
    }
}

/// Conflict-vector counters of one profiling pass.
enum VectorCounts {
    /// One counter per vector value; slot 0 collects the vectors truncated to
    /// zero, which are never recorded.
    Flat(Vec<u64>),
    /// Nonzero vectors of widths above [`FLAT_LOOKUP_MAX_BITS`].
    Hashed(HashMap<u64, u64, BuildHasherDefault<WordHasher>>),
}

impl VectorCounts {
    fn new(hashed_bits: usize) -> Self {
        if hashed_bits <= FLAT_LOOKUP_MAX_BITS {
            VectorCounts::Flat(vec![0; 1 << hashed_bits])
        } else {
            VectorCounts::Hashed(HashMap::default())
        }
    }

    /// Counts each (already truncated) vector once.
    fn add(&mut self, vectors: impl Iterator<Item = u64>) {
        match self {
            VectorCounts::Flat(counts) => {
                for v in vectors {
                    counts[v as usize] += 1;
                }
            }
            VectorCounts::Hashed(counts) => {
                for v in vectors.filter(|&v| v != 0) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
        }
    }

    fn into_histogram(self, hashed_bits: usize) -> HashMap<BitVec, u64> {
        let key = |v: u64| BitVec::from_u64(v, hashed_bits);
        match self {
            VectorCounts::Flat(counts) => counts
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(_, &w)| w != 0)
                .map(|(v, &w)| (key(v as u64), w))
                .collect(),
            VectorCounts::Hashed(counts) => counts.into_iter().map(|(v, w)| (key(v), w)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(seq: &[u64]) -> Vec<BlockAddr> {
        seq.iter().copied().map(BlockAddr).collect()
    }

    #[test]
    fn ping_pong_conflicts_are_counted() {
        // x=0 and y=0x100 alternate; every non-first access sees exactly the
        // other block above it on the stack.
        let trace: Vec<BlockAddr> = (0..10u64).map(|i| BlockAddr((i % 2) * 0x100)).collect();
        let p = ConflictProfile::from_blocks(trace, 16, 64);
        assert_eq!(p.misses_of(0x100), 8);
        assert_eq!(p.distinct_vectors(), 1);
        assert_eq!(p.summary().compulsory, 2);
        assert_eq!(p.summary().profiled, 8);
        assert_eq!(p.summary().references, 10);
        assert_eq!(p.total_weight(), 8);
    }

    #[test]
    fn from_histogram_rebuilds_the_recorded_state() {
        let trace: Vec<BlockAddr> = (0..200u64)
            .map(|i| BlockAddr((i % 3) * 0x40 + (i % 5) * 0x900))
            .collect();
        let original = ConflictProfile::from_blocks(trace, 13, 64);
        let rebuilt =
            ConflictProfile::from_histogram(original.iter().map(|(v, w)| (v.as_u64(), w)), 13, 64);
        // Histogram, geometry and totals are exact…
        assert_eq!(rebuilt.hashed_bits(), 13);
        assert_eq!(rebuilt.capacity_blocks(), 64);
        assert_eq!(rebuilt.distinct_vectors(), original.distinct_vectors());
        assert_eq!(rebuilt.total_weight(), original.total_weight());
        for (v, w) in original.iter() {
            assert_eq!(rebuilt.misses(v), w);
        }
        assert_eq!(rebuilt.heaviest(5), original.heaviest(5));
        // …while the trace-level summary counters record only what the
        // histogram retains.
        assert_eq!(rebuilt.summary().conflict_vectors, original.total_weight());
        assert_eq!(rebuilt.summary().references, 0);
        // Zero vectors and zero weights are dropped; duplicates accumulate.
        let p = ConflictProfile::from_histogram([(0, 9), (5, 0), (3, 2), (3, 4)], 8, 16);
        assert_eq!(p.distinct_vectors(), 1);
        assert_eq!(p.misses_of(3), 6);
    }

    #[test]
    fn capacity_misses_are_filtered() {
        // Touch 10 distinct blocks then revisit the first: with a capacity of
        // 4 blocks the revisit is a capacity miss and records nothing.
        let mut seq: Vec<u64> = (0..10).collect();
        seq.push(0);
        let p = ConflictProfile::from_blocks(blocks(&seq), 16, 4);
        assert_eq!(p.total_weight(), 0);
        assert_eq!(p.summary().capacity, 1);
        assert_eq!(p.summary().compulsory, 10);
    }

    #[test]
    fn all_intermediate_blocks_contribute_vectors() {
        // Access 1, 2, 3, then 1 again: vectors 1^2=3 and 1^3=2 are recorded.
        let p = ConflictProfile::from_blocks(blocks(&[1, 2, 3, 1]), 8, 16);
        assert_eq!(p.misses_of(3), 1);
        assert_eq!(p.misses_of(2), 1);
        assert_eq!(p.misses_of(1), 0);
        assert_eq!(p.summary().conflict_vectors, 2);
        assert_eq!(p.distinct_vectors(), 2);
    }

    #[test]
    fn vectors_are_truncated_to_hashed_bits() {
        // Blocks 0 and 0x1_0000 differ only above bit 15; truncated to 16 bits
        // the difference vector is zero and must not be recorded.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x1_0000, 0, 0x1_0000]), 16, 64);
        assert_eq!(p.total_weight(), 0);
        assert_eq!(p.distinct_vectors(), 0);
        // With 20 hashed bits the vector is visible.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x1_0000, 0, 0x1_0000]), 20, 64);
        assert_eq!(p.misses_of(0x1_0000), 2);
    }

    #[test]
    fn heaviest_sorts_by_weight() {
        // Vector 0x10 appears twice as often as 0x20.
        let p = ConflictProfile::from_blocks(blocks(&[0, 0x10, 0, 0x10, 0, 0x20, 0]), 16, 64);
        let top = p.heaviest(2);
        assert_eq!(top[0].0.as_u64(), 0x10);
        assert!(top[0].1 > top[1].1);
        assert_eq!(p.heaviest(100).len(), p.distinct_vectors());
    }

    #[test]
    fn merge_adds_histograms() {
        let a = ConflictProfile::from_blocks(blocks(&[0, 1, 0]), 8, 16);
        let b = ConflictProfile::from_blocks(blocks(&[0, 1, 0, 1]), 8, 16);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.misses_of(1), a.misses_of(1) + b.misses_of(1));
        assert_eq!(
            merged.summary().references,
            a.summary().references + b.summary().references
        );
    }

    #[test]
    #[should_panic(expected = "hashed bits differ")]
    fn merge_rejects_mismatched_profiles() {
        let a = ConflictProfile::from_blocks(blocks(&[0, 1]), 8, 16);
        let b = ConflictProfile::from_blocks(blocks(&[0, 1]), 16, 16);
        let mut a = a;
        a.merge(&b);
    }

    #[test]
    fn distance_equal_to_capacity_is_profiled() {
        // Exactly 3 distinct blocks (2, 3, 4) since the last use of block 1:
        // with a capacity of 3 the revisit is profiled, even though a
        // fully-associative LRU cache of 3 blocks would miss it.
        for p in [
            ConflictProfile::from_blocks(blocks(&[1, 2, 3, 4, 1]), 8, 3),
            ConflictProfile::from_blocks_reference(blocks(&[1, 2, 3, 4, 1]), 8, 3),
        ] {
            assert_eq!(p.summary().profiled, 1);
            assert_eq!(p.summary().capacity, 0);
            assert_eq!(p.summary().conflict_vectors, 3);
            assert_eq!(p.misses_of(1 ^ 4), 1);
        }
    }

    #[test]
    fn empty_trace_gives_empty_profile() {
        let p = ConflictProfile::from_blocks(std::iter::empty(), 16, 64);
        assert_eq!(p.summary().references, 0);
        assert_eq!(p.distinct_vectors(), 0);
        assert_eq!(p.total_weight(), 0);
    }
}
