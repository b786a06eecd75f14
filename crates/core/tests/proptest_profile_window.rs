//! Equivalence of the flat-window stack walks with their `LruStack` oracles.
//!
//! `ConflictProfile::from_blocks` must equal `from_blocks_reference`, and
//! `ReuseStream::build` must equal `build_reference` and a per-access
//! `MissClassifier`, on random traces and on the traces that stress the
//! window hardest: power-of-two-aligned arrays swept in lockstep, as
//! power-of-two allocators place them (Dice et al., "The Influence of Malloc
//! Placement on TSX HTM"), where almost every access is a within-capacity
//! walk. Widths span the flat/hashed counter switch at
//! [`FLAT_LOOKUP_MAX_BITS`].

use cache_sim::{BlockAddr, MissClassifier, ReuseStream};
use memtrace::generators::{interleave, StridedGenerator};
use proptest::prelude::*;
use xorindex::{ConflictProfile, FLAT_LOOKUP_MAX_BITS};

/// The histogram as a sorted list of `(vector, weight)`.
fn sorted_histogram(profile: &ConflictProfile) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = profile.iter().map(|(v, w)| (v.as_u64(), w)).collect();
    entries.sort_unstable();
    entries
}

fn assert_profiles_match(blocks: &[BlockAddr], hashed_bits: usize, capacity: usize) {
    let fast = ConflictProfile::from_blocks(blocks.iter().copied(), hashed_bits, capacity);
    let reference =
        ConflictProfile::from_blocks_reference(blocks.iter().copied(), hashed_bits, capacity);
    let cell = format!("n = {hashed_bits}, capacity {capacity}");
    assert_eq!(
        sorted_histogram(&fast),
        sorted_histogram(&reference),
        "{cell}"
    );
    assert_eq!(fast.summary(), reference.summary(), "{cell}");
    assert_eq!(
        fast.distinct_vectors(),
        reference.distinct_vectors(),
        "{cell}"
    );
    assert_eq!(fast, reference, "{cell}");
}

fn assert_reuse_codes_match(blocks: &[BlockAddr], capacity: usize) {
    let fast = ReuseStream::build(blocks, capacity);
    assert_eq!(
        fast,
        ReuseStream::build_reference(blocks, capacity),
        "capacity {capacity}"
    );
    let mut classifier = MissClassifier::new(capacity);
    for (i, &block) in blocks.iter().enumerate() {
        assert_eq!(
            fast.miss_class(i),
            MissClassifier::classify_miss(classifier.observe(block)),
            "access {i}, capacity {capacity}"
        );
    }
}

/// Random blocks: a low part from a bounded footprint plus a high part that
/// sits above bit 20–40, so at narrow widths some pairs differ only in bits
/// the profile truncates away.
fn random_trace() -> impl Strategy<Value = Vec<BlockAddr>> {
    (1u64..=1500, 1u64..=4, 20u32..=40, 0usize..1500).prop_flat_map(
        |(footprint, highs, shift, len)| {
            proptest::collection::vec(
                (0..footprint, 0..highs)
                    .prop_map(move |(low, high)| BlockAddr(low * 37 + (high << shift))),
                len,
            )
        },
    )
}

/// `arrays` arrays aligned to `1 << align_bits` bytes, swept element by
/// element in lockstep for `passes` passes, as block addresses of 4-byte
/// blocks.
fn lockstep_trace(arrays: u64, align_bits: u32, elements: u64, passes: u32) -> Vec<BlockAddr> {
    let sweeps: Vec<_> = (1..=arrays)
        .map(|a| StridedGenerator::new(a << align_bits, 4, elements, passes).generate())
        .collect();
    interleave("lockstep", &sweeps).block_addresses(2).collect()
}

fn lockstep_strategy() -> impl Strategy<Value = Vec<BlockAddr>> {
    (2u64..=6, 8u32..=16, 16u64..=400, 1u32..=3).prop_map(
        |(arrays, align_bits, elements, passes)| {
            lockstep_trace(arrays, align_bits, elements, passes)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fast_profile_matches_the_reference_on_random_traces(
        blocks in random_trace(),
        hashed_bits in 8usize..=48,
        capacity in 1usize..=1024,
    ) {
        assert_profiles_match(&blocks, hashed_bits, capacity);
    }

    #[test]
    fn fast_profile_matches_the_reference_on_lockstep_traces(
        blocks in lockstep_strategy(),
        hashed_bits in 8usize..=48,
        capacity in 1usize..=1024,
    ) {
        assert_profiles_match(&blocks, hashed_bits, capacity);
    }

    #[test]
    fn fast_reuse_codes_match_the_reference_on_random_traces(
        blocks in random_trace(),
        capacity in 1usize..=1024,
    ) {
        assert_reuse_codes_match(&blocks, capacity);
    }

    #[test]
    fn fast_reuse_codes_match_the_reference_on_lockstep_traces(
        blocks in lockstep_strategy(),
        capacity in 1usize..=1024,
    ) {
        assert_reuse_codes_match(&blocks, capacity);
    }
}

#[test]
fn flat_and_hashed_counters_agree_at_the_switch() {
    // Arrays 2^20 bytes apart: their blocks differ at bit 18 and above, so
    // both sides of the switch record high-bit vectors.
    let blocks = lockstep_trace(5, 20, 300, 3);
    for hashed_bits in [FLAT_LOOKUP_MAX_BITS, FLAT_LOOKUP_MAX_BITS + 1] {
        for capacity in [1, 4, 256, 1024] {
            assert_profiles_match(&blocks, hashed_bits, capacity);
        }
    }
}

#[test]
fn vectors_truncated_to_zero_are_dropped_on_both_paths() {
    // Blocks that differ only above the hashed width: every conflict vector
    // truncates to zero, is counted in the summary, and is not recorded.
    let blocks: Vec<BlockAddr> = (0..200u64).map(|i| BlockAddr((i % 4) << 30)).collect();
    for hashed_bits in [8, 16, 20, 21, 30] {
        assert_profiles_match(&blocks, hashed_bits, 16);
        let profile = ConflictProfile::from_blocks(blocks.iter().copied(), hashed_bits, 16);
        assert_eq!(profile.distinct_vectors(), 0);
        assert!(profile.summary().conflict_vectors > 0);
    }
}

#[test]
fn empty_trace_matches_on_both_walks() {
    for hashed_bits in [8, 20, 21, 48] {
        assert_profiles_match(&[], hashed_bits, 64);
    }
    assert_reuse_codes_match(&[], 64);
}
