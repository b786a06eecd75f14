//! Pins lane-native neighbourhood generation to the generator it replaced.
//!
//! `reference_generate` is a verbatim copy of the earlier
//! `PackedNeighborhood::generate`: it builds every candidate with
//! `PackedBasis::extended`, deduplicates through a `CanonicalKey` set and
//! runs the Eq. 5 test on each finished basis. The lane generator must give
//! the same hyperplanes, the same `(hyperplane, direction)` sequence and the
//! same materialized bases on every parent, class and pool.

use std::collections::HashSet;

use cache_sim::BlockAddr;
use gf2::{random, BitVec, CanonicalKey, PackedBasis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xorindex::search::{NeighborPool, PackedCandidate, PackedNeighborhood};
use xorindex::{ConflictProfile, FunctionClass};

/// The earlier generator, kept verbatim as the reference.
fn reference_generate(
    parent: &PackedBasis,
    class: FunctionClass,
    pool: &[u64],
) -> PackedNeighborhood {
    let n = parent.width();
    let m = n - parent.dim();
    if class == FunctionClass::BitSelecting {
        return reference_bit_select(parent);
    }
    let pool: Vec<u64> = pool
        .iter()
        .copied()
        .filter(|&v| !parent.contains(v))
        .collect();
    let mut seen: HashSet<CanonicalKey> = HashSet::new();
    let mut hyperplanes = Vec::new();
    let mut candidates = Vec::new();
    let mut buf = [0u64; 65];
    for hyperplane in parent.hyperplanes() {
        let hyperplane_index = hyperplanes.len();
        let mut used = false;
        for &v in &pool {
            let candidate = hyperplane.extended(v);
            if seen.contains(candidate.key_words(&mut buf)) {
                continue;
            }
            if reference_admissible(&candidate, class, m) {
                seen.insert(candidate.canonical_key());
                candidates.push(PackedCandidate {
                    hyperplane: hyperplane_index,
                    direction: v,
                    basis: candidate,
                });
                used = true;
            }
        }
        if used {
            hyperplanes.push(hyperplane);
        }
    }
    PackedNeighborhood {
        width: n,
        hyperplanes,
        candidates,
    }
}

fn reference_admissible(candidate: &PackedBasis, class: FunctionClass, m: usize) -> bool {
    match class {
        FunctionClass::BitSelecting => candidate.is_coordinate_subspace(),
        FunctionClass::Xor { .. } => true,
        FunctionClass::PermutationBased { .. } => candidate.admits_permutation_based(m),
    }
}

fn reference_bit_select(parent: &PackedBasis) -> PackedNeighborhood {
    let n = parent.width();
    if !parent.is_coordinate_subspace() {
        return PackedNeighborhood {
            width: n,
            hyperplanes: Vec::new(),
            candidates: Vec::new(),
        };
    }
    let excluded: Vec<usize> = parent
        .rows()
        .iter()
        .map(|r| r.trailing_zeros() as usize)
        .collect();
    let selected: Vec<usize> = (0..n).filter(|i| !excluded.contains(i)).collect();
    let mut hyperplanes = Vec::new();
    let mut candidates = Vec::new();
    for &drop in &excluded {
        let retained: Vec<usize> = excluded.iter().copied().filter(|&b| b != drop).collect();
        let hyperplane_index = hyperplanes.len();
        hyperplanes.push(PackedBasis::standard_span(n, retained.iter().copied()));
        for &add in &selected {
            let mut new_excluded = retained.clone();
            new_excluded.push(add);
            candidates.push(PackedCandidate {
                hyperplane: hyperplane_index,
                direction: 1u64 << add,
                basis: PackedBasis::standard_span(n, new_excluded),
            });
        }
    }
    PackedNeighborhood {
        width: n,
        hyperplanes,
        candidates,
    }
}

/// A parent of dimension `dim` in GF(2)^n: conventional, random XOR or
/// random permutation-admissible.
fn parent_of(rng: &mut StdRng, kind: usize, n: usize, dim: usize) -> PackedBasis {
    match kind {
        0 => PackedBasis::standard_span(n, n - dim..n),
        1 => random::random_subspace(rng, n, dim).to_packed(),
        _ => random::random_permutation_null_space(rng, n, n - dim).to_packed(),
    }
}

/// A pool: units, units and pairs, pairs plus profile vectors, or a custom
/// list with duplicates, zero and directions inside the parent.
fn pool_of(rng: &mut StdRng, kind: usize, n: usize, parent: &PackedBasis) -> NeighborPool {
    match kind {
        0 => NeighborPool::Units,
        1 => NeighborPool::UnitsAndPairs,
        2 => NeighborPool::UnitsPairsAndProfile(rng.gen_range(1..=12)),
        _ => {
            let mut vectors: Vec<BitVec> = (0..rng.gen_range(1..=40))
                .map(|_| random::random_vector(rng, n))
                .collect();
            vectors.extend(parent.vectors().take(4).map(|v| BitVec::from_u64(v, n)));
            let duplicates: Vec<BitVec> = vectors.iter().step_by(3).copied().collect();
            vectors.extend(duplicates);
            // A direction whose bits fit but whose width is larger.
            vectors.push(BitVec::from_u64(1, n + 1));
            NeighborPool::Custom(vectors)
        }
    }
}

const CLASSES: [FunctionClass; 4] = [
    FunctionClass::Xor { max_inputs: None },
    FunctionClass::PermutationBased {
        max_inputs: Some(2),
    },
    FunctionClass::PermutationBased { max_inputs: None },
    FunctionClass::BitSelecting,
];

/// Body of `lanes_match_the_reference_generator`, kept outside the vendored
/// `proptest!` macro (its expansion depth scales with statement count).
/// Checks every class on one parent of kind `parent_kind` (see `parent_of`)
/// and one pool of kind `pool_kind` (see `pool_of`).
fn check_lanes(
    seed: u64,
    n: usize,
    dim: usize,
    parent_kind: usize,
    pool_kind: usize,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks: Vec<BlockAddr> = (0..200)
        .map(|_| BlockAddr(rng.gen_range(0..64u64) << rng.gen_range(0..n as u32 - 5)))
        .collect();
    let profile = ConflictProfile::from_blocks(blocks, n, 16);
    let parent = parent_of(&mut rng, parent_kind, n, dim);
    let pool = pool_of(&mut rng, pool_kind, n, &parent).packed_vectors(n, &profile);
    for class in CLASSES {
        let got = PackedNeighborhood::generate(&parent, class, &pool);
        let expected = reference_generate(&parent, class, &pool);
        let context = format!("n={n} dim={dim} parent={parent_kind} pool={pool_kind} {class}");
        if got.hyperplanes != expected.hyperplanes {
            return Err(format!("{context}: hyperplanes differ"));
        }
        let lanes = |hood: &PackedNeighborhood| -> Vec<(usize, u64)> {
            hood.candidates
                .iter()
                .map(|c| (c.hyperplane, c.direction))
                .collect()
        };
        if lanes(&got) != lanes(&expected) {
            return Err(format!("{context}: lane sequences differ"));
        }
        if got != expected {
            return Err(format!("{context}: materialized bases differ"));
        }
        if got.parent_span() != expected.parent_span() {
            return Err(format!("{context}: parent spans differ"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lanes_match_the_reference_generator(
        (seed, n, dim) in (6usize..=24).prop_flat_map(|n| (any::<u64>(), Just(n), 1usize..=10.min(n - 1))),
        parent_kind in 0usize..3,
        pool_kind in 0usize..4,
    ) {
        let result = check_lanes(seed, n, dim, parent_kind, pool_kind);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

#[test]
fn lanes_match_the_reference_at_the_paper_geometries() {
    // n = 16 at 1 KB, 4 KB and 16 KB (null-space dims 8, 6 and 4), from the
    // conventional parent with the default pool, as every climb starts.
    for dim in [4usize, 6, 8] {
        check_lanes(u64::from(dim as u32), 16, dim, 0, 1).unwrap();
    }
}
