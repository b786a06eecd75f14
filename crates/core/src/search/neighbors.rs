//! Neighbourhood generation over null spaces.
//!
//! The paper defines two null spaces as neighbours when they differ in exactly
//! one dimension: the dimension of their intersection is one less than their
//! own dimension. A neighbour of `N` is therefore obtained by choosing a
//! hyperplane `M ⊂ N` and a replacement direction `v ∉ N`, giving
//! `N' = M ⊕ span(v)`.
//!
//! Enumerating every possible replacement direction (`2^n − 2^d` of them) is
//! unnecessary; a pool of low-weight directions (standard basis vectors and
//! their pairwise XORs) already reaches the functions the hardware can afford
//! (small fan-in) while keeping each hill-climbing step fast. The pool is
//! configurable through [`NeighborPool`].
//!
//! Generation is *lane-native*: a neighbourhood is its retained hyperplanes
//! plus one `(hyperplane, direction)` lane per candidate (`NeighborLanes`),
//! built from incremental hyperplane enumeration and one `u64` reduction per
//! lane, which also deduplicates (a candidate is identified by its
//! hyperplane and the direction's remainder modulo it). Pricing reads the
//! lanes directly; a candidate's [`PackedBasis`] is built only when a search
//! tries or keeps it. [`PackedNeighborhood`] is the public view with every
//! basis materialized, and the [`Subspace`]-based [`Neighborhood`] view is
//! converted from it on demand.

use std::collections::HashSet;

use gf2::{BitVec, PackedBasis, Subspace};
use serde::{Deserialize, Serialize};

use crate::{ConflictProfile, FunctionClass, XorIndexError};

/// The pool of replacement directions used to build neighbours.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NeighborPool {
    /// Standard basis vectors only (`n` directions). Fastest, coarsest.
    Units,
    /// Standard basis vectors and all pairwise XORs
    /// (`n + n(n−1)/2` directions). The default.
    #[default]
    UnitsAndPairs,
    /// `UnitsAndPairs` plus the `k` heaviest conflict vectors of the profile,
    /// which lets the search explicitly steer the null space around them.
    UnitsPairsAndProfile(usize),
    /// An explicit list of directions.
    Custom(Vec<BitVec>),
}

impl NeighborPool {
    /// Materializes the pool for `n` hashed address bits.
    ///
    /// Directions are deduplicated (first occurrence wins) and the zero
    /// vector is dropped.
    #[must_use]
    pub fn vectors(&self, n: usize, profile: &ConflictProfile) -> Vec<BitVec> {
        let mut out: Vec<BitVec> = Vec::new();
        let mut seen: HashSet<BitVec> = HashSet::new();
        let mut push_unique = |v: BitVec, out: &mut Vec<BitVec>| {
            if !v.is_zero() && seen.insert(v) {
                out.push(v);
            }
        };
        match self {
            NeighborPool::Custom(vectors) => {
                for &v in vectors {
                    push_unique(v, &mut out);
                }
            }
            NeighborPool::Units => {
                for i in 0..n {
                    out.push(BitVec::unit(i, n));
                }
            }
            NeighborPool::UnitsAndPairs | NeighborPool::UnitsPairsAndProfile(_) => {
                for i in 0..n {
                    push_unique(BitVec::unit(i, n), &mut out);
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        push_unique(BitVec::unit(i, n) ^ BitVec::unit(j, n), &mut out);
                    }
                }
                if let NeighborPool::UnitsPairsAndProfile(k) = self {
                    for (v, _) in profile.heaviest(*k) {
                        push_unique(v, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Checks that every direction fits `hashed_bits` address bits. Only a
    /// [`NeighborPool::Custom`] direction can fail; one whose set bits fit
    /// passes whatever its [`BitVec`] width.
    ///
    /// # Errors
    ///
    /// [`XorIndexError::ProfileMismatch`] naming the number of bits the
    /// widest offending direction needs.
    pub fn check_width(&self, hashed_bits: usize) -> Result<(), XorIndexError> {
        let NeighborPool::Custom(vectors) = self else {
            return Ok(());
        };
        let needed = vectors
            .iter()
            .map(|v| 64 - v.as_u64().leading_zeros() as usize)
            .max()
            .unwrap_or(0);
        if needed > hashed_bits {
            return Err(XorIndexError::ProfileMismatch {
                profile_bits: hashed_bits,
                candidate_bits: needed,
            });
        }
        Ok(())
    }

    /// Materializes the pool as packed `u64` directions, the form the
    /// packed-native search algorithms consume. Same contents and order as
    /// [`NeighborPool::vectors`].
    #[must_use]
    pub fn packed_vectors(&self, n: usize, profile: &ConflictProfile) -> Vec<u64> {
        self.vectors(n, profile)
            .iter()
            .map(|v| v.as_u64())
            .collect()
    }
}

/// A neighbourhood in lane form: the retained hyperplanes plus one
/// `(hyperplane index, direction)` lane per candidate, with no candidate
/// basis built — the representation generation, pricing and the search
/// algorithms carry. A lane's basis is materialized
/// ([`NeighborLanes::basis`]) only for the candidates a search tries or
/// keeps.
///
/// Generation rests on two facts about a parent `P`, a hyperplane `H ⊂ P`
/// and a direction `d ∉ P`. First, `E = H ⊕ span(d)` meets `P` exactly in
/// `H`, so two hyperplanes never yield the same candidate. Second, over one
/// `H`, directions `d` and `d′` yield the same `E` iff `H.reduce(d) =
/// H.reduce(d′)`. Deduplication is therefore one `u64` reduction per lane,
/// keeping the first direction per remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NeighborLanes {
    /// Ambient width of the hashed address space.
    pub(crate) width: usize,
    /// The distinct hyperplanes of the parent that lanes retain.
    pub(crate) hyperplanes: Vec<PackedBasis>,
    /// `(index into hyperplanes, direction)` per candidate, in generation
    /// order.
    pub(crate) lanes: Vec<(usize, u64)>,
}

impl NeighborLanes {
    /// Generates the lanes of `parent`'s neighbourhood admissible for
    /// `class`, in the order [`PackedNeighborhood::generate`] documents.
    pub(crate) fn generate(parent: &PackedBasis, class: FunctionClass, pool: &[u64]) -> Self {
        let n = parent.width();
        if class == FunctionClass::BitSelecting {
            return Self::bit_select(parent);
        }
        // Directions inside the parent span never produce a neighbour, and
        // the test does not depend on the hyperplane — filter the pool once
        // instead of once per hyperplane.
        let pool: Vec<u64> = pool
            .iter()
            .copied()
            .filter(|&v| !parent.contains(v))
            .collect();
        // Eq. 5 for `H ⊕ span(d)`: the projections onto the high bits `m..n`
        // of `H`'s rows and of `d` are linearly independent.
        let m = n - parent.dim();
        let high_mask = if m >= 64 { 0 } else { u64::MAX << m };
        let permutation = matches!(class, FunctionClass::PermutationBased { .. });
        let mut seen = RemainderSet::with_capacity(pool.len());
        let mut hyperplanes = Vec::new();
        let mut lanes = Vec::new();
        for hyperplane in parent.hyperplanes() {
            let projected = if permutation {
                let mut projected = PackedBasis::trivial(n);
                if !hyperplane
                    .rows()
                    .iter()
                    .all(|&row| projected.insert(row & high_mask))
                {
                    // `H` itself meets the low span: no extension of it can
                    // satisfy Eq. 5.
                    continue;
                }
                Some(projected)
            } else {
                None
            };
            let hyperplane_index = hyperplanes.len();
            let first_lane = lanes.len();
            seen.clear();
            for &v in &pool {
                if let Some(projected) = &projected {
                    if projected.reduce(v & high_mask) == 0 {
                        continue;
                    }
                }
                if seen.insert(hyperplane.reduce(v)) {
                    lanes.push((hyperplane_index, v));
                }
            }
            if lanes.len() > first_lane {
                hyperplanes.push(hyperplane);
            }
        }
        NeighborLanes {
            width: n,
            hyperplanes,
            lanes,
        }
    }

    /// Structural neighbourhood for bit-selecting functions: the null space is
    /// a coordinate subspace `span{e_i : i ∉ S}`; a neighbour swaps one
    /// excluded bit for one selected bit. The retained hyperplane is the span
    /// of the excluded bits minus the dropped one, and the direction is the
    /// newly excluded unit vector.
    fn bit_select(parent: &PackedBasis) -> Self {
        let n = parent.width();
        let mut hyperplanes = Vec::new();
        let mut lanes = Vec::new();
        // Not a coordinate subspace: no structural neighbours.
        if parent.is_coordinate_subspace() {
            // Canonical rows are sorted by decreasing pivot, so the excluded
            // bits come out in decreasing order (the order the Subspace path
            // produced).
            let excluded: Vec<usize> = parent
                .rows()
                .iter()
                .map(|r| r.trailing_zeros() as usize)
                .collect();
            let selected: Vec<usize> = (0..n).filter(|i| !excluded.contains(i)).collect();
            for &drop in &excluded {
                let hyperplane_index = hyperplanes.len();
                hyperplanes.push(PackedBasis::standard_span(
                    n,
                    excluded.iter().copied().filter(|&b| b != drop),
                ));
                lanes.extend(selected.iter().map(|&add| (hyperplane_index, 1u64 << add)));
            }
        }
        NeighborLanes {
            width: n,
            hyperplanes,
            lanes,
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when there are no lanes.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The canonical basis of lane `i`: its hyperplane extended by its
    /// direction.
    pub(crate) fn basis(&self, i: usize) -> PackedBasis {
        let (hyperplane, direction) = self.lanes[i];
        self.hyperplanes[hyperplane].extended(direction)
    }

    /// Builds every candidate basis: the public [`PackedNeighborhood`] view.
    pub(crate) fn materialize(self) -> PackedNeighborhood {
        let candidates = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, &(hyperplane, direction))| PackedCandidate {
                hyperplane,
                direction,
                basis: self.basis(i),
            })
            .collect();
        PackedNeighborhood {
            width: self.width,
            hyperplanes: self.hyperplanes,
            candidates,
        }
    }
}

/// A subspace every hyperplane of a lane list is a hyperplane *of* — the
/// shared parent the coset-sliced evaluation path reduces against. `None`
/// for an empty lane list.
///
/// The parent is reconstructed rather than stored: two distinct hyperplanes
/// of it sum to it, and when only one hyperplane was retained, the first
/// lane's candidate (`hyperplane ⊕ span(direction)`) serves — the
/// decomposition identities only need the hyperplanes to sit one dimension
/// below the returned span, which that candidate satisfies.
pub(crate) fn parent_span(
    hyperplanes: &[PackedBasis],
    lanes: &[(usize, u64)],
) -> Option<PackedBasis> {
    let &(first_hyperplane, first_direction) = lanes.first()?;
    if hyperplanes.len() >= 2 {
        let mut parent = hyperplanes[0].clone();
        for &row in hyperplanes[1].rows() {
            parent.insert(row);
        }
        debug_assert_eq!(parent.dim(), hyperplanes[0].dim() + 1);
        Some(parent)
    } else {
        Some(hyperplanes[first_hyperplane].extended(first_direction))
    }
}

/// An open-addressed set of non-zero `u64` remainders, sized for one pool
/// and cleared once per hyperplane.
struct RemainderSet {
    slots: Vec<u64>,
}

impl RemainderSet {
    /// A set that holds `len` remainders at a load factor of at most ½.
    fn with_capacity(len: usize) -> Self {
        RemainderSet {
            slots: vec![0; (2 * len).next_power_of_two().max(2)],
        }
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// Adds a non-zero remainder; `true` when it was not present yet.
    fn insert(&mut self, remainder: u64) -> bool {
        debug_assert_ne!(
            remainder, 0,
            "a direction outside the parent has a non-zero remainder"
        );
        let mask = self.slots.len() - 1;
        let mut slot = (remainder.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = remainder;
                    return true;
                }
                seen if seen == remainder => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// A candidate null space of a packed neighbourhood, together with its
/// decomposition `candidate = hyperplane ⊕ span(direction)`.
///
/// The decomposition is what lets the evaluation engine reuse partial sums:
/// `misses(candidate) = misses(hyperplane) + Σ_{u ∈ hyperplane} misses(u ⊕
/// direction)`, and the hyperplane term is shared by every candidate built
/// from the same hyperplane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCandidate {
    /// Index into [`PackedNeighborhood::hyperplanes`] of the retained
    /// hyperplane.
    pub hyperplane: usize,
    /// The packed replacement direction `v ∉ parent`.
    pub direction: u64,
    /// The candidate null space `hyperplane ⊕ span(direction)`, canonical.
    pub basis: PackedBasis,
}

/// The full neighbourhood of a null space in packed form, grouped by retained
/// hyperplane, with every candidate basis materialized — the public view of
/// the lane form the search algorithms carry internally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedNeighborhood {
    /// Ambient width of the hashed address space.
    pub width: usize,
    /// The distinct hyperplanes of the parent that candidates retain.
    pub hyperplanes: Vec<PackedBasis>,
    /// The admissible candidates, in deterministic generation order.
    pub candidates: Vec<PackedCandidate>,
}

impl PackedNeighborhood {
    /// Generates the neighbours of `parent` admissible for `class`, using the
    /// given packed replacement-direction pool.
    ///
    /// Hyperplanes come in [`PackedBasis::hyperplanes`] order, and only those
    /// that yield a candidate are kept. Per hyperplane, candidates follow the
    /// pool order; pool directions inside the parent are skipped, and of the
    /// directions yielding the same candidate only the first is kept. For
    /// the permutation-based class, candidates violating Eq. 5 are left out;
    /// fan-in bounds are cheaper to check on the chosen candidate only, so
    /// they are left to the caller via [`FunctionClass::admits`].
    ///
    /// For the bit-selecting class the neighbourhood is generated structurally
    /// (swap one selected address bit for an unselected one), which is both
    /// exact and far smaller.
    #[must_use]
    pub fn generate(parent: &PackedBasis, class: FunctionClass, pool: &[u64]) -> Self {
        NeighborLanes::generate(parent, class, pool).materialize()
    }

    /// The `(hyperplane, direction)` lanes of the candidates, in order.
    pub(crate) fn lanes(&self) -> Vec<(usize, u64)> {
        self.candidates
            .iter()
            .map(|c| (c.hyperplane, c.direction))
            .collect()
    }

    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Borrowing iterator over the candidate bases, in generation order.
    pub fn bases(&self) -> impl Iterator<Item = &PackedBasis> {
        self.candidates.iter().map(|c| &c.basis)
    }

    /// A subspace every retained hyperplane is a hyperplane *of* — the shared
    /// parent the coset-sliced evaluation path reduces against. `None` for an
    /// empty neighbourhood.
    ///
    /// The parent is reconstructed rather than stored: two distinct
    /// hyperplanes of it sum to it, and when only one hyperplane was
    /// retained, any candidate (`hyperplane ⊕ span(direction)`) serves — the
    /// decomposition identities only need the hyperplanes to sit one
    /// dimension below the returned span, which that candidate satisfies.
    #[must_use]
    pub fn parent_span(&self) -> Option<PackedBasis> {
        let first = self.candidates.first()?;
        parent_span(&self.hyperplanes, &[(first.hyperplane, first.direction)])
    }

    /// Converts to the [`Subspace`]-based boundary view, preserving order and
    /// decomposition. The packed bases are already canonical, so this is pure
    /// unpacking.
    #[must_use]
    pub fn to_neighborhood(&self) -> Neighborhood {
        Neighborhood {
            hyperplanes: self
                .hyperplanes
                .iter()
                .map(PackedBasis::to_subspace)
                .collect(),
            candidates: self
                .candidates
                .iter()
                .map(|c| NeighborCandidate {
                    hyperplane: c.hyperplane,
                    direction: BitVec::from_u64(c.direction, self.width),
                    subspace: c.basis.to_subspace(),
                })
                .collect(),
        }
    }
}

/// A candidate null space of a neighbourhood at the [`Subspace`] boundary,
/// together with its decomposition `candidate = hyperplane ⊕ span(direction)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborCandidate {
    /// Index into [`Neighborhood::hyperplanes`] of the retained hyperplane.
    pub hyperplane: usize,
    /// The replacement direction `v ∉ parent`.
    pub direction: BitVec,
    /// The candidate null space `hyperplane ⊕ span(direction)`, canonical.
    pub subspace: Subspace,
}

/// The full neighbourhood of a null space, grouped by retained hyperplane —
/// the [`Subspace`]-based boundary view of a [`PackedNeighborhood`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighborhood {
    /// The distinct hyperplanes of the parent that candidates retain.
    pub hyperplanes: Vec<Subspace>,
    /// The admissible candidates, in deterministic generation order.
    pub candidates: Vec<NeighborCandidate>,
}

impl Neighborhood {
    /// Number of candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when there are no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Borrowing iterator over the candidate subspaces, in generation order.
    /// Prefer this over [`Neighborhood::subspaces`] when a reference is
    /// enough.
    pub fn iter_subspaces(&self) -> impl Iterator<Item = &Subspace> {
        self.candidates.iter().map(|c| &c.subspace)
    }

    /// The candidate subspaces alone, cloned, in generation order.
    #[must_use]
    pub fn subspaces(&self) -> Vec<Subspace> {
        self.iter_subspaces().cloned().collect()
    }

    /// The candidates re-packed into [`PackedBasis`] form, in generation
    /// order — the entry point for feeding a boundary neighbourhood back to
    /// the packed evaluation kernel (e.g. a serving layer that received the
    /// `Subspace` view).
    pub fn packed_candidates(&self) -> impl Iterator<Item = PackedBasis> + '_ {
        self.candidates
            .iter()
            .map(|c| PackedBasis::from_subspace(&c.subspace))
    }
}

/// Generates the neighbours of `null_space` admissible for `class`, using the
/// given replacement-direction pool.
///
/// Boundary convenience over [`PackedNeighborhood::generate`].
#[must_use]
pub fn neighbors(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> Vec<Subspace> {
    let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
    PackedNeighborhood::generate(&null_space.to_packed(), class, &packed_pool)
        .candidates
        .iter()
        .map(|c| c.basis.to_subspace())
        .collect()
}

/// Generates the neighbourhood of `null_space` with its hyperplane/direction
/// structure preserved, for delta evaluation by the engine.
///
/// Candidates appear in the same deterministic order as [`neighbors`]
/// produces. Boundary convenience over [`PackedNeighborhood::generate`];
/// packed-native callers should use that directly and skip the `Subspace`
/// round-trip.
#[must_use]
pub fn neighborhood(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> Neighborhood {
    let packed_pool: Vec<u64> = pool.iter().map(|v| v.as_u64()).collect();
    PackedNeighborhood::generate(&null_space.to_packed(), class, &packed_pool).to_neighborhood()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BlockAddr;

    fn dummy_profile(n: usize) -> ConflictProfile {
        ConflictProfile::from_blocks((0..10u64).map(|i| BlockAddr((i % 2) * 16)), n, 64)
    }

    #[test]
    fn pool_sizes() {
        let p = dummy_profile(8);
        assert_eq!(NeighborPool::Units.vectors(8, &p).len(), 8);
        assert_eq!(NeighborPool::UnitsAndPairs.vectors(8, &p).len(), 8 + 28);
        let with_profile = NeighborPool::UnitsPairsAndProfile(4).vectors(8, &p);
        assert!(with_profile.len() >= 8 + 28);
        let custom = NeighborPool::Custom(vec![
            BitVec::from_u64(0b101, 8),
            BitVec::from_u64(0b101, 8),
            BitVec::zero(8),
        ]);
        assert_eq!(custom.vectors(8, &p).len(), 1);
        assert_eq!(NeighborPool::default(), NeighborPool::UnitsAndPairs);
    }

    #[test]
    fn pool_deduplication_preserves_first_occurrence_order() {
        let p = dummy_profile(8);
        let custom = NeighborPool::Custom(vec![
            BitVec::from_u64(0b1000, 8),
            BitVec::from_u64(0b0001, 8),
            BitVec::from_u64(0b1000, 8),
            BitVec::from_u64(0b0110, 8),
            BitVec::from_u64(0b0001, 8),
        ]);
        let got = custom.vectors(8, &p);
        assert_eq!(
            got,
            vec![
                BitVec::from_u64(0b1000, 8),
                BitVec::from_u64(0b0001, 8),
                BitVec::from_u64(0b0110, 8),
            ]
        );
    }

    #[test]
    fn packed_pool_matches_bitvec_pool() {
        let p = dummy_profile(8);
        for pool in [
            NeighborPool::Units,
            NeighborPool::UnitsAndPairs,
            NeighborPool::UnitsPairsAndProfile(4),
        ] {
            let bitvecs: Vec<u64> = pool.vectors(8, &p).iter().map(|v| v.as_u64()).collect();
            assert_eq!(pool.packed_vectors(8, &p), bitvecs);
        }
    }

    #[test]
    fn neighbors_differ_in_exactly_one_dimension() {
        let p = dummy_profile(8);
        let ns = Subspace::standard_span(8, 3..8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        let nbrs = neighbors(&ns, FunctionClass::xor_unlimited(), &pool);
        assert!(!nbrs.is_empty());
        for nb in &nbrs {
            assert_eq!(nb.dim(), ns.dim());
            assert_eq!(ns.intersection_dim(nb), ns.dim() - 1, "neighbour {nb}");
            assert_ne!(*nb, ns);
        }
        // No duplicates.
        let distinct: HashSet<_> = nbrs.iter().cloned().collect();
        assert_eq!(distinct.len(), nbrs.len());
    }

    #[test]
    fn permutation_based_neighbors_satisfy_eq5() {
        let p = dummy_profile(8);
        let m = 3;
        let ns = Subspace::standard_span(8, m..8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        let nbrs = neighbors(&ns, FunctionClass::permutation_based_unlimited(), &pool);
        assert!(!nbrs.is_empty());
        for nb in &nbrs {
            assert!(nb.admits_permutation_based_function(m));
        }
        // The permutation-based neighbourhood is a subset of the general one.
        let general = neighbors(&ns, FunctionClass::xor_unlimited(), &pool);
        assert!(nbrs.len() <= general.len());
    }

    #[test]
    fn bit_select_neighbors_swap_one_bit() {
        let ns = Subspace::standard_span(8, [3usize, 4, 5, 6, 7]);
        let nbrs = neighbors(&ns, FunctionClass::bit_selecting(), &[]);
        // 5 excluded bits × 3 selected bits = 15 swaps.
        assert_eq!(nbrs.len(), 15);
        for nb in &nbrs {
            assert_eq!(nb.dim(), 5);
            assert!(nb.basis().iter().all(|b| b.weight() == 1));
            assert_eq!(ns.intersection_dim(nb), 4);
        }
    }

    #[test]
    fn bit_select_of_a_non_coordinate_subspace_is_empty() {
        let parent =
            PackedBasis::from_subspace(&Subspace::from_generators(8, &[BitVec::from_u64(0b11, 8)]));
        let nbhd = PackedNeighborhood::generate(&parent, FunctionClass::bit_selecting(), &[]);
        assert!(nbhd.is_empty());
        assert!(nbhd.hyperplanes.is_empty());
    }

    #[test]
    fn neighborhood_decomposition_is_consistent() {
        // Every candidate must equal its hyperplane extended by its direction,
        // with the direction outside the hyperplane — the invariant the
        // engine's delta evaluation relies on.
        let p = dummy_profile(8);
        let pool = NeighborPool::UnitsAndPairs.vectors(8, &p);
        for (ns, class) in [
            (
                Subspace::standard_span(8, 3..8),
                FunctionClass::xor_unlimited(),
            ),
            (
                Subspace::standard_span(8, 3..8),
                FunctionClass::permutation_based_unlimited(),
            ),
            (
                Subspace::standard_span(8, [3usize, 4, 5, 6, 7]),
                FunctionClass::bit_selecting(),
            ),
        ] {
            let nbhd = neighborhood(&ns, class, &pool);
            assert!(!nbhd.is_empty(), "{class}");
            assert_eq!(nbhd.len(), nbhd.candidates.len());
            for c in &nbhd.candidates {
                let hyperplane = &nbhd.hyperplanes[c.hyperplane];
                assert_eq!(hyperplane.dim(), ns.dim() - 1);
                assert!(ns.contains_subspace(hyperplane));
                assert!(!hyperplane.contains(c.direction), "{class}");
                assert_eq!(hyperplane.extended(c.direction), c.subspace, "{class}");
            }
            // The flat views match the structured view, in order.
            assert_eq!(nbhd.subspaces(), neighbors(&ns, class, &pool));
            let borrowed: Vec<&Subspace> = nbhd.iter_subspaces().collect();
            assert_eq!(borrowed.len(), nbhd.len());
            let repacked: Vec<Subspace> =
                nbhd.packed_candidates().map(|b| b.to_subspace()).collect();
            assert_eq!(repacked, nbhd.subspaces());
        }
    }

    #[test]
    fn packed_and_boundary_views_agree() {
        let p = dummy_profile(8);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(8, &p);
        let parent = PackedBasis::standard_span(8, 3..8);
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based_unlimited(),
        ] {
            let packed = PackedNeighborhood::generate(&parent, class, &pool);
            assert_eq!(packed.width, 8);
            let view = packed.to_neighborhood();
            assert_eq!(view.len(), packed.len());
            assert_eq!(view.hyperplanes.len(), packed.hyperplanes.len());
            for (pc, vc) in packed.candidates.iter().zip(&view.candidates) {
                assert_eq!(pc.hyperplane, vc.hyperplane);
                assert_eq!(pc.direction, vc.direction.as_u64());
                assert_eq!(pc.basis.to_subspace(), vc.subspace);
            }
            for (b, _) in packed.bases().zip(packed.candidates.iter()) {
                assert_eq!(b.width(), 8);
            }
        }
    }

    #[test]
    fn pool_vectors_never_contain_zero() {
        let p = dummy_profile(10);
        for pool in [
            NeighborPool::Units,
            NeighborPool::UnitsAndPairs,
            NeighborPool::UnitsPairsAndProfile(8),
        ] {
            assert!(pool.vectors(10, &p).iter().all(|v| !v.is_zero()));
        }
    }
}
