//! The frozen, shareable pricing core of the evaluation engine.
//!
//! [`FrozenKernel`] is the immutable half of what used to be `EvalEngine`: a
//! [`DenseProfile`] snapshot of one application's conflict histogram plus the
//! Eq. 4 arithmetic: full null-space walks, histogram scans, the
//! hyperplane-delta coset sums and the coset-sliced neighbourhood blocks. Its
//! pricing behaviour is a fixed function of the frozen histogram and the
//! candidate's shape; nothing about it is configurable. It holds no
//! interior mutability at all, so it is `Send + Sync` by construction and one
//! `Arc<FrozenKernel>` can price candidates from any number of threads
//! simultaneously — the [`EvalEngine`](crate::EvalEngine) façade, the search
//! algorithms, and a multi-tenant serving layer all share the same kernel per
//! application instead of re-freezing the histogram per search.
//!
//! Pricing comes in two shapes. The scalar path ([`FrozenKernel::cost`])
//! prices one candidate by enumerating its null space when that takes no
//! more lookups than the histogram has entries, and by scanning the
//! histogram otherwise. The batch path ([`FrozenKernel::cost_batch`] /
//! [`FrozenKernel::cost_batch_sliced`]) transposes up to [`SLICED_LANES`]
//! candidates into a [`SlicedBlock`] and scans the histogram once, advancing
//! every candidate per entry with a word-parallel membership mask;
//! [`FrozenKernel::cost_batch`] picks between the two per block from a
//! word-operation cost model. Both compute the exact Eq. 4 sum,
//! bit-identically.
//!
//! Memoization lives next door in [`ShardedMemo`](crate::ShardedMemo); the
//! kernel itself never caches, so every method here is a pure function of the
//! frozen histogram.

use gf2::{CosetFrame, CosetHistogram, PackedBasis, SlicedBlock, SLICED_LANES};

use crate::estimate::enumeration_pays;
use crate::{BoundedCost, ConflictProfile, DenseProfile, XorIndexError};

/// Cost-model weight of one dense-table point lookup relative to one `u64`
/// ALU operation, used when comparing a `2^dim`-lookup enumeration against
/// the bit-sliced scan's word arithmetic. Calibrated on the susan@4KB
/// workload (`n = 16`, dim 6, ~500 distinct vectors), where a dense lookup
/// costs a few times a dependent XOR chain step.
const ENUM_LOOKUP_UNITS: u128 = 4;

/// Modelled `u64`-operation cost of pricing one candidate alone: the cheaper
/// of enumerating its `2^dim` null-space vectors or scanning the histogram
/// with a `dim`-row reduction per entry.
fn scalar_units(dim: usize, distinct_vectors: usize) -> u128 {
    let enumerate = ENUM_LOOKUP_UNITS << dim.min(100);
    let scan = (distinct_vectors as u128) * (dim.max(1) as u128);
    enumerate.min(scan)
}

/// Modelled `u64`-operation cost of pricing one whole generic sliced block
/// (up to 64 lanes): per histogram entry, one column-slice XOR across
/// `max_checks` check planes for each set bit of the entry
/// (`mean_popcount`).
fn sliced_units(mean_popcount: usize, max_checks: usize, distinct_vectors: usize) -> u128 {
    (distinct_vectors as u128) * (max_checks.max(1) as u128) * (mean_popcount as u128 + 1)
}

/// The immutable Eq. 4 pricing core over a frozen [`DenseProfile`],
/// shareable across threads via `Arc`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cache_sim::BlockAddr;
/// use gf2::PackedBasis;
/// use xorindex::{ConflictProfile, FrozenKernel, MissEstimator};
///
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// let kernel = Arc::new(FrozenKernel::new(&profile));
///
/// let ns = PackedBasis::standard_span(16, 8..16);
/// // The kernel prices through &self, so clones of the Arc can evaluate
/// // concurrently; results are bit-identical to the reference estimator.
/// assert_eq!(
///     kernel.cost(&ns),
///     MissEstimator::new(&profile).estimate_packed(&ns)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FrozenKernel {
    dense: DenseProfile,
}

impl FrozenKernel {
    /// Freezes a profile's histogram into a kernel.
    #[must_use]
    pub fn new(profile: &ConflictProfile) -> Self {
        FrozenKernel {
            dense: DenseProfile::from_profile(profile),
        }
    }

    /// Builds a kernel over an already-frozen dense profile.
    #[must_use]
    pub fn from_dense(dense: DenseProfile) -> Self {
        FrozenKernel { dense }
    }

    /// The frozen dense view of the histogram.
    #[must_use]
    pub fn dense(&self) -> &DenseProfile {
        &self.dense
    }

    /// Number of hashed address bits the kernel prices against.
    #[must_use]
    pub fn hashed_bits(&self) -> usize {
        self.dense.hashed_bits()
    }

    /// Asserts that a candidate's ambient width matches the profile's hashed
    /// width (the precondition of every pricing method).
    ///
    /// # Panics
    ///
    /// Panics on mismatch.
    pub fn check_width(&self, basis: &PackedBasis) {
        assert_eq!(
            basis.width(),
            self.dense.hashed_bits(),
            "null space width must match the profile"
        );
    }

    /// The exact Eq. 4 sum for one packed null space — a fresh evaluation,
    /// never memoized. Enumerates the null space when its `2^dim − 1`
    /// non-zero vectors are no more than the histogram's distinct vectors,
    /// and scans the histogram otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost(&self, basis: &PackedBasis) -> u64 {
        self.check_width(basis);
        if self.enumerates(basis.dim()) {
            // The zero vector carries weight 0, so it needs no special case.
            basis.vectors().map(|v| self.dense.misses_of(v)).sum()
        } else {
            self.dense
                .iter()
                .filter(|&(v, _)| basis.contains(v))
                .map(|(_, w)| w)
                .sum()
        }
    }

    /// `true` when scalar pricing enumerates a null space of dimension `dim`
    /// rather than scanning the histogram.
    fn enumerates(&self, dim: usize) -> bool {
        enumeration_pays(dim, self.dense.distinct_vectors())
    }

    /// Checked width test: `Ok` exactly when `basis` has the profile's hashed
    /// width, the precondition of every pricing method.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::ProfileMismatch`] on mismatch — the typed
    /// counterpart of the panicking [`FrozenKernel::check_width`], for
    /// callers (like a serving layer) that must survive malformed requests.
    pub fn ensure_width(&self, basis: &PackedBasis) -> Result<(), XorIndexError> {
        if basis.width() == self.dense.hashed_bits() {
            Ok(())
        } else {
            Err(XorIndexError::ProfileMismatch {
                profile_bits: self.dense.hashed_bits(),
                candidate_bits: basis.width(),
            })
        }
    }

    /// Non-panicking [`FrozenKernel::cost`]: prices the candidate, or reports
    /// the width mismatch as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::ProfileMismatch`] when the basis's ambient
    /// width differs from the profile's hashed width.
    pub fn try_cost(&self, basis: &PackedBasis) -> Result<u64, XorIndexError> {
        self.ensure_width(basis)?;
        Ok(self.cost(basis))
    }

    /// Prices a batch of candidates, chunking it into blocks of at most
    /// [`SLICED_LANES`] and pricing each block by one bit-sliced scan or per
    /// candidate, whichever a `u64`-operation cost model says is cheaper for
    /// the block's dimensions. Results are aligned with `bases` and
    /// bit-identical to calling [`FrozenKernel::cost`] per candidate.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    #[must_use]
    pub fn cost_batch(&self, bases: &[&PackedBasis]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bases.len());
        for chunk in bases.chunks(SLICED_LANES) {
            let dims: Vec<usize> = chunk.iter().map(|b| b.dim()).collect();
            if self.slices_batch(&dims) {
                out.extend(self.cost_block_sliced(chunk));
            } else {
                out.extend(chunk.iter().map(|b| self.cost(b)));
            }
        }
        out
    }

    /// Bit-sliced batch pricing of every candidate: each chunk of up to
    /// [`SLICED_LANES`] candidates is transposed into a [`SlicedBlock`] and
    /// priced by one histogram scan, whatever the cost model would pick.
    /// Bit-identical to [`FrozenKernel::cost`] per candidate; the engine's
    /// sliced batch blocks run on it.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    #[must_use]
    pub fn cost_batch_sliced(&self, bases: &[&PackedBasis]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bases.len());
        for chunk in bases.chunks(SLICED_LANES) {
            out.extend(self.cost_block_sliced(chunk));
        }
        out
    }

    /// One transposed scan over the histogram, pricing a whole block: per
    /// entry, the block's membership mask says which lanes' null spaces
    /// contain the vector, and the entry's weight is added to exactly those
    /// lanes' sums — Eq. 4 for all lanes at once.
    fn cost_block_sliced(&self, chunk: &[&PackedBasis]) -> Vec<u64> {
        for basis in chunk {
            self.check_width(basis);
        }
        let block = SlicedBlock::from_bases(chunk.iter().copied());
        let mut sums = vec![0u64; chunk.len()];
        let mut scratch = [0u64; SLICED_LANES];
        for (v, w) in self.dense.iter() {
            let mut mask = block.member_mask_scratch(v, &mut scratch);
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                sums[lane] += w;
            }
        }
        sums
    }

    /// `true` when a batch of candidates with these null-space dimensions is
    /// cheaper to price by one transposed histogram scan per 64-lane block
    /// than one candidate at a time, under a `u64`-operation cost model.
    /// Single-candidate batches never slice.
    pub(crate) fn slices_batch(&self, dims: &[usize]) -> bool {
        if dims.len() <= 1 {
            return false;
        }
        let distinct = self.dense.distinct_vectors();
        let scalar: u128 = dims.iter().map(|&dim| scalar_units(dim, distinct)).sum();
        let max_checks = dims
            .iter()
            .map(|&dim| self.hashed_bits() - dim)
            .max()
            .unwrap_or(0);
        sliced_units(self.dense.mean_popcount(), max_checks, distinct) < scalar
    }

    /// Prices a whole neighbourhood of candidates `hyperplanes[h] ⊕
    /// span(direction)` over one shared `parent` through the coset-sliced
    /// path. The per-neighbourhood work is hoisted once — hyperplane
    /// functionals into a [`CosetFrame`], the histogram grouped by parent
    /// remainder into a [`CosetHistogram`] — then each block of up to
    /// [`SLICED_LANES`] lanes is stamped and summed from only the entries its
    /// lanes' cosets select. Results align with `lanes` and are bit-identical
    /// to [`FrozenKernel::cost`] on each materialized extension.
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width, or if a hyperplane or lane is not a valid hyperplane/direction
    /// decomposition over the parent (see [`CosetFrame::new`] and
    /// [`CosetFrame::block`]).
    #[must_use]
    pub fn cost_neighborhood_sliced(
        &self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
    ) -> Vec<u64> {
        self.check_width(parent);
        if lanes.is_empty() {
            return Vec::new();
        }
        let (frame, histogram) = self.neighborhood_scaffold(parent, hyperplanes);
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(SLICED_LANES) {
            out.extend(frame.block(chunk).sum_weights(&histogram));
        }
        out
    }

    /// Builds the per-neighbourhood scaffolding the coset-sliced paths share:
    /// the [`CosetFrame`] of hyperplane functionals and the [`CosetHistogram`]
    /// grouping of the whole dense profile by parent remainder.
    ///
    /// [`FrozenKernel::cost_neighborhood_sliced`] builds this internally per
    /// call; orchestrating callers (the engine's scaffold cache, parallel
    /// block stamping) build it once here and then stamp and sum blocks
    /// themselves via [`CosetFrame::block`] and
    /// [`gf2::SlicedCosetBlock::sum_weights`].
    ///
    /// # Panics
    ///
    /// Panics if the parent's ambient width differs from the profile's hashed
    /// width, or if a hyperplane is not a hyperplane of the parent.
    #[must_use]
    pub fn neighborhood_scaffold(
        &self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
    ) -> (CosetFrame, CosetHistogram) {
        self.check_width(parent);
        (
            CosetFrame::new(parent, hyperplanes),
            CosetHistogram::new(parent, self.dense.iter()),
        )
    }

    /// [`FrozenKernel::cost_neighborhood_sliced`] under an incumbent bound:
    /// lanes whose running sum saturates `bound` are abandoned
    /// ([`BoundedCost::AtLeast`]) and whole blocks stop scanning once every
    /// lane has saturated. Lanes with true cost below the bound are priced
    /// exactly, bit-identical to the unbounded path.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FrozenKernel::cost_neighborhood_sliced`].
    #[must_use]
    pub fn cost_neighborhood_bounded(
        &self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        self.check_width(parent);
        if lanes.is_empty() {
            return Vec::new();
        }
        let (frame, histogram) = self.neighborhood_scaffold(parent, hyperplanes);
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(SLICED_LANES) {
            let (sums, saturated) = frame.block(chunk).sum_weights_bounded(&histogram, bound);
            out.extend(sums.iter().enumerate().map(|(j, &sum)| {
                if saturated & (1u64 << j) == 0 {
                    BoundedCost::Exact(sum)
                } else {
                    BoundedCost::AtLeast(bound)
                }
            }));
        }
        out
    }

    /// [`FrozenKernel::cost`] under an incumbent bound: the scan abandons as
    /// soon as the running sum saturates `bound`, returning
    /// [`BoundedCost::AtLeast`] instead of the exact count. A candidate whose
    /// true cost is below the bound is priced exactly (the running sum is
    /// monotone, so it never saturates early).
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn cost_bounded(&self, basis: &PackedBasis, bound: u64) -> BoundedCost {
        self.check_width(basis);
        let mut sum = 0u64;
        let saturated = if self.enumerates(basis.dim()) {
            basis.vectors().any(|v| {
                sum += self.dense.misses_of(v);
                sum >= bound
            })
        } else {
            self.dense
                .iter()
                .filter(|&(v, _)| basis.contains(v))
                .any(|(_, w)| {
                    sum += w;
                    sum >= bound
                })
        };
        if saturated {
            BoundedCost::AtLeast(bound)
        } else {
            BoundedCost::Exact(sum)
        }
    }

    /// Prices a neighbour `hyperplane ⊕ span(direction)` from its hyperplane's
    /// already-known cost: `misses(M ⊕ span(w)) = misses(M) + Σ_{u∈M}
    /// misses(u ⊕ w)` — the one-generator-delta identity the neighbourhood
    /// batches exploit. Every coset vector is non-zero (the direction lies
    /// outside the hyperplane), and the zero vector carries weight 0 anyway.
    #[must_use]
    pub fn neighbour_cost(
        &self,
        hyperplane_cost: u64,
        hyperplane: &PackedBasis,
        direction: u64,
    ) -> u64 {
        hyperplane_cost
            + hyperplane
                .coset(direction)
                .map(|v| self.dense.misses_of(v))
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimationStrategy, HashFunction, MissEstimator};
    use cache_sim::BlockAddr;

    fn mixed_profile() -> ConflictProfile {
        let seq: Vec<u64> = (0..400u64)
            .map(|i| match i % 5 {
                0 => 0,
                1 => 0x40,
                2 => 0x80,
                3 => 0x23,
                _ => 0xC0,
            })
            .collect();
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), 12, 64)
    }

    #[test]
    fn kernel_is_send_sync_and_prices_like_the_estimator() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenKernel>();

        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        for strategy in [
            EstimationStrategy::Auto,
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            for m in 2..=11 {
                let ns = HashFunction::conventional(12, m).unwrap().null_space();
                assert_eq!(
                    kernel.cost(&ns.to_packed()),
                    estimator.estimate_null_space(&ns),
                    "{strategy:?}, m={m}"
                );
            }
        }
    }

    #[test]
    fn one_kernel_prices_identically_from_many_threads() {
        let profile = mixed_profile();
        let kernel = std::sync::Arc::new(FrozenKernel::new(&profile));
        let candidates: Vec<PackedBasis> = (2..=8)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let expected: Vec<u64> = candidates.iter().map(|b| kernel.cost(b)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let kernel = std::sync::Arc::clone(&kernel);
                let candidates = &candidates;
                let expected = &expected;
                scope.spawn(move || {
                    let got: Vec<u64> = candidates.iter().map(|b| kernel.cost(b)).collect();
                    assert_eq!(&got, expected);
                });
            }
        });
    }

    #[test]
    fn neighbour_cost_matches_a_fresh_evaluation() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        for hyperplane in parent.hyperplanes() {
            let hyperplane_cost = kernel.cost(&hyperplane);
            let direction = parent
                .vectors()
                .find(|&v| v != 0 && !hyperplane.contains(v))
                .expect("a hyperplane misses half the parent");
            assert_eq!(
                kernel.neighbour_cost(hyperplane_cost, &hyperplane, direction),
                kernel.cost(&hyperplane.extended(direction))
            );
        }
    }

    #[test]
    fn from_dense_and_new_agree() {
        let profile = mixed_profile();
        let a = FrozenKernel::new(&profile);
        let b = FrozenKernel::from_dense(DenseProfile::from_profile(&profile));
        assert_eq!(a.dense(), b.dense());
        assert_eq!(a.hashed_bits(), 12);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_panics() {
        let kernel = FrozenKernel::new(&mixed_profile());
        let _ = kernel.cost(&PackedBasis::standard_span(8, 0..4));
    }

    #[test]
    fn try_cost_reports_width_mismatch_as_a_typed_error() {
        let kernel = FrozenKernel::new(&mixed_profile());
        let good = PackedBasis::standard_span(12, 6..12);
        assert_eq!(kernel.try_cost(&good).unwrap(), kernel.cost(&good));
        let bad = PackedBasis::standard_span(8, 0..4);
        assert!(matches!(
            kernel.try_cost(&bad),
            Err(crate::XorIndexError::ProfileMismatch {
                profile_bits: 12,
                candidate_bits: 8,
            })
        ));
        assert!(kernel.ensure_width(&good).is_ok());
        assert!(kernel.ensure_width(&bad).is_err());
    }

    #[test]
    fn batch_paths_are_bit_identical_under_every_strategy() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let bases: Vec<PackedBasis> = (0..=10)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .chain((2..=11).map(|m| {
                HashFunction::conventional(12, m)
                    .unwrap()
                    .null_space()
                    .to_packed()
            }))
            .collect();
        // The bases straddle the scalar crossover, so both scalar strategies
        // (enumerate and scan) price some of them.
        assert!(bases.iter().any(|b| kernel.enumerates(b.dim())));
        assert!(bases.iter().any(|b| !kernel.enumerates(b.dim())));
        let refs: Vec<&PackedBasis> = bases.iter().collect();
        let scalar: Vec<u64> = refs.iter().map(|b| kernel.cost(b)).collect();
        assert_eq!(kernel.cost_batch(&refs), scalar, "cost_batch");
        assert_eq!(kernel.cost_batch_sliced(&refs), scalar, "cost_batch_sliced");
        assert_eq!(
            kernel.cost_batch(&refs[..1]),
            scalar[..1],
            "single candidate"
        );
        // A single-candidate batch never slices.
        assert!(!kernel.slices_batch(&[6]));
    }

    #[test]
    fn cost_block_reports_the_resolved_strategy() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        // Wide null spaces over this small histogram are cheaper to price by
        // one transposed scan; two narrow ones are cheaper one at a time.
        let wide: Vec<PackedBasis> = (2..=9)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        let narrow: Vec<PackedBasis> = (10..=11)
            .map(|m| PackedBasis::standard_span(12, m..12))
            .collect();
        for (bases, slices) in [(&wide, true), (&narrow, false)] {
            let refs: Vec<&PackedBasis> = bases.iter().collect();
            let dims: Vec<usize> = refs.iter().map(|b| b.dim()).collect();
            assert_eq!(kernel.slices_batch(&dims), slices, "{dims:?}");
            // A single-candidate block never slices.
            assert!(!kernel.slices_batch(&dims[..1]), "{dims:?}");
            // Whichever path a block resolves to, the costs are the scalar costs.
            let scalar: Vec<u64> = refs.iter().map(|b| kernel.cost(b)).collect();
            assert_eq!(kernel.cost_batch(&refs), scalar, "{dims:?}");
        }
    }

    #[test]
    fn cost_neighborhood_sliced_matches_materialized_extensions() {
        let profile = mixed_profile();
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        // Enough lanes to cross a block boundary, including directions inside
        // the parent (whose candidate degenerates to the parent itself).
        let mut lanes: Vec<(usize, u64)> = Vec::new();
        'outer: for (h, hyperplane) in hyperplanes.iter().enumerate() {
            for v in 1..(1u64 << 12) {
                if !hyperplane.contains(v) {
                    lanes.push((h, v));
                }
                if lanes.len() == 150 {
                    break 'outer;
                }
            }
        }
        let kernel = FrozenKernel::new(&profile);
        let costs = kernel.cost_neighborhood_sliced(&parent, &hyperplanes, &lanes);
        assert_eq!(costs.len(), lanes.len());
        for (&(h, d), &cost) in lanes.iter().zip(&costs) {
            assert_eq!(
                cost,
                kernel.cost(&hyperplanes[h].extended(d)),
                "lane ({h}, {d:#x})"
            );
        }
        assert!(kernel
            .cost_neighborhood_sliced(&parent, &hyperplanes, &[])
            .is_empty());
    }

    #[test]
    fn bounded_neighborhood_is_exact_below_the_bound_and_at_least_above() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let mut lanes: Vec<(usize, u64)> = Vec::new();
        'outer: for (h, hyperplane) in hyperplanes.iter().enumerate() {
            for v in 1..(1u64 << 12) {
                if !hyperplane.contains(v) {
                    lanes.push((h, v));
                }
                if lanes.len() == 150 {
                    break 'outer;
                }
            }
        }
        let exact = kernel.cost_neighborhood_sliced(&parent, &hyperplanes, &lanes);
        let lo = *exact.iter().min().unwrap();
        let hi = *exact.iter().max().unwrap();
        for bound in [0, lo, lo + (hi - lo) / 2, hi + 1] {
            let bounded = kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, bound);
            assert_eq!(bounded.len(), exact.len());
            for (lane, (&true_cost, &got)) in exact.iter().zip(&bounded).enumerate() {
                match got {
                    BoundedCost::Exact(cost) => {
                        assert_eq!(cost, true_cost, "bound={bound} lane={lane}")
                    }
                    BoundedCost::AtLeast(b) => {
                        assert_eq!(b, bound);
                        assert!(true_cost >= bound, "bound={bound} lane={lane}");
                    }
                }
            }
        }
        // Above every cost the bounded path is the exact path, lane for lane.
        let bounded = kernel.cost_neighborhood_bounded(&parent, &hyperplanes, &lanes, hi + 1);
        let unwrapped: Vec<u64> = bounded.iter().map(|c| c.exact().unwrap()).collect();
        assert_eq!(unwrapped, exact);
        assert!(kernel
            .cost_neighborhood_bounded(&parent, &hyperplanes, &[], 10)
            .is_empty());
    }

    #[test]
    fn bounded_scalar_cost_matches_under_every_strategy() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let dims: Vec<usize> = (1..=10).collect();
        // Dimensions on both sides of the scalar crossover: the bounded scan
        // and the bounded enumeration both run.
        assert!(dims.iter().any(|&d| kernel.enumerates(d)));
        assert!(dims.iter().any(|&d| !kernel.enumerates(d)));
        for dim in dims {
            // Bits 6, 7, … first, so even the enumerated spans catch weight.
            let ns = PackedBasis::standard_span(12, (6..18).map(|b| b % 12).take(dim));
            let exact = kernel.cost(&ns);
            assert_eq!(
                kernel.cost_bounded(&ns, exact + 1),
                BoundedCost::Exact(exact),
                "dim={dim}"
            );
            assert_eq!(kernel.cost_bounded(&ns, exact + 1).lower_bound(), exact);
            if exact > 0 {
                assert_eq!(
                    kernel.cost_bounded(&ns, exact),
                    BoundedCost::AtLeast(exact),
                    "dim={dim}"
                );
            }
        }
    }

    #[test]
    fn neighborhood_route_resolves_by_shape() {
        use crate::engine::DELTA_MAX_DIM;
        use crate::search::{NeighborPool, PackedNeighborhood};
        use crate::{EvalEngine, FunctionClass};

        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // The route depends only on the candidates' dimension: a single-lane
        // neighbourhood takes the same route as a full fan of that dimension.
        for dim in 1..=11 {
            let parent = PackedBasis::standard_span(12, 12 - dim..12);
            let fan = PackedNeighborhood::generate(&parent, FunctionClass::xor_unlimited(), &pool);
            assert!(!fan.candidates.is_empty(), "dim={dim}");
            let mut single = fan.clone();
            single.candidates.truncate(1);
            for nbhd in [&fan, &single] {
                let lanes = nbhd.candidates.len();
                let mut engine = EvalEngine::new(&profile);
                let costs = engine.estimate_neighborhood(nbhd);
                let stats = engine.stats();
                if dim <= DELTA_MAX_DIM {
                    assert!(
                        stats.support_evaluations > 0 && stats.sliced_blocks == 0,
                        "dim={dim}, lanes={lanes}: {stats:?}"
                    );
                } else {
                    assert!(
                        stats.sliced_blocks > 0,
                        "dim={dim}, lanes={lanes}: {stats:?}"
                    );
                }
                let scalar: Vec<u64> = nbhd.bases().map(|b| kernel.cost(b)).collect();
                assert_eq!(costs, scalar, "dim={dim}, lanes={lanes}");
            }
        }
    }

    #[test]
    fn neighborhood_scaffold_prices_like_the_one_shot_path() {
        let profile = mixed_profile();
        let kernel = FrozenKernel::new(&profile);
        let parent = PackedBasis::standard_span(12, 6..12);
        let hyperplanes: Vec<PackedBasis> = parent.hyperplanes().collect();
        let lanes: Vec<(usize, u64)> = hyperplanes
            .iter()
            .enumerate()
            .map(|(h, hyperplane)| {
                let d = (1..(1u64 << 12))
                    .find(|&v| !hyperplane.contains(v))
                    .unwrap();
                (h, d)
            })
            .collect();
        let (frame, histogram) = kernel.neighborhood_scaffold(&parent, &hyperplanes);
        let via_scaffold: Vec<u64> = lanes
            .chunks(SLICED_LANES)
            .flat_map(|chunk| frame.block(chunk).sum_weights(&histogram))
            .collect();
        assert_eq!(
            via_scaffold,
            kernel.cost_neighborhood_sliced(&parent, &hyperplanes, &lanes)
        );
    }
}
