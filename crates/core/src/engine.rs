//! Dense evaluation engine for Eq. 4 over whole candidate sets.
//!
//! [`MissEstimator`](crate::MissEstimator) evaluates one candidate at a time
//! against the `HashMap` histogram; every search step re-pays key hashing,
//! `Subspace` traversal and — across steps — re-evaluation of candidates the
//! search has already seen. [`EvalEngine`] is the batch-oriented replacement
//! the search algorithms run on. Since the engine split it is a thin façade
//! over two shareable parts:
//!
//! * [`FrozenKernel`] — the immutable pricing core: the [`DenseProfile`]
//!   snapshot plus all Eq. 4 arithmetic (full walks, histogram scans,
//!   hyperplane-delta coset sums, coset-sliced blocks). `Send + Sync`,
//!   shared via `Arc` so one kernel per application serves any number of
//!   searches and serving workers concurrently.
//! * [`ShardedMemo`] — the concurrent `CanonicalKey → u64` memo, sharded
//!   across `Mutex<HashMap>` shards selected by the key hash, probe-able
//!   allocation-free, with per-shard hit/miss stats and an optional entry
//!   cap.
//!
//! The façade adds what a single search loop needs on top: per-engine work
//! counters ([`EngineStats`]), batch orchestration with
//! `std::thread::scope` parallelism, and the choice of neighbourhood route,
//! which depends only on the candidates' null-space dimension (see
//! [`EvalEngine::estimate_neighborhood`]). All paths compute the exact Eq. 4
//! sum; estimates are bit-identical to
//! [`MissEstimator`](crate::MissEstimator) under either of its strategies,
//! with or without a memo cap, and however many engines share one kernel and
//! memo.

use std::sync::Arc;

use gf2::{PackedBasis, Subspace, SLICED_LANES};

use crate::search::{parent_span, Neighborhood, PackedNeighborhood};
use crate::{BoundedCost, ConflictProfile, DenseProfile, FrozenKernel, ScaffoldCache, ShardedMemo};

/// Minimum number of fresh candidates before a batch is split across threads
/// (below this the spawn overhead dominates).
const PARALLEL_THRESHOLD: usize = 8;

/// Largest candidate null-space dimension whose neighbourhoods are priced by
/// hyperplane deltas; above it they go through bounded or unbounded
/// coset-sliced blocks.
///
/// A delta lane sums `2^(dim−1)` point lookups and is always priced (and
/// memoized) in full, while a coset block shares one parent reduction per
/// histogram entry across up to 64 lanes and abandons lanes that reach the
/// incumbent. The `sliced_batch` bench's `lame*/delta` and
/// `lame*/coset_bounded` rows price whole lame climbs (`n = 16`) at dims 4,
/// 5, 6 and 8 both ways: delta is faster only at dim 4 (1.4–1.8× there,
/// 1.7–4.2× slower above; the module docs of that bench list the rows).
pub(crate) const DELTA_MAX_DIM: usize = 4;

/// Counters describing the work an [`EvalEngine`] has performed.
///
/// These are per-engine (per-façade) counters: an engine sharing its
/// [`ShardedMemo`] with other engines still reports only its own evaluations
/// and hits here; the shared table's global view is
/// [`ShardedMemo::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Unique candidate Eq. 4 evaluations computed (full walks, scans or
    /// coset deltas).
    pub evaluations: u64,
    /// Hyperplane partial sums computed to support delta evaluation; each is
    /// half the work of a full candidate walk and is shared by every
    /// neighbour retaining that hyperplane.
    pub support_evaluations: u64,
    /// Candidate costs answered from the memo table.
    pub memo_hits: u64,
    /// Batches that were split across threads.
    pub parallel_batches: u64,
    /// Transposed 64-lane blocks priced by one histogram scan each (generic
    /// sliced blocks and neighbourhood coset blocks alike).
    pub sliced_blocks: u64,
    /// Coset scaffoldings (frame + grouped histogram) answered from this
    /// engine's [`ScaffoldCache`].
    pub scaffold_hits: u64,
    /// Coset scaffoldings built from the dense profile.
    pub scaffold_misses: u64,
    /// Lanes abandoned by bounded pricing because their running sum saturated
    /// the incumbent bound (reported as [`BoundedCost::AtLeast`], never
    /// memoized, not counted as evaluations).
    pub bounded_abandons: u64,
}

/// Batch evaluator of Eq. 4 (`misses(H) = Σ_{v ∈ N(H)} misses(v)`) over a
/// frozen [`DenseProfile`] — a compatibility façade over an
/// `Arc<`[`FrozenKernel`]`>` and a [`ShardedMemo`].
///
/// Cloning an engine clones the `Arc` and the memo *handle*: the clone prices
/// against the same kernel and shares the same memo table (its
/// [`EngineStats`] start fresh).
///
/// # Example
///
/// ```
/// use cache_sim::BlockAddr;
/// use xorindex::{ConflictProfile, EvalEngine, HashFunction, MissEstimator};
///
/// let trace = (0..20u64).map(|i| BlockAddr((i % 2) * 0x100));
/// let profile = ConflictProfile::from_blocks(trace, 16, 256);
/// let conventional = HashFunction::conventional(16, 8)?;
///
/// let mut engine = EvalEngine::new(&profile);
/// let ns = conventional.null_space();
/// assert_eq!(
///     engine.evaluate(&ns),
///     MissEstimator::new(&profile).estimate(&conventional)?
/// );
/// // The second query is a memo hit.
/// engine.evaluate(&ns);
/// assert_eq!(engine.stats().evaluations, 1);
/// assert_eq!(engine.stats().memo_hits, 1);
/// # Ok::<(), xorindex::XorIndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EvalEngine<'a> {
    profile: &'a ConflictProfile,
    kernel: Arc<FrozenKernel>,
    memo: ShardedMemo,
    scaffold: ScaffoldCache,
    threads: usize,
    stats: EngineStats,
}

impl<'a> EvalEngine<'a> {
    /// Builds an engine over a profile, freezing its histogram into a private
    /// kernel. Uses as many threads as the host exposes.
    #[must_use]
    pub fn new(profile: &'a ConflictProfile) -> Self {
        Self::from_parts(
            profile,
            Arc::new(FrozenKernel::new(profile)),
            ShardedMemo::new(),
        )
    }

    /// Assembles an engine from an existing kernel and memo handle — the
    /// sharing entry point: several engines (across searches, threads or
    /// serving workers) built from clones of the same `Arc` and memo answer
    /// from one frozen histogram and one cache.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was frozen for a different hashed width than
    /// `profile` records.
    #[must_use]
    pub fn from_parts(
        profile: &'a ConflictProfile,
        kernel: Arc<FrozenKernel>,
        memo: ShardedMemo,
    ) -> Self {
        assert_eq!(
            kernel.hashed_bits(),
            profile.hashed_bits(),
            "kernel width must match the profile"
        );
        EvalEngine {
            profile,
            kernel,
            memo,
            scaffold: ScaffoldCache::new(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            stats: EngineStats::default(),
        }
    }

    /// Caps the number of worker threads batches may use (1 = sequential).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the memo with a fresh entry-capped table (see
    /// [`ShardedMemo::with_capacity`]); estimates are unaffected, overflow
    /// is recomputed instead of cached. Call at construction time.
    #[must_use]
    pub fn with_memo_capacity(mut self, total_entries: usize) -> Self {
        self.memo = ShardedMemo::with_capacity(total_entries);
        self
    }

    /// Replaces the coset scaffolding cache with the given handle — the
    /// sharing entry point: engines (and a serving layer) holding clones of
    /// one cache pool their per-parent frames and grouped histograms. Also
    /// the way to resize it: pass
    /// [`ScaffoldCache::with_capacity`]`(n)`.
    #[must_use]
    pub fn with_scaffold_cache(mut self, cache: ScaffoldCache) -> Self {
        self.scaffold = cache;
        self
    }

    /// The profile this engine evaluates against.
    #[must_use]
    pub fn profile(&self) -> &ConflictProfile {
        self.profile
    }

    /// The shared pricing kernel. Clone the `Arc` to share it with another
    /// engine or a serving layer.
    #[must_use]
    pub fn kernel(&self) -> &Arc<FrozenKernel> {
        &self.kernel
    }

    /// The memo handle. Clones share this engine's table.
    #[must_use]
    pub fn memo(&self) -> &ShardedMemo {
        &self.memo
    }

    /// The coset scaffolding cache handle. Clones share this engine's table.
    #[must_use]
    pub fn scaffold_cache(&self) -> &ScaffoldCache {
        &self.scaffold
    }

    /// The frozen dense view of the histogram.
    #[must_use]
    pub fn dense(&self) -> &DenseProfile {
        self.kernel.dense()
    }

    /// Work counters accumulated since construction (or the last
    /// [`EvalEngine::reset`]).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Clears the memo table, the scaffolding cache and the counters, keeping
    /// the frozen kernel. The memo and scaffold clears affect every handle
    /// sharing those tables.
    pub fn reset(&mut self) {
        self.memo.clear();
        self.scaffold.clear();
        self.stats = EngineStats::default();
    }

    /// Estimated conflict misses of any function whose null space is `basis`,
    /// memoized on the canonical key — the packed-native single-candidate
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    pub fn estimate_packed(&mut self, basis: &PackedBasis) -> u64 {
        self.kernel.check_width(basis);
        let kernel = &self.kernel;
        let (cost, hit) = self.memo.price_with(basis, || kernel.cost(basis));
        if hit {
            self.stats.memo_hits += 1;
        } else {
            self.stats.evaluations += 1;
        }
        cost
    }

    /// Estimated conflict misses of any function whose null space is `ns`,
    /// memoized on the canonical null space. Boundary wrapper over
    /// [`EvalEngine::estimate_packed`].
    ///
    /// # Panics
    ///
    /// Panics if the null space's ambient width differs from the profile's
    /// hashed width.
    pub fn evaluate(&mut self, ns: &Subspace) -> u64 {
        self.estimate_packed(&ns.to_packed())
    }

    /// One-shot packed evaluation that bypasses the memo table (useful for
    /// benchmarking the raw evaluation kernel).
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    #[must_use]
    pub fn estimate_packed_fresh(&self, basis: &PackedBasis) -> u64 {
        self.kernel.cost(basis)
    }

    /// One-shot evaluation that bypasses the memo table. Boundary wrapper
    /// over [`EvalEngine::estimate_packed_fresh`].
    ///
    /// # Panics
    ///
    /// Panics if the null space's ambient width differs from the profile's
    /// hashed width.
    #[must_use]
    pub fn evaluate_fresh(&self, ns: &Subspace) -> u64 {
        self.estimate_packed_fresh(&ns.to_packed())
    }

    /// Prices a whole batch of packed candidates, answering memoized ones
    /// from cache and computing the rest in parallel when the batch is large
    /// enough — the packed-native batch entry point.
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn estimate_batch(&mut self, candidates: &[PackedBasis]) -> Vec<u64> {
        let refs: Vec<&PackedBasis> = candidates.iter().collect();
        self.estimate_batch_refs(&refs)
    }

    /// Evaluates a whole batch of candidates. Boundary wrapper over
    /// [`EvalEngine::estimate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn evaluate_all(&mut self, candidates: &[Subspace]) -> Vec<u64> {
        let packed: Vec<PackedBasis> = candidates.iter().map(Subspace::to_packed).collect();
        self.estimate_batch(&packed)
    }

    /// Shared batch core over borrowed packed bases: memo-probe every
    /// candidate, then price the misses per candidate in parallel, or
    /// transposed into 64-lane sliced blocks with whole blocks as the unit of
    /// parallelism when the kernel's cost model says slicing is cheaper, and
    /// backfill the memo from the batch results.
    fn estimate_batch_refs(&mut self, candidates: &[&PackedBasis]) -> Vec<u64> {
        let mut out = vec![0u64; candidates.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, basis) in candidates.iter().enumerate() {
            self.kernel.check_width(basis);
            if let Some(cost) = self.memo.probe(basis) {
                self.stats.memo_hits += 1;
                out[i] = cost;
            } else {
                pending.push(i);
            }
        }
        if pending.is_empty() {
            return out;
        }
        let kernel = &*self.kernel;
        let dims: Vec<usize> = pending.iter().map(|&i| candidates[i].dim()).collect();
        self.stats.evaluations += pending.len() as u64;
        let costs = if kernel.slices_batch(&dims) {
            let chunks: Vec<&[usize]> = pending.chunks(SLICED_LANES).collect();
            self.stats.sliced_blocks += chunks.len() as u64;
            Self::map_parallel(&chunks, self.threads, &mut self.stats, |chunk| {
                let refs: Vec<&PackedBasis> = chunk.iter().map(|&i| candidates[i]).collect();
                kernel.cost_batch_sliced(&refs)
            })
            .concat()
        } else {
            Self::map_parallel(&pending, self.threads, &mut self.stats, |&i| {
                kernel.cost(candidates[i])
            })
        };
        for (i, cost) in pending.into_iter().zip(costs) {
            out[i] = cost;
            self.memo.insert(candidates[i], cost);
        }
        out
    }

    /// Prices a packed neighbourhood. The route depends only on the
    /// candidates' null-space dimension `d`, and both routes are
    /// bit-identical:
    ///
    /// * `d ≤ 4` (`DELTA_MAX_DIM`), hyperplane deltas: each candidate
    ///   `M ⊕ span(w)` costs its hyperplane's partial sum (computed once per
    ///   hyperplane, memoized) plus a `2^(d−1)`-term coset sum;
    /// * `d > 4`, coset blocks: pending candidates are transposed into
    ///   [`gf2::SlicedCosetBlock`]s over the shared parent and priced by one
    ///   histogram scan per 64-lane block.
    ///
    /// Either way the memo is probed first and backfilled with every fresh
    /// result. Only the `(hyperplane, direction)` decomposition of each
    /// candidate is read — the search algorithms price the same lanes
    /// without materializing candidate bases. Returns costs aligned with
    /// `neighborhood.candidates`.
    ///
    /// # Panics
    ///
    /// Panics if the neighbourhood's ambient width differs from the
    /// profile's hashed width.
    pub fn estimate_neighborhood(&mut self, neighborhood: &PackedNeighborhood) -> Vec<u64> {
        self.price_lanes(&neighborhood.hyperplanes, &neighborhood.lanes())
    }

    /// [`EvalEngine::estimate_neighborhood`] under an incumbent bound — the
    /// form a best-improvement search step wants: per lane, either the exact
    /// cost (memo hit, or priced below the bound) or
    /// [`BoundedCost::AtLeast`]`(bound)` for a lane whose running sum
    /// saturated the incumbent and was abandoned mid-scan.
    ///
    /// Exact lanes are bit-identical to the unbounded path and are backfilled
    /// into the memo; abandoned lanes are never memoized, so memoization
    /// stays bit-correct. Only the coset route (`d > 4`) can abandon lanes;
    /// the delta route prices exactly and wraps the results in
    /// [`BoundedCost::Exact`].
    ///
    /// # Panics
    ///
    /// Panics if the neighbourhood's ambient width differs from the
    /// profile's hashed width.
    pub fn estimate_neighborhood_bounded(
        &mut self,
        neighborhood: &PackedNeighborhood,
        bound: u64,
    ) -> Vec<BoundedCost> {
        self.price_lanes_bounded(&neighborhood.hyperplanes, &neighborhood.lanes(), bound)
    }

    /// The pricing core behind [`EvalEngine::estimate_neighborhood`]: costs
    /// of the candidates `hyperplanes[h] ⊕ span(direction)` for each
    /// `(h, direction)` lane, aligned with `lanes`.
    pub(crate) fn price_lanes(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
    ) -> Vec<u64> {
        if lanes.is_empty() {
            return Vec::new();
        }
        self.kernel.check_width(&hyperplanes[0]);
        if hyperplanes[0].dim() < DELTA_MAX_DIM {
            self.price_lanes_delta(hyperplanes, lanes)
        } else {
            self.price_lanes_cosets(hyperplanes, lanes)
        }
    }

    /// The pricing core behind [`EvalEngine::estimate_neighborhood_bounded`].
    pub(crate) fn price_lanes_bounded(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        if lanes.is_empty() {
            return Vec::new();
        }
        self.kernel.check_width(&hyperplanes[0]);
        if hyperplanes[0].dim() < DELTA_MAX_DIM {
            self.price_lanes_delta(hyperplanes, lanes)
                .into_iter()
                .map(BoundedCost::Exact)
                .collect()
        } else {
            self.price_lanes_cosets_bounded(hyperplanes, lanes, bound)
        }
    }

    /// Memo-probes every lane, answering hits into `out` and returning the
    /// indices of the misses. Lanes probe with their extended key words, so
    /// no candidate basis is built.
    fn probe_lanes<T>(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        out: &mut [T],
        hit: impl Fn(u64) -> T,
    ) -> Vec<usize> {
        let mut buf = [0u64; 65];
        let mut pending = Vec::new();
        for (i, &(h, direction)) in lanes.iter().enumerate() {
            let words = hyperplanes[h].extended_key_words(direction, &mut buf);
            if let Some(cost) = self.memo.probe_words(words) {
                self.stats.memo_hits += 1;
                out[i] = hit(cost);
            } else {
                pending.push(i);
            }
        }
        pending
    }

    /// Backfills the memo with the exact cost of one lane.
    fn memoize_lane(&self, hyperplanes: &[PackedBasis], (h, direction): (usize, u64), cost: u64) {
        let mut buf = [0u64; 65];
        self.memo
            .insert_words(hyperplanes[h].extended_key_words(direction, &mut buf), cost);
    }

    /// The transposed neighbourhood path: memo misses are packed, 64 lanes at
    /// a time, into [`gf2::SlicedCosetBlock`]s over the neighbourhood's
    /// shared parent and priced from one remainder-grouped histogram.
    fn price_lanes_cosets(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
    ) -> Vec<u64> {
        let Some(parent) = parent_span(hyperplanes, lanes) else {
            return Vec::new();
        };
        let mut out = vec![0u64; lanes.len()];
        let pending = self.probe_lanes(hyperplanes, lanes, &mut out, |cost| cost);
        if pending.is_empty() {
            return out;
        }
        // The scaffolding — hyperplane functionals and the remainder-grouped
        // histogram — is cached per parent and shared read-only, so the
        // 64-lane blocks are independent units of work: each touches only the
        // entries its cosets select, and chunks stamp on scoped threads.
        let scaffold = self.cached_scaffold(&parent, hyperplanes);
        let pending_lanes: Vec<(usize, u64)> = pending.iter().map(|&i| lanes[i]).collect();
        let chunks: Vec<&[(usize, u64)]> = pending_lanes.chunks(SLICED_LANES).collect();
        let frame = &*scaffold.frame;
        let histogram = &*scaffold.histogram;
        let blocks = Self::map_parallel(&chunks, self.threads, &mut self.stats, |chunk| {
            frame.block(chunk).sum_weights(histogram)
        });
        self.stats.evaluations += pending.len() as u64;
        self.stats.sliced_blocks += chunks.len() as u64;
        for (&i, cost) in pending.iter().zip(blocks.into_iter().flatten()) {
            out[i] = cost;
            self.memoize_lane(hyperplanes, lanes[i], cost);
        }
        out
    }

    /// Checks the coset scaffolding for `parent` out of the cache (building
    /// it on a miss) and folds the outcome into this engine's counters.
    fn cached_scaffold(
        &mut self,
        parent: &PackedBasis,
        hyperplanes: &[PackedBasis],
    ) -> crate::scaffold::Scaffold {
        let scaffold = self.scaffold.scaffold(&self.kernel, parent, hyperplanes);
        if scaffold.cached {
            self.stats.scaffold_hits += 1;
        } else {
            self.stats.scaffold_misses += 1;
        }
        scaffold
    }

    /// The bounded coset route: identical memo probing and block chunking to
    /// [`EvalEngine::price_lanes_cosets`], but each block scans under the
    /// bound and abandons once every live lane has saturated.
    fn price_lanes_cosets_bounded(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
        bound: u64,
    ) -> Vec<BoundedCost> {
        let Some(parent) = parent_span(hyperplanes, lanes) else {
            return Vec::new();
        };
        let mut out = vec![BoundedCost::AtLeast(bound); lanes.len()];
        // A memo hit is exact whatever the bound.
        let pending = self.probe_lanes(hyperplanes, lanes, &mut out, BoundedCost::Exact);
        if pending.is_empty() {
            return out;
        }
        let scaffold = self.cached_scaffold(&parent, hyperplanes);
        let pending_lanes: Vec<(usize, u64)> = pending.iter().map(|&i| lanes[i]).collect();
        let chunks: Vec<&[(usize, u64)]> = pending_lanes.chunks(SLICED_LANES).collect();
        let frame = &*scaffold.frame;
        let histogram = &*scaffold.histogram;
        let blocks = Self::map_parallel(&chunks, self.threads, &mut self.stats, |chunk| {
            frame.block(chunk).sum_weights_bounded(histogram, bound)
        });
        self.stats.sliced_blocks += chunks.len() as u64;
        let mut offset = 0usize;
        for (sums, saturated) in blocks {
            for (j, sum) in sums.into_iter().enumerate() {
                let i = pending[offset + j];
                if saturated & (1u64 << j) == 0 {
                    self.stats.evaluations += 1;
                    out[i] = BoundedCost::Exact(sum);
                    self.memoize_lane(hyperplanes, lanes[i], sum);
                } else {
                    self.stats.bounded_abandons += 1;
                    out[i] = BoundedCost::AtLeast(bound);
                }
            }
            offset += SLICED_LANES;
        }
        out
    }

    /// [`EvalEngine::estimate_packed`] under an incumbent bound: a memo hit
    /// answers exactly whatever the bound; a fresh evaluation scans under the
    /// bound and abandons with [`BoundedCost::AtLeast`] once the running sum
    /// saturates it. Only exact results are memoized.
    ///
    /// # Panics
    ///
    /// Panics if the basis's ambient width differs from the profile's hashed
    /// width.
    pub fn estimate_packed_bounded(&mut self, basis: &PackedBasis, bound: u64) -> BoundedCost {
        self.kernel.check_width(basis);
        if let Some(cost) = self.memo.probe(basis) {
            self.stats.memo_hits += 1;
            return BoundedCost::Exact(cost);
        }
        match self.kernel.cost_bounded(basis, bound) {
            BoundedCost::Exact(cost) => {
                self.stats.evaluations += 1;
                self.memo.insert(basis, cost);
                BoundedCost::Exact(cost)
            }
            abandoned => {
                self.stats.bounded_abandons += 1;
                abandoned
            }
        }
    }

    /// The hyperplane-delta neighbourhood path: partial sums per retained
    /// hyperplane plus a coset sum per pending lane.
    fn price_lanes_delta(
        &mut self,
        hyperplanes: &[PackedBasis],
        lanes: &[(usize, u64)],
    ) -> Vec<u64> {
        // Partial sums: one support evaluation per referenced hyperplane
        // (memoized, so a hyperplane shared with an earlier step is free).
        let mut hyper: Vec<Option<u64>> = vec![None; hyperplanes.len()];
        for &(slot, _) in lanes {
            if hyper[slot].is_none() {
                hyper[slot] = Some(self.estimate_support(&hyperplanes[slot]));
            }
        }

        let mut out = vec![0u64; lanes.len()];
        let pending = self.probe_lanes(hyperplanes, lanes, &mut out, |cost| cost);
        if pending.is_empty() {
            return out;
        }
        let kernel = &*self.kernel;
        let jobs: Vec<(u64, &PackedBasis, u64)> = pending
            .iter()
            .map(|&i| {
                let (h, direction) = lanes[i];
                let hyper_cost = hyper[h].expect("referenced hyperplanes are evaluated above");
                (hyper_cost, &hyperplanes[h], direction)
            })
            .collect();
        let costs = Self::map_parallel(
            &jobs,
            self.threads,
            &mut self.stats,
            |&(hyper_cost, hyperplane, direction)| {
                kernel.neighbour_cost(hyper_cost, hyperplane, direction)
            },
        );
        self.stats.evaluations += pending.len() as u64;
        for (&i, cost) in pending.iter().zip(costs) {
            out[i] = cost;
            self.memoize_lane(hyperplanes, lanes[i], cost);
        }
        out
    }

    /// Evaluates a boundary-view neighbourhood. Wrapper that re-packs the
    /// candidates and delegates to [`EvalEngine::estimate_neighborhood`];
    /// packed-native callers should pass the [`PackedNeighborhood`] directly.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's ambient width differs from the profile's
    /// hashed width.
    pub fn evaluate_neighborhood(&mut self, neighborhood: &Neighborhood) -> Vec<u64> {
        if neighborhood.candidates.is_empty() {
            return Vec::new();
        }
        let width = neighborhood.candidates[0].subspace.ambient_width();
        let packed = PackedNeighborhood {
            width,
            hyperplanes: neighborhood
                .hyperplanes
                .iter()
                .map(Subspace::to_packed)
                .collect(),
            candidates: neighborhood
                .candidates
                .iter()
                .map(|c| crate::search::PackedCandidate {
                    hyperplane: c.hyperplane,
                    direction: c.direction.as_u64(),
                    basis: c.subspace.to_packed(),
                })
                .collect(),
        };
        self.estimate_neighborhood(&packed)
    }

    /// Memoized evaluation counted as support work (hyperplane partial sums)
    /// rather than as a candidate evaluation.
    fn estimate_support(&mut self, basis: &PackedBasis) -> u64 {
        self.kernel.check_width(basis);
        let kernel = &self.kernel;
        let (cost, hit) = self.memo.price_with(basis, || kernel.cost(basis));
        if hit {
            self.stats.memo_hits += 1;
        } else {
            self.stats.support_evaluations += 1;
        }
        cost
    }

    /// Maps `job_cost` over `jobs` in order, splitting across scoped threads
    /// when the engine is configured for parallelism and the batch is large
    /// enough. Jobs may be single candidates (costing a `u64`) or whole
    /// sliced blocks (costing a `Vec<u64>` each).
    fn map_parallel<J: Sync, R: Send>(
        jobs: &[J],
        threads: usize,
        stats: &mut EngineStats,
        job_cost: impl Fn(&J) -> R + Sync,
    ) -> Vec<R> {
        let workers = threads.min(jobs.len());
        if workers <= 1 || jobs.len() < PARALLEL_THRESHOLD {
            return jobs.iter().map(job_cost).collect();
        }
        stats.parallel_batches += 1;
        let chunk = jobs.len().div_ceil(workers);
        let job_cost = &job_cost;
        let mut out: Vec<R> = Vec::with_capacity(jobs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|chunk_jobs| scope.spawn(move || chunk_jobs.iter().map(job_cost).collect()))
                .collect();
            for handle in handles {
                let chunk_out: Vec<R> = handle.join().expect("evaluation worker panicked");
                out.extend(chunk_out);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{neighborhood, NeighborPool};
    use crate::{EstimationStrategy, FunctionClass, HashFunction, MissEstimator};
    use cache_sim::BlockAddr;
    use gf2::BitMatrix;

    fn profile_from(seq: &[u64], hashed_bits: usize, capacity: usize) -> ConflictProfile {
        ConflictProfile::from_blocks(seq.iter().copied().map(BlockAddr), hashed_bits, capacity)
    }

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
        profile_from(&seq, 12, 64)
    }

    #[test]
    fn engine_matches_the_estimator_under_every_strategy() {
        let profile = mixed_profile();
        let functions = [
            HashFunction::conventional(12, 6).unwrap(),
            HashFunction::new(BitMatrix::from_fn(12, 6, |r, c| r == c || r == c + 6)).unwrap(),
            HashFunction::bit_selecting(12, &[0, 1, 2, 3, 4, 11]).unwrap(),
            HashFunction::conventional(12, 2).unwrap(), // large null space
        ];
        let mut engine = EvalEngine::new(&profile);
        for strategy in [
            EstimationStrategy::EnumerateNullSpace,
            EstimationStrategy::ScanHistogram,
        ] {
            let estimator = MissEstimator::new(&profile).with_strategy(strategy);
            for f in &functions {
                let ns = f.null_space();
                assert_eq!(
                    engine.evaluate(&ns),
                    estimator.estimate_null_space(&ns),
                    "{strategy:?}"
                );
                assert_eq!(engine.evaluate_fresh(&ns), engine.evaluate(&ns));
            }
        }
    }

    #[test]
    fn batch_evaluation_matches_singles_and_memoizes() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let candidates: Vec<Subspace> = (2..=6)
            .map(|m| HashFunction::conventional(12, m).unwrap().null_space())
            .collect();
        let batch = engine.evaluate_all(&candidates);
        let estimator = MissEstimator::new(&profile);
        for (ns, &cost) in candidates.iter().zip(&batch) {
            assert_eq!(cost, estimator.estimate_null_space(ns));
        }
        assert_eq!(engine.stats().evaluations, candidates.len() as u64);
        // Second pass is answered entirely from the memo.
        let again = engine.evaluate_all(&candidates);
        assert_eq!(again, batch);
        assert_eq!(engine.stats().evaluations, candidates.len() as u64);
        assert_eq!(engine.stats().memo_hits, candidates.len() as u64);
    }

    #[test]
    fn neighborhood_delta_evaluation_is_exact() {
        let profile = mixed_profile();
        let estimator = MissEstimator::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.vectors(12, &profile);
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based_unlimited(),
            FunctionClass::bit_selecting(),
        ] {
            // 8 set bits leave dimension-4 null spaces: the delta route.
            let parent = HashFunction::conventional(12, 8).unwrap().null_space();
            let nbhd = neighborhood(&parent, class, &pool);
            assert!(!nbhd.is_empty(), "{class}");
            let mut engine = EvalEngine::new(&profile);
            let costs = engine.evaluate_neighborhood(&nbhd);
            for (candidate, &cost) in nbhd.candidates.iter().zip(&costs) {
                assert_eq!(
                    cost,
                    estimator.estimate_null_space(&candidate.subspace),
                    "{class}: candidate {}",
                    candidate.subspace
                );
            }
        }
    }

    #[test]
    fn neighborhood_scan_fallback_is_exact() {
        // A tiny cache (2 set bits) gives 10-dimensional null spaces: 1023
        // non-zero vectors dwarf the handful of distinct conflict vectors, so
        // scalar pricing scans the histogram and the neighbourhood goes
        // through coset blocks.
        let profile = mixed_profile();
        let estimator = MissEstimator::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.vectors(12, &profile);
        let parent = HashFunction::conventional(12, 2).unwrap().null_space();
        let nbhd = neighborhood(&parent, FunctionClass::xor_unlimited(), &pool);
        assert!(!nbhd.is_empty());
        let mut engine = EvalEngine::new(&profile);
        let costs = engine.evaluate_neighborhood(&nbhd);
        for (candidate, &cost) in nbhd.candidates.iter().zip(&costs) {
            assert_eq!(cost, estimator.estimate_null_space(&candidate.subspace));
        }
    }

    #[test]
    fn parallel_and_sequential_batches_agree() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.vectors(12, &profile);
        let parent = HashFunction::conventional(12, 6).unwrap().null_space();
        let nbhd = neighborhood(&parent, FunctionClass::xor_unlimited(), &pool);
        let mut sequential = EvalEngine::new(&profile).with_threads(1);
        let mut parallel = EvalEngine::new(&profile).with_threads(4);
        assert_eq!(
            sequential.evaluate_neighborhood(&nbhd),
            parallel.evaluate_neighborhood(&nbhd)
        );
        assert_eq!(
            sequential.evaluate_all(&nbhd.subspaces()),
            parallel.evaluate_all(&nbhd.subspaces())
        );
    }

    #[test]
    fn reset_clears_memo_and_stats() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let ns = HashFunction::conventional(12, 6).unwrap().null_space();
        engine.evaluate(&ns);
        assert_eq!(engine.stats().evaluations, 1);
        engine.reset();
        assert_eq!(engine.stats(), EngineStats::default());
        engine.evaluate(&ns);
        assert_eq!(engine.stats().evaluations, 1);
        assert_eq!(engine.stats().memo_hits, 0);
    }

    #[test]
    fn engines_sharing_kernel_and_memo_answer_from_one_table() {
        let profile = mixed_profile();
        let first = EvalEngine::new(&profile);
        let mut second =
            EvalEngine::from_parts(&profile, Arc::clone(first.kernel()), first.memo().clone());
        let mut first = first;
        let ns = HashFunction::conventional(12, 6).unwrap().null_space();
        let cost = first.evaluate(&ns);
        // The second engine hits the shared memo without evaluating.
        assert_eq!(second.evaluate(&ns), cost);
        assert_eq!(second.stats().evaluations, 0);
        assert_eq!(second.stats().memo_hits, 1);
        // The shared table saw one miss (first engine) and one hit (second).
        assert_eq!(first.memo().stats().hits, 1);
        assert_eq!(first.memo().stats().misses, 1);
    }

    #[test]
    fn capped_memo_is_bit_identical_with_more_recomputation() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.vectors(12, &profile);
        let parent = HashFunction::conventional(12, 6).unwrap().null_space();
        let nbhd = neighborhood(&parent, FunctionClass::xor_unlimited(), &pool);

        let mut uncapped = EvalEngine::new(&profile).with_threads(1);
        let mut capped = EvalEngine::new(&profile)
            .with_threads(1)
            .with_memo_capacity(4);
        let reference = uncapped.evaluate_neighborhood(&nbhd);
        assert_eq!(capped.evaluate_neighborhood(&nbhd), reference);
        // Re-pricing the same neighbourhood: the capped engine recomputes
        // everything it could not cache, still bit-identically.
        assert_eq!(capped.evaluate_neighborhood(&nbhd), reference);
        assert_eq!(uncapped.evaluate_neighborhood(&nbhd), reference);
        assert!(capped.stats().evaluations > uncapped.stats().evaluations);
        // Capacity 4 is enforced as ceil(4/shards) per shard.
        assert!(capped.memo().len() <= capped.memo().shards());
        assert!(capped.memo().stats().rejected_inserts > 0);
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_panics() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let _ = engine.evaluate(&Subspace::full(8));
    }

    #[test]
    fn neighborhood_routes_switch_at_delta_max_dim() {
        let profile = mixed_profile();
        let kernel = crate::FrozenKernel::new(&profile);
        let estimator = MissEstimator::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        for dim in [4usize, 5, 6, 8] {
            let parent = gf2::PackedBasis::standard_span(12, 12 - dim..12);
            let nbhd = crate::search::PackedNeighborhood::generate(
                &parent,
                FunctionClass::xor_unlimited(),
                &pool,
            );
            assert!(nbhd.candidates.len() > gf2::SLICED_LANES, "dim={dim}");
            let reference: Vec<u64> = nbhd.bases().map(|b| kernel.cost(b)).collect();
            for (basis, &cost) in nbhd.bases().zip(&reference) {
                assert_eq!(cost, estimator.estimate_packed(basis), "dim={dim}");
            }
            let delta = dim <= DELTA_MAX_DIM;
            let route_ran = |stats: EngineStats| {
                if delta {
                    stats.support_evaluations > 0 && stats.sliced_blocks == 0
                } else {
                    stats.sliced_blocks > 0
                }
            };

            let mut engine = EvalEngine::new(&profile);
            assert_eq!(engine.estimate_neighborhood(&nbhd), reference, "dim={dim}");
            assert!(route_ran(engine.stats()), "dim={dim}: {:?}", engine.stats());

            // Bounded: above every cost each lane is exact; under the parent's
            // own cost (a climb's first incumbent) lanes are exact or
            // abandoned at the bound.
            let parent_cost = kernel.cost(&parent);
            for bound in [u64::MAX, parent_cost] {
                let mut engine = EvalEngine::new(&profile);
                let bounded = engine.estimate_neighborhood_bounded(&nbhd, bound);
                assert!(route_ran(engine.stats()), "dim={dim}: {:?}", engine.stats());
                for (lane, (&truth, &got)) in reference.iter().zip(&bounded).enumerate() {
                    match got {
                        BoundedCost::Exact(cost) => assert_eq!(cost, truth, "dim={dim} {lane}"),
                        BoundedCost::AtLeast(b) => {
                            assert!(!delta && b == bound && truth >= bound, "dim={dim} {lane}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_three_neighborhood_routes_are_bit_identical() {
        let profile = mixed_profile();
        let kernel = crate::FrozenKernel::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Each route is driven directly, on both sides of `DELTA_MAX_DIM`:
        // hyperplane deltas, coset blocks, and bounded coset blocks under a
        // bound no lane reaches must all reproduce the scalar costs exactly.
        for dim in [2usize, 4, 5, 6, 8] {
            let parent = gf2::PackedBasis::standard_span(12, 12 - dim..12);
            let nbhd = crate::search::PackedNeighborhood::generate(
                &parent,
                FunctionClass::xor_unlimited(),
                &pool,
            );
            assert!(nbhd.candidates.len() > crate::memo::DEFAULT_MEMO_SHARDS);
            let reference: Vec<u64> = nbhd.bases().map(|b| kernel.cost(b)).collect();

            let lanes = nbhd.lanes();
            let mut engine = EvalEngine::new(&profile);
            let delta = engine.price_lanes_delta(&nbhd.hyperplanes, &lanes);
            assert_eq!(delta, reference, "delta, dim={dim}");

            let mut engine = EvalEngine::new(&profile);
            let cosets = engine.price_lanes_cosets(&nbhd.hyperplanes, &lanes);
            assert_eq!(cosets, reference, "cosets, dim={dim}");

            let mut engine = EvalEngine::new(&profile);
            let bounded: Vec<Option<u64>> = engine
                .price_lanes_cosets_bounded(&nbhd.hyperplanes, &lanes, u64::MAX)
                .into_iter()
                .map(BoundedCost::exact)
                .collect();
            let expected: Vec<Option<u64>> = reference.iter().copied().map(Some).collect();
            assert_eq!(bounded, expected, "bounded cosets, dim={dim}");
        }
    }

    #[test]
    fn lane_pricing_matches_the_public_neighborhood_path_counter_for_counter() {
        let profile = mixed_profile();
        let kernel = crate::FrozenKernel::new(&profile);
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Both routes, unbounded and under the parent's own cost (a climb's
        // first incumbent, so the coset route abandons lanes).
        for dim in [3usize, 4, 6, 8] {
            let parent = gf2::PackedBasis::standard_span(12, 12 - dim..12);
            let bound = kernel.cost(&parent);
            let lanes = crate::search::NeighborLanes::generate(
                &parent,
                FunctionClass::xor_unlimited(),
                &pool,
            );
            let hood = crate::search::PackedNeighborhood::generate(
                &parent,
                FunctionClass::xor_unlimited(),
                &pool,
            );
            let mut from_lanes = EvalEngine::new(&profile);
            let mut from_hood = EvalEngine::new(&profile);
            // Twice, so the second pass runs on memo hits.
            for _ in 0..2 {
                assert_eq!(
                    from_lanes.price_lanes_bounded(&lanes.hyperplanes, &lanes.lanes, bound),
                    from_hood.estimate_neighborhood_bounded(&hood, bound),
                    "dim={dim}"
                );
                assert_eq!(
                    from_lanes.price_lanes(&lanes.hyperplanes, &lanes.lanes),
                    from_hood.estimate_neighborhood(&hood),
                    "dim={dim}"
                );
                assert_eq!(from_lanes.stats(), from_hood.stats(), "dim={dim}");
                assert_eq!(from_lanes.memo().stats(), from_hood.memo().stats());
                assert_eq!(
                    from_lanes.scaffold_cache().stats(),
                    from_hood.scaffold_cache().stats()
                );
            }
        }
    }

    #[test]
    fn coset_route_counts_blocks_and_backfills_the_memo() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Dimension-6 candidates, above `DELTA_MAX_DIM`: the coset route.
        let parent = gf2::PackedBasis::standard_span(12, 6..12);
        let nbhd = crate::search::PackedNeighborhood::generate(
            &parent,
            FunctionClass::xor_unlimited(),
            &pool,
        );
        let mut engine = EvalEngine::new(&profile);
        let first = engine.estimate_neighborhood(&nbhd);
        let lanes = nbhd.candidates.len() as u64;
        assert_eq!(engine.stats().evaluations, lanes);
        assert_eq!(
            engine.stats().sliced_blocks,
            lanes.div_ceil(gf2::SLICED_LANES as u64)
        );
        // Every block result landed in the memo: the second pass is all hits.
        assert_eq!(engine.estimate_neighborhood(&nbhd), first);
        assert_eq!(engine.stats().evaluations, lanes);
        assert_eq!(engine.stats().memo_hits, lanes);
    }

    #[test]
    fn threaded_sliced_coset_route_is_bit_identical_and_actually_splits() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Dimension-6 candidates, above `DELTA_MAX_DIM`: the coset route.
        let parent = gf2::PackedBasis::standard_span(12, 6..12);
        let nbhd = crate::search::PackedNeighborhood::generate(
            &parent,
            FunctionClass::xor_unlimited(),
            &pool,
        );
        // Enough candidates that the sliced route has ≥ PARALLEL_THRESHOLD
        // 64-lane chunks to split across workers.
        assert!(nbhd.candidates.len() >= PARALLEL_THRESHOLD * gf2::SLICED_LANES);
        let mut sequential = EvalEngine::new(&profile).with_threads(1);
        let mut parallel = EvalEngine::new(&profile).with_threads(4);
        let reference = sequential.estimate_neighborhood(&nbhd);
        assert_eq!(parallel.estimate_neighborhood(&nbhd), reference);
        // The parallel engine really split the sliced route: it counted the
        // same blocks but spawned at least one parallel batch, which the
        // sequential engine never does.
        let chunks = (nbhd.candidates.len() as u64).div_ceil(gf2::SLICED_LANES as u64);
        assert_eq!(sequential.stats().sliced_blocks, chunks);
        assert_eq!(parallel.stats().sliced_blocks, chunks);
        assert_eq!(sequential.stats().parallel_batches, 0);
        assert_eq!(parallel.stats().parallel_batches, 1);
    }

    #[test]
    fn bounded_neighborhood_is_exact_below_and_at_least_above() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Dimension-6 candidates, above `DELTA_MAX_DIM`: the coset route.
        let parent = gf2::PackedBasis::standard_span(12, 6..12);
        let nbhd = crate::search::PackedNeighborhood::generate(
            &parent,
            FunctionClass::xor_unlimited(),
            &pool,
        );
        let mut exact_engine = EvalEngine::new(&profile);
        let exact = exact_engine.estimate_neighborhood(&nbhd);
        let lo = *exact.iter().min().unwrap();
        let hi = *exact.iter().max().unwrap();
        for bound in [lo, lo + (hi - lo) / 2, hi + 1] {
            let mut engine = EvalEngine::new(&profile);
            let bounded = engine.estimate_neighborhood_bounded(&nbhd, bound);
            let mut abandons = 0u64;
            for (lane, (&true_cost, &got)) in exact.iter().zip(&bounded).enumerate() {
                match got {
                    BoundedCost::Exact(cost) => {
                        assert_eq!(cost, true_cost, "bound={bound} lane={lane}")
                    }
                    BoundedCost::AtLeast(b) => {
                        assert_eq!(b, bound);
                        assert!(true_cost >= bound, "bound={bound} lane={lane}");
                        abandons += 1;
                    }
                }
            }
            assert_eq!(engine.stats().bounded_abandons, abandons);
            assert_eq!(
                engine.stats().evaluations,
                exact.len() as u64 - abandons,
                "only exact lanes count as evaluations"
            );
            // Only exact lanes were memoized; a second bounded pass answers
            // them from the memo and re-abandons the rest.
            let again = engine.estimate_neighborhood_bounded(&nbhd, bound);
            assert_eq!(again, bounded);
            assert_eq!(engine.stats().memo_hits, exact.len() as u64 - abandons);
        }
    }

    #[test]
    fn bounded_single_candidate_pricing_memoizes_only_exact_results() {
        let profile = mixed_profile();
        let mut engine = EvalEngine::new(&profile);
        let ns = HashFunction::conventional(12, 6)
            .unwrap()
            .null_space()
            .to_packed();
        let exact = engine.estimate_packed_fresh(&ns);
        // Below the bound: exact, memoized.
        assert_eq!(
            engine.estimate_packed_bounded(&ns, exact + 1),
            BoundedCost::Exact(exact)
        );
        assert_eq!(engine.stats().evaluations, 1);
        // A memo hit answers exactly even under a tighter bound.
        assert_eq!(
            engine.estimate_packed_bounded(&ns, exact),
            BoundedCost::Exact(exact)
        );
        assert_eq!(engine.stats().memo_hits, 1);
        // A fresh candidate under a saturating bound abandons and stays
        // unmemoized.
        let other = HashFunction::conventional(12, 5)
            .unwrap()
            .null_space()
            .to_packed();
        let other_exact = engine.estimate_packed_fresh(&other);
        if other_exact > 0 {
            assert_eq!(
                engine.estimate_packed_bounded(&other, other_exact),
                BoundedCost::AtLeast(other_exact)
            );
            assert_eq!(engine.stats().bounded_abandons, 1);
            assert!(engine.memo().probe(&other).is_none());
        }
    }

    #[test]
    fn scaffold_cache_hits_across_neighborhood_revisits() {
        let profile = mixed_profile();
        let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
        // Dimension-6 candidates, above `DELTA_MAX_DIM`: the coset route.
        let parent = gf2::PackedBasis::standard_span(12, 6..12);
        let nbhd = crate::search::PackedNeighborhood::generate(
            &parent,
            FunctionClass::xor_unlimited(),
            &pool,
        );
        let mut engine = EvalEngine::new(&profile).with_memo_capacity(1);
        // With the memo effectively disabled, each pass re-prices the lanes —
        // but the scaffolding is built once and reused.
        let first = engine.estimate_neighborhood(&nbhd);
        assert_eq!(engine.estimate_neighborhood(&nbhd), first);
        assert_eq!(engine.stats().scaffold_misses, 1);
        assert!(engine.stats().scaffold_hits >= 1);
        let cache_stats = engine.scaffold_cache().stats();
        assert_eq!(cache_stats.misses, 1);
        assert_eq!(cache_stats.entries, 1);
        // Engines sharing the cache handle pool scaffolding.
        let mut shared = EvalEngine::from_parts(
            &profile,
            Arc::clone(engine.kernel()),
            ShardedMemo::with_capacity(1),
        )
        .with_scaffold_cache(engine.scaffold_cache().clone());
        assert_eq!(shared.estimate_neighborhood(&nbhd), first);
        assert_eq!(shared.stats().scaffold_misses, 0);
        assert_eq!(shared.stats().scaffold_hits, 1);
        // Reset clears the shared table.
        engine.reset();
        assert_eq!(engine.scaffold_cache().stats().entries, 0);
    }

    #[test]
    fn forced_sliced_batches_count_blocks_and_backfill() {
        let profile = mixed_profile();
        let candidates: Vec<gf2::PackedBasis> = (2..=9)
            .map(|m| gf2::PackedBasis::standard_span(12, m..12))
            .collect();
        let mut engine = EvalEngine::new(&profile);
        // Eight wide null spaces over a small histogram: the geometry forces
        // the sliced batch path.
        let dims: Vec<usize> = candidates.iter().map(gf2::PackedBasis::dim).collect();
        assert!(engine.kernel().slices_batch(&dims));
        let batch = engine.estimate_batch(&candidates);
        let fresh: Vec<u64> = candidates
            .iter()
            .map(|b| engine.estimate_packed_fresh(b))
            .collect();
        assert_eq!(batch, fresh);
        assert_eq!(engine.stats().sliced_blocks, 1);
        // Backfilled: re-estimating costs no further evaluations.
        let evaluations = engine.stats().evaluations;
        assert_eq!(engine.estimate_batch(&candidates), batch);
        assert_eq!(engine.stats().evaluations, evaluations);
    }
}
