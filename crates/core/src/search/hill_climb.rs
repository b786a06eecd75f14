//! Steepest-descent hill climbing (the paper's search algorithm).

use gf2::Subspace;

use crate::search::{NeighborLanes, SearchOutcome, Searcher};
use crate::{EvalEngine, HashFunction, XorIndexError};

impl Searcher<'_> {
    /// Runs the paper's steepest-descent search from the conventional
    /// function's null space.
    ///
    /// Every neighbour of the current null space is evaluated in one batch by
    /// the dense evaluation engine; if the best admissible neighbour improves
    /// on the best function found so far, the search moves there, otherwise a
    /// local optimum has been reached and the search stops.
    ///
    /// # Errors
    ///
    /// Propagates representative-construction failures (see
    /// [`Searcher::run`]).
    pub fn hill_climb(&self) -> Result<SearchOutcome, XorIndexError> {
        self.hill_climb_from(self.conventional_null_space())
    }

    /// Hill climbing from an arbitrary admissible starting null space.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::NoRepresentative`] if the starting point is
    /// not admissible for the searcher's function class.
    pub fn hill_climb_from(&self, start: Subspace) -> Result<SearchOutcome, XorIndexError> {
        let mut engine = self.engine();
        self.hill_climb_with(&mut engine, start)
    }

    /// Hill climbing on a caller-supplied engine, so several climbs (random
    /// restarts) share one memo table and dense profile.
    ///
    /// Reported `evaluations` are the *unique* Eq. 4 evaluations this climb
    /// added to the engine; overlapping neighbourhoods answered from the memo
    /// are free.
    ///
    /// # Errors
    ///
    /// Returns [`XorIndexError::NoRepresentative`] if the starting point is
    /// not admissible for the searcher's function class.
    pub(crate) fn hill_climb_with(
        &self,
        engine: &mut EvalEngine<'_>,
        start: Subspace,
    ) -> Result<SearchOutcome, XorIndexError> {
        Ok(self.hill_climb_full(engine, start)?.0)
    }

    /// [`Searcher::hill_climb_with`], additionally returning the lanes of
    /// the winner's full neighbourhood — the final climb iteration's
    /// candidate set, which the loop would otherwise drop on the floor.
    /// Callers that rank runner-up candidates around the winner (the serving
    /// layer's verified optimization, through
    /// [`Searcher::run_with_neighborhood`]) reuse it instead of generating
    /// the same neighbourhood again.
    pub(crate) fn hill_climb_full(
        &self,
        engine: &mut EvalEngine<'_>,
        start: Subspace,
    ) -> Result<(SearchOutcome, NeighborLanes), XorIndexError> {
        let pool = self.packed_pool()?;
        let class = self.class();

        // Validate the start and prime the bookkeeping. The baseline is
        // priced before the evaluation snapshot so it is never charged to
        // this climb (matching the pre-engine accounting, where the baseline
        // went through a separate estimator call). The start arrives as a
        // `Subspace` (the public boundary) and is packed once; from here the
        // climb carries `PackedBasis` state end-to-end.
        let start_function = HashFunction::from_null_space(&start, class)?;
        let baseline_estimate = engine.estimate_packed(&self.conventional_packed());
        let evaluations_before = engine.stats().evaluations;
        let mut current = start.to_packed();
        let mut best_cost = engine.estimate_packed(&current);
        let mut best_function = start_function;
        let mut steps: u64 = 0;
        let final_neighborhood;

        loop {
            // Evaluate the whole neighbourhood in one engine batch, cheapest
            // check first: the engine prices every lane, and a candidate's
            // basis is built — and the (more expensive) fan-in admissibility
            // check run — only for candidates that would be taken. With
            // bounded pricing the incumbent is passed down so the engine can
            // abandon any lane whose running sum saturates `best_cost` —
            // such a lane's true cost is at least the incumbent, so it could
            // never be moved to anyway.
            let nbhd = NeighborLanes::generate(&current, class, &pool);
            let mut below: Vec<(u64, usize)> = Vec::new();
            if self.bounded() {
                for (i, cost) in engine
                    .price_lanes_bounded(&nbhd.hyperplanes, &nbhd.lanes, best_cost)
                    .into_iter()
                    .enumerate()
                {
                    if let Some(exact) = cost.exact() {
                        if exact < best_cost {
                            below.push((exact, i));
                        }
                    }
                }
            } else {
                for (i, &cost) in engine
                    .price_lanes(&nbhd.hyperplanes, &nbhd.lanes)
                    .iter()
                    .enumerate()
                {
                    if cost < best_cost {
                        below.push((cost, i));
                    }
                }
            }
            // Sorting (cost, index) tuples reproduces the tie order of a
            // stable sort on cost alone, so bounded and unbounded climbs
            // visit candidates identically.
            below.sort_unstable();

            let mut moved = false;
            for (cost, i) in below {
                let basis = nbhd.basis(i);
                match HashFunction::from_null_space(&basis.to_subspace(), class) {
                    Ok(function) => {
                        current = basis;
                        best_cost = cost;
                        best_function = function;
                        steps += 1;
                        moved = true;
                        break;
                    }
                    Err(_) => {
                        // Structurally admissible but violates a fan-in bound;
                        // try the next-best neighbour.
                        continue;
                    }
                }
            }
            if !moved {
                // No admissible neighbour improves on `current`, so `nbhd`
                // is exactly the winner's neighbourhood.
                final_neighborhood = nbhd;
                break;
            }
        }

        let evaluations = engine.stats().evaluations - evaluations_before;
        Ok((
            SearchOutcome {
                function: best_function,
                estimated_misses: best_cost,
                baseline_estimate,
                evaluations,
                steps,
            },
            final_neighborhood,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::search::{NeighborPool, SearchAlgorithm, Searcher};
    use crate::{ConflictProfile, FunctionClass, MissEstimator};
    use cache_sim::BlockAddr;

    /// Profile of a classic power-of-two stride conflict: blocks 0 and 64
    /// alternate and collide in a 64-set direct-mapped cache.
    fn ping_pong_profile() -> ConflictProfile {
        let trace = (0..200u64).map(|i| BlockAddr((i % 2) * 64));
        ConflictProfile::from_blocks(trace, 12, 64)
    }

    /// A profile mixing several strides so the search has real work to do.
    fn multi_stride_profile() -> ConflictProfile {
        let mut blocks = Vec::new();
        for i in 0..400u64 {
            blocks.push(BlockAddr((i % 4) * 64));
            blocks.push(BlockAddr(0x800 + (i % 3) * 128));
        }
        ConflictProfile::from_blocks(blocks, 12, 64)
    }

    #[test]
    fn hill_climb_eliminates_a_single_stride_conflict() {
        let profile = ping_pong_profile();
        for class in [
            FunctionClass::xor_unlimited(),
            FunctionClass::permutation_based(2),
            FunctionClass::bit_selecting(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert!(outcome.baseline_estimate > 0);
            assert_eq!(
                outcome.estimated_misses, 0,
                "class {class} should eliminate the ping-pong conflict"
            );
            assert!(outcome.steps >= 1);
            assert!(outcome.evaluations > 1);
            // The found function really is in the class.
            class.check(&outcome.function).unwrap();
        }
    }

    #[test]
    fn hill_climb_never_returns_worse_than_the_baseline() {
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::permutation_based(4),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            assert!(
                outcome.estimated_misses <= outcome.baseline_estimate,
                "{class}: {} > {}",
                outcome.estimated_misses,
                outcome.baseline_estimate
            );
        }
    }

    #[test]
    fn richer_classes_do_at_least_as_well() {
        // Bit-selecting ⊆ 2-input permutation-based ⊆ unrestricted
        // permutation-based in terms of the searched space's expressiveness;
        // since all searches start from the same point and hill climbing is
        // greedy this is not a theorem, but it holds on this easy profile.
        let profile = ping_pong_profile();
        let est = |class| {
            Searcher::new(&profile, class, 6)
                .unwrap()
                .run(SearchAlgorithm::HillClimb)
                .unwrap()
                .estimated_misses
        };
        let bit = est(FunctionClass::bit_selecting());
        let perm2 = est(FunctionClass::permutation_based(2));
        let unlimited = est(FunctionClass::xor_unlimited());
        assert!(perm2 <= bit);
        assert!(unlimited <= perm2);
    }

    #[test]
    fn estimate_of_found_function_matches_reported_cost() {
        let profile = multi_stride_profile();
        let searcher = Searcher::new(&profile, FunctionClass::permutation_based(2), 6).unwrap();
        let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        let recomputed = MissEstimator::new(&profile)
            .estimate(&outcome.function)
            .unwrap();
        assert_eq!(recomputed, outcome.estimated_misses);
    }

    #[test]
    fn units_only_pool_still_finds_improvements() {
        let profile = ping_pong_profile();
        let searcher = Searcher::new(&profile, FunctionClass::xor_unlimited(), 6)
            .unwrap()
            .with_pool(NeighborPool::Units);
        let outcome = searcher.run(SearchAlgorithm::HillClimb).unwrap();
        assert!(outcome.estimated_misses < outcome.baseline_estimate);
    }

    #[test]
    fn bounded_and_unbounded_climbs_take_the_same_path() {
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let run = |bounded: bool| {
                Searcher::new(&profile, class, 6)
                    .unwrap()
                    .with_bounded_pricing(bounded)
                    .run(SearchAlgorithm::HillClimb)
                    .unwrap()
            };
            let bounded = run(true);
            let unbounded = run(false);
            assert_eq!(bounded.function, unbounded.function);
            assert_eq!(bounded.estimated_misses, unbounded.estimated_misses);
            assert_eq!(bounded.baseline_estimate, unbounded.baseline_estimate);
            assert_eq!(bounded.steps, unbounded.steps);
            // Bounded pricing may abandon lanes; it must never evaluate more.
            assert!(bounded.evaluations <= unbounded.evaluations);
        }
    }

    #[test]
    fn run_with_neighborhood_matches_run_and_a_fresh_generate() {
        use crate::search::PackedNeighborhood;
        let profile = multi_stride_profile();
        for class in [
            FunctionClass::bit_selecting(),
            FunctionClass::permutation_based(2),
            FunctionClass::xor_unlimited(),
        ] {
            let searcher = Searcher::new(&profile, class, 6).unwrap();
            let plain = searcher.run(SearchAlgorithm::HillClimb).unwrap();
            let (outcome, hood) = searcher
                .run_with_neighborhood(SearchAlgorithm::HillClimb)
                .unwrap();
            assert_eq!(outcome, plain);
            // The carried neighbourhood is exactly what regenerating around
            // the winner would produce — callers can skip the regeneration.
            let pool = NeighborPool::UnitsAndPairs.packed_vectors(12, &profile);
            let regenerated = PackedNeighborhood::generate(
                &outcome.function.null_space().to_packed(),
                class,
                &pool,
            );
            assert_eq!(hood.unwrap(), regenerated);
        }
    }

    #[test]
    fn hill_climb_from_inadmissible_start_errors() {
        let profile = ping_pong_profile();
        let searcher = Searcher::new(&profile, FunctionClass::permutation_based(2), 6).unwrap();
        // A null space containing e0 violates Eq. 5.
        let bad = gf2::Subspace::standard_span(12, [0usize, 7, 8, 9, 10, 11]);
        assert!(searcher.hill_climb_from(bad).is_err());
    }
}
