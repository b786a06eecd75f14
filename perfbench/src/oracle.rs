//! Reference checks on every answer the benchmark times.
//!
//! Three oracles, each counted in `failed_ratio`:
//! * a twin in-process [`IndexService`] answers the same request through
//!   `IndexService::handle`, and the TCP answer must equal it;
//! * prices must equal the slow scalar `MissEstimator`;
//! * simulated `SimStats` must equal `TraceReplayer::replay_legacy`, the
//!   general `Cache`-based simulator.
//!
//! Some answer fields depend on the service's cache state, which a
//! concurrent run does not fix, so [`normalize`] blanks exactly those before
//! comparing: a search's `evaluations` (the memo answers repeats for free),
//! the counters of `Stats` and `Evicted`, and a bounded price at or above
//! its bound (a memoized candidate answers exactly; a fresh one is
//! abandoned as `AtLeast(bound)`).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

use xorindex::{BoundedCost, ConflictProfile, HashFunction, MissEstimator};
use xorindex_serve::{encode_response, EvictCounts, Request, Response};
use xorindex_verify::{SimStats, TraceReplayer, VerifiedOutcome};

/// A short name for a request's kind.
pub fn kind(request: &Request) -> &'static str {
    match request {
        Request::PriceCandidate { .. } => "price_candidate",
        Request::PriceBatch { .. } => "price_batch",
        Request::PriceBatchBounded { .. } => "price_batch_bounded",
        Request::RunSearch { .. } => "run_search",
        Request::Stats { .. } => "stats",
        Request::Evict { .. } => "evict",
        Request::SimulateFunction { .. } => "simulate_function",
        Request::OptimizeVerified { .. } => "optimize_verified",
    }
}

/// `response` with the cache-state-dependent fields blanked (see the module
/// docs).
pub fn normalize(request: &Request, response: &Response) -> Response {
    match (request, response) {
        (_, Response::Verified(outcome)) => {
            let mut outcome = outcome.clone();
            outcome.search.evaluations = 0;
            Response::Verified(outcome)
        }
        (_, Response::Stats(stats)) => {
            let mut stats = stats.clone();
            stats.memo = Default::default();
            stats.shards.clear();
            stats.scaffold = Default::default();
            stats.replay = Default::default();
            Response::Stats(stats)
        }
        (_, Response::Evicted(_)) => Response::Evicted(EvictCounts::default()),
        (Request::PriceBatchBounded { bound, .. }, Response::BoundedPrices(costs)) => {
            Response::BoundedPrices(
                costs
                    .iter()
                    .map(|&c| match c {
                        BoundedCost::Exact(cost) if cost < *bound => c,
                        _ => BoundedCost::AtLeast(*bound),
                    })
                    .collect(),
            )
        }
        (_, other) => other.clone(),
    }
}

/// A 64-bit fingerprint of a response's wire encoding.
pub fn fingerprint(response: &Response) -> u64 {
    let mut bytes = Vec::new();
    encode_response(0, response, &mut bytes);
    let mut hasher = DefaultHasher::new();
    hasher.write(&bytes);
    hasher.finish()
}

/// The fingerprint of the normalized answer.
pub fn normalized_fingerprint(request: &Request, response: &Response) -> u64 {
    fingerprint(&normalize(request, response))
}

/// `true` when `sim` equals the legacy simulator's replay of `function`.
pub fn legacy_agrees(replayer: &TraceReplayer, function: &HashFunction, sim: &SimStats) -> bool {
    replayer
        .replay_legacy(function)
        .is_ok_and(|legacy| &legacy == sim)
}

/// `true` when every candidate's estimate equals `MissEstimator`'s.
pub fn estimates_agree(profile: &ConflictProfile, outcome: &VerifiedOutcome) -> bool {
    let estimator = MissEstimator::new(profile);
    outcome
        .candidates
        .iter()
        .all(|c| estimator.estimate(&c.function).ok() == Some(c.estimated_misses))
}

/// Mismatches of a verified answer against the estimator (every
/// candidate's estimate) and the legacy simulator (the winner's
/// `SimStats`). The baseline is checked once per application by the caller.
pub fn check_verified(
    profile: &ConflictProfile,
    replayer: &TraceReplayer,
    outcome: &VerifiedOutcome,
) -> u64 {
    let winner = outcome.winner();
    u64::from(!estimates_agree(profile, outcome))
        + u64::from(!legacy_agrees(replayer, &winner.function, &winner.sim))
}
