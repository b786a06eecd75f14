//! The verified optimization rebuilt from the public calls the service
//! makes, in the same order, with a span around each call.
//!
//! `IndexService::optimize_verified` runs: search (keeping the hill climb's
//! final neighbourhood), price that neighbourhood, take the winner plus the
//! best `top_k - 1` neighbours, `TraceReplayer::replay_many` (whose first
//! use builds the 3C pre-classification), the conventional baseline replay
//! (cached per application), `EstimateAudit` and the true-miss pick. The
//! traced run calls the same public functions here and checks that the
//! answer equals the service's.

use std::sync::{Arc, OnceLock};

use cache_sim::CacheConfig;
use xorindex::search::{NeighborPool, PackedNeighborhood, Searcher};
use xorindex::{
    ConflictProfile, FrozenKernel, FunctionClass, HashFunction, ScaffoldCache, SearchAlgorithm,
    ShardedMemo,
};
use xorindex_verify::{
    pick_winner, CandidateVerdict, EstimateAudit, SimStats, TraceReplayer, VerifiedOutcome,
};

use crate::common::HASHED_BITS;
use crate::tracer::Tracer;

/// The per-application state the service keeps between requests.
#[derive(Debug)]
pub struct AppState {
    pub profile: ConflictProfile,
    pub cache: CacheConfig,
    pub class: FunctionClass,
    pub kernel: Arc<FrozenKernel>,
    pub memo: ShardedMemo,
    pub scaffold: ScaffoldCache,
    pub replayer: TraceReplayer,
    pub baseline: OnceLock<SimStats>,
}

impl AppState {
    pub fn new(
        profile: ConflictProfile,
        cache: CacheConfig,
        class: FunctionClass,
        kernel: Arc<FrozenKernel>,
        replayer: TraceReplayer,
    ) -> Self {
        AppState {
            profile,
            cache,
            class,
            kernel,
            memo: ShardedMemo::new(),
            scaffold: ScaffoldCache::new(),
            replayer,
            baseline: OnceLock::new(),
        }
    }
}

/// One verified optimization through the public calls, each in a span
/// parented to `parent`.
pub fn verified(
    tracer: &Tracer,
    request: u64,
    parent: u32,
    app: &AppState,
    algorithm: SearchAlgorithm,
    top_k: usize,
) -> Result<VerifiedOutcome, String> {
    let span = |name, f: &mut dyn FnMut()| tracer.span(name, request, Some(parent), |_| f());
    let searcher = Searcher::new(&app.profile, app.class, app.cache.set_bits())
        .map_err(|e| e.to_string())?
        .with_pool(NeighborPool::UnitsAndPairs)
        .with_kernel(Arc::clone(&app.kernel))
        .with_memo(app.memo.clone())
        .with_scaffold_cache(app.scaffold.clone())
        .with_threads(1);

    let mut found = None;
    span("xorindex.search", &mut || {
        found = Some(searcher.run_with_neighborhood(algorithm));
    });
    let (search, hood) = found.expect("the span ran").map_err(|e| e.to_string())?;

    let mut functions = vec![search.function.clone()];
    let mut estimates = vec![search.estimated_misses];
    if top_k > 1 {
        let hood = match hood {
            Some(hood) => hood,
            None => {
                let winner = search.function.null_space().to_packed();
                let mut hood = None;
                span("xorindex.search.generate", &mut || {
                    let pool =
                        NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, &app.profile);
                    hood = Some(PackedNeighborhood::generate(&winner, app.class, &pool));
                });
                hood.expect("the span ran")
            }
        };
        let mut costs = Vec::new();
        span("xorindex.price", &mut || {
            costs = searcher.engine().estimate_neighborhood(&hood);
        });
        let mut scored: Vec<(u64, usize)> =
            costs.into_iter().enumerate().map(|(i, c)| (c, i)).collect();
        scored.sort_unstable();
        for &(estimate, i) in &scored {
            if functions.len() == top_k {
                break;
            }
            let subspace = hood.candidates[i].basis.to_subspace();
            if let Ok(function) = HashFunction::from_null_space(&subspace, app.class) {
                functions.push(function);
                estimates.push(estimate);
            }
        }
    }

    let mut sims = None;
    span("xorindex_verify.replay_many", &mut || {
        sims = Some(app.replayer.replay_many(&functions, 0));
    });
    let sims = sims.expect("the span ran").map_err(|e| e.to_string())?;
    let baseline = match app.baseline.get() {
        Some(baseline) => baseline.clone(),
        None => {
            let conventional = HashFunction::conventional(HASHED_BITS, app.cache.set_bits())
                .map_err(|e| e.to_string())?;
            let mut sim = None;
            span("xorindex_verify.baseline_replay", &mut || {
                sim = Some(app.replayer.replay(&conventional));
            });
            let sim = sim.expect("the span ran").map_err(|e| e.to_string())?;
            app.baseline.get_or_init(|| sim).clone()
        }
    };
    let pairs: Vec<(u64, u64)> = estimates
        .iter()
        .zip(&sims)
        .map(|(&estimate, sim)| (estimate, sim.conflict_misses()))
        .collect();
    let audit = EstimateAudit::new(&pairs);
    let winner = pick_winner(&sims).map_err(|e| e.to_string())?;
    let candidates = functions
        .into_iter()
        .zip(estimates)
        .zip(sims)
        .map(|((function, estimated_misses), sim)| CandidateVerdict {
            function,
            estimated_misses,
            sim,
        })
        .collect();
    Ok(VerifiedOutcome {
        search,
        candidates,
        winner,
        baseline,
        audit,
    })
}
