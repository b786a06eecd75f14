//! Bench for the bit-sliced batch pricing paths.
//!
//! PR 6 refactored the pricing stack from one-candidate-at-a-time to
//! 64-candidates-per-word. This target pins the four ways one full
//! hill-climbing neighbourhood can be priced, on the paper's susan @ 4 KB
//! configuration (n = 16, 4095 candidates of dimension 6):
//!
//! * `scalar` — the PR 3 baseline: one [`FrozenKernel::cost`] call per
//!   candidate;
//! * `delta` — the PR 5 path: hyperplane costs plus the one-generator coset
//!   delta per candidate ([`FrozenKernel::neighbour_cost`]);
//! * `sliced` — the generic transposed batch
//!   ([`FrozenKernel::cost_batch_sliced`]): membership masks for 64
//!   candidates per `u64` word, one histogram scan per block;
//! * `coset` — the neighbourhood-aware sliced path
//!   ([`FrozenKernel::cost_neighborhood_sliced`]): hyperplane functionals
//!   hoisted into a `CosetFrame`, the histogram grouped by parent remainder,
//!   each 64-lane block summing only the entries its cosets select.
//!
//! A second group reprices a neighbourhood slice at n = 26 through the
//! hybrid profile (dense tail over the hot low region, binary search above
//! it) — the wide-width regime where no flat table exists.
//!
//! A third group pits the engine's two neighbourhood routes against each
//! other on lame (`n = 16`) at 16, 8, 4 and 1 KB, i.e. candidate dims 4, 5,
//! 6 and 8. Each row prices every neighbourhood of one `xor_unlimited` hill
//! climb from the conventional function, each against that step's
//! incumbent, and backfills a memo with the exact costs, as the engine
//! does: `delta` as above (exact, it never abandons, so every lane is
//! memoized), and `coset_bounded`
//! ([`FrozenKernel::cost_neighborhood_bounded`], which abandons lanes that
//! reach the incumbent and memoizes only the rest). These rows are the
//! evidence for the engine's delta limit of dim 4. In three
//! `CRITERION_QUICK=1` runs on a 2-vCPU VM, delta vs coset_bounded took
//! 1.1–1.6 vs 1.7–2.2 ms at dim 4, 0.77–1.12 vs 0.41–0.65 ms at dim 5,
//! 10.8–13.1 vs 3.9–4.6 ms at dim 6 and 57–129 vs 18–30 ms at dim 8.
//! Without the memo backfill delta stays ahead up to dim 5: the memo
//! inserts of lanes the bounded route abandons are what tip dim 5. The
//! `CRITERION_JSON` records land in `BENCH_sliced.json` on CI.

use std::hint::black_box;

use cache_sim::BlockAddr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood, SearchAlgorithm, Searcher};
use xorindex::{BoundedCost, ConflictProfile, FrozenKernel, FunctionClass, ShardedMemo};
use xorindex_bench::{prepare_data, HASHED_BITS};

const WIDE_BITS: usize = 26;

/// The wide-width workload: small-stride blocks feeding the hybrid tail plus
/// bit-22 collision pairs (same shape as the serve-layer wide-width test).
fn wide_profile() -> ConflictProfile {
    let mut footprint: Vec<u64> = (0..128u64).map(|k| k * 3 % 128).collect();
    footprint.extend((0..64u64).flat_map(|k| [k, k | (1 << 22)]));
    let trace = (0..4 * footprint.len()).map(|i| BlockAddr(footprint[i % footprint.len()]));
    ConflictProfile::from_blocks(trace, WIDE_BITS, 1 << 20)
}

struct PreparedNeighborhood {
    neighborhood: PackedNeighborhood,
    parent_span: PackedBasis,
    lanes: Vec<(usize, u64)>,
}

/// The `xor_unlimited` neighbourhood of `parent`, with its lanes.
fn prepare(parent: &PackedBasis, pool: &[u64]) -> PreparedNeighborhood {
    let neighborhood = PackedNeighborhood::generate(parent, FunctionClass::xor_unlimited(), pool);
    let parent_span = neighborhood.parent_span().expect("non-empty neighbourhood");
    let lanes: Vec<(usize, u64)> = neighborhood
        .candidates
        .iter()
        .map(|c| (c.hyperplane, c.direction))
        .collect();
    PreparedNeighborhood {
        neighborhood,
        parent_span,
        lanes,
    }
}

/// The neighbourhood of the conventional function at `set_bits`.
fn prepare_conventional(profile: &ConflictProfile, set_bits: usize) -> PreparedNeighborhood {
    let n = profile.hashed_bits();
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(n, profile);
    prepare(&PackedBasis::standard_span(n, set_bits..n), &pool)
}

/// The hyperplane-delta route: each hyperplane priced once, then one
/// `2^(dim−1)`-term coset sum per lane.
fn delta_costs(kernel: &FrozenKernel, prep: &PreparedNeighborhood) -> Vec<u64> {
    let hyperplanes = &prep.neighborhood.hyperplanes;
    let hyper_costs: Vec<u64> = hyperplanes.iter().map(|h| kernel.cost(h)).collect();
    prep.neighborhood
        .candidates
        .iter()
        .map(|c| {
            kernel.neighbour_cost(
                hyper_costs[c.hyperplane],
                &hyperplanes[c.hyperplane],
                c.direction,
            )
        })
        .collect()
}

/// The coset route under an incumbent bound.
fn coset_bounded_costs(
    kernel: &FrozenKernel,
    prep: &PreparedNeighborhood,
    bound: u64,
) -> Vec<BoundedCost> {
    kernel.cost_neighborhood_bounded(
        &prep.parent_span,
        &prep.neighborhood.hyperplanes,
        &prep.lanes,
        bound,
    )
}

fn bench_paths(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    kernel: &FrozenKernel,
    prep: &PreparedNeighborhood,
) {
    let refs: Vec<&PackedBasis> = prep.neighborhood.bases().collect();
    let n = refs.len();

    // Bit-identity across all four paths before timing anything.
    let scalar: Vec<u64> = refs.iter().map(|b| kernel.cost(b)).collect();
    assert_eq!(scalar, delta_costs(kernel, prep));
    assert_eq!(scalar, kernel.cost_batch_sliced(&refs));
    assert_eq!(
        scalar,
        kernel.cost_neighborhood_sliced(
            &prep.parent_span,
            &prep.neighborhood.hyperplanes,
            &prep.lanes
        )
    );

    group.bench_with_input(
        BenchmarkId::new(format!("{label}/scalar"), n),
        &n,
        |b, _| b.iter(|| refs.iter().map(|basis| kernel.cost(basis)).sum::<u64>()),
    );
    group.bench_with_input(BenchmarkId::new(format!("{label}/delta"), n), &n, |b, _| {
        b.iter(|| black_box(delta_costs(kernel, prep)))
    });
    group.bench_with_input(
        BenchmarkId::new(format!("{label}/sliced"), n),
        &n,
        |b, _| b.iter(|| black_box(kernel.cost_batch_sliced(&refs))),
    );
    group.bench_with_input(BenchmarkId::new(format!("{label}/coset"), n), &n, |b, _| {
        b.iter(|| {
            black_box(kernel.cost_neighborhood_sliced(
                &prep.parent_span,
                &prep.neighborhood.hyperplanes,
                &prep.lanes,
            ))
        })
    });
}

/// Every neighbourhood an `xor_unlimited` hill climb from the conventional
/// function prices, each with the incumbent cost it is priced against.
/// Every `xor_unlimited` candidate is admissible, so the climb moves to the
/// cheapest neighbour (lowest index on ties) while it improves.
fn climb(
    kernel: &FrozenKernel,
    profile: &ConflictProfile,
    set_bits: usize,
) -> Vec<(PreparedNeighborhood, u64)> {
    let n = profile.hashed_bits();
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(n, profile);
    let mut parent = PackedBasis::standard_span(n, set_bits..n);
    let mut incumbent = kernel.cost(&parent);
    let mut steps = Vec::new();
    loop {
        let prep = prepare(&parent, &pool);
        let best = prep
            .neighborhood
            .bases()
            .map(|b| kernel.cost(b))
            .enumerate()
            .min_by_key(|&(i, cost)| (cost, i));
        let next = match best {
            Some((i, cost)) if cost < incumbent => {
                Some((prep.neighborhood.candidates[i].basis.clone(), cost))
            }
            _ => None,
        };
        steps.push((prep, incumbent));
        match next {
            Some((basis, cost)) => (parent, incumbent) = (basis, cost),
            None => break,
        }
    }
    let outcome = Searcher::new(profile, FunctionClass::xor_unlimited(), set_bits)
        .expect("valid geometry")
        .run(SearchAlgorithm::HillClimb)
        .expect("search runs");
    assert_eq!(
        outcome.estimated_misses, incumbent,
        "same climb as the engine"
    );
    assert_eq!(
        outcome.steps + 1,
        steps.len() as u64,
        "same climb as the engine"
    );
    steps
}

/// The engine's two neighbourhood routes over a whole climb: `delta` (exact,
/// never abandons) and `coset_bounded` (abandons lanes that reach each
/// step's incumbent). Like the engine, each route backfills a fresh memo
/// with the exact costs it computed: every delta lane, but only the coset
/// lanes below the incumbent.
fn bench_routes(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    kernel: &FrozenKernel,
    steps: &[(PreparedNeighborhood, u64)],
) {
    let lanes: usize = steps.iter().map(|(prep, _)| prep.lanes.len()).sum();

    // Bit-identity before timing: delta is exact, bounded lanes are exact
    // below the bound and `AtLeast(bound)` otherwise.
    for (prep, bound) in steps {
        let scalar: Vec<u64> = prep.neighborhood.bases().map(|b| kernel.cost(b)).collect();
        assert_eq!(scalar, delta_costs(kernel, prep));
        let bounded = coset_bounded_costs(kernel, prep, *bound);
        for (cost, &truth) in bounded.iter().zip(&scalar) {
            match *cost {
                BoundedCost::Exact(c) => assert_eq!(c, truth),
                BoundedCost::AtLeast(b) => assert!(b == *bound && truth >= b),
            }
        }
    }

    group.bench_with_input(
        BenchmarkId::new(format!("{label}/delta"), lanes),
        &lanes,
        |b, _| {
            b.iter(|| {
                let memo = ShardedMemo::new();
                for (prep, _) in steps {
                    for (basis, cost) in prep.neighborhood.bases().zip(delta_costs(kernel, prep)) {
                        memo.insert(basis, cost);
                    }
                }
                black_box(memo.len())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("{label}/coset_bounded"), lanes),
        &lanes,
        |b, _| {
            b.iter(|| {
                let memo = ShardedMemo::new();
                for (prep, bound) in steps {
                    let costs = coset_bounded_costs(kernel, prep, *bound);
                    for (basis, cost) in prep.neighborhood.bases().zip(costs) {
                        if let BoundedCost::Exact(cost) = cost {
                            memo.insert(basis, cost);
                        }
                    }
                }
                black_box(memo.len())
            })
        },
    );
}

fn bench_sliced_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliced_batch");
    group.sample_size(10);

    // The paper's configuration: susan @ 4 KB, n = 16, dimension-6
    // candidates, one full 4095-candidate neighbourhood.
    let susan = prepare_data("susan", 4);
    let kernel = FrozenKernel::new(&susan.profile);
    let prep = prepare_conventional(&susan.profile, susan.cache.set_bits());
    bench_paths(&mut group, "susan", &kernel, &prep);

    // Wide-width regime: n = 26 through the hybrid profile (no flat table).
    let wide = wide_profile();
    let kernel = FrozenKernel::new(&wide);
    let prep = prepare_conventional(&wide, WIDE_BITS - 6);
    let dense = kernel.dense();
    assert!(!dense.has_flat_lookup() && dense.has_dense_tail());
    bench_paths(&mut group, "wide26", &kernel, &prep);

    // Route crossover: whole lame climbs at candidate dims 4, 5, 6 and 8.
    for (kb, dim) in [(16u64, 4usize), (8, 5), (4, 6), (1, 8)] {
        let lame = prepare_data("lame", kb);
        assert_eq!(HASHED_BITS - lame.cache.set_bits(), dim, "lame@{kb}KB");
        let kernel = FrozenKernel::new(&lame.profile);
        let steps = climb(&kernel, &lame.profile, lame.cache.set_bits());
        bench_routes(&mut group, &format!("lame{kb}k_dim{dim}"), &kernel, &steps);
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_sliced_batch
}
criterion_main!(benches);
