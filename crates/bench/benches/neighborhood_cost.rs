//! Bench for the neighbourhood-generation hot path.
//!
//! This target pins the cost of producing one full hill-climbing
//! neighbourhood two ways at n = 12 / 16 / 20 / 26 hashed bits (26 is the
//! wide-width regime where the pricing side runs on the hybrid profile):
//!
//! * `packed` — the public [`PackedNeighborhood::generate`]: incremental
//!   `u64` hyperplane enumeration, one reduction per `(hyperplane,
//!   direction)` lane that both deduplicates (first direction per remainder
//!   modulo the hyperplane) and, for the permutation-based class, tests
//!   Eq. 5 on projections; then one basis materialized per candidate (the
//!   searches themselves stop at the lanes);
//! * `subspace` — an older representation, reproduced verbatim:
//!   heap-allocated [`Subspace`] candidates, full Gaussian re-canonicalization
//!   per extension, `HashSet<Subspace>` dedup.
//!
//! Both are generated from the conventional null space with the default
//! `UnitsAndPairs` pool, for the unlimited-XOR and unrestricted
//! permutation-based classes (bit selection uses the tiny structural
//! neighbourhood and is not interesting here). The rows above fix the
//! null-space dimension at 6; the `packed_dim/{class}/16_dim{4,8}` and
//! `subspace_dim/...` rows add dims 4 and 8 at n = 16 — the paper's 16 KB
//! and 1 KB shapes, where the hyperplane count is 15 and 255. Before timing,
//! every row's candidate count is asserted equal to the verbatim count. The
//! `CRITERION_JSON` records land in `BENCH_neighborhood.json` on CI,
//! extending the perf trajectory started by `BENCH_search_cost.json`.

use std::collections::HashSet;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gf2::{BitVec, PackedBasis, Subspace};
use xorindex::search::{NeighborPool, PackedNeighborhood};
use xorindex::{ConflictProfile, FunctionClass};

/// Verbatim pre-refactor generation: the comparison baseline the packed path
/// replaced. Kept local to the bench so the library carries no dead code.
fn subspace_neighbors(null_space: &Subspace, class: FunctionClass, pool: &[BitVec]) -> usize {
    let m = null_space.ambient_width() - null_space.dim();
    let admissible = |candidate: &Subspace| match class {
        FunctionClass::BitSelecting => candidate.basis().iter().all(|b| b.weight() == 1),
        FunctionClass::Xor { .. } => true,
        FunctionClass::PermutationBased { .. } => candidate.admits_permutation_based_function(m),
    };
    let mut seen: HashSet<Subspace> = HashSet::new();
    let mut count = 0usize;
    for hyperplane in null_space.hyperplanes() {
        for &v in pool {
            if null_space.contains(v) {
                continue;
            }
            let candidate = hyperplane.extended(v);
            if candidate == *null_space || seen.contains(&candidate) {
                continue;
            }
            if admissible(&candidate) {
                seen.insert(candidate.clone());
                count += 1;
            }
        }
    }
    count
}

const CLASSES: [(&str, FunctionClass); 2] = [
    ("xor_unlimited", FunctionClass::Xor { max_inputs: None }),
    (
        "permutation_unlimited",
        FunctionClass::PermutationBased { max_inputs: None },
    ),
];

/// Benches one neighbourhood shape — `packed` and `subspace` rows labelled
/// `{packed,subspace}{suffix}/{class}/{parameter}` — from the conventional
/// null space of dimension `dim` in GF(2)^n, after asserting that both
/// generators produce the same number of candidates.
fn bench_shape(
    group: &mut criterion::BenchmarkGroup<'_>,
    n: usize,
    dim: usize,
    suffix: &str,
    parameter: &str,
) {
    let set_bits = n - dim;
    // The profile is only consulted by profile-extended pools; a minimal one
    // keeps the prepared input honest.
    let profile = ConflictProfile::from_blocks((0..8u64).map(cache_sim::BlockAddr), n, 64);
    let pool = NeighborPool::UnitsAndPairs.vectors(n, &profile);
    let packed_pool = NeighborPool::UnitsAndPairs.packed_vectors(n, &profile);
    let parent = Subspace::standard_span(n, set_bits..n);
    let packed_parent = PackedBasis::standard_span(n, set_bits..n);

    for (label, class) in CLASSES {
        assert_eq!(
            PackedNeighborhood::generate(&packed_parent, class, &packed_pool).len(),
            subspace_neighbors(&parent, class, &pool),
            "{label} n={n} dim={dim}"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("packed{suffix}/{label}"), parameter),
            &n,
            |b, _| {
                b.iter(|| {
                    black_box(PackedNeighborhood::generate(
                        &packed_parent,
                        class,
                        &packed_pool,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("subspace{suffix}/{label}"), parameter),
            &n,
            |b, _| b.iter(|| black_box(subspace_neighbors(&parent, class, &pool))),
        );
    }
}

fn bench_neighborhood_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood_cost");
    group.sample_size(10);

    // Fix the null-space dimension at 6 (the paper's 4 KB / n = 16 shape) so
    // the hyperplane count stays comparable across widths and only the pool
    // size and word arithmetic scale with n.
    for n in [12usize, 16, 20, 26] {
        bench_shape(&mut group, n, 6, "", &n.to_string());
    }
    // The 16 KB and 1 KB shapes at n = 16.
    for dim in [4usize, 8] {
        bench_shape(&mut group, 16, dim, "_dim", &format!("16_dim{dim}"));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_neighborhood_cost
}
criterion_main!(benches);
