//! Bench for the two LRU-stack walks every cold trace pays before any search:
//! conflict-vector profiling (paper Fig. 1) and 3C pre-classification.
//!
//! On susan@1KB, susan@4KB, lame@4KB and adpcm enc@1KB (n = 16, tiny scale):
//!
//! * `from_blocks` — the production profiler: a flat `LruWindow` walk with
//!   flat `u64` vector counters;
//! * `from_blocks_reference` — Fig. 1 as written: an `LruStack` walk and a
//!   `BitVec`-keyed `HashMap` increment per conflict vector;
//! * `reuse_build` / `reuse_build_reference` — `ReuseStream::build` on the
//!   same window vs. the `MissClassifier` walk over the `LruStack`.
//!
//! The reference/fast ratio is the headline number for the flat-window walk.
//! Bit-identity of both pairs is asserted on every cell before anything is
//! timed.

use std::hint::black_box;

use cache_sim::ReuseStream;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xorindex::ConflictProfile;
use xorindex_bench::{prepare_data, HASHED_BITS};

const CELLS: [(&str, u64); 4] = [("susan", 1), ("susan", 4), ("lame", 4), ("adpcm enc", 1)];

fn bench_profile_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_pass");
    group.sample_size(10);
    for (name, kb) in CELLS {
        let prepared = prepare_data(name, kb);
        let blocks = &prepared.blocks;
        let capacity = prepared.cache.num_blocks() as usize;
        let label = format!("{}@{kb}KB", name.replace(' ', "_"));

        let fast = ConflictProfile::from_blocks(blocks.iter().copied(), HASHED_BITS, capacity);
        let reference =
            ConflictProfile::from_blocks_reference(blocks.iter().copied(), HASHED_BITS, capacity);
        assert_eq!(
            fast, reference,
            "{label}: fast profile must equal the reference"
        );
        assert_eq!(
            ReuseStream::build(blocks, capacity),
            ReuseStream::build_reference(blocks, capacity),
            "{label}: fast reuse codes must equal the reference"
        );

        group.bench_with_input(
            BenchmarkId::new("from_blocks", &label),
            blocks,
            |b, blocks| {
                b.iter(|| {
                    black_box(ConflictProfile::from_blocks(
                        blocks.iter().copied(),
                        HASHED_BITS,
                        capacity,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("from_blocks_reference", &label),
            blocks,
            |b, blocks| {
                b.iter(|| {
                    black_box(ConflictProfile::from_blocks_reference(
                        blocks.iter().copied(),
                        HASHED_BITS,
                        capacity,
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reuse_build", &label),
            blocks,
            |b, blocks| b.iter(|| black_box(ReuseStream::build(blocks, capacity))),
        );
        group.bench_with_input(
            BenchmarkId::new("reuse_build_reference", &label),
            blocks,
            |b, blocks| b.iter(|| black_box(ReuseStream::build_reference(blocks, capacity))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_profile_pass);
criterion_main!(benches);
