//! Layer probes the traced runs share: one neighbourhood per application,
//! the wire codec, the worker-pool queue, and the ROADMAP layer rows.

use std::sync::Arc;
use std::time::Instant;

use cache_sim::{CacheConfig, ReuseStream};
use gf2::PackedBasis;
use xorindex::search::{NeighborPool, PackedNeighborhood, Searcher};
use xorindex::{BoundedCost, ConflictProfile, FunctionClass, HashFunction, MissEstimator};
use xorindex_serve::{
    decode_client_frame, decode_server_frame, encode_request, encode_response, split_frame, AppId,
    Client, IndexService, Registration, Request, Response, ServerConfig, TcpServer, WorkerPool,
};
use xorindex_verify::{SetIndexStream, TraceReplayer};

use crate::common::{self, timed, HASHED_BITS};
use crate::layers::{Layers, Roadmap};
use crate::stats;
use crate::tracer::Tracer;

/// Server sizing of every `TcpServer` the benchmark hosts.
pub const SERVER: ServerConfig = ServerConfig {
    workers: 2,
    queue_capacity: 64,
    max_in_flight: 64,
};

/// The neighbourhood of the conventional function under `class`.
pub fn conventional_neighborhood(
    profile: &ConflictProfile,
    class: FunctionClass,
    set_bits: usize,
) -> (PackedBasis, PackedNeighborhood) {
    let parent = HashFunction::conventional(HASHED_BITS, set_bits)
        .expect("paper geometries fit the hashed width")
        .null_space()
        .to_packed();
    let pool = NeighborPool::UnitsAndPairs.packed_vectors(HASHED_BITS, profile);
    let hood = PackedNeighborhood::generate(&parent, class, &pool);
    (parent, hood)
}

/// Times generating and pricing (fresh engine, no memo) one neighbourhood
/// at the conventional parent; returns `(generate_s, price_s)`.
pub fn generate_vs_price(
    profile: &ConflictProfile,
    class: FunctionClass,
    set_bits: usize,
) -> (f64, f64) {
    let ((_, hood), generate_s) = timed(|| conventional_neighborhood(profile, class, set_bits));
    let searcher = Searcher::new(profile, class, set_bits)
        .expect("paper geometries fit the hashed width")
        .with_threads(1);
    let mut engine = searcher.engine();
    let (costs, price_s) = timed(|| engine.estimate_neighborhood(&hood));
    std::hint::black_box(costs);
    (generate_s, price_s)
}

/// One neighbourhood per application at the conventional parent: generate
/// vs price time, and the in-process `price_batch` / `price_batch_bounded`
/// throughput on the same candidates (memo evicted first, bound = the
/// conventional estimate). Checks one sampled price against
/// `MissEstimator`; returns the number of mismatches.
pub fn neighborhood_probe(
    service: &IndexService,
    app: AppId,
    profile: &ConflictProfile,
    class: FunctionClass,
    set_bits: usize,
    layers: &mut Layers,
    with_batches: bool,
) -> u64 {
    let (generate_s, price_s) = generate_vs_price(profile, class, set_bits);
    layers.generate_s += generate_s;
    layers.price_s += price_s;
    if !with_batches {
        return 0;
    }
    let (parent, hood) = conventional_neighborhood(profile, class, set_bits);
    let bases: Vec<PackedBasis> = hood.bases().cloned().collect();
    let estimator = MissEstimator::new(profile);
    let bound = estimator.estimate_packed(&parent);
    let _ = service.evict(app);
    let (prices, batch_s) = timed(|| service.price_batch(app, &bases));
    let _ = service.evict(app);
    let (bounded, bounded_s) = timed(|| service.price_batch_bounded(app, &bases, bound));
    let (Ok(prices), Ok(bounded)) = (prices, bounded) else {
        return 1;
    };
    layers.priced += 2 * bases.len() as u64;
    layers.price_busy_s += batch_s + bounded_s;
    layers.bounded += bounded.len() as u64;
    layers.abandoned += bounded
        .iter()
        .filter(|c| matches!(c, BoundedCost::AtLeast(_)))
        .count() as u64;
    match bases.len() {
        0 => 0,
        n => {
            let i = n / 2;
            u64::from(estimator.estimate_packed(&bases[i]) != prices[i])
        }
    }
}

/// Median µs to encode, frame-split and decode one request and its
/// response, over `pairs`.
pub fn codec_us(pairs: &[(Request, Response)]) -> f64 {
    let mut per_pair = Vec::with_capacity(pairs.len());
    let mut buf = Vec::new();
    for (request, response) in pairs {
        let start = Instant::now();
        buf.clear();
        encode_request(7, request, &mut buf);
        let (payload, _) = split_frame(&buf).expect("own frame").expect("whole frame");
        std::hint::black_box(decode_client_frame(payload).expect("own request decodes"));
        buf.clear();
        encode_response(7, response, &mut buf);
        let (payload, _) = split_frame(&buf).expect("own frame").expect("whole frame");
        std::hint::black_box(decode_server_frame(payload).expect("own response decodes"));
        per_pair.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&per_pair)
}

/// Sends `requests` through an in-process `WorkerPool` of 2 workers from 2
/// submitting threads with up to 4 requests in flight each, after timing
/// each request's direct `IndexService::handle`. Returns the queue wait:
/// p50 of submit→wait minus p50 of handle, in ms.
pub fn queue_wait_ms(service: &Arc<IndexService>, requests: &[Request]) -> f64 {
    let handle_ms: Vec<f64> = requests
        .iter()
        .map(|r| timed(|| service.handle(r.clone())).1 * 1e3)
        .collect();
    let pool = WorkerPool::new(Arc::clone(service), 2, 64);
    let waits = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (pool, waits) = (&pool, &waits);
            scope.spawn(move || {
                let mut window = std::collections::VecDeque::new();
                let mut local = Vec::new();
                for request in requests.iter().skip(t).step_by(2) {
                    if window.len() == 4 {
                        let (start, pending): (Instant, xorindex_serve::PendingResponse) =
                            window.pop_front().expect("window is full");
                        std::hint::black_box(pending.wait());
                        local.push(start.elapsed().as_secs_f64() * 1e3);
                    }
                    let start = Instant::now();
                    if let Ok(pending) = pool.submit(request.clone()) {
                        window.push_back((start, pending));
                    }
                }
                for (start, pending) in window {
                    std::hint::black_box(pending.wait());
                    local.push(start.elapsed().as_secs_f64() * 1e3);
                }
                waits.lock().expect("wait log poisoned").extend(local);
            });
        }
    });
    let waits = waits.into_inner().expect("wait log poisoned");
    stats::median(&waits) - stats::median(&handle_ms)
}

/// Round trips of `Stats` requests over a loopback `TcpServer`, in ms, plus
/// the server's wire counters.
pub fn loopback_stats_rtt(
    service: Arc<IndexService>,
    apps: &[AppId],
    calls: usize,
) -> (Vec<f64>, xorindex_serve::WireStats) {
    let server = TcpServer::bind("127.0.0.1:0", service, SERVER).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect loopback");
    let mut rtt = Vec::with_capacity(calls);
    for i in 0..calls {
        let request = Request::Stats {
            app: apps[i % apps.len()],
        };
        let (response, s) = timed(|| client.call(&request));
        if response.is_ok() {
            rtt.push(s * 1e3);
        }
    }
    let wire = server.wire_stats();
    drop(client);
    drop(server);
    (rtt, wire)
}

/// The ROADMAP layer rows: lame@4KB profile time; generate vs price of one
/// xor_unlimited neighbourhood at 1/4/16 KB (summed over susan, lame and
/// adpcm enc); warm replay time per access (susan@4KB, conventional); and
/// the loopback round trip of a `Stats` request.
pub fn roadmap() -> Roadmap {
    let traces = common::benchmark_traces(&["susan", "lame", "adpcm enc"]);
    let mut out = Roadmap::default();
    let mut rows = Vec::new();
    for kb in [1u64, 4, 16] {
        let (mut generate_ms, mut price_ms) = (0.0, 0.0);
        for cell in common::cells(&traces, &[kb]) {
            let (profile, profile_s) = timed(|| {
                ConflictProfile::from_blocks(
                    cell.blocks.iter().copied(),
                    HASHED_BITS,
                    cell.capacity(),
                )
            });
            if cell.label == "lame@4KB" {
                out.lame4k_profile_s = profile_s;
            }
            let (g, p) = generate_vs_price(
                &profile,
                FunctionClass::xor_unlimited(),
                cell.cache.set_bits(),
            );
            generate_ms += g * 1e3;
            price_ms += p * 1e3;
        }
        rows.push((kb, generate_ms, price_ms));
    }
    out.neighborhood_ms = rows;

    let susan = common::cells(&traces[..1], &[4]).remove(0);
    let replayer = TraceReplayer::new(susan.cache, Arc::clone(&susan.blocks));
    let conventional = susan.conventional();
    let _ = replayer.replay(&conventional);
    let best = (0..7)
        .map(|_| timed(|| replayer.replay(&conventional)).1)
        .fold(f64::INFINITY, f64::min);
    out.replay_ns_per_access = best * 1e9 / susan.blocks.len() as f64;

    let service = Arc::new(IndexService::new());
    let profile =
        ConflictProfile::from_blocks(susan.blocks.iter().copied(), HASHED_BITS, susan.capacity());
    let app = service
        .register(Registration::new(profile, susan.cache))
        .expect("susan@4KB registers");
    let (rtt, _) = loopback_stats_rtt(service, &[app], 200);
    out.loopback_rtt_us = stats::median(&rtt) * 1e3;
    out
}

/// Standalone `ReuseStream::build` and `SetIndexStream::build` calls for
/// one (trace, geometry) and the functions replayed on it, each in its own
/// root span outside the request, so they add nothing to its latency.
pub fn preclass_and_index_streams(
    tracer: &Tracer,
    request: u64,
    cache: &CacheConfig,
    replayer: &TraceReplayer,
    functions: &[HashFunction],
    layers: &mut Layers,
) {
    let trace = replayer.trace();
    tracer.span("cache_sim.preclass", request, None, |_| {
        std::hint::black_box(ReuseStream::build(trace, cache.num_blocks() as usize));
    });
    layers.preclass_accesses += trace.len() as u64;
    for f in functions {
        tracer.span("xorindex_verify.index_stream", request, None, |_| {
            std::hint::black_box(SetIndexStream::build(trace, f));
        });
    }
}
