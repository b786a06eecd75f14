//! `explore`: client-driven design-space exploration over TCP; a closed
//! loop of two connections, each keeping a fixed window of pipelined
//! requests in flight, against a `TcpServer` with two workers.
//!
//! The targets are susan@4KB, lame@4KB and adpcm enc@1KB under
//! xor_unlimited. Each target has a seeded finite pool of random null spaces
//! (`gf2::random`), so candidates repeat and the memo does real work. The
//! seeded mix is 40 % `PriceBatch` and 25 % `PriceBatchBounded` (bound = the
//! conventional estimate) of pool candidates, 25 % `SimulateFunction` (of a
//! random pool function, or of the cheapest candidate the client has priced
//! so far), 8 % `Stats` and 2 % `Evict`. At the end the client adopts, per
//! target, the cheapest candidate it priced (ties to the lower pool index)
//! if its simulation beats the conventional function; `misses_removed_pct`
//! compares the two functions' simulated misses.
//!
//! Where the traffic's numbers come from:
//!
//! * `WINDOW` = 8 requests in flight per connection is the pipelining depth
//!   of the repository's own client (`examples/tcp_client.rs`) and the
//!   middle depth of the `serve_wire` bench, so with two connections the
//!   server's worker queue holds up to 16 requests.
//! * `BATCH` = 64 candidates is one 64-lane word of the bit-sliced pricing
//!   kernel (`FrozenKernel::cost_batch_sliced`, see the `sliced_batch`
//!   bench), the smallest batch that fills it.
//! * `POOL` = 1024 candidates per target is an assumption: small enough that
//!   a 20 s run draws each candidate many times (so the memo hits), large
//!   enough that a batch is rarely all hits.
//! * The 40/25/25/8/2 % mix is an assumption, not a measured client. It
//!   follows the paper's flow, in which a designer prices many candidates
//!   for each one simulated; `Stats` stands for a client polling the
//!   server, and `Evict` is kept rare because it throws the memo away.
//!
//! Why: the client sends the batches, so pricing and the memo are used
//! differently from `optimize`, and `Evict` writes sit beside the pricing
//! reads. It also stresses the wire, the worker-pool queue and warm replay;
//! search generation and profiling do none of the work.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use gf2::PackedBasis;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xorindex::{BoundedCost, FunctionClass, HashFunction, MissEstimator, SearchAlgorithm};
use xorindex_serve::{Client, IndexService, Request, Response, ServerFrame};
use xorindex_verify::{EstimateAudit, TraceReplayer};

use crate::common::{timed, EndToEnd, RunConfig, HASHED_BITS};
use crate::hosted::{self, App};
use crate::layers::Layers;
use crate::oracle;
use crate::probes;
use crate::stats;
use crate::tracer::{self, Tracer};

const SETUPS: usize = 3;
const CELLS: [(&str, u64); 3] = [("susan", 4), ("lame", 4), ("adpcm enc", 1)];
/// Candidate functions per target (an assumption; see the module docs).
const POOL: usize = 1024;
/// Candidates per pricing batch: one 64-lane word of the sliced kernel.
const BATCH: usize = 64;
/// Pipelined requests in flight per connection, as in `tcp_client.rs`.
const WINDOW: usize = 8;
/// Logged requests re-executed by the traced run.
const TRACED_REQUESTS: usize = 1500;
/// Simulated functions per target checked against the legacy simulator.
const LEGACY_SAMPLES: usize = 4;

/// One target's candidate pool and its reference prices.
struct Pool {
    bases: Vec<PackedBasis>,
    functions: Vec<HashFunction>,
    /// `MissEstimator` prices of the pool, the pricing oracle.
    estimates: Vec<u64>,
    /// The conventional function's estimate: the bounded requests' bound.
    bound: u64,
}

fn pools(config: &RunConfig, apps: &[App]) -> Vec<Pool> {
    apps.iter()
        .enumerate()
        .map(|(a, app)| {
            let mut rng = config.rng(0xE0 + a as u64);
            let set_bits = app.cell.cache.set_bits();
            let mut bases = Vec::with_capacity(POOL);
            let mut functions = Vec::with_capacity(POOL);
            while functions.len() < POOL {
                let ns =
                    gf2::random::random_subspace(&mut rng, HASHED_BITS, HASHED_BITS - set_bits);
                if let Ok(f) = HashFunction::from_null_space(&ns, app.class) {
                    bases.push(ns.to_packed());
                    functions.push(f);
                }
            }
            let estimator = MissEstimator::new(&app.profile);
            let estimates = bases.iter().map(|b| estimator.estimate_packed(b)).collect();
            let bound = estimator
                .estimate(&app.conventional_function())
                .expect("conventional fits");
            Pool {
                bases,
                functions,
                estimates,
                bound,
            }
        })
        .collect()
}

/// The pool indices one batch prices, kept as the seed that draws them: a
/// logged request then costs a few bytes rather than `BATCH` indices, so the
/// log does not add to `peak_rss_mb` in proportion to throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Picks(u64);

impl Picks {
    fn get(self) -> Vec<u16> {
        let mut rng = StdRng::seed_from_u64(self.0);
        (0..BATCH).map(|_| rng.gen_range(0..POOL as u16)).collect()
    }
}

/// A logged request, compact enough to keep every one of a run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Op {
    Batch { app: usize, picks: Picks },
    Bounded { app: usize, picks: Picks },
    Simulate { app: usize, pick: u16 },
    Stats { app: usize },
    Evict { app: usize },
}

impl Op {
    fn request(&self, apps: &[App], pools: &[Pool]) -> Request {
        let bases = |app: usize, picks: &[u16]| -> Vec<PackedBasis> {
            picks
                .iter()
                .map(|&p| pools[app].bases[p as usize].clone())
                .collect()
        };
        match self {
            Op::Batch { app, picks } => Request::PriceBatch {
                app: apps[*app].id,
                bases: bases(*app, &picks.get()),
            },
            Op::Bounded { app, picks } => Request::PriceBatchBounded {
                app: apps[*app].id,
                bases: bases(*app, &picks.get()),
                bound: pools[*app].bound,
            },
            Op::Simulate { app, pick } => Request::SimulateFunction {
                app: apps[*app].id,
                function: pools[*app].functions[*pick as usize].clone(),
            },
            Op::Stats { app } => Request::Stats { app: apps[*app].id },
            Op::Evict { app } => Request::Evict { app: apps[*app].id },
        }
    }
}

/// What a client knows: the cheapest priced candidate per target.
fn next_op(rng: &mut StdRng, targets: usize, cheapest: &[Option<(u64, u16)>]) -> Op {
    let app = rng.gen_range(0..targets);
    let picks = |rng: &mut StdRng| Picks(rng.random());
    match rng.gen_range(0..100u32) {
        0..=39 => Op::Batch {
            app,
            picks: picks(rng),
        },
        40..=64 => Op::Bounded {
            app,
            picks: picks(rng),
        },
        65..=89 => {
            let random = rng.gen_range(0..POOL as u16);
            let pick = match cheapest[app] {
                Some((_, best)) if rng.gen_bool(0.5) => best,
                _ => random,
            };
            Op::Simulate { app, pick }
        }
        90..=97 => Op::Stats { app },
        _ => Op::Evict { app },
    }
}

/// Per target, the cheapest priced `(estimate, pool index)` so far.
type Cheapest = Vec<Option<(u64, u16)>>;

/// Keeps the cheaper of `slot` and `(cost, pick)`, ties to the lower index.
fn offer(slot: &mut Option<(u64, u16)>, cost: u64, pick: u16) {
    *slot = Some(slot.map_or((cost, pick), |best| best.min((cost, pick))));
}

/// One answered request.
struct Entry {
    op: Op,
    latency_ms: f64,
    /// Seconds from the window's start to the answer.
    done_s: f64,
    fingerprint: u64,
    /// Simulated misses of a `SimulateFunction` answer.
    sim_misses: Option<u64>,
    error: bool,
}

/// One connection's closed loop with `WINDOW` requests in flight.
fn client_loop(
    client: &mut Client,
    mut rng: StdRng,
    apps: &[App],
    pools: &[Pool],
    start: Instant,
    seconds: f64,
) -> (Vec<Entry>, u64, Cheapest) {
    let mut cheapest: Cheapest = vec![None; apps.len()];
    let mut inflight: VecDeque<(u64, Op, Request, Instant)> = VecDeque::new();
    let mut log = Vec::new();
    let mut client_errors = 0;
    loop {
        let sending = start.elapsed().as_secs_f64() < seconds;
        if !sending && inflight.is_empty() {
            break;
        }
        if sending && inflight.len() < WINDOW {
            let op = next_op(&mut rng, apps.len(), &cheapest);
            let request = op.request(apps, pools);
            let sent = Instant::now();
            let id = client.send(&request);
            if client.flush().is_err() {
                client_errors += 1;
                break;
            }
            inflight.push_back((id, op, request, sent));
            continue;
        }
        let (id, op, request, sent) = inflight.pop_front().expect("a request is in flight");
        let response = match client.recv() {
            Ok((got, ServerFrame::Response(response))) if got == id => response,
            _ => {
                client_errors += 1 + inflight.len() as u64;
                break;
            }
        };
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let mut sim_misses = None;
        match (&op, &response) {
            (Op::Batch { app, picks }, Response::Prices(costs)) => {
                for (&p, &c) in picks.get().iter().zip(costs) {
                    offer(&mut cheapest[*app], c, p);
                }
            }
            (Op::Bounded { app, picks }, Response::BoundedPrices(costs)) => {
                for (&p, c) in picks.get().iter().zip(costs) {
                    if let BoundedCost::Exact(c) = *c {
                        offer(&mut cheapest[*app], c, p);
                    }
                }
            }
            (Op::Simulate { .. }, Response::Simulated(sim)) => sim_misses = Some(sim.misses()),
            _ => {}
        }
        log.push(Entry {
            done_s: start.elapsed().as_secs_f64(),
            fingerprint: oracle::normalized_fingerprint(&request, &response),
            error: matches!(response, Response::Error(_)),
            op,
            latency_ms,
            sim_misses,
        });
    }
    (log, client_errors, cheapest)
}

pub fn run(config: &RunConfig) -> (EndToEnd, Option<Layers>) {
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let classes = [FunctionClass::xor_unlimited()];
    let (mut hosted, times, walls) = hosted::repeated_setup(SETUPS, &CELLS, &classes);
    e2e.setup_s = walls;
    times.fill(&mut layers);
    let apps = &hosted.apps;
    let pools = pools(config, apps);

    let start = e2e.start_window();
    let logs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (c, client) in hosted.clients.iter_mut().enumerate() {
            let (logs, pools) = (&logs, &pools);
            let rng = config.rng(0xC0 + c as u64);
            scope.spawn(move || {
                let out = client_loop(client, rng, apps, pools, start, config.seconds);
                logs.lock().expect("log poisoned").push(out);
            });
        }
    });
    e2e.end_window(start);
    layers.wire = hosted.server.wire_stats();
    let mut entries = Vec::new();
    let mut adopted: Cheapest = vec![None; apps.len()];
    for (log, client_errors, cheapest) in logs.into_inner().expect("log poisoned") {
        e2e.client_errors += client_errors;
        e2e.attempted += client_errors;
        entries.extend(log);
        for (adopted, (cost, pick)) in adopted
            .iter_mut()
            .zip(cheapest)
            .filter_map(|(a, c)| Some((a, c?)))
        {
            offer(adopted, cost, pick);
        }
    }

    entries.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));

    let mut simulated: HashMap<(usize, u16), u64> = HashMap::new();
    for entry in &entries {
        e2e.attempted += 1;
        if entry.error {
            e2e.error_responses += 1;
            continue;
        }
        e2e.latencies_ms.push(entry.latency_ms);
        if let (Op::Simulate { app, pick }, Some(misses)) = (&entry.op, entry.sim_misses) {
            simulated.insert((*app, *pick), misses);
        }
    }
    // The explorer adopts the cheapest candidate it priced once simulation
    // confirms it beats the conventional function.
    let chosen: Vec<Option<u64>> = adopted
        .iter()
        .enumerate()
        .map(|(a, pick)| pick.and_then(|(_, p)| simulated.get(&(a, p)).copied()))
        .collect();
    for (app, chosen) in apps.iter().zip(&chosen) {
        let conventional = app.conventional.misses();
        e2e.conventional_misses += conventional;
        e2e.chosen_misses += chosen.map_or(conventional, |c| c.min(conventional));
    }

    // The twin answers every distinct request once; every served answer
    // must equal it, its prices must equal `MissEstimator`, and a sample of
    // its simulations must equal the legacy simulator.
    let twin = hosted::twin(apps);
    let mut distinct: Vec<&Op> = Vec::new();
    let mut seen: HashMap<&Op, usize> = HashMap::new();
    for entry in &entries {
        seen.entry(&entry.op).or_insert_with(|| {
            distinct.push(&entry.op);
            distinct.len() - 1
        });
    }
    let twin_answers: Vec<(f64, u64, Response)> = {
        let slots = Mutex::new(vec![None; distinct.len()]);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (slots, distinct, twin, pools) = (&slots, &distinct, &twin, &pools);
                scope.spawn(move || {
                    for i in (t..distinct.len()).step_by(2) {
                        let request = distinct[i].request(apps, pools);
                        let (response, s) = timed(|| twin.handle(request.clone()));
                        let fp = oracle::normalized_fingerprint(&request, &response);
                        slots.lock().expect("twin log poisoned")[i] = Some((s * 1e3, fp, response));
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("twin log poisoned")
            .into_iter()
            .map(|s| s.expect("every distinct request was answered"))
            .collect()
    };
    for entry in entries.iter().filter(|e| !e.error) {
        let (handle_ms, fingerprint, _) = &twin_answers[seen[&entry.op]];
        e2e.oracle_mismatches += u64::from(*fingerprint != entry.fingerprint);
        layers.wire_overhead_ms.push(entry.latency_ms - handle_ms);
    }
    let mut legacy_checked = vec![0usize; apps.len()];
    let replayers: Vec<TraceReplayer> = apps
        .iter()
        .map(|a| TraceReplayer::new(a.cell.cache, std::sync::Arc::clone(&a.cell.blocks)))
        .collect();
    for (a, app) in apps.iter().enumerate() {
        e2e.oracle_mismatches += u64::from(!oracle::legacy_agrees(
            &replayers[a],
            &app.conventional_function(),
            &app.conventional,
        ));
    }
    let mut audit_pairs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); apps.len()];
    for (op, (ms, _, response)) in distinct.iter().zip(&twin_answers) {
        let request = op.request(apps, &pools);
        layers.note_handle(oracle::kind(&request), *ms);
        e2e.oracle_mismatches += match (op, response) {
            (Op::Batch { app, picks }, Response::Prices(costs)) => picks
                .get()
                .iter()
                .zip(costs)
                .filter(|(&p, &c)| pools[*app].estimates[p as usize] != c)
                .count() as u64,
            (Op::Bounded { app, picks }, Response::BoundedPrices(costs)) => picks
                .get()
                .iter()
                .zip(costs)
                .filter(|(&p, c)| {
                    let truth = pools[*app].estimates[p as usize];
                    match **c {
                        BoundedCost::Exact(c) => c != truth,
                        BoundedCost::AtLeast(b) => truth < b,
                    }
                })
                .count()
                as u64,
            (Op::Simulate { app, pick }, Response::Simulated(sim)) => {
                audit_pairs[*app]
                    .push((pools[*app].estimates[*pick as usize], sim.conflict_misses()));
                if legacy_checked[*app] < LEGACY_SAMPLES {
                    legacy_checked[*app] += 1;
                    let f = &pools[*app].functions[*pick as usize];
                    u64::from(!oracle::legacy_agrees(&replayers[*app], f, sim))
                } else {
                    0
                }
            }
            (Op::Stats { .. }, Response::Stats(_)) | (Op::Evict { .. }, Response::Evicted(_)) => 0,
            _ => 1,
        };
    }
    layers.audits = audit_pairs.iter().map(|p| EstimateAudit::new(p)).collect();

    println!("explore requests by kind (window):");
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for entry in &entries {
        let kind = match entry.op {
            Op::Batch { .. } => "price_batch",
            Op::Bounded { .. } => "price_batch_bounded",
            Op::Simulate { .. } => "simulate_function",
            Op::Stats { .. } => "stats",
            Op::Evict { .. } => "evict",
        };
        by_kind.entry(kind).or_default().push(entry.latency_ms);
    }
    let mut kinds: Vec<_> = by_kind.into_iter().collect();
    kinds.sort_by(|a, b| a.0.cmp(b.0));
    for (kind, ms) in kinds {
        println!(
            "  {:<20} n={:<7} p50 {:>9.4} ms  tail {:>9.4} ms",
            kind,
            ms.len(),
            stats::median(&ms),
            stats::tail(&ms).0
        );
    }
    println!("explore targets:");
    for (a, app) in apps.iter().enumerate() {
        println!(
            "  {:<22} conventional {:>7} misses, adopted {:>7} (estimate {}, bound {}), {} distinct simulations",
            app.label,
            app.conventional.misses(),
            chosen[a].map_or("-".to_string(), |b| b.to_string()),
            adopted[a].map_or("-".to_string(), |(c, _)| c.to_string()),
            pools[a].bound,
            audit_pairs[a].len()
        );
    }

    if !config.trace {
        return (e2e, None);
    }
    let prefix: Vec<&Op> = entries
        .iter()
        .take(TRACED_REQUESTS)
        .map(|e| &e.op)
        .collect();
    traced(config, &twin, apps, &pools, &prefix, &mut layers);
    let pairs: Vec<(Request, Response)> = distinct
        .iter()
        .zip(&twin_answers)
        .take(TRACED_REQUESTS)
        .map(|(op, (_, _, response))| (op.request(apps, &pools), response.clone()))
        .collect();
    layers.codec_us = probes::codec_us(&pairs);
    let twin = std::sync::Arc::new(twin);
    let requests: Vec<Request> = prefix.iter().map(|op| op.request(apps, &pools)).collect();
    layers.queue_wait_ms = probes::queue_wait_ms(&twin, &requests);
    layers.roadmap = probes::roadmap();
    hosted.clients.clear();
    (e2e, Some(layers))
}

/// The traced run: the first logged requests re-executed in process through
/// the service's public functions, alternately untraced and with spans, each
/// pass from evicted caches.
fn traced(
    config: &RunConfig,
    twin: &IndexService,
    apps: &[App],
    pools: &[Pool],
    prefix: &[&Op],
    layers: &mut Layers,
) {
    let evict_all = || {
        for app in apps {
            let _ = twin.evict(app.id);
        }
    };
    // Untraced and traced passes alternate, each from evicted caches; the
    // overhead compares their medians, and the last traced pass's spans and
    // counts are reported.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..3 {
        evict_all();
        untraced.push(
            timed(|| {
                for op in prefix {
                    std::hint::black_box(twin.handle(op.request(apps, pools)));
                }
            })
            .1,
        );
        evict_all();
        let before: Vec<_> = apps
            .iter()
            .map(|a| twin.stats(a.id).expect("registered"))
            .collect();
        let tracer = Tracer::new();
        let mut counts = Layers::default();
        traced_pass(twin, apps, pools, prefix, &tracer, &mut counts);
        traced.push(tracer::busy_by_name(&tracer.spans())["explore.request"]);
        if round == 2 {
            last = Some((tracer, counts, before));
        }
    }
    let (tracer, counts, before) = last.expect("three rounds ran");
    layers.priced += counts.priced;
    layers.bounded += counts.bounded;
    layers.abandoned += counts.abandoned;
    layers.replay_accesses += counts.replay_accesses;
    for (app, before) in apps.iter().zip(&before) {
        let after = twin.stats(app.id).expect("registered");
        layers.memo_hits += after.memo.hits - before.memo.hits;
        layers.memo_probes +=
            after.memo.hits + after.memo.misses - before.memo.hits - before.memo.misses;
        layers.scaffold_hits += after.scaffold.hits - before.scaffold.hits;
        layers.scaffold_probes += after.scaffold.hits + after.scaffold.misses
            - before.scaffold.hits
            - before.scaffold.misses;
        layers.preclass_builds += after.replay.preclass_builds;
        layers.preclass_hits += after.replay.preclass_hits;
    }
    // No search runs on this workload; one hill climb per target, outside
    // the requests, keeps the search layer's figures measured.
    for (a, app) in apps.iter().enumerate() {
        let request_id = 10_000 + a as u64;
        tracer.span("xorindex.search", request_id, None, |_| {
            if let Ok(outcome) = twin.run_search(app.id, SearchAlgorithm::HillClimb) {
                layers.evaluations += outcome.evaluations;
                layers.steps += outcome.steps;
            }
        });
        let replayer = TraceReplayer::new(app.cell.cache, std::sync::Arc::clone(&app.cell.blocks));
        let mut functions: Vec<HashFunction> = prefix
            .iter()
            .filter_map(|op| match op {
                Op::Simulate { app: b, pick } if *b == a => {
                    Some(pools[a].functions[*pick as usize].clone())
                }
                _ => None,
            })
            .take(8)
            .collect();
        functions.push(app.conventional_function());
        probes::preclass_and_index_streams(
            &tracer,
            request_id,
            &app.cell.cache,
            &replayer,
            &functions,
            layers,
        );
        probes::neighborhood_probe(
            twin,
            app.id,
            &app.profile,
            app.class,
            app.cell.cache.set_bits(),
            layers,
            false,
        );
    }

    let spans = tracer.spans();
    let busy = tracer::busy_by_name(&spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    layers.price_busy_s =
        get("xorindex_serve.price_batch") + get("xorindex_serve.price_batch_bounded");
    layers.replay_s = get("xorindex_serve.simulate_function");
    layers.search_s = get("xorindex.search");
    layers.preclass_s = get("cache_sim.preclass");
    layers.index_stream_s = get("xorindex_verify.index_stream");
    layers.traced_s = stats::median(&traced);
    layers.untraced_s = stats::median(&untraced);
    println!(
        "explore re-execution of {} logged requests (median of 3): untraced {:.6} s, traced {:.6} s",
        prefix.len(),
        layers.untraced_s,
        layers.traced_s
    );
    tracer::print_self_times("explore span self times:", &spans);
    let _ = tracer.write(
        &config
            .out_dir
            .join(format!("spans-explore-seed{}.jsonl", config.seed)),
    );
}

/// One traced re-execution of `prefix`, each request in a root span with a
/// child span around the public call it makes.
fn traced_pass(
    twin: &IndexService,
    apps: &[App],
    pools: &[Pool],
    prefix: &[&Op],
    tracer: &Tracer,
    layers: &mut Layers,
) {
    for (i, op) in prefix.iter().enumerate() {
        let request_id = i as u64 + 1;
        tracer.span("explore.request", request_id, None, |root| {
            let request = op.request(apps, pools);
            let span =
                |name, f: &mut dyn FnMut()| tracer.span(name, request_id, Some(root), |_| f());
            match (op, request) {
                (Op::Batch { .. }, Request::PriceBatch { app, bases }) => {
                    let mut out = None;
                    span("xorindex_serve.price_batch", &mut || {
                        out = Some(twin.price_batch(app, &bases))
                    });
                    layers.priced += bases.len() as u64;
                }
                (Op::Bounded { .. }, Request::PriceBatchBounded { app, bases, bound }) => {
                    let mut out = None;
                    span("xorindex_serve.price_batch_bounded", &mut || {
                        out = Some(twin.price_batch_bounded(app, &bases, bound));
                    });
                    if let Some(Ok(costs)) = out {
                        layers.priced += costs.len() as u64;
                        layers.bounded += costs.len() as u64;
                        layers.abandoned += costs
                            .iter()
                            .filter(|c| matches!(c, BoundedCost::AtLeast(_)))
                            .count() as u64;
                    }
                }
                (Op::Simulate { app: a, .. }, Request::SimulateFunction { app, function }) => {
                    span("xorindex_serve.simulate_function", &mut || {
                        std::hint::black_box(twin.simulate_function(app, &function).ok());
                    });
                    layers.replay_accesses += apps[*a].cell.blocks.len() as u64;
                }
                (_, Request::Stats { app }) => {
                    span("xorindex_serve.stats", &mut || {
                        std::hint::black_box(twin.stats(app).ok());
                    });
                }
                (_, Request::Evict { app }) => {
                    span("xorindex_serve.evict", &mut || {
                        std::hint::black_box(twin.evict(app).ok());
                    });
                }
                _ => unreachable!("ops map to their own request kinds"),
            }
        });
    }
}
