//! `onboard`: the cold path, in process, closed loop with one client.
//!
//! Each request takes one cell from trace to verified function:
//! `ConflictProfile::from_blocks` → `IndexService::register` (trace
//! retained) → the first `OptimizeVerified(HillClimb, top_k = 3)` through
//! `IndexService::handle`. The roster is {susan, lame, adpcm enc} × {1, 4,
//! 16} KB under the default 2-input permutation-based class, plus one seeded
//! synthetic cell of power-of-two-aligned arrays swept in lockstep.
//!
//! Why: profiling and the 3C pre-classification do most of the work here;
//! the wire and the search do almost none. A faster profiler should move
//! this workload's `cpu_ms_per_request`, throughput and latency and leave
//! `optimize`'s alone.
//!
//! The window runs whole passes over the roster until `--seconds` have
//! passed. Each request registers into a fresh `IndexService`, dropped after
//! the request outside its timing, so no app's profile, kernel, caches or
//! trace pile up across the window and `peak_rss_mb` does not grow with the
//! number of passes. `misses_removed_pct` sums over the fixed roster only,
//! so it is the same for every seed; the synthetic cell is reported in its
//! own row.
//!
//! Every pass visits the cells in one fixed order (susan, lame, adpcm enc,
//! each at 1, 4 and 16 KB, then the synthetic cell), and one untimed request
//! of the synthetic cell precedes the window. A request's latency depends on
//! the process state the request before it left (a lame request frees far
//! more memory than a susan one); the fixed order keeps that the same for
//! every seed and every pass, so the seed drives only the synthetic cell.
//!
//! One pass takes 6–9 s on a 2-vCPU VM, most of it profiling the lame
//! cells, so a 20 s run completes three or four passes: 30 or 40 latency
//! samples. With ten samples required beyond it, `latency_tail_ms` is then
//! the p67 or p75 sample (the summary prints the percentile and the sample
//! count); it lands on the susan cells, not on the three lame cells, which
//! make up less than a third of the samples. A faster profiler moves both
//! latency figures through those cells; work confined to the lame cells,
//! such as the 3C pre-classification, shows in `cpu_ms_per_request` and
//! `throughput_rps` only.

use std::sync::Arc;

use xorindex::{ConflictProfile, FunctionClass, SearchAlgorithm};
use xorindex_serve::{IndexService, Registration, Request, Response};
use xorindex_verify::{TraceReplayer, VerifiedOutcome};

use crate::common::{self, timed, Cell, EndToEnd, RunConfig, HASHED_BITS, TOP_K};
use crate::layers::Layers;
use crate::oracle;
use crate::probes;
use crate::rebuild::{self, AppState};
use crate::stats;
use crate::tracer::{self, Tracer};

const SETUPS: usize = 31;
const PROGRAMS: [&str; 3] = ["susan", "lame", "adpcm enc"];
const SIZES_KB: [u64; 3] = [1, 4, 16];

/// Set-up: the roster's traces and the synthetic cell.
fn setup(config: &RunConfig) -> (Vec<Cell>, f64, u64) {
    let (traces, trace_s) = timed(|| common::benchmark_traces(&PROGRAMS));
    let accesses = traces.iter().map(|(_, t)| t.data_len() as u64).sum();
    let mut cells = common::cells(&traces, &SIZES_KB);
    cells.push(common::synthetic_cell(config));
    (cells, trace_s, accesses)
}

/// What one cell's requests produced in the window.
#[derive(Default)]
struct CellLog {
    profile_ms: Vec<f64>,
    register_ms: Vec<f64>,
    handle_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    /// The first answer and the profile it came from, for the oracles.
    first: Option<(ConflictProfile, Response)>,
    first_fingerprint: u64,
    repeats_differing: u64,
}

/// One onboarding request on a fresh `IndexService`, dropped after the
/// request outside its timing. Returns a copy of the profile when `keep`
/// (for the oracles), the answer (`None` when registration fails), and the
/// profile, register and handle times in seconds.
fn onboard(cell: &Cell, keep: bool) -> (Option<ConflictProfile>, Option<Response>, [f64; 3]) {
    let (profile, profile_s) = timed(|| {
        ConflictProfile::from_blocks(cell.blocks.iter().copied(), HASHED_BITS, cell.capacity())
    });
    let kept = keep.then(|| profile.clone());
    let service = IndexService::new();
    let (app, register_s) = timed(|| {
        service.register(
            Registration::new(profile, cell.cache).with_shared_trace(Arc::clone(&cell.blocks)),
        )
    });
    let Ok(app) = app else {
        return (kept, None, [profile_s, register_s, 0.0]);
    };
    let request = Request::OptimizeVerified {
        app,
        algorithm: SearchAlgorithm::HillClimb,
        top_k: TOP_K,
    };
    let (response, handle_s) = timed(|| service.handle(request));
    (kept, Some(response), [profile_s, register_s, handle_s])
}

pub fn run(config: &RunConfig) -> (EndToEnd, Option<Layers>) {
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let ((c, trace_s, accesses), s) = timed(|| setup(config));
        e2e.setup_s.push(s);
        (cells, layers.trace_s, layers.accesses) = (c, trace_s, accesses);
    }
    let synthetic = cells.len() - 1;

    let mut logs: Vec<CellLog> = cells.iter().map(|_| CellLog::default()).collect();
    // One untimed request first, so the first pass starts from the state
    // every later pass starts from: just after the synthetic cell.
    let _ = onboard(&cells[synthetic], false);
    let start = e2e.start_window();
    loop {
        for (i, (cell, log)) in cells.iter().zip(&mut logs).enumerate() {
            e2e.attempted += 1;
            let (kept, response, [profile_s, register_s, handle_s]) =
                onboard(cell, log.first.is_none());
            let latency_ms = (profile_s + register_s + handle_s) * 1e3;
            log.profile_ms.push(profile_s * 1e3);
            log.register_ms.push(register_s * 1e3);
            log.handle_ms.push(handle_s * 1e3);
            log.latency_ms.push(latency_ms);
            e2e.latencies_ms.push(latency_ms);
            let Some(response @ Response::Verified(outcome)) = &response else {
                e2e.error_responses += 1;
                continue;
            };
            if i != synthetic {
                e2e.conventional_misses += outcome.baseline.misses();
                e2e.chosen_misses += outcome.winner().sim.misses();
            }
            let fingerprint = oracle::fingerprint(response);
            match kept {
                Some(profile) => {
                    log.first_fingerprint = fingerprint;
                    log.first = Some((profile, response.clone()));
                }
                None => log.repeats_differing += u64::from(fingerprint != log.first_fingerprint),
            }
        }
        if start.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
    }
    e2e.end_window(start);

    // Oracles: the first answer per cell against the estimator and the
    // legacy simulator; every repeat must equal the first bit for bit.
    let mut outcomes: Vec<Option<VerifiedOutcome>> = Vec::new();
    for (cell, log) in cells.iter().zip(&logs) {
        e2e.oracle_mismatches += log.repeats_differing;
        let outcome = match &log.first {
            Some((profile, Response::Verified(outcome))) => {
                let replayer = TraceReplayer::new(cell.cache, Arc::clone(&cell.blocks));
                e2e.oracle_mismatches += oracle::check_verified(profile, &replayer, outcome)
                    + u64::from(!oracle::legacy_agrees(
                        &replayer,
                        &cell.conventional(),
                        &outcome.baseline,
                    ));
                Some(outcome.clone())
            }
            _ => None,
        };
        outcomes.push(outcome);
    }

    println!("onboard cells (window medians; traced columns follow in a traced run):");
    println!(
        "  {:<26} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9}",
        "cell",
        "accesses",
        "latency_ms",
        "profile_ms",
        "register_ms",
        "handle_ms",
        "est_rm%",
        "sim_rm%",
        "winner",
        "conv"
    );
    for ((cell, log), outcome) in cells.iter().zip(&logs).zip(&outcomes) {
        let (est, sim, winner, conv) = outcome.as_ref().map_or((0.0, 0.0, 0, 0), |o| {
            (
                o.search.estimated_percent_removed(),
                o.simulated_percent_removed(),
                o.winner().sim.misses(),
                o.baseline.misses(),
            )
        });
        println!(
            "  {:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>9} {:>9}",
            cell.label,
            cell.blocks.len(),
            stats::median(&log.latency_ms),
            stats::median(&log.profile_ms),
            stats::median(&log.register_ms),
            stats::median(&log.handle_ms),
            est,
            sim,
            winner,
            conv
        );
    }

    if !config.trace {
        return (e2e, None);
    }
    for log in &logs {
        for &ms in &log.handle_ms {
            layers.note_handle("optimize_verified", ms);
        }
    }
    let mismatches = traced(config, &cells, &logs, &mut layers);
    e2e.oracle_mismatches += mismatches;
    (e2e, Some(layers))
}

/// The traced pass: every cell once, rebuilt from the public calls.
fn traced(config: &RunConfig, cells: &[Cell], logs: &[CellLog], layers: &mut Layers) -> u64 {
    let tracer = Tracer::new();
    let service = Arc::new(IndexService::new());
    let class = FunctionClass::permutation_based(2);
    let mut mismatches = 0;
    let mut apps = Vec::new();
    let mut rows = Vec::new();
    let mut pairs = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let request = i as u64 + 1;
        let (state, app, outcome) = tracer.span("onboard.request", request, None, |root| {
            let profile = tracer.span("xorindex.profile", request, Some(root), |_| {
                ConflictProfile::from_blocks(
                    cell.blocks.iter().copied(),
                    HASHED_BITS,
                    cell.capacity(),
                )
            });
            let registration = Registration::new(profile.clone(), cell.cache)
                .with_shared_trace(Arc::clone(&cell.blocks));
            let app = tracer
                .span("xorindex_serve.register", request, Some(root), |_| {
                    service.register(registration)
                })
                .expect("roster geometries register");
            let kernel = service.kernel(app).expect("just registered");
            let replayer =
                TraceReplayer::new(cell.cache, Arc::clone(&cell.blocks)).with_set_partitions(0);
            let state = AppState::new(profile, cell.cache, class, kernel, replayer);
            let outcome = rebuild::verified(
                &tracer,
                request,
                root,
                &state,
                SearchAlgorithm::HillClimb,
                TOP_K,
            );
            (state, app, outcome)
        });
        let served = logs[i].first.as_ref().map(|(_, r)| r);
        let agrees = match (&outcome, served) {
            (Ok(rebuilt), Some(served)) => {
                let rebuilt = Response::Verified(rebuilt.clone());
                oracle::fingerprint(&rebuilt) == oracle::fingerprint(served)
            }
            _ => false,
        };
        mismatches += u64::from(!agrees);
        if let Ok(outcome) = &outcome {
            let functions: Vec<_> = outcome
                .candidates
                .iter()
                .map(|c| c.function.clone())
                .chain([cell.conventional()])
                .collect();
            layers.evaluations += outcome.search.evaluations;
            layers.steps += outcome.search.steps;
            layers.audits.push(outcome.audit);
            layers.replay_accesses += (functions.len() * cell.blocks.len()) as u64;
            probes::preclass_and_index_streams(
                &tracer,
                request,
                &cell.cache,
                &state.replayer,
                &functions,
                layers,
            );
        }
        let memo = state.memo.stats();
        let scaffold = state.scaffold.stats();
        layers.memo_hits += memo.hits;
        layers.memo_probes += memo.hits + memo.misses;
        layers.scaffold_hits += scaffold.hits;
        layers.scaffold_probes += scaffold.hits + scaffold.misses;
        let replay = state.replayer.replay_stats();
        layers.preclass_builds += replay.preclass_builds;
        layers.preclass_hits += replay.preclass_hits;
        layers.profile_accesses += cell.blocks.len() as u64;
        layers.distinct_vectors += state.profile.distinct_vectors() as u64;
        mismatches += probes::neighborhood_probe(
            &service,
            app,
            &state.profile,
            class,
            cell.cache.set_bits(),
            layers,
            true,
        );
        if let Some((_, served)) = &logs[i].first {
            let request = Request::OptimizeVerified {
                app,
                algorithm: SearchAlgorithm::HillClimb,
                top_k: TOP_K,
            };
            pairs.push((request, served.clone()));
        }
        apps.push(app);
        rows.push((i, request, agrees));
    }

    let spans = tracer.spans();
    let busy = tracer::busy_by_name(&spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    layers.profile_s = get("xorindex.profile");
    layers.register_s = get("xorindex_serve.register");
    layers.search_s = get("xorindex.search");
    layers.replay_s = get("xorindex_verify.replay_many") + get("xorindex_verify.baseline_replay");
    layers.preclass_s = get("cache_sim.preclass");
    layers.index_stream_s = get("xorindex_verify.index_stream");

    let selfs = tracer::self_times(&spans);
    println!("onboard traced pass (rebuilt from public calls; self times in ms):");
    println!(
        "  {:<26} {:>10} {:>10} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10} {:>7}",
        "cell",
        "untraced",
        "traced",
        "profile",
        "register",
        "search",
        "replay_many",
        "baseline",
        "price",
        "preclass*",
        "agrees"
    );
    for (i, request, agrees) in rows {
        let of = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.request == request && s.name == name)
                .map(|s| selfs[&s.id] * 1e3)
                .sum()
        };
        let traced_ms: f64 = spans
            .iter()
            .filter(|s| s.request == request && s.name == "onboard.request")
            .map(|s| s.duration_s() * 1e3)
            .sum();
        let untraced_ms = stats::median(&logs[i].latency_ms);
        layers.traced_s += traced_ms * 1e-3;
        layers.untraced_s += untraced_ms * 1e-3;
        println!(
            "  {:<26} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>11.3} {:>9.3} {:>9.3} {:>10.3} {:>7}",
            cells[i].label,
            untraced_ms,
            traced_ms,
            of("xorindex.profile"),
            of("xorindex_serve.register"),
            of("xorindex.search"),
            of("xorindex_verify.replay_many"),
            of("xorindex_verify.baseline_replay"),
            of("xorindex.price"),
            of("cache_sim.preclass"),
            agrees
        );
    }
    println!("  * standalone ReuseStream::build outside the request; replay_many includes the same build");
    tracer::print_self_times("onboard span self times:", &spans);
    let _ = tracer.write(
        &config
            .out_dir
            .join(format!("spans-onboard-seed{}.jsonl", config.seed)),
    );

    let (rtt, wire) = probes::loopback_stats_rtt(Arc::clone(&service), &apps, 200);
    layers.wire = wire;
    let handle_ms: Vec<f64> = apps
        .iter()
        .map(|&app| timed(|| service.handle(Request::Stats { app })).1 * 1e3)
        .collect();
    let handle_p50 = stats::median(&handle_ms);
    layers.wire_overhead_ms = rtt.iter().map(|ms| ms - handle_p50).collect();
    let stats_requests: Vec<Request> = (0..200)
        .map(|i| Request::Stats {
            app: apps[i % apps.len()],
        })
        .collect();
    layers.queue_wait_ms = probes::queue_wait_ms(&service, &stats_requests);
    layers.codec_us = probes::codec_us(&pairs);
    layers.roadmap = probes::roadmap();
    mismatches
}
