//! `optimize`: warm applications, search bound, over TCP; a closed loop of
//! two connections at depth 1 against a `TcpServer` with two workers.
//!
//! Set-up profiles and registers {susan, lame, adpcm enc, crc} × {1, 4} KB ×
//! {2-input permutation-based, xor_unlimited} (16 applications) and warms
//! each application's pre-classification with one `SimulateFunction`. Each
//! timed request is an `OptimizeVerified` for one (application × algorithm)
//! pair; the algorithms are `HillClimb`, `RandomRestart` and `Annealing`,
//! the last two seeded from the workload seed. A pass issues every pair once
//! in seeded order, and passes follow back to back; the window ends with
//! the pass under way when `--seconds` have passed. The application's memo
//! and scaffold cache are evicted before each request (outside its
//! timing), so a request's work does not depend on the requests before it.
//!
//! Why: neighbourhood generation and pricing do most of the work, while
//! profiling and pre-classification happen in set-up only. A faster search
//! should move this workload's `cpu_ms_per_request`, throughput and
//! latency; a faster profiler should move only its `setup_s`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::seq::SliceRandom;
use rand::Rng;
use xorindex::{FunctionClass, SearchAlgorithm};
use xorindex_serve::{ClientError, IndexService, Request, Response};
use xorindex_verify::{TraceReplayer, VerifiedOutcome};

use crate::common::{timed, EndToEnd, RunConfig, TOP_K};
use crate::hosted::{self, App};
use crate::layers::Layers;
use crate::oracle;
use crate::probes;
use crate::rebuild::{self, AppState};
use crate::stats;
use crate::tracer::{self, Tracer};

const SETUPS: usize = 3;
const CELLS: [(&str, u64); 8] = [
    ("susan", 1),
    ("susan", 4),
    ("lame", 1),
    ("lame", 4),
    ("adpcm enc", 1),
    ("adpcm enc", 4),
    ("crc", 1),
    ("crc", 4),
];
const RESTARTS: usize = 1;
/// More passes than any window completes.
const MAX_PASSES: u64 = 1000;
const ANNEALING_STEPS: usize = 16;
const ANNEALING_TEMPERATURE: f64 = 50.0;

fn classes() -> [FunctionClass; 2] {
    [
        FunctionClass::permutation_based(2),
        FunctionClass::xor_unlimited(),
    ]
}

/// The three algorithms, with search seeds drawn from the workload seed.
fn algorithms(config: &RunConfig) -> [(&'static str, SearchAlgorithm); 3] {
    let mut rng = config.rng(0x5EA);
    [
        ("hill_climb", SearchAlgorithm::HillClimb),
        (
            "random_restart",
            SearchAlgorithm::RandomRestart {
                restarts: RESTARTS,
                seed: rng.random(),
            },
        ),
        (
            "annealing",
            SearchAlgorithm::Annealing {
                iterations: ANNEALING_STEPS,
                initial_temperature: ANNEALING_TEMPERATURE,
                seed: rng.random(),
            },
        ),
    ]
}

/// Request `key` = application index × 3 + algorithm index.
fn request(apps: &[App], algorithms: &[(&str, SearchAlgorithm); 3], key: usize) -> Request {
    Request::OptimizeVerified {
        app: apps[key / 3].id,
        algorithm: algorithms[key % 3].1,
        top_k: TOP_K,
    }
}

type Answer = (usize, f64, Result<Response, ClientError>);

pub fn run(config: &RunConfig) -> (EndToEnd, Option<Layers>) {
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (mut hosted, times, walls) = hosted::repeated_setup(SETUPS, &CELLS, &classes());
    e2e.setup_s = walls;
    times.fill(&mut layers);
    let algorithms = algorithms(config);
    let apps = &hosted.apps;
    let keys = apps.len() * 3;

    // The closed loop walks seeded passes back to back; each request starts
    // from an evicted memo and scaffold cache, so its work does not depend
    // on which requests ran before it.
    let plan: Vec<usize> = (0..MAX_PASSES)
        .flat_map(|pass| {
            let mut order: Vec<usize> = (0..keys).collect();
            order.shuffle(&mut config.rng(0x0F7 + pass));
            order
        })
        .collect();
    let next = AtomicUsize::new(0);
    // The window ends with the pass under way when `--seconds` have passed,
    // so every run prices whole passes and its mean request cost does not
    // depend on which requests a cut-off pass happened to hold.
    let stop_at = AtomicUsize::new(usize::MAX);
    let collected = Mutex::new(Vec::new());
    let service = &hosted.service;
    let start = e2e.start_window();
    std::thread::scope(|scope| {
        for client in hosted.clients.iter_mut() {
            let (next, stop_at, plan, collected, algorithms) =
                (&next, &stop_at, &plan, &collected, &algorithms);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    if start.elapsed().as_secs_f64() >= config.seconds {
                        let under_way = next.load(Ordering::Relaxed).div_ceil(keys);
                        stop_at.fetch_min(under_way * keys, Ordering::Relaxed);
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stop_at.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(&key) = plan.get(i) else { break };
                    let _ = service.evict(apps[key / 3].id);
                    let req = request(apps, algorithms, key);
                    let (response, s) = timed(|| client.call(&req));
                    local.push((key, s * 1e3, response));
                }
                collected.lock().expect("answer log poisoned").extend(local);
            });
        }
    });
    let answers: Vec<Answer> = collected.into_inner().expect("answer log poisoned");
    e2e.end_window(start);
    layers.wire = hosted.server.wire_stats();

    // Every answer of one key must agree (normalized) with the first.
    let mut first: HashMap<usize, (u64, VerifiedOutcome)> = HashMap::new();
    let mut latency_by_key: HashMap<usize, Vec<f64>> = HashMap::new();
    for (key, ms, answer) in &answers {
        e2e.attempted += 1;
        match answer {
            Ok(response @ Response::Verified(outcome)) => {
                e2e.latencies_ms.push(*ms);
                latency_by_key.entry(*key).or_default().push(*ms);
                e2e.conventional_misses += outcome.baseline.misses();
                e2e.chosen_misses += outcome.winner().sim.misses();
                let fp =
                    oracle::normalized_fingerprint(&request(apps, &algorithms, *key), response);
                match first.get(key) {
                    Some((first_fp, _)) => e2e.oracle_mismatches += u64::from(*first_fp != fp),
                    None => {
                        first.insert(*key, (fp, outcome.clone()));
                    }
                }
            }
            Ok(_) => e2e.error_responses += 1,
            Err(_) => e2e.client_errors += 1,
        }
    }

    // Oracles: estimator and legacy simulator on each key's first answer,
    // and each application's baseline once.
    for (a, app) in apps.iter().enumerate() {
        let replayer = TraceReplayer::new(app.cell.cache, Arc::clone(&app.cell.blocks));
        e2e.oracle_mismatches += u64::from(!oracle::legacy_agrees(
            &replayer,
            &app.conventional_function(),
            &app.conventional,
        ));
        for key in a * 3..a * 3 + 3 {
            if let Some((_, outcome)) = first.get(&key) {
                e2e.oracle_mismatches += oracle::check_verified(&app.profile, &replayer, outcome)
                    + u64::from(outcome.baseline != app.conventional);
            }
        }
    }

    // The twin: every key once through `IndexService::handle`, two threads,
    // each owning every other application so its memo sees a fixed order.
    let twin = hosted::twin(apps);
    let twin_answers = per_app_threads(apps.len(), |a| {
        (a * 3..a * 3 + 3)
            .map(|key| {
                let req = request(apps, &algorithms, key);
                let _ = twin.evict(apps[a].id);
                let (response, s) = timed(|| twin.handle(req.clone()));
                (
                    key,
                    s * 1e3,
                    oracle::normalized_fingerprint(&req, &response),
                )
            })
            .collect()
    });
    let mut handle_by_key = HashMap::new();
    for (key, ms, fp) in &twin_answers {
        layers.note_handle("optimize_verified", *ms);
        handle_by_key.insert(*key, *ms);
        if let Some((served, _)) = first.get(key) {
            e2e.oracle_mismatches += u64::from(served != fp);
        }
    }

    for (key, ms, answer) in &answers {
        if let (Ok(Response::Verified(_)), Some(handle)) = (answer, handle_by_key.get(key)) {
            layers.wire_overhead_ms.push(ms - handle);
        }
    }

    println!("optimize requests (window medians):");
    println!(
        "  {:<22} {:<15} {:>7} {:>11} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "app",
        "algorithm",
        "answers",
        "latency_ms",
        "handle_ms",
        "est_rm%",
        "sim_rm%",
        "winner",
        "conv",
        "audit"
    );
    for key in 0..keys {
        let Some((_, o)) = first.get(&key) else {
            println!(
                "  {:<22} {:<15} no answer",
                apps[key / 3].label,
                algorithms[key % 3].0
            );
            continue;
        };
        println!(
            "  {:<22} {:<15} {:>7} {:>11.3} {:>10.3} {:>9.3} {:>9.3} {:>9} {:>9} {:>8.1}",
            apps[key / 3].label,
            algorithms[key % 3].0,
            latency_by_key[&key].len(),
            stats::median(&latency_by_key[&key]),
            handle_by_key.get(&key).copied().unwrap_or(0.0),
            o.search.estimated_percent_removed(),
            o.simulated_percent_removed(),
            o.winner().sim.misses(),
            o.baseline.misses(),
            o.audit.mean_abs_error()
        );
    }

    if !config.trace {
        return (e2e, None);
    }
    e2e.oracle_mismatches += traced(
        config,
        &hosted.service,
        apps,
        &algorithms,
        &first,
        &handle_by_key,
        &mut layers,
    );
    let codec_pairs: Vec<(Request, Response)> = first
        .iter()
        .map(|(&key, (_, o))| {
            (
                request(apps, &algorithms, key),
                Response::Verified(o.clone()),
            )
        })
        .collect();
    layers.codec_us = probes::codec_us(&codec_pairs);
    let stats_requests: Vec<Request> = (0..200)
        .map(|i| Request::Stats {
            app: apps[i % apps.len()].id,
        })
        .collect();
    layers.queue_wait_ms = probes::queue_wait_ms(&hosted.service, &stats_requests);
    layers.roadmap = probes::roadmap();
    hosted.clients.clear();
    (e2e, Some(layers))
}

/// Runs `work(app)` for every application on two threads, thread `t`
/// taking the applications with index ≡ t (mod 2) in order.
fn per_app_threads<T: Send>(apps: usize, work: impl Fn(usize) -> Vec<T> + Sync) -> Vec<T> {
    let out = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (out, work) = (&out, &work);
            scope.spawn(move || {
                let mine: Vec<T> = (t..apps).step_by(2).flat_map(work).collect();
                out.lock().expect("result log poisoned").extend(mine);
            });
        }
    });
    out.into_inner().expect("result log poisoned")
}

/// The traced pass: every key once, rebuilt from the public calls, on the
/// same two-thread, per-application order as the twin.
fn traced(
    config: &RunConfig,
    service: &Arc<IndexService>,
    apps: &[App],
    algorithms: &[(&'static str, SearchAlgorithm); 3],
    first: &HashMap<usize, (u64, VerifiedOutcome)>,
    handle_by_key: &HashMap<usize, f64>,
    layers: &mut Layers,
) -> u64 {
    let tracer = Tracer::new();
    let states: Vec<AppState> = apps
        .iter()
        .map(|app| {
            let replayer = TraceReplayer::new(app.cell.cache, Arc::clone(&app.cell.blocks))
                .with_set_partitions(0);
            let _ = replayer.replay(&app.conventional_function());
            AppState::new(
                app.profile.clone(),
                app.cell.cache,
                app.class,
                service.kernel(app.id).expect("registered"),
                replayer,
            )
        })
        .collect();
    let rebuilt = per_app_threads(apps.len(), |a| {
        (a * 3..a * 3 + 3)
            .map(|key| {
                states[a].memo.clear();
                states[a].scaffold.clear();
                let outcome = tracer.span("optimize.request", key as u64 + 1, None, |root| {
                    rebuild::verified(
                        &tracer,
                        key as u64 + 1,
                        root,
                        &states[a],
                        algorithms[key % 3].1,
                        TOP_K,
                    )
                });
                (key, outcome)
            })
            .collect()
    });

    let mut mismatches = 0;
    let mut functions_by_app: Vec<Vec<xorindex::HashFunction>> = vec![Vec::new(); apps.len()];
    for (key, outcome) in &rebuilt {
        let req = request(apps, algorithms, *key);
        let agrees = match (outcome, first.get(key)) {
            (Ok(o), Some((served, _))) => {
                oracle::normalized_fingerprint(&req, &Response::Verified(o.clone())) == *served
            }
            _ => false,
        };
        mismatches += u64::from(!agrees);
        if let Ok(o) = outcome {
            layers.evaluations += o.search.evaluations;
            layers.steps += o.search.steps;
            layers.audits.push(o.audit);
            functions_by_app[key / 3].extend(o.candidates.iter().map(|c| c.function.clone()));
        }
    }
    for ((app, state), mut functions) in apps.iter().zip(&states).zip(functions_by_app) {
        functions.push(app.conventional_function());
        layers.replay_accesses += (functions.len() * app.cell.blocks.len()) as u64;
        let request = 1000 + app.id.raw();
        probes::preclass_and_index_streams(
            &tracer,
            request,
            &app.cell.cache,
            &state.replayer,
            &functions,
            layers,
        );
        let memo = state.memo.stats();
        let scaffold = state.scaffold.stats();
        layers.memo_hits += memo.hits;
        layers.memo_probes += memo.hits + memo.misses;
        layers.scaffold_hits += scaffold.hits;
        layers.scaffold_probes += scaffold.hits + scaffold.misses;
        let replay = state.replayer.replay_stats();
        layers.preclass_builds += replay.preclass_builds;
        layers.preclass_hits += replay.preclass_hits;
        mismatches += probes::neighborhood_probe(
            service,
            app.id,
            &app.profile,
            app.class,
            app.cell.cache.set_bits(),
            layers,
            true,
        );
    }

    let spans = tracer.spans();
    let busy = tracer::busy_by_name(&spans);
    let get = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    layers.search_s = get("xorindex.search") + get("xorindex.search.generate");
    layers.replay_s = get("xorindex_verify.replay_many") + get("xorindex_verify.baseline_replay");
    layers.preclass_s = get("cache_sim.preclass");
    layers.index_stream_s = get("xorindex_verify.index_stream");
    layers.traced_s = get("optimize.request");
    layers.untraced_s = handle_by_key.values().sum::<f64>() * 1e-3;

    let selfs = tracer::self_times(&spans);
    println!("optimize traced pass (rebuilt from public calls; ms):");
    println!(
        "  {:<22} {:<15} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "app", "algorithm", "handle", "traced", "search", "price", "replay_many", "baseline"
    );
    let mut keys: Vec<usize> = rebuilt.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    for key in keys {
        let request = key as u64 + 1;
        let of = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.request == request && s.name == name)
                .map(|s| selfs[&s.id] * 1e3)
                .sum::<f64>()
                + 0.0
        };
        let traced_ms: f64 = spans
            .iter()
            .filter(|s| s.request == request && s.name == "optimize.request")
            .map(|s| s.duration_s() * 1e3)
            .sum();
        println!(
            "  {:<22} {:<15} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>11.3} {:>9.3}",
            apps[key / 3].label,
            algorithms[key % 3].0,
            handle_by_key.get(&key).copied().unwrap_or(0.0),
            traced_ms,
            of("xorindex.search") + of("xorindex.search.generate"),
            of("xorindex.price"),
            of("xorindex_verify.replay_many"),
            of("xorindex_verify.baseline_replay")
        );
    }
    println!("optimize per-app preclass (standalone ReuseStream::build, ms):");
    for app in apps {
        let request = 1000 + app.id.raw();
        let ms: f64 = spans
            .iter()
            .filter(|s| s.request == request && s.name == "cache_sim.preclass")
            .map(|s| s.duration_s() * 1e3)
            .sum();
        println!("  {:<22} {:>9.3}", app.label, ms);
    }
    tracer::print_self_times("optimize span self times:", &spans);
    let _ = tracer.write(
        &config
            .out_dir
            .join(format!("spans-optimize-seed{}.jsonl", config.seed)),
    );
    mismatches
}
