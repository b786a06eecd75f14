//! The repository's benchmark: the paper's flow — profile a trace into
//! conflict vectors, search null spaces under Eq. 4, verify the winner by
//! simulation, serve it all over TCP — timed end to end and layer by layer
//! on three workloads, with every answer checked against the reference
//! oracles.
//!
//! ```text
//! perfbench --workload onboard|optimize|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! * `onboard` ([`onboard`]): cold cells from trace to verified function;
//!   profiling and pre-classification bound.
//! * `optimize` ([`optimize`]): `OptimizeVerified` on warm applications over
//!   TCP; search bound.
//! * `explore` ([`explore`]): pipelined pricing, simulation, stats and
//!   eviction over TCP; pricing, memo, wire and queue bound.
//!
//! The seed drives only the inputs: the synthetic cell, request orders,
//! search seeds, candidate pools and request mixes. The programs under test
//! receive nothing but the generated inputs.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics `BENCHMARK.json` gates (`setup_s`,
//! `cpu_ms_per_request`, `misses_removed_pct`, `peak_rss_mb`; see
//! [`common::EndToEnd::metrics`] for why request cost is gated in CPU
//! time). Four more are printed above it: `failed_ratio`, carried by the
//! `attempted`/`failed` counts, and `throughput_rps`, `latency_p50_ms` and
//! `latency_tail_ms` (the summary line names the tail's percentile and
//! sample count), whose values a `not-gated {json}` line carries for
//! `run.py` to record (see [`common::EndToEnd::not_gated`] for why they
//! have no bound). With `--trace 1` the run also rebuilds its requests from
//! the public calls with spans around each (written to `.bench_out/`), and
//! the JSON carries the per-layer metrics listed in [`layers`].

mod common;
mod explore;
mod hosted;
mod layers;
mod onboard;
mod optimize;
mod oracle;
mod probes;
mod rebuild;
mod stats;
mod tracer;

use common::RunConfig;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload onboard|optimize|explore --seed N --seconds S --trace 0|1 [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> RunConfig {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = std::path::PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out" => out_dir = value.into(),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => RunConfig {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
        },
        _ => usage(),
    }
}

fn main() {
    let config = parse_args();
    let (e2e, layers) = match config.workload.as_str() {
        "onboard" => onboard::run(&config),
        "optimize" => optimize::run(&config),
        "explore" => explore::run(&config),
        _ => usage(),
    };
    e2e.print_summary();
    let end_to_end = e2e.metrics();
    end_to_end.print(&format!("{} end-to-end metrics:", config.workload));
    let not_gated = e2e.not_gated();
    not_gated.print(&format!(
        "{} end-to-end metrics without a bound:",
        config.workload
    ));
    println!("not-gated {}", not_gated.to_json());
    let metrics = match &layers {
        Some(layers) => {
            layers.print_handle_kinds();
            let m = layers.metrics();
            m.print(&format!("{} per-layer metrics:", config.workload));
            m
        }
        None => end_to_end,
    };
    let failed = e2e.failed();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        e2e.attempted.max(1),
        failed,
        metrics.to_json()
    );
}
