//! Inputs, run configuration and the end-to-end/per-layer records every
//! workload fills.

use std::sync::Arc;
use std::time::Instant;

use cache_sim::{BlockAddr, CacheConfig};
use memtrace::generators::{interleave, StridedGenerator};
use memtrace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{Scale, WorkloadSuite};
use xorindex::{FunctionClass, HashFunction};

use crate::stats::{self, Metrics};

/// Hashed address bits `n` of every profile (the paper's setting).
pub const HASHED_BITS: usize = 16;
/// Workload input scale of every benchmark trace.
pub const SCALE: Scale = Scale::Tiny;
/// Candidates simulated per verified optimization.
pub const TOP_K: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the span log is written to.
    pub out_dir: std::path::PathBuf,
}

impl RunConfig {
    /// A seeded generator for one named input stream, so adding a stream
    /// never shifts another.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }
}

/// The two function classes the workloads register.
pub fn class_label(class: FunctionClass) -> &'static str {
    if class == FunctionClass::xor_unlimited() {
        "xor"
    } else {
        "perm2"
    }
}

/// One (trace × cache geometry) the workloads profile.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cache: CacheConfig,
    pub blocks: Arc<Vec<BlockAddr>>,
}

impl Cell {
    pub fn capacity(&self) -> usize {
        self.cache.num_blocks() as usize
    }

    pub fn conventional(&self) -> HashFunction {
        HashFunction::conventional(HASHED_BITS, self.cache.set_bits())
            .expect("paper geometries fit the hashed width")
    }
}

/// Data traces of the named benchmark programs, built by `workloads`.
pub fn benchmark_traces(names: &[&str]) -> Vec<(String, Trace)> {
    names
        .iter()
        .map(|&name| {
            let workload = WorkloadSuite::by_name(name).expect("benchmark program exists");
            (name.to_string(), workload.data_trace(SCALE))
        })
        .collect()
}

/// Cells for every (trace × cache size), in the given order.
pub fn cells(traces: &[(String, Trace)], sizes_kb: &[u64]) -> Vec<Cell> {
    let mut out = Vec::new();
    for (name, trace) in traces {
        for &kb in sizes_kb {
            let cache = CacheConfig::paper_cache(kb);
            out.push(Cell {
                label: format!("{name}@{kb}KB"),
                cache,
                blocks: Arc::new(trace.data_block_addresses(cache.block_bits()).collect()),
            });
        }
    }
    out
}

/// The seeded synthetic input: several arrays, each aligned to the same
/// power of two, swept in lockstep. This is the placement that power-of-two
/// allocators give (Dice et al., "The Influence of Malloc Placement on TSX
/// HTM"), and it maps every array onto the same sets of a conventionally
/// indexed cache.
pub fn synthetic_cell(config: &RunConfig) -> Cell {
    let mut rng = config.rng(0x5E1);
    let arrays = rng.gen_range(3..=5u64);
    let align_bits = rng.gen_range(12..=14u32);
    let elements = rng.gen_range(128..=512u64);
    let passes = rng.gen_range(2..=4u32);
    let kb = if rng.random::<bool>() { 1 } else { 4 };
    let sweeps: Vec<Trace> = (1..=arrays)
        .map(|i| StridedGenerator::new(i << align_bits, 4, elements, passes).generate())
        .collect();
    let trace = interleave("aligned-lockstep", &sweeps);
    let cache = CacheConfig::paper_cache(kb);
    Cell {
        label: format!("synthetic{arrays}x2^{align_bits}@{kb}KB"),
        cache,
        blocks: Arc::new(trace.data_block_addresses(cache.block_bits()).collect()),
    }
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The end-to-end record of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each completed request in the measured window, in ms.
    pub latencies_ms: Vec<f64>,
    /// Length of the measured window, in seconds.
    pub window_s: f64,
    /// Process CPU time when the window started, in seconds.
    window_cpu_start_s: f64,
    /// CPU time every thread of the process spent in the window, in
    /// seconds.
    pub window_cpu_s: f64,
    /// Peak resident set size at the end of the window, in MiB (before the
    /// benchmark's own oracle work).
    pub peak_rss_mb: f64,
    /// Σ simulated misses of the conventional function over the verified
    /// (or, on `explore`, the explored) answers.
    pub conventional_misses: u64,
    /// Σ simulated misses of the chosen functions over the same answers.
    pub chosen_misses: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Error responses.
    pub error_responses: u64,
    /// Client-side failures (socket, codec, protocol).
    pub client_errors: u64,
    /// Answers that disagree with a reference oracle.
    pub oracle_mismatches: u64,
}

impl EndToEnd {
    pub fn failed(&self) -> u64 {
        self.error_responses + self.client_errors + self.oracle_mismatches
    }

    pub fn misses_removed_pct(&self) -> f64 {
        100.0
            * stats::ratio(
                self.conventional_misses as f64 - self.chosen_misses as f64,
                self.conventional_misses as f64,
            )
    }

    /// Starts the measured window; returns its start time.
    pub fn start_window(&mut self) -> Instant {
        self.window_cpu_start_s = stats::process_cpu_s();
        Instant::now()
    }

    /// Records the end of the measured window.
    pub fn end_window(&mut self, start: Instant) {
        self.window_s = start.elapsed().as_secs_f64();
        self.window_cpu_s = stats::process_cpu_s() - self.window_cpu_start_s;
        self.peak_rss_mb = stats::peak_rss_mb();
    }

    /// The end-to-end metrics `BENCHMARK.json` gates, in its order.
    ///
    /// The cost of the requests is gated as `cpu_ms_per_request`: the CPU
    /// time all threads of the process (server workers, connections and
    /// clients on the TCP workloads) spent in the window, divided by the
    /// requests completed in it. The benchmark runs on a few cores of a
    /// shared host, where wall-clock throughput measured the host's
    /// scheduler more than the program: ten seeds of the same code spread
    /// by 0.46–0.75 of their median in `throughput_rps`. CPU time leaves
    /// out the time the host takes the cores away (steal time) and the time
    /// threads wait for one another, so only the work the requests do
    /// counts. A faster layer lowers it on the workloads where that layer
    /// works (see [`crate::layers`]), just as it would raise throughput.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", stats::median(&self.setup_s), "s");
        m.put(
            "cpu_ms_per_request",
            stats::ratio(self.window_cpu_s * 1e3, self.latencies_ms.len() as f64),
            "ms",
        );
        m.put("misses_removed_pct", self.misses_removed_pct(), "%");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m
    }

    /// The end-to-end metrics that are printed and recorded but carry no
    /// bound in `BENCHMARK.json`: wall-clock throughput and the latency
    /// percentiles.
    ///
    /// Every workload is a closed loop with a fixed number of requests in
    /// flight (1 on `onboard`, 2 on `optimize`, 16 on `explore`), so mean
    /// latency is that number divided by `throughput_rps`. Both depend on
    /// how much of the shared host the run gets: across ten seeds of the
    /// same code `throughput_rps` spread by 0.46–0.75 of its median on a
    /// busy host, and the percentiles moved more than the largest bound the
    /// benchmark may set (0.25 of the median) even on a quieter one:
    ///
    /// * `latency_p50_ms` on `onboard` (IQR/median 0.31–0.56): its 20–40
    ///   samples put the median among the susan cells, whose latency swings
    ///   by up to 1.9× between slow and fast periods while the lame cells that
    ///   set the throughput swing by about 1.1×;
    /// * `latency_tail_ms`, the highest percentile with at least ten samples
    ///   beyond it, on `explore` (up to 0.61): one host stall delays every
    ///   request pipelined on a connection, up to 16 at once, so ten samples
    ///   beyond is about one stall.
    pub fn not_gated(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put(
            "throughput_rps",
            stats::ratio(self.latencies_ms.len() as f64, self.window_s),
            "1/s",
        );
        m.put("latency_p50_ms", stats::median(&self.latencies_ms), "ms");
        m.put("latency_tail_ms", stats::tail(&self.latencies_ms).0, "ms");
        m
    }

    /// Prints the figures the metrics are built from.
    pub fn print_summary(&self) {
        let (tail, pct) = stats::tail(&self.latencies_ms);
        println!(
            "window {:.3} s ({:.3} CPU s), {} requests completed; tail = p{:.4} = {:.3} ms over {} samples",
            self.window_s,
            self.window_cpu_s,
            self.latencies_ms.len(),
            pct,
            tail,
            self.latencies_ms.len()
        );
        println!(
            "setup runs {:?} s",
            self.setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        );
        println!(
            "failed_ratio {:.6} = ({} error responses + {} client errors + {} oracle mismatches) / {} attempted",
            stats::ratio(self.failed() as f64, self.attempted as f64),
            self.error_responses,
            self.client_errors,
            self.oracle_mismatches,
            self.attempted
        );
        println!(
            "misses removed: {} conventional -> {} chosen ({:.4} %)",
            self.conventional_misses,
            self.chosen_misses,
            self.misses_removed_pct()
        );
    }
}
