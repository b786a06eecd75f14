//! The per-layer record a traced run fills, and the metrics it prints.
//!
//! Every traced run prints every per-layer metric. Each is measured from
//! outside, by timing calls into the public functions of one crate:
//!
//! | metric | measured by | should move (workload) |
//! |---|---|---|
//! | `workloads.trace_s`, `workloads.accesses` | trace generation in set-up | `setup_s` (all) |
//! | `xorindex.profile.*` | `ConflictProfile::from_blocks` spans | `onboard` `cpu_ms_per_request`, throughput and latency; `optimize`/`explore` `setup_s` only |
//! | `cache_sim.preclass.*` | standalone `ReuseStream::build` per (trace, geometry) | `onboard` `cpu_ms_per_request` and `throughput_rps` (the lame cells; onboard's 30–40-sample tail is its p67–p75 and misses them) |
//! | `xorindex_serve.register_s` | `IndexService::register` spans | `onboard` latency (small share) |
//! | `xorindex.search.busy_s`, `.evaluations`, `.steps`, `.memo_hit_ratio`, `.scaffold_hit_ratio` | `Searcher::run_with_neighborhood` spans on the rebuilt path | `optimize` `cpu_ms_per_request`, throughput and latency |
//! | `xorindex.search.generate_s`, `.price_s`, `.generate_per_price` | `PackedNeighborhood::generate` vs `EvalEngine::estimate_neighborhood`, one neighbourhood per app at the conventional parent | `optimize` `cpu_ms_per_request` and throughput |
//! | `xorindex.price.candidates_per_s`, `.abandoned_ratio` | in-process `price_batch` / `price_batch_bounded` | `explore` `cpu_ms_per_request` and throughput |
//! | `xorindex_verify.replay_s`, `.accesses_per_s`, `.index_stream_s`, `.preclass_builds`, `.preclass_hits` | `TraceReplayer` spans, `SetIndexStream::build`, `ReplayStats` | `optimize`/`explore` latency |
//! | `xorindex_verify.audit_mean_abs_error`, `.audit_rank_agreement` | `EstimateAudit` of the verified (or explored) answers | `misses_removed_pct` |
//! | `xorindex_serve.handle_ms` | `IndexService::handle` on the twin service | `explore` latency |
//! | `xorindex_serve.queue_wait_ms` | `WorkerPool::submit`→`wait` minus handle | `explore` latency |
//! | `xorindex_serve.wire.codec_us`, `.overhead_ms` | public `encode_*`/`decode_*`; p50 of (client RTT − handle time of the same request) | `explore` latency |
//! | `xorindex_serve.wire.frames_*`, `.decode_errors`, `.max_pipeline_depth` | `WireStats` | `explore` `failed_ratio` |
//!
//! `trace.overhead_pct` is traced minus untraced time of the same requests.
//! The `roadmap.*` rows reproduce the layer table of the repository's
//! ROADMAP from committed code and are the same probe on every workload.

use std::collections::BTreeMap;

use xorindex_serve::WireStats;
use xorindex_verify::EstimateAudit;

use crate::stats::{self, Metrics};

/// The ROADMAP "measured at this re-anchor" layer rows.
#[derive(Debug, Default, Clone)]
pub struct Roadmap {
    pub lame4k_profile_s: f64,
    /// (cache KB, generate ms, price ms) of one xor_unlimited neighbourhood,
    /// summed over the probe's programs.
    pub neighborhood_ms: Vec<(u64, f64, f64)>,
    pub replay_ns_per_access: f64,
    pub loopback_rtt_us: f64,
}

#[derive(Debug, Default)]
pub struct Layers {
    pub trace_s: f64,
    pub accesses: u64,
    pub profile_s: f64,
    pub profile_accesses: u64,
    pub distinct_vectors: u64,
    pub preclass_s: f64,
    pub preclass_accesses: u64,
    pub register_s: f64,
    pub search_s: f64,
    pub evaluations: u64,
    pub steps: u64,
    pub memo_hits: u64,
    pub memo_probes: u64,
    pub scaffold_hits: u64,
    pub scaffold_probes: u64,
    pub generate_s: f64,
    pub price_s: f64,
    pub priced: u64,
    pub price_busy_s: f64,
    pub bounded: u64,
    pub abandoned: u64,
    pub replay_s: f64,
    pub replay_accesses: u64,
    pub index_stream_s: f64,
    pub preclass_builds: u64,
    pub preclass_hits: u64,
    pub audits: Vec<EstimateAudit>,
    /// `IndexService::handle` durations in ms, by request kind.
    pub handle_ms: BTreeMap<&'static str, Vec<f64>>,
    pub queue_wait_ms: f64,
    pub codec_us: f64,
    /// Per request: client round trip minus the in-process handle time of
    /// the same request, in ms.
    pub wire_overhead_ms: Vec<f64>,
    pub wire: WireStats,
    pub traced_s: f64,
    pub untraced_s: f64,
    pub roadmap: Roadmap,
}

impl Layers {
    pub fn all_handle_ms(&self) -> Vec<f64> {
        self.handle_ms.values().flatten().copied().collect()
    }

    pub fn note_handle(&mut self, kind: &'static str, ms: f64) {
        self.handle_ms.entry(kind).or_default().push(ms);
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("workloads.trace_s", self.trace_s, "s");
        m.put("workloads.accesses", self.accesses as f64, "count");
        m.put("xorindex.profile.busy_s", self.profile_s, "s");
        m.put(
            "xorindex.profile.accesses_per_s",
            stats::ratio(self.profile_accesses as f64, self.profile_s),
            "1/s",
        );
        m.put(
            "xorindex.profile.distinct_vectors",
            self.distinct_vectors as f64,
            "count",
        );
        m.put("cache_sim.preclass.busy_s", self.preclass_s, "s");
        m.put(
            "cache_sim.preclass.accesses_per_s",
            stats::ratio(self.preclass_accesses as f64, self.preclass_s),
            "1/s",
        );
        m.put("xorindex_serve.register_s", self.register_s, "s");
        m.put("xorindex.search.busy_s", self.search_s, "s");
        m.put(
            "xorindex.search.evaluations",
            self.evaluations as f64,
            "count",
        );
        m.put("xorindex.search.steps", self.steps as f64, "count");
        m.put(
            "xorindex.search.memo_hit_ratio",
            stats::ratio(self.memo_hits as f64, self.memo_probes as f64),
            "ratio",
        );
        m.put(
            "xorindex.search.scaffold_hit_ratio",
            stats::ratio(self.scaffold_hits as f64, self.scaffold_probes as f64),
            "ratio",
        );
        m.put("xorindex.search.generate_s", self.generate_s, "s");
        m.put("xorindex.search.price_s", self.price_s, "s");
        m.put(
            "xorindex.search.generate_per_price",
            stats::ratio(self.generate_s, self.price_s),
            "ratio",
        );
        m.put(
            "xorindex.price.candidates_per_s",
            stats::ratio(self.priced as f64, self.price_busy_s),
            "1/s",
        );
        m.put(
            "xorindex.price.abandoned_ratio",
            stats::ratio(self.abandoned as f64, self.bounded as f64),
            "ratio",
        );
        m.put("xorindex_verify.replay_s", self.replay_s, "s");
        m.put(
            "xorindex_verify.accesses_per_s",
            stats::ratio(self.replay_accesses as f64, self.replay_s),
            "1/s",
        );
        m.put("xorindex_verify.index_stream_s", self.index_stream_s, "s");
        m.put(
            "xorindex_verify.preclass_builds",
            self.preclass_builds as f64,
            "count",
        );
        m.put(
            "xorindex_verify.preclass_hits",
            self.preclass_hits as f64,
            "count",
        );
        let audits = self.audits.len() as f64;
        m.put(
            "xorindex_verify.audit_mean_abs_error",
            stats::ratio(
                self.audits.iter().map(EstimateAudit::mean_abs_error).sum(),
                audits,
            ),
            "misses",
        );
        m.put(
            "xorindex_verify.audit_rank_agreement",
            stats::ratio(
                self.audits.iter().map(EstimateAudit::rank_agreement).sum(),
                audits,
            ),
            "ratio",
        );
        let handle_p50 = stats::median(&self.all_handle_ms());
        m.put("xorindex_serve.handle_ms", handle_p50, "ms");
        m.put("xorindex_serve.queue_wait_ms", self.queue_wait_ms, "ms");
        m.put("xorindex_serve.wire.codec_us", self.codec_us, "us");
        m.put(
            "xorindex_serve.wire.overhead_ms",
            stats::median(&self.wire_overhead_ms),
            "ms",
        );
        m.put(
            "xorindex_serve.wire.frames_in",
            self.wire.frames_in as f64,
            "count",
        );
        m.put(
            "xorindex_serve.wire.frames_out",
            self.wire.frames_out as f64,
            "count",
        );
        m.put(
            "xorindex_serve.wire.decode_errors",
            self.wire.decode_errors as f64,
            "count",
        );
        m.put(
            "xorindex_serve.wire.max_pipeline_depth",
            self.wire.max_pipeline_depth as f64,
            "count",
        );
        m.put(
            "trace.overhead_pct",
            100.0 * stats::ratio(self.traced_s - self.untraced_s, self.untraced_s),
            "%",
        );
        m.put(
            "roadmap.lame4k_profile_s",
            self.roadmap.lame4k_profile_s,
            "s",
        );
        for &(kb, generate_ms, price_ms) in &self.roadmap.neighborhood_ms {
            m.put(format!("roadmap.generate_ms_{kb}kb"), generate_ms, "ms");
            m.put(format!("roadmap.price_ms_{kb}kb"), price_ms, "ms");
        }
        m.put(
            "roadmap.replay_ns_per_access",
            self.roadmap.replay_ns_per_access,
            "ns",
        );
        m.put(
            "roadmap.loopback_rtt_us",
            self.roadmap.loopback_rtt_us,
            "us",
        );
        m
    }

    /// Prints the per-kind handle times behind `xorindex_serve.handle_ms`.
    pub fn print_handle_kinds(&self) {
        println!("IndexService::handle by request kind:");
        for (kind, ms) in &self.handle_ms {
            println!(
                "  {:<20} n={:<7} p50 {:>10.4} ms  tail {:>10.4} ms",
                kind,
                ms.len(),
                stats::median(ms),
                stats::tail(ms).0
            );
        }
    }
}
