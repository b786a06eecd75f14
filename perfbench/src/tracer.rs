//! In-memory spans recorded around calls into the repository's crates.
//!
//! A span has a name (the public call it wraps, e.g. `xorindex.profile`), a
//! start and end, the span that caused it, and the request it belongs to.
//! Spans stay in memory while the run measures and are written out once,
//! when the run ends. A layer's self time is its span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::json_string;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can open child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                json_string(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span id: duration minus the duration of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut out: BTreeMap<u32, f64> = spans.iter().map(|s| (s.id, s.duration_s())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = out.get_mut(&parent) {
                *t -= s.duration_s();
            }
        }
    }
    out
}

/// Total self time per span name, in seconds, over `spans`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// Total duration per span name, in seconds, over `spans`.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_s();
    }
    out
}

/// Prints the self-time table of `spans`, largest first.
pub fn print_self_times(heading: &str, spans: &[Span]) {
    let mut rows: Vec<(&str, f64)> = self_time_by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("{heading}");
    for (name, t) in rows {
        println!(
            "  {:<40} {:>12.6} s self {:>6.1}%",
            name,
            t,
            100.0 * crate::stats::ratio(t, total)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(2, Some(1), 10, 40),
            span(3, Some(1), 50, 60),
            span(1, None, 0, 100),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 60e-9).abs() < 1e-15);
        assert!((selfs.values().sum::<f64>() - 100e-9).abs() < 1e-15);
    }
}
