//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public function; the program itself carries no tracing. A
//! span has a name, start, end, parent and a request or experiment id.
//! Spans stay in memory and are written once, as a Chrome/Perfetto
//! `trace_event` file, when the run ends. A span's self time is its
//! duration minus the time its children cover.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name, e.g. `fleet.step_slot`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request or experiment id the span belongs to.
    pub id: u64,
    /// Recording thread (small integer, stable within a run).
    pub tid: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_tag() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The span store. Shared by reference across the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span store");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            tid: thread_tag(),
        });
        spans.len() - 1
    }

    /// Closes the span `idx`.
    pub fn close(&self, idx: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics holding the span store")[idx]
            .end_ns = end_ns;
    }

    /// Runs `f` inside a span; `f` receives the span's index so it can
    /// parent child spans.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let idx = self.open(name, parent, id);
        let out = f(idx);
        self.close(idx);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store").len()
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed self time, in seconds, of every span named `name`: each
    /// span's duration minus the union of its children's intervals.
    pub fn self_time_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut total_ns = 0u64;
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total_ns += (s.end_ns - s.start_ns) - covered;
        }
        total_ns as f64 * 1e-9
    }

    /// Writes every span as a Chrome `trace_event` JSON array
    /// (complete events, microsecond timestamps), loadable in Perfetto.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store");
        let mut out = String::with_capacity(spans.len() * 120);
        out.push_str("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.id
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(Instant::now());
        {
            let mut spans = t.spans.lock().unwrap();
            let mk = |name: &str, a, b, parent| Span {
                name: name.to_string(),
                start_ns: a,
                end_ns: b,
                parent,
                id: 0,
                tid: 1,
            };
            spans.push(mk("root", 0, 100, None));
            // Overlapping children (two connections) count once.
            spans.push(mk("child", 10, 40, Some(0)));
            spans.push(mk("child", 30, 50, Some(0)));
            spans.push(mk("child", 80, 90, Some(0)));
        }
        assert!((t.self_time_s("root") - 50e-9).abs() < 1e-15);
        assert!((t.self_time_s("child") - 60e-9).abs() < 1e-15);
        assert_eq!(t.durations_s("child").len(), 3);
    }
}
