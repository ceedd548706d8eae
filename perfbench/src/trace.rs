//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Spans are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers (`oracle.build`, `serve.request`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The output or request the span belongs to.
    pub id: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// A span recorder. A disabled trace records nothing and only times.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder whose spans are measured from `origin` (share one
    /// origin between threads so their spans merge on one clock).
    pub fn new(on: bool, origin: Instant) -> Self {
        Trace {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock (for another thread or
    /// phase; merge it back with [`Trace::absorb`]).
    pub fn fork(&self) -> Trace {
        Trace::new(self.on, self.origin)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval and returns its index (for use as a
    /// parent), or `None` while the trace is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that ends at [`Trace::close`] (for parents, whose
    /// children are recorded before they end).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Ends a span opened by [`Trace::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Appends another recorder's spans (same origin), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Total duration of spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).iter().sum()
    }

    /// Mean duration of spans named `name`, in milliseconds (0 for none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<Duration>().as_secs_f64() * 1e3 / d.len() as f64
        }
    }

    /// Number of spans recorded.
    pub fn count_all(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(Duration::ZERO) += Duration::from_nanos(own);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let mut t = Trace::new(true, origin);
        let at = |ms| origin + Duration::from_millis(ms);
        let root = t.record("cone", at(0), at(10), None, 7);
        t.record("oracle.build", at(1), at(4), root, 7);
        t.record("optimum.search", at(4), at(9), root, 7);
        let times = t.self_times();
        assert_eq!(times["cone"], Duration::from_millis(2));
        assert_eq!(times["optimum.search"], Duration::from_millis(5));
        assert_eq!(t.mean_ms("oracle.build"), 3.0);
        assert_eq!(t.durations("cone").len(), 1);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        assert_eq!(t.span("x", None, 0, || 5), 5);
        assert_eq!(t.count_all(), 0);
        assert_eq!(t.mean_ms("x"), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Trace::new(true, origin);
        a.record("a", origin, origin, None, 0);
        let mut b = Trace::new(true, origin);
        let p = b.record("b", origin, origin, None, 1);
        b.record("c", origin, origin, p, 1);
        a.absorb(b);
        assert!(a
            .to_jsonl()
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"parent\":1"));
    }
}
