//! In-memory span tracer for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans; nothing inside the program is instrumented. Spans are kept in
//! memory and written out as JSON lines when the run ends. A span's *self
//! time* is its duration minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// For each span named `root`, the summed duration of the spans named
    /// `name` nested anywhere inside it, in seconds.
    pub fn within(&self, root: &str, name: &str) -> Vec<f64> {
        let inside = |mut i: usize, r: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == r => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        (0..self.spans.len())
            .filter(|&r| self.spans[r].name == root)
            .map(|r| {
                self.spans
                    .iter()
                    .enumerate()
                    .filter(|&(i, s)| s.name == name && inside(i, r))
                    .map(|(_, s)| (s.end_ns - s.start_ns) as f64 * 1e-9)
                    .sum()
            })
            .collect()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its direct children cover (children of one parent never
    /// overlap, since spans nest on one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines: `{"id", "name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {}
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            spin(2);
            t.span("inner", |_| spin(5));
            t.span("inner", |_| spin(5));
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let selfs = t.self_times();
        let inner: f64 = t.durations("inner").iter().sum();
        assert!(inner >= 0.010);
        assert!((selfs["inner"] - inner).abs() < 1e-12);
        let outer: f64 = t.durations("outer").iter().sum();
        assert!((selfs["outer"] - (outer - inner)).abs() < 1e-9);
        assert!(selfs["outer"] >= 0.002);
        assert_eq!(t.to_jsonl().lines().count(), 3);
        assert_eq!(t.within("outer", "inner").len(), 1);
        assert!((t.within("outer", "inner")[0] - inner).abs() < 1e-12);
        assert_eq!(t.within("inner", "outer"), vec![0.0, 0.0]);
    }
}
