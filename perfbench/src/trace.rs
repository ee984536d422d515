//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval: a layer call, the span that caused it, and for
/// serving the request it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. Spans opened with [`Tracer::begin`] nest under the
/// innermost open span; [`Tracer::add`] records an interval timed elsewhere
/// (inside a wrapper, or on another thread) under an explicit parent.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in seconds: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let (s, e) = (
                    span.start_ns.max(parent.start_ns),
                    span.end_ns.min(parent.end_ns),
                );
                if s < e {
                    children[p].push((s, e));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(s, e) in kids.iter() {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.end_ns
                    .saturating_sub(span.start_ns)
                    .saturating_sub(covered) as f64
                    * 1e-9
            })
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(0.0) += t;
        }
        out
    }

    /// Total duration of all spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.name, span.start_ns, span.end_ns
            )?;
            if let Some(p) = span.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(r) = span.request {
                write!(out, ",\"request\":{r}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.add("root", at(0), at(100), None, None);
        // Two overlapping children cover 10..40; a third covers 50..60.
        t.add("a", at(10), at(30), Some(root), None);
        let b = t.add("b", at(20), at(40), Some(root), None);
        t.add("c", at(50), at(60), Some(root), None);
        // A grandchild is subtracted from its own parent only.
        t.add("d", at(25), at(35), Some(b), None);
        let self_times = t.self_times();
        let ms = |s: f64| (s * 1e3).round();
        assert_eq!(ms(self_times[root]), 60.0);
        assert_eq!(ms(self_times[b]), 10.0);
        assert_eq!(ms(self_times[4]), 10.0);
        // Self times of a properly nested tree sum to the root's duration
        // whenever children do not overlap.
        let mut t = Tracer::new();
        let r = t.begin("root");
        t.time("x", || std::thread::sleep(Duration::from_millis(2)));
        t.time("y", || std::thread::sleep(Duration::from_millis(2)));
        t.end(r);
        let sum: f64 = t.self_times().iter().sum();
        assert!((sum - t.spans()[r].secs()).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(r));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let at = |ms: u64| e + Duration::from_millis(ms);
        let root = t.add("root", at(10), at(20), None, None);
        t.add("late", at(15), at(40), Some(root), None);
        assert_eq!((t.self_times()[root] * 1e3).round(), 5.0);
    }
}
