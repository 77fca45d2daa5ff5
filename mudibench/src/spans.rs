//! In-memory span recording for traced runs.
//!
//! A span is one timed call into a layer's public function: its name,
//! start, end, the span that caused it, and the request it belongs to.
//! Each thread records into its own [`Spans`]; the recorders are merged
//! and written out once, when the run ends, so recording costs two
//! clock reads and a push.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::{self, Interval};

/// Identifies a span within one merged recording.
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `session.step_until`.
    pub name: &'static str,
    /// Nanoseconds from the run's origin.
    pub start: u64,
    /// Nanoseconds from the run's origin.
    pub end: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request (or operation) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// The span as an interval.
    pub fn interval(&self) -> Interval {
        Interval {
            start: self.start,
            end: self.end,
        }
    }
}

/// A span recorder sharing a time origin with its siblings.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes an open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Hands back everything recorded so far, leaving an empty recorder
    /// on the same origin.
    pub fn take(&mut self) -> Spans {
        std::mem::replace(self, Spans::new(self.origin))
    }

    /// Appends another recorder's spans, remapping their parent ids.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of the spans with this name, seconds, ascending.
    pub fn secs_sorted(&self, name: &str) -> Vec<f64> {
        stats::sorted(self.named(name).map(Span::secs).collect())
    }

    /// Summed duration of the spans with this name, seconds (0 when
    /// there are none).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).fold(0.0, |a, b| a + b)
    }

    /// Self time of every span with this name, seconds, summed.
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push(s.interval());
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| stats::self_time(s.interval(), &children[i]) as f64 / 1e9)
            .sum()
    }

    /// Writes the spans as tab-separated rows
    /// `id name start_ns end_ns parent req` (parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_remaps_parents_and_self_time_excludes_children() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        let root = a.open("request", None, 1);
        a.time("parse", Some(root), 1, || std::hint::black_box(0));
        a.close(root);
        let mut b = Spans::new(origin);
        let root_b = b.open("request", None, 2);
        b.time("handle", Some(root_b), 2, || std::hint::black_box(0));
        b.close(root_b);
        a.merge(b);
        let handle = a.named("handle").next().unwrap();
        assert_eq!(handle.parent, Some(2));
        assert_eq!(a.all()[2].req, 2);
        let total = a.total_secs("request");
        let own = a.self_secs("request");
        let kids = a.total_secs("parse") + a.total_secs("handle");
        assert!((total - own - kids).abs() < 1e-9, "{total} {own} {kids}");
    }
}
