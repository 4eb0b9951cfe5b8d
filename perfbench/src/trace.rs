//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end and the span that caused it; every
//! root span opens a new request, and its descendants share that
//! request's identifier. Spans stay in memory and are written once, when
//! the run ends. A disabled tracer runs the closure and records nothing,
//! so the untraced run pays no tracing cost.

use std::fmt::Write as _;
use std::time::Instant;

use crate::procfs;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `long.compose`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by a root span and all its descendants.
    pub request: u64,
    /// Offset from the tracer's creation.
    pub start_ns: u64,
    /// Offset from the tracer's creation.
    pub end_ns: u64,
    /// Peak RSS while the span ran (MiB), when it was asked for.
    pub peak_mb: Option<f64>,
}

impl Span {
    /// Wall time in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    requests: u64,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` gets the tracer back to
    /// open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, false, f)
    }

    /// Like [`Tracer::span`], and records the peak RSS while `f` ran.
    pub fn span_peak<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(&mut self, name: &'static str, peak: bool, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let request = match parent {
            Some(p) => self.spans[p].request,
            None => {
                self.requests += 1;
                self.requests
            }
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: 0,
            end_ns: 0,
            peak_mb: None,
        });
        self.open.push(id);
        if peak {
            procfs::reset_peak_rss();
        }
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        if peak {
            span.peak_mb = Some(procfs::peak_rss_mb());
        }
        self.open.pop();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per request whose root span is named `root`: the summed seconds
    /// of its spans named in `names`, in request order.
    pub fn per_request(&self, root: &str, names: &[&str]) -> Vec<f64> {
        self.roots(root)
            .map(|r| {
                self.spans
                    .iter()
                    .filter(|s| s.request == r.request && names.contains(&s.name))
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    /// Seconds of every root span named `root`.
    pub fn root_secs(&self, root: &str) -> Vec<f64> {
        self.roots(root).map(Span::secs).collect()
    }

    /// Per request rooted at `root`: the summed self time of the root's
    /// direct children (the named phases), in request order.
    pub fn attributed(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == root)
            .map(|(id, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    /// Peak-RSS readings (MiB) of every span named `name`.
    pub fn peaks(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.peak_mb)
            .collect()
    }

    /// Seconds of every span named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    fn roots<'a>(&'a self, root: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.parent.is_none() && s.name == root)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let peak = s.peak_mb.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"peak_mb\": {peak}}}{sep}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}
