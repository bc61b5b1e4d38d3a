//! Wall-clock spans recorded around each layer call.
//!
//! Spans stay in memory and are written once at exit. The layers' own
//! internals are not instrumented: a span covers exactly one public call
//! made by the benchmark.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIdx(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `loads.derive`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanIdx>,
    /// Scheduling pass (trial or tick) the span belongs to.
    pub pass: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span store. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (untraced passes interleave with traced
    /// ones to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` while disabled.
    pub fn start(
        &mut self,
        name: &'static str,
        parent: Option<SpanIdx>,
        pass: u64,
    ) -> Option<SpanIdx> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            pass,
        });
        Some(SpanIdx(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::start`].
    pub fn end(&mut self, span: Option<SpanIdx>) {
        if let Some(SpanIdx(i)) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn wrap<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanIdx>,
        pass: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.start(name, parent, pass);
        let out = f();
        self.end(span);
        out
    }

    /// Self time of every span, in milliseconds: its duration minus the
    /// durations of its direct children.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanIdx(p)) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| (s.ms() - c).max(0.0))
            .collect()
    }

    /// Self times of every span named `name`, in milliseconds.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: calls, median duration, median and total self time,
    /// and the share of all self time, in first-seen order.
    pub fn table(&self) -> String {
        let selfs = self.self_ms();
        let total: f64 = selfs.iter().sum();
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = format!(
            "# {:<20} {:>7} {:>12} {:>12} {:>12} {:>7}\n",
            "span", "calls", "p50_ms", "self_p50_ms", "self_tot_ms", "self_%"
        );
        for name in names {
            let own: Vec<f64> = self
                .spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &t)| t)
                .collect();
            let own_total: f64 = own.iter().sum();
            let _ = writeln!(
                out,
                "# {:<20} {:>7} {:>12.4} {:>12.4} {:>12.2} {:>7.2}",
                name,
                own.len(),
                crate::stats::median(&self.ms_of(name)),
                crate::stats::median(&own),
                own_total,
                100.0 * own_total / total.max(f64::MIN_POSITIVE),
            );
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(SpanIdx(p)) => p.to_string(),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
