//! In-memory spans for the traced replay: name, start, end and parent,
//! recorded by the harness around its calls into each layer.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Self time of every span name: each span's duration minus the
    /// time its children cover, summed per name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += s.dur_ns() - child_ns[k];
        }
        out
    }

    /// Chrome trace-event JSON of the spans (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let events: Vec<mcp_obs::SpanEvent> = self
            .spans
            .iter()
            .map(|s| mcp_obs::SpanEvent {
                span: s.name.to_owned(),
                tid: 1,
                start_us: s.start_ns / 1000,
                dur_us: s.dur_ns() / 1000,
            })
            .collect();
        serde_json::to_string(&mcp_obs::chrome_trace(&events)).expect("serialize the trace")
    }
}
