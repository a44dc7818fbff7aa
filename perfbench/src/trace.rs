//! In-memory spans, written out when the traced run ends as JSON lines and
//! as Chrome trace-event JSON (`chrome://tracing`, Perfetto).

use crate::out::string;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The public call (`new`, `populate`, `run_until`, `kill_task`, ...).
    pub name: &'static str,
    /// The layer the span is charged to, or the slice's phase label.
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, label: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            label: label.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Relabel a span once its phase is known (slices are labelled after
    /// they ran, from the causal trace).
    pub fn relabel(&mut self, id: usize, label: &str) {
        self.spans[id].label = label.to_string();
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host ns of each span not covered by its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut s = String::new();
        for sp in &self.spans {
            let parent = sp
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            let _ = writeln!(
                s,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"label\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {}}}",
                sp.id,
                string(sp.name),
                string(&sp.label),
                sp.start_ns,
                sp.ns(),
                own[sp.id]
            );
        }
        s
    }

    /// Chrome trace-event format: complete ("X") events in µs.
    pub fn to_chrome(&self) -> String {
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {}}}}}{sep}",
                string(sp.name),
                string(&sp.label),
                sp.start_ns as f64 / 1000.0,
                sp.ns() as f64 / 1000.0,
                sp.id,
                sp.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".into())
            );
        }
        s.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        s
    }
}
