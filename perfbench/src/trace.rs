//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, the enclosing span and a run id shared by every span
//! of one operation.  Spans stay in memory and are written out once, when
//! the run ends.  With tracing off every call is a plain closure call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    run: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            run: Cell::new(0),
        }
    }

    /// Starts a new operation: a fresh run id for `f`'s spans, with the
    /// operation itself as the root span.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.enabled {
            self.run.set(self.run.get() + 1);
        }
        self.span(name, f)
    }

    /// Records a span named `name` around `f`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                run: self.run.get(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time of every span in seconds, grouped by span name: the
    /// span's duration minus the part of it its child spans cover.
    /// Children never overlap (all spans come from one thread), so the
    /// covered part is the sum of the children's durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// One JSON object per line: `run`, `span`, `parent`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}
