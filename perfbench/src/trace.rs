//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in
//! [`Tracer::span`]. A span records its name, start, end, parent span and
//! the operation it belongs to. Spans stay in memory until the run ends;
//! [`self_times`] then derives each span's self time (its duration minus
//! the part its children cover) and [`layer_totals`] folds them per layer.
//!
//! A disabled tracer runs the wrapped closure and reads no clock, so the
//! same replay code gives the untraced baseline the tracing overhead is
//! measured against.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name (`crate.module`, e.g. `core.rearrange`).
    pub name: &'static str,
    /// Operation id the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder (the replay runs on one thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: Cell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A tracer that records nothing and reads no clock.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Sets the operation id later spans are tagged with.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(SpanRecord {
                name,
                op: self.op.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.borrow().clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Parallel to `spans`.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One layer's totals within one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed inclusive time, ns.
    pub inclusive_ns: u64,
}

/// Per-layer totals of the spans tagged `op`.
pub fn layer_totals(spans: &[SpanRecord], op: u64) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.op != op {
            continue;
        }
        let t = totals.entry(s.name).or_default();
        t.self_ns += self_ns;
        t.inclusive_ns += s.duration_ns();
    }
    totals
}

/// The layer with the largest self time among `totals`, ignoring the
/// names in `skip` (the root and grouping spans).
pub fn top_layer(
    totals: &BTreeMap<&'static str, LayerTotal>,
    skip: &[&str],
) -> Option<&'static str> {
    totals
        .iter()
        .filter(|(name, _)| !skip.contains(name))
        .max_by_key(|(_, t)| t.self_ns)
        .map(|(name, _)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            rec("root", None, 0, 100),
            rec("a", Some(0), 10, 40),
            rec("b", Some(0), 50, 60),
            rec("c", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
