//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a layer, an operation name, a start and an end on one
//! nanosecond clock, an optional parent span and the id of the request it
//! belongs to. A layer's *self time* is its spans' durations minus the part
//! of each interval that child spans cover; the root span's self time is
//! the time no layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer the span's time is charged to (`serve.server`, `client`, …).
    pub layer: &'static str,
    /// Operation within the layer (`decode`, `admit`, …).
    pub op: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the span that caused this one, in the same span list.
    pub parent: Option<usize>,
    /// Request id shared by every span of one operation.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. When off, every call is a no-op, so untraced runs pay
/// one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder on a shared origin (give every thread's tracer the same
    /// origin so their spans can be merged).
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (zero before the origin).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index when recording.
    pub fn record(
        &mut self,
        layer: &'static str,
        op: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            layer,
            op,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is not known yet (a root whose children are
    /// recorded first); finish it with [`close`](Self::close).
    pub fn open(
        &mut self,
        layer: &'static str,
        op: &'static str,
        req: u64,
        start: Instant,
    ) -> Option<usize> {
        self.record(layer, op, None, req, start, start)
    }

    /// Set the end of a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end = self.ns(end);
        }
    }

    /// Move another tracer's spans into this one, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children that overlap each other or spill past
/// their parent are never double-counted, so no self time is negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start.max(parent.start);
            let hi = s.end.min(parent.end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Self time and span count of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Spans recorded.
    pub count: u64,
}

/// Self time and count per layer, in layer-name order.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.layer).or_default();
        t.self_ns += own;
        t.count += 1;
    }
    out
}
