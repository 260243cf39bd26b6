//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public entry point; the program itself carries no tracing.
//! A [`Trace`] belongs to one thread and keeps its spans in memory until
//! the run ends. A disabled trace records nothing, so the timed runs pay
//! only for a branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request or batch id the span belongs to.
    pub id: u64,
    /// Seconds since the trace's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool, origin: Instant) -> Trace {
        Trace {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (`None` when
    /// disabled), which later spans may name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            start: at(start),
            end: at(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Makes `parent` the parent of every span in `children`.
    pub fn adopt(&mut self, parent: Option<usize>, children: &[Option<usize>]) {
        for &c in children.iter().flatten() {
            self.spans[c].parent = parent;
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// For every span, the part of its interval its children cover.
pub fn child_cover(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| covered(c, s.start, s.end))
        .collect()
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .zip(child_cover(spans))
        .map(|(s, c)| s.duration() - c)
        .collect()
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub spans: u64,
    pub self_s: f64,
}

pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.self_s += self_s;
    }
    out
}

/// Share of the time of spans named `root` that their child spans cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let cover = child_cover(spans);
    let (mut num, mut den) = (0.0, 0.0);
    for (s, c) in spans.iter().zip(cover) {
        if s.name == root {
            num += c;
            den += s.duration();
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            // Overlaps `a`: the overlap is counted once.
            span("b", 3.0, 6.0, Some(0)),
            // Sticks out past the parent: clipped at 10.
            span("c", 9.0, 12.0, Some(0)),
            span("leaf", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - (10.0 - 5.0 - 1.0)).abs() < 1e-12);
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 3.0).abs() < 1e-12);
        assert!((st[4] - 0.5).abs() < 1e-12);
        let layers = by_layer(&spans);
        assert_eq!(layers["root"].spans, 1);
        assert!((layers["root"].self_s - 4.0).abs() < 1e-12);
        assert!((coverage(&spans, "root") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn self_times_sum_to_the_root_interval() {
        let spans = vec![
            span("root", 0.0, 8.0, None),
            span("a", 0.0, 2.0, Some(0)),
            span("b", 2.0, 5.0, Some(0)),
            span("x", 2.5, 3.0, Some(2)),
        ];
        let total: f64 = self_times(&spans).iter().sum();
        assert!((total - 8.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_trace_records_nothing_and_absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut off = Trace::new(false, t0);
        assert_eq!(off.record("x", 1, t0, t0, None), None);
        assert!(off.spans().is_empty());
        let mut a = Trace::new(true, t0);
        a.record("a", 1, t0, t0, None);
        let mut b = Trace::new(true, t0);
        let p = b.record("root", 2, t0, t0, None);
        let c = b.record("child", 2, t0, t0, None);
        b.adopt(p, &[c]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
