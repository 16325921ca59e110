//! In-memory spans recorded by the benchmark around its calls into each
//! layer (nothing inside the program is instrumented). Spans are written
//! out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// Layers a span can belong to; a span's layer is its name's first
/// dot-separated component.
pub const LAYERS: [&str; 5] = ["serve", "core", "engine", "primitives", "tensor"];

/// One timed interval. `parent` indexes the span that caused it in the
/// same [`Tracer`]; spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// One layer's share of a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed durations of the layer's outermost spans.
    pub total_ms: f64,
    /// Time inside the layer's spans that no child span covers.
    pub self_ms: f64,
    /// The part of `self_ms` inside spans that do have children: time
    /// the benchmark cannot attribute below that layer.
    pub unattributed_ms: f64,
}

/// Span recorder. A disabled tracer records nothing and reads no clock,
/// so untraced runs pay only a branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its id (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Records a span of known duration laid out at `start_us` (used for
    /// the server's echoed stage timings, whose durations are the
    /// server's but whose placement inside the request is nominal).
    pub fn record_duration(
        &mut self,
        name: &str,
        start_us: f64,
        ms: f64,
        parent: Option<usize>,
        request: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us + ms * 1e3,
                parent,
                request,
            });
        }
    }

    /// Runs `f` inside a span. The span is opened before `f` runs, so
    /// spans `f` records can name it as their parent.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let start = Instant::now();
        let id = self.record(name, start, start, parent, request);
        let out = f(self, id);
        let end_us = self.us(Instant::now());
        if let Some(i) = id {
            self.spans[i].end_us = end_us;
        }
        out
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-layer times in milliseconds. A span nested in a span of its
    /// own layer is not counted twice.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let layer_of = |s: &Span| s.name.split('.').next().unwrap_or("").to_string();
        let mut out: BTreeMap<&'static str, LayerTime> =
            LAYERS.iter().map(|&l| (l, LayerTime::default())).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = layer_of(s);
            let Some((_, entry)) = out.iter_mut().find(|(l, _)| **l == layer) else {
                continue;
            };
            let total = s.end_us - s.start_us;
            let intervals: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                })
                .collect();
            let own = (total - covered(intervals)).max(0.0) / 1e3;
            if s.parent.is_none_or(|p| layer_of(&self.spans[p]) != layer) {
                entry.total_ms += total / 1e3;
            }
            entry.self_ms += own;
            if !children[i].is_empty() {
                entry.unattributed_ms += own;
            }
        }
        out
    }

    /// The spans as a JSON array of `{name, start_us, end_us, parent,
    /// request}` objects.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.clone())),
                        ("start_us".into(), Value::Float(s.start_us)),
                        ("end_us".into(), Value::Float(s.end_us)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("request".into(), Value::UInt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, true);
        let at = |us: u64| origin + Duration::from_micros(us);
        let root = t.record("engine.run", at(0), at(10_000), None, 1);
        t.record("primitives.a", at(1_000), at(4_000), root, 1);
        t.record("primitives.b", at(3_000), at(5_000), root, 1);
        t.record("tensor.c", at(9_000), at(12_000), root, 1);
        t.record("engine.inner", at(6_000), at(7_000), root, 1);
        let times = t.layer_times();
        let engine = times["engine"];
        assert!((engine.total_ms - 10.0).abs() < 1e-9, "{engine:?}");
        // Children cover [1,5], [6,7] and [9,10] ms of the root; the
        // nested engine span's own millisecond is self time but not
        // unattributed.
        assert!((engine.unattributed_ms - 4.0).abs() < 1e-9, "{engine:?}");
        assert!((engine.self_ms - 5.0).abs() < 1e-9, "{engine:?}");
        assert!((times["primitives"].total_ms - 5.0).abs() < 1e-9);
        assert!((times["tensor"].self_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let v = t.time("engine.x", None, 0, |_, id| id);
        assert_eq!(v, None);
        assert!(t.spans().is_empty());
    }
}
