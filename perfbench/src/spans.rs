//! In-memory spans recorded by the benchmark around its calls into each
//! layer (traced runs only).
//!
//! A span has a layer, a name, a start and an end on the flight-recorder
//! clock ([`nss_obs::trace::now_ns`], so spans line up with the events the
//! instrumented crates record), and the span that caused it. Each thread
//! keeps its own [`SpanLog`]; the logs are merged when the run ends and
//! written out once as Chrome `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Layer name for the benchmark's own work (set-up bookkeeping, checks,
/// the client loop). Its self time is what `unattributed_frac` reports.
pub const BENCH: &str = "bench";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub lane: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span log. Disabled logs run the closure and record
/// nothing, so untraced runs share the traced code path.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    lane: u32,
    next: u64,
    open: Vec<u64>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool, lane: u32) -> SpanLog {
        SpanLog {
            on,
            lane,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        // Ids are unique across lanes: the lane sits in the high bits.
        let id = (u64::from(self.lane) << 40) | self.next;
        self.next += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = nss_obs::trace::now_ns();
        let out = f(self);
        let end_ns = nss_obs::trace::now_ns();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            lane: self.lane,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Self seconds per layer: each span's duration minus the part covered by
/// its direct children.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry(p).or_default() += s.seconds();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// Share of the root spans' wall time that no layer of the program
/// accounts for: `1 − Σ self(layer ≠ bench) ÷ Σ root wall`.
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::seconds)
        .sum();
    if wall <= 0.0 {
        return 0.0;
    }
    let program: f64 = self_seconds(spans)
        .iter()
        .filter(|(layer, _)| **layer != BENCH)
        .map(|(_, s)| s)
        .sum();
    1.0 - program / wall
}

/// Durations in seconds of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Chrome `trace_event` JSON for at most `cap` spans (the earliest), with
/// the number left out.
pub fn chrome_json(spans: &[Span], cap: usize) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.lane));
    let kept = sorted.len().min(cap);
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, s) in sorted[..kept].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            s.name,
            s.layer,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    let _ = write!(out, "\n], \"dropped\": {}}}\n", sorted.len() - kept);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            lane: 0,
            layer,
            name: layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, BENCH, 0, 1_000_000_000),
            span(1, Some(0), "model.topology", 100_000_000, 600_000_000),
            span(2, Some(1), "model.deployment", 100_000_000, 200_000_000),
        ];
        let s = self_seconds(&spans);
        assert!((s["model.topology"] - 0.4).abs() < 1e-9);
        assert!((s["model.deployment"] - 0.1).abs() < 1e-9);
        assert!((s[BENCH] - 0.5).abs() < 1e-9);
        assert!((unattributed_frac(&spans) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nesting_links_parents_and_disabled_logs_record_nothing() {
        let mut log = SpanLog::new(true, 3);
        let v = log.span(BENCH, "outer", |log| log.span("serve", "inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(log.spans.len(), 2);
        let inner = &log.spans[0];
        let outer = &log.spans[1];
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.id >> 40, 3);
        let mut off = SpanLog::new(false, 0);
        assert_eq!(off.span(BENCH, "x", |_| 1), 1);
        assert!(off.spans.is_empty());
        let json = chrome_json(&log.spans, 1);
        assert!(json.contains("\"dropped\": 1"));
        nss_obs::jsonval::Json::parse(&json).expect("valid trace JSON");
    }
}
