//! Spans recorded by the generator around the calls it makes into the
//! system under test. Kept in memory, written once at exit.
//!
//! Every request owns eight consecutive span ids: `request * 8` is its
//! root span (send → completion, parent none) and `request * 8 + j`
//! are the calls made for it, so ids are unique without a shared
//! counter and every span of a request carries the same `request`.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process — the clock every
/// span and sample is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// `None` for a request's root span.
    pub parent: Option<u64>,
    pub request: u64,
}

/// One generator thread's span buffer. Only requests whose id falls
/// in `requests` are recorded, so a hot workload cannot grow the trace
/// without bound and every recorded request is recorded whole — by
/// whichever threads handle it. Requests outside the range are still
/// counted by the generator.
#[derive(Debug)]
pub struct SpanSink {
    spans: Vec<Span>,
    requests: std::ops::Range<u64>,
}

impl SpanSink {
    /// A sink recording the requests with ids in `requests`; an empty
    /// range records nothing (the untraced run).
    pub fn new(requests: std::ops::Range<u64>) -> Self {
        SpanSink {
            spans: Vec::new(),
            requests,
        }
    }

    pub fn records(&self, request: u64) -> bool {
        self.requests.contains(&request)
    }

    /// The root span of `request`.
    pub fn root(&mut self, request: u64, start_ns: u64, end_ns: u64) {
        if self.records(request) {
            self.spans.push(Span {
                name: "request",
                start_ns,
                end_ns,
                id: request * 8,
                parent: None,
                request,
            });
        }
    }

    /// Child span `slot` (1..=7) of `request`.
    pub fn child(
        &mut self,
        request: u64,
        slot: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        debug_assert!((1..8).contains(&slot));
        if self.records(request) {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id: request * 8 + slot,
                parent: Some(request * 8),
                request,
            });
        }
    }

    /// Runs `f` as child span `slot` of `request`; untimed when the
    /// request is not recorded.
    pub fn call<R>(
        &mut self,
        request: u64,
        slot: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.records(request) {
            return f();
        }
        let start = now_ns();
        let out = f();
        self.child(request, slot, name, start, now_ns());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes `spans` as one JSON array, sorted by start time so the file
/// repeats for the same recorded spans.
pub fn write_json(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"id\": {}, \"parent\": {}, \"request\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.id, parent, s.request
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_request_root() {
        let mut sink = SpanSink::new(0..16);
        let v = sink.call(5, 1, "call", || 7);
        assert_eq!(v, 7);
        sink.root(5, 0, 10);
        let spans = sink.into_spans();
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].request, spans[1].request);
        assert_eq!(spans[1].parent, None);
    }

    #[test]
    fn requests_outside_the_range_are_not_recorded() {
        let mut off = SpanSink::new(0..0);
        off.root(1, 0, 1);
        assert_eq!(off.call(1, 1, "call", || 3), 3);
        assert!(off.into_spans().is_empty());
        let mut one = SpanSink::new(1..2);
        one.root(1, 0, 1);
        one.root(2, 0, 1);
        assert_eq!(one.into_spans().len(), 1);
    }
}
