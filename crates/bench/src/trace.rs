//! Cross-process trace assembly: scrape each role's `/tracez` endpoint
//! (or read a `--trace-out` dump file), merge the span buffers, and
//! stitch them back into whole distributed traces.
//!
//! The tracer in `sdci-obs` is deliberately process-local — each role
//! keeps its own span ring and serves it as JSON. This collector is the
//! other half: tests and the CI smoke pull every process's buffer into
//! one [`TraceCollector`], then assert over complete traces (span
//! counts, parent/child link integrity, which processes took part).

use serde::Deserialize;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::Duration;

/// One span as decoded from a `/tracez` document, with the hex ids
/// parsed back to the tracer's native `u64`s and the owning process
/// name attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The `process` name from the document this span came from.
    pub process: String,
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// Parent span id; `0` marks a trace root.
    pub parent_span_id: u64,
    /// Static span name (e.g. `collector.extract`).
    pub name: String,
    /// Free-form detail set by the instrumented site.
    pub detail: String,
    /// Wall-clock start stamp.
    pub start_unix_ns: u64,
    /// Span duration.
    pub duration_ns: u64,
}

#[derive(Deserialize)]
struct SpanJson {
    trace_id: String,
    span_id: String,
    parent_span_id: String,
    name: String,
    detail: String,
    start_unix_ns: u64,
    duration_ns: u64,
}

#[derive(Deserialize)]
struct TracezDoc {
    process: String,
    #[allow(dead_code)]
    sample_every: u64,
    spans: Vec<SpanJson>,
    slow: Vec<SpanJson>,
}

fn parse_id(raw: &str, field: &str) -> Result<u64, String> {
    u64::from_str_radix(raw, 16).map_err(|e| format!("{field} {raw:?} is not 16-digit hex: {e}"))
}

impl SpanJson {
    fn into_rec(self, process: &str) -> Result<SpanRec, String> {
        Ok(SpanRec {
            process: process.to_string(),
            trace_id: parse_id(&self.trace_id, "trace_id")?,
            span_id: parse_id(&self.span_id, "span_id")?,
            parent_span_id: parse_id(&self.parent_span_id, "parent_span_id")?,
            name: self.name,
            detail: self.detail,
            start_unix_ns: self.start_unix_ns,
            duration_ns: self.duration_ns,
        })
    }
}

/// Accumulates spans from any number of `/tracez` documents and
/// answers whole-trace questions over the merged set.
#[derive(Debug, Default)]
pub struct TraceCollector {
    spans: Vec<SpanRec>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Merges one `/tracez` JSON document; returns how many *new*
    /// spans it contributed. The slow buffer repeats root spans that
    /// are usually still in the ring, so spans are deduplicated by
    /// `(trace_id, span_id)`.
    pub fn ingest_json(&mut self, body: &str) -> Result<usize, String> {
        let doc: TracezDoc =
            serde_json::from_str(body).map_err(|e| format!("parse /tracez document: {e}"))?;
        let mut added = 0;
        for span in doc.spans.into_iter().chain(doc.slow) {
            let rec = span.into_rec(&doc.process)?;
            let dup =
                self.spans.iter().any(|s| s.trace_id == rec.trace_id && s.span_id == rec.span_id);
            if !dup {
                self.spans.push(rec);
                added += 1;
            }
        }
        Ok(added)
    }

    /// Reads a `--trace-out` dump file (the same JSON document).
    pub fn ingest_file(&mut self, path: &std::path::Path) -> Result<usize, String> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("read trace dump {}: {e}", path.display()))?;
        self.ingest_json(&body)
    }

    /// Fetches `GET /tracez` from a live exposition server.
    pub fn scrape(&mut self, addr: SocketAddr) -> Result<usize, String> {
        let body = http_get(addr, "/tracez")?;
        self.ingest_json(&body)
    }

    /// Merges the calling process's own buffers (the test process is a
    /// participant too whenever it issues traced queries).
    pub fn ingest_current_process(&mut self) -> Result<usize, String> {
        self.ingest_json(&sdci_obs::trace::render_tracez())
    }

    /// Every span collected so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// The distinct trace ids seen, in ascending order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// All spans of one trace, parents-before-children where links
    /// allow (topological by parent distance, ties by start stamp).
    pub fn trace(&self, trace_id: u64) -> Vec<&SpanRec> {
        let mut spans: Vec<&SpanRec> =
            self.spans.iter().filter(|s| s.trace_id == trace_id).collect();
        spans.sort_by_key(|s| (self.depth_of(s), s.start_unix_ns, s.span_id));
        spans
    }

    fn depth_of(&self, span: &SpanRec) -> usize {
        let mut depth = 0;
        let mut parent = span.parent_span_id;
        while parent != 0 && depth < self.spans.len() {
            depth += 1;
            match self.spans.iter().find(|s| s.trace_id == span.trace_id && s.span_id == parent) {
                Some(p) => parent = p.parent_span_id,
                None => break,
            }
        }
        depth
    }

    /// Spans of `trace_id` whose parent is missing from the collected
    /// set (excluding roots, whose parent id is 0). An empty answer
    /// means every parent/child link survived its process boundaries.
    pub fn broken_links(&self, trace_id: u64) -> Vec<&SpanRec> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.parent_span_id != 0)
            .filter(|s| {
                !self.spans.iter().any(|p| p.trace_id == trace_id && p.span_id == s.parent_span_id)
            })
            .collect()
    }

    /// The distinct processes that contributed spans to `trace_id`.
    pub fn processes(&self, trace_id: u64) -> BTreeSet<String> {
        self.spans.iter().filter(|s| s.trace_id == trace_id).map(|s| s.process.clone()).collect()
    }

    /// Re-renders one trace as a JSON array of span objects — the CI
    /// smoke's artifact format.
    pub fn render_trace(&self, trace_id: u64) -> String {
        let mut out = String::from("[");
        for (i, s) in self.trace(trace_id).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"process\":{:?},\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\
                 \"parent_span_id\":\"{:016x}\",\"name\":{:?},\"detail\":{:?},\
                 \"start_unix_ns\":{},\"duration_ns\":{}}}",
                s.process,
                s.trace_id,
                s.span_id,
                s.parent_span_id,
                s.name,
                s.detail,
                s.start_unix_ns,
                s.duration_ns
            ));
        }
        out.push(']');
        out
    }
}

/// A blocking one-shot HTTP/1.1 GET against an exposition server,
/// returning the response body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: sdci\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send request to {addr}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read response from {addr}: {e}"))?;
    if !response.starts_with("HTTP/1.1 200") {
        let status = response.lines().next().unwrap_or("").to_string();
        return Err(format!("GET {path} on {addr} answered {status:?}"));
    }
    let body_at =
        response.find("\r\n\r\n").ok_or_else(|| format!("malformed response from {addr}"))? + 4;
    Ok(response[body_at..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(process: &str, spans: &[(u64, u64, u64, &str)]) -> String {
        let body: Vec<String> = spans
            .iter()
            .map(|(t, s, p, name)| {
                format!(
                    "{{\"trace_id\":\"{t:016x}\",\"span_id\":\"{s:016x}\",\
                     \"parent_span_id\":\"{p:016x}\",\"name\":\"{name}\",\"detail\":\"\",\
                     \"start_unix_ns\":1,\"duration_ns\":2}}"
                )
            })
            .collect();
        format!(
            "{{\"process\":\"{process}\",\"sample_every\":1,\"spans\":[{}],\"slow\":[]}}",
            body.join(",")
        )
    }

    #[test]
    fn merges_documents_and_stitches_one_trace() {
        let mut tc = TraceCollector::new();
        tc.ingest_json(&doc("collector", &[(7, 1, 0, "collector.extract")])).unwrap();
        tc.ingest_json(&doc("aggregator", &[(7, 2, 1, "aggregator.ingest")])).unwrap();
        tc.ingest_json(&doc("aggregator", &[(7, 3, 2, "store.seg.insert")])).unwrap();
        tc.ingest_json(&doc("other", &[(9, 9, 0, "collector.publish")])).unwrap();

        assert_eq!(tc.trace_ids(), vec![7, 9]);
        let trace = tc.trace(7);
        assert_eq!(
            trace.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["collector.extract", "aggregator.ingest", "store.seg.insert"],
            "parents must sort before children"
        );
        assert!(tc.broken_links(7).is_empty());
        assert_eq!(
            tc.processes(7).into_iter().collect::<Vec<_>>(),
            ["aggregator".to_string(), "collector".to_string()]
        );
    }

    #[test]
    fn duplicate_spans_from_ring_and_slow_buffer_collapse() {
        let mut tc = TraceCollector::new();
        let with_slow = format!(
            "{{\"process\":\"p\",\"sample_every\":1,\"spans\":[{span}],\"slow\":[{span}]}}",
            span = "{\"trace_id\":\"0000000000000007\",\"span_id\":\"0000000000000001\",\
                    \"parent_span_id\":\"0000000000000000\",\"name\":\"r\",\"detail\":\"\",\
                    \"start_unix_ns\":1,\"duration_ns\":2}"
        );
        assert_eq!(tc.ingest_json(&with_slow).unwrap(), 1);
        assert_eq!(tc.ingest_json(&with_slow).unwrap(), 0, "re-ingest adds nothing");
        assert_eq!(tc.spans().len(), 1);
    }

    #[test]
    fn missing_parents_are_reported_as_broken_links() {
        let mut tc = TraceCollector::new();
        tc.ingest_json(&doc("p", &[(7, 2, 1, "orphan.child")])).unwrap();
        let broken = tc.broken_links(7);
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].name, "orphan.child");
    }

    #[test]
    fn bad_hex_ids_are_rejected() {
        let mut tc = TraceCollector::new();
        let bad = "{\"process\":\"p\",\"sample_every\":1,\"spans\":[{\"trace_id\":\"zzzz\",\
                   \"span_id\":\"1\",\"parent_span_id\":\"0\",\"name\":\"x\",\"detail\":\"\",\
                   \"start_unix_ns\":1,\"duration_ns\":2}],\"slow\":[]}";
        assert!(tc.ingest_json(bad).is_err());
    }

    #[test]
    fn render_trace_is_parseable_json() {
        let mut tc = TraceCollector::new();
        tc.ingest_json(&doc("p", &[(7, 1, 0, "root"), (7, 2, 1, "child")])).unwrap();
        let rendered = tc.render_trace(7);
        let parsed: Vec<SpanJson> = serde_json::from_str(&rendered).expect("round-trips");
        assert_eq!(parsed.len(), 2);
    }
}
