//! In-memory span recorder for the traced run.
//!
//! One span per call from the benchmark into a layer: name, start, end,
//! the span that caused it, the slice or tick it belongs to, and how many
//! events the call handled. Spans are recorded by the benchmark's own
//! files around its calls into the repository's code; nothing inside the
//! program is instrumented. They stay in memory and are written as JSON
//! lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span that has no parent.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Slice (serial chain) or tick (TCP pipeline) number.
    pub unit: u32,
    pub events: u32,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; a disabled one
    /// drops every span, so call sites need no second code path.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder { epoch, enabled, spans: Vec::new() }
    }

    /// Switches recording on or off (the traced serial chain alternates
    /// so one run measures its own tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records one finished span and returns its index, for use as a
    /// later span's `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        unit: u32,
        events: u32,
    ) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, unit, events });
        (self.spans.len() - 1) as u32
    }

    /// Reserves a slot for a span that is still open, so children
    /// recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32, unit: u32) -> u32 {
        self.record(name, start, start, parent, unit, 0)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: u32, end: Instant, events: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            span.events = events;
        }
    }

    pub fn append(&mut self, mut other: Recorder) {
        let base = self.spans.len() as u32;
        for span in &mut other.spans {
            if span.parent != NO_PARENT {
                span.parent += base;
            }
        }
        self.spans.append(&mut other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{},\"events\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit, s.events
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_name_their_open_parent_and_appending_keeps_the_links() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut first = Recorder::new(epoch, true);
        first.record("gen.apply", at(0), at(5), NO_PARENT, 6, 50);
        let mut rec = Recorder::new(epoch, true);
        let parent = rec.open("consumer.next", at(0), NO_PARENT, 7);
        rec.record("store.query", at(10), at(40), parent, 7, 1024);
        rec.close(parent, at(100), 1024);
        first.append(rec);
        let spans = &first.spans;
        assert_eq!(
            (spans[1].name, spans[1].end_ns, spans[1].events),
            ("consumer.next", 100_000, 1024)
        );
        assert_eq!((spans[2].name, spans[2].parent), ("store.query", 1));
        assert_eq!(spans[0].parent, NO_PARENT);
    }

    #[test]
    fn disabled_recorder_drops_spans() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, false);
        assert_eq!(rec.record("x", epoch, epoch, NO_PARENT, 0, 0), NO_PARENT);
        assert_eq!(rec.len(), 0);
    }
}
