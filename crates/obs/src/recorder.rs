//! Pluggable event sinks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::event::Event;

/// An event sink. Methods take `&self` (sinks use interior mutability)
/// so one recorder can be shared by every layer of the stack through a
/// single cheaply-cloned handle.
pub trait Recorder {
    /// Accepts one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Discards everything. The default sink; its `record` is never reached
/// when observability is off, so it costs a single branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    buf: RefCell<VecDeque<Event>>,
    seen: RefCell<u64>,
}

impl RingRecorder {
    /// An empty ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            buf: RefCell::new(VecDeque::with_capacity(capacity.min(1024))),
            seen: RefCell::new(0),
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        *self.seen.borrow()
    }

    /// Writes the retained tail as JSONL (oldest first) — the
    /// flight-recorder dump used for post-mortem debugging when an
    /// experiment's hard assert fails.
    pub fn dump_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let mut line = String::with_capacity(256);
        for event in self.buf.borrow().iter() {
            line.clear();
            event.write_json(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
        *self.seen.borrow_mut() += 1;
    }
}

/// Fans every event out to two sinks — typically a [`JsonlRecorder`]
/// for the full trace plus a [`RingRecorder`] kept as a flight recorder
/// for post-mortem dumps.
pub struct TeeRecorder {
    a: Rc<dyn Recorder>,
    b: Rc<dyn Recorder>,
}

impl std::fmt::Debug for TeeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeRecorder").finish_non_exhaustive()
    }
}

impl TeeRecorder {
    /// A sink forwarding every event to both `a` and `b`.
    pub fn new(a: Rc<dyn Recorder>, b: Rc<dyn Recorder>) -> Self {
        TeeRecorder { a, b }
    }
}

impl Recorder for TeeRecorder {
    fn record(&self, event: &Event) {
        self.a.record(event);
        self.b.record(event);
    }

    fn flush(&self) {
        self.a.flush();
        self.b.flush();
    }
}

/// Serializes each event as one JSON line.
///
/// The writer is kept in an `Option` purely so
/// [`into_inner`](JsonlRecorder::into_inner) can move it out past the
/// flush-on-drop guard; it is `Some` for the recorder's whole working life.
pub struct JsonlRecorder<W: Write> {
    out: RefCell<Option<W>>,
    line: RefCell<String>,
}

impl JsonlRecorder<BufWriter<File>> {
    /// Creates (truncating) `path` and writes events to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlRecorder<W> {
    /// Writes events to an arbitrary sink.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out: RefCell::new(Some(out)),
            line: RefCell::new(String::with_capacity(256)),
        }
    }

    /// Consumes the recorder, flushing and returning the inner writer.
    pub fn into_inner(self) -> W {
        let mut out = self.out.borrow_mut().take().expect("writer present");
        let _ = out.flush();
        out
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&self, event: &Event) {
        let mut line = self.line.borrow_mut();
        line.clear();
        event.write_json(&mut line);
        line.push('\n');
        // Trace output is best-effort; a full disk should not take the
        // simulation down with it.
        if let Some(out) = self.out.borrow_mut().as_mut() {
            let _ = out.write_all(line.as_bytes());
        }
    }

    fn flush(&self) {
        if let Some(out) = self.out.borrow_mut().as_mut() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.borrow_mut().as_mut() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Role};

    fn event(time: u64) -> Event {
        Event {
            time,
            node: 1,
            role: Role::Collector,
            round: 0,
            kind: EventKind::TimerFired { timer: time },
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let ring = RingRecorder::new(3);
        for t in 0..5 {
            ring.record(&event(t));
        }
        let times: Vec<u64> = ring.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
    }

    #[test]
    fn tee_feeds_both_sinks_and_ring_dumps_jsonl() {
        let ring = Rc::new(RingRecorder::new(2));
        let jsonl = Rc::new(JsonlRecorder::new(Vec::new()));
        let tee = TeeRecorder::new(ring.clone(), jsonl.clone());
        for t in 0..3 {
            tee.record(&event(t));
        }
        tee.flush();
        assert_eq!(ring.len(), 2, "ring keeps the tail");
        assert_eq!(ring.total_recorded(), 3);
        let mut dump = Vec::new();
        ring.dump_jsonl(&mut dump).unwrap();
        let text = String::from_utf8(dump).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(
            text.starts_with("{\"t\":1,"),
            "oldest retained first: {text}"
        );
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let rec = JsonlRecorder::new(Vec::new());
        rec.record(&event(1));
        rec.record(&event(2));
        let bytes = rec.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\"timer.fired\""), "{line}");
        }
    }
}
