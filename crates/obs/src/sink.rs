//! The JSONL event sink and the tiny JSON writer it uses.
//!
//! Events are one JSON object per line, written through a mutex-guarded
//! `Write`. Every event carries a `"t"` tag (`span`, `counters`, `hist`)
//! and times are microseconds since the recorder was created, so a trace
//! is self-contained without wall-clock parsing.
//!
//! Each event is assembled into one buffer (line plus terminator), handed
//! to the writer in a single call, and flushed immediately — a crashed or
//! killed run leaves complete lines behind, never a torn half-line.
//! Write errors never fail the traced computation, but they are not
//! silent either: they are counted, and the recorder reports the tally.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A line-oriented JSON event writer.
pub(crate) struct TraceSink {
    writer: Mutex<Box<dyn Write + Send>>,
    errors: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

impl TraceSink {
    pub fn new(writer: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            writer: Mutex::new(writer),
            errors: AtomicU64::new(0),
        }
    }

    /// Writes one pre-serialized JSON object as a complete line — one
    /// buffered write, flushed before the lock is released, so no event
    /// can be torn by a crash mid-run. I/O errors are counted (see
    /// [`TraceSink::write_errors`]) rather than failing the computation.
    pub fn write_line(&self, json: &str) {
        debug_assert!(json.starts_with('{') && json.ends_with('}'));
        let mut line = Vec::with_capacity(json.len() + 1);
        line.extend_from_slice(json.as_bytes());
        line.push(b'\n');
        if let Ok(mut w) = self.writer.lock() {
            if w.write_all(&line).and_then(|()| w.flush()).is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// How many events failed to write.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    pub fn flush(&self) {
        if let Ok(mut w) = self.writer.lock() {
            if w.flush().is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Escapes a string as a JSON string literal — the workspace's one
/// escaper, shared by traces, run manifests, and the serve wire
/// protocol (re-exported as `remedy_pipeline::json::json_str`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` that appends into a shared buffer (for tests).
    #[derive(Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn lines_are_newline_terminated() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(Box::new(buf.clone()));
        sink.write_line("{\"t\":\"span\"}");
        sink.write_line("{\"t\":\"counters\"}");
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"t\":\"span\"}\n{\"t\":\"counters\"}\n");
    }

    /// A `Write` that fails every call (a full disk, a closed pipe).
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
        }
    }

    /// Write failures must be counted — not surfaced (tracing never fails
    /// the traced computation), but not silently dropped either.
    #[test]
    fn write_errors_are_counted_not_fatal() {
        let sink = TraceSink::new(Box::new(BrokenPipe));
        assert_eq!(sink.write_errors(), 0);
        sink.write_line("{\"t\":\"span\"}");
        sink.write_line("{\"t\":\"counters\"}");
        assert_eq!(sink.write_errors(), 2);
    }

    /// Every event reaches the writer as a single call (line + newline),
    /// so a kill between syscalls cannot leave a torn half-line.
    #[test]
    fn each_event_is_one_write() {
        struct CountingWriter(Arc<Mutex<Vec<usize>>>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let calls = Arc::new(Mutex::new(Vec::new()));
        let sink = TraceSink::new(Box::new(CountingWriter(calls.clone())));
        sink.write_line("{\"t\":\"span\"}");
        let calls = calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "event split across write calls");
        assert_eq!(calls[0], "{\"t\":\"span\"}\n".len());
    }

    #[test]
    fn escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
