//! JSON-lines event stream sink.
//!
//! Each event is one JSON object per line. The schema (also documented in
//! ARCHITECTURE.md §Observability):
//!
//! ```text
//! {"ev":"meta","version":1}
//! {"ev":"span_open","id":3,"parent":2,"name":"simulate","label":"g721","t_ns":123,"tid":1}
//! {"ev":"span_close","id":3,"t_ns":456,"tid":1}
//! {"ev":"counter","name":"sweep_memo_hit","delta":4,"t_ns":789,"tid":1}
//! {"ev":"progress","done":3,"total":8,"detail":"2.1 points/s","t_ns":791,"tid":1}
//! ```
//!
//! `spmlab_bench::jsonl::check_stream` validates a recorded stream
//! (`experiments check-profile`).

use crate::{Sink, SpanMeta};
use std::io::Write;
use std::sync::Mutex;

/// Streams events as JSON lines to any [`Write`] (a file, stderr, a
/// `Vec<u8>` in tests). Buffers internally; flushes on drop.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `out` and writes the stream-meta header line.
    pub fn new(mut out: W) -> Self {
        let _ = writeln!(out, "{{\"ev\":\"meta\",\"version\":1}}");
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    fn write_line(&self, line: String) {
        let mut out = self.out.lock().expect("jsonl writer");
        let _ = writeln!(out, "{line}");
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn span_open(&self, span: &SpanMeta) {
        let parent = span.parent.map_or(String::from("null"), |p| p.to_string());
        self.write_line(format!(
            "{{\"ev\":\"span_open\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"t_ns\":{},\"tid\":{}}}",
            span.id,
            parent,
            escape(span.name),
            escape(&span.label),
            span.open_ns,
            span.tid
        ));
    }

    fn span_close(&self, span: &SpanMeta, close_ns: u64) {
        self.write_line(format!(
            "{{\"ev\":\"span_close\",\"id\":{},\"t_ns\":{},\"tid\":{}}}",
            span.id, close_ns, span.tid
        ));
    }

    fn counter(&self, name: &'static str, delta: u64, t_ns: u64, tid: u64) {
        self.write_line(format!(
            "{{\"ev\":\"counter\",\"name\":\"{}\",\"delta\":{},\"t_ns\":{},\"tid\":{}}}",
            escape(name),
            delta,
            t_ns,
            tid
        ));
    }

    fn progress(&self, done: u64, total: u64, detail: &str, t_ns: u64, tid: u64) {
        self.write_line(format!(
            "{{\"ev\":\"progress\",\"done\":{},\"total\":{},\"detail\":\"{}\",\"t_ns\":{},\"tid\":{}}}",
            done,
            total,
            escape(detail),
            t_ns,
            tid
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
