//! Validator for recorded `experiments --profile` event streams — the
//! check behind `experiments check-profile` and the CI sanity gate.
//!
//! The stream is the one [`spmlab_obs::jsonl::JsonlSink`] writes: one JSON
//! object per line, schema in ARCHITECTURE.md §Observability. Each line is
//! read with the workspace's one JSON reader,
//! [`spmlab_isa::archspec::json::parse`].

use spmlab_isa::archspec::json::{self, Value};
use std::collections::BTreeMap;

/// Summary of a validated event stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total non-empty lines.
    pub lines: usize,
    /// `span_open` events.
    pub span_opens: usize,
    /// `span_close` events.
    pub span_closes: usize,
    /// `counter` events.
    pub counters: usize,
    /// `progress` events.
    pub progress: usize,
}

/// Validates a JSON-lines event stream: every line is a JSON object with
/// an `ev` tag, span open/close events balance (every close matches a
/// prior open, every open is eventually closed), per-thread timestamps
/// are monotonically non-decreasing, and each span closes at or after it
/// opens. Returns a [`StreamSummary`] or the first violation.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn check_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut open_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_t: BTreeMap<u64, u64> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let n = no + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        summary.lines += 1;
        let event = json::parse(line)
            .ok()
            .filter(|v| matches!(v, Value::Obj(_)))
            .ok_or_else(|| format!("line {n}: not a JSON object: {line}"))?;
        let num = |key: &str| event.get(key).and_then(Value::as_u64);
        let ev = event
            .get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {n}: missing \"ev\" tag"))?;
        if ev == "meta" {
            continue;
        }
        let t = num("t_ns").ok_or_else(|| format!("line {n}: missing t_ns"))?;
        let tid = num("tid").ok_or_else(|| format!("line {n}: missing tid"))?;
        let prev = last_t.entry(tid).or_insert(0);
        if t < *prev {
            return Err(format!(
                "line {n}: timestamp {t} goes backwards on tid {tid} (prev {prev})"
            ));
        }
        *prev = t;
        match ev {
            "span_open" => {
                summary.span_opens += 1;
                let id = num("id").ok_or_else(|| format!("line {n}: span_open without id"))?;
                if open_at.insert(id, t).is_some() {
                    return Err(format!("line {n}: span {id} opened twice"));
                }
            }
            "span_close" => {
                summary.span_closes += 1;
                let id = num("id").ok_or_else(|| format!("line {n}: span_close without id"))?;
                let opened = open_at
                    .remove(&id)
                    .ok_or_else(|| format!("line {n}: close of span {id} without open"))?;
                if t < opened {
                    return Err(format!(
                        "line {n}: span {id} closes at {t} before it opened at {opened}"
                    ));
                }
            }
            "counter" => summary.counters += 1,
            "progress" => summary.progress += 1,
            other => return Err(format!("line {n}: unknown event kind \"{other}\"")),
        }
    }
    if let Some((&id, _)) = open_at.iter().next() {
        return Err(format!(
            "{} span(s) never closed (first: id {id})",
            open_at.len()
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmlab_obs::jsonl::JsonlSink;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// Shared byte buffer a JsonlSink can write into while the test still
    /// holds a handle to read it back.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

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
    fn stream_round_trips_through_checker() {
        let _x = spmlab_obs::exclusive();
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(buf.clone()));
        let guard = spmlab_obs::add_sink(sink);
        {
            let _root = spmlab_obs::span_with("experiment", || "hierarchy \"quoted\"".to_string());
            {
                let _sim = spmlab_obs::span("simulate");
                spmlab_obs::counter("sim_instructions", 42);
            }
            spmlab_obs::progress(1, 8, "1.0 points/s");
        }
        drop(guard);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let summary = check_stream(&text).expect("stream must validate");
        assert_eq!(summary.span_opens, 2);
        assert_eq!(summary.span_closes, 2);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.progress, 1);
    }

    #[test]
    fn checker_rejects_malformed_streams() {
        assert!(check_stream("not json").is_err());
        assert!(
            check_stream("{\"ev\":\"gauge\",\"name\":\"g\",\"value\":8,\"t_ns\":5,\"tid\":1}")
                .is_err(),
            "an unknown event kind must fail"
        );
        assert!(check_stream("{\"ev\":\"span_close\",\"id\":1,\"t_ns\":5,\"tid\":1}").is_err());
        assert!(
            check_stream("{\"ev\":\"span_open\",\"id\":1,\"t_ns\":5,\"tid\":1}").is_err(),
            "unclosed span must fail"
        );
        let backwards = "{\"ev\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":10,\"tid\":1}\n\
                         {\"ev\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":5,\"tid\":1}";
        assert!(
            check_stream(backwards).is_err(),
            "time must not go backwards"
        );
        let cross_thread =
            "{\"ev\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":10,\"tid\":1}\n\
                            {\"ev\":\"counter\",\"name\":\"c\",\"delta\":1,\"t_ns\":5,\"tid\":2}";
        assert!(
            check_stream(cross_thread).is_ok(),
            "monotonicity is per-thread"
        );
    }
}
