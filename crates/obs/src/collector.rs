//! In-memory event collector: records the span tree and aggregates
//! counters so callers can query per-phase timings programmatically
//! (the `--profile` breakdown table is rendered from a [`MemorySink`]).

use crate::{Sink, SpanMeta};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One finished (or still-open) span as recorded by the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id.
    pub id: u64,
    /// Parent span id, if nested.
    pub parent: Option<u64>,
    /// Static span name.
    pub name: &'static str,
    /// Instance label (may be empty).
    pub label: String,
    /// Open timestamp (ns since process epoch).
    pub open_ns: u64,
    /// Close timestamp; `None` while the span is still open.
    pub close_ns: Option<u64>,
    /// Opening thread.
    pub tid: u64,
}

impl SpanRecord {
    /// Inclusive duration (close − open); 0 while open.
    pub fn inclusive_ns(&self) -> u64 {
        self.close_ns.map_or(0, |c| c.saturating_sub(self.open_ns))
    }
}

/// One row of the flat profile: exclusive (self) time per span name.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Total inclusive time across those spans.
    pub inclusive_ns: u64,
    /// Total *self* time: inclusive minus time attributed to child spans.
    pub self_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    index: BTreeMap<u64, usize>,
    counters: BTreeMap<&'static str, u64>,
}

/// Thread-safe in-memory sink. Install with [`crate::add_sink`], then read
/// back spans, counter totals, and the flat profile after the guard drops.
#[derive(Default)]
pub struct MemorySink {
    inner: Mutex<Inner>,
}

impl Sink for MemorySink {
    fn span_open(&self, span: &SpanMeta) {
        let mut inner = self.inner.lock().expect("collector");
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            label: span.label.clone(),
            open_ns: span.open_ns,
            close_ns: None,
            tid: span.tid,
        });
        inner.index.insert(span.id, idx);
    }

    fn span_close(&self, span: &SpanMeta, close_ns: u64) {
        let mut inner = self.inner.lock().expect("collector");
        if let Some(&idx) = inner.index.get(&span.id) {
            inner.spans[idx].close_ns = Some(close_ns);
        }
    }

    fn counter(&self, name: &'static str, delta: u64, _t_ns: u64, _tid: u64) {
        let mut inner = self.inner.lock().expect("collector");
        *inner.counters.entry(name).or_insert(0) += delta;
    }

    fn progress(&self, _: u64, _: u64, _: &str, _: u64, _: u64) {}
}

impl MemorySink {
    /// All recorded spans, in open order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("collector").spans.clone()
    }

    /// Aggregated total for counter `name` (0 if never incremented).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("collector")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counter totals, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .lock()
            .expect("collector")
            .counters
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// Checks the recorded spans form a well-formed forest:
    /// every parent id refers to a recorded span, every span is closed,
    /// `close ≥ open`, and every span's interval nests inside its
    /// parent's. Returns the first violation as an error string.
    pub fn validate(&self) -> Result<(), String> {
        let inner = self.inner.lock().expect("collector");
        for s in &inner.spans {
            let close = s
                .close_ns
                .ok_or_else(|| format!("span {} ({}) never closed", s.id, s.name))?;
            if close < s.open_ns {
                return Err(format!("span {} ({}) closes before it opens", s.id, s.name));
            }
            if let Some(pid) = s.parent {
                let &pidx = inner
                    .index
                    .get(&pid)
                    .ok_or_else(|| format!("span {} has unknown parent {}", s.id, pid))?;
                let p = &inner.spans[pidx];
                if p.tid != s.tid {
                    return Err(format!("span {} nests across threads", s.id));
                }
                let pclose = p
                    .close_ns
                    .ok_or_else(|| format!("parent {} of span {} never closed", pid, s.id))?;
                if s.open_ns < p.open_ns || close > pclose {
                    return Err(format!(
                        "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                        s.id, s.name, s.open_ns, close, pid, p.name, p.open_ns, pclose
                    ));
                }
            }
        }
        Ok(())
    }

    /// Flat profile: per span *name*, the count, total inclusive time, and
    /// total **self** time (inclusive minus direct children's inclusive).
    /// On a single thread self times telescope: they sum exactly to the
    /// root spans' total inclusive time, which is what makes the
    /// `--profile` breakdown account for (nearly) all of wall time.
    pub fn flat_profile(&self) -> Vec<ProfileRow> {
        let inner = self.inner.lock().expect("collector");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &inner.spans {
            if let Some(pid) = s.parent {
                *child_ns.entry(pid).or_insert(0) += s.inclusive_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
        for s in &inner.spans {
            let incl = s.inclusive_ns();
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let row = rows.entry(s.name).or_insert(ProfileRow {
                name: s.name,
                count: 0,
                inclusive_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.inclusive_ns += incl;
            row.self_ns += incl.saturating_sub(children);
        }
        let mut rows: Vec<ProfileRow> = rows.into_values().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        rows
    }

    /// Total inclusive time of all *root* spans (the wall time the
    /// profile accounts for).
    pub fn root_ns(&self) -> u64 {
        self.inner
            .lock()
            .expect("collector")
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.inclusive_ns())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn flat_profile_self_times_telescope() {
        let _x = crate::exclusive();
        let sink = Arc::new(MemorySink::default());
        let guard = crate::add_sink(sink.clone());
        {
            let _root = crate::span("root");
            for _ in 0..3 {
                let _mid = crate::span("mid");
                let _leaf = crate::span("leaf");
                std::hint::black_box(0u64);
            }
        }
        drop(guard);
        assert!(sink.validate().is_ok());
        let rows = sink.flat_profile();
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(
            total_self,
            sink.root_ns(),
            "self times must sum exactly to root inclusive time"
        );
        let leaf = rows.iter().find(|r| r.name == "leaf").unwrap();
        assert_eq!(leaf.count, 3);
        assert_eq!(leaf.self_ns, leaf.inclusive_ns, "leaves have no children");
    }
}
