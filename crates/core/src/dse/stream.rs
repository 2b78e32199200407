//! Shard-stream merging: reassembling one grid run from `n` checkpoint
//! streams.
//!
//! Every shard of a grid writes an ordinary PR 7 checkpoint file whose
//! header carries the **full** grid's axis hash, its own (shard-local)
//! point count, and the `k/n` shard designator; its records use local
//! indices `0..m_k`. [`merge_texts`] validates that a set of streams is
//! exactly the `n` shards of one run — same format version, revision,
//! benchmark, and axis hash; distinct designators covering `0..n`; each
//! stream's point count matching its stride of the reassembled total —
//! then rewrites each record to its global index `g = k + i·n` and emits
//! an unsharded stream, sorted by global index.
//!
//! The output is *normal-form*: merging the trivial split (one unsharded
//! stream) re-emits it byte-identically, so "2-shard merge equals the
//! unsharded run" is a plain byte comparison — the differential test
//! `tests/dse.rs` pins.

use crate::checkpoint::{parse_checkpoint_text, spec_hash, CheckpointHeader, PointRecord};
use crate::dse::frontier::Frontier;
use crate::sweep::{PointOutcome, SpecOutcome};
use spmlab_isa::archspec::MemArchSpec;
use std::collections::BTreeMap;

/// One reassembled (or normalised) run: an unsharded header plus the last
/// record per global point index.
#[derive(Debug, Clone)]
pub struct MergedSweep {
    /// The unsharded header (`points` = full grid size).
    pub header: CheckpointHeader,
    /// Last record per covered global index, its index (and a failed
    /// point's) rewritten to the global value.
    pub records: BTreeMap<usize, PointRecord>,
}

impl MergedSweep {
    /// Renders the normal-form stream: header line, then records in
    /// global index order, one per line, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.header.to_json_line();
        out.push('\n');
        for rec in self.records.values() {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Global indices covered by at least one record.
    pub fn covered(&self) -> usize {
        self.records.len()
    }

    /// Covered indices whose last record failed.
    pub fn failed(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.outcome.is_failed())
            .count()
    }

    /// The per-point outcomes of this run as a sweep of `axis` on
    /// `benchmark` would return them, so a figure renders the same from a
    /// stream as from a direct run.
    ///
    /// # Errors
    ///
    /// The stream belongs to another benchmark or axis, a point has no
    /// record, or a record's spec hash does not match its axis point.
    pub fn outcomes(
        &self,
        benchmark: &str,
        axis: &[MemArchSpec],
    ) -> Result<Vec<SpecOutcome>, String> {
        let expected = CheckpointHeader::new(&self.header.rev, benchmark, axis);
        if self.header != expected {
            return Err(format!(
                "stream is for `{}` (axis {}, {} points), not `{benchmark}` (axis {}, {} points)",
                self.header.benchmark,
                self.header.axis_hash,
                self.header.points,
                expected.axis_hash,
                expected.points,
            ));
        }
        axis.iter()
            .enumerate()
            .map(|(i, spec)| {
                let rec = self
                    .records
                    .get(&i)
                    .ok_or_else(|| format!("point {i} has no record; resume the run"))?;
                if rec.spec_hash != spec_hash(&spec.canonical()) {
                    return Err(format!("point {i}: record is for another spec"));
                }
                Ok(SpecOutcome {
                    spec: spec.clone(),
                    outcome: rec.outcome.clone(),
                })
            })
            .collect()
    }

    /// The Pareto frontier over every completed record.
    pub fn frontier(&self) -> Frontier {
        let mut f = Frontier::new();
        for (g, rec) in &self.records {
            f.insert_record(*g, rec);
        }
        f
    }
}

/// Merges the shard streams of one grid run (or normalises a single
/// unsharded stream). Inputs may be given in any order.
///
/// # Errors
///
/// A human-readable description of the first inconsistency: a stream that
/// does not parse, streams from different runs (version/revision/
/// benchmark/axis mismatch), a missing or repeated shard, or a point
/// count that contradicts the stride arithmetic.
pub fn merge_texts(texts: &[&str]) -> Result<MergedSweep, String> {
    if texts.is_empty() {
        return Err(String::from("no input streams"));
    }
    let mut files = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        files.push(parse_checkpoint_text(text).map_err(|e| format!("input {}: {e}", i + 1))?);
    }

    // Trivial split: one unsharded stream normalises to itself.
    if files.len() == 1 && files[0].header.shard.is_none() {
        let file = files.remove(0);
        return Ok(MergedSweep {
            header: file.header,
            records: file.records,
        });
    }

    let first = files[0].header.clone();
    let (_, n) = first
        .shard
        .ok_or_else(|| String::from("input 1: unsharded stream in a multi-stream merge"))?;
    if files.len() != n {
        return Err(format!(
            "shard count mismatch: streams declare a {n}-way split but {} were given",
            files.len()
        ));
    }
    let mut by_shard: BTreeMap<usize, crate::checkpoint::CheckpointFile> = BTreeMap::new();
    let mut total = 0usize;
    for (i, file) in files.into_iter().enumerate() {
        let h = &file.header;
        let (k, nk) = h
            .shard
            .ok_or_else(|| format!("input {}: unsharded stream in a multi-stream merge", i + 1))?;
        if nk != n {
            return Err(format!(
                "input {}: shard {k}/{nk} does not belong to a {n}-way split",
                i + 1
            ));
        }
        if h.version != first.version
            || h.rev != first.rev
            || h.benchmark != first.benchmark
            || h.axis_hash != first.axis_hash
        {
            return Err(format!(
                "input {}: stream belongs to a different run (rev {} benchmark `{}` \
                 axis {} vs rev {} benchmark `{}` axis {})",
                i + 1,
                h.rev,
                h.benchmark,
                h.axis_hash,
                first.rev,
                first.benchmark,
                first.axis_hash,
            ));
        }
        total = total
            .checked_add(h.points)
            .ok_or("total point count overflows usize")?;
        if by_shard.insert(k, file).is_some() {
            return Err(format!("shard {k}/{n} appears twice"));
        }
    }
    // All k in 0..n present (distinct + count checked above, so this is
    // just the range check).
    for k in 0..n {
        if !by_shard.contains_key(&k) {
            return Err(format!("shard {k}/{n} is missing"));
        }
    }
    // Each stream's declared point count must be its stride's share of
    // the reassembled total — a stream from a different cut of the same
    // axis cannot sneak in.
    let mut records = BTreeMap::new();
    for (k, file) in by_shard {
        let shard = crate::dse::executor::Shard { index: k, count: n };
        let expect = shard.points(total);
        if file.header.points != expect {
            return Err(format!(
                "shard {k}/{n}: declares {} points but a {total}-point grid \
                 gives this stride {expect}",
                file.header.points
            ));
        }
        for (local, mut rec) in file.records {
            rec.index = shard.global(local);
            if let PointOutcome::Failed(fp) = &mut rec.outcome {
                fp.index = rec.index;
            }
            records.insert(rec.index, rec);
        }
    }
    Ok(MergedSweep {
        header: CheckpointHeader {
            points: total,
            shard: None,
            ..first
        },
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CHECKPOINT_VERSION;
    use crate::dse::executor::{shard_header, Shard};
    use crate::pipeline::ConfigResult;
    use crate::sweep::FailedPoint;
    use spmlab_wcet::cache::ClassifyStats;

    fn axis(n: usize) -> Vec<MemArchSpec> {
        (0..n).map(|i| MemArchSpec::spm(64 << i)).collect()
    }

    fn rec(local: usize, spec: &MemArchSpec, sim: u64) -> PointRecord {
        PointRecord {
            index: local,
            spec_hash: spec_hash(&spec.canonical()),
            outcome: PointOutcome::Measured(ConfigResult {
                label: spec.label(),
                sim_cycles: sim,
                wcet_cycles: sim * 3,
                checksum: 7,
                energy_nj: sim as f64,
                spm_used: 0,
                spm_objects: Vec::new(),
                classify: ClassifyStats::default(),
                degraded: false,
            }),
        }
    }

    fn stream(header: &CheckpointHeader, recs: &[PointRecord]) -> String {
        let mut s = header.to_json_line();
        s.push('\n');
        for r in recs {
            s.push_str(&r.to_json_line());
            s.push('\n');
        }
        s
    }

    fn sharded_streams(ax: &[MemArchSpec], n: usize) -> Vec<String> {
        (0..n)
            .map(|k| {
                let shard = Shard { index: k, count: n };
                let header = shard_header("rev", "b", ax, shard);
                let recs: Vec<PointRecord> = shard
                    .take(ax)
                    .iter()
                    .enumerate()
                    .map(|(local, spec)| rec(local, spec, 100 + shard.global(local) as u64))
                    .collect();
                stream(&header, &recs)
            })
            .collect()
    }

    #[test]
    fn two_shard_merge_equals_normalised_unsharded() {
        let ax = axis(5);
        let unsharded_header = shard_header("rev", "b", &ax, Shard::single());
        let recs: Vec<PointRecord> = ax
            .iter()
            .enumerate()
            .map(|(g, spec)| rec(g, spec, 100 + g as u64))
            .collect();
        let unsharded = stream(&unsharded_header, &recs);
        let shards = sharded_streams(&ax, 2);

        let direct = merge_texts(&[&unsharded]).unwrap();
        let merged = merge_texts(&[&shards[1], &shards[0]]).unwrap();
        assert_eq!(merged.to_jsonl(), direct.to_jsonl());
        assert_eq!(merged.to_jsonl(), unsharded);
        assert_eq!(merged.frontier(), direct.frontier());
        assert_eq!(merged.covered(), 5);
        assert_eq!(merged.failed(), 0);
    }

    #[test]
    fn merge_rejects_inconsistent_sets() {
        let ax = axis(5);
        let shards = sharded_streams(&ax, 3);
        // Missing shard.
        assert!(merge_texts(&[&shards[0], &shards[2]]).is_err());
        // Repeated shard.
        assert!(merge_texts(&[&shards[0], &shards[0], &shards[1]]).is_err());
        // A stream from a different axis.
        let other = sharded_streams(&axis(4), 3);
        assert!(merge_texts(&[&shards[0], &shards[1], &other[2]]).is_err());
        // Unsharded stream mixed into a multi-way merge.
        let plain = stream(&shard_header("rev", "b", &ax, Shard::single()), &[]);
        assert!(merge_texts(&[&shards[0], &shards[1], &plain]).is_err());
        // Garbage.
        assert!(merge_texts(&["not json"]).is_err());
        assert!(merge_texts(&[]).is_err());
        // The intact set still merges.
        assert!(merge_texts(&[&shards[0], &shards[1], &shards[2]]).is_ok());
    }

    #[test]
    fn incomplete_shards_merge_with_reduced_coverage() {
        // Records are optional (a killed shard has fewer); headers drive
        // the arithmetic.
        let ax = axis(4);
        let mut shards = sharded_streams(&ax, 2);
        // Drop shard 1's last record line.
        let trimmed: Vec<&str> = shards[1].lines().collect();
        shards[1] = format!("{}\n", trimmed[..trimmed.len() - 1].join("\n"));
        let merged = merge_texts(&[&shards[0], &shards[1]]).unwrap();
        assert_eq!(merged.header.points, 4);
        assert_eq!(merged.covered(), 3);
    }

    #[test]
    fn outcomes_need_the_whole_axis_of_the_right_run() {
        let ax = axis(3);
        let shards = sharded_streams(&ax, 2);
        let merged = merge_texts(&[&shards[0], &shards[1]]).unwrap();
        let outcomes = merged.outcomes("b", &ax).unwrap();
        let sims: Vec<u64> = outcomes
            .iter()
            .map(|o| o.outcome.result().unwrap().sim_cycles)
            .collect();
        assert_eq!(sims, [100, 101, 102], "axis order");
        assert!(merged.outcomes("other", &ax).is_err(), "benchmark");
        assert!(merged.outcomes("b", &axis(4)).is_err(), "axis");
        let mut partial = merged.clone();
        partial.records.remove(&1);
        assert!(partial.outcomes("b", &ax).is_err(), "missing point");
    }

    #[test]
    fn merge_rewrites_a_failed_record_to_its_global_index() {
        // The one place a record's index changes: shard 1's local point 0
        // is global point 1, for the record and for its failure report.
        let ax = axis(4);
        let mut shards = sharded_streams(&ax, 2);
        let shard = Shard { index: 1, count: 2 };
        let failed = PointRecord {
            index: 0,
            spec_hash: spec_hash(&ax[1].canonical()),
            outcome: PointOutcome::Failed(FailedPoint {
                index: 0,
                label: ax[1].label(),
                error: String::from("injected fault: phase `analyze` call #1"),
                panicked: false,
            }),
        };
        shards[1] = stream(
            &shard_header("rev", "b", &ax, shard),
            &[failed, rec(1, &ax[3], 103)],
        );
        let merged = merge_texts(&[&shards[0], &shards[1]]).unwrap();
        assert_eq!((merged.covered(), merged.failed()), (4, 1));
        let rec = &merged.records[&1];
        assert_eq!(rec.index, 1);
        assert_eq!(rec.outcome.failure().map(|fp| fp.index), Some(1));
        let line = merged.to_jsonl().lines().nth(2).unwrap().to_string();
        assert!(line.starts_with("{\"index\":1,"), "{line}");
        assert!(line.contains("\"status\":\"failed\""), "{line}");
        let outcomes = merged.outcomes("b", &ax).unwrap();
        let fp = outcomes[1].outcome.failure().expect("point 1 failed");
        assert_eq!(fp.index, 1);
        assert_eq!(outcomes.iter().filter(|o| o.outcome.is_failed()).count(), 1);
    }

    #[test]
    fn version_skew_is_reported() {
        let ax = axis(2);
        let shards = sharded_streams(&ax, 2);
        let skewed = shards[1].replacen(
            &format!("\"ckpt_version\":{CHECKPOINT_VERSION}"),
            &format!("\"ckpt_version\":{}", CHECKPOINT_VERSION + 1),
            1,
        );
        assert!(merge_texts(&[&shards[0], &skewed]).is_err());
    }
}
