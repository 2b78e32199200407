//! Sweep checkpoint files: one JSON line per completed point.
//!
//! A checkpoint is a JSONL stream: a [`CheckpointHeader`] on the first
//! line binding the file to a git revision, benchmark, and spec axis,
//! followed by one [`PointRecord`] per *completed* sweep point, flushed as
//! each point finishes. A killed run therefore loses at most the points
//! that were in flight; rerunning `experiments sweep --spec-grid <grid>
//! --checkpoint <dir>` validates the header against the current run and
//! replays only the missing points, reconstructing everything else from
//! the records — bit-identically, because the records round-trip every
//! field of [`ConfigResult`] exactly (energy as IEEE bit patterns, never
//! re-parsed decimals). `experiments render <figure> <stream>` turns a
//! complete stream of a figure's grid back into that figure.
//!
//! The format is append-only: a resumed run appends fresh records after
//! the old ones and the reader keeps the *last* record per point index, so
//! a `Failed` point re-run successfully on resume is superseded in place.
//! The reader tolerates exactly one artifact of an unclean death — a
//! truncated final line — and rejects malformed lines anywhere else;
//! [`check_checkpoint`] is the strict variant CI gates on.

use crate::pipeline::ConfigResult;
use crate::sweep::{FailedPoint, PointOutcome};
use crate::CoreError;
use spmlab_isa::archspec::json::{self, escape, Value};
use spmlab_isa::archspec::MemArchSpec;
use spmlab_wcet::cache::ClassifyStats;
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::path::Path;

/// Checkpoint wire-format version; bump on any incompatible change.
pub const CHECKPOINT_VERSION: u32 = 1;

/// FNV-1a 64 over `data` — the stable, dependency-free hash used for spec
/// and axis identity (not cryptographic).
pub fn fnv1a64(data: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Identity hash of one canonical spec.
pub fn spec_hash(canon: &MemArchSpec) -> String {
    fnv1a64(&format!("{canon:?}"))
}

/// Identity hash of a whole spec axis (order-sensitive), over the
/// canonical specs so raw and canonical axes hash identically.
pub fn axis_hash(specs: &[MemArchSpec]) -> String {
    let joined: Vec<String> = specs.iter().map(|s| spec_hash(&s.canonical())).collect();
    fnv1a64(&joined.join("|"))
}

/// First line of a checkpoint file: everything a resume must match before
/// trusting any record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Wire-format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Short git revision of the writing build (`unknown` outside a
    /// checkout) — results are only comparable within one revision.
    pub rev: String,
    /// Benchmark name.
    pub benchmark: String,
    /// [`axis_hash`] of the swept spec axis. For a sharded DSE stream
    /// this is the hash of the **full** grid axis (shared by every
    /// shard), not the shard's sub-axis — so shard streams of one grid
    /// are mutually recognisable at merge time.
    pub axis_hash: String,
    /// Number of points in the axis — for a shard stream, the number of
    /// points *this shard* owns (its records cover exactly `0..points`).
    pub points: usize,
    /// `Some((k, n))` when this stream is shard `k` of an `n`-way split
    /// (shard `k` owns every global index `g` with `g % n == k`, stored
    /// under local index `g / n`). `None` for unsharded streams —
    /// serialised only when present, so pre-DSE checkpoints round-trip
    /// byte-identically.
    pub shard: Option<(usize, usize)>,
}

impl CheckpointHeader {
    /// Builds the header for an unsharded sweep of `specs`.
    pub fn new(rev: &str, benchmark: &str, specs: &[MemArchSpec]) -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            rev: rev.to_string(),
            benchmark: benchmark.to_string(),
            axis_hash: axis_hash(specs),
            points: specs.len(),
            shard: None,
        }
    }

    /// The JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let shard = self
            .shard
            .map_or_else(String::new, |(k, n)| format!("\"shard\":\"{k}/{n}\","));
        format!(
            "{{\"ckpt_version\":{},\"rev\":\"{}\",\"benchmark\":\"{}\",\"axis_hash\":\"{}\",{shard}\"points\":{}}}",
            self.version,
            escape(&self.rev),
            escape(&self.benchmark),
            escape(&self.axis_hash),
            self.points,
        )
    }

    /// Parses a header line; `None` when malformed or not a header.
    pub fn from_json_line(line: &str) -> Option<CheckpointHeader> {
        let v = json::parse(line).ok()?;
        let shard = match v.get("shard") {
            None => None,
            // A present-but-malformed shard designator rejects the line —
            // silently reading a shard stream as unsharded would merge it
            // under the wrong indices.
            Some(raw) => {
                let (k, n) = raw.as_str()?.split_once('/')?;
                let (k, n) = (k.parse().ok()?, n.parse::<usize>().ok()?);
                if n == 0 || k >= n {
                    return None;
                }
                Some((k, n))
            }
        };
        Some(CheckpointHeader {
            version: u32::try_from(v.get("ckpt_version")?.as_u64()?).ok()?,
            rev: text(&v, "rev")?.to_string(),
            benchmark: text(&v, "benchmark")?.to_string(),
            axis_hash: text(&v, "axis_hash")?.to_string(),
            points: usize::try_from(v.get("points")?.as_u64()?).ok()?,
            shard,
        })
    }
}

/// One checkpointed sweep point: the point's own [`PointOutcome`], whose
/// measurement round-trips exactly (energy as its IEEE bit pattern).
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Index within the swept axis.
    pub index: usize,
    /// [`spec_hash`] of the point's canonical spec — resume re-derives and
    /// compares it so a record is never applied to a different machine.
    pub spec_hash: String,
    /// What the sweep measured, or how the point failed.
    pub outcome: PointOutcome,
}

impl PointRecord {
    /// The JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        json_line(self.index, &self.spec_hash, &self.outcome)
    }

    /// Parses a record line; `None` when malformed. A measured line must
    /// carry no error, and a failed line nothing but its label and error:
    /// the fields a status rules out are never silently dropped.
    pub fn from_json_line(line: &str) -> Option<PointRecord> {
        let v = json::parse(line).ok()?;
        let num = |key: &str| v.get(key).and_then(Value::as_u64);
        let mut classify = [0u64; 10];
        let mut parts = text(&v, "classify")?.split(',');
        for slot in classify.iter_mut() {
            *slot = parts.next()?.parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        let index = usize::try_from(num("index")?).ok()?;
        let objects = text(&v, "spm_objects")?;
        let result = ConfigResult {
            label: text(&v, "label")?.to_string(),
            sim_cycles: num("sim_cycles")?,
            wcet_cycles: num("wcet_cycles")?,
            checksum: i32::try_from(v.get("checksum")?.as_i64()?).ok()?,
            energy_nj: f64::from_bits(num("energy_bits")?),
            spm_used: u32::try_from(num("spm_used")?).ok()?,
            spm_objects: if objects.is_empty() {
                Vec::new()
            } else {
                objects.split(';').map(str::to_string).collect()
            },
            classify: ClassifyStats::from_array(classify),
            degraded: false,
        };
        let error = text(&v, "error")?;
        let panicked = match v.get("panicked")? {
            Value::Bool(b) => *b,
            _ => return None,
        };
        let status = text(&v, "status")?;
        let outcome = match status {
            "ok" | "degraded" if error.is_empty() && !panicked => {
                PointOutcome::Measured(ConfigResult {
                    degraded: status == "degraded",
                    ..result
                })
            }
            "failed" if result == failed_fields(result.label.clone()) => {
                PointOutcome::Failed(FailedPoint {
                    index,
                    label: result.label,
                    error: error.to_string(),
                    panicked,
                })
            }
            _ => return None,
        };
        Some(PointRecord {
            index,
            spec_hash: text(&v, "spec_hash")?.to_string(),
            outcome,
        })
    }
}

/// The measurement fields of a failed point's line: its label, and zero
/// everywhere else.
fn failed_fields(label: String) -> ConfigResult {
    ConfigResult {
        label,
        sim_cycles: 0,
        wcet_cycles: 0,
        checksum: 0,
        energy_nj: 0.0,
        spm_used: 0,
        spm_objects: Vec::new(),
        classify: ClassifyStats::default(),
        degraded: false,
    }
}

/// The record line of point `index` — borrowed, so a sweep streams each
/// outcome without copying it into a [`PointRecord`].
pub(crate) fn json_line(index: usize, spec_hash: &str, outcome: &PointOutcome) -> String {
    let failed;
    let (status, r, error, panicked) = match outcome {
        PointOutcome::Measured(r) => {
            let status = if r.degraded { "degraded" } else { "ok" };
            (status, r, "", false)
        }
        PointOutcome::Failed(fp) => {
            failed = failed_fields(fp.label.clone());
            ("failed", &failed, fp.error.as_str(), fp.panicked)
        }
    };
    let classify: Vec<String> = r.classify.to_array().iter().map(u64::to_string).collect();
    format!(
        "{{\"index\":{index},\"spec_hash\":\"{}\",\"status\":\"{status}\",\"label\":\"{}\",\
         \"sim_cycles\":{},\"wcet_cycles\":{},\"checksum\":{},\"energy_bits\":{},\
         \"spm_used\":{},\"spm_objects\":\"{}\",\"classify\":\"{}\",\
         \"error\":\"{}\",\"panicked\":{panicked}}}",
        escape(spec_hash),
        escape(&r.label),
        r.sim_cycles,
        r.wcet_cycles,
        r.checksum,
        r.energy_nj.to_bits(),
        r.spm_used,
        escape(&r.spm_objects.join(";")),
        classify.join(","),
        escape(error),
    )
}

/// The string field `key` of a parsed line.
fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// A parsed checkpoint: the header plus the *last* record per point index
/// (resume appends supersede earlier attempts).
#[derive(Debug, Clone)]
pub struct CheckpointFile {
    /// The validated header.
    pub header: CheckpointHeader,
    /// Last record per point index.
    pub records: BTreeMap<usize, PointRecord>,
}

pub(crate) fn ckpt_err(path: &Path, msg: impl std::fmt::Display) -> CoreError {
    CoreError::Checkpoint(format!("{}: {msg}", path.display()))
}

/// Reads and parses a checkpoint file.
///
/// A malformed *final* line is tolerated and dropped — it is the expected
/// artifact of a killed run (the stream is flushed per line, so at most
/// the in-flight point is lost). A malformed line anywhere else is an
/// error: the file is corrupt, not merely truncated.
///
/// # Errors
///
/// [`CoreError::Checkpoint`] on I/O failure, a missing/invalid header,
/// corruption before the final line, or an out-of-range point index.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointFile, CoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| ckpt_err(path, e))?;
    parse_checkpoint_text(&text).map_err(|e| ckpt_err(path, e))
}

/// [`read_checkpoint`] on already-loaded text (same tolerance: exactly one
/// truncated final line is dropped, anything else malformed is an error).
/// The DSE shard merger reads many streams through this without touching
/// the filesystem layer.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn parse_checkpoint_text(text: &str) -> Result<CheckpointFile, String> {
    read_lines(text, false)
}

/// The one line reader behind [`parse_checkpoint_text`] (`strict` off)
/// and [`check_checkpoint`] (`strict` on). A strict read also rejects
/// blank lines, a truncated final line, a malformed spec hash, and a
/// failed record with no error description.
fn read_lines(text: &str, strict: bool) -> Result<CheckpointFile, String> {
    let (header, lines) = split_header(text)?;
    let rest: Vec<(usize, &str)> = lines
        .filter(|(_, l)| strict || !l.trim().is_empty())
        .collect();
    let mut records = BTreeMap::new();
    for (pos, &(lineno, line)) in rest.iter().enumerate() {
        let fail = |what: String| Err(format!("line {}: {what}", lineno + 1));
        if line.trim().is_empty() {
            return fail(String::from("blank line in stream"));
        }
        let Some(rec) = PointRecord::from_json_line(line) else {
            if !strict && pos + 1 == rest.len() {
                // Truncated final line: the kill artifact; drop it.
                break;
            }
            return fail(String::from("malformed point record"));
        };
        if rec.index >= header.points {
            return fail(format!(
                "point index {} out of range (axis has {} points)",
                rec.index, header.points
            ));
        }
        if strict && rec.spec_hash.len() != 16 {
            return fail(String::from("malformed spec hash"));
        }
        if strict && rec.outcome.failure().is_some_and(|fp| fp.error.is_empty()) {
            return fail(String::from("failed record with no error description"));
        }
        records.insert(rec.index, rec);
    }
    Ok(CheckpointFile { header, records })
}

/// The header of a checkpoint stream, version-checked, and its remaining
/// lines numbered from zero (the header is line 0).
fn split_header(
    text: &str,
) -> Result<(CheckpointHeader, std::iter::Enumerate<std::str::Lines<'_>>), String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty checkpoint")?;
    let header =
        CheckpointHeader::from_json_line(first).ok_or("first line is not a checkpoint header")?;
    if header.version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {} unsupported (expected {CHECKPOINT_VERSION})",
            header.version
        ));
    }
    Ok((header, lines))
}

/// Summary statistics from a strict checkpoint validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Points declared by the header.
    pub points: usize,
    /// Distinct point indices covered by at least one record.
    pub covered: usize,
    /// Distinct indices whose *last* record was measured precisely.
    pub ok: usize,
    /// Distinct indices whose last record was measured with a widened
    /// (degraded) bound.
    pub degraded: usize,
    /// Distinct indices whose last record failed.
    pub failed: usize,
}

/// Strict stream validation for CI gates (`experiments check-checkpoint`):
/// every line must parse — including the last (a complete run flushes a
/// full final line, so truncation means the run did not finish cleanly).
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn check_checkpoint(text: &str) -> Result<CheckpointStats, String> {
    let file = read_lines(text, true)?;
    let outcomes = || file.records.values().map(|r| &r.outcome);
    let failed = outcomes().filter(|o| o.is_failed()).count();
    let degraded = outcomes().filter(|o| o.is_degraded()).count();
    Ok(CheckpointStats {
        points: file.header.points,
        covered: file.records.len(),
        ok: file.records.len() - failed - degraded,
        degraded,
        failed,
    })
}

/// Streaming checkpoint writer: one line per record, flushed immediately,
/// so a kill loses at most the in-flight point.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    path: std::path::PathBuf,
}

impl CheckpointWriter {
    /// Creates (truncates) `path` and writes the header line.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure.
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<CheckpointWriter, CoreError> {
        let mut file = std::fs::File::create(path).map_err(|e| ckpt_err(path, e))?;
        writeln!(file, "{}", header.to_json_line()).map_err(|e| ckpt_err(path, e))?;
        file.flush().map_err(|e| ckpt_err(path, e))?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing checkpoint for appending, first truncating a
    /// partial final line (the kill artifact) so the stream stays valid
    /// for the strict [`check_checkpoint`] gate.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure.
    pub fn append(path: &Path) -> Result<CheckpointWriter, CoreError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| ckpt_err(path, e))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| ckpt_err(path, e))?;
        // Keep everything up to (and including) the last newline; whatever
        // follows it is a partial line from an unclean death.
        let keep = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
        file.set_len(keep as u64).map_err(|e| ckpt_err(path, e))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| ckpt_err(path, e))?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends the record line of point `index` and flushes it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure.
    pub fn write_record(
        &mut self,
        index: usize,
        spec_hash: &str,
        outcome: &PointOutcome,
    ) -> Result<(), CoreError> {
        let line = json_line(index, spec_hash, outcome);
        writeln!(self.file, "{line}").map_err(|e| ckpt_err(&self.path, e))?;
        self.file.flush().map_err(|e| ckpt_err(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(degraded: bool) -> ConfigResult {
        ConfigResult {
            label: "l1 512 + l2 4096".into(),
            sim_cycles: 123_456,
            wcet_cycles: 234_567,
            checksum: -42,
            energy_nj: 1234.5678901,
            spm_used: 128,
            spm_objects: vec!["main".into(), "x".into()],
            classify: ClassifyStats {
                fetch_hits: 1,
                data_hits: 2,
                l2_hits: 3,
                ..ClassifyStats::default()
            },
            degraded,
        }
    }

    fn measured(index: usize, spec: &str, degraded: bool) -> PointRecord {
        PointRecord {
            index,
            spec_hash: fnv1a64(spec),
            outcome: PointOutcome::Measured(sample_result(degraded)),
        }
    }

    fn failed(index: usize, error: &str, panicked: bool) -> PointRecord {
        PointRecord {
            index,
            spec_hash: fnv1a64("spec"),
            outcome: PointOutcome::Failed(FailedPoint {
                index,
                label: "l1 512".into(),
                error: error.into(),
                panicked,
            }),
        }
    }

    #[test]
    fn point_record_round_trips_exactly() {
        for degraded in [false, true] {
            let rec = measured(3, "spec", degraded);
            let back = PointRecord::from_json_line(&rec.to_json_line()).unwrap();
            assert_eq!(rec, back, "bit-exact, energy included");
            assert_eq!(back.outcome.is_degraded(), degraded);
        }
    }

    #[test]
    fn failed_record_round_trips_and_has_no_result() {
        let rec = failed(7, "injected fault: phase `analyze` call #2", true);
        let back = PointRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(rec, back);
        assert!(back.outcome.result().is_none());
    }

    #[test]
    fn failed_record_error_text_round_trips_escaped() {
        let error = "panicked at 'x': \"quoted\" C:\\path\tcol\nnext line";
        let rec = failed(2, error, true);
        let line = rec.to_json_line();
        assert!(!line.contains('\n'), "one record per line");
        let back = PointRecord::from_json_line(&line).unwrap();
        assert_eq!(back.outcome.failure().unwrap().error, error);
        assert_eq!(back, rec);
    }

    #[test]
    fn header_round_trips() {
        let h = CheckpointHeader {
            version: CHECKPOINT_VERSION,
            rev: "abc1234".into(),
            benchmark: "g721".into(),
            axis_hash: fnv1a64("axis"),
            points: 8,
            shard: None,
        };
        assert_eq!(CheckpointHeader::from_json_line(&h.to_json_line()), Some(h));
    }

    #[test]
    fn reader_tolerates_truncated_final_line_only() {
        let dir = std::env::temp_dir().join(format!("spmlab-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.jsonl");
        let header = CheckpointHeader {
            version: CHECKPOINT_VERSION,
            rev: "r".into(),
            benchmark: "b".into(),
            axis_hash: fnv1a64("a"),
            points: 4,
            shard: None,
        };
        let rec = measured(0, "s", false);
        let full = format!(
            "{}\n{}\n{}",
            header.to_json_line(),
            rec.to_json_line(),
            &rec.to_json_line()[..20] // killed mid-write
        );
        std::fs::write(&path, &full).unwrap();
        let parsed = read_checkpoint(&path).unwrap();
        assert_eq!(parsed.records.len(), 1, "partial final line dropped");
        // The same partial line in the *middle* is corruption.
        let corrupt = format!(
            "{}\n{}\n{}\n",
            header.to_json_line(),
            &rec.to_json_line()[..20],
            rec.to_json_line(),
        );
        std::fs::write(&path, &corrupt).unwrap();
        assert!(
            read_checkpoint(&path).is_err(),
            "mid-file corruption rejected"
        );
        // The strict CI gate rejects even the trailing partial.
        assert!(check_checkpoint(&full).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_truncates_partial_tail() {
        let dir = std::env::temp_dir().join(format!("spmlab-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.jsonl");
        let header = CheckpointHeader {
            version: CHECKPOINT_VERSION,
            rev: "r".into(),
            benchmark: "b".into(),
            axis_hash: fnv1a64("a"),
            points: 4,
            shard: None,
        };
        let rec0 = measured(0, "s0", false);
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n{}",
                header.to_json_line(),
                rec0.to_json_line(),
                &rec0.to_json_line()[..15]
            ),
        )
        .unwrap();
        let mut w = CheckpointWriter::append(&path).unwrap();
        let rec1 = measured(1, "s1", true);
        w.write_record(rec1.index, &rec1.spec_hash, &rec1.outcome)
            .unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let stats = check_checkpoint(&text).unwrap();
        assert_eq!(stats.covered, 2);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.failed, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_checkpoint_reports_last_status_per_index() {
        let header = CheckpointHeader {
            version: CHECKPOINT_VERSION,
            rev: "r".into(),
            benchmark: "b".into(),
            axis_hash: fnv1a64("a"),
            points: 2,
            shard: None,
        };
        let failed = failed(0, "boom", false);
        let fixed = measured(0, "spec", false);
        let text = format!(
            "{}\n{}\n{}\n",
            header.to_json_line(),
            failed.to_json_line(),
            fixed.to_json_line()
        );
        let stats = check_checkpoint(&text).unwrap();
        assert_eq!(stats.covered, 1);
        assert_eq!(stats.ok, 1, "resume supersedes the failed attempt");
        assert_eq!(stats.failed, 0);
    }
}
