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

/// Completion status of one checkpointed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// Measured normally.
    Ok,
    /// Measured, but a WCET fixpoint hit its structural iteration cap: the
    /// bound is widened but still sound.
    Degraded,
    /// The point failed (typed error or contained panic); resume re-runs
    /// it.
    Failed,
}

impl PointStatus {
    fn as_str(self) -> &'static str {
        match self {
            PointStatus::Ok => "ok",
            PointStatus::Degraded => "degraded",
            PointStatus::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<PointStatus> {
        match s {
            "ok" => Some(PointStatus::Ok),
            "degraded" => Some(PointStatus::Degraded),
            "failed" => Some(PointStatus::Failed),
            _ => None,
        }
    }
}

/// One checkpointed sweep point: the full
/// [`ConfigResult`] (exact, bit-level) for
/// completed points, or the failure report for contained failures.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Index within the swept axis.
    pub index: usize,
    /// [`spec_hash`] of the point's canonical spec — resume re-derives and
    /// compares it so a record is never applied to a different machine.
    pub spec_hash: String,
    /// Completion status.
    pub status: PointStatus,
    /// Configuration label.
    pub label: String,
    /// Simulated cycles (0 for failed points).
    pub sim_cycles: u64,
    /// WCET bound (0 for failed points).
    pub wcet_cycles: u64,
    /// Validated checksum (0 for failed points).
    pub checksum: i32,
    /// `f64::to_bits` of the energy figure — exact round-trip.
    pub energy_bits: u64,
    /// Scratchpad bytes occupied.
    pub spm_used: u32,
    /// Objects placed in the scratchpad.
    pub spm_objects: Vec<String>,
    /// [`ClassifyStats::to_array`] of the classification counters.
    pub classify: [u64; 10],
    /// Failure description (empty unless `status == Failed`).
    pub error: String,
    /// Whether the failure was a contained panic (vs a typed error).
    pub panicked: bool,
}

impl PointRecord {
    /// Record for a completed (ok or degraded) point.
    pub fn from_result(index: usize, spec_hash: String, r: &ConfigResult) -> PointRecord {
        PointRecord {
            index,
            spec_hash,
            status: if r.degraded {
                PointStatus::Degraded
            } else {
                PointStatus::Ok
            },
            label: r.label.clone(),
            sim_cycles: r.sim_cycles,
            wcet_cycles: r.wcet_cycles,
            checksum: r.checksum,
            energy_bits: r.energy_nj.to_bits(),
            spm_used: r.spm_used,
            spm_objects: r.spm_objects.clone(),
            classify: r.classify.to_array(),
            error: String::new(),
            panicked: false,
        }
    }

    /// Record for a contained failure.
    pub fn from_failure(
        index: usize,
        spec_hash: String,
        label: &str,
        error: &str,
        panicked: bool,
    ) -> PointRecord {
        PointRecord {
            index,
            spec_hash,
            status: PointStatus::Failed,
            label: label.to_string(),
            sim_cycles: 0,
            wcet_cycles: 0,
            checksum: 0,
            energy_bits: 0,
            spm_used: 0,
            spm_objects: Vec::new(),
            classify: [0; 10],
            error: error.to_string(),
            panicked,
        }
    }

    /// Reconstructs the exact [`ConfigResult`] of a completed record.
    /// Returns `None` for failed records — they have no result to reuse.
    pub fn to_config_result(&self) -> Option<ConfigResult> {
        if self.status == PointStatus::Failed {
            return None;
        }
        Some(ConfigResult {
            label: self.label.clone(),
            sim_cycles: self.sim_cycles,
            wcet_cycles: self.wcet_cycles,
            checksum: self.checksum,
            energy_nj: f64::from_bits(self.energy_bits),
            spm_used: self.spm_used,
            spm_objects: self.spm_objects.clone(),
            classify: ClassifyStats::from_array(self.classify),
            degraded: self.status == PointStatus::Degraded,
        })
    }

    /// The JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let classify: Vec<String> = self.classify.iter().map(u64::to_string).collect();
        format!(
            "{{\"index\":{},\"spec_hash\":\"{}\",\"status\":\"{}\",\"label\":\"{}\",\
             \"sim_cycles\":{},\"wcet_cycles\":{},\"checksum\":{},\"energy_bits\":{},\
             \"spm_used\":{},\"spm_objects\":\"{}\",\"classify\":\"{}\",\
             \"error\":\"{}\",\"panicked\":{}}}",
            self.index,
            escape(&self.spec_hash),
            self.status.as_str(),
            escape(&self.label),
            self.sim_cycles,
            self.wcet_cycles,
            self.checksum,
            self.energy_bits,
            self.spm_used,
            escape(&self.spm_objects.join(";")),
            classify.join(","),
            escape(&self.error),
            self.panicked,
        )
    }

    /// Parses a record line; `None` when malformed.
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
        let objects = text(&v, "spm_objects")?;
        Some(PointRecord {
            index: usize::try_from(num("index")?).ok()?,
            spec_hash: text(&v, "spec_hash")?.to_string(),
            status: PointStatus::parse(text(&v, "status")?)?,
            label: text(&v, "label")?.to_string(),
            sim_cycles: num("sim_cycles")?,
            wcet_cycles: num("wcet_cycles")?,
            checksum: i32::try_from(v.get("checksum")?.as_i64()?).ok()?,
            energy_bits: num("energy_bits")?,
            spm_used: u32::try_from(num("spm_used")?).ok()?,
            spm_objects: if objects.is_empty() {
                Vec::new()
            } else {
                objects.split(';').map(str::to_string).collect()
            },
            classify,
            error: text(&v, "error")?.to_string(),
            panicked: match v.get("panicked")? {
                Value::Bool(b) => *b,
                _ => return None,
            },
        })
    }
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
    let (header, lines) = split_header(text)?;
    let rest: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut records = BTreeMap::new();
    for (pos, (lineno, line)) in rest.iter().enumerate() {
        match PointRecord::from_json_line(line) {
            Some(rec) => {
                if rec.index >= header.points {
                    return Err(format!(
                        "line {}: point index {} out of range (axis has {} points)",
                        lineno + 1,
                        rec.index,
                        header.points
                    ));
                }
                records.insert(rec.index, rec);
            }
            None if pos + 1 == rest.len() => {
                // Truncated final line: the kill artifact; drop it.
            }
            None => {
                return Err(format!("line {}: malformed point record", lineno + 1));
            }
        }
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
    /// Distinct indices whose *last* record is `Ok`.
    pub ok: usize,
    /// Distinct indices whose last record is `Degraded`.
    pub degraded: usize,
    /// Distinct indices whose last record is `Failed`.
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
    let (header, lines) = split_header(text)?;
    let mut last: BTreeMap<usize, PointStatus> = BTreeMap::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            return Err(format!("line {}: blank line in stream", lineno + 1));
        }
        let rec = PointRecord::from_json_line(line)
            .ok_or_else(|| format!("line {}: malformed point record", lineno + 1))?;
        if rec.index >= header.points {
            return Err(format!(
                "line {}: point index {} out of range (axis has {} points)",
                lineno + 1,
                rec.index,
                header.points
            ));
        }
        if rec.spec_hash.len() != 16 {
            return Err(format!("line {}: malformed spec hash", lineno + 1));
        }
        if rec.status == PointStatus::Failed && rec.error.is_empty() {
            return Err(format!(
                "line {}: failed record with no error description",
                lineno + 1
            ));
        }
        last.insert(rec.index, rec.status);
    }
    let count = |want: PointStatus| last.values().filter(|&&s| s == want).count();
    Ok(CheckpointStats {
        points: header.points,
        covered: last.len(),
        ok: count(PointStatus::Ok),
        degraded: count(PointStatus::Degraded),
        failed: count(PointStatus::Failed),
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

    /// Appends one record line and flushes it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure.
    pub fn write_record(&mut self, record: &PointRecord) -> Result<(), CoreError> {
        writeln!(self.file, "{}", record.to_json_line()).map_err(|e| ckpt_err(&self.path, e))?;
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

    #[test]
    fn point_record_round_trips_exactly() {
        for degraded in [false, true] {
            let r = sample_result(degraded);
            let rec = PointRecord::from_result(3, fnv1a64("spec"), &r);
            let back = PointRecord::from_json_line(&rec.to_json_line()).unwrap();
            assert_eq!(rec, back);
            let cr = back.to_config_result().unwrap();
            assert_eq!(cr.label, r.label);
            assert_eq!(cr.sim_cycles, r.sim_cycles);
            assert_eq!(cr.wcet_cycles, r.wcet_cycles);
            assert_eq!(cr.checksum, r.checksum);
            assert_eq!(cr.energy_nj.to_bits(), r.energy_nj.to_bits(), "bit-exact");
            assert_eq!(cr.spm_objects, r.spm_objects);
            assert_eq!(cr.classify, r.classify);
            assert_eq!(cr.degraded, degraded);
        }
    }

    #[test]
    fn failed_record_round_trips_and_has_no_result() {
        let rec = PointRecord::from_failure(
            7,
            fnv1a64("spec"),
            "l1 512",
            "injected fault: phase `analyze` call #2",
            true,
        );
        let back = PointRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(rec, back);
        assert!(back.to_config_result().is_none());
    }

    #[test]
    fn failed_record_error_text_round_trips_escaped() {
        let error = "panicked at 'x': \"quoted\" C:\\path\tcol\nnext line";
        let rec = PointRecord::from_failure(2, fnv1a64("spec"), "l1 512", error, true);
        let line = rec.to_json_line();
        assert!(!line.contains('\n'), "one record per line");
        let back = PointRecord::from_json_line(&line).unwrap();
        assert_eq!(back.error, error);
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
        let rec = PointRecord::from_result(0, fnv1a64("s"), &sample_result(false));
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
        let rec0 = PointRecord::from_result(0, fnv1a64("s0"), &sample_result(false));
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
        let rec1 = PointRecord::from_result(1, fnv1a64("s1"), &sample_result(true));
        w.write_record(&rec1).unwrap();
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
        let failed = PointRecord::from_failure(0, fnv1a64("s"), "l", "boom", false);
        let fixed = PointRecord::from_result(0, fnv1a64("s"), &sample_result(false));
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
