//! Malformed-input hardening: the parsers that read *untrusted* text —
//! spec JSON from `--spec` files, grid documents from `--spec-grid`
//! files, checkpoint streams from `--checkpoint` files, shard streams fed
//! to `merge-shards`, profile streams fed to `check-profile` — and the
//! binary v2 trace decoder (`MemTrace::from_bytes`) must reject
//! arbitrary garbage with a typed error (or `None`), never a panic.
//!
//! Every strategy here feeds raw bytes (lossily decoded) and truncated or
//! spliced variants of *valid* documents through the parsers; the property
//! is simply "the call returns".

use std::sync::OnceLock;

use proptest::prelude::*;
use spmlab::checkpoint::{spec_hash, PointRecord};
use spmlab::dse::{merge_texts, GridSpec};
use spmlab::{check_checkpoint, ConfigResult, FailedPoint, MemArchSpec, PointOutcome};
use spmlab_bench::jsonl::check_stream;
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_isa::hierarchy::MemHierarchyConfig;
use spmlab_sim::{MemTrace, TraceError};
use spmlab_wcet::cache::ClassifyStats;

/// Arbitrary bytes decoded to a (possibly replacement-charactered) string.
fn garbage(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255u8, 0..max)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// A pool of valid spec documents to truncate and splice.
fn sample_spec_json(which: usize) -> String {
    match which % 4 {
        0 => MemArchSpec::spm(1024).to_json(),
        1 => MemArchSpec::single_cache(CacheConfig::unified(256)).to_json(),
        2 => MemArchSpec::uncached().to_json(),
        _ => MemArchSpec::builder()
            .spm(512)
            .l1(CacheConfig::unified(256))
            .build()
            .expect("valid spec")
            .to_json(),
    }
}

/// A pool of valid grid documents to truncate and splice.
fn sample_grid_json(which: usize) -> String {
    match which % 3 {
        0 => GridSpec::default().to_json(),
        1 => GridSpec::from_json(
            r#"{"spm_size":[0,1024],"l1_shape":["unified","split"],
                "l1_size":{"from":256,"to":1024,"factor":2},"l1_policy":["wt","wb"]}"#,
        )
        .expect("valid grid")
        .to_json(),
        _ => GridSpec::from_json(
            r#"{"benchmark":"insertsort","l2_size":[0,4096],
                "main_latency":{"from":0,"to":10,"step":5},
                "store_buffer":["none",{"depth":4,"drain":6}]}"#,
        )
        .expect("valid grid")
        .to_json(),
    }
}

/// A valid (tiny) shard checkpoint stream: header plus one record.
fn sample_shard_stream() -> String {
    use spmlab::dse::executor::{shard_header, Shard};
    let axis = [MemArchSpec::uncached(), MemArchSpec::spm(1024)];
    let header = shard_header("rev", "g721", &axis, Shard { index: 0, count: 2 });
    let rec = PointRecord {
        index: 0,
        spec_hash: spec_hash(&axis[0].canonical()),
        outcome: PointOutcome::Failed(FailedPoint {
            index: 0,
            label: "uncached".into(),
            error: "synthetic".into(),
            panicked: false,
        }),
    };
    format!("{}\n{}\n", header.to_json_line(), rec.to_json_line())
}

/// Characters that stress a record line's escaping: quotes, backslashes,
/// line breaks, control and non-ASCII characters.
const TRICKY_CHARS: [char; 12] = [
    'a', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', 'µ', '—', ';', ' ',
];

/// Scratchpad object names: non-empty and free of the `;` that joins
/// them on the line, like the identifiers they are.
const OBJECT_NAMES: [&str; 4] = ["main", "buf_0", "naïve", "q\"uote\\"];

fn tricky_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(&TRICKY_CHARS[..]), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// A measurement, precise or degraded, with full-range numbers (energy
/// bit patterns above 2^53, NaN included) and a label that needs
/// escaping.
fn any_result() -> impl Strategy<Value = ConfigResult> {
    let counts = (any::<u64>(), any::<u64>(), any::<i32>(), any::<u32>());
    let classify = prop::collection::vec(any::<u64>(), 10);
    let objects = prop::collection::vec(prop::sample::select(&OBJECT_NAMES[..]), 0..4);
    let energy_bits = (1u64 << 53)..=u64::MAX;
    let parts = (
        tricky_text(),
        counts,
        energy_bits,
        classify,
        objects,
        any::<bool>(),
    );
    parts.prop_map(|(label, counts, bits, classify, objects, degraded)| {
        let (sim_cycles, wcet_cycles, checksum, spm_used) = counts;
        ConfigResult {
            label,
            sim_cycles,
            wcet_cycles,
            checksum,
            energy_nj: f64::from_bits(bits),
            spm_used,
            spm_objects: objects.into_iter().map(String::from).collect(),
            classify: ClassifyStats::from_array(classify.try_into().expect("ten counters")),
            degraded,
        }
    })
}

/// A checkpoint record of any status: measured (ok or degraded) or
/// failed, by a panic or a typed error.
fn any_record() -> impl Strategy<Value = PointRecord> {
    let failure =
        (tricky_text(), tricky_text(), any::<bool>()).prop_map(|(label, error, panicked)| {
            PointOutcome::Failed(FailedPoint {
                index: 0,
                label,
                error,
                panicked,
            })
        });
    let outcome = prop_oneof![any_result().prop_map(PointOutcome::Measured), failure];
    (0usize..1 << 20, any::<u64>(), outcome).prop_map(|(index, hash, mut outcome)| {
        if let PointOutcome::Failed(fp) = &mut outcome {
            fp.index = index;
        }
        PointRecord {
            index,
            spec_hash: format!("{hash:016x}"),
            outcome,
        }
    })
}

/// A valid recorded profile stream: nested spans plus one event of
/// every other kind.
const SAMPLE_PROFILE: &str = r#"{"ev":"meta","version":1}
{"ev":"span_open","id":1,"parent":null,"name":"experiment","label":"hierarchy \"q\"","t_ns":10,"tid":1}
{"ev":"span_open","id":2,"parent":1,"name":"simulate","label":"g721","t_ns":12,"tid":1}
{"ev":"counter","name":"sim_instructions","delta":42,"t_ns":13,"tid":1}
{"ev":"span_close","id":2,"t_ns":20,"tid":1}
{"ev":"progress","done":1,"total":8,"detail":"1.0 points/s","t_ns":22,"tid":1}
{"ev":"span_close","id":1,"t_ns":30,"tid":1}
"#;

/// A valid serialized v2 event trace (recorded once, truncated and
/// spliced by the properties below).
fn sample_trace_bytes() -> &'static [u8] {
    static CELL: OnceLock<Vec<u8>> = OnceLock::new();
    CELL.get_or_init(|| {
        use spmlab_cc::{compile, link, SpmAssignment};
        let l = link(
            &compile("int a[12]; void main() { int i; for (i = 0; i < 12; i = i + 1) { __loopbound(12); a[i] = i; } }").unwrap(),
            &spmlab_isa::mem::MemoryMap::no_spm(),
            &SpmAssignment::none(),
        )
        .unwrap();
        let (_, trace) =
            spmlab_sim::simulate_with_trace(&l.exe, &spmlab_sim::SimOptions::default()).unwrap();
        trace.to_bytes()
    })
}

/// Replays a decoded trace on a write-through unified L1, a write-through
/// split L1 + L2 and a write-back unified L1 through the run indexes:
/// each gives what the per-event walk gives, a result or the same typed
/// error.
fn indexed_replay_matches(trace: &MemTrace) -> Result<(), TestCaseError> {
    let indexed = trace.clone().with_run_index();
    for h in [
        MemHierarchyConfig::l1_only(CacheConfig::unified(256)),
        MemHierarchyConfig::split_l1(128, 128).with_l2(CacheConfig::l2(1024)),
        MemHierarchyConfig::l1_only(CacheConfig::unified(256).write_back()),
    ] {
        prop_assert_eq!(indexed.replay(&h), trace.replay(&h), "{}", h.label());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_spec_json_never_panics(text in garbage(160)) {
        let _ = MemArchSpec::from_json(&text);
    }

    #[test]
    fn arbitrary_trace_bytes_never_panic(bytes in prop::collection::vec(0u8..=255u8, 0..320)) {
        let _ = MemTrace::from_bytes(&bytes);
    }

    /// Truncating or splicing a *valid* v2 stream yields either a typed
    /// decode error or a structurally valid trace whose replay — on an
    /// uncached and a write-back machine, and run-indexed on two
    /// write-through machines and a write-back one — returns without
    /// panicking.
    #[test]
    fn truncated_spliced_trace_bytes_never_panic(
        cut in 0usize..4096,
        tail in prop::collection::vec(0u8..=255u8, 0..32),
    ) {
        let base = sample_trace_bytes();
        let mut bytes = base[..cut.min(base.len())].to_vec();
        bytes.extend_from_slice(&tail);
        if let Ok(trace) = MemTrace::from_bytes(&bytes) {
            let _ = trace.replay(&MemHierarchyConfig::uncached());
            let _ = trace.replay(&MemHierarchyConfig::l1_only(
                CacheConfig::unified(256).write_back(),
            ));
            indexed_replay_matches(&trace)?;
        }
    }

    /// Flipping single bytes anywhere in a valid stream (magic, version,
    /// header words, event payloads) never panics the decoder or a
    /// replay, run-indexed ones included, and a corrupted version byte
    /// specifically is the typed [`TraceError::UnsupportedVersion`].
    #[test]
    fn bitflipped_trace_bytes_never_panic(pos in 0usize..4096, val in 0u8..=255) {
        let base = sample_trace_bytes();
        let mut bytes = base.to_vec();
        let idx = pos % bytes.len();
        bytes[idx] = val;
        match MemTrace::from_bytes(&bytes) {
            Ok(trace) => {
                let _ = trace.replay(&MemHierarchyConfig::uncached());
                indexed_replay_matches(&trace)?;
            }
            Err(e) => {
                if idx == 8 && val > 2 {
                    prop_assert_eq!(e, TraceError::UnsupportedVersion { found: val });
                }
            }
        }
    }

    #[test]
    fn truncated_spliced_spec_json_never_panics(
        which in 0usize..4,
        cut in 0usize..512,
        tail in garbage(24),
    ) {
        let base = sample_spec_json(which);
        // The emitted JSON is pure ASCII, so any byte index is a char
        // boundary.
        let mut text = base[..cut.min(base.len())].to_string();
        text.push_str(&tail);
        let _ = MemArchSpec::from_json(&text);
    }

    #[test]
    fn arbitrary_profile_streams_never_panic(text in garbage(240)) {
        let _ = check_stream(&text);
    }

    #[test]
    fn truncated_spliced_profile_streams_never_panic(
        cut in 0usize..1024,
        tail in garbage(24),
    ) {
        let base = SAMPLE_PROFILE;
        let mut text = base[..cut.min(base.len())].to_string();
        text.push_str(&tail);
        let _ = check_stream(&text);
    }

    #[test]
    fn arbitrary_checkpoint_streams_never_panic(text in garbage(240)) {
        let _ = check_checkpoint(&text);
    }

    #[test]
    fn checkpoint_records_round_trip_exactly(rec in any_record()) {
        // A record reads back equal (energy bit for bit) and writes back
        // the same bytes, so a resume or a merge never alters a point.
        let line = rec.to_json_line();
        prop_assert!(!line.contains('\n'), "one record per line");
        let back = PointRecord::from_json_line(&line);
        prop_assert_eq!(back.as_ref(), Some(&rec));
        prop_assert_eq!(back.map(|b| b.to_json_line()), Some(line));
    }

    #[test]
    fn arbitrary_grid_json_never_panics(text in garbage(240)) {
        let _ = GridSpec::from_json(&text);
    }

    #[test]
    fn truncated_spliced_grid_json_never_panics(
        which in 0usize..3,
        cut in 0usize..512,
        tail in garbage(24),
    ) {
        let base = sample_grid_json(which);
        // The emitted JSON is pure ASCII, so any byte index is a char
        // boundary.
        let mut text = base[..cut.min(base.len())].to_string();
        text.push_str(&tail);
        let _ = GridSpec::from_json(&text);
    }

    #[test]
    fn arbitrary_shard_streams_never_panic_in_merge(
        a in garbage(240),
        b in garbage(240),
    ) {
        let _ = merge_texts(&[&a]);
        let _ = merge_texts(&[&a, &b]);
    }

    #[test]
    fn truncated_spliced_shard_streams_never_panic_in_merge(
        cut in 0usize..512,
        tail in garbage(24),
    ) {
        let base = sample_shard_stream();
        let mut text = base[..cut.min(base.len())].to_string();
        text.push_str(&tail);
        let _ = merge_texts(&[&text]);
        let _ = merge_texts(&[&text, &base]);
    }

    #[test]
    fn intact_documents_still_round_trip(which in 0usize..4) {
        // The hardening must not have cost any accepting power.
        let base = sample_spec_json(which);
        let spec = MemArchSpec::from_json(&base).expect("valid spec parses");
        prop_assert_eq!(spec.to_json(), base);
        let summary = check_stream(SAMPLE_PROFILE).expect("valid profile stream passes");
        prop_assert_eq!(summary.span_opens, 2);
        prop_assert_eq!(summary.progress, 1);
    }

    #[test]
    fn intact_grids_still_round_trip(which in 0usize..3) {
        let base = sample_grid_json(which);
        let grid = GridSpec::from_json(&base).expect("valid grid parses");
        prop_assert_eq!(grid.to_json(), base);
    }
}

/// Nesting a million brackets deep is a typed parse error in every text
/// reader, not a stack overflow (which would abort the process).
#[test]
fn deeply_nested_json_is_rejected_without_overflow() {
    let deep = "[".repeat(1_000_000);
    assert!(MemArchSpec::from_json(&deep).is_err());
    assert!(GridSpec::from_json(&deep).is_err());
    assert!(check_checkpoint(&deep).is_err());
    assert!(merge_texts(&[&deep]).is_err());
    assert!(check_stream(&deep).is_err());
}

/// A hand-edited line whose fields contradict its status — an ok line
/// carrying an error, a failed line carrying cycles — is malformed: no
/// reader or merge rewrites it into something else.
#[test]
fn contradictory_checkpoint_lines_are_malformed() {
    let stream = sample_shard_stream();
    let (header, failed) = stream.trim_end().split_once('\n').expect("header + record");
    assert!(PointRecord::from_json_line(failed).is_some());
    let edits = [
        failed.replacen("\"status\":\"failed\"", "\"status\":\"ok\"", 1),
        failed.replacen("\"sim_cycles\":0", "\"sim_cycles\":5", 1),
    ];
    for edited in &edits {
        assert_ne!(edited, failed, "the edit applies");
        assert_eq!(PointRecord::from_json_line(edited), None, "{edited}");
        // Mid-stream, the edit fails the lenient read behind every merge
        // and the strict gate alike.
        let text = format!("{header}\n{edited}\n{failed}\n");
        let merged = merge_texts(&[&text]).expect_err("merge rejects the stream");
        let checked = check_checkpoint(&text).expect_err("the gate rejects the stream");
        for err in [merged, checked] {
            assert!(err.contains("line 2: malformed point record"), "{err}");
        }
    }
}

/// Any trace version but 2 is a typed error, not a panic or a
/// misinterpretation: a future v3 stream, a zero byte, and a retired v1
/// stream alike.
#[test]
fn trace_version_mismatch_is_typed() {
    let mut bytes = sample_trace_bytes().to_vec();
    assert_eq!(bytes[8], 2, "sample stream is v2");
    for version in [3, 0] {
        bytes[8] = version;
        assert_eq!(
            MemTrace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion { found: version })
        );
    }
    // A hand-crafted v1 stream: magic, version byte 1, the 30 header
    // words, zero events.
    let mut v1 = b"SPMTRACE".to_vec();
    v1.push(1);
    for w in [u64::MAX, 1_000].into_iter().chain([0; 29]) {
        v1.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(
        MemTrace::from_bytes(&v1),
        Err(TraceError::UnsupportedVersion { found: 1 })
    );
    // And the hardening cost no accepting power: the intact stream
    // still decodes.
    assert!(MemTrace::from_bytes(sample_trace_bytes()).is_ok());
}
