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
use spmlab::dse::{merge_texts, GridSpec};
use spmlab::{check_checkpoint, MemArchSpec};
use spmlab_bench::jsonl::check_stream;
use spmlab_isa::cachecfg::CacheConfig;
use spmlab_isa::hierarchy::MemHierarchyConfig;
use spmlab_sim::{MemTrace, TraceError};

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
    let rec = spmlab::checkpoint::PointRecord::from_failure(
        0,
        spmlab::checkpoint::spec_hash(&axis[0].canonical()),
        "uncached",
        "synthetic",
        false,
    );
    format!("{}\n{}\n", header.to_json_line(), rec.to_json_line())
}

/// A valid recorded profile stream: nested spans plus one event of
/// every other kind.
const SAMPLE_PROFILE: &str = r#"{"ev":"meta","version":1}
{"ev":"span_open","id":1,"parent":null,"name":"experiment","label":"hierarchy \"q\"","t_ns":10,"tid":1}
{"ev":"span_open","id":2,"parent":1,"name":"simulate","label":"g721","t_ns":12,"tid":1}
{"ev":"counter","name":"sim_instructions","delta":42,"t_ns":13,"tid":1}
{"ev":"span_close","id":2,"t_ns":20,"tid":1}
{"ev":"gauge","name":"points","value":8,"t_ns":21,"tid":1}
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
    /// decode error or a structurally valid trace whose replay — on a
    /// write-through and a write-back machine — returns without
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
        }
    }

    /// Flipping single bytes anywhere in a valid stream (magic, version,
    /// header words, event payloads) never panics the decoder, and a
    /// corrupted version byte specifically is the typed
    /// [`TraceError::UnsupportedVersion`].
    #[test]
    fn bitflipped_trace_bytes_never_panic(pos in 0usize..4096, val in 0u8..=255) {
        let base = sample_trace_bytes();
        let mut bytes = base.to_vec();
        let idx = pos % bytes.len();
        bytes[idx] = val;
        match MemTrace::from_bytes(&bytes) {
            Ok(trace) => {
                let _ = trace.replay(&MemHierarchyConfig::uncached());
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

/// A future trace version is a typed error, not a panic or a
/// misinterpretation: decoders built for v1/v2 must refuse v3 streams.
#[test]
fn trace_version_mismatch_is_typed() {
    let mut bytes = sample_trace_bytes().to_vec();
    assert_eq!(bytes[8], 2, "sample stream is v2");
    bytes[8] = 3;
    assert_eq!(
        MemTrace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion { found: 3 })
    );
    bytes[8] = 0;
    assert_eq!(
        MemTrace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion { found: 0 })
    );
    // And the hardening cost no accepting power: the intact stream
    // still decodes.
    assert!(MemTrace::from_bytes(sample_trace_bytes()).is_ok());
}
