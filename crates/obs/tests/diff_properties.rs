//! Property tests for the document diff: comparing any well-formed
//! `rvhpc-metrics/1` document against itself must always be clean — no
//! regressions and no mismatches, at any threshold configuration.

use proptest::prelude::*;
use rvhpc_obs::{diff_any, json::JsonValue, metrics, DiffConfig, LatencyHistogram};

/// Build a metrics document with one synthetic loadgen-shaped section
/// per seed: zero error/drop counters, a throughput, and a latency
/// histogram over a deterministic sample spread derived from the seed.
fn synth_doc(section_seeds: &[u64]) -> JsonValue {
    let mut doc = metrics::document("proptest");
    let sections = section_seeds.iter().enumerate().map(|(i, &seed)| {
        let mut hist = LatencyHistogram::new();
        // Every fifth section is an empty histogram (all-zero ladder).
        let samples = if seed % 5 == 0 { 0 } else { 1 + seed % 64 };
        for k in 0..samples {
            hist.record(seed % 1_000_000 + k * (seed % 997 + 1));
        }
        let section = JsonValue::object([
            ("ok".to_string(), JsonValue::from(samples)),
            ("errors".to_string(), JsonValue::from(0u64)),
            ("dropped".to_string(), JsonValue::from(0u64)),
            (
                "throughput_rps".to_string(),
                JsonValue::from((seed % 977 + 1) as f64 / 3.0),
            ),
            ("latency".to_string(), hist.to_json()),
        ]);
        (format!("section_{i}"), section)
    });
    if let JsonValue::Object(map) = &mut doc {
        map.extend(sections);
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// diff(doc, doc) is always clean, for any document shape and any
    /// threshold configuration.
    #[test]
    fn self_diff_is_always_clean(
        seeds in prop::collection::vec(0u64..u64::MAX, 1usize..12),
        ratio_milli in 1000u64..5000,
        floor in 0u64..100_000,
        strict_bit in 0u64..2,
    ) {
        let doc = synth_doc(&seeds);
        let cfg = DiffConfig {
            max_quantile_ratio: ratio_milli as f64 / 1000.0,
            floor_us: floor as f64,
            strict: strict_bit == 1,
            class_slos: Vec::new(),
        };
        let report = diff_any(&doc, &doc.clone(), &cfg);
        prop_assert!(!report.has_regressions(), "{}", report.render());
        prop_assert!(!report.has_mismatches(), "{}", report.render());
    }

    /// Serialize/parse round-trips preserve the self-diff property: a
    /// document read back from disk must still diff clean against the
    /// in-memory original.
    #[test]
    fn self_diff_survives_json_roundtrip(
        seeds in prop::collection::vec(0u64..u64::MAX, 1usize..6),
    ) {
        let doc = synth_doc(&seeds);
        let reparsed = rvhpc_obs::json::parse(&doc.to_json()).expect("round-trip");
        let report = diff_any(&doc, &reparsed, &DiffConfig::default());
        prop_assert!(!report.has_regressions(), "{}", report.render());
        prop_assert!(!report.has_mismatches(), "{}", report.render());
    }
}
