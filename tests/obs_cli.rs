//! CLI-contract tests for the observability binaries: `obsdiff` and
//! `obshealth` are driven as real subprocesses (via `CARGO_BIN_EXE_*`)
//! against the committed artifacts under `results/`, pinning the exit
//! codes CI scripts rely on:
//!
//! - `0` healthy / no regression, `1` SLO failing / regression,
//!   `2` malformed or incomparable documents (including a required
//!   metrics section missing), `3` usage error.
//!
//! The 1-vs-2 split is the load-bearing part: gates must be able to
//! tell "the build got slower / the server is breaching its SLOs" from
//! "you evaluated the wrong files".

use std::path::{Path, PathBuf};
use std::process::Command;

use rvhpc::obs::{json, JsonValue};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Run `bin args...` and return (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    (
        out.status.code().expect("binary exited with a code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Scratch directory for doctored documents, unique per test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvhpc_obs_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn write_doc(path: &Path, doc: &JsonValue) {
    std::fs::write(path, doc.to_json() + "\n").expect("write scratch doc");
}

#[test]
fn help_exits_zero_and_names_exit_codes() {
    for bin in [
        env!("CARGO_BIN_EXE_obsdiff"),
        env!("CARGO_BIN_EXE_obshealth"),
    ] {
        let (code, stdout, _) = run(bin, &["--help"]);
        assert_eq!(code, 0, "{bin} --help must exit 0");
        assert!(stdout.contains("usage:"), "{bin} --help prints usage");
        assert!(
            stdout.contains("exit codes:"),
            "{bin} --help documents its exit codes"
        );
    }
}

#[test]
fn usage_errors_exit_three() {
    let (code, _, stderr) = run(env!("CARGO_BIN_EXE_obshealth"), &[]);
    assert_eq!(code, 3, "missing --rules is a usage error: {stderr}");
    let (code, _, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &["--rules", "results/slo_rules.json", "--bogus"],
    );
    assert_eq!(code, 3, "unknown flag is a usage error: {stderr}");
    let (code, _, stderr) = run(env!("CARGO_BIN_EXE_obsdiff"), &["only-one.json"]);
    assert_eq!(code, 3, "one positional path is a usage error: {stderr}");
}

/// The committed rules pass against the committed QoS baseline — this is
/// the exact invocation the CI health gate runs.
#[test]
fn obshealth_committed_rules_pass_qos_baseline() {
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &[
            "--rules",
            "results/slo_rules.json",
            "--doc",
            "results/qos_baseline_metrics.json",
        ],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("obs-health: OK"), "{stdout}");
}

/// Tightening a ceiling to an impossible value flips the verdict to
/// failing (exit 1) — the breach path, distinct from mismatch (exit 2).
#[test]
fn obshealth_tightened_rules_fail_with_exit_one() {
    let rules_text =
        std::fs::read_to_string(repo_path("results/slo_rules.json")).expect("read rules");
    let mut rules = json::parse(rules_text.trim()).expect("rules parse");
    if let JsonValue::Object(doc) = &mut rules {
        if let Some(JsonValue::Array(items)) = doc.get_mut("rules") {
            for rule in items.iter_mut() {
                if rule.get("name").and_then(JsonValue::as_str) != Some("interactive-p99") {
                    continue;
                }
                if let JsonValue::Object(map) = rule {
                    if let Some(JsonValue::Number(v)) = map.get_mut("max_us") {
                        *v = 1.0;
                    }
                }
            }
        }
    }
    let path = scratch("tight_rules.json");
    write_doc(&path, &rules);
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &[
            "--rules",
            &path.display().to_string(),
            "--doc",
            "results/qos_baseline_metrics.json",
        ],
    );
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("obs-health: FAILING"), "{stdout}");
    assert!(stdout.contains("BREACH interactive-p99"), "{stdout}");
}

/// Malformed rules and a metrics document missing a required section
/// both land on exit 2, never 1: these are evaluation errors, not
/// breaches.
#[test]
fn obshealth_bad_inputs_exit_two() {
    let path = scratch("bad_rules.json");
    std::fs::write(&path, "{\"schema\": \"not-slo\", \"rules\": []}\n").unwrap();
    let (code, _, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &[
            "--rules",
            &path.display().to_string(),
            "--doc",
            "results/qos_baseline_metrics.json",
        ],
    );
    assert_eq!(code, 2, "bad rules schema: {stderr}");

    // The plain serve baseline has no per-class sections, so the
    // required class_p99_ceiling rules mismatch.
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &[
            "--rules",
            "results/slo_rules.json",
            "--doc",
            "results/baseline_metrics.json",
        ],
    );
    assert_eq!(code, 2, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("MISMATCH"), "{stdout}");
}

/// `--out` writes a versioned rvhpc-health/1 verdict document.
#[test]
fn obshealth_out_writes_versioned_verdict() {
    let out = scratch("verdict.json");
    let (code, _, stderr) = run(
        env!("CARGO_BIN_EXE_obshealth"),
        &[
            "--rules",
            "results/slo_rules.json",
            "--doc",
            "results/qos_baseline_metrics.json",
            "--out",
            &out.display().to_string(),
        ],
    );
    assert_eq!(code, 0, "{stderr}");
    let text = std::fs::read_to_string(&out).expect("verdict written");
    let doc = json::parse(text.trim()).expect("verdict parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("rvhpc-health/1")
    );
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "{text}"
    );
}

/// The committed serve baseline self-diffs clean — the metrics-gate
/// invocation CI runs, with the baseline on both sides.
#[test]
fn obsdiff_metrics_self_diff_is_clean() {
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_obsdiff"),
        &[
            "results/baseline_metrics.json",
            "results/baseline_metrics.json",
        ],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("rvhpc-metrics/1"), "{stdout}");
    assert!(stdout.contains("obs-diff: OK"), "{stdout}");
}

/// Every p99 blown up 10x, well above the default 200 us floor,
/// regresses against the committed baseline (exit 1).
#[test]
fn obsdiff_metrics_regression_exits_one() {
    fn scale_p99(v: &mut JsonValue) {
        if let JsonValue::Object(map) = v {
            for (key, child) in map.iter_mut() {
                match child {
                    JsonValue::Number(n) if key == "p99_us" => *n *= 10.0,
                    _ => scale_p99(child),
                }
            }
        }
    }
    let text =
        std::fs::read_to_string(repo_path("results/baseline_metrics.json")).expect("read baseline");
    let mut doctored = json::parse(text.trim()).expect("baseline parses");
    scale_p99(&mut doctored);
    let path = scratch("slow_metrics.json");
    write_doc(&path, &doctored);
    let (code, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_obsdiff"),
        &["results/baseline_metrics.json", &path.display().to_string()],
    );
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("REGRESSION loadgen.latency.p99_us"),
        "{stdout}"
    );
}

/// A document with any other schema tag is incomparable (exit 2), not a
/// regression — on either side of the diff.
#[test]
fn obsdiff_other_schema_exits_two() {
    let text =
        std::fs::read_to_string(repo_path("results/baseline_metrics.json")).expect("read baseline");
    let mut other = json::parse(text.trim()).expect("baseline parses");
    if let JsonValue::Object(map) = &mut other {
        map.insert("schema".to_string(), JsonValue::from("rvhpc-other/1"));
    }
    let path = scratch("other_schema.json");
    write_doc(&path, &other);
    let other = path.display().to_string();
    for args in [
        ["results/baseline_metrics.json", other.as_str()],
        [other.as_str(), "results/baseline_metrics.json"],
    ] {
        let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_obsdiff"), &args);
        assert_eq!(code, 2, "stdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(stdout.contains("MISMATCH schema"), "{stdout}");
    }
}
