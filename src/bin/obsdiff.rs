//! Compare two versioned `rvhpc-metrics/1` documents for regressions.
//!
//! ```text
//! obsdiff results/baseline_metrics.json m.json     # default gate
//! obsdiff baseline.json current.json --ratio 1.5   # tighter quantile gate
//! obsdiff baseline.json current.json --floor-us 50 # lower noise floor
//! obsdiff baseline.json current.json --strict      # shape changes fail too
//! obsdiff base.json cur.json --class-slo interactive:2000000  # QoS p99 gate
//! ```
//!
//! Both documents must carry the `rvhpc-metrics/1` schema tag (serve,
//! loadgen and `reproduce --metrics` documents all do); any other tag is
//! a mismatch, not a regression. The first report line names the
//! baseline's schema tag and both file paths.
//!
//! Exit codes: `0` no regression, `1` regression found, `2` documents
//! unreadable, unparseable, or not comparable (a schema tag other than
//! `rvhpc-metrics/1`, latency sections with different layout versions),
//! `3` usage error. CI relies on the 1-vs-2 split to tell "this build is
//! slower" from "you diffed the wrong files".

use rvhpc::obs::{diff_any, doc_kind, DiffConfig, JsonValue};

fn usage_text() -> &'static str {
    "usage: obsdiff BASELINE.json CURRENT.json [--ratio R] [--floor-us N]\n\
     \x20              [--strict] [--class-slo CLASS:P99_US]...\n\
     \x20 BASELINE.json: reference rvhpc-metrics/1 document\n\
     \x20 CURRENT.json:  candidate rvhpc-metrics/1 document to gate\n\
     \x20 --ratio:       quantile regression ratio (default 2.0: fail when\n\
     \x20                current > baseline * ratio)\n\
     \x20 --floor-us:    ignore quantile growth below this absolute value\n\
     \x20                (default 200 us — scheduler noise on idle latencies)\n\
     \x20 --strict:      keys present on one side only are regressions\n\
     \x20 --class-slo:   absolute per-class p99 budget in us (repeatable), e.g.\n\
     \x20                'interactive:2000000': the CURRENT document must carry\n\
     \x20                a classes.CLASS.latency section with p99_us at or under\n\
     \x20                the budget (missing class = exit 2, busted = exit 1)\n\
     \x20 -h, --help:    print this help and exit\n\
     exit codes: 0 no regression, 1 regression, 2 malformed or\n\
     incomparable documents (bad JSON, a schema tag other than\n\
     rvhpc-metrics/1, layout-version mismatch), 3 usage error"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("obsdiff: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(3);
}

fn load(path: &str) -> JsonValue {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obsdiff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match rvhpc::obs::json::parse(text.trim()) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("obsdiff: {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut cfg = DiffConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ratio" => {
                cfg.max_quantile_ratio = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--ratio needs a numeric argument"));
            }
            "--floor-us" => {
                cfg.floor_us = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--floor-us needs a numeric argument"));
            }
            "--strict" => cfg.strict = true,
            "--class-slo" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage_error("--class-slo needs CLASS:P99_US"));
                let parsed = spec.split_once(':').and_then(|(class, budget)| {
                    let budget: f64 = budget.trim().parse().ok()?;
                    (!class.trim().is_empty() && budget >= 0.0)
                        .then(|| (class.trim().to_string(), budget))
                });
                match parsed {
                    Some(slo) => cfg.class_slos.push(slo),
                    None => usage_error(&format!(
                        "bad class SLO '{spec}' (expected CLASS:P99_US, e.g. interactive:2000000)"
                    )),
                }
            }
            "-h" | "--help" => {
                println!("{}", usage_text());
                return;
            }
            other if other.starts_with('-') => usage_error(&format!("unknown argument '{other}'")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        usage_error("expected exactly two documents: BASELINE.json CURRENT.json");
    };
    if cfg.max_quantile_ratio < 1.0 {
        usage_error("--ratio must be at least 1.0");
    }

    let baseline = load(baseline_path);
    let current = load(current_path);

    let kind = doc_kind(&baseline).unwrap_or("<no schema tag>");
    println!("obsdiff: {kind} — baseline {baseline_path} vs current {current_path}");

    let report = diff_any(&baseline, &current, &cfg);
    print!("{}", report.render());
    if report.has_mismatches() {
        std::process::exit(2);
    }
    if report.has_regressions() {
        std::process::exit(1);
    }
}
