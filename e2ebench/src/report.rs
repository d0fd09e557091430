//! Collects a run's metrics and operation counts and prints them: one
//! human-readable line per metric, then the one-line JSON result.

use rvhpc_obs::json::JsonValue;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Count `attempted` operations of which `failed` failed, were shed,
    /// timed out or gave a wrong output.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a correctness problem; the run is then reported incorrect.
    pub fn problem(&mut self, what: String) {
        eprintln!("e2ebench: {what}");
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Print every metric, the operation counts and the verdict, ending
    /// with the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "ops: attempted {} succeeded {} failed {} (fail_frac {frac:.6}); outputs {}",
            self.attempted,
            self.attempted - self.failed.min(self.attempted),
            self.failed,
            if self.correct() { "correct" } else { "WRONG" }
        );
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            (
                name.clone(),
                JsonValue::object([
                    ("value".to_string(), JsonValue::from(v)),
                    ("unit".to_string(), JsonValue::from(*unit)),
                ]),
            )
        });
        let doc = JsonValue::object([
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            ("attempted".to_string(), JsonValue::from(self.attempted)),
            ("failed".to_string(), JsonValue::from(self.failed)),
            ("metrics".to_string(), JsonValue::object(metrics)),
        ]);
        println!("{}", doc.to_json());
    }
}
