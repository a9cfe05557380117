//! Result collection and the output format.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. Everything else a
//! run knows (host, build, backends, sample counts, check details) goes on
//! the line before it, as `{"info": {...}}`, and in a readable table.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One named correctness check.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    info: BTreeMap<String, Value>,
    checks: Vec<Check>,
    /// Operations attempted (requests, jobs, pipeline stages).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Record a metric. Re-recording a name replaces the value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record a metric that is an order statistic over `samples` values.
    pub fn metric_n(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metric(name, value, unit);
        self.info(&format!("samples.{name}"), json!(samples as u64));
    }

    /// Record a free-form fact about the run.
    pub fn info(&mut self, key: &str, value: Value) {
        self.info.insert(key.to_string(), value);
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Count one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Whether every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// Keep only the metrics named in `keep` (`BENCHMARK.json`'s list for this
    /// mode); fail a check for any named metric that was not measured.
    pub fn restrict_to(&mut self, keep: &[(&str, &str)]) {
        let missing: Vec<&str> = keep
            .iter()
            .filter(|(name, _)| self.get(name).is_none_or(|v| !v.is_finite()))
            .map(|(name, _)| *name)
            .collect();
        self.check(
            "every_metric_measured",
            missing.is_empty(),
            format!("missing or non-finite: {missing:?}"),
        );
        self.metrics
            .retain(|(n, _, _)| keep.iter().any(|(name, _)| name == n));
        for (name, unit) in keep {
            if let Some(m) = self.metrics.iter_mut().find(|(n, _, _)| n == name) {
                m.2 = unit.to_string();
            }
        }
    }

    /// Print the readable table, the info line, and the result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            println!("check {mark} {} {}", c.name, c.detail);
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let checks = self
            .checks
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    json!({"ok": c.ok, "detail": c.detail.clone()}),
                )
            })
            .collect();
        let mut info: Vec<(String, Value)> = self.info.clone().into_iter().collect();
        info.push(("checks".into(), Value::Object(checks)));
        println!("{}", json!({ "info": Value::Object(info) }));
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| (n.clone(), json!({"value": *v, "unit": u.clone()})))
            .collect();
        println!(
            "{}",
            json!({
                "correct": self.correct(),
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": Value::Object(metrics),
            })
        );
    }
}
