//! One run's result: counted operations, metrics, and the two JSON lines
//! the run prints (a record of the inputs and host, then the result).

use crate::catalog;
use lv_trace::json::{fmt_f64, JsonObject};

/// Operations, metrics and notes collected by one workload run.
pub struct Report {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, usize)>,
    notes: JsonObject,
}

impl Report {
    /// An empty report for `workload` (`traced`: the per-layer run).
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: JsonObject::new(),
        }
    }

    /// Counts one attempted operation or correctness check; a failure is
    /// logged with `what` and makes the run incorrect.  Returns `ok`.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
        ok
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: FAILED: {failed} of {attempted} {what}");
        }
    }

    /// Whether every operation and check so far succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records metric `name` (a catalogued name) measured over `samples`
    /// samples.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalog (a bug in the benchmark).
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(catalog::unit(name).is_some(), "metric '{name}' is not in the catalog");
        self.metrics.push((name, value, samples));
    }

    /// Adds a note to the record line (a pre-rendered JSON value).
    pub fn note(&mut self, key: &str, value: &str) {
        let notes = std::mem::take(&mut self.notes);
        self.notes = notes.raw(key, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.value(name).map(|(v, _)| v)
    }

    fn value(&self, name: &str) -> Option<(f64, usize)> {
        self.metrics.iter().rev().find(|(n, _, _)| *n == name).map(|&(_, v, s)| (v, s))
    }

    /// The record line: seed, host, sample counts and, for the traced run,
    /// what each per-layer metric should move.
    pub fn record_line(&self, seed: u64) -> String {
        let mut samples = JsonObject::new();
        let mut moves = JsonObject::new();
        for name in catalog::expected_metrics(self.traced) {
            if let Some((_, count)) = self.value(name) {
                samples = samples.usize(name, count);
            }
            if let Some(target) = catalog::moves(name) {
                moves = moves.str(name, target);
            }
        }
        let mut record = JsonObject::new()
            .str("workload", self.workload)
            .u64("seed", seed)
            .u64("trace", self.traced as u64)
            .object("samples", samples);
        if self.traced {
            record = record.object("moves", moves);
        }
        let notes = self.notes.clone();
        JsonObject::new().object("record", record.object("notes", notes)).finish()
    }

    /// The result line (the last line of standard output).  A metric that
    /// is missing (the workload stopped at a failure) or came out
    /// non-finite counts as a failed operation.
    pub fn result_line(&mut self) -> String {
        let mut metrics = JsonObject::new();
        for name in catalog::expected_metrics(self.traced) {
            let Some((value, _)) = self.value(name) else {
                self.check(false, &format!("{} reported no '{name}'", self.workload));
                continue;
            };
            self.check(value.is_finite(), &format!("{name} is not finite"));
            let unit = catalog::unit(name).expect("catalogued");
            let rendered = JsonObject::new().raw("value", &fmt_f64(value)).str("unit", unit);
            metrics = metrics.object(name, rendered);
        }
        JsonObject::new()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .object("metrics", metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_and_carries_every_metric() {
        let mut report = Report::new(catalog::FLEET, false);
        for (i, name) in catalog::expected_metrics(false).into_iter().enumerate() {
            report.metric(name, 1.5 + i as f64, 3);
        }
        report.check(true, "ok");
        let line = report.result_line();
        let doc = serde_json::from_str(&line).expect("result line parses");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let metrics = doc.get("metrics").and_then(|v| v.as_object()).expect("metrics");
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
        for (name, value) in metrics {
            assert!(catalog::valid_metric_name(name));
            assert!(value.get("value").and_then(|v| v.as_f64()).is_some());
            assert_eq!(value.get("unit").and_then(|v| v.as_str()), catalog::unit(name));
        }
        assert!(serde_json::from_str(&report.record_line(7)).is_ok());
    }

    #[test]
    fn a_failed_check_or_non_finite_metric_fails_the_run() {
        let mut report = Report::new(catalog::FLEET, false);
        for name in catalog::expected_metrics(false) {
            report.metric(name, f64::NAN, 1);
        }
        let line = report.result_line();
        assert!(line.contains("\"correct\": false"), "{line}");
        let mut report = Report::new(catalog::FLEET, false);
        assert!(!report.check(false, "deliberate"));
        assert!(!report.correct());
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let line = Report::new(catalog::CAVITY, true).result_line();
        assert!(line.contains("\"correct\": false"), "{line}");
    }
}
