//! What one benchmark run reports: metrics, checks and metadata.

use fastflood_service::Json;
use fastflood_stats::Summary;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    Summary::from_slice(xs).map_or(0.0, |s| s.quantile(q))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (floods, jobs, searches) attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above it.
    pub lines: Vec<String>,
    /// Metadata recorded with the result.
    pub meta: Vec<(&'static str, Json)>,
}

impl Report {
    /// Records a metric for the final line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Counts one operation and checks it: a `Some(reason)` fails it.
    pub fn check_op(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(format!("{what}: {p}"));
        }
    }

    /// Records a check that is not an operation of its own (a run-level
    /// invariant); a failure marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Records metadata.
    pub fn meta(&mut self, key: &'static str, value: Json) {
        self.meta.push((key, value));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// The record written next to the run: metadata, metrics, failures.
    pub fn record_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = self.meta.clone();
        pairs.push(("correct", Json::Bool(self.correct())));
        pairs.push(("attempted", Json::num(self.attempted)));
        pairs.push(("failed", Json::num(self.failed)));
        pairs.push((
            "failures",
            Json::Arr(self.failures.iter().map(Json::str).collect()),
        ));
        pairs.push(("metrics", self.metrics_json()));
        Json::obj(pairs)
    }

    fn metrics_json(&self) -> Json {
        Json::obj(
            self.metrics
                .iter()
                .map(|m| {
                    let v = Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]);
                    (m.name, v)
                })
                .collect(),
        )
    }

    /// The final stdout line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted.max(1))),
            ("failed", Json::num(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .to_string()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A stable FNV-1a digest over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `x` in.
    pub fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.check_op("flood", None);
        r.metric("setup_s", 0.25, "s");
        let line = r.result_line();
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check_op("job 3", Some("digest mismatch".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
