//! What a run prints: readable lines as it goes, then one JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of the result line, by name, in the order `BENCHMARK.json`
/// declares them: `(name, unit)`.
pub type Declared = &'static [(&'static str, &'static str)];

/// Collects checks and metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: driver calls, plus ladder rungs.
    pub attempted: u64,
    /// Failed correctness checks, one line each.
    failures: Vec<String>,
    /// Metrics for the result line.
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one correctness check; a failure is printed at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            println!("FAILED {line}");
            self.failures.push(line);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// A declared metric of the result line; also printed as a readable
    /// line, with the unit it is declared with.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        detail(name, value, crate::unit_of(name));
        self.metrics.insert(name, value);
    }

    /// The result line over `declared`, and whether every check passed.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never measured: that is a bug in the
    /// workload, not a result.
    pub fn result_line(&self, declared: Declared) -> (String, bool) {
        let correct = self.failures.is_empty();
        let mut line = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted,
            self.failed()
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is {value}");
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                line,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        line.push_str("}}");
        (line, correct)
    }
}

/// Prints one readable metric line: `metric <name> <value> <unit>`.
pub fn detail(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value} {unit}");
}

/// Prints a readable line for a metric that does not apply to the workload.
pub fn not_applicable(name: &str, unit: &str, why: &str) {
    println!("metric {name} n/a {unit} ({why})");
}

/// Prints a timing's median and the highest percentile with at least ten
/// samples beyond it, with the sample count.
pub fn timing(name: &str, values: &mut [f64], unit: &str) {
    let count = values.len();
    println!("# {name} samples: {values:?}");
    let median = crate::stats::median(values);
    match crate::stats::tail_percentile(count as u64) {
        Some(p) => println!(
            "# {name}: median {median} {unit}, p{p} {} {unit}, {count} samples",
            crate::stats::percentile(values, p)
        ),
        None => println!(
            "# {name}: median {median} {unit}, {count} samples (too few for a tail percentile)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("run_s", 1.25);
        report.metric("setup_s", 0.5);
        report.metric("sim.events", 7.0);
        let (line, correct) = report.result_line(&[("setup_s", "s"), ("run_s", "s")]);
        assert!(correct);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"run_s":{"value":1.25,"unit":"s"}}}"#
        );
        report.check(false, || "broken".to_string());
        let (line, correct) = report.result_line(&[("run_s", "s")]);
        assert!(!correct);
        assert!(line.starts_with(r#"{"correct":false,"attempted":3,"failed":1,"#));
    }

    #[test]
    #[should_panic(expected = "metric cpu_s was not measured")]
    fn a_declared_metric_must_be_measured() {
        let _ = Report::default().result_line(&[("cpu_s", "s")]);
    }
}
