//! Operation counting, output checks and the result record.
//!
//! Every operation a workload attempts is counted here, every output
//! check is a counted operation too (a failed check is a failed
//! operation, never a silent number), and the run ends with one JSON
//! result line on stdout.

use std::fmt::Write as _;

/// Accumulates one run's counts, checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Counts of one load phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Operations sent (or started).
    pub sent: u64,
    /// Operations answered with a result.
    pub succeeded: u64,
    /// Operations that failed in transport or evaluation.
    pub failed: u64,
    /// Operations the system refused with an error value (overload,
    /// drain, rejection).
    pub refused: u64,
}

impl Report {
    /// Records a finished phase: prints its counts as a record line and
    /// adds them to the run totals. Refused operations count as failed.
    pub fn phase(&mut self, workload: &str, phase: &str, counts: PhaseCounts, extra: &str) {
        let lost = counts.sent - counts.succeeded - counts.failed - counts.refused;
        println!(
            "{{\"record\":\"phase\",\"workload\":\"{workload}\",\"phase\":\"{phase}\",\"sent\":{},\"succeeded\":{},\"failed\":{},\"refused\":{}{extra}}}",
            counts.sent, counts.succeeded, counts.failed + lost, counts.refused
        );
        self.attempted += counts.sent;
        self.failed += counts.failed + counts.refused + lost;
    }

    /// Records one output check as an operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        println!(
            "{{\"record\":\"check\",\"check\":\"{name}\",\"ok\":{ok},\"detail\":\"{}\"}}",
            escape(detail)
        );
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(name.to_string());
        }
    }

    /// Records a metric. A value that is not finite cannot be reported;
    /// it fails a check instead of printing a made-up number.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(
                &format!("finite:{name}"),
                false,
                &format!("{name} = {value}"),
            );
            self.metrics.push((name.to_string(), -1.0, unit));
            return;
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0
    }

    /// Prints every metric by name with its unit, then the result line
    /// (which must be the last line of stdout).
    pub fn finish(self) {
        for (name, value, unit) in &self.metrics {
            println!("# {name:<28} {value:>16.6} {unit}");
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_and_refusals_count_as_failed_operations() {
        let mut r = Report::default();
        r.phase(
            "w",
            "p",
            PhaseCounts {
                sent: 10,
                succeeded: 7,
                failed: 1,
                refused: 1,
            },
            "",
        );
        // One request never answered at all: lost, so failed too.
        assert_eq!((r.attempted, r.failed), (10, 3));
        r.check("c", true, "");
        assert_eq!((r.attempted, r.failed), (11, 3));
        assert!(!r.correct());
        let mut ok = Report::default();
        ok.check("c", true, "");
        assert!(ok.correct());
        ok.check("d", false, "mismatch");
        assert!(!ok.correct());
        assert_eq!(ok.failed, 1);
    }

    #[test]
    fn non_finite_metrics_fail_a_check() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "ms");
        assert!(!r.correct());
        assert_eq!(r.metrics[0].1, -1.0);
    }

    #[test]
    fn escape_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
