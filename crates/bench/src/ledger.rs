//! The committed-ledger regression gate shared by `perf_kernel --gate`
//! and `fig22_scale --gate`.
//!
//! A ledger (`BENCH_*.json` at the repo root) is written by its binary
//! with one flat JSON object per line. `--gate` reads the committed copy
//! before the fresh run overwrites it, matches each fresh row to its
//! committed row by key, and fails when a gated metric falls below
//! [`MIN_RATIO`] of the committed value. Which fields key a row and
//! which metrics are gated belongs to each binary; this module holds the
//! line parser and the verdict.

/// A gated metric must reach this fraction of its committed value:
/// a drop of more than 20 % fails the gate.
pub const MIN_RATIO: f64 = 0.80;

/// The number in `"key": <number>` on one ledger line.
pub fn number(line: &str, key: &str) -> Option<f64> {
    line.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
}

/// The string in `"key": "<text>"` on one ledger line.
pub fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(&format!("\"{key}\": \""))
        .nth(1)
        .and_then(|s| s.split('"').next())
}

/// Reads the ledger at `path`, keeping every line `row` accepts. A
/// missing ledger yields no rows, so every fresh row reports as
/// ungated.
pub fn read<T>(path: &str, row: impl Fn(&str) -> Option<T>) -> Vec<T> {
    std::fs::read_to_string(path)
        .map(|t| t.lines().filter_map(row).collect())
        .unwrap_or_default()
}

/// The gate's verdict over one run's fresh rows.
pub struct Gate {
    name: &'static str,
    failures: Vec<String>,
}

impl Gate {
    /// An empty verdict; `name` prefixes every line it prints.
    pub fn new(name: &'static str) -> Self {
        Gate {
            name,
            failures: Vec::new(),
        }
    }

    /// Names a fresh row with no committed reference. Printed, never a
    /// failure.
    pub fn ungated(&self, row: &str) {
        println!("ungated: {row}");
    }

    /// Records a failure when `now` fell below [`MIN_RATIO`] of the
    /// committed `was`.
    pub fn check(&mut self, row: &str, metric: &str, now: f64, was: f64) {
        if now < was * MIN_RATIO {
            self.failures.push(format!(
                "{row}: {metric} {now:.2} vs committed {was:.2} ({:.0}% of reference)",
                100.0 * now / was
            ));
        }
    }

    /// Prints the verdict. A regression exits with status 1, unless
    /// `MUDI_BENCH_NO_GATE=1` is set, which prints it and carries on.
    pub fn finish(self) {
        let name = self.name;
        if self.failures.is_empty() {
            println!("{name} gate: nothing regressed >20% from the committed ledger");
        } else if simcore::env::flag("MUDI_BENCH_NO_GATE") {
            println!("{name} gate: regressions ignored (MUDI_BENCH_NO_GATE=1):");
            for f in &self.failures {
                println!("  {f}");
            }
        } else {
            eprintln!("{name} gate: regressed >20% from the committed ledger:");
            for f in &self.failures {
                eprintln!("  {f}");
            }
            eprintln!("(set MUDI_BENCH_NO_GATE=1 to bypass on a noisy runner)");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_a_ledger_line() {
        let line = r#"    {"shape": "batch-tiny", "events": 57194, "steps_per_sec": 2480868, "sim_secs_per_wall_sec": 18738593},"#;
        assert_eq!(text(line, "shape"), Some("batch-tiny"));
        assert_eq!(number(line, "events"), Some(57194.0));
        assert_eq!(number(line, "steps_per_sec"), Some(2480868.0));
        assert_eq!(number(line, "sim_secs_per_wall_sec"), Some(18738593.0));
        assert_eq!(number(line, "missing"), None);
        assert_eq!(number(line, "shape"), None);
    }

    #[test]
    fn gate_fails_only_below_the_bound() {
        let mut gate = Gate::new("test");
        gate.check("at-bound", "steps/s", 80.0, 100.0);
        gate.check("above", "steps/s", 150.0, 100.0);
        assert!(gate.failures.is_empty());
        gate.check("below", "steps/s", 79.9, 100.0);
        assert_eq!(gate.failures.len(), 1);
        assert!(gate.failures[0].starts_with("below: steps/s 79.90"));
    }
}
