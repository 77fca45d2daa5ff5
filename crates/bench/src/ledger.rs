//! The committed-ledger harness shared by `perf_kernel`, `fig22_scale`
//! and `fig23_llm_mix`: one writer, one line parser, one regression
//! gate and one golden-fingerprint check.
//!
//! A ledger (`BENCH_*.json` at the repo root) is a JSON object holding
//! one list of flat row objects, one row per line, plus a few trailer
//! fields; [`write()`] lays it out and each binary formats only its rows.
//! `--gate` reads the committed copy before the fresh run overwrites
//! it, matches each fresh row to its committed row by key, and fails
//! when a gated metric falls below [`MIN_RATIO`] of the committed
//! value. Which fields key a row and which metrics are gated belongs to
//! each binary; this module holds the layout, the line parser and the
//! verdict.

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

/// Writes the ledger at `path`: an object whose `list_key` holds
/// `rows` (each a pre-formatted flat JSON object, one per line)
/// followed by the `trailer` fields (pre-formatted JSON values), in
/// order. Panics when the file cannot be written.
pub fn write(path: &str, list_key: &str, rows: &[String], trailer: &[(&str, String)]) {
    let mut json = format!("{{\n  \"{list_key}\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("    {row}{comma}\n"));
    }
    json.push_str("  ]");
    for (key, value) in trailer {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Compares `actual` with the golden file at `path`, or records it
/// there under `MUDI_BLESS=1`. `check` (e.g. `perf_kernel --check`)
/// prefixes every message; a drift panics with both texts.
pub fn check_golden(check: &str, path: &str, actual: &str) {
    if simcore::env::flag("MUDI_BLESS") {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{check}: fingerprints recorded\n{actual}");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; record with MUDI_BLESS=1"));
    assert!(
        expected == actual,
        "{check}: fingerprints drifted.\n\
         The kernel's simulated results changed; if intentional, re-record\n\
         with MUDI_BLESS=1.\n--- expected ---\n{expected}--- actual ---\n{actual}"
    );
    println!("{check}: all fingerprints match\n{actual}");
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

    /// What `write` lays out, `read` gets back row by row, with the
    /// trailer fields after the list.
    #[test]
    fn written_ledger_reads_back() {
        let path =
            std::env::temp_dir().join(format!("ledger-round-trip-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let rows: Vec<String> = [("a", 1.5), ("b", 20.0)]
            .iter()
            .map(|(shape, sps)| format!("{{\"shape\": \"{shape}\", \"steps_per_sec\": {sps:.1}}}"))
            .collect();
        write(path, "shapes", &rows, &[("samples", "3".to_string())]);
        let written = std::fs::read_to_string(path).expect("ledger written");
        let back = read(path, |l| {
            Some((text(l, "shape")?.to_string(), number(l, "steps_per_sec")?))
        });
        std::fs::remove_file(path).expect("remove temp ledger");
        assert_eq!(back, vec![("a".to_string(), 1.5), ("b".to_string(), 20.0)]);
        assert_eq!(
            written,
            "{\n  \"shapes\": [\n    {\"shape\": \"a\", \"steps_per_sec\": 1.5},\n    \
             {\"shape\": \"b\", \"steps_per_sec\": 20.0}\n  ],\n  \"samples\": 3\n}\n"
        );
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
