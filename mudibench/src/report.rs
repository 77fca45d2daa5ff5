//! What a workload run hands back: metric values by registry name,
//! workload figures, and the tally of operations and correctness checks.

use crate::spans::Spans;

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations (and correctness checks) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure kind.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("{failed} of {n} {what} failed"));
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Registry metric values, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload figures outside the registry (printed, not gated):
    /// name, value, unit.
    pub figures: Vec<(&'static str, f64, &'static str)>,
    /// Operations and checks.
    pub tally: Tally,
    /// Engine lanes the session resolved.
    pub lanes: usize,
    /// Lane workers the session resolved.
    pub workers: usize,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
    /// The run's fingerprint line, printed for re-pinning.
    pub fingerprint: Option<String>,
}

impl Report {
    /// Sets a registry metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::manifest::find(name).is_some(),
            "metric {name} is not in the registry"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Adds a workload figure.
    pub fn figure(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.figures.push((name, value, unit));
    }
}

/// Describes a caught panic from inside the program.
pub fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into());
    format!("the program panicked: {msg}")
}
