//! Kernel performance ledger: steps/sec and simulated-seconds per
//! wall-second on fixed cluster shapes.
//!
//! Drives the staged kernel through [`ClusterSession`] on pinned
//! shapes — tiny and physical clusters swept in one shot, the
//! serving access pattern (five-minute increments), the rack-sharded
//! engine, and the LLM-mix regime — and writes the
//! measurements to `BENCH_perf_kernel.json` at the repo root. The
//! committed copy is the reference ledger: rerun after kernel changes
//! and diff the throughput fields to catch regressions that the
//! (correctness-only) golden snapshots cannot see.
//!
//! Each shape fires a deterministic event count (fixed seed, fixed
//! horizon), so steps-per-second is comparable across runs on the same
//! machine; wall-clock numbers move with hardware. `MUDI_PERF_SAMPLES`
//! (default 3) controls how many repetitions the reported median comes
//! from.
//!
//! Two extra modes turn the harness into a correctness and regression
//! smoke:
//!
//! * `--check` runs each shape once, fingerprints its
//!   [`ExperimentResult`](cluster::metrics::ExperimentResult), and
//!   compares against `tests/golden/perf_kernel_fingerprints.txt` — a
//!   kernel change that shifts any simulated quantity fails here even
//!   though the throughput ledger cannot see it. Re-record with
//!   `MUDI_BLESS=1` after an intentional behavior change.
//! * `--gate` compares the fresh measurements against the committed
//!   ledger before overwriting it and fails on a >20 % steps/sec
//!   regression on any shape. `MUDI_BENCH_NO_GATE=1` disables the
//!   failure for noisy runners.

use std::fmt::Write as _;
use std::time::Instant;

use bench::ledger;
use cluster::engine::{ClusterConfig, ClusterSession};
use cluster::systems::SystemKind;
use simcore::SimTime;

const LEDGER_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf_kernel.json");
const FINGERPRINT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/perf_kernel_fingerprints.txt"
);

/// The pinned shapes: name, config, horizon, step increment.
fn shapes() -> Vec<(&'static str, ClusterConfig, f64, f64)> {
    const DAY: f64 = 24.0 * 3600.0;
    vec![
        (
            "batch-tiny-mudi-5day",
            ClusterConfig::tiny(SystemKind::Mudi, 7),
            5.0 * DAY,
            5.0 * DAY,
        ),
        (
            "batch-physical-mudi-5day",
            ClusterConfig::physical(SystemKind::Mudi, 7),
            5.0 * DAY,
            5.0 * DAY,
        ),
        (
            "session-tiny-1day-5min-steps",
            ClusterConfig::tiny(SystemKind::Mudi, 7),
            DAY,
            300.0,
        ),
        // The physical shape again through the rack-sharded engine
        // (clamped to the 4-rack topology). Sharding must be
        // unobservable in the simulated outcome, so this shape's
        // committed fingerprint is *the same line* as
        // batch-physical-mudi-5day's — the `--check` mode doubles as a
        // shard-equivalence smoke. Its throughput entry tracks the
        // sharded path's overhead/speedup against the plain loop.
        (
            "batch-physical-mudi-5day-4shard",
            {
                let mut c = ClusterConfig::physical(SystemKind::Mudi, 7);
                c.shards = 4;
                c
            },
            5.0 * DAY,
            5.0 * DAY,
        ),
        // The physical cluster with the generative services enabled:
        // steady-state decode accrual and the token-SLO controllers
        // are on the measured path, and the fingerprint pins the
        // LLM-mix simulated outcome.
        (
            "llm-mix-physical-mudi-5day",
            {
                let mut c = ClusterConfig::physical(SystemKind::Mudi, 7);
                c.llm_services = true;
                c
            },
            5.0 * DAY,
            5.0 * DAY,
        ),
    ]
}

struct Measurement {
    shape: &'static str,
    events: u64,
    sim_secs: f64,
    wall_secs: f64,
}

impl Measurement {
    fn steps_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn sim_secs_per_wall_sec(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }
}

/// Runs `f` `samples` times and keeps the median-wall-time run.
fn median_of(samples: usize, f: impl Fn() -> Measurement) -> Measurement {
    let mut runs: Vec<Measurement> = (0..samples.max(1)).map(|_| f()).collect();
    runs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    runs.remove(runs.len() / 2)
}

/// Steps a fresh session to `horizon_secs` in `step_secs` increments.
/// One giant increment measures the raw event loop; five-minute
/// increments measure the serving control plane's access pattern.
fn run_shape(
    shape: &'static str,
    config: ClusterConfig,
    horizon_secs: f64,
    step_secs: f64,
) -> Measurement {
    let mut session = ClusterSession::new_scaled(config, 0.01);
    let start = Instant::now();
    let mut events = 0u64;
    let mut t = 0.0;
    while t < horizon_secs {
        t = (t + step_secs).min(horizon_secs);
        events += session.step_until(SimTime::from_secs(t));
    }
    Measurement {
        shape,
        events: events.max(1),
        sim_secs: session.now().as_secs(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// `--check`: fingerprint each shape's simulated outcome against the
/// golden file. Pure correctness — no timing involved.
fn run_check() {
    let mut actual = String::new();
    for (shape, config, horizon, step) in shapes() {
        let mut session = ClusterSession::new_scaled(config, 0.01);
        let mut t = 0.0;
        while t < horizon {
            t = (t + step).min(horizon);
            session.step_until(SimTime::from_secs(t));
        }
        let fp = session.finish().fingerprint();
        let _ = writeln!(actual, "{shape} {fp:016x}");
    }
    ledger::check_golden("perf_kernel --check", FINGERPRINT_PATH, &actual);
}

/// One committed ledger row's gated fields: `(shape, steps_per_sec)`.
fn reference_row(line: &str) -> Option<(String, f64)> {
    Some((
        ledger::text(line, "shape")?.to_string(),
        ledger::number(line, "steps_per_sec")?,
    ))
}

/// `--gate`: fail on a >20 % steps/sec regression of any shape vs the
/// committed ledger (read before this run overwrites it).
fn gate_shapes(reference: &[(String, f64)], fresh: &[Measurement]) {
    let mut gate = ledger::Gate::new("perf_kernel");
    for m in fresh {
        match reference.iter().find(|(s, _)| s == m.shape) {
            Some(&(_, was)) => gate.check(m.shape, "steps/s", m.steps_per_sec(), was),
            None => gate.ungated(m.shape),
        }
    }
    gate.finish();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        run_check();
        return;
    }
    let gate = args.iter().any(|a| a == "--gate");
    let reference = if gate {
        ledger::read(LEDGER_PATH, reference_row)
    } else {
        Vec::new()
    };

    let samples = simcore::env::parse_or::<usize>("MUDI_PERF_SAMPLES", 3);
    println!("perf_kernel: {samples} samples per shape, reporting medians\n");

    let measured: Vec<Measurement> = shapes()
        .into_iter()
        .map(|(shape, config, horizon, step)| {
            median_of(samples, || run_shape(shape, config.clone(), horizon, step))
        })
        .collect();
    let rows: Vec<String> = measured
        .iter()
        .map(|m| {
            println!(
                "{:<32} {:>9} events  {:>10.0} steps/s  {:>12.0} sim-s/wall-s",
                m.shape,
                m.events,
                m.steps_per_sec(),
                m.sim_secs_per_wall_sec()
            );
            format!(
                "{{\"shape\": \"{}\", \"events\": {}, \"sim_secs\": {:.3}, \"wall_secs\": {:.6}, \"steps_per_sec\": {:.0}, \"sim_secs_per_wall_sec\": {:.0}}}",
                m.shape,
                m.events,
                m.sim_secs,
                m.wall_secs,
                m.steps_per_sec(),
                m.sim_secs_per_wall_sec(),
            )
        })
        .collect();

    if gate {
        gate_shapes(&reference, &measured);
    }

    ledger::write(
        LEDGER_PATH,
        "shapes",
        &rows,
        &[("samples_per_shape", samples.to_string())],
    );
    println!("\nledger written to BENCH_perf_kernel.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the committed ledger parses; a parse failure would
    /// leave that shape ungated.
    #[test]
    fn committed_ledger_parses_every_shape() {
        let text = std::fs::read_to_string(LEDGER_PATH).expect("committed ledger");
        let row_lines = text.lines().filter(|l| l.contains("\"shape\": ")).count();
        let rows = ledger::read(LEDGER_PATH, reference_row);
        assert_eq!(rows.len(), row_lines);
        for shape in [
            "batch-tiny-mudi-5day",
            "batch-physical-mudi-5day",
            "session-tiny-1day-5min-steps",
            "batch-physical-mudi-5day-4shard",
        ] {
            assert!(
                rows.iter().any(|(s, sps)| s == shape && *sps > 0.0),
                "{shape} missing from the parsed ledger"
            );
        }
    }
}
