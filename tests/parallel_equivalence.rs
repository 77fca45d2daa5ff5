//! Bit-for-bit equivalence of serial and pooled experiment fan-out.
//!
//! The scoped worker pool must be a pure execution-strategy change:
//! every `(system × seed × rate × load)` cell owns its configuration
//! and its `SimRng` streams, so the full `ExperimentResult` series of a
//! pooled sweep must equal a serial reference that never touches the
//! pool **exactly** — compared here through
//! `ExperimentResult::canonical_text`, which renders every
//! simulation-determined field in round-trip float form (equal text ⇔
//! equal bits) and excludes only host wall-clock timing.
//!
//! Thread counts are passed to `end_to_end_many` / `max_throughput`
//! explicitly rather than through `MUDI_THREADS`, so the harness's own
//! test parallelism cannot race on the process environment.

use cluster::engine::ClusterConfig;
use cluster::experiments::{
    correlated_failure_cells, end_to_end, end_to_end_many, failure_cells, load_cells,
    max_throughput, max_throughput_cell, warm_standby_cells, FaultScope,
};
use cluster::metrics::ExperimentResult;
use cluster::systems::SystemKind;
use workloads::Zoo;

/// Worker counts the pooled path is exercised at (≥ 3 per acceptance).
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A small but non-trivial physical-cluster cell: full device count,
/// reduced job count and iteration scale so each run takes well under a
/// second while still exercising placement, tuning, and recovery.
fn small_config(system: SystemKind, seed: u64) -> (ClusterConfig, f64) {
    let mut cfg = ClusterConfig::physical(system, seed);
    cfg.jobs = 16;
    (cfg, 0.01)
}

fn canonical(results: impl IntoIterator<Item = ExperimentResult>) -> Vec<String> {
    results.into_iter().map(|r| r.canonical_text()).collect()
}

/// The reference: a plain serial loop over the cells, no pool.
fn serial(cells: &[(ClusterConfig, f64)]) -> Vec<String> {
    canonical(
        cells
            .iter()
            .cloned()
            .map(|(cfg, scale)| end_to_end(cfg, scale).0),
    )
}

/// Asserts the pooled fan-out reproduces the serial reference exactly
/// at every worker count.
fn assert_pool_matches_serial(what: &str, cells: Vec<(ClusterConfig, f64)>) {
    let reference = serial(&cells);
    for workers in WORKER_COUNTS {
        let pooled = canonical(end_to_end_many(cells.clone(), workers));
        assert_eq!(
            reference, pooled,
            "{what} diverged from serial at workers={workers}"
        );
    }
}

/// The fig. 19 driver shape: a failure sweep over fault-rate
/// multipliers, serial reference vs the pool at every worker count.
#[test]
fn failure_sweep_is_bit_identical_across_thread_counts() {
    let rates = [0.0, 100.0];
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells = failure_cells(SystemKind::Mudi, 42, &rates, &base, scale);
    assert_eq!(cells.len(), rates.len());
    assert_pool_matches_serial("failure sweep", cells);
}

/// The fig. 15 driver shape: a load sweep, serial vs pooled.
#[test]
fn load_sensitivity_is_bit_identical_across_thread_counts() {
    let multipliers = [1.0, 3.0];
    let (base, scale) = small_config(SystemKind::Gslice, 11);
    let cells = load_cells(SystemKind::Gslice, 11, &multipliers, &base, scale);
    assert_pool_matches_serial("load sensitivity", cells);
}

/// The fig. 8 driver shape: independent per-system `end_to_end` cells,
/// serial loop vs one pooled `end_to_end_many` fan-out.
#[test]
fn end_to_end_fanout_is_bit_identical_across_thread_counts() {
    let systems = [SystemKind::Gslice, SystemKind::MuxFlow, SystemKind::Mudi];
    let cells: Vec<_> = systems.iter().map(|&s| small_config(s, 7)).collect();
    assert_pool_matches_serial("end_to_end fan-out", cells);
}

/// The fig. 20 driver shape: a correlated-failure sweep over blast
/// scope × rate, serial reference vs the pool at every worker count.
/// Exercises the topology expansion, rack-striped layout, and
/// total-outage accounting under pooled execution.
#[test]
fn correlated_sweep_is_bit_identical_across_thread_counts() {
    let scopes = [FaultScope::Device, FaultScope::Rack];
    let rates = [0.0, 200.0];
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells = correlated_failure_cells(SystemKind::Mudi, 42, &scopes, &rates, &base, scale);
    assert_eq!(cells.len(), scopes.len() * rates.len());
    assert_pool_matches_serial("correlated failure sweep", cells);
}

/// The fig. 14 driver shape: per-service max-throughput cells, serial
/// loop vs the pooled fan-out.
#[test]
fn max_throughput_is_bit_identical_across_thread_counts() {
    let n = Zoo::standard().services().len();
    let reference: Vec<_> = (0..n)
        .map(|i| max_throughput_cell(SystemKind::Mudi, 9, i))
        .collect();
    assert!(!reference.is_empty());
    for workers in WORKER_COUNTS {
        let pooled = max_throughput(SystemKind::Mudi, 9, workers);
        assert_eq!(
            reference.len(),
            pooled.len(),
            "max_throughput length diverged at workers={workers}"
        );
        for ((sa, qa), (sb, qb)) in reference.iter().zip(&pooled) {
            assert_eq!(sa, sb, "service order diverged at workers={workers}");
            assert_eq!(
                qa.to_bits(),
                qb.to_bits(),
                "max QPS diverged at workers={workers}: {qa} vs {qb}"
            );
        }
    }
}

/// The fig. 21 driver shape: a warm-standby sweep over pool size ×
/// fault rate, serial reference vs the pool at every worker count.
/// Exercises the standby seeding, promote/demote transitions, and the
/// reserved-GPU%-seconds ledger under pooled execution.
#[test]
fn warm_standby_sweep_is_bit_identical_across_thread_counts() {
    let pools = [0usize, 1];
    let rates = [0.0, 200.0];
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells = warm_standby_cells(SystemKind::Mudi, 42, &pools, &rates, &base, scale);
    assert_eq!(cells.len(), pools.len() * rates.len());
    assert_pool_matches_serial("warm standby sweep", cells);
}

/// Repeated pooled runs are self-identical (no hidden shared state in
/// the engine or the pool leaks between cells).
#[test]
fn pooled_runs_are_self_reproducible() {
    let rates = [0.0, 50.0];
    let (base, scale) = small_config(SystemKind::Mudi, 5);
    let cells = failure_cells(SystemKind::Mudi, 5, &rates, &base, scale);
    let a = canonical(end_to_end_many(cells.clone(), 4));
    let b = canonical(end_to_end_many(cells, 4));
    assert_eq!(a, b);
}
