//! The benchmark's metric registry, and `BENCHMARK.json` rendered from
//! it. The registry is the one place names live: the workloads report
//! values by these names, `--write-manifest` writes the file, and
//! `--smoke` checks that the file, the registry and the printed result
//! agree.

use serve::json::Json;

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed and as later changes cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 45;

/// The workloads the benchmark runs: name and why it was chosen. The
/// first [`GATED`] are the ones `BENCHMARK.json` lists; `serve-1k` runs
/// the same way (and in `--smoke`) but is left out there, because its
/// open-loop tail could not be made steady on a shared 2-core host
/// (see README.md).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "physical-llm-faults",
        "12 GPUs, 300 jobs, LLM services, fig19's middle fault rate: one engine lane with busy control, admission and fault stages",
    ),
    (
        "fleet-10k",
        "10,000 devices, 1,000 jobs, fault-free: per-device scans, the sharded lane path and one system replica per lane at set-up",
    ),
    (
        "serve-1k",
        "mudi-serve over loopback on a 1000-device session: HTTP parse/encode, the O(devices) routing scan and infers queued behind clock steps",
    ),
];

/// How many of [`WORKLOADS`] `BENCHMARK.json` lists.
pub const GATED: usize = 2;

/// End-to-end metrics: every workload reports every one of them, from
/// an untraced run. All but [`MAY_BE_ZERO`] must be positive.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("slo_violation_rate", "ratio", Lower, 0.25),
    e2e("goodput_iters_per_h", "iters/h", Higher, 0.25),
];

/// End-to-end metrics whose best value is zero: rates, which a run
/// checks lie in [0, 1] instead.
pub const MAY_BE_ZERO: [&str; 1] = ["slo_violation_rate"];

/// Per-layer metrics, named after the modules: every workload reports
/// every one of them from a traced run, except its [`idle_layers`],
/// which report zero.
pub const PER_LAYER: [Metric; 43] = [
    layer("workloads.ground_truth_s", "s", Lower),
    layer("systems.build_system_s", "s", Lower),
    layer("resilience.fault_schedule_s", "s", Lower),
    layer("engine.lanes", "count", Lower),
    layer("engine.workers", "count", Higher),
    layer("setup.unattributed_s", "s", Lower),
    layer("session.step_until.calls", "count", Lower),
    layer("session.step_until.busy_s", "s", Lower),
    layer("engine.events", "count", Lower),
    layer("engine.ns_per_event", "ns", Lower),
    layer("engine.lane_s", "s", Lower),
    layer("engine.serial_s", "s", Lower),
    layer("engine.barrier_s", "s", Lower),
    layer("engine.lane_share", "ratio", Higher),
    layer("admission.placements", "count", Higher),
    layer("admission.deferrals", "count", Lower),
    layer("admission.place_ratio", "ratio", Higher),
    layer("admission.placement_ms_mean", "ms", Lower),
    layer("control.retunes_applied", "count", Higher),
    layer("control.retunes_rejected", "count", Lower),
    layer("control.retune_accept_ratio", "ratio", Higher),
    layer("control.bo_iters_mean", "count", Lower),
    layer("faults.applied", "count", Lower),
    layer("faults.repaired", "count", Higher),
    layer("faults.failovers", "count", Lower),
    layer("faults.standby_promotions", "count", Lower),
    layer("faults.training_evictions", "count", Lower),
    layer("faults.dropped_requests", "count", Lower),
    layer("session.service_report_ms", "ms", Lower),
    layer("session.finish_ms", "ms", Lower),
    layer("session.infer_us_p50", "us", Lower),
    layer("session.infer_tokens_us_p50", "us", Lower),
    layer("serve.parse_us_p50", "us", Lower),
    layer("serve.parse_us_p99", "us", Lower),
    layer("serve.write_us_p99", "us", Lower),
    layer("serve.handle.infer_us_p99", "us", Lower),
    layer("serve.handle.infer_tokens_us_p99", "us", Lower),
    layer("serve.handle.metrics_us_max", "us", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.failed", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("serve.request.self_us_mean", "us", Lower),
];

/// The per-layer metrics a workload never produces, because it does not
/// call the layer: fleet-10k has no fault profile and no generative
/// services; serve-1k injects its faults over HTTP instead of from a
/// fault profile. A traced run reports these as zero; any other
/// per-layer metric it does not produce fails the run.
pub fn idle_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "fleet-10k" => &[
            "resilience.fault_schedule_s",
            "session.infer_tokens_us_p50",
            "serve.handle.infer_tokens_us_p99",
        ],
        "serve-1k" => &["resilience.fault_schedule_s"],
        _ => &[],
    }
}

/// The metric list a run reports: end-to-end untraced, per-layer traced.
pub fn reported(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The command that runs the benchmark, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "mudibench/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
    out += &format!("  \"command\": [{}],\n", command.join(", "));
    out += "  \"paths\": [\"mudibench\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |items: Vec<String>| items.join(",\n");
    out += "  \"workloads\": [\n";
    out += &rows(
        WORKLOADS[..GATED]
            .iter()
            .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quoted(n), quoted(why)))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    m.better.as_str(),
                    m.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    quoted(m.name),
                    quoted(m.unit),
                    m.better.as_str()
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

/// The metric names a manifest file declares: `(end_to_end, per_layer)`.
pub fn declared_names(text: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("{key} entry without a name"))
                })
                .collect(),
            _ => Err(format!("manifest has no {key} list")),
        }
    };
    Ok((names("end_to_end")?, names("per_layer")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_names_are_unique() {
        let (e2e, layers) = declared_names(&benchmark_json()).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), PER_LAYER.len());
        let mut all: Vec<&String> = e2e.iter().chain(layers.iter()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len());
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        for (workload, _) in WORKLOADS {
            assert!(idle_layers(workload).iter().all(|n| find(n).is_some()));
        }
        assert!(MAY_BE_ZERO
            .iter()
            .all(|n| END_TO_END.iter().any(|m| m.name == *n)));
    }
}
