//! The Mudi benchmark: one command for the kernel and the mudi-serve
//! request path. See `README.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path mudibench/Cargo.toml -- \
//!     --workload physical-llm-faults --seed 7 --seconds 45 --trace 0
//! ```
//!
//! Without `--workload` every workload runs in turn. `--trace 1` makes
//! the traced run (per-layer metrics, spans written under `out/`);
//! `--smoke` runs every workload at a tiny size and checks the metric
//! names against `BENCHMARK.json`; `--write-manifest` rewrites
//! `BENCHMARK.json` from the registry; `--compare A B` compares two
//! result files and refuses when they come from different core counts.

mod kernel;
mod manifest;
mod provenance;
mod report;
mod serve_load;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serve::json::Json;

use kernel::Pin;
use manifest::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use provenance::Provenance;
use report::Report;
use serve_load::ServePin;

/// The seed the correctness pins were recorded at.
const PINNED_SEED: u64 = 7;

/// `(fingerprint, events)` of one kernel pass at [`PINNED_SEED`].
fn kernel_pin(workload: &str) -> Pin {
    let (fingerprint, events) = match workload {
        "physical-llm-faults" => (0x1dae_bb3d_ca08_98e9, 1_294_073),
        "fleet-10k" => (0x08d7_4272_beab_d808, 2_400_747),
        other => unreachable!("{other} is not a kernel workload"),
    };
    Pin {
        fingerprint,
        events,
    }
}

/// The serve-1k pin at [`PINNED_SEED`] and the default window.
fn serve_pin() -> ServePin {
    ServePin {
        admin_digest: 0xc042_373b_39aa_9040,
        fingerprint: Pin {
            fingerprint: 0x28cb_dc72_ea56_0b84,
            events: 144_768,
        },
    }
}

/// `BENCHMARK.json` at the repository root.
fn manifest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Where spans and result files go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Smoke,
    WriteManifest,
    Compare(PathBuf, PathBuf),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mut run = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: manifest::RUN_SECONDS,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = Some(value()?),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => return Ok(Mode::Smoke),
            "--write-manifest" => return Ok(Mode::WriteManifest),
            "--compare" => {
                let a = value()?;
                let b = args.next().ok_or("--compare needs two result files")?;
                return Ok(Mode::Compare(a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &run.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(Mode::Run(run))
}

/// Runs one workload and completes its report.
fn run_workload(workload: &str, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Report {
    let pinned = seed == PINNED_SEED && !smoke;
    let mut report = match workload {
        "serve-1k" => {
            let spec = serve_load::serve_1k(seed, seconds, smoke);
            // The serve pin also fixes the window: it sets the tick count.
            let pin = (pinned && seconds == manifest::RUN_SECONDS).then(serve_pin);
            if trace {
                serve_load::trace(&spec, pin)
            } else {
                serve_load::measure(&spec, pin)
            }
        }
        kernel_workload => {
            let spec = if kernel_workload == "fleet-10k" {
                kernel::fleet_10k(seed, smoke)
            } else {
                kernel::physical_llm_faults(seed, smoke)
            };
            let pin = pinned.then(|| kernel_pin(kernel_workload));
            if trace {
                kernel::trace(&spec, pin)
            } else {
                kernel::measure(&spec, seconds, pin)
            }
        }
    };
    if !trace {
        report.set("peak_rss_mb", provenance::peak_rss_mib());
    }
    complete(&mut report, workload, trace);
    report
}

/// Completes a workload's report. On a traced run the workload's idle
/// layers report zero, and any other per-layer metric it did not
/// produce fails the run. Every value must be finite, and every
/// end-to-end metric but the rates positive. A pass that failed already
/// explains a missing or odd value, so it adds no further failures.
fn complete(report: &mut Report, workload: &str, trace: bool) {
    let completed = report.tally.failed == 0;
    if trace {
        let idle = manifest::idle_layers(workload);
        for m in &PER_LAYER {
            let produced = report.metrics.iter().any(|(n, _)| *n == m.name);
            let expected = !idle.contains(&m.name);
            if completed && produced != expected {
                report.tally.check(false, || {
                    if produced {
                        format!("{} is idle on {workload} but was produced", m.name)
                    } else {
                        format!("{} was not produced", m.name)
                    }
                });
            }
            if !(produced && expected) {
                report.set(m.name, 0.0);
            }
        }
    }
    for (name, value) in report.metrics.iter_mut() {
        let positive =
            END_TO_END.iter().any(|m| m.name == *name) && !manifest::MAY_BE_ZERO.contains(name);
        let ok = value.is_finite() && (!positive || *value > 0.0);
        if !ok && completed {
            report.tally.check(false, || format!("{name} is {value}"));
        }
        if !value.is_finite() {
            *value = 0.0;
        }
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn result_json(report: &Report, metrics: &[Metric]) -> Json {
    let values = metrics
        .iter()
        .map(|m| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), num(value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.tally.failed == 0)),
        (
            "attempted".into(),
            num(report.tally.attempted.max(1) as f64),
        ),
        ("failed".into(), num(report.tally.failed as f64)),
        ("metrics".into(), Json::Obj(values)),
    ])
}

/// Prints the report and writes the result file; the last line printed
/// is the result object.
fn emit(workload: &str, seed: u64, trace: bool, report: &Report) -> std::io::Result<()> {
    let mut prov = Provenance::capture(seed);
    prov.lanes = report.lanes;
    prov.workers = report.workers;
    let metrics = manifest::reported(trace);
    println!("workload {workload} seed {seed} trace {}", u8::from(trace));
    for (k, v) in prov.fields() {
        println!("provenance {k} {v}");
    }
    for m in metrics {
        let v = report
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |(_, v)| *v);
        println!("metric {} {v} {}", m.name, m.unit);
    }
    for (name, v, unit) in &report.figures {
        println!("figure {name} {v} {unit}");
    }
    if let Some(line) = &report.fingerprint {
        println!("{line}");
    }
    for note in &report.tally.notes {
        println!("FAILED {note}");
    }
    let result = result_json(report, metrics);
    let Json::Obj(mut file) = result.clone() else {
        unreachable!("result is an object")
    };
    file.insert(0, ("workload".into(), Json::Str(workload.into())));
    file.push((
        "provenance".into(),
        Json::Obj(
            prov.fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Str(v)))
                .collect(),
        ),
    ));
    file.push((
        "figures".into(),
        Json::Obj(
            report
                .figures
                .iter()
                .map(|(n, v, _)| (n.to_string(), num(*v)))
                .collect(),
        ),
    ));
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    std::fs::write(
        dir.join(format!("{stem}.json")),
        Json::Obj(file).render() + "\n",
    )?;
    if let Some(sp) = &report.spans {
        sp.write_tsv(&dir.join(format!("{stem}.spans.tsv")))?;
    }
    println!("{}", result.render());
    Ok(())
}

/// Runs every workload at a tiny size, traced and untraced, and checks
/// that the names each prints are exactly those `BENCHMARK.json`
/// declares, and that the file matches the registry.
fn smoke() -> Result<(), String> {
    let path = manifest_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if text != manifest::benchmark_json() {
        return Err("BENCHMARK.json differs from the registry; run --write-manifest".into());
    }
    let (e2e, layers) = manifest::declared_names(&text)?;
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let report = run_workload(workload, PINNED_SEED, 1, trace, true);
            emit(workload, PINNED_SEED, trace, &report).map_err(|e| e.to_string())?;
            let want = if trace { &layers } else { &e2e };
            let mut have: Vec<String> = report.metrics.iter().map(|(n, _)| n.to_string()).collect();
            have.sort();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            if have != want_sorted {
                return Err(format!(
                    "{workload} (trace {}) reports {have:?}, BENCHMARK.json declares {want:?}",
                    u8::from(trace)
                ));
            }
            if report.tally.failed > 0 {
                return Err(format!(
                    "{workload} (trace {}) failed: {:?}",
                    u8::from(trace),
                    report.tally.notes
                ));
            }
        }
    }
    println!("smoke: every workload reports exactly the metrics BENCHMARK.json declares");
    Ok(())
}

/// Compares two result files metric by metric.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let prov = |j: &Json| match j.get("provenance") {
        Some(Json::Obj(f)) => f
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect::<Vec<_>>(),
        _ => Vec::new(),
    };
    provenance::comparable(&prov(&ja), &prov(&jb))?;
    let Some(Json::Obj(ma)) = ja.get("metrics") else {
        return Err(format!("{}: no metrics", a.display()));
    };
    for (name, va) in ma {
        let value = |v: &Json| v.get("value").and_then(Json::as_f64);
        let vb = jb.get("metrics").and_then(|m| m.get(name)).and_then(value);
        match (value(va), vb) {
            (Some(x), Some(y)) => println!(
                "{name} {x} {y} ratio {:.4}",
                if x != 0.0 { y / x } else { f64::NAN }
            ),
            _ => println!("{name} missing in one file"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // The workloads fix their own shape; these would override it.
    for var in ["MUDI_SHARDS", "MUDI_THREADS", "MUDI_TOPOLOGY", "MUDI_TRACE"] {
        std::env::remove_var(var);
    }
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mudibench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::WriteManifest => {
            std::fs::write(manifest_path(), manifest::benchmark_json()).map_err(|e| e.to_string())
        }
        Mode::Smoke => smoke(),
        Mode::Compare(a, b) => compare(&a, &b),
        Mode::Run(args) => {
            let all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            let chosen = args.workload.as_deref().map_or(all, |w| vec![w]);
            chosen.into_iter().try_for_each(|w| {
                let report = run_workload(w, args.seed, args.seconds, args.trace, false);
                emit(w, args.seed, args.trace, &report).map_err(|e| e.to_string())
            })
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mudibench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced fleet-10k report with every layer but its idle ones set.
    fn traced_fleet() -> Report {
        let mut report = Report::default();
        let idle = manifest::idle_layers("fleet-10k");
        for m in PER_LAYER.iter().filter(|m| !idle.contains(&m.name)) {
            report.set(m.name, 1.0);
        }
        report
    }

    #[test]
    fn idle_layers_report_zero_and_missing_layers_fail() {
        let mut ok = traced_fleet();
        complete(&mut ok, "fleet-10k", true);
        assert_eq!(ok.tally.failed, 0, "{:?}", ok.tally.notes);
        assert_eq!(ok.metrics.len(), PER_LAYER.len());

        let mut missing = traced_fleet();
        missing
            .metrics
            .retain(|(n, _)| *n != "session.infer_us_p50");
        complete(&mut missing, "fleet-10k", true);
        assert_eq!(missing.tally.failed, 1);

        let mut stale = traced_fleet();
        stale.set("resilience.fault_schedule_s", 0.5);
        complete(&mut stale, "fleet-10k", true);
        assert_eq!(stale.tally.failed, 1);
    }

    #[test]
    fn rates_may_be_zero_but_timings_may_not() {
        let untraced = |name: &'static str| {
            let mut report = Report::default();
            for m in &END_TO_END {
                report.set(m.name, if m.name == name { 0.0 } else { 1.0 });
            }
            complete(&mut report, "fleet-10k", false);
            report.tally.failed
        };
        assert_eq!(untraced("slo_violation_rate"), 0);
        assert_eq!(untraced("setup_s"), 1);
        assert_eq!(untraced("goodput_iters_per_h"), 1);
    }
}
