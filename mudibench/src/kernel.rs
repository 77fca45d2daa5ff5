//! The two kernel workloads: a [`ClusterSession`] stepped by a closed
//! loop of `step_until` increments, as the simulator's users drive it.
//!
//! A run repeats whole passes (build the session, step to the horizon,
//! report, finish) until its time is used, and reports medians over the
//! passes. Every pass of a seed must end in the same fingerprint.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cluster::engine::{ClusterConfig, ClusterSession, ScalePreset};
use cluster::metrics::{ExperimentResult, FaultMetrics};
use cluster::systems::{build_system, SystemKind};
use resilience::{FaultProfile, FaultSchedule};
use simcore::{SimEventKind, SimRng, SimTime, Topology, TopologyShape, TraceConfig, TraceSummary};
use workloads::{GroundTruth, ServiceId, Zoo};

use crate::report::{Report, Tally};
use crate::serve_load;
use crate::spans::Spans;
use crate::stats;

const DAY: f64 = 24.0 * 3600.0;

/// Fewest passes a run makes, however short its time.
const MIN_PASSES: usize = 3;

/// A kernel workload's shape.
pub struct KernelSpec {
    /// The cluster.
    pub config: ClusterConfig,
    /// Simulated horizon, seconds.
    pub horizon_secs: f64,
    /// Simulated seconds per `step_until` increment.
    pub step_secs: f64,
}

/// `physical-llm-faults`: the 12-GPU physical cluster with the LLM
/// services and fig19's middle fault rate, 40 days in 5-minute steps.
pub fn physical_llm_faults(seed: u64, smoke: bool) -> KernelSpec {
    let mut config = ClusterConfig::physical(SystemKind::Mudi, seed);
    config.llm_services = true;
    config.faults = Some(FaultProfile::scaled(100.0));
    KernelSpec {
        config,
        // The smoke size keeps the 1,000-plus steps a p99 needs.
        horizon_secs: if smoke { 4.0 * DAY } else { 40.0 * DAY },
        step_secs: 300.0,
    }
}

/// `fleet-10k`: 10,000 simulated devices on a 16×8 topology, 1,000 jobs,
/// fault-free, three simulated hours in 10-second steps. Shards and
/// workers are left to the engine.
pub fn fleet_10k(seed: u64, smoke: bool) -> KernelSpec {
    let devices = if smoke { 256 } else { 10_000 };
    let config = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, seed)
        .devices(devices)
        .jobs(devices / 10)
        .topology(TopologyShape::new(16, 8))
        .build();
    KernelSpec {
        config,
        horizon_secs: 3.0 * 3600.0,
        step_secs: 10.0,
    }
}

/// Fingerprint and event count of one pass at the pinned seed.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// `ExperimentResult::fingerprint`.
    pub fingerprint: u64,
    /// Kernel events fired.
    pub events: u64,
}

/// The session's `phase_profile`: the wall-clock split between the
/// lane phase and the serial commit/global phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Lane-phase seconds.
    pub lane_secs: f64,
    /// Serial-phase seconds.
    pub serial_secs: f64,
    /// Barrier seconds (part of the serial phase).
    pub barrier_secs: f64,
    /// Lane workers applied.
    pub workers: usize,
    /// Engine lanes (shards).
    pub lanes: usize,
}

/// A finished session's readings: the counters its layers expose and
/// the batch-equivalent result.
pub struct Readings {
    /// Kernel events fired over the whole session.
    pub events: u64,
    /// Session clock at the end, simulated seconds.
    pub sim_secs: f64,
    /// The lane/serial/barrier split.
    pub phase: Phase,
    /// Trace-bus counters (all zero when the bus was off).
    pub trace: TraceSummary,
    /// Fault accounting.
    pub faults: FaultMetrics,
    /// The finished result.
    pub result: ExperimentResult,
    /// `result.fingerprint()`.
    pub fingerprint: u64,
}

impl Readings {
    /// Reads the session, takes one SLO report and finishes it — the
    /// same calls on every pass, traced or not, so the fingerprints of
    /// the two are comparable.
    pub fn finish(session: ClusterSession, spans: Option<&mut Spans>) -> Readings {
        Self::finish_after(session, spans, |s, _| s)
    }

    /// Like [`Readings::finish`], running `between` on the session after
    /// its counters are read and before it is finished (wrapping it in
    /// a serve `App` resets its trace bus).
    pub fn finish_after(
        session: ClusterSession,
        mut spans: Option<&mut Spans>,
        between: impl FnOnce(ClusterSession, Option<&mut Spans>) -> ClusterSession,
    ) -> Readings {
        let events = session.events_fired();
        let sim_secs = session.now().as_secs();
        let p = session.phase_profile();
        let phase = Phase {
            lane_secs: p.lane_secs,
            serial_secs: p.serial_secs,
            barrier_secs: p.barrier_secs,
            workers: p.workers,
            lanes: p.lanes,
        };
        let trace = session.trace_summary();
        let faults = session.fault_metrics();
        let mut session = between(session, spans.as_deref_mut());
        let result = match spans {
            Some(sp) => {
                sp.time("session.service_report", None, 0, || {
                    session.service_report()
                });
                sp.time("session.finish", None, 0, || session.finish())
            }
            None => {
                session.service_report();
                session.finish()
            }
        };
        Readings {
            events,
            sim_secs,
            phase,
            trace,
            faults,
            fingerprint: result.fingerprint(),
            result,
        }
    }
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    step_secs: Vec<f64>,
    r: Readings,
    /// Serve-layer probe requests `(attempted, failed)` of a traced pass.
    probe: (u64, u64),
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.step_secs.iter().sum()
    }
}

/// Direct request-path calls a traced pass makes on its session after
/// stepping (they draw from the session's own request stream and leave
/// the kernel's state, and so the fingerprint, untouched).
const PROBE_INFERS: usize = 1000;
const PROBE_TOKEN_INFERS: usize = 200;

/// One pass: build, step to the horizon, report, finish. With `spans`,
/// the trace bus is on and every call is recorded. A panic inside the
/// program is caught and returned as an error.
fn pass(spec: &KernelSpec, mut spans: Option<&mut Spans>) -> Result<Pass, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut session = match spans.as_deref_mut() {
            Some(sp) => sp.time("session.new", None, 0, || {
                ClusterSession::new(spec.config.clone())
            }),
            None => ClusterSession::new(spec.config.clone()),
        };
        let setup_s = t0.elapsed().as_secs_f64();
        if spans.is_some() {
            session.set_trace_config(TraceConfig::enabled());
        }
        let calls = (spec.horizon_secs / spec.step_secs).ceil() as usize;
        let mut step_secs = Vec::with_capacity(calls);
        for i in 1..=calls {
            let horizon = SimTime::from_secs((i as f64 * spec.step_secs).min(spec.horizon_secs));
            let t = Instant::now();
            match spans.as_deref_mut() {
                Some(sp) => sp.time("session.step_until", None, i as u64, || {
                    session.step_until(horizon)
                }),
                None => session.step_until(horizon),
            };
            step_secs.push(t.elapsed().as_secs_f64());
        }
        if let Some(sp) = spans.as_deref_mut() {
            probe_request_path(&mut session, sp);
        }
        let mut probe = (0, 0);
        let r = Readings::finish_after(session, spans, |session, sp| match sp {
            Some(sp) => {
                let (session, attempted, failed) = serve_load::probe_serve_layers(session, sp);
                probe = (attempted, failed);
                session
            }
            None => session,
        });
        Pass {
            setup_s,
            step_secs,
            r,
            probe,
        }
    }))
    .map_err(crate::report::panic_message)
}

/// The classifier and generative services that currently route (a
/// service whose replicas are all down answers `NoReplica`).
pub fn live_services(session: &mut ClusterSession) -> (Vec<ServiceId>, Vec<ServiceId>) {
    let specs: Vec<_> = session
        .zoo()
        .services()
        .iter()
        .map(|s| (s.id, s.generative.is_some()))
        .collect();
    let (mut classifiers, mut generative) = (Vec::new(), Vec::new());
    for (id, gen) in specs {
        if gen && session.infer_tokens(id, 1).is_ok() {
            generative.push(id);
        } else if !gen && session.infer(id).is_ok() {
            classifiers.push(id);
        }
    }
    (classifiers, generative)
}

/// Routes classifier and (where the zoo has them) generative requests
/// directly through the session's request path, to services that have
/// a live replica.
pub fn probe_request_path(session: &mut ClusterSession, sp: &mut Spans) {
    let (classifiers, generative) = live_services(session);
    for (i, &svc) in classifiers.iter().cycle().take(PROBE_INFERS).enumerate() {
        let _ = sp.time("session.infer", None, i as u64, || session.infer(svc));
    }
    for (i, &svc) in generative
        .iter()
        .cycle()
        .take(PROBE_TOKEN_INFERS)
        .enumerate()
    {
        let _ = sp.time("session.infer_tokens", None, i as u64, || {
            session.infer_tokens(svc, 64)
        });
    }
}

/// Checks one pass against the run's first pass and, at the pinned
/// seed, against the pin.
fn check_pass(
    p: &Pass,
    first: Option<&Pass>,
    pin: Option<Pin>,
    spec: &KernelSpec,
    tally: &mut Tally,
) {
    tally.ops(p.step_secs.len() as u64, 0, "step_until calls");
    check_readings(&p.r, first.map(|f| &f.r), pin, tally);
    tally.check((p.r.sim_secs - spec.horizon_secs).abs() < 1e-6, || {
        format!(
            "session clock {} s, expected {} s",
            p.r.sim_secs, spec.horizon_secs
        )
    });
}

/// Checks a session's readings: rates in range, the same fingerprint
/// as an earlier replay of the seed, and the pin where there is one.
pub fn check_readings(p: &Readings, first: Option<&Readings>, pin: Option<Pin>, tally: &mut Tally) {
    let slo = p.result.overall_violation_rate();
    tally.check((0.0..=1.0).contains(&slo), || {
        format!("violation rate {slo} outside [0, 1]")
    });
    let goodput = p.result.goodput_iters_per_hour();
    tally.check(goodput.is_finite() && goodput > 0.0, || {
        format!("goodput {goodput} is not positive")
    });
    if let Some(f) = first {
        tally.check(
            p.fingerprint == f.fingerprint && p.events == f.events,
            || {
                format!(
                    "pass replay differs: fingerprint {:016x}/{} events vs {:016x}/{}",
                    p.fingerprint, p.events, f.fingerprint, f.events
                )
            },
        );
    }
    if let Some(pin) = pin {
        tally.check(
            p.fingerprint == pin.fingerprint && p.events == pin.events,
            || {
                format!(
                    "pin mismatch: fingerprint {:016x}, {} events; pinned {:016x}, {} events",
                    p.fingerprint, p.events, pin.fingerprint, pin.events
                )
            },
        );
    }
}

/// One pass's timings (the pass itself is dropped, so memory does not
/// grow with the pass count).
struct Timing {
    setup_s: f64,
    events_per_s: f64,
    p50_ms: f64,
    p90_ms: Result<f64, String>,
    p99_ms: Result<f64, String>,
    sim_per_host_s: f64,
}

impl Timing {
    fn of(p: &Pass) -> Timing {
        let steps = stats::sorted(p.step_secs.clone());
        Timing {
            setup_s: p.setup_s,
            events_per_s: p.r.events as f64 / p.busy_s(),
            p50_ms: stats::median(&steps) * 1e3,
            p90_ms: stats::labelled(&steps, 90.0).map(|v| v * 1e3),
            p99_ms: stats::labelled(&steps, 99.0).map(|v| v * 1e3),
            sim_per_host_s: p.r.sim_secs / p.busy_s(),
        }
    }
}

/// The untraced run: passes until `seconds` are used (at least
/// [`MIN_PASSES`]), medians over passes.
pub fn measure(spec: &KernelSpec, seconds: u64, pin: Option<Pin>) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let mut first: Option<Pass> = None;
    let mut timings: Vec<Timing> = Vec::new();
    while timings.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(seconds) {
        match pass(spec, None) {
            Ok(p) => {
                let t = Timing::of(&p);
                eprintln!(
                    "pass {}: setup {:.3} s, {:.0} events/s over {:.3} s stepping",
                    timings.len(),
                    t.setup_s,
                    t.events_per_s,
                    p.busy_s()
                );
                check_pass(&p, first.as_ref(), pin, spec, &mut report.tally);
                timings.push(t);
                first.get_or_insert(p);
            }
            Err(e) => {
                report.tally.ops(1, 1, "passes");
                report.tally.notes.push(e);
                break;
            }
        }
    }
    let Some(first) = first else {
        return report;
    };
    report.lanes = first.r.phase.lanes;
    report.workers = first.r.phase.workers;
    let med =
        |f: &dyn Fn(&Timing) -> f64| stats::median_of(&timings.iter().map(f).collect::<Vec<_>>());
    for tail in [&timings[0].p90_ms, &timings[0].p99_ms] {
        if let Err(e) = tail {
            report.tally.check(false, || format!("step latency: {e}"));
        }
    }
    let p50_ms = med(&|t| t.p50_ms);
    let p90_ms = med(&|t| t.p90_ms.clone().unwrap_or(f64::NAN));
    let p99_ms = med(&|t| t.p99_ms.clone().unwrap_or(f64::NAN));
    report.set("setup_s", med(&|t| t.setup_s));
    report.figure("events_per_s", med(&|t| t.events_per_s), "1/s");
    report.set("latency_ms_p50", p50_ms);
    let r = &first.r.result;
    report.set("slo_violation_rate", r.overall_violation_rate());
    report.set("goodput_iters_per_h", r.goodput_iters_per_hour());
    report.figure("step_ms_p50", p50_ms, "ms");
    report.figure("step_ms_p90", p90_ms, "ms");
    report.figure("step_ms_p99", p99_ms, "ms");
    report.figure(
        "token_slo_violation_rate",
        r.overall_token_violation_rate(),
        "ratio",
    );
    report.figure("sim_s_per_host_s", med(&|t| t.sim_per_host_s), "s/s");
    report.figure("step_until_calls", first.step_secs.len() as f64, "count");
    report.figure("events", first.r.events as f64, "count");
    report.figure("passes", timings.len() as f64, "count");
    report.fingerprint = Some(format!(
        "fingerprint {:016x} events {}",
        first.r.fingerprint, first.r.events
    ));
    report
}

/// Times the set-up layers once each, with the inputs the session's own
/// construction uses — the ground truth, one system replica (every lane
/// builds its own) and the fault schedule — and reports them, and the
/// resolved lanes and workers, against the traced pass's set-up time.
pub fn set_setup_layers(
    report: &mut Report,
    config: &ClusterConfig,
    setup_s: f64,
    phase: &Phase,
    sp: &mut Spans,
) {
    let zoo = if config.llm_services {
        Zoo::with_llms()
    } else {
        Zoo::standard()
    };
    let gt = sp.time("workloads.GroundTruth::new", None, 0, || {
        GroundTruth::new(zoo, config.seed ^ 0xA100)
    });
    let rng = SimRng::seed(config.seed);
    let system = sp.time("systems.build_system", None, 0, || {
        build_system(config.system, &gt, &mut rng.fork("system"))
    });
    drop(std::hint::black_box(system));
    if let Some(profile) = &config.faults {
        let topo = Topology::new(config.topology, config.devices);
        let schedule = sp.time(
            "resilience.FaultSchedule::generate_with_topology",
            None,
            0,
            || {
                FaultSchedule::generate_with_topology(
                    &profile.faults,
                    profile.correlated.as_ref(),
                    &topo,
                    config.max_sim_secs,
                    &rng.fork("faults"),
                )
            },
        );
        drop(std::hint::black_box(schedule));
    }
    let gt_s = sp.total_secs("workloads.GroundTruth::new");
    let build_s = sp.total_secs("systems.build_system");
    let faults_s = sp.total_secs("resilience.FaultSchedule::generate_with_topology");
    report.lanes = phase.lanes;
    report.workers = phase.workers;
    report.set("workloads.ground_truth_s", gt_s);
    report.set("systems.build_system_s", build_s);
    if config.faults.is_some() {
        report.set("resilience.fault_schedule_s", faults_s);
    }
    report.set("engine.lanes", phase.lanes as f64);
    report.set("engine.workers", phase.workers as f64);
    report.set(
        "setup.unattributed_s",
        setup_s - phase.lanes as f64 * build_s - gt_s - faults_s,
    );
}

/// The traced run: one untraced pass as the baseline, then one pass
/// with the trace bus on and every layer call recorded as a span.
pub fn trace(spec: &KernelSpec, pin: Option<Pin>) -> Report {
    let mut report = Report::default();
    let base = match pass(spec, None) {
        Ok(p) => p,
        Err(e) => {
            report.tally.ops(1, 1, "passes");
            report.tally.notes.push(e);
            return report;
        }
    };
    check_pass(&base, None, pin, spec, &mut report.tally);
    let mut sp = Spans::new(Instant::now());
    let traced = match pass(spec, Some(&mut sp)) {
        Ok(p) => p,
        Err(e) => {
            report.tally.ops(1, 1, "traced passes");
            report.tally.notes.push(e);
            return report;
        }
    };
    check_pass(&traced, Some(&base), None, spec, &mut report.tally);

    set_setup_layers(
        &mut report,
        &spec.config,
        traced.setup_s,
        &base.r.phase,
        &mut sp,
    );
    set_kernel_layers(
        &mut report,
        traced.r.events,
        &traced.r,
        &base.r,
        &sp,
        "session.step_until",
    );
    report
        .tally
        .ops(traced.probe.0, traced.probe.1, "serve-layer probe requests");
    serve_load::set_serve_layers(&mut report, &sp);
    report.set("serve.requests", traced.probe.0 as f64);
    report.set("serve.failed", traced.probe.1 as f64);
    report.fingerprint = Some(format!(
        "fingerprint {:016x} events {}",
        traced.r.fingerprint, traced.r.events
    ));
    report.set("trace.overhead_ratio", traced.busy_s() / base.busy_s());
    report.set("trace.spans", sp.all().len() as f64);
    report.spans = Some(sp);
    report
}

/// Kernel-side per-layer metrics shared by every traced run: counters
/// from the traced pass, the phase split from the untraced baseline
/// (an enabled trace bus forces the serial lane path).
pub fn set_kernel_layers(
    report: &mut Report,
    events: u64,
    traced: &Readings,
    base: &Readings,
    sp: &Spans,
    step_span: &str,
) {
    let busy = sp.total_secs(step_span);
    let calls = sp.named(step_span).count() as f64;
    report.set("session.step_until.calls", calls);
    report.set("session.step_until.busy_s", busy);
    report.set("engine.events", events as f64);
    report.set(
        "engine.ns_per_event",
        if events > 0 {
            busy / events as f64 * 1e9
        } else {
            0.0
        },
    );
    let phase = base.phase;
    report.set("engine.lane_s", phase.lane_secs);
    report.set("engine.serial_s", phase.serial_secs);
    report.set("engine.barrier_s", phase.barrier_secs);
    report.set(
        "engine.lane_share",
        ratio(phase.lane_secs, phase.lane_secs + phase.serial_secs),
    );
    let t = traced.trace;
    let count = |k| t.count(k) as f64;
    let placed = count(SimEventKind::Placement);
    let deferred = count(SimEventKind::PlacementDeferred);
    report.set("admission.placements", placed);
    report.set("admission.deferrals", deferred);
    report.set("admission.place_ratio", ratio(placed, placed + deferred));
    report.set(
        "admission.placement_ms_mean",
        traced.result.overhead.mean_placement_ms(),
    );
    let applied = count(SimEventKind::RetuneApplied);
    let rejected = count(SimEventKind::RetuneRejected);
    report.set("control.retunes_applied", applied);
    report.set("control.retunes_rejected", rejected);
    report.set(
        "control.retune_accept_ratio",
        ratio(applied, applied + rejected),
    );
    report.set(
        "control.bo_iters_mean",
        traced.result.overhead.mean_bo_iterations(),
    );
    report.set("faults.applied", count(SimEventKind::FaultApplied));
    report.set("faults.repaired", count(SimEventKind::DeviceRepaired));
    report.set("faults.failovers", count(SimEventKind::FailoverRerouted));
    report.set(
        "faults.standby_promotions",
        count(SimEventKind::StandbyPromoted),
    );
    report.set(
        "faults.training_evictions",
        count(SimEventKind::TrainingEvicted),
    );
    report.set("faults.dropped_requests", traced.faults.dropped_requests);
    let ms = |name| sp.total_secs(name) * 1e3;
    report.set("session.service_report_ms", ms("session.service_report"));
    report.set("session.finish_ms", ms("session.finish"));
    // A layer the workload does not call has no spans and is not set.
    for (metric, span) in [
        ("session.infer_us_p50", "session.infer"),
        ("session.infer_tokens_us_p50", "session.infer_tokens"),
    ] {
        let v = sp.secs_sorted(span);
        if !v.is_empty() {
            report.set(metric, stats::median(&v) * 1e6);
        }
    }
}

/// `a / b`, zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
