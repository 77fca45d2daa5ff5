//! Session set-up builds the system under test once and hands every
//! further engine lane a `Multiplexer::replicate()` of it. A replica
//! must decide exactly as a freshly built system from the same seed —
//! for every `SystemKind`, and whatever the original has done since it
//! was built (feedback tables, decision caches and memos must not leak
//! into the replica).

use cluster::systems::{build_system, ConfigDecision, DeviceView, Multiplexer};
use cluster::SystemKind;
use mudi::{DeviceCandidate, ReliabilityPrior};
use simcore::SimRng;
use workloads::{GroundTruth, Zoo};

const KINDS: [SystemKind; 10] = [
    SystemKind::Mudi,
    SystemKind::MudiMore,
    SystemKind::MudiClusterOnly,
    SystemKind::MudiDeviceOnly,
    SystemKind::MudiFlat,
    SystemKind::Gslice,
    SystemKind::Gpulets,
    SystemKind::MuxFlow,
    SystemKind::Random,
    SystemKind::Optimal,
];

/// One probe's outcome: a placement or a configuration decision.
#[derive(Debug, PartialEq)]
enum Decision {
    Place(Option<usize>),
    Configure(ConfigDecision),
}

/// A fixed sequence of placements and (re)configurations covering a
/// profiled and an unobserved task, repeated views (decision caches),
/// load changes and latency feedback (feedback controllers).
fn probe(sys: &mut dyn Multiplexer, gt: &GroundTruth) -> Vec<Decision> {
    let mut rng = SimRng::seed(5);
    let candidates: Vec<DeviceCandidate> = gt
        .zoo()
        .services()
        .iter()
        .enumerate()
        .map(|(i, s)| DeviceCandidate {
            device: i,
            service: s.id,
            existing_tasks: vec![],
            mem_headroom_gb: 20.0 + i as f64,
            reliability: ReliabilityPrior::default(),
            domain_training_load: 0.0,
        })
        .collect();
    let tasks = [
        gt.zoo().profiled_task_ids()[1],
        gt.zoo().unobserved_task_ids()[0],
    ];
    let mut out = Vec::new();
    for (step, &task) in tasks.iter().enumerate() {
        out.push(Decision::Place(sys.place(gt, task, &candidates, &mut rng)));
        for (i, svc) in gt.zoo().services().iter().enumerate().take(3) {
            for (qps, p99_share) in [(120.0, 0.95), (120.0, 0.2), (400.0, 0.5)] {
                let view = DeviceView {
                    device: i,
                    service: svc.id,
                    qps: qps * svc.request_rate_scale(),
                    slo_secs: svc.slo_secs(),
                    tasks: if step == 0 {
                        vec![task]
                    } else {
                        vec![tasks[0], task]
                    },
                    batch: 32,
                    fraction: 0.5,
                    measured_p99: Some(svc.slo_secs() * p99_share),
                    mem_headroom_gb: 12.0,
                };
                out.push(Decision::Configure(sys.configure(gt, &view, &mut rng)));
            }
        }
    }
    out
}

#[test]
fn replicas_decide_like_a_fresh_build_for_every_system() {
    let gt = GroundTruth::new(Zoo::standard(), 19);
    let seed = SimRng::seed(11).fork("system");
    for kind in KINDS {
        let mut original = build_system(kind, &gt, &mut seed.clone());
        let expect = probe(original.as_mut(), &gt);
        // The original has now mutated its per-run state.
        let mut replica = original.replicate();
        assert_eq!(replica.kind(), kind);
        assert_eq!(probe(replica.as_mut(), &gt), expect, "{kind:?} replica");
        let mut fresh = build_system(kind, &gt, &mut seed.clone());
        assert_eq!(probe(fresh.as_mut(), &gt), expect, "{kind:?} rebuild");
        // A replica of a replica is a replica too.
        let mut second = replica.replicate();
        assert_eq!(probe(second.as_mut(), &gt), expect, "{kind:?} replica²");
    }
}
