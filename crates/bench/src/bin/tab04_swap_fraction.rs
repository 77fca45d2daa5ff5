//! Tab. 4 — fraction of time memory swapping occurs, per service,
//! under bursty QPS.
//!
//! Paper: ResNet50 16.08 %, Inception 19.82 %, GPT2 28.40 %, BERT
//! 15.53 %, RoBERTa 27.30 %, YOLOS 33.43 % — without a single OOM.

use bench::{banner, seed};
use cluster::experiments::{bursty_case_study_many, CaseStudySpec};
use cluster::report::Table;
use cluster::systems::SystemKind;
use simcore::{SimDuration, SimTime};
use workloads::{BurstSchedule, Zoo};

fn main() {
    banner(
        "Tab. 4 — time fraction with memory swapping under bursty QPS",
        "ResNet50 16.08% / Inception 19.82% / GPT2 28.40% / BERT 15.53% / RoBERTa 27.30% / YOLOS 33.43%",
    );
    let zoo = Zoo::standard();
    // A recurring burst pattern: 3x load one-third of the time.
    let burst = BurstSchedule::new(
        (0..6)
            .map(|i| {
                let start = SimTime::ZERO + SimDuration::from_secs(i as f64 * 100.0);
                (start, if i % 3 == 1 { 3.0 } else { 1.0 })
            })
            .collect(),
    );
    let paper = [16.08, 19.82, 28.40, 15.53, 27.30, 33.43];

    let mut table = Table::new(&[
        "service",
        "swap time fraction",
        "paper",
        "mean transfer",
        "violations",
    ]);
    // Heavier services co-locate with the big YOLOv5 task, as in the
    // paper's stress scenario. Each per-service cell is independent, so
    // they fan out across the worker pool; `bursty_case_study_many` preserves
    // order, keeping stdout identical to the serial loop it replaces.
    let specs: Vec<CaseStudySpec> = zoo
        .services()
        .iter()
        .enumerate()
        .map(|(i, svc)| CaseStudySpec {
            system: SystemKind::Mudi,
            service: svc.name.to_string(),
            training: "YOLOv5".to_string(),
            burst: burst.clone(),
            duration_secs: 600.0,
            seed: seed() + i as u64,
        })
        .collect();
    let studies = bursty_case_study_many(specs);
    for (i, (svc, cs)) in zoo.services().iter().zip(&studies).enumerate() {
        table.row(vec![
            svc.name.to_string(),
            format!("{:.1}%", cs.swap_time_fraction * 100.0),
            format!("{:.2}%", paper[i]),
            format!("{:.1}ms", cs.mean_swap_transfer_secs * 1e3),
            format!("{:.2}%", cs.violation_rate * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "Shape checks: every service swaps for a nonzero fraction of the bursty window,\n\
         no OOM ever occurs (the unified pool spills training pages to the host), and\n\
         violations stay low while overcommitted."
    );
}
