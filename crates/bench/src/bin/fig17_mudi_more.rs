//! Fig. 17 — multiplexing more training tasks per GPU (Mudi-more).
//!
//! Paper: Mudi-more beats Random on every metric but records ~1.03× the
//! SLO violations, ~1.07× the CT, and ~1.09× the makespan of plain Mudi
//! (one training task per GPU), because packing more tasks forces more
//! memory swapping (37.78 %, 1.61× single-task) and more interference —
//! hence the recommendation to multiplex one inference + one training.

use bench::{banner, compare, physical_config, trace_report};
use cluster::experiments::end_to_end;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

fn main() {
    banner(
        "Fig. 17 — Mudi-more (up to 3 training tasks/GPU) vs Mudi vs Random",
        "Mudi-more > Random everywhere; ~1.03x violations, ~1.07x CT, ~1.09x makespan vs Mudi",
    );
    let mut table = Table::new(&[
        "system",
        "violations",
        "mean CT",
        "mean wait",
        "makespan",
        "mean swap transfer",
    ]);
    let mut rows = Vec::new();
    for system in [SystemKind::Random, SystemKind::Mudi, SystemKind::MudiMore] {
        let (mut cfg, iter_scale) = physical_config(system);
        // More queueing pressure makes the extra slots matter.
        cfg.jobs = (cfg.jobs * 3) / 2;
        let (r, trace) = end_to_end(cfg, iter_scale);
        trace_report(system.name(), &trace);
        table.row(vec![
            system.name().to_string(),
            pct(r.overall_violation_rate()),
            format!("{:.1}min", r.ct.mean() / 60.0),
            format!("{:.1}min", r.waiting.mean() / 60.0),
            format!("{:.2}h", r.makespan_hours()),
            format!("{:.1}ms", r.mean_swap_transfer_secs * 1e3),
        ]);
        rows.push((system, r));
    }
    print!("{}", table.render());

    let mudi = &rows[1].1;
    let more = &rows[2].1;
    let random = &rows[0].1;
    if mudi.overall_violation_rate() > 0.0 {
        compare(
            "Mudi-more violations / Mudi",
            more.overall_violation_rate() / mudi.overall_violation_rate(),
            1.03,
            "x",
        );
    }
    if mudi.ct.mean() > 0.0 {
        compare(
            "Mudi-more CT / Mudi",
            more.ct.mean() / mudi.ct.mean(),
            1.07,
            "x",
        );
        compare(
            "Mudi-more makespan / Mudi",
            more.makespan_secs / mudi.makespan_secs.max(1.0),
            1.09,
            "x",
        );
        compare(
            "Random CT / Mudi-more CT",
            random.ct.mean() / more.ct.mean(),
            1.3,
            "x (paper: Random worst everywhere)",
        );
    }
    compare(
        "Mudi-more waiting / Mudi (queueing benefit)",
        more.waiting.mean() / mudi.waiting.mean().max(1e-9),
        0.8,
        "x",
    );
}
