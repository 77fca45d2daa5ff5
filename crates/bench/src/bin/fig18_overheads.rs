//! Fig. 18 — computational overheads.
//!
//! (a) GP-LCB tuning converges within 25 iterations (median ~17 in the
//! paper), i.e. under ~1.92 s of online sampling.
//! (b) Cluster-wide multiplexing decisions (prediction + device
//! selection) take ≤18 ms (mean 14 ms) in the physical cluster and
//! ≤31 ms (mean 19 ms) in the simulated cluster.

use bench::{banner, compare, physical_config, simulated_config, trace_report};
use cluster::experiments::end_to_end;
use cluster::report::Table;
use cluster::systems::SystemKind;
use simcore::Cdf;

fn main() {
    banner(
        "Fig. 18 — tuning and multiplexing overheads",
        "GP-LCB converges within 25 iterations; placement decisions <=18ms physical / <=31ms simulated",
    );
    for (label, simulated) in [("physical", false), ("simulated", true)] {
        let (cfg, iter_scale) = if simulated {
            simulated_config(SystemKind::Mudi)
        } else {
            physical_config(SystemKind::Mudi)
        };
        let (r, trace) = end_to_end(cfg, iter_scale);
        trace_report(label, &trace);

        println!("\n--- {label} cluster ---");
        // (a) BO iteration distribution.
        let iters: Vec<f64> = r.overhead.bo_iterations.iter().map(|&i| i as f64).collect();
        if !iters.is_empty() {
            let cdf = Cdf::from_samples(iters);
            let mut table = Table::new(&["percentile", "GP-LCB iterations"]);
            for q in [0.1, 0.5, 0.9, 1.0] {
                table.row(vec![
                    format!("p{:.0}", q * 100.0),
                    format!("{:.0}", cdf.quantile(q).unwrap_or(0.0)),
                ]);
            }
            print!("{}", table.render());
            compare(
                "mean GP-LCB iterations",
                r.overhead.mean_bo_iterations(),
                16.0,
                "",
            );
            compare(
                "max GP-LCB iterations",
                r.overhead.max_bo_iterations() as f64,
                25.0,
                " (paper: all <= 25)",
            );
        }
        // (b) Placement decision latency.
        compare(
            "mean placement decision",
            r.overhead.mean_placement_ms(),
            if simulated { 19.0 } else { 14.0 },
            "ms",
        );
        compare(
            "max placement decision",
            r.overhead.max_placement_ms(),
            if simulated { 31.0 } else { 18.0 },
            "ms",
        );
        println!(
            "  tuning passes: {}, placements: {}",
            r.overhead.bo_iterations.len(),
            r.overhead.placement_secs.len()
        );
    }
    println!(
        "\nNote: absolute decision latencies depend on the host CPU; the paper's \
         claim is that decisions are real-time (tens of ms), which holds here."
    );
}
