//! The Interference Predictor (Fig. 6, module ③).
//!
//! Online, Mudi predicts the Eq. 1 latency curve for any (service,
//! batching size, co-located training set). Exact offline profiles are
//! reused when the co-location was profiled; otherwise the prediction
//! comes from the architecture-based Interference Modeler — which is
//! how previously *unobserved* training tasks are handled (§4.2).

use std::cell::RefCell;
use std::collections::HashMap;

use modeling::fit::piecewise::PiecewiseLinear;
use simcore::SimRng;
use workloads::{NetworkArchitecture, ServiceId};

use crate::interference::InterferenceModeler;
use crate::profiler::ProfileDatabase;

/// The online latency-curve predictor.
pub struct InterferencePredictor {
    modeler: InterferenceModeler,
    db: ProfileDatabase,
    /// Memoized [`InterferencePredictor::curve_for_arch`] results. The
    /// modeler is pure given its trained weights, and the engine asks
    /// for the same handful of `(service, merged arch, batch)` keys on
    /// every retune, so the steady-state stepping loop hits this cache
    /// and never re-runs the four learner predictions. Invalidated on
    /// [`InterferencePredictor::incorporate`].
    memo: RefCell<HashMap<(ServiceId, NetworkArchitecture, u32), Option<PiecewiseLinear>>>,
}

impl InterferencePredictor {
    /// Builds the predictor from an offline profile database.
    ///
    /// Returns `None` when the database is empty.
    pub fn new(db: ProfileDatabase, rng: &mut SimRng) -> Option<Self> {
        let modeler = InterferenceModeler::train(&db, rng)?;
        Some(InterferencePredictor {
            modeler,
            db,
            memo: RefCell::new(HashMap::new()),
        })
    }

    /// A replica for another engine lane: shares the trained models'
    /// weights, copies the profile database and training data, and
    /// starts with an empty memo. Predicts exactly as `self` does.
    pub fn replicate(&self) -> Self {
        InterferencePredictor {
            modeler: self.modeler.clone(),
            db: self.db.clone(),
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// Predicts the latency curve from a cumulative architecture (the
    /// path taken for unobserved tasks).
    pub fn curve_for_arch(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batch: u32,
    ) -> Option<PiecewiseLinear> {
        let key = (service, *arch, batch);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return *hit;
        }
        let curve = self.modeler.predict(service, arch, batch);
        self.memo.borrow_mut().insert(key, curve);
        curve
    }

    /// Predicted P99 latency `P(b, Δ, Ψ)` in seconds.
    pub fn latency(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batch: u32,
        fraction: f64,
    ) -> Option<f64> {
        Some(
            self.curve_for_arch(service, arch, batch)?
                .eval(fraction)
                .max(0.0),
        )
    }

    /// The largest predicted cutoff Δ0 across batching sizes — the
    /// Tuner's initial GPU% when a training task first co-locates
    /// (§5.3.2).
    pub fn max_cutoff(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batches: &[u32],
    ) -> Option<f64> {
        batches
            .iter()
            .filter_map(|&b| self.curve_for_arch(service, arch, b).map(|c| c.x0))
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// The Device Selector's interference score: the mean relative
    /// slope magnitude across batching sizes (§5.2). Slopes are
    /// normalized by the curve's cutoff latency so services with very
    /// different absolute latencies (YOLOS vs GPT2) are comparable.
    pub fn mean_slope_score(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batches: &[u32],
    ) -> Option<f64> {
        let mut total = 0.0;
        let mut n = 0usize;
        for &b in batches {
            let c = self.curve_for_arch(service, arch, b)?;
            total += c.mean_slope_magnitude() / c.y0.max(1e-9);
            n += 1;
        }
        (n > 0).then(|| total / n as f64)
    }

    /// Folds new profile records in and retrains (incremental update).
    pub fn incorporate(&mut self, extra: ProfileDatabase, rng: &mut SimRng) {
        self.modeler.update(&extra, rng);
        for rec in extra.records() {
            self.db.insert(rec.clone());
        }
        // The retrained modeler can answer differently for every key.
        self.memo.borrow_mut().clear();
    }

    /// The underlying modeler (Fig. 11 diagnostics).
    pub fn modeler(&self) -> &InterferenceModeler {
        &self.modeler
    }

    /// The profile database (exact curves).
    pub fn database(&self) -> &ProfileDatabase {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MudiConfig;
    use crate::profiler::{LatencyProfiler, ProfileKey};
    use workloads::{GroundTruth, Zoo};

    fn build() -> (GroundTruth, InterferencePredictor) {
        let gt = GroundTruth::new(Zoo::standard(), 21);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(9);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let p = InterferencePredictor::new(db, &mut rng).unwrap();
        (gt, p)
    }

    #[test]
    fn unprofiled_batch_falls_back_to_model() {
        let (gt, p) = build();
        let svc = gt.zoo().services()[1].id;
        let task = gt.zoo().profiled_task_ids()[1];
        // Batch 48 was never profiled; the model must answer anyway.
        let arch = LatencyProfiler::merged_arch(&gt, &[task]);
        let c = p.curve_for_arch(svc, &arch, 48).unwrap();
        assert!(c.y0 > 0.0 && c.k1 <= 0.0);
    }

    #[test]
    fn unobserved_tasks_get_predictions() {
        let (gt, p) = build();
        let svc = gt.zoo().service_by_name("GPT2").unwrap().id;
        for &t in &gt.zoo().unobserved_task_ids() {
            let c = p
                .curve_for_arch(svc, &LatencyProfiler::merged_arch(&gt, &[t]), 128)
                .expect("prediction for unobserved task");
            assert!((0.12..=0.92).contains(&c.x0));
        }
    }

    #[test]
    fn max_cutoff_covers_batches() {
        let (gt, p) = build();
        let svc = gt.zoo().services()[0].id;
        let arch = gt.zoo().tasks()[0].arch;
        let all = p.max_cutoff(svc, &arch, &[16, 64, 512]).unwrap();
        let small = p.max_cutoff(svc, &arch, &[16]).unwrap();
        assert!(all >= small);
        assert!(p.max_cutoff(svc, &arch, &[]).is_none());
    }

    #[test]
    fn slope_score_ranks_heavy_tasks_higher() {
        let (gt, p) = build();
        let svc = gt.zoo().service_by_name("ResNet50").unwrap().id;
        let batches = [16u32, 32, 64, 128, 256, 512];
        let heavy = p
            .mean_slope_score(
                svc,
                &gt.zoo().task_by_name("ResNet50-train").unwrap().arch,
                &batches,
            )
            .unwrap();
        let light = p
            .mean_slope_score(svc, &gt.zoo().task_by_name("NCF").unwrap().arch, &batches)
            .unwrap();
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn latency_is_positive_everywhere() {
        let (gt, p) = build();
        for svc in gt.zoo().services() {
            let arch = gt.zoo().tasks()[3].arch;
            for frac in [0.1, 0.5, 0.9] {
                let l = p.latency(svc.id, &arch, 64, frac).unwrap();
                assert!(l > 0.0);
            }
        }
    }

    #[test]
    fn incorporate_grows_database() {
        let (gt, mut p) = build();
        let before = p.database().len();
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(17);
        let mut extra = ProfileDatabase::new();
        let unseen = gt.zoo().unobserved_task_ids()[1];
        let svc = gt.zoo().services()[2].id;
        extra.insert(profiler.profile(&gt, svc, 32, &[unseen], &mut rng).unwrap());
        p.incorporate(extra, &mut rng);
        assert_eq!(p.database().len(), before + 1);
        // The new exact curve is now served directly.
        let key = ProfileKey::new(svc, 32, vec![unseen]);
        assert!(p.database().get(&key).is_some());
    }
}
