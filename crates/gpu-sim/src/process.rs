//! Processes resident on a simulated GPU.

use workloads::{ServiceId, TaskId};

/// Opaque identifier for a resident process (assigned by the owner,
/// e.g. the cluster's job id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResidentId(pub u64);

/// An inference-service instance pinned to a GPU partition.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceInstance {
    /// The service type.
    pub service: ServiceId,
    /// Current batching size.
    pub batch: u32,
    /// GPU fraction allocated (0..=1).
    pub gpu_fraction: f64,
    /// Request arrival rate currently served by this replica, QPS.
    pub qps: f64,
}

impl InferenceInstance {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `(0, 1]` or the batch is zero.
    pub fn new(service: ServiceId, batch: u32, gpu_fraction: f64, qps: f64) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(
            gpu_fraction > 0.0 && gpu_fraction <= 1.0,
            "invalid GPU fraction {gpu_fraction}"
        );
        assert!(qps >= 0.0, "negative QPS");
        InferenceInstance {
            service,
            batch,
            gpu_fraction,
            qps,
        }
    }
}

/// A warm-standby shadow instance parked on a GPU.
///
/// The standby reserves `reserve_fraction` of the device's GPU% while
/// idle (`qps == 0`) and, when its weights are pre-loaded, pins the
/// service's model memory so promotion skips the cold deploy path.
/// Promotion simply starts routing traffic to it (`qps > 0`); the
/// reserved slice doubles as its serving allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct StandbyInstance {
    /// The service this standby can cover.
    pub service: ServiceId,
    /// Batch size the standby would serve at (mirrors the primary).
    pub batch: u32,
    /// GPU fraction reserved for (and served with by) the standby.
    pub reserve_fraction: f64,
    /// Whether model weights are resident in GPU memory while idle.
    pub preloaded: bool,
    /// Traffic currently served; `0.0` while idle, positive once
    /// promoted.
    pub qps: f64,
}

impl StandbyInstance {
    /// Creates an idle standby.
    ///
    /// # Panics
    ///
    /// Panics if the reserve fraction is outside `(0, 1]` or the batch
    /// is zero.
    pub fn new(service: ServiceId, batch: u32, reserve_fraction: f64, preloaded: bool) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(
            reserve_fraction > 0.0 && reserve_fraction <= 1.0,
            "invalid standby reserve {reserve_fraction}"
        );
        StandbyInstance {
            service,
            batch,
            reserve_fraction,
            preloaded,
            qps: 0.0,
        }
    }

    /// Whether the standby has been promoted to serving.
    pub fn is_active(&self) -> bool {
        self.qps > 0.0
    }
}

/// A training process resident on a GPU partition.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingProcess {
    /// Owner-assigned identifier (job id).
    pub id: ResidentId,
    /// The task type.
    pub task: TaskId,
    /// GPU fraction allocated (0..=1).
    pub gpu_fraction: f64,
    /// Iterations completed so far.
    pub completed_iterations: u64,
    /// Total iterations required.
    pub total_iterations: u64,
}

impl TrainingProcess {
    /// Creates a process at zero progress.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `(0, 1]` or totals are zero.
    pub fn new(id: ResidentId, task: TaskId, gpu_fraction: f64, total_iterations: u64) -> Self {
        assert!(
            gpu_fraction > 0.0 && gpu_fraction <= 1.0,
            "invalid GPU fraction {gpu_fraction}"
        );
        assert!(total_iterations > 0, "zero-length training task");
        TrainingProcess {
            id,
            task,
            gpu_fraction,
            completed_iterations: 0,
            total_iterations,
        }
    }

    /// Creates a process restored from a checkpoint: `completed`
    /// iterations are already done (a restarted job resumes where its
    /// last checkpoint left it, not from zero).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrainingProcess::new`].
    pub fn with_progress(
        id: ResidentId,
        task: TaskId,
        gpu_fraction: f64,
        completed: u64,
        total_iterations: u64,
    ) -> Self {
        let mut p = Self::new(id, task, gpu_fraction, total_iterations);
        p.completed_iterations = completed.min(total_iterations);
        p
    }

    /// Remaining iterations.
    pub fn remaining_iterations(&self) -> u64 {
        self.total_iterations
            .saturating_sub(self.completed_iterations)
    }

    /// Advances progress by `n` iterations, clamped at the total.
    pub fn advance(&mut self, n: u64) {
        self.completed_iterations = (self.completed_iterations + n).min(self.total_iterations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_progress_lifecycle() {
        let mut p = TrainingProcess::new(ResidentId(1), TaskId(0), 0.5, 100);
        assert_eq!(p.remaining_iterations(), 100);
        p.advance(60);
        assert_eq!(p.completed_iterations, 60);
        p.advance(1000);
        assert_eq!(p.remaining_iterations(), 0);
        assert_eq!(p.completed_iterations, 100);
    }

    #[test]
    #[should_panic(expected = "invalid GPU fraction")]
    fn inference_rejects_bad_fraction() {
        let _ = InferenceInstance::new(ServiceId(0), 16, 1.5, 100.0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn training_rejects_zero_total() {
        let _ = TrainingProcess::new(ResidentId(1), TaskId(0), 0.5, 0);
    }
}
