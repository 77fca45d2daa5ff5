//! Training checkpoint/restore accounting.
//!
//! Checkpoints fire every fixed amount of *accrued running time* (wall
//! time the job actually spent computing — paused and evicted spans do
//! not advance the clock). The engine accrues training progress
//! analytically over spans of constant rate, so [`CheckpointTracker`]
//! interpolates the iteration count at each period boundary crossed by
//! a span instead of sampling: the recorded checkpoint is *exactly* the
//! progress at the boundary, which is what guarantees a restore never
//! loses more than one period of work.

use simcore::SimDuration;

/// Tracks checkpoint state for one training job.
#[derive(Clone, Debug)]
pub struct CheckpointTracker {
    period_secs: f64,
    /// Running time accrued since the job first started, seconds.
    run_secs: f64,
    /// Iterations captured by the most recent checkpoint.
    checkpoint_iters: f64,
    /// Run-clock time of the most recent checkpoint.
    checkpoint_run_secs: f64,
    /// Stall charged per checkpoint write, seconds of running time.
    write_secs: f64,
    /// Checkpoints written so far (period boundaries crossed).
    writes: u64,
}

impl CheckpointTracker {
    /// Starts tracking a job with `initial_iters` of prior progress
    /// (zero for a fresh job; non-zero when a requeued job restarts
    /// from its restored checkpoint, which counts as a checkpoint-on-
    /// start). Checkpoint writes are free; use [`Self::with_write_cost`]
    /// to charge bandwidth time per write.
    ///
    /// # Panics
    ///
    /// Panics unless `period` is strictly positive.
    pub fn new(period: SimDuration, initial_iters: f64) -> Self {
        Self::with_write_cost(period, initial_iters, 0.0)
    }

    /// Like [`Self::new`], but each checkpoint write stalls the job for
    /// `write_secs` of running time (working set over PCIe/NVMe
    /// bandwidth). The engine folds the stall into the job's effective
    /// progress rate via [`Self::efficiency`]: over one period the job
    /// computes for `period` and writes for `write_secs`, so useful
    /// progress per unit running time scales by
    /// `period / (period + write_secs)`.
    ///
    /// # Panics
    ///
    /// Panics unless `period` is strictly positive and `write_secs` is
    /// finite and non-negative.
    pub fn with_write_cost(period: SimDuration, initial_iters: f64, write_secs: f64) -> Self {
        assert!(period.as_secs() > 0.0, "checkpoint period must be positive");
        assert!(
            write_secs.is_finite() && write_secs >= 0.0,
            "invalid checkpoint write cost {write_secs}"
        );
        CheckpointTracker {
            period_secs: period.as_secs(),
            run_secs: 0.0,
            checkpoint_iters: initial_iters,
            checkpoint_run_secs: 0.0,
            write_secs,
            writes: 0,
        }
    }

    /// Records a span of `span_secs` of running time over which the
    /// job's completed iterations advanced linearly from `start_iters`
    /// to `end_iters`, firing any checkpoints whose period boundary
    /// falls inside the span.
    pub fn on_progress(&mut self, span_secs: f64, start_iters: f64, end_iters: f64) {
        if span_secs <= 0.0 {
            return;
        }
        let span_start = self.run_secs;
        self.run_secs += span_secs;
        // Every boundary crossed is a checkpoint written (and paid
        // for), even though only the latest one matters for restores.
        let crossed = (self.run_secs / self.period_secs).floor() as u64
            - (span_start / self.period_secs).floor() as u64;
        self.writes += crossed;
        // Last whole-period boundary at or before the new run clock.
        let k = (self.run_secs / self.period_secs).floor();
        let boundary = k * self.period_secs;
        if boundary > span_start && boundary > self.checkpoint_run_secs {
            // Progress is linear in run time over the span, so the
            // iteration count at the boundary is exact.
            let frac = (boundary - span_start) / span_secs;
            self.checkpoint_iters = start_iters + frac * (end_iters - start_iters);
            self.checkpoint_run_secs = boundary;
        }
    }

    /// Restores the job to its last checkpoint, returning the iteration
    /// count to resume from. The run clock rewinds to the checkpoint,
    /// so the next checkpoint fires one full period after it.
    pub fn rollback(&mut self) -> f64 {
        self.run_secs = self.checkpoint_run_secs;
        self.checkpoint_iters
    }

    /// Iterations captured by the most recent checkpoint.
    pub fn checkpoint_iters(&self) -> f64 {
        self.checkpoint_iters
    }

    /// The configured checkpoint period.
    pub fn period(&self) -> SimDuration {
        SimDuration::from_secs(self.period_secs)
    }

    /// The stall charged per checkpoint write, seconds.
    pub fn write_secs(&self) -> f64 {
        self.write_secs
    }

    /// Checkpoints written so far (one per period boundary crossed).
    pub fn checkpoints_taken(&self) -> u64 {
        self.writes
    }

    /// Total running time spent writing checkpoints so far, seconds.
    pub fn write_time_spent(&self) -> f64 {
        self.writes as f64 * self.write_secs
    }

    /// The fraction of running time that produces iterations once the
    /// per-period write stall is charged: `period / (period + write)`.
    /// `1.0` when writes are free.
    pub fn efficiency(&self) -> f64 {
        self.period_secs / (self.period_secs + self.write_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(period: f64) -> CheckpointTracker {
        CheckpointTracker::new(SimDuration::from_secs(period), 0.0)
    }

    /// Running time since the last checkpoint, seconds: at most one
    /// period (up to floating-point rounding) by construction.
    fn secs_since_checkpoint(t: &CheckpointTracker) -> f64 {
        t.run_secs - t.checkpoint_run_secs
    }

    #[test]
    fn no_checkpoint_before_first_boundary() {
        let mut t = tracker(100.0);
        t.on_progress(99.0, 0.0, 990.0);
        assert_eq!(t.checkpoint_iters(), 0.0);
        assert_eq!(t.rollback(), 0.0);
    }

    #[test]
    fn boundary_inside_span_is_interpolated_exactly() {
        let mut t = tracker(100.0);
        // Span [60, 140) at 10 iters/sec: boundary at 100s → 400 iters
        // into the span start's 600.
        t.on_progress(60.0, 0.0, 600.0);
        t.on_progress(80.0, 600.0, 1400.0);
        assert!((t.checkpoint_iters() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn long_span_checkpoints_at_latest_boundary() {
        let mut t = tracker(100.0);
        // One span crossing three boundaries: only the latest matters.
        t.on_progress(350.0, 0.0, 700.0);
        assert!((t.checkpoint_iters() - 600.0).abs() < 1e-9);
        assert!(secs_since_checkpoint(&t) <= 100.0 + 1e-9);
    }

    #[test]
    fn rollback_rewinds_the_run_clock() {
        let mut t = tracker(100.0);
        t.on_progress(150.0, 0.0, 150.0);
        assert_eq!(t.rollback(), 100.0);
        // After rollback we are exactly at the checkpoint; the next
        // boundary is one full period away.
        t.on_progress(99.0, 100.0, 199.0);
        assert_eq!(t.checkpoint_iters(), 100.0);
        t.on_progress(2.0, 199.0, 201.0);
        assert!((t.checkpoint_iters() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn loss_never_exceeds_one_period_of_progress() {
        // Irregular spans with a varying rate; the invariant must hold
        // after every span.
        let mut t = tracker(60.0);
        let spans = [
            (13.0, 2.0),
            (95.0, 1.0),
            (7.5, 4.0),
            (61.0, 0.5),
            (240.0, 3.0),
            (59.9, 10.0),
        ];
        let mut iters = 0.0;
        let mut max_rate_seen = 0.0f64;
        for (secs, rate) in spans {
            let end = iters + secs * rate;
            t.on_progress(secs, iters, end);
            iters = end;
            max_rate_seen = max_rate_seen.max(rate);
            let lost = iters - t.checkpoint_iters();
            // Lost work ≤ time-since-checkpoint × current rate, and
            // time-since-checkpoint ≤ one period.
            assert!(secs_since_checkpoint(&t) <= 60.0 + 1e-9);
            assert!(lost <= 60.0 * max_rate_seen + 1e-9, "lost {lost}");
        }
    }

    #[test]
    fn restored_job_checkpoints_from_its_initial_progress() {
        let mut t = CheckpointTracker::new(SimDuration::from_secs(50.0), 500.0);
        assert_eq!(t.rollback(), 500.0);
        t.on_progress(10.0, 500.0, 510.0);
        assert_eq!(510.0 - t.checkpoint_iters(), 10.0);
    }

    #[test]
    fn free_writes_have_unit_efficiency() {
        let t = tracker(100.0);
        assert_eq!(t.write_secs(), 0.0);
        assert_eq!(t.efficiency(), 1.0);
        assert_eq!(t.checkpoints_taken(), 0);
    }

    #[test]
    fn every_boundary_crossing_is_a_write() {
        let mut t = CheckpointTracker::with_write_cost(SimDuration::from_secs(100.0), 0.0, 8.0);
        t.on_progress(99.0, 0.0, 99.0); // no boundary
        assert_eq!(t.checkpoints_taken(), 0);
        t.on_progress(2.0, 99.0, 101.0); // crosses 100
        assert_eq!(t.checkpoints_taken(), 1);
        t.on_progress(350.0, 101.0, 451.0); // crosses 200, 300, 400
        assert_eq!(t.checkpoints_taken(), 4);
        assert!((t.write_time_spent() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_charges_the_per_period_stall() {
        let t = CheckpointTracker::with_write_cost(SimDuration::from_secs(600.0), 0.0, 6.0);
        assert!((t.efficiency() - 600.0 / 606.0).abs() < 1e-12);
    }

    #[test]
    fn write_cost_does_not_change_checkpoint_interpolation() {
        let mut free = tracker(100.0);
        let mut paid = CheckpointTracker::with_write_cost(SimDuration::from_secs(100.0), 0.0, 5.0);
        for t in [&mut free, &mut paid] {
            t.on_progress(60.0, 0.0, 600.0);
            t.on_progress(80.0, 600.0, 1400.0);
        }
        assert_eq!(free.checkpoint_iters(), paid.checkpoint_iters());
        assert_eq!(free.rollback(), paid.rollback());
    }
}
