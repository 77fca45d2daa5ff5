//! Unified-memory manager (§5.6).
//!
//! Mudi keeps a unified pool shared between host and device: inference
//! memory is pinned on the device; when the device overflows, training
//! memory is swapped to the host through the CUDA unified-memory
//! middleware. This module reproduces that mechanism's *accounting*:
//! how much training memory is on the host at any time, the PCIe
//! transfer cost of each swap, the slowdown imposed on a partially
//! swapped training task, and the fraction of time spent in an
//! overflowed state (Tab. 4, Fig. 16(b)).

use simcore::{SimDuration, SimTime, UtilizationIntegrator};

use crate::process::ResidentId;

/// Host↔device PCIe bandwidth modeled for swaps, GB/s (PCIe 4.0 x16
/// effective).
pub const PCIE_GBPS: f64 = 16.0;

/// Slowdown applied to a training task per fraction of its memory that
/// lives on the host (unified-memory page faults on access).
const SWAP_SLOWDOWN: f64 = 0.45;

/// Cumulative swap statistics for one device.
#[derive(Clone, Debug, Default)]
pub struct SwapStats {
    /// Number of swap-out transitions (device → host).
    pub swap_out_events: u64,
    /// Number of swap-in transitions (host → device).
    pub swap_in_events: u64,
    /// Total bytes moved in either direction, GB.
    pub total_moved_gb: f64,
    /// Total transfer time spent, seconds.
    pub total_transfer_secs: f64,
}

impl SwapStats {
    /// Mean transfer time per swap event, seconds.
    pub fn mean_transfer_secs(&self) -> f64 {
        let events = self.swap_out_events + self.swap_in_events;
        if events == 0 {
            0.0
        } else {
            self.total_transfer_secs / events as f64
        }
    }
}

/// Per-device unified-memory state.
#[derive(Clone, Debug)]
pub struct MemoryManager {
    capacity_gb: f64,
    inference_gb: f64,
    /// Memory pinned by a warm-standby shadow instance (pre-loaded
    /// weights). Like inference memory it never swaps to the host.
    standby_gb: f64,
    trainings: Vec<(ResidentId, f64)>,
    /// GB of training memory currently on the host, per training.
    swapped: Vec<(ResidentId, f64)>,
    stats: SwapStats,
    overflow_time: UtilizationIntegrator,
    swapped_series: Vec<(f64, f64)>,
}

impl MemoryManager {
    /// Creates a manager for a device with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    pub fn new(capacity_gb: f64) -> Self {
        assert!(capacity_gb > 0.0, "capacity must be positive");
        let mut overflow_time = UtilizationIntegrator::new();
        overflow_time.set(SimTime::ZERO, 0.0);
        MemoryManager {
            capacity_gb,
            inference_gb: 0.0,
            standby_gb: 0.0,
            trainings: Vec::new(),
            swapped: Vec::new(),
            stats: SwapStats::default(),
            overflow_time,
            swapped_series: vec![(0.0, 0.0)],
        }
    }

    /// Device capacity, GB.
    pub fn capacity_gb(&self) -> f64 {
        self.capacity_gb
    }

    /// Total demand from all residents, GB.
    pub fn total_demand_gb(&self) -> f64 {
        self.inference_gb + self.standby_gb + self.trainings.iter().map(|&(_, gb)| gb).sum::<f64>()
    }

    /// Memory currently resident on the device, GB.
    pub fn device_resident_gb(&self) -> f64 {
        self.total_demand_gb() - self.total_swapped_gb()
    }

    /// Training memory currently on the host, GB.
    pub fn total_swapped_gb(&self) -> f64 {
        self.swapped.iter().map(|&(_, gb)| gb).sum()
    }

    /// Device memory utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        (self.device_resident_gb() / self.capacity_gb).clamp(0.0, 1.0)
    }

    /// Sets the inference demand (e.g. after a batch-size change) and
    /// rebalances. Returns the transfer time incurred, if any.
    pub fn set_inference_demand(&mut self, now: SimTime, gb: f64) -> SimDuration {
        assert!(gb >= 0.0, "negative demand");
        self.inference_gb = gb;
        self.rebalance(now)
    }

    /// Sets the memory pinned by a warm-standby shadow instance
    /// (model weights held resident for a bounded promote) and
    /// rebalances. Standby memory, like inference memory, never swaps.
    pub fn set_standby_demand(&mut self, now: SimTime, gb: f64) -> SimDuration {
        assert!(gb >= 0.0, "negative demand");
        self.standby_gb = gb;
        self.rebalance(now)
    }

    /// Registers a training resident with its demand and rebalances.
    pub fn add_training(&mut self, now: SimTime, id: ResidentId, gb: f64) -> SimDuration {
        assert!(gb >= 0.0, "negative demand");
        assert!(
            !self.trainings.iter().any(|&(i, _)| i == id),
            "duplicate training resident"
        );
        self.trainings.push((id, gb));
        self.rebalance(now)
    }

    /// Removes a training resident (completion or migration) and
    /// rebalances (freed space swaps other residents back in).
    pub fn remove_training(&mut self, now: SimTime, id: ResidentId) -> SimDuration {
        self.trainings.retain(|&(i, _)| i != id);
        self.swapped.retain(|&(i, _)| i != id);
        self.rebalance(now)
    }

    /// Fraction of `id`'s memory currently on the host, in `[0, 1]`.
    pub fn swapped_fraction(&self, id: ResidentId) -> f64 {
        let demand = self
            .trainings
            .iter()
            .find(|&&(i, _)| i == id)
            .map_or(0.0, |&(_, gb)| gb);
        if demand <= 0.0 {
            return 0.0;
        }
        let on_host = self
            .swapped
            .iter()
            .find(|&&(i, _)| i == id)
            .map_or(0.0, |&(_, gb)| gb);
        (on_host / demand).clamp(0.0, 1.0)
    }

    /// Iteration-time multiplier for training `id` due to host-resident
    /// pages (1.0 when fully on device).
    pub fn training_slowdown(&self, id: ResidentId) -> f64 {
        1.0 + SWAP_SLOWDOWN * self.swapped_fraction(id)
    }

    /// Whether the device is currently overflowed (any swap active).
    pub fn is_overflowed(&self) -> bool {
        self.total_swapped_gb() > 1e-9
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SwapStats {
        &self.stats
    }

    /// Fraction of observed time spent with swapping active, as
    /// reported in Tab. 4. Call [`MemoryManager::finish`] first to close
    /// the window.
    pub fn overflow_time_fraction(&self) -> f64 {
        self.overflow_time.time_average()
    }

    /// Time series of `(seconds, swapped GB)`, for Fig. 16(b).
    pub fn swapped_series(&self) -> &[(f64, f64)] {
        &self.swapped_series
    }

    /// Closes the accounting window at `now`.
    pub fn finish(&mut self, now: SimTime) {
        self.overflow_time.finish(now);
    }

    /// Releases every resident's memory at once — a device failure or
    /// full restart, where device memory does not survive. No PCIe
    /// transfer is charged (the state is lost, not migrated); residents
    /// re-register on restart, rebuilding the manager's state.
    pub fn release_all(&mut self, now: SimTime) {
        self.inference_gb = 0.0;
        self.standby_gb = 0.0;
        self.trainings.clear();
        self.swapped.clear();
        self.overflow_time.set(now, 0.0);
        self.swapped_series.push((now.as_secs(), 0.0));
    }

    /// Rebalances after a demand change: training memory spills to the
    /// host, newest (largest-index) residents first — inference memory
    /// never swaps. Returns the PCIe transfer time for the delta moved.
    fn rebalance(&mut self, now: SimTime) -> SimDuration {
        let before = self.total_swapped_gb();
        let overflow = (self.total_demand_gb() - self.capacity_gb).max(0.0);

        // Inference must fit on its own; saturate if it cannot.
        let mut to_swap = overflow.min(self.trainings.iter().map(|&(_, gb)| gb).sum::<f64>());
        self.swapped.clear();
        // Spill later arrivals first (they are the ones that caused the
        // overflow), matching Mudi's host-priority for training pages.
        for &(id, gb) in self.trainings.iter().rev() {
            if to_swap <= 1e-12 {
                break;
            }
            let take = to_swap.min(gb);
            self.swapped.push((id, take));
            to_swap -= take;
        }

        let after = self.total_swapped_gb();
        let moved = (after - before).abs();
        if moved > 1e-9 {
            if after > before {
                self.stats.swap_out_events += 1;
            } else {
                self.stats.swap_in_events += 1;
            }
            self.stats.total_moved_gb += moved;
            let transfer = moved / PCIE_GBPS;
            self.stats.total_transfer_secs += transfer;
            self.overflow_time
                .set(now, if self.is_overflowed() { 1.0 } else { 0.0 });
            self.swapped_series.push((now.as_secs(), after));
            SimDuration::from_secs(transfer)
        } else {
            self.overflow_time
                .set(now, if self.is_overflowed() { 1.0 } else { 0.0 });
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn no_swap_when_everything_fits() {
        let mut m = MemoryManager::new(40.0);
        m.set_inference_demand(t(0.0), 10.0);
        let d = m.add_training(t(1.0), ResidentId(1), 20.0);
        assert_eq!(d.as_secs(), 0.0);
        assert!(!m.is_overflowed());
        assert_eq!(m.total_swapped_gb(), 0.0);
        assert_eq!(m.training_slowdown(ResidentId(1)), 1.0);
        assert!((m.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overflow_swaps_training_not_inference() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 25.0);
        let d = m.set_inference_demand(t(1.0), 30.0);
        // Demand 55, capacity 40 -> 15 GB of training on host.
        assert!((m.total_swapped_gb() - 15.0).abs() < 1e-9);
        assert!(m.is_overflowed());
        assert!((d.as_secs() - 15.0 / PCIE_GBPS).abs() < 1e-9);
        // Device holds everything else.
        assert!((m.device_resident_gb() - 40.0).abs() < 1e-9);
        // Slowdown reflects 15/25 swapped.
        assert!((m.swapped_fraction(ResidentId(1)) - 0.6).abs() < 1e-9);
        assert!(m.training_slowdown(ResidentId(1)) > 1.2);
    }

    #[test]
    fn shrinking_inference_swaps_back_in() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 25.0);
        m.set_inference_demand(t(1.0), 30.0);
        assert!(m.is_overflowed());
        let d = m.set_inference_demand(t(10.0), 10.0);
        assert!(!m.is_overflowed());
        assert!(d.as_secs() > 0.0, "swap-in also transfers");
        assert_eq!(m.stats().swap_out_events, 1);
        assert_eq!(m.stats().swap_in_events, 1);
        assert!((m.stats().total_moved_gb - 30.0).abs() < 1e-9);
    }

    #[test]
    fn newest_training_spills_first() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 15.0);
        m.add_training(t(1.0), ResidentId(2), 15.0);
        m.set_inference_demand(t(2.0), 20.0);
        // Overflow of 10 GB comes out of resident 2.
        assert!((m.swapped_fraction(ResidentId(2)) - 10.0 / 15.0).abs() < 1e-9);
        assert_eq!(m.swapped_fraction(ResidentId(1)), 0.0);
    }

    #[test]
    fn removing_training_releases_pressure() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 25.0);
        m.add_training(t(1.0), ResidentId(2), 25.0);
        m.set_inference_demand(t(2.0), 10.0);
        assert!(m.is_overflowed());
        m.remove_training(t(3.0), ResidentId(2));
        assert!(!m.is_overflowed());
        assert_eq!(m.total_demand_gb(), 35.0);
    }

    #[test]
    fn overflow_time_fraction_tracks_duration() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 25.0);
        // Overflow from t=10 to t=40 out of a 100 s window: 30 %.
        m.set_inference_demand(t(10.0), 30.0);
        m.set_inference_demand(t(40.0), 5.0);
        m.finish(t(100.0));
        assert!((m.overflow_time_fraction() - 0.30).abs() < 0.01);
    }

    #[test]
    fn series_records_transitions() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 30.0);
        m.set_inference_demand(t(5.0), 20.0);
        m.set_inference_demand(t(9.0), 2.0);
        let series = m.swapped_series();
        assert!(series.len() >= 3);
        assert_eq!(series.last().unwrap().1, 0.0);
    }

    #[test]
    fn inference_larger_than_capacity_saturates() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 10.0);
        m.set_inference_demand(t(1.0), 45.0);
        // All training memory is out; inference keeps the device.
        assert!((m.total_swapped_gb() - 10.0).abs() < 1e-9);
        assert_eq!(m.utilization(), 1.0);
    }

    #[test]
    fn standby_memory_pins_like_inference() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 25.0);
        let d = m.set_standby_demand(t(1.0), 30.0);
        // Demand 55, capacity 40 -> 15 GB of *training* on host; the
        // standby's pinned weights never swap.
        assert!((m.total_swapped_gb() - 15.0).abs() < 1e-9);
        assert!(d.as_secs() > 0.0);
        assert!((m.total_demand_gb() - 55.0).abs() < 1e-9);
        // Dropping the standby releases the pressure again.
        m.set_standby_demand(t(2.0), 0.0);
        assert!(!m.is_overflowed());
    }

    #[test]
    #[should_panic(expected = "duplicate training resident")]
    fn duplicate_training_rejected() {
        let mut m = MemoryManager::new(40.0);
        m.add_training(t(0.0), ResidentId(1), 5.0);
        m.add_training(t(1.0), ResidentId(1), 5.0);
    }
}
