//! Statistics helpers: percentiles that state their support, open-loop
//! latency timed from the due time, generator lateness and backlog, and
//! span self-time.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct)]
}

/// Zero-based nearest-rank index of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up past 990.
    let r = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the nearest-rank `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, pct)
}

/// The median of an ascending slice (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// A tail value together with the percentile it is and its support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9, p99.99)
/// with at least [`MIN_BEYOND`] samples beyond it, or `None` when even
/// the median lacks that support.
pub fn highest_supported(sorted: &[f64]) -> Option<Tail> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(sorted, pct),
            samples: sorted.len(),
        })
}

/// The value labelled `pct`, refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (so a p99 needs at least 1,000 samples).
pub fn labelled(sorted: &[f64], pct: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || beyond(n, pct) < MIN_BEYOND {
        return Err(format!(
            "p{pct} needs {MIN_BEYOND} samples beyond it; {n} samples give {}",
            beyond(n, pct)
        ));
    }
    Ok(percentile(sorted, pct))
}

/// A tail that one stall cannot move: `values` (in arrival order) are
/// cut into consecutive blocks of `block`, each block's labelled `pct`
/// is taken, and the median of those is returned. Every block must
/// support the label on its own, and a trailing partial block is left
/// out.
pub fn median_block_percentile(values: &[f64], block: usize, pct: f64) -> Result<f64, String> {
    let tails = values
        .chunks_exact(block)
        .map(|b| labelled(&sorted(b.to_vec()), pct))
        .collect::<Result<Vec<f64>, String>>()?;
    if tails.is_empty() {
        return Err(format!("{} samples make no block of {block}", values.len()));
    }
    Ok(median_of(&tails))
}

/// Sorts a sample vector ascending (total order, NaN last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of unsorted values.
pub fn median_of(v: &[f64]) -> f64 {
    median(&sorted(v.to_vec()))
}

/// An open-loop schedule: request `i` is due `i / rate` seconds after
/// the schedule starts, whether or not earlier requests have finished.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Requests per second.
    pub rate: f64,
}

impl OpenLoop {
    /// Offset of request `i` from the schedule start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Requests due at or before `elapsed` since the schedule start.
    pub fn due_by(&self, elapsed: Duration) -> usize {
        (elapsed.as_secs_f64() * self.rate).floor() as usize + 1
    }
}

/// One open-loop request's timing, as offsets from the schedule start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// When it was due.
    pub due: Duration,
    /// When the generator actually sent it (never before `due`).
    pub sent: Duration,
    /// When its response had fully arrived.
    pub done: Duration,
}

impl Timed {
    /// Latency as the user sees it: from when the request was due, so
    /// a stall also counts against every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time from sending to the full response (excludes lateness).
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// A closed interval of a span, nanoseconds from a common origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start, inclusive.
    pub start: u64,
    /// End, `>= start`.
    pub end: u64,
}

/// A span's self time: its length minus the part of it that its
/// children cover. Overlapping children count once, and the parts of
/// children outside the parent count not at all.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.end - parent.start) - covered
}

/// Share of `spans` that overlap at least one of `others` (both sets
/// as intervals on one clock).
pub fn overlap_share(spans: &[Interval], others: &[Interval]) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    let mut others = others.to_vec();
    others.sort_unstable_by_key(|o| o.start);
    let hit = spans
        .iter()
        .filter(|s| {
            // Any other starting before this span ends and ending after
            // it starts overlaps it.
            let upto = others.partition_point(|o| o.start < s.end);
            others[..upto].iter().any(|o| o.end > s.start)
        })
        .count();
    hit as f64 / spans.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(1000);
        assert_eq!(median(&v), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        // 1,000 samples support p99 (10 beyond) but not p99.9 (1).
        let t = highest_supported(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples fall back to p90.
        assert_eq!(highest_supported(&ramp(999)).unwrap().pct, 90.0);
        // 10,000 samples support p99.9.
        assert_eq!(highest_supported(&ramp(10_000)).unwrap().pct, 99.9);
        // Too few for even a supported median.
        assert!(highest_supported(&ramp(15)).is_none());
        assert_eq!(highest_supported(&ramp(21)).unwrap().pct, 50.0);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert!(labelled(&ramp(999), 99.0).is_err());
        assert_eq!(labelled(&ramp(1000), 99.0), Ok(990.0));
        assert!(labelled(&[], 50.0).is_err());
    }

    #[test]
    fn block_median_ignores_one_stalled_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        // One stall inflates the tail of the middle block only.
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(median_block_percentile(&v, 1000, 99.0), Ok(989.0));
        assert!(median_block_percentile(&v[..999], 1000, 99.0).is_err());
        assert!(median_block_percentile(&v, 500, 99.0).is_err());
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        let sched = OpenLoop { rate: 1000.0 };
        let ms = Duration::from_millis;
        // The first request stalls for 5 ms; the second was due at 1 ms
        // but could only be sent when the first returned.
        let first = Timed {
            due: sched.due(0),
            sent: ms(0),
            done: ms(5),
        };
        let second = Timed {
            due: sched.due(1),
            sent: ms(5),
            done: ms(6),
        };
        assert_eq!(first.latency(), ms(5));
        assert_eq!(second.latency(), ms(5));
        assert_eq!(second.service(), ms(1));
        assert_eq!(second.late(), ms(4));
        // Four more were due by the time the second went out.
        assert_eq!(sched.due_by(ms(5)) - 2, 4);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = Interval { start: 0, end: 100 };
        let kids = [
            Interval { start: 10, end: 30 },
            Interval { start: 20, end: 40 }, // overlaps the first
            Interval {
                start: 90,
                end: 120,
            }, // sticks out of the parent
        ];
        assert_eq!(self_time(p, &kids), 100 - 30 - 10);
        assert_eq!(self_time(p, &[]), 100);
    }

    #[test]
    fn overlap_share_counts_spans_touching_another_set() {
        let iv = |start, end| Interval { start, end };
        let infer = [iv(0, 5), iv(10, 15), iv(20, 25), iv(30, 35)];
        let clock = [iv(12, 22)];
        assert_eq!(overlap_share(&infer, &clock), 0.5);
        assert_eq!(overlap_share(&infer, &[]), 0.0);
    }
}
