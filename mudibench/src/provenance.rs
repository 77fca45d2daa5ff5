//! Where a result came from: host, revision, seed, engine parallelism.
//!
//! Results measured at different core counts are not comparable (the
//! engine resolves its lane and worker counts from the core count), so
//! [`comparable`] refuses such pairs.

use std::path::Path;

/// The provenance recorded with every result.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The first `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// The git revision of the checkout, or `unknown` outside git.
    pub git_revision: String,
    /// The workload seed.
    pub seed: u64,
    /// Engine lanes (shards) the session resolved.
    pub lanes: usize,
    /// Lane workers the session resolved.
    pub workers: usize,
}

impl Provenance {
    /// Captures the host facts; lanes and workers are filled in by the
    /// workload once its session has resolved them.
    pub fn capture(seed: u64) -> Self {
        Provenance {
            available_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            git_revision: git_revision(Path::new(env!("CARGO_MANIFEST_DIR")).parent())
                .unwrap_or_else(|| "unknown".to_string()),
            seed,
            lanes: 0,
            workers: 0,
        }
    }

    /// The provenance as `(key, value)` pairs, in a fixed order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "available_parallelism",
                self.available_parallelism.to_string(),
            ),
            ("cpu_model", self.cpu_model.clone()),
            ("git_revision", self.git_revision.clone()),
            ("seed", self.seed.to_string()),
            ("engine.lanes", self.lanes.to_string()),
            ("engine.workers", self.workers.to_string()),
        ]
    }
}

/// Why two results cannot be compared, if they cannot.
pub fn comparable(a: &[(String, String)], b: &[(String, String)]) -> Result<(), String> {
    let get = |p: &[(String, String)], k: &str| {
        p.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    for key in ["available_parallelism", "engine.lanes", "engine.workers"] {
        match (get(a, key), get(b, key)) {
            (Some(x), Some(y)) if x == y => {}
            (x, y) => {
                return Err(format!(
                    "results differ in {key} ({} vs {}); measurements from different core counts are not comparable",
                    x.unwrap_or_else(|| "missing".into()),
                    y.unwrap_or_else(|| "missing".into())
                ))
            }
        }
    }
    Ok(())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_revision(root: Option<&Path>) -> Option<String> {
    let git = root?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(cores: &str) -> Vec<(String, String)> {
        [
            ("available_parallelism", cores),
            ("engine.lanes", "2"),
            ("engine.workers", "2"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    #[test]
    fn results_from_different_core_counts_are_refused() {
        assert!(comparable(&prov("2"), &prov("2")).is_ok());
        let err = comparable(&prov("2"), &prov("4")).unwrap_err();
        assert!(err.contains("available_parallelism"), "{err}");
        assert!(comparable(&prov("2"), &[]).is_err());
    }
}
