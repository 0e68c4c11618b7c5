//! Loading the benchmark's workloads: scenario files under `workloads/`,
//! with the benchmark's seed written over both seeds of the loaded scenario.

use std::path::{Path, PathBuf};

use recipe_scenario::{Scenario, WorkloadKind};

/// Width of the throughput-timeline buckets the commit-gap metric reads.
pub const TIMELINE_BUCKET_NS: u64 = 1_000_000;

/// The directory holding `<name>.toml`: `wall_bench/workloads` under the
/// current directory when the benchmark is run from the repository root (as
/// the driver and the README do), else the package's own source directory.
pub fn workloads_dir() -> PathBuf {
    let from_root = Path::new("wall_bench/workloads");
    if from_root.is_dir() {
        from_root.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads")
    }
}

/// Names of the workload files present, sorted.
pub fn available(dir: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|e| e == "toml") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// The `rep`-th input seed of a run started with `--seed seed`. Every rep of
/// a run draws its own inputs, so a run averages over several request
/// streams; mixing (SplitMix64) keeps the streams of neighbouring `--seed`
/// values apart, so runs with seeds 1, 2, 3… share no rep.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Loads `dir/<name>.toml` and overwrites the deployment seed (fault streams,
/// shard seeds, gateway credentials) and the workload seed (keys, read/write
/// mix, transaction shapes) with `seed`, so the program under test only ever
/// sees inputs generated from the benchmark's seed. Also turns on the
/// throughput timeline the commit-gap metric needs.
pub fn load(dir: &Path, name: &str, seed: u64) -> Result<Scenario, String> {
    let path = dir.join(format!("{name}.toml"));
    let mut scenario = Scenario::from_path(&path).map_err(|e| e.to_string())?;
    scenario.deployment = scenario
        .deployment
        .with_seed(seed)
        .with_timeline_bucket_ns(TIMELINE_BUCKET_NS);
    match &mut scenario.workload {
        WorkloadKind::Single(base) => base.seed = seed,
        WorkloadKind::Txn(txn) => txn.base.seed = seed,
        WorkloadKind::HotShard { base, .. } => base.seed = seed,
    }
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_scenario::Protocol;

    fn workload_seed(scenario: &Scenario) -> u64 {
        match &scenario.workload {
            WorkloadKind::Single(base) | WorkloadKind::HotShard { base, .. } => base.seed,
            WorkloadKind::Txn(txn) => txn.base.seed,
        }
    }

    #[test]
    fn every_workload_file_loads_validates_and_is_declared() {
        let dir = workloads_dir();
        let names = available(&dir).expect("workloads directory is readable");
        let mut declared = crate::decl::Declared::load()
            .expect("declaration")
            .workloads;
        declared.sort();
        assert_eq!(names, declared, "workloads/*.toml vs BENCHMARK.json");
        for name in &names {
            let scenario = load(&dir, name, 7).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&scenario.name, name, "file name and scenario name agree");
            assert_eq!(scenario.protocols, vec![Protocol::Raft], "{name}");
            assert_eq!(scenario.deployment.replicas_per_shard(), 3, "{name}");
            assert!(scenario.expect.zero_lost_commits, "{name}");
            // Timed reps run with telemetry off; the traced rep turns it on.
            assert!(!scenario.deployment.telemetry().enabled, "{name}");
        }
    }

    #[test]
    fn seed_override_reaches_both_seeds() {
        let dir = workloads_dir();
        for name in available(&dir).expect("workloads directory is readable") {
            for seed in [3u64, 0xDEAD_BEEF] {
                let scenario = load(&dir, &name, seed).expect("loads");
                assert_eq!(scenario.deployment.seed(), seed, "{name}: deployment.seed");
                assert_eq!(workload_seed(&scenario), seed, "{name}: workload seed");
            }
        }
    }

    #[test]
    fn rep_seeds_are_distinct_across_reps_and_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            for rep in 0..8 {
                assert!(seen.insert(rep_seed(seed, rep)), "seed {seed} rep {rep}");
            }
        }
        assert_eq!(rep_seed(5, 2), rep_seed(5, 2));
    }
}
