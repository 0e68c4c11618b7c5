//! Runs the perf-gate smoke sweeps by auto-discovery: every
//! `BENCH_<name>.json` baseline gets its registered experiment executed
//! in-process at the smoke operation count, and the fresh summary lands in
//! the output directory for `perf_gate` to compare.
//!
//! Usage: `perf_smoke <baseline_dir> <out_dir>`
//!
//! Adding a baseline file without registering a runner here is an error (exit
//! 2) — the gate must never silently skip a baseline it cannot reproduce.

use recipe_bench::{metric_slug, write_summary, BenchMetric, BenchSummary, ExperimentRow};

/// The summary of a rows-only figure: every row's throughput (gated), then
/// every row's mean latency and speedup.
fn rows_summary(bench: &str, rows: &[ExperimentRow]) -> BenchSummary {
    let key = |row: &ExperimentRow| {
        format!(
            "{}_{}",
            metric_slug(&row.protocol),
            metric_slug(&row.config)
        )
    };
    let mut metrics: Vec<BenchMetric> = rows
        .iter()
        .map(|row| BenchMetric {
            name: format!("{}_ops_per_sec", key(row)),
            value: row.throughput_ops,
        })
        .collect();
    for row in rows {
        metrics.push(BenchMetric {
            name: format!("{}_mean_latency_us", key(row)),
            value: row.mean_latency_us,
        });
        metrics.push(BenchMetric {
            name: format!("{}_speedup", key(row)),
            value: row.speedup_vs_baseline,
        });
    }
    BenchSummary {
        bench: bench.into(),
        metrics,
    }
}

struct Entry {
    /// Baseline stem: `BENCH_<name>.json`.
    name: &'static str,
    /// Committed-operation count for the CI smoke run (matches the old
    /// hand-listed workflow steps, so the checked-in baselines keep
    /// reproducing bit-for-bit).
    smoke_ops: usize,
    run: fn(usize) -> BenchSummary,
}

const REGISTRY: &[Entry] = &[
    Entry {
        name: "batching",
        smoke_ops: 80,
        run: |ops| recipe_bench::batching_summary(&recipe_bench::fig_batching_report(ops)),
    },
    Entry {
        name: "rebalance",
        smoke_ops: 3200,
        run: |ops| recipe_bench::rebalance_summary(&recipe_bench::fig_rebalance(ops)),
    },
    Entry {
        name: "confidential_policy",
        smoke_ops: 800,
        run: |ops| {
            recipe_bench::confidential_policy_summary(&recipe_bench::fig_confidential_policy(ops))
        },
    },
    Entry {
        name: "txn",
        smoke_ops: 600,
        run: |ops| recipe_bench::txn_summary(&recipe_bench::fig_txn(ops)),
    },
    Entry {
        name: "failover",
        smoke_ops: 2400,
        run: |ops| recipe_bench::failover_summary(&recipe_bench::fig_failover(ops)),
    },
    Entry {
        name: "tenancy",
        smoke_ops: 1500,
        run: |ops| recipe_bench::tenancy_summary(&recipe_bench::fig_tenancy(ops)),
    },
    Entry {
        name: "fig3",
        smoke_ops: 400,
        run: |ops| rows_summary("fig_fig3", &recipe_bench::fig3_value_size(ops)),
    },
    Entry {
        name: "fig4",
        smoke_ops: 400,
        run: |ops| rows_summary("fig_fig4", &recipe_bench::fig4_rw_ratio(ops)),
    },
    Entry {
        name: "fig5",
        smoke_ops: 400,
        run: |ops| rows_summary("fig_fig5", &recipe_bench::fig5_confidentiality(ops)),
    },
    Entry {
        name: "fig6a",
        smoke_ops: 400,
        run: |ops| rows_summary("fig_fig6a", &recipe_bench::fig6a_tee_overheads(ops)),
    },
    Entry {
        name: "fig6b",
        smoke_ops: 0,
        run: |_| BenchSummary {
            bench: "fig_fig6b".into(),
            metrics: recipe_bench::fig6b_network()
                .into_iter()
                .map(|(stack, size, gbps)| BenchMetric {
                    name: format!("{}_{size}_b_gbps", metric_slug(&stack)),
                    value: gbps,
                })
                .collect(),
        },
    },
    Entry {
        name: "damysus",
        smoke_ops: 400,
        run: |ops| rows_summary("fig_damysus", &recipe_bench::damysus_compare(ops)),
    },
    Entry {
        name: "shard_scaling",
        smoke_ops: 600,
        run: |ops| rows_summary("fig_shard_scaling", &recipe_bench::fig_shard_scaling(ops)),
    },
    Entry {
        name: "table2",
        smoke_ops: 0,
        run: |_| BenchSummary {
            bench: "fig_table2".into(),
            metrics: recipe_bft::table2_rows()
                .into_iter()
                .flat_map(|row| {
                    [
                        ("uses_tees", row.uses_tees),
                        ("uses_direct_io", row.uses_direct_io),
                    ]
                    .map(|(what, flag)| BenchMetric {
                        name: format!("{}_{what}", metric_slug(row.name)),
                        value: f64::from(u8::from(flag)),
                    })
                })
                .collect(),
        },
    },
    Entry {
        name: "table4",
        smoke_ops: 20,
        run: |rounds| BenchSummary {
            bench: "fig_table4".into(),
            metrics: recipe_bench::table4_attestation(rounds)
                .into_iter()
                .flat_map(|(service, mean_s, speedup)| {
                    [("mean_s", mean_s), ("speedup", speedup)].map(|(what, value)| BenchMetric {
                        name: format!("{}_{what}", metric_slug(&service)),
                        value,
                    })
                })
                .collect(),
        },
    },
];

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_dir = args
        .next()
        .expect("usage: perf_smoke <baseline_dir> <out_dir>");
    let out_dir = args
        .next()
        .expect("usage: perf_smoke <baseline_dir> <out_dir>");
    std::fs::create_dir_all(&out_dir).expect("output dir created");

    let mut stems: Vec<String> = std::fs::read_dir(&baseline_dir)
        .unwrap_or_else(|err| panic!("cannot list {baseline_dir}: {err}"))
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter_map(|name| {
            name.strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .map(str::to_string)
        })
        .collect();
    stems.sort();
    assert!(
        !stems.is_empty(),
        "no BENCH_*.json baselines in {baseline_dir}"
    );

    for stem in &stems {
        let Some(entry) = REGISTRY.iter().find(|e| e.name == stem) else {
            eprintln!(
                "BENCH_{stem}.json has no registered runner in perf_smoke \
                 (crates/bench/src/bin/perf_smoke.rs): the perf gate cannot reproduce it"
            );
            std::process::exit(2);
        };
        println!("== {stem} (smoke: {} ops) ==", entry.smoke_ops);
        let summary = (entry.run)(entry.smoke_ops);
        let path = format!("{out_dir}/BENCH_{stem}.json");
        write_summary(&path, &summary).expect("summary written");
        println!("summary written to {path}");
    }
    println!("\nperf_smoke: {} summaries regenerated", stems.len());
}
