//! Golden cost table: every formula of [`ProtocolCostModel`] over six profile
//! shapes and a grid of sizes, with the integer it charges and the
//! per-category split, compared cell by cell against
//! `tests/golden/cost_table.txt`.
//!
//! The table was taken before the cost formulas were rewritten; a change to
//! the cost model that is meant to move the virtual clock regenerates it with
//! `cargo test -p recipe-sim --test cost_golden -- --ignored regenerate` and
//! says so. Anything else must leave it alone.

use std::fmt::Write as _;
use std::path::PathBuf;

use recipe_sim::{CostProfile, ProtocolCostModel};
use recipe_telemetry::CostBreakdown;

/// The staged footprint every `txn_prepare` row is evaluated under: large
/// enough to put the TEE profiles past the EPC cliff.
const PREPARE_STAGED_BYTES: usize = 32 * 1024 * 1024;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_table.txt")
}

fn row(out: &mut String, key: std::fmt::Arguments<'_>, charged: u64, split: &CostBreakdown) {
    write!(out, "{key} {charged}").expect("writing to a String");
    for (_, ns) in split.entries() {
        write!(out, " {ns}").expect("writing to a String");
    }
    out.push('\n');
}

fn table() -> String {
    let m = ProtocolCostModel::default();
    let profiles = [
        ("recipe", CostProfile::recipe()),
        ("recipe+conf", CostProfile::recipe().confidential()),
        (
            "recipe+conf+inflight8192",
            CostProfile::recipe().confidential().with_inflight(8192),
        ),
        ("native_cft", CostProfile::native_cft()),
        ("pbft", CostProfile::pbft_baseline()),
        ("damysus", CostProfile::damysus_baseline()),
    ];
    let mut out = String::from(
        "# profile formula n bytes charged transport counter_slot mac signature aead app \
         tee_exec epc_pressure batch_overhead replication idle\n",
    );
    for (name, p) in &profiles {
        for bytes in [0usize, 1, 63, 64, 256, 1024, 4096, 65_536] {
            row(
                &mut out,
                format_args!("{name} send - {bytes}"),
                m.send_cost_ns(p, bytes),
                &m.send_breakdown(p, bytes),
            );
            row(
                &mut out,
                format_args!("{name} recv - {bytes}"),
                m.recv_cost_ns(p, bytes),
                &m.recv_breakdown(p, bytes),
            );
            for ops in [1usize, 2, 16, 64] {
                row(
                    &mut out,
                    format_args!("{name} batch_send {ops} {bytes}"),
                    m.batch_send_cost_ns(p, ops, bytes),
                    &m.batch_send_breakdown(p, ops, bytes),
                );
                row(
                    &mut out,
                    format_args!("{name} batch_recv {ops} {bytes}"),
                    m.batch_recv_cost_ns(p, ops, bytes),
                    &m.batch_recv_breakdown(p, ops, bytes),
                );
            }
            for n in [0usize, 1, 64, 256] {
                row(
                    &mut out,
                    format_args!("{name} snapshot_export {n} {bytes}"),
                    m.snapshot_export_cost_ns(p, n, bytes),
                    &m.snapshot_export_breakdown(p, n, bytes),
                );
                row(
                    &mut out,
                    format_args!("{name} snapshot_import {n} {bytes}"),
                    m.snapshot_import_cost_ns(p, n, bytes),
                    &m.snapshot_import_breakdown(p, n, bytes),
                );
                row(
                    &mut out,
                    format_args!("{name} recovery {n} {bytes}"),
                    m.recovery_cost_ns(p, n, bytes),
                    &m.recovery_breakdown(p, n, bytes),
                );
                row(
                    &mut out,
                    format_args!("{name} txn_prepare {n} {bytes}"),
                    m.txn_prepare_cost_ns(p, n, bytes, PREPARE_STAGED_BYTES),
                    &m.txn_prepare_breakdown(p, n, bytes, PREPARE_STAGED_BYTES),
                );
                row(
                    &mut out,
                    format_args!("{name} txn_commit {n} {bytes}"),
                    m.txn_commit_cost_ns(p, n, bytes),
                    &m.txn_commit_breakdown(p, n, bytes),
                );
            }
        }
    }
    out
}

#[test]
fn cost_table_matches_the_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden cost table is committed");
    let computed = table();
    let columns: Vec<&str> = golden
        .lines()
        .next()
        .unwrap_or("")
        .split(' ')
        .skip(1)
        .collect();
    for (line, (want, got)) in golden.lines().zip(computed.lines()).enumerate() {
        if want == got {
            continue;
        }
        let cell = want
            .split(' ')
            .zip(got.split(' '))
            .position(|(w, g)| w != g)
            .and_then(|i| columns.get(i))
            .unwrap_or(&"row shape");
        panic!(
            "cost table line {}: `{cell}` differs\n  golden:   {want}\n  computed: {got}",
            line + 1
        );
    }
    assert_eq!(
        computed.lines().count(),
        golden.lines().count(),
        "the cost table gained or lost rows"
    );
}

#[test]
fn every_row_splits_exactly_what_it_charges() {
    // A property of the data, so it holds for the golden file whatever code
    // produced it: the eleven slots of a row sum to its charged integer.
    let golden = std::fs::read_to_string(golden_path()).expect("golden cost table is committed");
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let cells: Vec<u64> = line
            .split(' ')
            .skip(4)
            .map(|c| c.parse().expect("integer cell"))
            .collect();
        assert_eq!(cells[1..].iter().sum::<u64>(), cells[0], "{line}");
    }
}

#[test]
#[ignore = "rewrites the golden file; run only for a change meant to move the virtual clock"]
fn regenerate() {
    std::fs::write(golden_path(), table()).expect("golden file is writable");
}
