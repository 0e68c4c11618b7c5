//! Golden cost table: every formula of [`ProtocolCostModel`] over six profile
//! shapes and a grid of sizes, with the integer it charges and the
//! per-category split, compared cell by cell against
//! `tests/golden/cost_table.txt`.
//!
//! The table was taken before each formula was rewritten as one body that
//! yields both the integer and the split (it then had a `*_cost_ns` and a
//! `*_breakdown` copy of each); a change to the cost model that is meant to
//! move the virtual clock regenerates it with
//! `cargo test -p recipe-sim --test cost_golden -- --ignored regenerate` and
//! says so. Anything else must leave it alone.

use std::fmt::Write as _;
use std::path::PathBuf;

use recipe_core::ConfidentialityMode::Confidential;
use recipe_sim::{CostProfile, Work, COST_MODEL};
use recipe_telemetry::CostBreakdown;

/// The staged footprint every `txn_prepare` row is evaluated under: large
/// enough to put the TEE profiles past the EPC cliff.
const PREPARE_STAGED_BYTES: usize = 32 * 1024 * 1024;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_table.txt")
}

/// The rows of one `(profile, bytes)` cell block, keyed as the file keys
/// them. The names are the nine formulas the table was taken from; three of
/// them were special cases of another (`send`/`recv` are one-message frames,
/// `recovery` is the rehydration scan) and are kept as rows so that the file
/// stays the one taken before the rewrite.
fn rows(bytes: usize) -> Vec<(String, Work)> {
    let mut rows = vec![
        ("send -".to_string(), Work::Send { ops: 1, bytes }),
        ("recv -".to_string(), Work::Recv { ops: 1, bytes }),
    ];
    for ops in [1usize, 2, 16, 64] {
        rows.push((format!("batch_send {ops}"), Work::Send { ops, bytes }));
        rows.push((format!("batch_recv {ops}"), Work::Recv { ops, bytes }));
    }
    for n in [0usize, 1, 64, 256] {
        let scan = Work::Scan { entries: n, bytes };
        let import = Work::Import { entries: n, bytes };
        let prepare = Work::TxnPrepare {
            ops: n,
            bytes,
            staged_bytes: PREPARE_STAGED_BYTES,
        };
        let commit = Work::TxnCommit { writes: n, bytes };
        rows.push((format!("snapshot_export {n}"), scan));
        rows.push((format!("snapshot_import {n}"), import));
        rows.push((format!("recovery {n}"), scan));
        rows.push((format!("txn_prepare {n}"), prepare));
        rows.push((format!("txn_commit {n}"), commit));
    }
    rows
}

fn table() -> String {
    let m = COST_MODEL;
    let confidential = CostProfile::recipe().with_confidentiality(Confidential);
    let profiles = [
        ("recipe", CostProfile::recipe()),
        ("recipe+conf", confidential.clone()),
        ("recipe+conf+inflight8192", confidential.with_inflight(8192)),
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
            for (formula, work) in rows(bytes) {
                // The charged column is the integer charged; the split files
                // exactly that integer, by category.
                let mut split = CostBreakdown::new();
                let charged = m.cost(p, work, &mut split);
                assert_eq!(split.total(), charged);
                write!(out, "{name} {formula} {bytes} {charged}").expect("writing to a String");
                for (_, ns) in split.entries() {
                    write!(out, " {ns}").expect("writing to a String");
                }
                out.push('\n');
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
