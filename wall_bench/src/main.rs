//! `wall_bench`: the two-clock benchmark of the Recipe reproduction.
//!
//! Five scenario-file workloads are driven through the full `gateway →
//! router → engine → shield → kv` path and measured from outside, on the host
//! clock (time, heap) and on the simulator's virtual clock, end to end and
//! layer by layer. See `README.md` next to this package for the metric
//! glossary, the workloads and how to run it.

mod alloc;
mod decl;
mod e2e;
mod layers;
mod replay;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use decl::Declared;
use report::{PassKind, WorkloadResult};

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: wall_bench [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--repeat-check]";

/// A rep of every workload takes about this long on the 2-core reference
/// box (2.6–2.9 s); `--seconds` is turned into a whole number of reps with
/// it, so the inputs a run draws depend on its arguments only, never on how
/// fast the host happens to be.
const NOMINAL_REP_SECONDS: f64 = 2.8;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<PassKind>,
    out: Option<PathBuf>,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        out: None,
        repeat_check: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => PassKind::EndToEnd,
                    "1" => PassKind::PerLayer,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat-check" => args.repeat_check = true,
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where results go unless `--out` says otherwise: next to the executable,
/// which is inside the build directory and therefore never under version
/// control.
fn default_out() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?;
    Ok(dir.join("wall_bench_out").join("wall_bench.json"))
}

/// Runs the selected passes over the selected workloads once.
fn run_set(
    args: &Args,
    declared: &Declared,
    workloads: &[String],
    timed_reps: u64,
    tracers: &mut Vec<trace::Tracer>,
) -> Result<Vec<WorkloadResult>, String> {
    let dir = workload::workloads_dir();
    let mut results = Vec::new();
    for name in workloads {
        for kind in [PassKind::EndToEnd, PassKind::PerLayer] {
            if args.trace.is_some_and(|only| only != kind) {
                continue;
            }
            let pass = match kind {
                PassKind::EndToEnd => e2e::run(&dir, name, args.seed, timed_reps)?,
                PassKind::PerLayer => {
                    let mut tracer = trace::Tracer::new(name);
                    // One untraced rep fewer than the end-to-end pass times:
                    // the traced rep takes its place.
                    let untraced = (timed_reps - 1).max(2);
                    let pass = layers::run(&dir, name, args.seed, untraced, &mut tracer)?;
                    tracers.push(tracer);
                    pass
                }
            };
            let mut result = WorkloadResult {
                workload: name.clone(),
                kind,
                pass,
            };
            let emitted: Vec<&str> = result.pass.metrics.iter().map(|m| m.name).collect();
            if let Err(mismatch) = report::check_names(kind, &emitted, declared) {
                result.pass.violations.push(mismatch);
            }
            for metric in &result.pass.metrics {
                if !metric.value.is_finite() {
                    result.pass.violations.push(format!(
                        "{}: {} is not a number",
                        kind.key(),
                        metric.name
                    ));
                }
            }
            report::print_result(&result, declared);
            results.push(result);
        }
    }
    Ok(results)
}

/// Returns whether every output was correct.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let declared = Declared::load()?;
    speed::enable();

    // The benchmark and its declaration must name the same things.
    for kind in [PassKind::EndToEnd, PassKind::PerLayer] {
        report::check_names(kind, kind.names(), &declared)?;
    }
    let available = workload::available(&workload::workloads_dir())?;
    let mut declared_workloads = declared.workloads.clone();
    declared_workloads.sort();
    if available != declared_workloads {
        return Err(format!(
            "workloads: files {available:?} are not the declared {declared_workloads:?}"
        ));
    }
    let workloads = if args.workloads.is_empty() {
        declared.workloads.clone()
    } else {
        args.workloads.clone()
    };
    if let Some(unknown) = workloads.iter().find(|w| !declared.workloads.contains(w)) {
        return Err(format!(
            "--workload: `{unknown}` is not one of {:?}",
            declared.workloads
        ));
    }

    let seconds = args.seconds.unwrap_or(declared.run_seconds);
    let timed_reps = ((seconds as f64 / NOMINAL_REP_SECONDS).round() as u64).max(3);
    println!(
        "wall_bench: seed {} · {seconds} s per pass = {timed_reps} timed reps after 1 warm-up · \
         single process, single thread ({} hardware threads available)",
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut tracers = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..if args.repeat_check { 2 } else { 1 } {
        sets.push(run_set(
            &args,
            &declared,
            &workloads,
            timed_reps,
            &mut tracers,
        )?);
    }
    let disagreements = match &sets[..] {
        [first, second] => report::compare_sets(first, second, &declared),
        _ => Vec::new(),
    };
    for disagreement in &disagreements {
        println!("  DISAGREEMENT {disagreement}");
    }

    // The benchmark has ended: write what was kept in memory.
    let out = match &args.out {
        Some(path) => path.clone(),
        None => default_out()?,
    };
    let out_dir = out.parent().filter(|p| !p.as_os_str().is_empty());
    let out_dir = out_dir.map_or(PathBuf::from("."), PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::write(&out, report::document(&sets, &declared, args.seed, seconds))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    for tracer in &tracers {
        tracer
            .write(&out_dir)
            .map_err(|e| format!("{}: {e}", out_dir.display()))?;
    }
    println!("wall_bench: results in {}, traces beside it", out.display());

    let correct = sets.iter().flatten().all(WorkloadResult::correct) && disagreements.is_empty();
    // One workload, one pass: the driver's invocation. Its result line is
    // the last thing on standard output.
    if let ([set], [_], Some(_)) = (&sets[..], &workloads[..], args.trace) {
        println!("{}", report::contract_line(&set[0], &declared));
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wall_bench: outputs were not correct (see VIOLATION / DISAGREEMENT lines)");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("wall_bench: {message}");
            ExitCode::from(2)
        }
    }
}
