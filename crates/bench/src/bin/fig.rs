//! Runs any registered figure or table of the evaluation and prints its
//! title, rows, notes and machine-readable summary.
//!
//! Usage: `fig <name> [operations] [summary.json]` — `operations` overrides
//! the figure's default count, `summary.json` also writes the summary in the
//! form of `crates/bench/baselines/BENCH_<name>.json`;
//! `fig list` names every figure; `fig all` runs each at its CI smoke size.

use recipe_bench::{FigureSpec, FIGURES};

fn show(spec: &FigureSpec, operations: usize, summary_path: Option<&str>) {
    let figure = (spec.run)(operations);
    println!("\n=== {} ===", spec.title);
    print!("{figure}");
    let summary = spec.summary(&figure);
    let json = serde_json::to_string_pretty(&summary).expect("a summary serializes");
    println!("\n{json}");
    if let Some(path) = summary_path {
        summary.write(path).expect("summary written");
        println!("summary written to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for spec in FIGURES {
                println!(
                    "{:<20} {:>5} ops  {}",
                    spec.name, spec.default_ops, spec.title
                );
            }
        }
        Some("all") => {
            for spec in FIGURES {
                show(spec, spec.smoke_ops, None);
            }
        }
        Some(name) => {
            let Some(spec) = FigureSpec::find(name) else {
                eprintln!("no figure `{name}`; `fig list` names them all");
                std::process::exit(2);
            };
            let operations = match args.get(1).map(|arg| arg.parse()) {
                None => spec.default_ops,
                Some(Ok(operations)) => operations,
                Some(Err(err)) => {
                    eprintln!("operations `{}`: {err}", args[1]);
                    std::process::exit(2);
                }
            };
            show(spec, operations, args.get(2).map(String::as_str));
        }
        None => {
            eprintln!("usage: fig <name> [operations] [summary.json] | fig list | fig all");
            std::process::exit(2);
        }
    }
}
