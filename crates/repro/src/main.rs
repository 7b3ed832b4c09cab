//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--quick|--full] [--threads N]
//!
//! experiments: table1 table2 table3 table4 table5 table6 table7 table8
//!              table9 fig7b fig11 fig13 ablation streaming serve
//!              artifact all
//! ```
//!
//! `repro artifact` additionally accepts `--save PATH` / `--verify PATH`
//! for the cross-process model-artifact round trip (see `tables::artifact`).
//! `--threads N` sets the inference-engine worker-pool size in the
//! batched-vs-serial ablation segment and in `repro streaming` (default:
//! available parallelism). It never changes results — only wall-clock and
//! the lane occupancy `repro streaming` reports.
//!
//! Every experiment prints the paper's reported values next to the
//! measured ones; `EXPERIMENTS.md` records a full run.

use std::env;

mod tables;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("help");
    let mode = if args.iter().any(|a| a == "--full") {
        Mode::Full
    } else if args.iter().any(|a| a == "--quick") {
        Mode::Quick
    } else {
        Mode::Default
    };
    let threads = args.iter().position(|a| a == "--threads").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                eprintln!("--threads needs a positive integer value");
                std::process::exit(2);
            })
    });
    match experiment {
        "table1" => tables::table1(mode),
        "table2" => tables::table2(mode),
        "table3" => tables::table3(mode),
        "table4" => tables::table4(),
        "table5" => tables::table5(),
        "table6" => tables::table6(),
        "table7" => tables::table7(),
        "table8" => tables::table8(),
        "table9" => tables::table9(mode),
        "fig7b" => tables::fig7b(),
        "fig11" => tables::fig11(),
        "fig13" => tables::fig13(mode),
        "ablation" => tables::ablation(mode, threads),
        "streaming" => tables::streaming(mode, threads),
        "serve" => tables::serve_demo(mode),
        "artifact" => tables::artifact(mode, &args),
        "all" => {
            tables::table1(mode);
            tables::table2(mode);
            tables::table3(mode);
            tables::table4();
            tables::table5();
            tables::table6();
            tables::table7();
            tables::table8();
            tables::fig7b();
            tables::fig11();
            tables::fig13(mode);
            tables::ablation(mode, threads);
            tables::streaming(mode, threads);
            tables::serve_demo(mode);
            tables::artifact(mode, &args);
            tables::table9(mode);
        }
        _ => {
            eprintln!(
                "usage: repro <table1..table9|fig7b|fig11|fig13|ablation|streaming|serve|artifact|all> [--quick|--full] [--threads N]\n       repro artifact [--save PATH|--verify PATH]"
            );
            std::process::exit(2);
        }
    }
}

/// Effort level: trials / dataset sizes scale with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Minimal sizes: smoke-test in seconds.
    Quick,
    /// The default sizes used in `EXPERIMENTS.md`.
    Default,
    /// Closest to the paper's sizes (slow).
    Full,
}
