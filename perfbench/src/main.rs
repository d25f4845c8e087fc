//! Command-line entry of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload native-pipelined|native-single|compile-simulate \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a summary table, writes the full result (machine, seed, sample
//! counts, repeatable counts, per-kernel detail, spans) under
//! `.bench_out/`, and prints the one-line JSON result last.

use std::process::ExitCode;

use dswp_perfbench::stats::MachineInfo;
use dswp_perfbench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload native-pipelined|native-single|compile-simulate \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_default();
    let machine = MachineInfo::detect(&root);
    let report = run(&args);

    println!(
        "workload {} seed {} trace {} | {} cores, {} | commit {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        machine.cores,
        machine.cpu_model,
        machine.commit
    );
    for m in report.metrics.iter().chain(&report.informational) {
        println!(
            "{:<52} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    let dir = root.join(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, report.to_json(&args, &machine)))
    {
        Ok(()) => println!("wrote {}", file.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
