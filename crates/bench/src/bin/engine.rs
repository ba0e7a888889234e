//! Host-throughput benchmark of the emulation engine: simulated MACs per
//! wall-clock second, reference vs. bulk vs. analytic paths.
//!
//! Usage: `engine [reps] [--json] [--best-of N] [--filter SUBSTR]`
//!
//! * `reps` — invocations per measurement (default 20; network
//!   workloads run `reps / 5`, see `nm_bench::engine::NET_REPS_DIVISOR`;
//!   the serving `net-serve-resnet18-*` rows — one rep is a 16-request
//!   wave — run `reps / 25`, see `NET_SERVE_REPS_DIVISOR`).
//! * `--json` — print the machine-readable report (the format of the
//!   checked-in `BENCH_engine.json` snapshot) instead of the table.
//! * `--best-of N` — run the suite `N` times and keep each row's fastest
//!   measurement (default 1); use `--best-of 3` when refreshing the
//!   snapshot so scheduler noise does not end up in the baseline.
//! * `--filter SUBSTR` — only run workloads whose name contains the
//!   substring (e.g. `--filter net-` for the end-to-end network rows,
//!   `--filter csr` for the CSR/dCSR baselines). Bounds a run's cost to
//!   the rows under investigation; the measured names and numbers match
//!   a full run's.

use nm_bench::engine::{run_suite_filtered, EngineReport};
use nm_bench::table;

fn usage() -> ! {
    eprintln!("usage: engine [reps] [--json] [--best-of N] [--filter SUBSTR]");
    std::process::exit(2);
}

fn main() {
    let mut reps = 20u32;
    let mut json = false;
    let mut best_of = 1u32;
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json = true;
        } else if arg == "--best-of" {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => best_of = n,
                _ => usage(),
            }
        } else if arg == "--filter" {
            match args.next() {
                Some(f) if !f.is_empty() && !f.starts_with('-') => filter = Some(f),
                _ => usage(),
            }
        } else if let Ok(n) = arg.parse() {
            reps = n;
        } else {
            usage();
        }
    }
    let report = EngineReport::best_of(
        (0..best_of)
            .map(|_| run_suite_filtered(reps.max(1), filter.as_deref()))
            .collect(),
    );
    if report.rows.is_empty() {
        eprintln!(
            "engine: no workload matches filter {:?}",
            filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }
    if json {
        print!("{}", report.to_json());
        return;
    }
    println!("\n== Emulation engine throughput ({reps} reps/kernel) ==");
    let cols = [
        ("kernel", 20),
        ("path", 10),
        ("sim MMAC/s", 12),
        ("wall ms", 10),
    ];
    table::header(&cols);
    for r in &report.rows {
        table::row(
            &cols,
            &[
                r.kernel.clone(),
                r.path.name().to_string(),
                table::f2(r.sim_macs_per_sec / 1e6),
                table::f2(r.wall_s * 1e3),
            ],
        );
    }
    println!();
    for k in report.kernels() {
        if let Some(s) = report.speedup_vs_reference(&k) {
            println!("bulk speedup over reference, {k}: {s:.2}x");
        }
    }
}
