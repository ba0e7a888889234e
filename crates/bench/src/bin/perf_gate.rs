//! Perf-regression gate: fails when the bulk fast path's engine
//! throughput regresses against the checked-in `BENCH_engine.json`.
//!
//! Usage: `perf_gate <baseline.json> [current.json] [--reps N]
//! [--best-of N] [--threshold PCT] [--absolute] [--filter SUBSTR]`
//!
//! * `baseline.json` — the checked-in snapshot to gate against.
//! * `current.json` — an `engine --json` report to check; omitted, the
//!   suite runs in-process (`--reps`, default 10) as the best of
//!   `--best-of` runs (default 3 — host timing noise only ever slows a
//!   run down, so per-row bests are the stable estimate to gate on).
//! * `--threshold PCT` — maximum tolerated regression (default 25).
//! * `--absolute` — compare raw MACs/s instead of calibrating out the
//!   host-speed difference via the reference path (see `nm_bench::gate`).
//! * `--filter SUBSTR` — gate only workloads whose name contains the
//!   substring (both sides of the comparison are restricted, and the
//!   in-process suite only runs the matching workloads) — e.g.
//!   `--filter net-` to check just the end-to-end network rows without
//!   paying for the full suite.
//!
//! The table shows each kernel's calibration factor (`ref x`: current
//! over snapshot reference throughput). A failing row whose reference
//! got faster by more than the threshold reads `REF MOVED` instead of
//! `REGRESSED`: its reference row moved, so the bulk row may not have.
//!
//! Exit status: 0 when every kernel passes, 1 on any regression
//! (flagged or not), 2 on usage or report-format errors.

use nm_bench::engine::{run_suite_filtered, EngineReport};
use nm_bench::gate::{compare, parse_rows, report_rows, GateRow};
use nm_bench::table;

fn usage() -> ! {
    eprintln!(
        "usage: perf_gate <baseline.json> [current.json] [--reps N] \
         [--best-of N] [--threshold PCT] [--absolute] [--filter SUBSTR]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut reps = 10u32;
    let mut best_of = 3u32;
    let mut threshold = 0.25f64;
    let mut calibrate = true;
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => reps = n,
                None => usage(),
            },
            "--best-of" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => best_of = n,
                _ => usage(),
            },
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if p > 0.0 && p < 100.0 => threshold = p / 100.0,
                _ => usage(),
            },
            "--absolute" => calibrate = false,
            "--filter" => match args.next() {
                Some(f) if !f.is_empty() && !f.starts_with('-') => filter = Some(f),
                _ => usage(),
            },
            _ if arg.starts_with('-') => usage(),
            _ => paths.push(arg),
        }
    }
    let (baseline_path, current_path) = match paths.as_slice() {
        [b] => (b.clone(), None),
        [b, c] => (b.clone(), Some(c.clone())),
        _ => usage(),
    };

    let keep = |rows: &mut Vec<GateRow>| {
        if let Some(f) = &filter {
            rows.retain(|r| r.kernel.contains(f.as_str()));
        }
    };
    let baseline_json = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {baseline_path}: {e}")));
    let mut baseline = parse_rows(&baseline_json).unwrap_or_else(|e| fail(&e));
    keep(&mut baseline);
    if baseline.is_empty() {
        fail(&format!(
            "no baseline row matches filter {:?}",
            filter.as_deref().unwrap_or("")
        ));
    }
    let mut current: Vec<GateRow> = match current_path {
        Some(p) => {
            let json = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")));
            parse_rows(&json).unwrap_or_else(|e| fail(&e))
        }
        None => {
            eprintln!(
                "perf_gate: no current report given, running suite \
                 (best of {best_of} x {reps} reps)"
            );
            report_rows(&EngineReport::best_of(
                (0..best_of)
                    .map(|_| run_suite_filtered(reps.max(1), filter.as_deref()))
                    .collect(),
            ))
        }
    };
    keep(&mut current);

    let checks = compare(&baseline, &current, threshold, calibrate).unwrap_or_else(|e| fail(&e));

    println!(
        "\n== Perf gate vs {baseline_path} (threshold {:.0}%, {}) ==",
        threshold * 100.0,
        if calibrate {
            "reference-calibrated"
        } else {
            "absolute"
        }
    );
    let cols = [
        ("kernel", 20),
        ("base MMAC/s", 13),
        ("now MMAC/s", 12),
        ("ref x", 7),
        ("ratio", 8),
        ("verdict", 10),
    ];
    table::header(&cols);
    let mut failed = false;
    for c in &checks {
        failed |= !c.pass;
        let verdict = match (c.pass, c.reference_moved) {
            (true, _) => "ok",
            (false, false) => "REGRESSED",
            (false, true) => "REF MOVED",
        };
        table::row(
            &cols,
            &[
                c.kernel.clone(),
                table::f2(c.baseline * c.calibration / 1e6),
                table::f2(c.current / 1e6),
                table::f2(c.calibration),
                table::f2(c.ratio),
                verdict.to_string(),
            ],
        );
    }
    println!();
    if checks.iter().any(|c| c.reference_moved) {
        eprintln!(
            "perf_gate: REF MOVED rows failed because their reference row got more than \
             {:.0}% faster (`ref x`); compare their reference and bulk rows separately",
            threshold * 100.0
        );
    }
    if failed {
        eprintln!(
            "perf_gate: bulk-path throughput regressed by more than {:.0}%",
            threshold * 100.0
        );
        std::process::exit(1);
    }
    println!("perf_gate: all kernels within threshold");
}
