//! Perf-regression gate over the engine-throughput snapshot.
//!
//! Compares a fresh [`crate::engine`] report against the checked-in
//! `BENCH_engine.json` baseline, per workload, and fails when the bulk
//! fast path's simulated-MACs-per-second fall more than a threshold
//! below the snapshot. The `perf_gate` binary wraps this module so the
//! check runs identically in CI and on a developer machine.
//!
//! Wall-clock numbers are machine-specific, so by default each kernel's
//! baseline is **calibrated**: it is scaled by the ratio of the current
//! machine's reference-path throughput to the snapshot's reference-path
//! throughput for the same kernel. That cancels the host-speed factor
//! and turns the check into "the bulk path must stay as many times
//! faster than the reference path as the snapshot says" — the quantity
//! the bulk engine exists to provide. Pass `calibrate = false`
//! (`--absolute` on the binary) to compare raw MACs/s instead, which is
//! only meaningful on the machine that produced the snapshot.
//!
//! The JSON subset parsed here is exactly what
//! [`crate::engine::EngineReport::to_json`] emits; the parser is
//! hand-rolled because the build environment has no registry access for
//! a JSON crate (see ROADMAP "vendored shims").

use crate::engine::{EngineReport, Path};

/// One `(kernel, path)` measurement parsed from an engine JSON report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Kernel name (e.g. `"fc-csr"`).
    pub kernel: String,
    /// Execution path name (`"reference"`, `"bulk"` or `"analytic"`).
    pub path: String,
    /// Simulated dense-equivalent MACs per wall-clock second.
    pub sim_macs_per_sec: f64,
}

/// The verdict for one kernel.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Kernel name.
    pub kernel: String,
    /// Snapshot bulk-path throughput (MACs/s), uncalibrated.
    pub baseline: f64,
    /// Current bulk-path throughput (MACs/s).
    pub current: f64,
    /// Host-speed factor applied to the baseline: the kernel's current
    /// reference throughput over its snapshot reference throughput (1.0
    /// in absolute mode).
    pub calibration: f64,
    /// `current / (baseline * calibration)` — below `1 - threshold`
    /// fails.
    pub ratio: f64,
    /// Whether this kernel met the threshold.
    pub pass: bool,
    /// The kernel failed *and* its reference row got faster by more
    /// than the threshold (`calibration > 1 + threshold`), raising the
    /// calibrated bar: the reference row, not necessarily the bulk
    /// row, moved. Compare the two rows before calling it a regression.
    pub reference_moved: bool,
}

fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = obj.find(&tag)? + tag.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(obj: &str, key: &str) -> Option<String> {
    Some(field(obj, key)?.trim_matches('"').to_string())
}

fn num_field(obj: &str, key: &str) -> Option<f64> {
    field(obj, key)?.parse().ok()
}

/// Parses the `rows` array of an engine JSON report.
///
/// # Errors
/// Returns a description of the first malformed row (missing field,
/// unparsable or non-finite throughput), or of a missing `rows` array.
/// Non-finite values are rejected because Rust's float parser happily
/// accepts `NaN`/`inf`, and a NaN baseline would make every gate
/// comparison silently pass (`NaN >= x` is false, but so is the
/// regression predicate's complement — either way the number carries no
/// information to gate on).
pub fn parse_rows(json: &str) -> Result<Vec<GateRow>, String> {
    let start = json
        .find("\"rows\": [")
        .ok_or_else(|| "no \"rows\" array in report".to_string())?;
    let body = &json[start..];
    let end = body
        .find(']')
        .ok_or_else(|| "unterminated \"rows\" array".to_string())?;
    let mut rows = Vec::new();
    for obj in body[..end].split('{').skip(1) {
        let row = GateRow {
            kernel: str_field(obj, "kernel").ok_or_else(|| format!("row without kernel: {obj}"))?,
            path: str_field(obj, "path").ok_or_else(|| format!("row without path: {obj}"))?,
            sim_macs_per_sec: num_field(obj, "sim_macs_per_sec")
                .ok_or_else(|| format!("row without sim_macs_per_sec: {obj}"))?,
        };
        if !row.sim_macs_per_sec.is_finite() {
            return Err(format!(
                "non-finite sim_macs_per_sec for {}/{}: {}",
                row.kernel, row.path, row.sim_macs_per_sec
            ));
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err("empty \"rows\" array".to_string());
    }
    Ok(rows)
}

/// Flattens a live [`EngineReport`] into gate rows.
pub fn report_rows(report: &EngineReport) -> Vec<GateRow> {
    report
        .rows
        .iter()
        .map(|r| GateRow {
            kernel: r.kernel.clone(),
            path: r.path.name().to_string(),
            sim_macs_per_sec: r.sim_macs_per_sec,
        })
        .collect()
}

fn throughput(rows: &[GateRow], kernel: &str, path: Path) -> Option<f64> {
    rows.iter()
        .find(|r| r.kernel == kernel && r.path == path.name())
        .map(|r| r.sim_macs_per_sec)
}

/// Compares the bulk-path throughput of every kernel in `baseline`
/// against `current`; a kernel fails when its (optionally calibrated)
/// throughput ratio drops below `1 - threshold`. The calibration row is
/// the kernel's own reference row.
///
/// # Errors
/// A kernel present in the baseline but missing from the current report
/// is an error, not a pass — dropping a workload must not green the
/// gate. Symmetrically, kernels present in the current report but
/// absent from the baseline are an error listing every such kernel: a
/// new workload is ungated until the snapshot is refreshed, and
/// silently ignoring it would let that state persist.
pub fn compare(
    baseline: &[GateRow],
    current: &[GateRow],
    threshold: f64,
    calibrate: bool,
) -> Result<Vec<GateCheck>, String> {
    let bulk = Path::Bulk.name();
    let mut kernels: Vec<&str> = Vec::new();
    for r in baseline {
        if r.path == bulk && !kernels.contains(&r.kernel.as_str()) {
            kernels.push(&r.kernel);
        }
    }
    let unbaselined: Vec<&str> = current
        .iter()
        .filter(|r| r.path == bulk && !kernels.contains(&r.kernel.as_str()))
        .map(|r| r.kernel.as_str())
        .collect();
    if !unbaselined.is_empty() {
        return Err(format!(
            "current report has bulk rows with no baseline (ungated \
             workloads): {} — refresh the checked-in BENCH_engine.json \
             to include them",
            unbaselined.join(", ")
        ));
    }
    let mut checks = Vec::new();
    for kernel in kernels {
        let base = throughput(baseline, kernel, Path::Bulk).expect("selected on bulk rows");
        let cur = throughput(current, kernel, Path::Bulk)
            .ok_or_else(|| format!("current report has no bulk row for {kernel}"))?;
        let calibration = if calibrate {
            let base_ref = throughput(baseline, kernel, Path::Reference)
                .ok_or_else(|| format!("baseline has no reference row for {kernel}"))?;
            let cur_ref = throughput(current, kernel, Path::Reference)
                .ok_or_else(|| format!("current report has no reference row for {kernel}"))?;
            cur_ref / base_ref
        } else {
            1.0
        };
        let ratio = cur / (base * calibration);
        let pass = ratio >= 1.0 - threshold;
        checks.push(GateCheck {
            kernel: kernel.to_string(),
            baseline: base,
            current: cur,
            calibration,
            ratio,
            pass,
            reference_moved: !pass && calibration > 1.0 + threshold,
        });
    }
    if checks.is_empty() {
        return Err("baseline has no bulk-path rows".to_string());
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, path: &str, macs: f64) -> GateRow {
        GateRow {
            kernel: kernel.into(),
            path: path.into(),
            sim_macs_per_sec: macs,
        }
    }

    fn pair(kernel: &str, reference: f64, bulk: f64) -> [GateRow; 2] {
        [
            row(kernel, "reference", reference),
            row(kernel, "bulk", bulk),
        ]
    }

    #[test]
    fn parses_what_the_engine_emits() {
        let report = crate::engine::run_suite_filtered(1, Some("fc-"));
        let rows = parse_rows(&report.to_json()).unwrap();
        assert_eq!(rows.len(), report.rows.len());
        for (parsed, live) in rows.iter().zip(report_rows(&report)) {
            assert_eq!(parsed.kernel, live.kernel);
            assert_eq!(parsed.path, live.path);
            // to_json rounds to whole MACs/s.
            assert!((parsed.sim_macs_per_sec - live.sim_macs_per_sec).abs() <= 0.5);
        }
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_rows("{}").is_err());
        assert!(parse_rows("{\"rows\": []}").is_err());
        assert!(parse_rows("{\"rows\": [{\"kernel\": \"x\"}]}").is_err());
    }

    fn report_json(rows: &str) -> String {
        format!("{{\n  \"rows\": [\n{rows}\n  ]\n}}\n")
    }

    fn full_row(kernel: &str, path: &str, macs: &str) -> String {
        format!(
            "    {{\"kernel\": \"{kernel}\", \"path\": \"{path}\", \
             \"sim_macs_per_sec\": {macs}}}"
        )
    }

    /// Each required field missing in turn: the error names the gap
    /// instead of defaulting the value.
    #[test]
    fn missing_fields_are_named_errors() {
        let no_kernel = report_json("    {\"path\": \"bulk\", \"sim_macs_per_sec\": 5}");
        assert!(parse_rows(&no_kernel).unwrap_err().contains("kernel"));
        let no_path = report_json("    {\"kernel\": \"a\", \"sim_macs_per_sec\": 5}");
        assert!(parse_rows(&no_path).unwrap_err().contains("path"));
        let no_macs = report_json("    {\"kernel\": \"a\", \"path\": \"bulk\"}");
        assert!(parse_rows(&no_macs)
            .unwrap_err()
            .contains("sim_macs_per_sec"));
        // A malformed number is a missing field, not a zero.
        let garbled = report_json(&full_row("a", "bulk", "fast"));
        assert!(parse_rows(&garbled).is_err());
        // An unterminated array never yields rows.
        let unterminated = "{\"rows\": [{\"kernel\": \"a\"";
        assert!(parse_rows(unterminated)
            .unwrap_err()
            .contains("unterminated"));
    }

    /// Rust's float parser accepts `NaN`/`inf`; a gate baseline must
    /// not — a NaN would turn every comparison into a silent pass.
    #[test]
    fn non_finite_throughputs_are_rejected() {
        for bad in ["NaN", "inf", "-inf", "Infinity"] {
            let json = report_json(&full_row("a", "bulk", bad));
            let err = parse_rows(&json).unwrap_err();
            assert!(err.contains("non-finite"), "{bad}: {err}");
            assert!(err.contains("a/bulk"), "{bad}: {err}");
        }
        // Finite values at the rounding edge still parse.
        let ok = report_json(&full_row("a", "bulk", "0"));
        assert_eq!(parse_rows(&ok).unwrap()[0].sim_macs_per_sec, 0.0);
    }

    /// parse → `to_json` → parse round-trip on a synthetic report: the
    /// parser accepts exactly what the emitter produces, and a report
    /// rebuilt from parsed rows re-emits to the same gate rows. (Values
    /// are integral because `to_json` rounds throughput to whole
    /// MACs/s.)
    #[test]
    fn parse_to_json_parse_round_trips() {
        use crate::engine::{EngineReport, EngineRow};
        let original = EngineReport {
            rows: vec![
                EngineRow {
                    kernel: "fc-x".into(),
                    path: Path::Reference,
                    reps: 7,
                    wall_s: 0.25,
                    dense_macs: 1024,
                    sim_macs_per_sec: 123456.0,
                    sim_cycles: 99,
                },
                EngineRow {
                    kernel: "fc-x".into(),
                    path: Path::Bulk,
                    reps: 7,
                    wall_s: 0.05,
                    dense_macs: 1024,
                    sim_macs_per_sec: 7891011.0,
                    sim_cycles: 99,
                },
            ],
        };
        let parsed = parse_rows(&original.to_json()).unwrap();
        assert_eq!(parsed, report_rows(&original));
        // Rebuild an EngineReport from the parsed rows (Path survives
        // the name round-trip) and emit again: same gate rows.
        let rebuilt = EngineReport {
            rows: parsed
                .iter()
                .map(|r| EngineRow {
                    kernel: r.kernel.clone(),
                    path: Path::from_name(&r.path).expect("emitted path name"),
                    reps: 1,
                    wall_s: 1.0,
                    dense_macs: 1,
                    sim_macs_per_sec: r.sim_macs_per_sec,
                    sim_cycles: 0,
                })
                .collect(),
        };
        assert_eq!(parse_rows(&rebuilt.to_json()).unwrap(), parsed);
    }

    /// The checked-in snapshot carries the serving rows, and batching
    /// does not regress throughput: for both serve families the bulk
    /// batch-16 row's requests/sec (∝ MACs/s at fixed per-wave MACs)
    /// is at least the batch-1 row's. Deterministic — it reads the
    /// committed `BENCH_engine.json`, so it pins the property at
    /// snapshot-refresh time rather than flaking on live timing.
    #[test]
    fn snapshot_serve_rows_show_batching_never_regresses() {
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_engine.json"
        ))
        .expect("checked-in snapshot");
        let rows = parse_rows(&json).unwrap();
        let bulk = |kernel: &str| {
            throughput(&rows, kernel, Path::Bulk)
                .unwrap_or_else(|| panic!("snapshot has no bulk row for {kernel}"))
        };
        // Per family: the floor batch-16 must clear relative to batch-1.
        // Both wins are structural, so both families must show a real
        // gain, not merely avoid regressing. The MLP family runs a
        // batch through each Linear tile as one token stream (tile
        // weights stage once per batch — ~1.15× measured). The conv
        // family runs batch-major (`BatchPlan::ConvBatchMajor`): each
        // tile's packed weights and decimation table are
        // staged/validated once per batch, requests after the first
        // skip cycle accounting entirely (reusing request 0's
        // input-value-independent statistics), and — the larger share —
        // those requests run request-inner through the transposed-patch
        // sweep, loading each weight byte and gather index once for
        // eight requests' multiply-adds (~1.8× measured at b16). The floors sit well below the measured
        // gains so the swings observed between best-of refreshes cannot
        // trip them, while losing the batch-major win (per-request
        // restaging, re-charging, or a sweep that degenerates to
        // per-request walks) drops the ratio toward ~1.0 and fails.
        // `BatchPlan` only reports the sharing; these ratios are what
        // prove it happens.
        for (family, floor) in [("net-serve-resnet18", 1.10), ("net-serve-mlp", 1.05)] {
            for b in [1, 4, 16] {
                let kernel = format!("{family}-b{b}");
                assert!(
                    throughput(&rows, &kernel, Path::Reference).is_some(),
                    "snapshot lacks the calibration row for {kernel}"
                );
                assert!(bulk(&kernel) > 0.0);
            }
            let (b1, b16) = (
                bulk(&format!("{family}-b1")),
                bulk(&format!("{family}-b16")),
            );
            assert!(
                b16 >= floor * b1,
                "{family}: batch-16 throughput {b16} below {floor} x batch-1 \
                 ({b1}) — batching regressed in the snapshot"
            );
        }
    }

    #[test]
    fn flags_regressions_beyond_threshold() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        // 30 % below baseline on the same-speed machine: fails at 25 %.
        let slow: Vec<GateRow> = pair("a", 100.0, 700.0).into_iter().collect();
        let checks = compare(&baseline, &slow, 0.25, true).unwrap();
        assert!(!checks[0].pass);
        // 10 % below: passes.
        let ok: Vec<GateRow> = pair("a", 100.0, 900.0).into_iter().collect();
        assert!(compare(&baseline, &ok, 0.25, true).unwrap()[0].pass);
    }

    #[test]
    fn calibration_cancels_host_speed() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        // A machine 4x slower across the board: same bulk-vs-reference
        // shape, so the calibrated gate passes while absolute fails.
        let slower_host: Vec<GateRow> = pair("a", 25.0, 250.0).into_iter().collect();
        let calibrated = compare(&baseline, &slower_host, 0.25, true).unwrap();
        assert!(calibrated[0].pass);
        assert!((calibrated[0].ratio - 1.0).abs() < 1e-9);
        let absolute = compare(&baseline, &slower_host, 0.25, false).unwrap();
        assert!(!absolute[0].pass);
    }

    // A reference row 1.34x faster with the bulk row unchanged fails the
    // calibrated gate, and the failure is flagged as a reference move.
    #[test]
    fn faster_reference_row_fails_flagged_as_a_reference_move() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        let current: Vec<GateRow> = pair("a", 134.0, 1000.0).into_iter().collect();
        let check = &compare(&baseline, &current, 0.25, true).unwrap()[0];
        assert!((check.calibration - 1.34).abs() < 1e-9);
        assert!(!check.pass);
        assert!(check.reference_moved);
    }

    // A bulk row 30 % slower with the reference row unchanged is a real
    // bulk regression: it fails and is not flagged.
    #[test]
    fn slower_bulk_row_fails_unflagged() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        let current: Vec<GateRow> = pair("a", 100.0, 700.0).into_iter().collect();
        let check = &compare(&baseline, &current, 0.25, true).unwrap()[0];
        assert!((check.calibration - 1.0).abs() < 1e-9);
        assert!(!check.pass);
        assert!(!check.reference_moved);
    }

    #[test]
    fn missing_kernel_is_an_error() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        let current: Vec<GateRow> = pair("b", 100.0, 1000.0).into_iter().collect();
        assert!(compare(&baseline, &current, 0.25, true).is_err());
    }

    /// A fresh run measuring kernels the snapshot has never seen must
    /// fail loudly, naming each ungated workload — not silently gate
    /// only the intersection.
    #[test]
    fn unbaselined_kernels_fail_and_are_listed() {
        let baseline: Vec<GateRow> = pair("a", 100.0, 1000.0).into_iter().collect();
        let current: Vec<GateRow> = pair("a", 100.0, 1000.0)
            .into_iter()
            .chain(pair("im2col-new", 50.0, 800.0))
            .chain(pair("other-new", 10.0, 90.0))
            .collect();
        let err = compare(&baseline, &current, 0.25, true).unwrap_err();
        assert!(err.contains("im2col-new"), "{err}");
        assert!(err.contains("other-new"), "{err}");
        assert!(err.contains("BENCH_engine.json"), "{err}");
        // Non-bulk extra rows (e.g. a new analytic measurement) do not
        // trip the check.
        let current: Vec<GateRow> = pair("a", 100.0, 1000.0)
            .into_iter()
            .chain([row("extra", "analytic", 5.0)])
            .collect();
        assert!(compare(&baseline, &current, 0.25, true).is_ok());
    }
}
