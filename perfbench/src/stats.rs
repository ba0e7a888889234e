//! Pure helpers: nearest-rank percentiles, batch service times, and the
//! metric name and unit character sets. No clocks and no I/O, so
//! everything here is unit-tested.

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of all samples at or below it (`p` in `0..=100`). The input
/// need not be sorted. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median (the lower middle sample of an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Per-request service times of one worker that runs batches back to
/// back, from every completed request's `(fulfil time in seconds, model,
/// batch size)`. A batch's requests are fulfilled together after its
/// compute, so the time from one batch's last fulfilment to the next
/// batch's last fulfilment is the next batch's service time; divided by
/// its size it is each of its requests' share. Returns ms per request,
/// per model.
///
/// Batches are found by counting `batch size` requests of one model in
/// fulfilment order, which only works from a known batch boundary. The
/// first batch may be cut off at the start of `done`, and a run of
/// batches of one model and size does not show where the cut one ends.
/// So counting starts after the first change of model or batch size,
/// and starts again there after any group that is not one whole batch.
/// A batch cut off at the end of `done` yields nothing.
pub fn batch_service_ms(done: &[(f64, usize, usize)], models: usize) -> Vec<Vec<f64>> {
    let mut sorted = done.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let kind = |i: usize| (sorted[i].1, sorted[i].2);
    // The first request after `from` whose model or batch size differs
    // from the one before it: a batch ended just before it.
    let resync = |from: usize| (from + 1..sorted.len()).find(|&j| kind(j) != kind(j - 1));
    let mut out = vec![Vec::new(); models];
    let mut next = resync(0);
    // Invariant: request `i - 1` is the last of a whole batch.
    while let Some(i) = next {
        let (model, size) = kind(i);
        let end = i + size.max(1);
        next = if end <= sorted.len() && (i..end).all(|j| kind(j) == (model, size)) {
            out[model].push((sorted[end - 1].0 - sorted[i - 1].0) * 1e3 / (end - i) as f64);
            (end < sorted.len()).then_some(end)
        } else {
            resync(i)
        };
    }
    out
}

/// Whether `name` is a valid metric or workload name: it starts with an
/// ASCII letter or digit and has at most 64 letters, digits, `_`, `.`
/// and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 0.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(median(&v), Some(5.0));
        assert_eq!(median(&[4.0]), Some(4.0));
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn batch_service_times_come_from_fulfilment_gaps() {
        let done = [
            // A batch cut off at the start: one of its two requests. It
            // still ends where the next model begins.
            (0.0005, 1, 2),
            (0.0100, 0, 3),
            (0.0101, 0, 3),
            (0.0102, 0, 3),
            (0.0202, 1, 2),
            (0.0203, 1, 2),
            // Out of order on input: sorted by fulfilment time.
            (0.0503, 0, 3),
            (0.0501, 0, 3),
            (0.0502, 0, 3),
            // Cut off at the end.
            (0.0600, 1, 2),
        ];
        let per = batch_service_ms(&done, 2);
        assert_eq!(per[0].len(), 2);
        assert!(close(per[0][0], (0.0102 - 0.0005) * 1e3 / 3.0));
        assert!(close(per[0][1], (0.0503 - 0.0203) * 1e3 / 3.0));
        assert_eq!(per[1].len(), 1);
        assert!(close(per[1][0], (0.0203 - 0.0102) * 1e3 / 2.0));
    }

    #[test]
    fn a_cut_batch_is_not_joined_to_the_next_one_of_its_kind() {
        // The first batch lost a request to the window start, and the
        // next batch has the same model and size. Counting two requests
        // from the start would pair 0.001 with 0.010.
        let done = [
            (0.001, 0, 2),
            (0.010, 0, 2),
            (0.011, 0, 2),
            (0.020, 1, 1),
            (0.030, 0, 2),
            (0.031, 0, 2),
        ];
        let per = batch_service_ms(&done, 2);
        assert_eq!(per[1].len(), 1);
        assert!(close(per[1][0], 9.0));
        assert_eq!(per[0].len(), 1);
        assert!(close(per[0][0], 5.5));
    }

    #[test]
    fn a_broken_batch_restarts_the_count_at_the_next_change() {
        // The middle model-1 batch lost a request: it yields nothing, and
        // counting resumes at the next change of model.
        let done = [
            (0.010, 0, 2),
            (0.011, 0, 2),
            (0.020, 1, 2),
            (0.030, 0, 2),
            (0.031, 0, 2),
            (0.040, 0, 1),
        ];
        let per = batch_service_ms(&done, 2);
        assert!(per[1].is_empty());
        assert_eq!(per[0].len(), 2);
        assert!(close(per[0][0], 5.5));
        assert!(close(per[0][1], 9.0));
    }

    #[test]
    fn no_change_of_kind_gives_no_boundary() {
        let done = [(0.010, 0, 2), (0.011, 0, 2), (0.020, 0, 2), (0.021, 0, 2)];
        assert!(batch_service_ms(&done, 1)[0].is_empty());
        assert!(batch_service_ms(&[], 2).iter().all(Vec::is_empty));
    }

    #[test]
    fn name_character_set() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("compiler.run_batch_ms_per_req"));
        assert!(valid_name("kws-interactive"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_character_set() {
        for unit in [
            "ms", "s", "1/s", "count", "%", "x", "MB", "cycles", "ns/cycle",
        ] {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }
}
