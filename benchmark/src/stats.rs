//! Sample summaries, percentile selection, metric names and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// Percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a reported percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of quantile `q` in `n` sorted samples.
pub fn rank_index(q: f64, n: usize) -> usize {
    assert!(n > 0, "no samples");
    // The epsilon keeps products like 0.99 × 1000 from rounding up a rank.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank quantile `q` of ascending `sorted` samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_index(q, sorted.len())]
}

/// Samples strictly above the nearest-rank quantile `q` of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    n - 1 - rank_index(q, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Median of `values` (sorts a copy; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The percentile of every workload's end-to-end `tail_ms`. On a shared
/// virtual machine a p99 swings with scheduler stalls from run to run;
/// the p99s are reported among the per-layer metrics.
pub const TAIL_Q: f64 = 0.9;

/// Contiguous groups a run's samples fall into for [`chunked_rate`] and
/// [`stretch_quantile`].
pub const RATE_CHUNKS: usize = 10;

/// Which group the end-to-end statistics report: the slower quartile.
/// The host's speed shifts by a third in phases of seconds to minutes,
/// so a run's fastest and median groups move with the phase it fell in,
/// while the slower quartile repeats whenever a quarter of the run saw
/// the slower phase. It is also the conservative reading.
pub const SLOW_QUARTILE: f64 = 0.75;

/// Each group's total work per total second over `chunks` contiguous,
/// equal-count groups of `(work, secs)` items, taken at the slower
/// quartile of the groups (the rate three groups in four reach).
pub fn chunked_rate(items: &[(f64, f64)], chunks: usize) -> f64 {
    let chunks = chunks.clamp(1, items.len().max(1));
    let mut rates: Vec<f64> = (0..chunks)
        .map(|c| {
            let part = &items[c * items.len() / chunks..(c + 1) * items.len() / chunks];
            let (work, secs) = part
                .iter()
                .fold((0.0, 0.0), |a, &(w, s)| (a.0 + w, a.1 + s));
            ratio(work, secs)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    quantile(&rates, 1.0 - SLOW_QUARTILE)
}

/// Quantile `q` of time-ordered `samples`, taken in each of at most
/// [`RATE_CHUNKS`] contiguous stretches that each have at least
/// [`MIN_BEYOND`] samples beyond `q`, and reported at the slower quartile
/// of the stretches. Falls back to [`Summary::of`]'s tail when the run
/// is shorter than one stretch. Returns the value and the stretch count.
pub fn stretch_quantile(samples: &[f64], q: f64) -> (f64, usize) {
    let len = ((MIN_BEYOND + 1) as f64 / (1.0 - q) - 1e-9).ceil() as usize;
    let stretches = (samples.len() / len).min(RATE_CHUNKS);
    if stretches == 0 {
        return (Summary::of(samples).tail, 1);
    }
    let mut values: Vec<f64> = (0..stretches)
        .map(|i| {
            let mut part = samples
                [i * samples.len() / stretches..(i + 1) * samples.len() / stretches]
                .to_vec();
            part.sort_by(f64::total_cmp);
            quantile(&part, q)
        })
        .collect();
    values.sort_by(f64::total_cmp);
    (quantile(&values, SLOW_QUARTILE), stretches)
}

/// A timing sample set reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The percentile `tail` was taken at (see [`tail_quantile`]).
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(v.len()).unwrap_or(0.5);
        Summary {
            n: v.len(),
            median: quantile(&v, 0.5),
            tail_q,
            tail: quantile(&v, tail_q),
        }
    }

    /// Like [`of`](Self::of), but with the tail fixed at `q` whenever `q`
    /// has enough samples beyond it, so the reported percentile does not
    /// move with the sample count.
    pub fn at(samples: &[f64], q: f64) -> Summary {
        let mut s = Summary::of(samples);
        if s.n > 0 && beyond(q, s.n) >= MIN_BEYOND {
            let mut v = samples.to_vec();
            v.sort_by(f64::total_cmp);
            s.tail_q = q;
            s.tail = quantile(&v, q);
        }
        s
    }

    /// `p50=… p99=… n=…` for the human-readable report.
    pub fn describe(&self) -> String {
        format!(
            "p50={:.4} p{}={:.4} n={}",
            self.median,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and percentile detail for the human-readable report.
    pub note: String,
}

/// Signed relative difference of `new` against `base`, in percent.
pub fn signed_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (new - base) / base * 100.0
}

/// A ratio that reads 0 instead of NaN when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Ordered metric list with the run's operation accounting.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run exit nonzero.
    pub mismatches: Vec<String>,
    /// Extra human-readable lines, printed before the metrics.
    pub lines: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in 1..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(beyond(q, n) >= MIN_BEYOND, "n={n} q={q}");
                let higher = TAIL_LADDER.iter().find(|&&h| h > q && beyond(h, n) >= 10);
                assert!(higher.is_none(), "n={n}: {q} is not the highest");
            }
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 499.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 989.0);
    }

    #[test]
    fn metric_names_follow_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "eval.textual.call_ms",
            "a",
            "9x",
            "serve.low.p99_ms",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".a",
            "_a",
            "-a",
            "a b",
            "a/b",
            "a{b}",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn chunked_rate_is_the_slower_quartile_group_rate() {
        // Eight groups of one at rate 2: one stalled group cannot move
        // the slower quartile (the second-slowest group) ...
        let mut items = vec![(2.0, 1.0); 8];
        assert_eq!(chunked_rate(&items, 8), 2.0);
        items[3] = (2.0, 40.0);
        assert_eq!(chunked_rate(&items, 8), 2.0);
        // ... but a quarter of the groups at a slower rate does.
        items[6] = (1.0, 1.0);
        assert_eq!(chunked_rate(&items, 8), 1.0);
        assert_eq!(chunked_rate(&[(6.0, 2.0)], 10), 3.0);
        assert_eq!(chunked_rate(&[], 10), 0.0);
    }

    #[test]
    fn stretch_quantile_takes_the_slower_quartile_stretch() {
        // Four stretches of 110 samples for p90, the third one slower by
        // 1000 and the fourth by 2000; the slower quartile is the third.
        let mut v: Vec<f64> = (0..440).map(|i| f64::from(i % 110)).collect();
        for (i, x) in v.iter_mut().enumerate() {
            *x += 1000.0 * ((i / 110).saturating_sub(1)) as f64;
        }
        assert_eq!(stretch_quantile(&v, 0.9), (1098.0, 4));
        // Never more than RATE_CHUNKS stretches.
        assert_eq!(stretch_quantile(&vec![1.0; 5000], 0.5).1, RATE_CHUNKS);
        // Too short for one stretch: the plain summary's tail, which is
        // the median when no percentile has 10 samples beyond it.
        assert_eq!(stretch_quantile(&[1.0, 2.0], 0.9), (1.0, 1));
    }

    #[test]
    fn differences_are_signed() {
        assert_eq!(signed_pct(100.0, 90.0), -10.0);
        assert_eq!(signed_pct(100.0, 110.0), 10.0);
        assert_eq!(signed_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.push("setup_s", 0.5, "s");
        r.push("count", 3.0, "count");
        r.attempted = 4;
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        r.mismatch("x".into());
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
