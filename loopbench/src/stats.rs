//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile rule, and span self time.

/// Linear-interpolated quantile `q` in `[0, 1]` of sorted samples (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest whole percentile, at most 99, with at least ten samples
/// beyond it; `None` when fewer than ten samples exist beyond even p50.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// Median, quartiles, sample count and the tail percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// `(percentile, value)` by [`tail_percentile`].
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail =
            tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, f64::from(p) / 100.0)));
        Some(Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
            tail,
        })
    }
}

/// One timed interval of a traced request. Spans of one request share
/// `req`; `parent` is the index of the enclosing span in the same list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A count measured at the same boundary (bytes, rows, allocations).
    pub count: u64,
}

/// Self time of every span: its duration minus the part of it covered by
/// its direct children (overlapping children are counted once, and the
/// part of a child outside its parent is not subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            req: 0,
            parent,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(5000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(499), Some(97));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.75, 3.25));
        assert_eq!(s.tail, None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_reports_the_tail_with_its_percentile() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        let (p, v) = s.tail.expect("enough samples");
        assert_eq!(p, 99);
        assert!((v - 990.01).abs() < 1e-9, "{v}");
        let s = Summary::of(&samples[..200]).expect("non-empty");
        assert_eq!(s.tail.map(|t| t.0), Some(95));
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_once() {
        let spans = vec![
            span(None, 0, 100),     // request
            span(Some(0), 10, 30),  // sibling child
            span(Some(0), 40, 70),  // sibling child with a nested child
            span(Some(2), 45, 55),  // grandchild: not subtracted from the root
            span(Some(0), 60, 80),  // overlaps the previous sibling
            span(Some(0), 95, 120), // sticks out of its parent
        ];
        let st = self_times(&spans);
        // root: 100 - (20 + [40,80) 40 + [95,100) 5) = 35
        assert_eq!(st, vec![35, 20, 20, 10, 20, 25]);
    }
}
