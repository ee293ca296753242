//! Order statistics, the verdict checksum and the process's peak RSS.

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0.0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending (NaN-free inputs only).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    v
}

/// Median with the two middle values averaged; 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance check applies to ten runs. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// FNV-1a over the bit patterns of every verdict score, in order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn push_verdicts(&mut self, verdicts: &[Vec<f32>]) {
        for score in verdicts.iter().flatten() {
            for byte in score.to_bits().to_le_bytes() {
                self.0 ^= byte as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `VmHWM` of this process in MiB (Linux `/proc/self/status`); 0.0
/// where the file or the field is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn checksum_depends_on_bits_and_order() {
        let mut a = Fnv::default();
        a.push_verdicts(&[vec![1.0, 2.0]]);
        let mut b = Fnv::default();
        b.push_verdicts(&[vec![2.0, 1.0]]);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(a.finish(), Fnv::default().finish());
    }
}
