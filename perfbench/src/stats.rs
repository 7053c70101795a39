//! Measurement helpers that share no code with the program under test:
//! quantiles from sorted samples, peak RSS from `/proc`, and a digest.

/// The `q`-quantile of `samples` by linear interpolation between the
/// two nearest ranks (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] of samples already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a (64-bit) over a byte stream, fed in pieces.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, followed by a `\n` separator.
    pub fn line(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_sorted_samples() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn own_rss_is_readable() {
        let mb = peak_rss_mb(std::process::id()).expect("linux /proc");
        assert!(mb > 0.0);
    }

    #[test]
    fn digest_separates_lines() {
        let mut a = Digest::new();
        a.line(b"ab");
        a.line(b"c");
        let mut b = Digest::new();
        b.line(b"a");
        b.line(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
