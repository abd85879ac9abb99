//! Order statistics of the samples a run collects, and the process's
//! peak resident set.

use std::io;

/// First quartile, median and third quartile of `xs`, with the same
/// interpolation as Python's `statistics.quantiles(xs, n=4)` (the
/// "exclusive" method), so the run's own figures and the steadiness
/// tool's agree. One sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut data = xs.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of `xs` (see [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`.
pub fn peak_rss_mb() -> io::Result<f64> {
    status_mb("VmHWM:")
}

/// A `/proc/self/status` field given in kB, in MiB.
fn status_mb(field: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status_kb(&status, field)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field} line")))
}

/// The value (in kB) of a `field` line (`VmHWM:`, …) of a
/// `/proc/<pid>/status` text.
fn status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let mut fields = line[field.len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(xs, n=4)`.
        let close = |a: [f64; 3], b: [f64; 3]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quartiles(&ten), [2.75, 5.5, 8.25]));
        assert!(close(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]));
        // Two samples extrapolate, as Python does.
        assert!(close(quartiles(&[4.0, 1.0]), [0.25, 2.5, 4.75]));
        assert!(close(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            [1.5, 4.0, 12.0]
        ));
        assert_eq!(quartiles(&[7.5]), [7.5; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn reads_vm_hwm_and_vm_rss() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Some(2048));
        assert_eq!(status_kb(status, "VmRSS:"), Some(1024));
        assert_eq!(status_kb("VmRSS:\t 1 kB\n", "VmHWM:"), None);
        assert_eq!(status_kb("VmHWM:\t 12 pages\n", "VmHWM:"), None);
        let live = peak_rss_mb().unwrap();
        assert!(live > 0.0 && live.is_finite());
    }
}
