//! Small measurement helpers: order statistics, the report digest, the
//! process high-water mark and the host fingerprint.

use std::hint::black_box;
use std::time::Instant;

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over a byte stream: the report digest. Stable across
/// platforms and toolchains, unlike the standard library's hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64 of `seed + salt·γ`: derives independent input seeds from
/// the workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has used and the seconds the hypervisor
/// stole from all of this machine's CPUs so far (`/proc`, clock ticks at
/// 100 Hz), or `None` where `/proc` is unavailable.
pub fn cpu_and_steal_s() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    let all = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = all.lines().next()?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(((utime + stime) / 100.0, steal / 100.0))
}

/// The host a result was measured on: core count and the speed of a
/// fixed integer calibration loop, so that a host change can be told
/// apart from a regression.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Million calibration-loop iterations per second (median of 5).
    pub calib_mops: f64,
}

/// Iterations of one calibration run.
const CALIB_ITERS: u64 = 4_000_000;

fn calibration_loop(iters: u64) -> u64 {
    // xorshift64* with a dependent multiply-add chain: integer ALU and
    // multiplier bound, no memory traffic.
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    acc
}

impl Host {
    /// Measures the fingerprint (about 50 ms).
    pub fn measure() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut rates = Vec::with_capacity(5);
        for _ in 0..5 {
            let t0 = Instant::now();
            black_box(calibration_loop(black_box(CALIB_ITERS)));
            rates.push(CALIB_ITERS as f64 / t0.elapsed().as_secs_f64() / 1e6);
        }
        Host {
            cores,
            calib_mops: median(&rates),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.8) - 4.2).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::new();
        assert_eq!(d.to_string(), "cbf29ce484222325");
        d.update(b"a");
        assert_eq!(d.to_string(), "af63dc4c8601ec8c");
    }

    #[test]
    fn derived_seeds_differ_by_salt() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
