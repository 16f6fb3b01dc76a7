//! Rate-limited byte source — the simulated disk.
//!
//! The paper's disk-bound experiments stream metadata from a sequential
//! read at ~66 MB/s (75% of the drive's 85 MB/s raw speed, §5.7). We model
//! the same behaviour with a token bucket: a reader that has "read" B bytes
//! may not return before `B / rate` seconds have elapsed since the scan
//! began, plus a fixed seek latency at the start. Warm-OS-buffer-cache and
//! in-memory runs simply use [`DiskProfile::memory`] (no limit).

use std::time::{Duration, Instant};

/// Throughput profile of a storage tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sustained sequential bandwidth, bytes/second. `f64::INFINITY` for
    /// memory.
    pub bytes_per_sec: f64,
    /// Initial positioning cost (one seek), seconds.
    pub seek_s: f64,
}

impl DiskProfile {
    /// The thesis's Dell 1950 SATA drive as measured: 66 MB/s effective
    /// sequential transfer, ~10 ms seek (§5.7, §5.7.2).
    pub fn dell1950_disk() -> Self {
        DiskProfile {
            bytes_per_sec: 66.0e6,
            seek_s: 0.010,
        }
    }

    /// No rate limit (in-memory / warm buffer cache).
    pub fn memory() -> Self {
        DiskProfile {
            bytes_per_sec: f64::INFINITY,
            seek_s: 0.0,
        }
    }

    /// Arbitrary profile.
    pub fn with_rate(mb_per_sec: f64, seek_ms: f64) -> Self {
        assert!(mb_per_sec > 0.0);
        DiskProfile {
            bytes_per_sec: mb_per_sec * 1e6,
            seek_s: seek_ms / 1000.0,
        }
    }
}

/// A pacing meter for one sequential scan.
#[derive(Debug)]
pub struct SimDisk {
    profile: DiskProfile,
    started: Instant,
    bytes_read: u64,
}

impl SimDisk {
    /// Begin a scan (the seek is charged immediately).
    pub fn begin(profile: DiskProfile) -> Self {
        let d = SimDisk {
            profile,
            started: Instant::now(),
            bytes_read: 0,
        };
        if d.profile.seek_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(d.profile.seek_s));
        }
        d
    }

    /// Account for `bytes` read and block until the token bucket permits
    /// them. Returns the cumulative bytes read.
    pub fn read(&mut self, bytes: u64) -> u64 {
        self.bytes_read += bytes;
        if self.profile.bytes_per_sec.is_finite() {
            let due = self.profile.seek_s + self.bytes_read as f64 / self.profile.bytes_per_sec;
            let elapsed = self.started.elapsed().as_secs_f64();
            if due > elapsed {
                std::thread::sleep(Duration::from_secs_f64(due - elapsed));
            }
        }
        self.bytes_read
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Predicted wall time to stream `total_bytes` (no contention).
    pub fn predicted_scan_time(profile: &DiskProfile, total_bytes: u64) -> f64 {
        if profile.bytes_per_sec.is_finite() {
            profile.seek_s + total_bytes as f64 / profile.bytes_per_sec
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_profile_never_blocks() {
        let mut d = SimDisk::begin(DiskProfile::memory());
        let t0 = Instant::now();
        d.read(1 << 30);
        assert!(t0.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn rate_limit_enforced() {
        // 10 MB at 100 MB/s must take ≥ ~0.1 s
        let mut d = SimDisk::begin(DiskProfile::with_rate(100.0, 0.0));
        let t0 = Instant::now();
        for _ in 0..10 {
            d.read(1_000_000);
        }
        let took = t0.elapsed().as_secs_f64();
        assert!(took >= 0.095, "took {took}s, expected ≥ 0.1s");
        assert!(took < 0.5, "took {took}s, way over budget");
    }

    #[test]
    fn seek_charged_once_up_front() {
        let t0 = Instant::now();
        let _d = SimDisk::begin(DiskProfile::with_rate(1000.0, 30.0));
        assert!(t0.elapsed() >= Duration::from_millis(28));
    }

    #[test]
    fn predicted_scan_time_formula() {
        let p = DiskProfile::with_rate(66.0, 10.0);
        // paper: 230 MB at 66 MB/s ≈ 3.5 s
        let t = SimDisk::predicted_scan_time(&p, 230_000_000);
        assert!((t - 3.494).abs() < 0.02, "{t}");
        assert_eq!(
            SimDisk::predicted_scan_time(&DiskProfile::memory(), 1 << 40),
            0.0
        );
    }

    #[test]
    fn bytes_accumulate() {
        let mut d = SimDisk::begin(DiskProfile::memory());
        d.read(10);
        d.read(20);
        assert_eq!(d.bytes_read(), 30);
    }
}
