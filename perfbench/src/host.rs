//! Host facts every output is stamped with, process memory, and the
//! report digests.

use std::fmt::Write as _;

/// The facts a measurement is only comparable under.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub simd: &'static str,
    pub rustc: String,
    pub git_rev: String,
}

impl HostFacts {
    /// Detects the host; the toolchain and revision come from the
    /// launcher (`run.py`), which knows how the binary was built.
    pub fn detect(rustc: &str, git_rev: &str) -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: simd_path(),
            rustc: rustc.to_string(),
            git_rev: git_rev.to_string(),
        }
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "nproc": self.nproc,
            "simd": self.simd,
            "rustc": self.rustc,
            "git_rev": self.git_rev,
        })
    }
}

/// The dispatch path the lane-batched solver takes on this host, by the
/// same runtime feature tests it uses.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// 64-bit FNV-1a, streamed: the digest of everything fed to it. Numbers
/// are folded in one 64-bit word at a time (FNV-1a over words rather
/// than bytes), which keeps digests of multi-million-point reports cheap.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds the JSON serialization of `value`.
    pub fn json<T: serde::Serialize + ?Sized>(&mut self, value: &T) -> Result<(), String> {
        let text = serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))?;
        self.bytes(text.as_bytes());
        Ok(())
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        let mut s = String::with_capacity(16);
        let _ = write!(s, "{:016x}", self.0);
        s
    }
}

/// Median of a sample (upper median for even counts; `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn simd_path_is_named() {
        assert!(["avx512", "avx2", "scalar"].contains(&simd_path()));
    }
}
