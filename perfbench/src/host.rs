//! Host facts recorded beside every result: provenance, peak memory and
//! the streaming-bandwidth reference the kernels are read against.

use std::path::Path;
use std::time::Instant;

/// Bytes of the bandwidth reference buffer: far beyond any L2/L3.
const STREAM_BYTES: usize = 128 << 20;
/// Passes over the buffer; the median pass is reported.
const STREAM_PASSES: usize = 5;

/// Single-thread sequential read bandwidth in GB/s (1e9 bytes/s): the
/// median of [`STREAM_PASSES`] summing passes over a
/// [`STREAM_BYTES`]-byte buffer of `u64`s.
pub fn stream_gbps() -> f64 {
    let words = STREAM_BYTES / 8;
    let buf: Vec<u64> = (0..words as u64).collect();
    let mut rates = Vec::with_capacity(STREAM_PASSES);
    for _ in 0..STREAM_PASSES {
        let t = Instant::now();
        // Four independent accumulators keep the loop load-bound rather
        // than add-latency-bound; the compiler vectorizes it.
        let mut acc = [0u64; 4];
        for chunk in std::hint::black_box(&buf).chunks_exact(4) {
            for (a, x) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(*x);
            }
        }
        std::hint::black_box(acc);
        rates.push(STREAM_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&rates)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a
/// git repository, otherwise `"unknown"` (the source fingerprint still
/// identifies the code).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a fingerprint over the engine's sources (`crates/**.rs` and
/// manifests, in path order), so results from a checkout without git
/// history still name the code they measured.
pub fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}:{}", files.len())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
