//! Host facts printed next to the results.

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the first data or unified cache at `level`, from
/// CPUID leaf 4 (no files are read). `None` off x86-64.
pub fn cache_bytes(level: u32) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    for sub in 0..16 {
        // Leaf 4 returns type 0 past the last cache; type 2 is an
        // instruction cache.
        let r = std::arch::x86_64::__cpuid_count(4, sub);
        match r.eax & 0x1f {
            0 => break,
            2 => continue,
            _ if (r.eax >> 5) & 0x7 != level => continue,
            _ => {}
        }
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        return Some(ways * parts * line * sets);
    }
    let _ = level;
    None
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// One line of host facts.
pub fn describe(rev: &str) -> String {
    let fmt = |level| {
        cache_bytes(level).map_or_else(|| "unknown".to_string(), |b| format!("{:.1} MiB", mib(b)))
    };
    format!(
        "# host: nproc={} L2={} (per core) L3={} (shared) rev={}",
        nproc(),
        fmt(2),
        fmt(3),
        rev
    )
}
