//! Peak resident memory of one simulation.
//!
//! Before a simulation the benchmark hands freed heap pages back to the
//! operating system (`malloc_trim`, glibc only) and resets the process's
//! peak-RSS mark (`/proc/self/clear_refs`); after it, it reads the mark
//! (`VmHWM`). The peak so covers that simulation's set-up and run on top of
//! the process's live memory, and not what earlier simulations once held.

/// Returns free heap pages to the operating system and resets the peak
/// resident-memory mark to the current resident size.
pub fn reset_peak() -> std::io::Result<()> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The peak resident memory since the last [`reset_peak`], in MB; NaN if
/// it cannot be read.
pub fn peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases pages the
    // allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}
