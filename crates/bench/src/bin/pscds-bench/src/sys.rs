//! Resource usage of this process and of its waited-for children, read
//! with `getrusage(2)`. Declared by hand, as `pscds` declares `signal`,
//! because the workspace takes no `libc` dependency. Linux layout.

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time and peak resident set of one `getrusage` reading.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in KiB (the largest child's, for
    /// [`children`]).
    pub max_rss_kib: u64,
}

fn read(who: i32) -> Usage {
    let mut raw = RUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
    // layout (two timevals then fourteen longs), and `who` is one of the
    // two values the call defines; getrusage writes only into `raw`.
    let status = unsafe { getrusage(who, &mut raw) };
    assert_eq!(status, 0, "getrusage({who}) failed");
    let micros = |t: &Timeval| {
        Duration::from_secs(t.tv_sec.max(0).unsigned_abs())
            + Duration::from_micros(t.tv_usec.max(0).unsigned_abs())
    };
    Usage {
        cpu: micros(&raw.ru_utime) + micros(&raw.ru_stime),
        max_rss_kib: raw.ru_maxrss.max(0).unsigned_abs(),
    }
}

/// Usage of this process so far.
pub fn this_process() -> Usage {
    read(RUSAGE_SELF)
}

/// Usage of every child this process has waited for so far.
pub fn children() -> Usage {
    read(RUSAGE_CHILDREN)
}

/// This process's peak resident set in KiB (`VmHWM`): the high-water mark
/// of its own address space. Unlike `ru_maxrss` it does not start at the
/// spawning process's peak.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Lowers this process's peak resident set to its current one, so a
/// child spawned next starts its `ru_maxrss` from this process's current
/// size instead of its peak.
pub fn reset_peak_rss() {
    // Best effort: without it the child's peak can only read higher.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
