//! Process CPU time and resident memory.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, including
/// threads that already exited, to the nanosecond. (`/proc/self/stat`
/// counts the same time in 10 ms ticks: a tenth of one `detect` pass.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the C
    // library expects on 64-bit Linux, the only platform this crate builds
    // for (`/proc` below); the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Resident set size in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS is a number of kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_follows_work_and_rss_is_positive() {
        let c0 = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spun = cpu_seconds() - c0;
        // Not more than the wall time of one thread (plus slack for the
        // other test threads), and most of it unless the box is saturated.
        assert!(spun > 0.002, "20 ms of spinning shows: {spun}");
        assert!(rss_mb() > 0.5);
    }
}
