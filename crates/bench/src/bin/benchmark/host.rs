//! Host-side measurements: the benchmark thread's CPU time and the
//! process's peak resident set.
//!
//! Host metrics count CPU time rather than wall time: other tenants of a
//! shared host stretch a run's wall clock without changing what running
//! the simulator costs.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// Linux's `struct timespec` on 64-bit targets.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    /// Linux's `struct timeval` on 64-bit targets.
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// CPU time the calling thread has consumed.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    let mut ts = sys::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` has the layout of the kernel's `struct timespec`
    // on this target, and the pointer is to a live, writable value for
    // the whole call.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock always exists on Linux");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Peak resident set of this process in MiB: the kernel's high-water
/// mark (`VmHWM`), read through `getrusage` so the run opens no file.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    let mut usage = sys::Rusage {
        utime: sys::Timeval { sec: 0, usec: 0 },
        stime: sys::Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the kernel's `struct rusage` on
    // this target, and the pointer is to a live, writable value for the
    // whole call.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// Elsewhere the benchmark falls back to wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed()
}

/// Not measured off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> f64 {
    0.0
}
