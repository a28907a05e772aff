//! Probe for `perf_event_open(2)`: [`supported`] says whether this host lets a
//! thread open a hardware cycles counter, and that is all the crate does.
//!
//! It survives only because the whole-stack benchmark records the answer
//! (`perf_supported` in `benchmark/src/sysinfo.rs`) and depends on this crate by
//! path; ROADMAP open item 1(g) drops that field, then this crate. Like
//! `compat/mio`, the two calls are declared against the C library std already
//! links (no `libc` crate).

use std::sync::OnceLock;

/// Whether a user-space CPU-cycles counter can be opened on the calling thread:
/// `false` off Linux, under a restrictive `perf_event_paranoid` or seccomp, or
/// without a PMU. The first call opens one counter, closes it and caches the answer.
pub fn supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(imp::probe)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::os::raw::{c_int, c_long, c_ulong};

    extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_arch = "x86_64")]
    const SYS_PERF_EVENT_OPEN: c_long = 298;
    #[cfg(target_arch = "aarch64")]
    const SYS_PERF_EVENT_OPEN: c_long = 241;
    const PERF_FLAG_FD_CLOEXEC: c_ulong = 1 << 3;

    /// `struct perf_event_attr` at `PERF_ATTR_SIZE_VER0`. `type_` and `config` stay
    /// 0: `PERF_TYPE_HARDWARE`, `PERF_COUNT_HW_CPU_CYCLES`.
    #[repr(C)]
    #[derive(Default)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        _sample_period_type_read_format: [u64; 3],
        flags: u64,
        _wakeup_bp_type_config1: [u64; 2],
    }
    const _: () = assert!(std::mem::size_of::<PerfEventAttr>() == 64);

    pub(super) fn probe() -> bool {
        let attr = PerfEventAttr {
            size: 64,
            flags: (1 << 0) | (1 << 5) | (1 << 6), // disabled, exclude_kernel, exclude_hv
            ..PerfEventAttr::default()
        };
        // SAFETY: `attr` is fully initialised and `size` matches its layout; pid 0 /
        // cpu -1 / no group is the calling thread, and a refusal returns -1.
        let fd = unsafe {
            syscall(
                SYS_PERF_EVENT_OPEN,
                &attr as *const PerfEventAttr,
                0 as c_int,
                -1 as c_int,
                -1 as c_int,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        if fd < 0 {
            return false;
        }
        // SAFETY: `fd` was just returned by perf_event_open and is closed once.
        unsafe { close(fd as c_int) };
        true
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn probe() -> bool {
        false
    }
}
