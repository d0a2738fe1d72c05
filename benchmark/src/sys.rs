//! What the black-box drivers need from the OS and std does not offer:
//! a child's own CPU time (`wait4`), SIGTERM, and the CPU time and peak
//! RSS of a live process from `/proc`.
//!
//! Peak RSS is *not* taken from `wait4`: Linux folds the memory high-water
//! mark of the image a process had before `exec` into its `ru_maxrss`, so a
//! child of this benchmark would report at least what the benchmark itself
//! once held (a 5 MB child of a 300 MB parent reads 310 MB).

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGTERM: c_int = 15;

/// Waits for `child` to exit and returns its exit code (`None` when a
/// signal ended it) together with its user + system CPU seconds. Takes the
/// `Child` by value: after `wait4` reaped the process, std's own `wait`
/// would find nothing, so the handle must not be used again.
pub fn wait_with_cpu(child: std::process::Child) -> std::io::Result<(Option<i32>, f64)> {
    let mut status: c_int = 0;
    let mut ru = Rusage::default();
    // SAFETY: `wait4` is the libc function with the declared signature
    // (libc is always linked by std on Linux); `status` and `ru` are valid
    // for writes of their types, and `Rusage` matches the kernel layout
    // described above. The pid is this process's own unreaped child.
    let rc = unsafe { wait4(child.id() as c_int, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let exited = status & 0x7f == 0;
    Ok((
        exited.then_some((status >> 8) & 0xff),
        secs(ru.utime) + secs(ru.stime),
    ))
}

/// Sends SIGTERM to `pid`.
pub fn terminate(pid: u32) -> std::io::Result<()> {
    // SAFETY: `kill` is the libc function with the declared signature; it
    // touches no memory of this process.
    if unsafe { kill(pid as c_int, SIGTERM) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// User + system CPU seconds a live process has used so far, from
/// `/proc/<pid>/stat` (clock ticks of 10 ms on Linux).
pub fn proc_cpu_s(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11); // utime is field 14
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / 100.0),
        _ => Err(std::io::Error::other("unreadable /proc stat")),
    }
}

/// Peak resident set (`VmHWM`) of a live process in MB (10^6 bytes);
/// an error once it has exited.
pub fn proc_peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

/// Host facts recorded in every report header.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}
