//! Process counters read from outside the library: CPU time from
//! `/proc/{self,thread-self}/stat`, I/O bytes from `/proc/self/io`, and
//! peak RSS from `VmHWM`, with `/proc/self/clear_refs` to start a new
//! peak per phase. Every probe returns `None` where the file is missing
//! or unparsable, so a metric built on it is reported as missing, never
//! as zero.

use std::fs;

/// Clock ticks per second of the `stat` CPU fields (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Whose CPU time a reading covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// The whole process: right for a span that owns the process (its
    /// helper threads included) while nothing else runs.
    Process,
    /// The calling thread only: right for a span on one worker of a
    /// pool whose other workers run other spans.
    Thread,
}

/// One reading of the counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    /// User CPU seconds.
    pub user_s: Option<f64>,
    /// System CPU seconds.
    pub sys_s: Option<f64>,
    /// Bytes passed to `read`-family syscalls (`rchar`).
    pub rchar: Option<u64>,
    /// Bytes passed to `write`-family syscalls (`wchar`).
    pub wchar: Option<u64>,
}

impl Counters {
    /// Reads the CPU counters of `scope` and the process I/O counters.
    pub fn read(scope: Scope) -> Self {
        let (user_s, sys_s) = cpu_seconds(scope).unzip();
        let (rchar, wchar) = io_bytes().unzip();
        Counters {
            user_s,
            sys_s,
            rchar,
            wchar,
        }
    }

    /// The counter increase from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let sub_f = |a: Option<f64>, b: Option<f64>| Some(a? - b?);
        let sub_u = |a: Option<u64>, b: Option<u64>| Some(a?.saturating_sub(b?));
        Counters {
            user_s: sub_f(self.user_s, earlier.user_s),
            sys_s: sub_f(self.sys_s, earlier.sys_s),
            rchar: sub_u(self.rchar, earlier.rchar),
            wchar: sub_u(self.wchar, earlier.wchar),
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> Option<f64> {
        Some(self.user_s? + self.sys_s?)
    }
}

/// `(utime, stime)` in seconds, fields 14 and 15 of `stat`.
fn cpu_seconds(scope: Scope) -> Option<(f64, f64)> {
    let path = match scope {
        Scope::Process => "/proc/self/stat",
        Scope::Thread => "/proc/thread-self/stat",
    };
    let stat = fs::read_to_string(path).ok()?;
    // The command name may hold spaces; every later field follows ")".
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// `(rchar, wchar)` of the process.
fn io_bytes() -> Option<(u64, u64)> {
    let io = fs::read_to_string("/proc/self/io").ok()?;
    let field = |key: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
    };
    Some((field("rchar:")?, field("wchar:")?))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets `VmHWM` to the current RSS, so the next [`peak_rss_mib`]
/// reads the peak of the phase that starts now. Returns whether the
/// reset took effect.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
