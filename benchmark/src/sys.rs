//! Process accounting from `/proc`: CPU time and peak resident memory.

use std::fs;

/// Kernel clock ticks per second. `USER_HZ` has been 100 on every Linux
/// architecture since 2.6; the standard library offers no `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU time this process has used so far, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parsing /proc/self/stat");
    ticks as f64 * 1000.0 / TICKS_PER_S
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parsing VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat =
            "4242 (s3 perf) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 1234 56 7 8 20 0 5 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\ts3perf\nVmPeak:\t  999 kB\nVmHWM:\t   65064 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(65064));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
