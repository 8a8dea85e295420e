//! Process facts from `/proc`: peak resident set and CPU time.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// `VmHWM` of this process in MB (10⁶ bytes), if `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// User + system CPU seconds this process has used, if `/proc` has it.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_facts_are_present_and_sane_on_linux() {
        let rss = peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.1 && rss < 1e6, "peak rss {rss} MB");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds().expect("stat") >= 0.0, "{x}");
    }
}
