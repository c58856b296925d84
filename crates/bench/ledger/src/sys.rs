//! Process-level measurements read from `/proc`: CPU time of every
//! thread, peak resident set, and the host's core count.

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// 100 on every Linux ABI this benchmark targets).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds consumed so far by this process, all
/// threads included (exited ones too: the kernel folds them into the
/// thread group's totals).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name is parenthesised and may hold spaces; fields
    // after it are space-separated, starting at field 3 (`state`).
    let after = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("stat time fields are integers") as f64
    };
    // utime and stime are fields 14 and 15 of the full line.
    (ticks(14 - 3) + ticks(15 - 3)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status reports VmHWM in kB");
    kib as f64 / 1024.0
}

/// Resets the peak resident set to the current one, so the next
/// [`peak_rss_mb`] reads the peak of what runs in between.
///
/// # Errors
///
/// A kernel that refuses the reset.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "{x}");
    }

    #[test]
    fn peak_rss_resets_to_the_current_set() {
        let block = vec![1u8; 64 << 20];
        let touched: u64 = block.iter().step_by(4096).map(|&b| u64::from(b)).sum();
        let high = peak_rss_mb();
        drop(block);
        reset_peak_rss().expect("the kernel resets the peak RSS");
        assert!(peak_rss_mb() + 32.0 < high, "{touched}");
    }
}
