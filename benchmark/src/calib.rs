//! The frozen calibration kernel and the host normalisation built on it.
//!
//! Every throughput the benchmark reports is host-normalised twice:
//!
//! * Its time base is the time the rep would have taken on an unshared
//!   host ([`unshared_seconds`]): for a 1-worker rep, the CPU time the
//!   process and its reaped workers used; for a 2-worker rep, the wall
//!   time scaled by the share of wanted vCPU time the hypervisor did not
//!   steal.
//! * It is multiplied by `calib_s / CALIB_REF_S`, where `calib_s` is the
//!   time of this module's kernel measured right before and right after
//!   the rep at the rep's thread count. A host whose CPU runs the kernel
//!   k times slower also runs the rep k times slower, and k cancels.
//!
//! The kernel must never change: it is the yardstick for the host's speed,
//! so editing it (or the constant) would make every earlier figure
//! incomparable.

use std::hint::black_box;
use std::time::Instant;

/// Reference kernel time in seconds: the figure a normalised throughput is
/// quoted against. A fixed constant of the benchmark, roughly the kernel's
/// time on a 2-vCPU Xeon VM.
pub const CALIB_REF_S: f64 = 0.006;

/// 256 KiB working set: outgrows L1, stays in L2, like the analyses' memo
/// tables and curve buffers.
const TABLE_WORDS: usize = 1 << 15;
const ROUNDS: u64 = 1_000_000;
/// Timed runs per measurement. The fastest one is the measurement: a
/// stall, a preemption or stolen time can only slow a run down.
const RUNS: usize = 3;

/// One run of the kernel over `table`: a serial chain of xorshift draws,
/// random read-modify-writes into the table and a dependent
/// floating-point recurrence. Returns a checksum so nothing can be
/// optimised away.
pub fn kernel(table: &mut [u64], seed: u64) -> u64 {
    assert_eq!(table.len(), TABLE_WORDS, "the kernel's table size is fixed");
    let mut x = seed | 1;
    let mut acc = 1.0f64;
    for round in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (TABLE_WORDS - 1);
        let word = table[slot].wrapping_add(x ^ round);
        table[slot] = word;
        acc = acc * 0.999_999_9 + (word >> 40) as f64 * 1e-12;
        if acc > 4.0 {
            acc -= 3.0;
        }
    }
    table
        .iter()
        .fold(acc.to_bits(), |h, &w| h.rotate_left(5) ^ w)
}

/// Seconds per kernel run with `threads` copies running concurrently, the
/// way a rep at that thread count loads the host. Each thread times its
/// own runs on a table it allocated and zeroed beforehand (so page faults
/// are not timed) and keeps the fastest; the result is the mean over
/// threads, so thread start-up skew does not count. The kernel thus
/// measures how fast the CPU runs, not how much of it the benchmark got:
/// [`unshared_seconds`] already leaves out the time it did not get.
pub fn time_kernel(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut table = vec![0u64; TABLE_WORDS];
                    let mut fastest = f64::INFINITY;
                    for _ in 0..RUNS {
                        table.fill(0);
                        let start = Instant::now();
                        black_box(kernel(black_box(&mut table), black_box(t as u64 + 1)));
                        fastest = fastest.min(start.elapsed().as_secs_f64());
                    }
                    fastest
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    total / threads as f64
}

/// Busy and stolen CPU time of the whole VM, in clock ticks, from the
/// first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + irq + softirq.
    pub busy: u64,
    /// Time a vCPU wanted to run but the hypervisor ran something else.
    pub steal: u64,
}

impl CpuTicks {
    /// The current counters; zero where `/proc/stat` is missing, which
    /// turns the steal correction off.
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| Self::parse(&stat))
            .unwrap_or_default()
    }

    fn parse(stat: &str) -> Option<Self> {
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        Some(Self {
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
        })
    }

    /// Of the vCPU time wanted between `self` and `later`, the share the
    /// VM was given; 1 when nothing was counted.
    pub fn delivered_share(self, later: Self) -> f64 {
        let busy = later.busy.saturating_sub(self.busy) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        if busy + steal > 0.0 {
            busy / (busy + steal)
        } else {
            1.0
        }
    }
}

/// CPU seconds used so far by this process and its reaped children
/// (`utime + stime + cutime + cstime` of `/proc/self/stat`, in Linux's
/// fixed 1/100 s clock ticks); `None` where that file is missing.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at `state` (3).
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(ticks as f64 / 100.0)
}

/// The seconds a rep would have taken on an unshared host. A 1-worker rep
/// runs one CPU-bound thread (or one worker process beside its
/// coordinator), so its CPU time is that figure directly, without the time
/// other tenants or the hypervisor took; with 2 workers, idle time from
/// load imbalance is part of the result, so the wall time is kept and only
/// the stolen share comes off.
pub fn unshared_seconds(workers: usize, wall_s: f64, cpu_s: Option<f64>, delivered: f64) -> f64 {
    match cpu_s {
        Some(cpu) if workers == 1 && cpu > 0.0 => cpu,
        _ => wall_s * delivered,
    }
}

/// Host-normalised items per second of one rep: items over its unshared
/// seconds, scaled by the bracketing kernel time over the reference kernel
/// time, i.e. the rate the rep would have had on an unshared host running
/// the kernel in exactly [`CALIB_REF_S`]. Of the two kernel brackets the
/// faster one counts, for the same reason the fastest run does.
pub fn normalised_rate(
    items: u64,
    unshared_s: f64,
    calib_before_s: f64,
    calib_after_s: f64,
) -> f64 {
    items as f64 / unshared_s * (calib_before_s.min(calib_after_s) / CALIB_REF_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_rep_normalises_to_the_expected_rate() {
        // 1000 items in 2 s is 500 items/s raw; a host whose kernel ran in
        // the reference time leaves it unchanged...
        let at_ref = normalised_rate(1000, 2.0, CALIB_REF_S, CALIB_REF_S);
        assert!((at_ref - 500.0).abs() < 1e-9, "{at_ref}");
        // ...on a host running the kernel twice as slow the same rep takes
        // 4 s, which normalises back to the same 500 items/s...
        let slow = normalised_rate(1000, 4.0, 2.0 * CALIB_REF_S, 2.0 * CALIB_REF_S);
        assert!((slow - 500.0).abs() < 1e-9, "{slow}");
        // ...and a stall in one bracket does not count.
        let stalled = normalised_rate(1000, 2.0, 3.0 * CALIB_REF_S, CALIB_REF_S);
        assert!((stalled - 500.0).abs() < 1e-9, "{stalled}");
    }

    #[test]
    fn unshared_time_drops_what_the_host_took() {
        // One worker: the CPU time it got, whatever the wall said.
        assert_eq!(unshared_seconds(1, 4.0, Some(2.0), 0.5), 2.0);
        // Two workers: a 4 s wall while the VM got half the CPU time it
        // wanted counts as 2 s.
        assert_eq!(unshared_seconds(2, 4.0, Some(7.0), 0.5), 2.0);
        // No CPU-time source: the wall with the stolen share taken off.
        assert_eq!(unshared_seconds(1, 4.0, None, 0.75), 3.0);
        let cpu = process_cpu_seconds().expect("/proc/self/stat on Linux");
        assert!(cpu >= 0.0);
    }

    #[test]
    fn steal_share_comes_from_proc_stat() {
        let before = CpuTicks::parse("cpu  100 5 20 900 3 1 4 30 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(
            before,
            CpuTicks {
                busy: 130,
                steal: 30
            }
        );
        let after = CpuTicks {
            busy: 190,
            steal: 50,
        };
        assert!((before.delivered_share(after) - 0.75).abs() < 1e-12);
        assert_eq!(before.delivered_share(before), 1.0);
        assert_eq!(CpuTicks::parse("intr 1 2\n"), None);
    }

    #[test]
    fn kernel_is_deterministic() {
        let run = |seed| kernel(&mut vec![0; TABLE_WORDS], seed);
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
