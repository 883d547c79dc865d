//! Host-side measurements: CPU clocks, resident memory, thread count and
//! the host description printed with every wall-clock number.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in glibc's `cpu_set_t` (1,024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restricts the calling thread, and every thread it creates afterwards,
/// to `n` of the CPUs it may run on (the highest-numbered ones, away from
/// CPU 0's interrupt load). A run at `n` shard workers then gets exactly
/// `n` CPUs: at one worker, strand handoffs stay on one CPU instead of
/// waking a halted virtual CPU each time. Returns how many CPUs the
/// thread may use afterwards.
pub fn pin_cpus(n: usize) -> usize {
    let Some(allowed) = allowed_cpus() else {
        return nproc();
    };
    let mut pinned = [0u64; CPU_SET_WORDS];
    let mut count = 0;
    for cpu in (0..CPU_SET_WORDS * 64).rev() {
        if count < n && (allowed[cpu / 64] >> (cpu % 64)) & 1 == 1 {
            pinned[cpu / 64] |= 1 << (cpu % 64);
            count += 1;
        }
    }
    // SAFETY: `pinned` is a readable buffer of exactly the size passed,
    // holding a non-empty subset of the CPUs this thread may already use.
    if count == 0 || unsafe { sched_setaffinity(0, size_of_val(&pinned), pinned.as_ptr()) } != 0 {
        return allowed.iter().map(|w| w.count_ones() as usize).sum();
    }
    count
}

/// The calling thread's CPU affinity mask.
fn allowed_cpus() -> Option<[u64; CPU_SET_WORDS]> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    (rc == 0).then_some(allowed)
}

/// Linux clock ids (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // both clock ids are valid for the calling process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU consumed by every thread of this process, live or
/// exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU consumed by the calling thread. A thread parked on
/// a condvar accrues none, which is how a span splits busy from parked.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    proc_status("VmHWM:").unwrap_or(0)
}

/// OS threads alive in this process.
pub fn threads() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run, summed over CPUs, in seconds (`/proc/stat` steal,
/// counted in 100 Hz ticks).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Logical CPUs of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line naming the machine a wall-clock number was taken on, the
/// shard workers and the CPUs the run was pinned to.
pub fn describe(workers: usize, cpus: usize) -> String {
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" workers={workers} cpus={cpus}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Wall and CPU time of one timed `run_until_idle`, plus the set-up time
/// that preceded it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Process start to the start of the timed run.
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// OS threads alive as the run starts (main thread included).
    pub threads: u64,
}

/// Times `run` (one `run_until_idle`) against the process start `t0`.
pub fn timed<R>(t0: Instant, run: impl FnOnce() -> R) -> (R, Timed) {
    let setup_s = t0.elapsed().as_secs_f64();
    let threads = threads();
    let cpu0 = process_cpu_ns();
    let w0 = Instant::now();
    let out = run();
    let wall_s = w0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    (
        out,
        Timed {
            setup_s,
            wall_s,
            cpu_s,
            threads,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus_allowed() -> usize {
        allowed_cpus().map_or(0, |m| m.iter().map(|w| w.count_ones() as usize).sum())
    }

    #[test]
    fn pinning_holds_for_threads_created_afterwards() {
        std::thread::spawn(|| {
            assert_eq!(pin_cpus(1), 1);
            assert_eq!(cpus_allowed(), 1);
            let inherited = std::thread::spawn(cpus_allowed)
                .join()
                .expect("child thread");
            assert_eq!(inherited, 1);
        })
        .join()
        .expect("pinned thread");
    }
}
