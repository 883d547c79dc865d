//! The harness shared by the multicore storm binaries (s7–s10): shard
//! construction, the deterministic mixer, the latency digest, the
//! quota-ledger reconciliation, and the 1/2/4-worker sweep that enforces
//! the barrier's determinism contract.

use spin_core::{Dispatcher, QuotaSnapshot};
use spin_net::{AddressMap, IpAddr, NetStack};
use spin_sal::{Host, MulticoreBoard, Nanos};
use spin_sched::{Executor, Multicore};
use std::fmt::Debug;
use std::sync::Arc;

/// Worker counts every storm is swept at.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Adds a kernel shard to `mc`: a 256-page host with its own executor and
/// barrier-wired dispatcher, and a net stack at `10.m.subnet.n` on each
/// medium m (0 Ethernet, 1 ATM, 2 T3).
pub fn shard_stack(
    board: &MulticoreBoard,
    mc: &mut Multicore,
    addrs: &AddressMap,
    subnet: u8,
    n: u8,
) -> (Host, Arc<Executor>, NetStack) {
    let host = board.new_host(256);
    let exec = mc.add_host(host.clone());
    let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
    mc.wire_dispatcher(&disp, host.id);
    let stack = NetStack::install(
        &host,
        &exec,
        &disp,
        addrs,
        IpAddr::new(10, 0, subnet, n),
        IpAddr::new(10, 1, subnet, n),
        IpAddr::new(10, 2, subnet, n),
    );
    (host, exec, stack)
}

/// splitmix64 — deterministic heavy-tail draws and order-independent
/// checksums.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-independent digest plus the percentiles of one latency stream.
#[derive(Debug, PartialEq, Eq)]
pub struct LatencyDigest {
    pub count: u64,
    pub sum: Nanos,
    pub xor: u64,
    pub p50: Nanos,
    pub p99: Nanos,
    pub max: Nanos,
}

/// Digests a latency stream. Percentile `p` is the sorted sample at
/// index `len * p / 100`, clamped to the last; an empty stream is all
/// zeros.
pub fn digest(latencies: &[Nanos]) -> LatencyDigest {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let pct = |p: usize| -> Nanos {
        if sorted.is_empty() {
            0
        } else {
            sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
        }
    };
    LatencyDigest {
        count: latencies.len() as u64,
        sum: latencies.iter().sum(),
        xor: latencies.iter().fold(0, |acc, &l| acc ^ mix(l)),
        p50: pct(50),
        p99: pct(99),
        max: pct(100),
    }
}

/// Asserts one quota cell's books close exactly once a run is idle:
/// every attempt was admitted, throttled, shed or held, and every
/// admission completed.
pub fn assert_books_close(name: &str, s: &QuotaSnapshot) {
    assert_eq!(
        s.attempts,
        s.admitted + s.throttled + s.shed + s.held,
        "{name}: the ledger identity must close"
    );
    assert_eq!(s.in_flight, 0, "{name}: nothing left in flight at exit");
    assert_eq!(s.admitted, s.completed, "{name}: every admission completed");
}

/// Runs `run` at 1, 2 and 4 workers and asserts every run's virtual
/// outputs equal the 1-worker run's: only the wall clock may move. `run`
/// returns the virtual outputs and the wall-clock milliseconds to report;
/// the wall clocks are printed as one `wall-clock (label)` line. Returns
/// `(workers, outputs, wall ms)` per run, 1 worker first.
pub fn sweep_workers<V: PartialEq + Debug>(
    label: &str,
    mut run: impl FnMut(usize) -> (V, f64),
) -> Vec<(usize, V, f64)> {
    let runs: Vec<(usize, V, f64)> = WORKERS
        .iter()
        .map(|&w| {
            let (virt, wall_ms) = run(w);
            (w, virt, wall_ms)
        })
        .collect();
    for (w, virt, _) in &runs[1..] {
        assert_eq!(
            *virt, runs[0].1,
            "virtual outputs diverged at {w} workers — the barrier is broken"
        );
    }
    let walls: Vec<String> = runs
        .iter()
        .map(|(w, _, ms)| format!("{w}w {ms:.1}ms"))
        .collect();
    println!("wall-clock ({label}): {}", walls.join(", "));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_nothing_is_all_zeros() {
        let d = digest(&[]);
        assert_eq!(
            d,
            LatencyDigest {
                count: 0,
                sum: 0,
                xor: 0,
                p50: 0,
                p99: 0,
                max: 0,
            }
        );
    }

    #[test]
    fn digest_of_one_sample_is_that_sample() {
        let d = digest(&[42]);
        assert_eq!((d.count, d.sum, d.xor), (1, 42, mix(42)));
        assert_eq!((d.p50, d.p99, d.max), (42, 42, 42));
    }

    #[test]
    fn digest_pins_the_percentile_index_rule_and_checksum() {
        // 1..=100 in scrambled order: p50 is index 50 (the value 51), p99
        // index 99 (100), max the clamped last index.
        let samples: Vec<Nanos> = (1..=100u64).map(|i| (i * 37) % 101).collect();
        let d = digest(&samples);
        assert_eq!(d.count, 100);
        assert_eq!(d.sum, 5050);
        assert_eq!((d.p50, d.p99, d.max), (51, 100, 100));
        let xor = (1..=100u64).fold(0, |acc, l| acc ^ mix(l));
        assert_eq!(d.xor, xor, "the checksum is order-independent");
    }

    #[test]
    fn sweep_returns_every_worker_count_in_order() {
        let runs = sweep_workers("test", |_w| (7u64, 0.0));
        let workers: Vec<usize> = runs.iter().map(|(w, _, _)| *w).collect();
        assert_eq!(workers, WORKERS);
        assert!(runs.iter().all(|(_, v, _)| *v == 7));
    }

    #[test]
    #[should_panic(expected = "diverged at")]
    fn sweep_rejects_worker_dependent_outputs() {
        sweep_workers("test", |w| (w, 0.0));
    }
}
