//! What one workload run returns, and the public stats every workload
//! reads the same way.

use crate::host::Timed;
use crate::stats::Latency;
use spin_core::{Dispatcher, EventStats, QuotaSnapshot};
use spin_net::NetStack;
use spin_sal::MulticoreBoard;
use spin_sched::Multicore;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One run of one workload: a single set-up and a single timed
/// `run_until_idle`, then its books.
pub struct Outcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed: a connect error, a status other than 200/503, an
    /// unechoed packet, an unserved tenant raise. A failed book check
    /// fails every op of the run.
    pub failed: u64,
    /// Book checks that did not close, one line each.
    pub problems: Vec<String>,
    pub timed: Timed,
    /// The workload's virtual client latency.
    pub latency: Latency,
    /// Deterministic work counts and virtual outputs. Per-layer metrics
    /// read the shared keys; every key feeds the digest.
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    /// Order-stable FNV-1a digest of every virtual output.
    pub fn digest(&self) -> u64 {
        let l = &self.latency;
        let mut text = format!(
            "lat {} {} {} {} {} {};",
            l.count, l.p50, l.p99, l.max, l.sum, l.xor
        );
        for (k, v) in &self.counts {
            text.push_str(&format!("{k}={v};"));
        }
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// Reads a counter the run's strands and handlers bumped.
pub fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed) // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
}

/// Bumps a counter from a strand or handler.
pub fn bump(a: &AtomicU64) {
    a.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
}

/// Book checks: each failed one is recorded, none panics.
#[derive(Default)]
pub struct Books(pub Vec<String>);

impl Books {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// Counts keyed by name, summed on insert.
#[derive(Default)]
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    pub fn add(&mut self, key: &str, v: u64) {
        *self.0.entry(key.to_string()).or_default() += v;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Executor, shard barrier, mailbox and wire counters, plus each
    /// shard's final virtual clock.
    pub fn fabric(&mut self, mc: &Multicore, board: &MulticoreBoard) {
        for sh in mc.shards() {
            self.add("switches", sh.exec.switches());
            self.add(&format!("clock.{}", sh.host.id.0), sh.host.clock.now());
        }
        let st = mc.stats();
        self.add("epochs", st.epochs);
        self.add("shard_runs", st.shard_runs);
        self.add("mail_posted", st.mail_posted);
        self.add("mail_drained", st.mail_drained);
        self.add("mail_dropped", st.mail_dropped);
        for wire in [&board.ethernet, &board.atm, &board.t3] {
            let (delivered, dropped) = wire.stats();
            self.add("wire_frames", delivered);
            self.add("wire_dropped", dropped);
        }
    }

    pub fn event(&mut self, s: EventStats) {
        self.add("raises", s.raises);
        self.add("fast_path_raises", s.fast_path_raises);
        self.add("guard_evals", s.guard_evaluations);
        self.add("batched_raises", s.batched_raises);
        self.add("handler_faults", s.handler_faults);
    }

    /// A stack's frame counters and the dispatch stats of each of its
    /// protocol-graph events.
    pub fn stack(&mut self, stack: &NetStack, disp: &Dispatcher) {
        let n = stack.stats();
        self.add("net_frames", n.frames_in + n.frames_out);
        self.add("net_bytes", n.bytes_in + n.bytes_out);
        self.add("net_retries", n.retries);
        self.add("net_parse_errors", n.parse_errors);
        let ev = stack.events();
        let stats = [
            disp.stats(&ev.ether_arrived),
            disp.stats(&ev.atm_arrived),
            disp.stats(&ev.t3_arrived),
            disp.stats(&ev.ip_arrived),
            disp.stats(&ev.udp_arrived),
            disp.stats(&ev.tcp_arrived),
            disp.stats(&ev.icmp_arrived),
            disp.stats(&ev.net_ready),
        ];
        for s in stats {
            self.event(s.unwrap_or_default());
        }
        self.event(disp.stats(&ev.send_packet).unwrap_or_default());
    }

    pub fn quota(&mut self, q: &QuotaSnapshot) {
        self.add("quota_attempts", q.attempts);
        self.add("quota_admitted", q.admitted);
        self.add("quota_throttled", q.throttled);
        self.add("quota_shed", q.shed);
    }

    /// Strand threads alive as the timed run starts (all strands are
    /// spawned in set-up; the main thread is not one).
    pub fn strands(&mut self, timed: &Timed) {
        self.add("strands", timed.threads.saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(counts: &[(&str, u64)]) -> Outcome {
        Outcome {
            ops: 1,
            failed: 0,
            problems: Vec::new(),
            timed: Timed {
                setup_s: 0.0,
                wall_s: 0.0,
                cpu_s: 0.0,
                threads: 1,
            },
            latency: Latency::of(&[1, 2, 3]),
            counts: counts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn digest_covers_every_count_and_ignores_host_time() {
        let a = outcome(&[("epochs", 10), ("switches", 4)]);
        let mut b = outcome(&[("switches", 4), ("epochs", 10)]);
        b.timed.wall_s = 9.0;
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            a.digest(),
            outcome(&[("epochs", 11), ("switches", 4)]).digest()
        );
    }

    #[test]
    fn books_record_each_failed_check() {
        let mut books = Books::default();
        books.equal(3, 3, "same");
        books.equal(2, 3, "differs");
        books.check(false, || "custom".to_string());
        assert_eq!(books.0, vec!["differs: got 2, want 3", "custom"]);
    }
}
