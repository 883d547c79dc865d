//! Inter-shard mailboxes: the only channel between per-core kernel shards.
//!
//! In multicore mode every simulated host is a *shard* with its own clock
//! and timer queue. Anything that crosses shards — wire frames, cross-core
//! event raises, DSM coherence messages — is posted into the destination
//! shard's [`Mailbox`] with an absolute virtual delivery time, and drained
//! onto the destination's timer queue at the next conservative-PDES safe
//! point (see `spin_sched::Multicore`).
//!
//! Determinism does not come from the OS scheduler: entries are totally
//! ordered by `(deliver_at, lane, seq)`. The *lane* is derived from the
//! sender (wire lane base + source endpoint, or the cross-call base + the
//! sending host), so concurrent posts from different senders never share a
//! lane, and `seq` is a per-lane counter, so posts from one sender keep
//! their program order. The drain order is therefore a pure function of
//! virtual time, independent of which worker thread posted first.

use crate::clock::Nanos;
use spin_check::sync::{AtomicU64, Mutex, Ordering};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Disjoint lane namespaces: one base per traffic class, plus the sender's
/// endpoint/host number. Two senders (or two media) never share a lane.
pub mod lanes {
    /// Cross-core event raises (`Dispatcher::raise_on`): lane = base + the
    /// sending host id.
    pub const XCALL_BASE: u64 = 0x1_0000;
    /// Ethernet frames: lane = base + the source wire endpoint.
    pub const ETHERNET_BASE: u64 = 0x2_0000;
    /// ATM frames: lane = base + the source wire endpoint.
    pub const ATM_BASE: u64 = 0x3_0000;
    /// T3 frames: lane = base + the source wire endpoint.
    pub const T3_BASE: u64 = 0x4_0000;
    /// Control-plane actions (`Multicore::post_control` — hot-swap
    /// phases): lane = base + the target host id (one controller drives
    /// a target at a time).
    pub const CONTROL_BASE: u64 = 0x5_0000;
}

/// What a post hook decided about one envelope (deterministic fault
/// injection on the mailbox edge).
pub enum MailFate {
    /// Deliver at this (possibly shifted) virtual time.
    Deliver(Nanos),
    /// Drop the envelope on the floor.
    Drop,
}

/// A boxed delivery action: fired with the delivery time on the
/// destination shard.
pub type MailAction = Box<dyn FnOnce(Nanos) + Send>;
type PostHook = Box<dyn Fn(Nanos) -> MailFate + Send + Sync>;
/// Per-lane occupancy gate (kernel resource quotas): consulted on every
/// post with `(lane, entries already pending on that lane)`; returning
/// `false` refuses the post (counted as dropped). Absent, posts pay one
/// `Option` check and no occupancy bookkeeping happens.
type QuotaGate = Box<dyn Fn(u64, u64) -> bool + Send + Sync>;

/// A drained envelope: fire `action` at virtual time `deliver_at` on the
/// destination shard.
pub struct Envelope {
    pub deliver_at: Nanos,
    pub lane: u64,
    pub seq: u64,
    pub action: MailAction,
}

#[derive(Default)]
struct MailboxState {
    /// Total order `(deliver_at, lane, seq)` — see the module docs.
    entries: BTreeMap<(Nanos, u64, u64), MailAction>,
    /// Per-lane sequence counters (program order within one sender).
    lane_seq: HashMap<u64, u64>,
    hook: Option<PostHook>,
    /// Per-lane pending counts, maintained only while a quota gate is
    /// installed (the ungated path does no occupancy bookkeeping).
    lane_pending: HashMap<u64, u64>,
    quota_gate: Option<QuotaGate>,
}

/// One shard's inbound message queue.
#[derive(Clone, Default)]
pub struct Mailbox {
    state: Arc<Mutex<MailboxState>>,
    /// Pending-entry count mirrored outside the lock so the per-epoch
    /// emptiness probe is one atomic load.
    pending: Arc<AtomicU64>,
    posted: Arc<AtomicU64>,
    drained: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts `action` for delivery at `deliver_at` on the given lane.
    ///
    /// The lane must be owned by the posting context (one sender per lane);
    /// the per-lane sequence number then makes the total order independent
    /// of cross-sender races. Returns `false` if a post hook dropped the
    /// envelope.
    pub fn post(
        &self,
        deliver_at: Nanos,
        lane: u64,
        action: impl FnOnce(Nanos) + Send + 'static,
    ) -> bool {
        let mut st = self.state.lock();
        let accepted = self.post_locked(&mut st, deliver_at, lane, Box::new(action));
        if accepted {
            self.pending.fetch_add(1, Ordering::Release); // ordering: Release — pairs with the Acquire emptiness probe so a probe that sees the count also sees the entry under the lock.
            self.posted.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
        accepted
    }

    /// Posts a batch of envelopes under one lock acquisition.
    ///
    /// Per-envelope semantics — hook, quota gate, per-lane sequencing —
    /// are exactly those of N sequential [`Mailbox::post`] calls in slice
    /// order (both run the same per-envelope step); only the locking is
    /// amortized. Returns how many envelopes were accepted.
    pub fn post_batch(&self, entries: Vec<(Nanos, u64, MailAction)>) -> usize {
        if entries.is_empty() {
            return 0;
        }
        let mut st = self.state.lock();
        let accepted = entries
            .into_iter()
            .map(|(deliver_at, lane, action)| self.post_locked(&mut st, deliver_at, lane, action))
            .filter(|&ok| ok)
            .count() as u64;
        self.pending.fetch_add(accepted, Ordering::Release); // ordering: Release — pairs with the Acquire emptiness probe so a probe that sees the count also sees the entries under the lock.
        self.posted.fetch_add(accepted, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        accepted as usize
    }

    /// The per-envelope step of [`Mailbox::post`] and
    /// [`Mailbox::post_batch`], run under the state lock: the post hook
    /// (shift or drop), the quota gate (with its occupancy bookkeeping),
    /// the lane's sequence number, then the insert. Refusals count as
    /// dropped; the caller settles the pending/posted counters for
    /// accepted envelopes.
    fn post_locked(
        &self,
        st: &mut MailboxState,
        deliver_at: Nanos,
        lane: u64,
        action: MailAction,
    ) -> bool {
        let deliver_at = match st.hook.as_ref().map(|h| h(deliver_at)) {
            Some(MailFate::Drop) => {
                self.dropped.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                return false;
            }
            Some(MailFate::Deliver(at)) => at,
            None => deliver_at,
        };
        if let Some(gate) = st.quota_gate.as_ref() {
            let occupancy = st.lane_pending.get(&lane).copied().unwrap_or(0);
            if !gate(lane, occupancy) {
                self.dropped.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                return false;
            }
            *st.lane_pending.entry(lane).or_insert(0) += 1;
        }
        let seq = st.lane_seq.entry(lane).or_insert(0);
        let key = (deliver_at, lane, *seq);
        *seq += 1;
        st.entries.insert(key, action);
        true
    }

    /// Earliest pending delivery time, if any. Fast path: one atomic load
    /// when the mailbox is empty.
    pub fn next_deadline(&self) -> Option<Nanos> {
        // ordering: Acquire — pairs with the Release in `post` so a non-zero count is followed by a consistent read under the lock.
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.state
            .lock()
            .entries
            .keys()
            .next()
            .map(|&(at, _, _)| at)
    }

    /// Drains every pending envelope in `(deliver_at, lane, seq)` order.
    ///
    /// Called by the shard loop at an epoch boundary; the caller schedules
    /// each envelope on the local timer queue (scheduling in ascending
    /// order preserves the total order for equal deadlines, because timer
    /// ids break ties FIFO).
    pub fn drain(&self) -> Vec<Envelope> {
        // ordering: Acquire — pairs with the Release in `post`; an empty probe means nothing to drain.
        if self.pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut st = self.state.lock();
        let out: Vec<Envelope> = std::mem::take(&mut st.entries)
            .into_iter()
            .map(|((deliver_at, lane, seq), action)| Envelope {
                deliver_at,
                lane,
                seq,
                action,
            })
            .collect();
        st.lane_pending.clear();
        self.pending.store(0, Ordering::Release); // ordering: Release — the drain emptied the queue under the lock; publish before the next probe.
        self.drained.fetch_add(out.len() as u64, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        out
    }

    /// Removes every pending envelope on `lane` (domain quarantine: a
    /// misbehaving sender's in-flight traffic is purged with it). Returns
    /// how many envelopes were discarded.
    pub fn purge_lane(&self, lane: u64) -> usize {
        let mut st = self.state.lock();
        let keys: Vec<(Nanos, u64, u64)> = st
            .entries
            .keys()
            .filter(|&&(_, l, _)| l == lane)
            .copied()
            .collect();
        for k in &keys {
            st.entries.remove(k);
        }
        st.lane_pending.remove(&lane);
        self.pending.fetch_sub(keys.len() as u64, Ordering::Release); // ordering: Release — keep the mirrored count consistent with the entries removed under the lock.
        self.dropped.fetch_add(keys.len() as u64, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        keys.len()
    }

    /// Installs a post hook (deterministic fault injection on the mailbox
    /// edge): the hook may shift or drop each envelope.
    pub fn set_post_hook(&self, hook: impl Fn(Nanos) -> MailFate + Send + Sync + 'static) {
        self.state.lock().hook = Some(Box::new(hook));
    }

    /// Installs the per-lane occupancy gate (kernel resource quotas): the
    /// gate sees `(lane, entries already pending on that lane)` and
    /// returning `false` refuses the post, which is counted as dropped.
    /// Occupancy bookkeeping starts here — current entries are counted in
    /// under the lock, so the gate's view is exact from the first post.
    pub fn set_quota_gate(&self, gate: impl Fn(u64, u64) -> bool + Send + Sync + 'static) {
        let mut st = self.state.lock();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &(_, lane, _) in st.entries.keys() {
            *counts.entry(lane).or_insert(0) += 1;
        }
        st.lane_pending = counts;
        st.quota_gate = Some(Box::new(gate));
    }

    /// Entries currently pending on `lane`. With a quota gate installed
    /// this is the gate's own occupancy count; without one it is computed
    /// by scanning (cold path, used by sender-side backpressure probes).
    pub fn lane_pending(&self, lane: u64) -> u64 {
        let st = self.state.lock();
        if st.quota_gate.is_some() {
            st.lane_pending.get(&lane).copied().unwrap_or(0)
        } else {
            st.entries.keys().filter(|&&(_, l, _)| l == lane).count() as u64
        }
    }

    /// Number of pending envelopes.
    pub fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire) as usize // ordering: Acquire — pairs with the Release in `post`/`drain`.
    }

    /// Whether the mailbox is empty (one atomic load).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (posted, drained, dropped) envelope counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.posted.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            self.drained.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            self.dropped.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_lane_seq_order() {
        let mb = Mailbox::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let tag = |s: &'static str| {
            let log = log.clone();
            move |_now: Nanos| log.lock().push(s)
        };
        // Same time, different lanes; same lane, later seq; earlier time.
        mb.post(500, 7, tag("t500/l7"));
        mb.post(500, 2, tag("t500/l2#0"));
        mb.post(500, 2, tag("t500/l2#1"));
        mb.post(100, 9, tag("t100/l9"));
        assert_eq!(mb.next_deadline(), Some(100));
        let envs = mb.drain();
        for e in envs {
            (e.action)(e.deliver_at);
        }
        assert_eq!(
            *log.lock(),
            vec!["t100/l9", "t500/l2#0", "t500/l2#1", "t500/l7"]
        );
        assert!(mb.is_empty());
        assert_eq!(mb.stats(), (4, 4, 0));
    }

    #[test]
    fn purge_lane_discards_only_that_sender() {
        let mb = Mailbox::new();
        mb.post(10, 1, |_| {});
        mb.post(20, 2, |_| {});
        mb.post(30, 1, |_| {});
        assert_eq!(mb.purge_lane(1), 2);
        assert_eq!(mb.len(), 1);
        let envs = mb.drain();
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].lane, 2);
        assert_eq!(mb.stats(), (3, 1, 2));
    }

    #[test]
    fn post_hook_shifts_and_drops() {
        let mb = Mailbox::new();
        mb.set_post_hook(|at| {
            if at < 100 {
                MailFate::Drop
            } else {
                MailFate::Deliver(at + 1_000)
            }
        });
        assert!(!mb.post(50, 0, |_| {}));
        assert!(mb.post(200, 0, |_| {}));
        assert_eq!(mb.next_deadline(), Some(1_200));
        assert_eq!(mb.stats(), (1, 0, 1));
    }

    #[test]
    fn quota_gate_bounds_lane_occupancy_exactly() {
        let mb = Mailbox::new();
        mb.post(5, 3, |_| {}); // pre-gate entry is counted in
        mb.set_quota_gate(|lane, pending| lane != 3 || pending < 2);
        assert_eq!(mb.lane_pending(3), 1);
        assert!(mb.post(10, 3, |_| {}));
        assert!(!mb.post(20, 3, |_| {}), "lane 3 at its bound");
        assert!(mb.post(20, 4, |_| {}), "other lanes unmetered");
        assert_eq!(mb.lane_pending(3), 2);
        assert_eq!(mb.stats(), (3, 0, 1));
        // Draining releases the occupancy; purging a lane clears its count.
        let _ = mb.drain();
        assert_eq!(mb.lane_pending(3), 0);
        assert!(mb.post(30, 3, |_| {}));
        assert!(mb.post(40, 3, |_| {}));
        assert_eq!(mb.purge_lane(3), 2);
        assert!(mb.post(50, 3, |_| {}));
    }

    #[test]
    fn post_batch_drains_identically_to_sequential_posts() {
        let log_a = Arc::new(Mutex::new(Vec::new()));
        let log_b = Arc::new(Mutex::new(Vec::new()));
        let tag = |log: &Arc<Mutex<Vec<&'static str>>>, s: &'static str| {
            let log = log.clone();
            move |_now: Nanos| log.lock().push(s)
        };
        // Interleaved lanes, ties on deliver_at, out-of-order times.
        let seq = [
            (500u64, 7u64, "t500/l7"),
            (500, 2, "t500/l2#0"),
            (500, 2, "t500/l2#1"),
            (100, 9, "t100/l9"),
            (100, 2, "t100/l2"),
        ];
        let a = Mailbox::new();
        for (at, lane, s) in seq {
            a.post(at, lane, tag(&log_a, s));
        }
        let b = Mailbox::new();
        b.post_batch(
            seq.iter()
                .map(|&(at, lane, s)| (at, lane, Box::new(tag(&log_b, s)) as MailAction))
                .collect(),
        );
        for mb in [&a, &b] {
            for e in mb.drain() {
                (e.action)(e.deliver_at);
            }
        }
        assert_eq!(*log_a.lock(), *log_b.lock());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn post_batch_respects_hook_and_gate() {
        let mb = Mailbox::new();
        mb.set_post_hook(|at| {
            if at < 100 {
                MailFate::Drop
            } else {
                MailFate::Deliver(at)
            }
        });
        mb.set_quota_gate(|lane, pending| lane != 3 || pending < 1);
        let accepted = mb.post_batch(vec![
            (50, 1, Box::new(|_| {}) as MailAction), // hook drops
            (200, 3, Box::new(|_| {}) as MailAction),
            (300, 3, Box::new(|_| {}) as MailAction), // gate refuses
            (400, 4, Box::new(|_| {}) as MailAction),
        ]);
        assert_eq!(accepted, 2);
        assert_eq!(mb.stats(), (2, 0, 2));
    }

    #[test]
    fn empty_probe_is_cheap_and_correct() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        assert_eq!(mb.next_deadline(), None);
        assert!(mb.drain().is_empty());
        mb.post(1, 0, |_| {});
        assert!(!mb.is_empty());
    }
}
