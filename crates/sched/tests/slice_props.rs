//! Per-slice CPU accounting. The executor bills a strand the clock's
//! advance over each slice it holds the processor, instead of subscribing
//! to every charge. These tests check that against the per-charge
//! definition — an advance hook that credits each charge to the strand
//! current at charge time — and pin the edges: the quantum boundary, the
//! charges no strand is billed for, and a clock with no subscriber.

use proptest::prelude::*;
use spin_check::sync::Mutex;
use spin_core::{Dispatcher, Identity};
use spin_sal::{HostId, IrqVector, Nanos, SimBoard};
use spin_sched::{Executor, IdleOutcome, StrandCtx, StrandEvents, StrandId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One step of a strand body.
#[derive(Debug, Clone)]
enum Op {
    Work(Nanos),
    Yield,
    Sleep(Nanos),
    /// Blocks until a timer unblocks this strand `.0` ns later (or someone
    /// unblocks it first).
    Block(Nanos),
    /// Unblocks strand `n % strands` (a no-op unless it is blocked).
    Unblock(usize),
    /// Joins strand `n % i` for strand `i` (strand 0 skips): joins only
    /// point at earlier strands, so they cannot form a cycle.
    Join(usize),
    PreemptPoint,
    /// Reads this strand's `cpu_time` and its host's `host_busy` mid-slice.
    Read,
}

fn op() -> impl Strategy<Value = Op> {
    // Work and safe points are listed twice to weight them up.
    prop_oneof![
        (1u64..60_000).prop_map(Op::Work),
        (1u64..60_000).prop_map(Op::Work),
        Just(Op::Yield),
        (1u64..40_000).prop_map(Op::Sleep),
        (1u64..40_000).prop_map(Op::Block),
        (0usize..4).prop_map(Op::Unblock),
        (0usize..4).prop_map(Op::Join),
        Just(Op::PreemptPoint),
        Just(Op::PreemptPoint),
        Just(Op::Read),
    ]
}

/// A strand's host (0 or 1) and body.
type Spec = (u32, Vec<Op>);

fn spec() -> impl Strategy<Value = Spec> {
    (0u32..2, prop::collection::vec(op(), 1..12))
}

/// The per-charge books: each charge credited to the strand current when
/// it was made, and to that strand's host.
#[derive(Default, Debug)]
struct Oracle {
    host_of: BTreeMap<StrandId, HostId>,
    cpu: BTreeMap<StrandId, Nanos>,
    busy: BTreeMap<HostId, Nanos>,
}

impl Oracle {
    fn cpu(&self, id: StrandId) -> Nanos {
        self.cpu.get(&id).copied().unwrap_or(0)
    }
    fn busy(&self, host: HostId) -> Nanos {
        self.busy.get(&host).copied().unwrap_or(0)
    }
}

/// An executor on a fresh board, with the oracle subscribed to its clock.
fn rig() -> (Arc<Executor>, Arc<Mutex<Oracle>>) {
    let board = SimBoard::new();
    let exec = Executor::new(
        board.clock.clone(),
        board.timers.clone(),
        board.profile.clone(),
    );
    let oracle = Arc::new(Mutex::new(Oracle::default()));
    let (weak, books) = (Arc::downgrade(&exec), oracle.clone());
    board.clock.add_advance_hook(Box::new(move |ns| {
        let Some(cur) = weak.upgrade().and_then(|e| e.current()) else {
            return;
        };
        let mut o = books.lock();
        let host = o.host_of[&cur];
        *o.cpu.entry(cur).or_insert(0) += ns;
        *o.busy.entry(host).or_insert(0) += ns;
    }));
    (exec, oracle)
}

/// `(strand, slice accounting, per-charge oracle)` for each mid-slice read.
type Reads = Vec<(StrandId, (Nanos, Nanos), (Nanos, Nanos))>;

fn body(
    ctx: &StrandCtx,
    i: usize,
    ids: &[StrandId],
    ops: &[Op],
    oracle: &Mutex<Oracle>,
    reads: &Mutex<Reads>,
) {
    let exec = ctx.executor().clone();
    let me = ctx.id();
    for op in ops {
        match *op {
            Op::Work(ns) => ctx.work(ns),
            Op::Yield => ctx.yield_now(),
            Op::Sleep(ns) => ctx.sleep(ns),
            Op::Block(ns) => {
                let e = exec.clone();
                let at = exec.clock().now() + ns;
                exec.timers().schedule_at(at, move |_| e.unblock(me));
                ctx.block();
            }
            Op::Unblock(n) => exec.unblock(ids[n % ids.len()]),
            Op::Join(n) if i > 0 => ctx.join(ids[n % i]),
            Op::Join(_) => {}
            Op::PreemptPoint => ctx.preempt_point(),
            Op::Read => {
                let host = oracle.lock().host_of[&me];
                let got = (exec.cpu_time(me), exec.host_busy(host));
                let o = oracle.lock();
                let want = (o.cpu(me), o.busy(host));
                reads.lock().push((me, got, want));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-slice accounting equals per-charge accounting: per strand and
    /// per host, at the end of the run and at every mid-slice read.
    #[test]
    fn slice_accounting_matches_per_charge(
        specs in prop::collection::vec(spec(), 1..5),
        quantum in 1_000u64..120_000,
        events in any::<bool>(),
    ) {
        let (exec, oracle) = rig();
        exec.set_quantum(quantum);
        if events {
            // Block/Unblock raises are charged inside the slice,
            // Checkpoint/Resume raises outside it.
            let disp = Dispatcher::new(exec.clock().clone(), exec.profile().clone());
            StrandEvents::attach(&exec, &disp);
        }
        let reads: Arc<Mutex<Reads>> = Arc::default();
        let ids: Arc<Mutex<Vec<StrandId>>> = Arc::default();
        for (i, (host, ops)) in specs.iter().cloned().enumerate() {
            let (o, r, all) = (oracle.clone(), reads.clone(), ids.clone());
            let id = exec.spawn_on(HostId(host), &format!("s{i}"), 8, move |ctx| {
                let all = all.lock().clone();
                body(ctx, i, &all, &ops, &o, &r);
            });
            ids.lock().push(id);
            oracle.lock().host_of.insert(id, HostId(host));
        }
        prop_assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);

        for (me, got, want) in reads.lock().iter() {
            prop_assert_eq!(got, want, "mid-slice read by {:?}", me);
        }
        let o = oracle.lock();
        for &id in ids.lock().iter() {
            prop_assert_eq!(exec.cpu_time(id), o.cpu(id), "cpu_time of {:?}", id);
        }
        for h in 0..2 {
            prop_assert_eq!(exec.host_busy(HostId(h)), o.busy(HostId(h)), "host_busy of {}", h);
        }
    }
}

/// A slice of exactly the quantum keeps the processor; one nanosecond
/// more is preempted at the next safe point.
#[test]
fn quantum_boundary_is_strict() {
    let exec = Executor::for_host(&SimBoard::new().new_host(16));
    let quantum = 10_000;
    exec.set_quantum(quantum);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    exec.spawn("hog", move |ctx| {
        ctx.work(quantum);
        ctx.preempt_point();
        l.lock().push("exact");
        ctx.work(1);
        ctx.preempt_point();
        l.lock().push("over");
    });
    let l = log.clone();
    exec.spawn("other", move |_| l.lock().push("other"));
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    assert_eq!(*log.lock(), vec!["exact", "other", "over"]);
}

/// Timer callbacks, interrupt handlers, the switch and the Resume hook run
/// with no strand current: their charges move the clock but are billed to
/// no strand and no host.
#[test]
fn charges_outside_a_slice_are_billed_to_no_strand() {
    let host = SimBoard::new().new_host(16);
    let exec = Executor::for_host(&host);
    let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
    let events = StrandEvents::attach(&exec, &disp);
    let clock = host.clock.clone();
    events
        .resume
        .install(Identity::extension("resume"), move |_| clock.advance(5_000))
        .expect("resume handler installs");
    let clock = host.clock.clone();
    exec.timers()
        .schedule_at(500, move |_| clock.advance(7_000));
    let clock = host.clock.clone();
    host.irqs
        .register(IrqVector(3), move || clock.advance(3_000));
    let irqs = host.irqs.clone();
    let s = exec.spawn("worker", move |ctx| {
        ctx.work(1_000);
        irqs.post(IrqVector(3));
        ctx.yield_now(); // the pump fires the timer and the interrupt
        ctx.work(2_000);
    });
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    assert_eq!(exec.cpu_time(s), 3_000);
    assert_eq!(exec.host_busy(HostId(0)), 3_000);
    let outside = 2 * (5_000 + host.profile.sched_decision + host.profile.context_switch);
    assert!(host.clock.now() >= 3_000 + 7_000 + 3_000 + outside);
}

/// Without obs nothing subscribes to the clock, so charge-coalescing
/// paths may coalesce; wiring obs subscribes its CPU counter.
#[test]
fn only_obs_makes_charges_observed() {
    let host = SimBoard::new().new_host(16);
    let exec = Executor::for_host(&host);
    exec.spawn("worker", |ctx| {
        ctx.work(1_000);
        ctx.yield_now();
    });
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    assert!(!host.clock.charges_observed());

    let obs = spin_obs::Obs::new(16);
    let sched = obs.domain("sched");
    exec.set_obs(sched.clone());
    assert!(host.clock.charges_observed());
    let before = host.clock.now();
    exec.spawn("worker", |ctx| ctx.work(1_000));
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    let counted = sched
        .counters
        .cpu_ns
        .load(spin_check::sync::Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    assert_eq!(
        counted,
        host.clock.now() - before,
        "obs counts every charge"
    );
}
