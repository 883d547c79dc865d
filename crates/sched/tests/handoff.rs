//! Strand-to-strand handoff: a strand that gives up the processor runs
//! the scheduler's turn itself. These tests pin what that must not change
//! — panics in pumped code still unwind out of `run_until_idle` on the
//! caller's thread, a strand that picks itself again is charged exactly
//! one switch, and the Strand interface events keep their order.

use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_sal::{IrqVector, MulticoreBoard, SimBoard};
use spin_sched::{Executor, IdleOutcome, Multicore, StrandEvents, StrandId, StrandRef};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::ThreadId;

/// The thread a pumped callback ran on, recorded so a test can show the
/// panic started away from the caller's thread.
type Where = Arc<Mutex<Option<ThreadId>>>;

fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Two strands taking turns in 10 µs slices: the pump between slices runs
/// on whichever strand just yielded.
fn spawn_workers(exec: &Arc<Executor>) -> Vec<StrandId> {
    ["left", "right"]
        .into_iter()
        .map(|name| {
            exec.spawn(name, |ctx| {
                for _ in 0..20 {
                    ctx.work(10_000);
                    ctx.yield_now();
                }
            })
        })
        .collect()
}

/// Arms a timer that panics 55 µs in — mid-run, between two slices.
fn arm_panicking_timer(exec: &Arc<Executor>, at: &Where) {
    let at = at.clone();
    exec.timers().schedule_at(55_000, move |_| {
        *at.lock() = Some(std::thread::current().id());
        panic!("timer callback fault");
    });
}

/// Registers a panicking handler on `host`'s interrupt controller and a
/// strand that posts the interrupt mid-run, then yields.
fn arm_panicking_irq(exec: &Arc<Executor>, irqs: &spin_sal::IrqController, at: &Where) {
    let at = at.clone();
    irqs.register(IrqVector(3), move || {
        *at.lock() = Some(std::thread::current().id());
        panic!("irq handler fault");
    });
    let irqs = irqs.clone();
    exec.spawn("poster", move |ctx| {
        ctx.work(55_000);
        irqs.post(IrqVector(3));
        ctx.yield_now();
    });
}

/// Runs `run`, which must panic with `expected` from pumped code — on
/// another thread when `elsewhere` — and checks the panic reached this
/// thread with no strand blamed for it.
fn assert_forwarded(
    run: impl FnOnce() -> IdleOutcome,
    expected: &str,
    at: &Where,
    elsewhere: bool,
    execs: &[Arc<Executor>],
    strands: &[(usize, StrandId)],
) {
    let caller = std::thread::current().id();
    let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the pumped panic unwinds");
    assert_eq!(std::thread::current().id(), caller);
    assert_eq!(message(payload), expected);
    let ran_on = at.lock().expect("the faulty callback ran");
    if elsewhere {
        assert_ne!(ran_on, caller, "the panic started on another thread");
    }
    for &(shard, id) in strands {
        assert!(!execs[shard].panicked(id), "strand {id:?} was blamed");
        assert!(!execs[shard].is_done(id), "the run stopped mid-way");
    }
}

#[test]
fn timer_panic_unwinds_out_of_executor_run() {
    let exec = Executor::for_host(&SimBoard::new().new_host(16));
    let strands: Vec<_> = spawn_workers(&exec).into_iter().map(|s| (0, s)).collect();
    let at = Where::default();
    arm_panicking_timer(&exec, &at);
    let e = exec.clone();
    assert_forwarded(
        move || e.run_until_idle(),
        "timer callback fault",
        &at,
        true,
        &[exec],
        &strands,
    );
}

#[test]
fn irq_panic_unwinds_out_of_executor_run() {
    let host = SimBoard::new().new_host(16);
    let exec = Executor::for_host(&host);
    let strands: Vec<_> = spawn_workers(&exec).into_iter().map(|s| (0, s)).collect();
    let at = Where::default();
    arm_panicking_irq(&exec, &host.irqs, &at);
    let e = exec.clone();
    assert_forwarded(
        move || e.run_until_idle(),
        "irq handler fault",
        &at,
        true,
        &[exec],
        &strands,
    );
}

/// Two busy shards with the fault armed on shard 1. At one worker it
/// fires on a strand's thread; at two, the timer fires on the second
/// worker's side and the interrupt in a single-shard epoch, which the
/// caller's thread runs itself.
fn multicore_fault(workers: usize, irq: bool) {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(workers, board.lookahead());
    let hosts: Vec<_> = (0..2).map(|_| board.new_host(16)).collect();
    let execs: Vec<_> = hosts.iter().map(|h| mc.add_host(h.clone())).collect();
    let mut strands = Vec::new();
    for (shard, exec) in execs.iter().enumerate() {
        strands.extend(spawn_workers(exec).into_iter().map(|s| (shard, s)));
    }
    let at = Where::default();
    let expected = if irq {
        arm_panicking_irq(&execs[1], &hosts[1].irqs, &at);
        "irq handler fault"
    } else {
        arm_panicking_timer(&execs[1], &at);
        "timer callback fault"
    };
    assert_forwarded(
        || mc.run_until_idle(),
        expected,
        &at,
        workers == 1 || !irq,
        &execs,
        &strands,
    );
}

#[test]
fn timer_panic_unwinds_out_of_multicore_run_at_one_and_two_workers() {
    multicore_fault(1, false);
    multicore_fault(2, false);
}

#[test]
fn irq_panic_unwinds_out_of_multicore_run_at_one_and_two_workers() {
    multicore_fault(1, true);
    multicore_fault(2, true);
}

/// A strand's own panic stays contained, even when the pumped code around
/// it runs on strand threads.
#[test]
fn strand_panics_stay_contained() {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(2, board.lookahead());
    let execs: Vec<_> = (0..2).map(|_| mc.add_host(board.new_host(16))).collect();
    spawn_workers(&execs[0]);
    let bad = execs[1].spawn("bad", |ctx| {
        ctx.work(30_000);
        ctx.yield_now();
        panic!("extension bug");
    });
    assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
    assert!(execs[1].panicked(bad));
}

/// The only ready strand yields: it is picked again at once, yet the
/// switch is counted and charged exactly as any other.
#[test]
fn sole_ready_strand_is_repicked_for_one_charged_switch() {
    let exec = Executor::for_host(&SimBoard::new().new_host(16));
    let profile = exec.profile().clone();
    let seen = Arc::new(Mutex::new(None));
    let s = seen.clone();
    let e = exec.clone();
    let solo = exec.spawn("solo", move |ctx| {
        ctx.work(1_000);
        let (t0, n0) = (e.clock().now(), e.switches());
        ctx.yield_now();
        *s.lock() = Some((e.clock().now() - t0, e.switches() - n0));
    });
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    assert!(!exec.panicked(solo));
    assert_eq!(
        *seen.lock(),
        Some((profile.sched_decision + profile.context_switch, 1))
    );
    assert_eq!(exec.switches(), 2);
}

/// The Strand interface events, in order, for a run mixing block,
/// unblock, a self-repick and two finishes.
#[test]
fn strand_events_keep_their_order() {
    let host = SimBoard::new().new_host(16);
    let exec = Executor::for_host(&host);
    let disp = spin_core::Dispatcher::new(host.clock.clone(), host.profile.clone());
    let events = StrandEvents::attach(&exec, &disp);
    let log = Arc::new(Mutex::new(Vec::new()));
    for (kind, ev) in [
        ("block", &events.block),
        ("unblock", &events.unblock),
        ("checkpoint", &events.checkpoint),
        ("resume", &events.resume),
    ] {
        let log = log.clone();
        ev.install(Identity::extension("observer"), move |s: &StrandRef| {
            log.lock().push((kind, (s.0).0));
        })
        .expect("observer installs");
    }
    let sleeper = exec.spawn("sleeper", |ctx| ctx.block());
    let e = exec.clone();
    let solo = exec.spawn("solo", move |ctx| {
        ctx.yield_now(); // the only ready strand: picked again
        e.unblock(sleeper);
        ctx.yield_now();
    });
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    let (a, b) = (sleeper.0, solo.0);
    assert_eq!(
        *log.lock(),
        vec![
            ("resume", a),
            ("block", a),
            ("checkpoint", a),
            ("resume", b),
            ("checkpoint", b),
            ("resume", b),
            ("unblock", a),
            ("checkpoint", b),
            ("resume", a),
            ("checkpoint", a),
            ("resume", b),
            ("checkpoint", b),
        ]
    );
    assert_eq!(exec.switches(), 5);
}
