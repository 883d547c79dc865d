//! `overload`: S9's armed storm, lengthened to seconds of virtual time.
//!
//! Shard 0 hosts the server dispatcher. Nine tenant shards, a greedy
//! flooder and a slowloris raise against its per-domain events over the
//! cross-shard mailboxes, and every domain is metered by a `QuotaCell`:
//! the greedy domain walks throttle → shed → quarantine, the supervisor
//! pump fallback-swaps it to a degraded build, the slowloris is held to
//! its window budget, a greedy strand on the server shard is demoted to
//! the deferred lane, and a greedy bulk-mail burst meets the mailbox
//! occupancy gate. There is no network stack. One op is one raise
//! attempted. The seed varies the tenants' inter-arrival gaps; seed 0 is
//! S9's own draw.

use crate::gen::{mix, salt};
use crate::host::timed;
use crate::stats::Latency;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{bump, load, Books, Counts, Outcome};
use parking_lot::Mutex;
use spin_core::{
    post_with_backpressure, BackoffPolicy, Constraints, Containment, ContainmentPolicy, Dispatcher,
    Identity, InstallSpec, PostOutcome, QuotaLedger, QuotaSpec,
};
use spin_sal::{MulticoreBoard, Nanos};
use spin_sched::{IdleOutcome, Multicore};
use spin_swap::{SwapCoordinator, SwapSupervisor, UndoAction};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const WORKERS: usize = 1;
const TENANTS: usize = 9;
/// S9 runs 200 tenant raises, 2,500 greedy and 150 slowloris raises over
/// ~50 ms of virtual time; this run is forty times longer.
const LENGTH: u64 = 40;
const TENANT_REQS: u64 = 200 * LENGTH;
const TENANT_WORK: Nanos = 8_000;
const GREEDY_REQS: u64 = 2_500 * LENGTH;
const GREEDY_GAP: Nanos = 20_000;
const GREEDY_WORK: Nanos = 25_000;
const DEGRADED_WORK: Nanos = 1_000;
const SLOW_REQS: u64 = 150 * LENGTH;
const SLOW_GAP: Nanos = 250_000;
const SLOW_WORK: Nanos = 900_000;
const WINDOW: Nanos = 10_000_000;
const GREEDY_BUDGET: Nanos = 1_000_000;
const GREEDY_SHED_AFTER: u32 = 40;
const GREEDY_QUARANTINE_AFTER: u32 = 150;
const SLOW_BUDGET: Nanos = 1_500_000;
const TENANT_BUDGET: Nanos = 8_000_000;
const T_PUMP: Nanos = 30_000_000;
const STRAND_START: Nanos = 5_000_000;
const STRAND_CHUNKS: u64 = 120;
const STRAND_CHUNK: Nanos = 20_000;
const BULK_POSTS: u32 = 12;
const BULK_LANE: u64 = 0x9_0000;
const BULK_GAP: Nanos = 10_000;

/// Heavy-tailed tenant inter-arrival gap: mostly 100–184 µs, one in
/// sixteen a 1.2 ms pause.
fn tenant_gap(key: u64) -> Nanos {
    let x = mix(key);
    if x.is_multiple_of(16) {
        1_200_000
    } else {
        100_000 + (x % 8) * 12_000
    }
}

fn tenant_plan(seed: u64, tenant: usize) -> Vec<Nanos> {
    let salt = salt(seed);
    (0..TENANT_REQS)
        .map(|i| tenant_gap(((tenant as u64) * 1_000_003 + i) ^ salt))
        .collect()
}

pub fn run(seed: u64, tr: &Tracer, t0: Instant) -> Outcome {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(WORKERS, board.lookahead());

    // Shard 0: the server. 1..=9: tenants. 10: greedy. 11: slowloris.
    let mut shards = Vec::new();
    for _ in 0..(TENANTS + 3) {
        let host = board.new_host(64);
        let exec = mc.add_host(host.clone());
        let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
        mc.wire_dispatcher(&disp, host.id);
        shards.push((host, exec, disp));
    }
    let (host0, exec0, d0) = shards[0].clone();
    let clock0 = host0.clock.clone();

    let svc = Identity::kernel("svc");
    let tenant_latencies = Arc::new(Mutex::new(Vec::<Nanos>::new()));
    let mut tenant_events = Vec::new();
    for t in 0..TENANTS {
        let (ev, owner) = d0.define::<u64, ()>(&format!("Work.Tenant{t}"), svc.clone());
        let (lat, clk, tr) = (tenant_latencies.clone(), clock0.clone(), tr.clone());
        owner
            .set_primary(move |sent| {
                tr.span("core.dispatch.handler", NO_OP, || {
                    lat.lock().push(clk.now() - sent);
                    clk.advance(TENANT_WORK);
                })
            })
            .expect("fresh tenant event");
        tenant_events.push(ev);
    }

    let slow_served = Arc::new(AtomicU64::new(0));
    let (ev_slow, slow_owner) = d0.define::<u64, ()>("Work.Slow", svc.clone());
    {
        let (served, clk, tr) = (slow_served.clone(), clock0.clone(), tr.clone());
        slow_owner
            .set_primary(move |_sent| {
                tr.span("core.dispatch.handler", NO_OP, || {
                    bump(&served);
                    clk.advance(SLOW_WORK);
                })
            })
            .expect("fresh slow event");
    }

    // Greedy: a no-op kernel primary (the event survives quarantine) and
    // the heavy handler under the greedy extension's identity.
    let greedy_ident = Identity::extension("greedy");
    let greedy_heavy = Arc::new(AtomicU64::new(0));
    let (ev_greedy, greedy_owner) = d0.define::<u64, ()>("Work.Greedy", svc.clone());
    greedy_owner
        .set_primary(|_| ())
        .expect("fresh greedy event");
    {
        let (served, clk, tr) = (greedy_heavy.clone(), clock0.clone(), tr.clone());
        ev_greedy
            .install(greedy_ident.clone(), move |_sent: &u64| {
                tr.span("core.dispatch.handler", NO_OP, || {
                    bump(&served);
                    clk.advance(GREEDY_WORK);
                })
            })
            .expect("install greedy v1");
    }

    // The quota ledger, escalation ladder and fallback swap.
    let ledger = QuotaLedger::new();
    let mut cells = Vec::new();
    for (t, ev) in tenant_events.iter().enumerate() {
        let cell = ledger.register(
            &format!("tenant-{t}"),
            QuotaSpec {
                window: WINDOW,
                window_vt_budget: TENANT_BUDGET,
                shed_after_trips: 4,
                ..QuotaSpec::default()
            },
        );
        ev.bind_quota(cell.clone()).expect("bind tenant quota");
        cells.push(cell);
    }
    let cell_slow = ledger.register(
        "slow",
        QuotaSpec {
            window: WINDOW,
            window_vt_budget: SLOW_BUDGET,
            ..QuotaSpec::default()
        },
    );
    ev_slow
        .bind_quota(cell_slow.clone())
        .expect("bind slow quota");
    cells.push(cell_slow.clone());
    let cell_greedy = ledger.register(
        "greedy",
        QuotaSpec {
            window: WINDOW,
            window_vt_budget: GREEDY_BUDGET,
            shed_after_trips: GREEDY_SHED_AFTER,
            quarantine_after_sheds: GREEDY_QUARANTINE_AFTER,
            max_lane_occupancy: 8,
            deferred_priority: 1,
            ..QuotaSpec::default()
        },
    );
    ev_greedy
        .bind_quota(cell_greedy.clone())
        .expect("bind greedy quota");
    cells.push(cell_greedy.clone());

    let containment = Containment::install(&d0, None, ContainmentPolicy::default());
    ledger.wire_containment(&containment);
    let sup = SwapSupervisor::install(&containment).expect("install supervisor");
    let coord = SwapCoordinator::new(clock0.clone());
    let greedy_degraded = Arc::new(AtomicU64::new(0));
    {
        // Idempotent fallback: the greedy domain breaches twice
        // (shedding, then quarantine), so the pump sees it twice.
        let (ev, ident, coord) = (ev_greedy.clone(), greedy_ident.clone(), coord.clone());
        let (served, clk, tr) = (greedy_degraded.clone(), clock0.clone(), tr.clone());
        let mut swapped = false;
        sup.register_fallback("greedy", move || {
            if swapped {
                return;
            }
            swapped = true;
            let (ev2, ident2) = (ev.clone(), ident.clone());
            let (served2, clk2, tr2) = (served.clone(), clk.clone(), tr.clone());
            coord
                .swap(
                    "greedy",
                    vec![Arc::new(ev.clone())],
                    &ident,
                    &(),
                    |_| (),
                    None,
                    move |_| {
                        let receipt = ev2
                            .rebind(
                                &ident2,
                                &ident2,
                                vec![InstallSpec {
                                    installer: ident2.clone(),
                                    handler: Arc::new(move |_sent: &u64| {
                                        tr2.span("core.dispatch.handler", NO_OP, || {
                                            bump(&served2);
                                            clk2.advance(DEGRADED_WORK);
                                        })
                                    }),
                                    guards: Vec::new(),
                                    constraints: Constraints::default(),
                                }],
                            )
                            .expect("rebind greedy to degraded build");
                        let (ev3, ident3) = (ev2.clone(), ident2.clone());
                        vec![Box::new(move || {
                            ev3.restore(&ident3, receipt).expect("restore greedy v1");
                        }) as UndoAction]
                    },
                )
                .expect("fallback swap commits");
        });
    }

    // Deferred-lane demotion: greedy-named strands on the server shard
    // re-enqueue at the deferred priority while over budget.
    let demoted = Arc::new(AtomicU64::new(0));
    {
        let (cell, demoted) = (cell_greedy.clone(), demoted.clone());
        exec0.set_quota_hook(Arc::new(move |name, base, now| {
            if name.starts_with("greedy") && cell.deferred(now) {
                bump(&demoted);
                cell.spec().deferred_priority
            } else {
                base
            }
        }));
    }

    // The supervisor pump, on the server shard at an exact instant.
    let pumped = Arc::new(AtomicU64::new(0));
    let quarantined_at_pump = Arc::new(AtomicBool::new(false));
    {
        let (sup, cell, clk) = (sup.clone(), cell_greedy.clone(), clock0.clone());
        let (pumped, quarantined) = (pumped.clone(), quarantined_at_pump.clone());
        let containment = containment.clone();
        assert!(
            mc.post_control(host0.id, T_PUMP, move |_now| {
                quarantined.store(containment.is_quarantined("greedy"), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                pumped.store(sup.pump() as u64, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
                cell.release(clk.now());
            }),
            "post supervisor pump"
        );
    }
    ledger.install_mailbox_gate(&host0.mailbox, vec![(BULK_LANE, cell_greedy.clone())]);

    // Server-shard strands: equal priority and work; the greedy one is
    // demoted behind the sweeper while its domain is over budget.
    let cruncher_done = Arc::new(AtomicU64::new(0));
    let sweeper_done = Arc::new(AtomicU64::new(0));
    for (name, done) in [
        ("greedy-cruncher", cruncher_done.clone()),
        ("svc-sweeper", sweeper_done.clone()),
    ] {
        let (clk, tr) = (clock0.clone(), tr.clone());
        exec0.spawn(name, move |ctx| {
            tr.parking("sched.strand.sleep", NO_OP, || ctx.sleep(STRAND_START));
            for _ in 0..STRAND_CHUNKS {
                tr.span("sched.strand.work", NO_OP, || ctx.work(STRAND_CHUNK));
                tr.parking("sched.strand.preempt_point", NO_OP, || ctx.preempt_point());
            }
            done.store(clk.now(), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        });
    }

    // Tenants: heavy-tailed streams of timestamped raises.
    for t in 0..TENANTS {
        let (host, exec, disp) = shards[t + 1].clone();
        let (ev, h0, tr) = (tenant_events[t].clone(), host0.id, tr.clone());
        let gaps = tenant_plan(seed, t);
        exec.spawn(&format!("tenant-{t}"), move |ctx| {
            for (i, gap) in gaps.into_iter().enumerate() {
                let op = ((t as u64) << 32) | i as u64;
                tr.span("bench.client", op, || {
                    let sent = host.clock.now();
                    tr.span("core.dispatch.raise_on", op, || {
                        disp.raise_on(h0, &ev, sent)
                    })
                    .expect("routed");
                });
                tr.span("sched.strand.work", op, || ctx.work(gap));
            }
        });
    }

    // The greedy flood, after its bulk-mail burst against the lane gate.
    let bulk_posted = Arc::new(AtomicU64::new(0));
    let bulk_shed = Arc::new(AtomicU64::new(0));
    let bulk_delivered = Arc::new(AtomicU64::new(0));
    {
        let (host_g, exec_g, disp_g) = shards[TENANTS + 1].clone();
        let (ev, h0, tr) = (ev_greedy.clone(), host0.id, tr.clone());
        let (cell, mailbox) = (cell_greedy.clone(), host0.mailbox.clone());
        let (posted, shed, delivered) = (
            bulk_posted.clone(),
            bulk_shed.clone(),
            bulk_delivered.clone(),
        );
        exec_g.spawn("greedy-flood", move |ctx| {
            for _ in 0..BULK_POSTS {
                let d2 = delivered.clone();
                let out = tr.span("core.quota.post", NO_OP, || {
                    post_with_backpressure(
                        &cell,
                        &host_g.clock,
                        &mailbox,
                        BULK_GAP,
                        BULK_LANE,
                        BackoffPolicy::default(),
                        move |_now| bump(&d2),
                    )
                });
                match out {
                    PostOutcome::Posted { .. } => bump(&posted),
                    PostOutcome::Shed { .. } => bump(&shed),
                }
            }
            for i in 0..GREEDY_REQS {
                let op = (10 << 32) | i;
                tr.span("bench.client", op, || {
                    let sent = host_g.clock.now();
                    tr.span("core.dispatch.raise_on", op, || {
                        disp_g.raise_on(h0, &ev, sent)
                    })
                    .expect("routed");
                });
                tr.span("sched.strand.work", op, || ctx.work(GREEDY_GAP));
            }
        });
    }
    {
        let (host_s, exec_s, disp_s) = shards[TENANTS + 2].clone();
        let (ev, h0, tr) = (ev_slow.clone(), host0.id, tr.clone());
        exec_s.spawn("slowloris", move |ctx| {
            for i in 0..SLOW_REQS {
                let op = (11 << 32) | i;
                tr.span("bench.client", op, || {
                    let sent = host_s.clock.now();
                    tr.span("core.dispatch.raise_on", op, || {
                        disp_s.raise_on(h0, &ev, sent)
                    })
                    .expect("routed");
                });
                tr.span("sched.strand.work", op, || ctx.work(SLOW_GAP));
            }
        });
    }

    let (idle, timed) = timed(t0, || mc.run_until_idle());

    let mut books = Books::default();
    books.equal(idle, IdleOutcome::AllComplete, "run_until_idle");
    let ops = TENANTS as u64 * TENANT_REQS + GREEDY_REQS + SLOW_REQS;
    let mut c = Counts::default();
    c.add("ops", ops);
    // Every metered domain's ledger closes exactly.
    for cell in &cells {
        let s = cell.snapshot();
        let name = cell.name();
        books.equal(
            s.attempts,
            s.admitted + s.throttled + s.shed + s.held,
            &format!("{name}: ledger identity"),
        );
        books.equal(s.in_flight, 0, &format!("{name}: nothing in flight"));
        books.equal(
            s.admitted,
            s.completed,
            &format!("{name}: every admission completed"),
        );
        c.quota(&s);
        c.add(&format!("{name}.admitted"), s.admitted);
        c.add(&format!("{name}.throttled"), s.throttled);
        c.add(&format!("{name}.shed"), s.shed);
        c.add(&format!("{name}.breaches"), s.breaches);
    }
    for cell in &cells[..TENANTS] {
        let s = cell.snapshot();
        books.equal(
            s.attempts,
            TENANT_REQS,
            &format!("{}: attempts", cell.name()),
        );
        books.equal(
            (s.throttled, s.shed, s.breaches),
            (0, 0, 0),
            &format!("{}: a well-behaved tenant is never refused", cell.name()),
        );
    }
    let (s, g) = (cell_slow.snapshot(), cell_greedy.snapshot());
    let (slow_served, heavy, degraded) = (
        load(&slow_served),
        load(&greedy_heavy),
        load(&greedy_degraded),
    );
    books.equal(s.attempts, SLOW_REQS, "slowloris attempts");
    books.check(s.throttled > 0, || {
        "slowloris throttled to its budget".into()
    });
    books.equal((s.shed, s.breaches), (0, 0), "slowloris never escalates");
    books.equal(
        s.admitted,
        slow_served,
        "every admitted slowloris raise served",
    );
    books.equal(g.attempts, GREEDY_REQS, "greedy attempts");
    books.check(g.throttled > 0 && g.shed > 0, || {
        "greedy walked the ladder".into()
    });
    books.check(g.breaches >= 2, || {
        "greedy entered shedding and quarantine".into()
    });
    books.check(quarantined_at_pump.load(Ordering::Relaxed), || {
        "greedy quarantined before the pump".into()
    }); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
    books.equal(
        load(&pumped),
        g.breaches,
        "every breach reached the supervisor",
    );
    books.equal(coord.stats().committed, 1, "one fallback swap");
    books.check(degraded > 0, || "the degraded build served".into());
    books.equal(
        g.admitted,
        heavy + degraded,
        "admitted greedy raises ran v1 or degraded",
    );
    let (posted, shed, delivered) = (load(&bulk_posted), load(&bulk_shed), load(&bulk_delivered));
    books.equal(
        posted + shed,
        u64::from(BULK_POSTS),
        "every bulk post resolved",
    );
    books.check(shed > 0, || "the lane gate refused the excess".into());
    books.equal(delivered, posted, "every posted bulk envelope delivered");
    books.check(g.mail_refused > 0, || {
        "refusals charged the sender's backoff".into()
    });
    books.equal(g.mail_shed, shed, "the sender shed what the gate refused");
    let (demoted, cruncher, sweeper) = (load(&demoted), load(&cruncher_done), load(&sweeper_done));
    books.check(demoted > 0, || "the executor hook demoted greedy".into());
    books.check(sweeper < cruncher, || {
        "the demoted strand finished behind the sweeper".into()
    });
    for (k, v) in [
        ("slow_served", slow_served),
        ("greedy_heavy", heavy),
        ("greedy_degraded", degraded),
        ("bulk_posted", posted),
        ("bulk_shed", shed),
        ("demoted", demoted),
        ("cruncher_done", cruncher),
        ("sweeper_done", sweeper),
    ] {
        c.add(k, v);
    }
    let events = tenant_events.iter().chain([&ev_slow, &ev_greedy]);
    for ev in events {
        c.event(d0.stats(ev).unwrap_or_default());
    }
    c.fabric(&mc, &board);
    c.strands(&timed);
    books.equal(c.get("mail_dropped"), 0, "zero dropped envelopes");
    books.equal(
        c.get("mail_drained"),
        c.get("mail_posted"),
        "every envelope drained",
    );

    let latency = Latency::of(&tenant_latencies.lock());
    let served = latency.count;
    books.check(latency.p99_supported(), || {
        format!("p99 over {} samples has under ten beyond it", latency.count)
    });
    Outcome {
        ops,
        failed: (TENANTS as u64 * TENANT_REQS).saturating_sub(served) + c.get("mail_dropped"),
        problems: books.0,
        timed,
        latency,
        counts: c.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_s9s_tenant_draw() {
        let gaps = tenant_plan(0, 3);
        for (i, gap) in gaps.iter().enumerate().take(200) {
            assert_eq!(*gap, tenant_gap(3 * 1_000_003 + i as u64));
        }
        assert_ne!(tenant_plan(9, 3), gaps);
    }
}
