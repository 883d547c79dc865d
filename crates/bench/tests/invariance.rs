//! The cost-model invariant, enforced end to end as one matrix: every
//! virtual-time figure the evaluation reports is byte-identical whether
//! a subsystem is absent or wired in but idle.
//!
//! **Rows** are the measured workloads of [`spin_bench::workloads`] — the
//! same functions the table binaries call: Table 2 (in-kernel call,
//! system call, cross-address-space call), the Table 4 VM rows, a
//! demand-paging pass, Table 5 latency and bandwidth, Table 6 UDP and TCP
//! forwarding, the §5.5 watcher-guard series and the keyed-vs-opaque echo
//! service. **Columns** are the wirings: observability (recorder on at
//! ring capacity 1 and 64k, recorder off), fault plans (disabled, armed
//! at zero rates), quota cells with unlimited budgets (event cells, the
//! scheduler hook, a mailbox gate) and an idle swap coordinator (with
//! observability absent and wired). Each cell must equal the absent
//! column byte for byte, and each column checks that its wiring was
//! really reached — an invariance over unwired hooks would hold
//! trivially.
//!
//! Two pairwise cells ride along in every column: watchers and the echo
//! service installed through keyed (compiled) guards charge exactly what
//! the opaque-closure installation charges, and a mid-run swap of the
//! Table 6 forwarder to an identical version is invisible in its RTT.

use parking_lot::Mutex;
use spin_bench::storm::assert_books_close;
use spin_bench::workloads::{
    bandwidth, demand_paging, echo_rtt, in_kernel_call, syscall, tcp_forward_rtt, udp_forward_rtt,
    udp_rtt, vm_rows, watcher_rtt, xas_call, Guards, Wiring,
};
use spin_core::{
    Containment, ContainmentPolicy, Dispatcher, GatedEvent, Kernel, QuotaLedger, QuotaSpec,
};
use spin_fault::{
    FaultPlan, SITE_DISPATCH, SITE_NET_STACK, SITE_RT_HEAP, SITE_SCHED, SITE_VM_PAGER,
};
use spin_net::{Forwarder, Medium, NetStack, ThreeHosts};
use spin_obs::Obs;
use spin_sal::Mailbox;
use spin_sched::Executor;
use spin_swap::SwapCoordinator;
use spin_vm::{DiskPager, TranslationService};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Every figure of the matrix under one wiring, labelled by row;
/// bandwidths are compared by their `f64` bits.
fn run_rows(w: &Wiring) -> Vec<(String, u64)> {
    let mut out = vec![
        ("table2 in-kernel call".to_string(), in_kernel_call(w)),
        ("table2 syscall".to_string(), syscall(w)),
        ("table2 xas".to_string(), xas_call(w)),
    ];
    let vm = [
        "dirty",
        "fault",
        "trap",
        "prot1",
        "prot100",
        "unprot100",
        "appel1",
        "appel2",
    ];
    for (label, ns) in vm.iter().zip(vm_rows(w)) {
        out.push((format!("table4 {label}"), ns));
    }
    out.push(("demand paging".to_string(), demand_paging(w)));
    for medium in [Medium::Ethernet, Medium::Atm] {
        out.push((format!("table5 rtt {medium:?}"), udp_rtt(w, medium, 16, 8)));
    }
    // The bandwidth shapes of the Table 5 rows and of the hot-swap suite.
    for (size, packets, window) in [(1458, 40, 16), (1024, 64, 8)] {
        let bw = bandwidth(w, Medium::Ethernet, size, packets, window);
        out.push((format!("table5 bw {size}/{packets}/{window}"), bw.to_bits()));
    }
    let (forward, compiled) = udp_forward_rtt(w, Medium::Ethernet, |_, _| {});
    assert!(compiled, "the keyed forwarder must dispatch compiled");
    out.push(("table6 udp forward".to_string(), forward));
    out.push((
        "table6 tcp forward".to_string(),
        tcp_forward_rtt(w, Medium::Ethernet),
    ));
    for extra in [10, 50, 100] {
        for pass in [false, true] {
            let (opaque, _) = watcher_rtt(w, extra, Guards { keyed: false, pass }, 8);
            let (keyed, compiled) = watcher_rtt(w, extra, Guards { keyed: true, pass }, 8);
            assert_eq!(
                opaque, keyed,
                "keyed vs opaque watcher RTT diverged (extra={extra}, pass={pass})"
            );
            assert!(compiled, "keyed watchers must dispatch compiled");
            out.push((format!("s1 {extra} watchers, pass={pass}"), opaque));
        }
    }
    let (keyed, opaque) = (echo_rtt(w, true), echo_rtt(w, false));
    assert_eq!(
        keyed, opaque,
        "socket bind (keyed) vs opaque echo RTT diverged"
    );
    out.push(("echo".to_string(), keyed));
    out
}

/// The absent column: nothing wired, computed once for every test.
fn absent() -> &'static [(String, u64)] {
    static ABSENT: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    ABSENT.get_or_init(|| {
        let rows = run_rows(&Wiring::default());
        assert!(rows.iter().all(|(_, v)| *v > 0), "every workload completes");
        rows
    })
}

/// Runs every row under `w` and asserts each cell equals the absent
/// column's.
fn assert_column(column: &str, w: &Wiring) {
    let got = run_rows(w);
    assert_eq!(got.len(), absent().len());
    for ((row, want), (_, got)) in absent().iter().zip(&got) {
        assert_eq!(got, want, "{row} moved with {column}");
    }
}

/// Observability wired into every layer a workload builds.
fn obs_wiring(obs: &Obs) -> Wiring<'_> {
    Wiring {
        dispatcher: Some(Box::new(|d: &Dispatcher| {
            d.set_obs(obs.domain("dispatcher"))
        })),
        executor: Some(Box::new(|exec: &Executor| {
            let clock = exec.clock().clone();
            obs.set_time_source(Arc::new(move || clock.now()));
            exec.set_obs(obs.domain("sched"));
        })),
        stacks: Some(Box::new(|stacks: &[NetStack]| {
            for s in stacks {
                s.set_obs(obs.domain("net"));
            }
        })),
        kernel: Some(Box::new(|k: &Kernel| {
            k.install_obs(obs);
        })),
        translation: Some(Box::new(|t: &TranslationService| {
            t.set_obs(obs.domain("vm"))
        })),
        ..Wiring::default()
    }
}

#[test]
fn observability_columns_match_absent() {
    for (column, capacity, recording) in [
        ("recorder on, capacity 1", 1, true),
        ("recorder on, capacity 64k", 65536, true),
        ("recorder off, capacity 64k", 65536, false),
    ] {
        let obs = Obs::new(capacity);
        obs.set_recording(recording);
        assert_column(column, &obs_wiring(&obs));
        if capacity == 1 || !recording {
            continue;
        }
        let acct = obs.accounting();
        for name in ["dispatcher", "sched", "vm", "net", "kernel"] {
            let (_, counters) = acct.register(name);
            assert!(
                counters.activity() > 0,
                "domain {name} recorded no activity"
            );
        }
        assert!(obs.ring().pushed() > 0, "flight recorder stayed empty");
        // The harness histograms are registered and populated.
        let hists = acct.histograms();
        for prefix in ["net.rtt_ns", "net.bw_elapsed_ns"] {
            assert!(
                hists
                    .iter()
                    .any(|(n, h)| n.starts_with(prefix) && h.count() > 0),
                "{prefix} histogram missing: {:?}",
                hists.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
            );
        }
    }
}

/// A plan's hooks wired at every site, plus the standard containment
/// sink on each dispatcher — the full fault path, compiled in and idle.
fn fault_wiring(plan: &FaultPlan) -> Wiring<'_> {
    Wiring {
        dispatcher: Some(Box::new(|d: &Dispatcher| {
            d.set_fault_hook(plan.hook(SITE_DISPATCH));
            let _ = Containment::install(d, None, ContainmentPolicy::default());
        })),
        executor: Some(Box::new(|exec: &Executor| {
            exec.set_fault_hook(plan.hook(SITE_SCHED))
        })),
        stacks: Some(Box::new(|stacks: &[NetStack]| {
            for s in stacks {
                s.set_fault_hook(plan.hook(SITE_NET_STACK));
            }
        })),
        kernel: Some(Box::new(|k: &Kernel| {
            k.dispatcher().set_fault_hook(plan.hook(SITE_DISPATCH));
            k.heap().set_fault_hook(plan.hook(SITE_RT_HEAP));
            k.install_fault_containment(ContainmentPolicy::default());
        })),
        pager: Some(Box::new(|p: &DiskPager| {
            p.set_fault_hook(plan.hook(SITE_VM_PAGER))
        })),
        ..Wiring::default()
    }
}

#[test]
fn fault_columns_match_absent() {
    let disabled = FaultPlan::new(0xFA);
    disabled.set_enabled(false);
    assert_column("the fault plan disabled", &fault_wiring(&disabled));
    assert_eq!(
        disabled.injected_total(),
        0,
        "a disabled plan must inject nothing"
    );

    // Armed but with no rates configured: every draw runs the full
    // decision path and still injects nothing — and costs no virtual time.
    for seed in [0xFB, 1] {
        let armed = FaultPlan::new(seed);
        let column = format!("the fault plan armed at zero rates (seed {seed:#x})");
        assert_column(&column, &fault_wiring(&armed));
        assert_eq!(armed.injected_total(), 0);
        let report = armed.report();
        for site in [SITE_DISPATCH, SITE_SCHED, SITE_VM_PAGER, SITE_NET_STACK] {
            let hits = report.iter().find(|r| r.site == site).map_or(0, |r| r.hits);
            assert!(hits > 0, "site {site} was never drawn: {report:?}");
        }
    }
}

/// Unlimited (default-spec) quota cells on every metered event, a
/// pass-through scheduler hook that counts how often it is consulted, and
/// a lane gate on every host mailbox — all in one ledger (cells dedup by
/// name, so re-created rigs reuse their cells).
#[test]
fn unlimited_quota_column_matches_absent() {
    let ledger = QuotaLedger::new();
    let hook_calls = Arc::new(AtomicU64::new(0));
    let wiring = Wiring {
        executor: Some(Box::new(|exec: &Executor| {
            let calls = hook_calls.clone();
            exec.set_quota_hook(Arc::new(move |_name, base, _now| {
                calls.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; asserted after run_until_idle returns.
                base
            }));
        })),
        // The gate's probe runs on every post to lane 0 and must cost
        // nothing.
        mailbox: Some(Box::new(|m: &Mailbox| {
            let cell = ledger.register("mail", QuotaSpec::default());
            ledger.install_mailbox_gate(m, vec![(0, cell)]);
        })),
        quota: Some(&ledger),
        ..Wiring::default()
    };
    assert_column(
        "quota cells bound, the scheduler hook installed and mailboxes gated",
        &wiring,
    );
    // The metered admission path really ran on the measured hot paths,
    // and every cell reconciles.
    let cells = ledger.cells();
    let attempts: u64 = cells.iter().map(|c| c.snapshot().attempts).sum();
    assert!(
        attempts > 1000,
        "metered events saw only {attempts} admission attempts"
    );
    assert!(
        hook_calls.load(Ordering::Relaxed) > 0, // ordering: Relaxed — read after run_until_idle returns; the executor join is the sync point.
        "the scheduler quota hook was never consulted"
    );
    for cell in cells.iter() {
        let s = cell.snapshot();
        assert_eq!(s.attempts, s.admitted, "an unlimited cell never refuses");
        assert_books_close(cell.name(), &s);
        assert_eq!((s.breaches, s.mail_refused), (0, 0));
    }
}

/// An idle swap coordinator over every rig's UDP arrival events — obs
/// gauges registered when `obs` is wired, gates referenced, but no swap
/// ever begun — kept alive in `coords` for the rig's whole run.
fn swap_wiring<'a>(obs: Option<&'a Obs>, coords: &'a Mutex<Vec<SwapCoordinator>>) -> Wiring<'a> {
    let mut w = obs.map_or_else(Wiring::default, obs_wiring);
    let obs_stacks = w.stacks.take();
    w.stacks = Some(Box::new(move |stacks: &[NetStack]| {
        if let Some(f) = &obs_stacks {
            f(stacks);
        }
        let coord = SwapCoordinator::new(stacks[0].executor().clock().clone());
        if let Some(obs) = obs {
            coord.wire_obs(obs);
        }
        let _gates: Vec<Arc<dyn GatedEvent>> = stacks
            .iter()
            .map(|s| Arc::new(s.events().udp_arrived.clone()) as Arc<dyn GatedEvent>)
            .collect();
        coords.lock().push(coord);
    }));
    w
}

#[test]
fn idle_swap_columns_match_absent() {
    for obs in [None, Some(Obs::new(4096))] {
        let coords = Mutex::new(Vec::new());
        let column = format!("an idle swap coordinator (obs={})", obs.is_some());
        assert_column(&column, &swap_wiring(obs.as_ref(), &coords));
        let coords = coords.lock();
        assert!(!coords.is_empty(), "no rig wired a coordinator");
        for coord in coords.iter() {
            assert_eq!(
                coord.stats().attempted,
                0,
                "the idle coordinator never swapped"
            );
        }
    }
}

/// Commits a swap of the forwarder to a v2 built from its live flow
/// snapshot — same port, same target, transferred flows — using the
/// rig's idle coordinator.
fn swap_to_identical(rig: &ThreeHosts, fwd: &Forwarder, coord: &SwapCoordinator) {
    let ev = &rig.b.events().udp_arrived;
    let target = rig.c.ip_on(Medium::Ethernet);
    let report = coord
        .swap(
            "Forward",
            vec![Arc::new(ev.clone())],
            fwd.identity(),
            fwd,
            |old| old.snapshot(),
            None,
            |snapshot| {
                let (_v2, specs) =
                    Forwarder::udp_swap_specs(&rig.b, 7, target, "Forward-v2", snapshot);
                let receipt = ev
                    .rebind(fwd.identity(), fwd.identity(), specs)
                    .expect("rebind forwarder");
                let ev = ev.clone();
                let ident = fwd.identity().clone();
                vec![Box::new(move || {
                    ev.restore(&ident, receipt).expect("restore forwarder");
                }) as spin_swap::UndoAction]
            },
        )
        .expect("mid-run swap commits");
    assert_eq!(report.held, 0, "no traffic in flight between rounds");
}

/// The online-upgrade promise on the Table 6 workload: committing a swap
/// to a semantically identical forwarder between warm-up and measurement
/// leaves the measured RTT byte-identical.
#[test]
fn mid_run_swap_to_identical_version_is_invisible_in_table6() {
    let plain = absent()
        .iter()
        .find(|(row, _)| row == "table6 udp forward")
        .expect("table6 row")
        .1;
    for obs in [None, Some(Obs::new(4096))] {
        let coords = Mutex::new(Vec::new());
        let wiring = swap_wiring(obs.as_ref(), &coords);
        let (swapped, _) = udp_forward_rtt(&wiring, Medium::Ethernet, |rig, fwd| {
            let coords = coords.lock();
            let coord = coords.last().expect("the rig wired a coordinator");
            swap_to_identical(rig, fwd, coord);
        });
        assert_eq!(
            plain,
            swapped,
            "a committed identical-version swap moved the Table 6 RTT (obs={})",
            obs.is_some()
        );
        assert_eq!(
            coords.lock().last().expect("coordinator").stats().committed,
            1
        );
    }
}
