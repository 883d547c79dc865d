//! The measured workloads behind the paper's tables, each written once.
//!
//! Every function here builds fresh rigs, runs one workload and returns
//! its virtual-time figure. The table binaries call them with
//! [`Wiring::default`] (nothing wired, the numbers the goldens pin); the
//! invariance matrix in `tests/invariance.rs` calls the same functions
//! with observability, fault plans, quota cells or an idle swap
//! coordinator wired in, and asserts the figures do not move by a byte.

use parking_lot::Mutex;
use spin_core::{Dispatcher, Identity, Kernel, QuotaLedger, QuotaSpec};
use spin_net::{
    reliable_bandwidth, udp_round_trip, Forwarder, IpAddr, Medium, NetStack, TcpStack, ThreeHosts,
    TwoHosts, UdpPacket, UdpSocket,
};
use spin_sal::{Clock, Host, MachineProfile, Mailbox, Nanos, SimBoard, PAGE_SHIFT};
use spin_sched::{measure_xas_call, Executor};
use spin_vm::{DiskPager, PhysAddrService, TranslationService, VirtAddrService, VmWorkbench};
use std::sync::Arc;

/// The UDP echo port every round-trip workload serves on.
const ECHO_PORT: u16 = 7;
/// A port nothing listens on: a keyed guard on it never matches.
const UNUSED_PORT: u16 = 9;
/// Measured round trips in the Table 6 and echo workloads.
const FORWARD_ROUNDS: u64 = 8;

/// A callback on one layer of a rig, boxed so each caller can close over
/// its own state.
type Layer<'a, T> = Option<Box<dyn Fn(&T) + 'a>>;

/// Per-layer callbacks a workload applies to every rig it builds. A
/// `None` layer is left as the rig built it; the default wires nothing.
#[derive(Default)]
pub struct Wiring<'a> {
    /// Each rig's dispatcher (a booted kernel's goes through `kernel`).
    pub dispatcher: Layer<'a, Dispatcher>,
    /// Each rig's executor.
    pub executor: Layer<'a, Executor>,
    /// All of a rig's net stacks at once, in host order.
    pub stacks: Layer<'a, [NetStack]>,
    /// The booted kernel of the Table 2 system-call workload.
    pub kernel: Layer<'a, Kernel>,
    /// Each VM translation service.
    pub translation: Layer<'a, TranslationService>,
    /// The demand-paging workload's disk pager.
    pub pager: Layer<'a, DiskPager>,
    /// Each host mailbox a rig exposes.
    pub mailbox: Layer<'a, Mailbox>,
    /// The ledger whose cells meter the Table 2 null event and every
    /// stack's UDP and IP arrival events, one cell per name (a name not
    /// yet registered gets a default-spec, unlimited cell).
    pub quota: Option<&'a QuotaLedger>,
}

impl Wiring<'_> {
    fn wire_dispatcher(&self, d: &Dispatcher) {
        if let Some(f) = &self.dispatcher {
            f(d);
        }
    }

    fn wire_executor(&self, exec: &Executor) {
        if let Some(f) = &self.executor {
            f(exec);
        }
    }

    fn wire_translation(&self, trans: &TranslationService) {
        if let Some(f) = &self.translation {
            f(trans);
        }
    }

    fn wire_mailbox(&self, mailbox: &Mailbox) {
        if let Some(f) = &self.mailbox {
            f(mailbox);
        }
    }

    /// Binds the named quota cell to `ev`, if quota cells are wired.
    fn meter<A, R>(&self, ev: &spin_core::Event<A, R>, name: &str)
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        if let Some(ledger) = self.quota {
            let cell = ledger.register(name, QuotaSpec::default());
            // Every rig is fresh, so every bind is the event's first.
            assert_eq!(ev.bind_quota(cell), Ok(true));
        }
    }

    /// Wires a network rig: its executor, dispatcher, stacks, and a quota
    /// cell on each stack's UDP and IP arrival events (named by `tags`).
    fn wire_net(&self, exec: &Executor, d: &Dispatcher, stacks: &[NetStack], tags: &[&str]) {
        self.wire_executor(exec);
        self.wire_dispatcher(d);
        if let Some(f) = &self.stacks {
            f(stacks);
        }
        for (s, tag) in stacks.iter().zip(tags) {
            self.meter(&s.events().udp_arrived, &format!("udp-{tag}"));
            self.meter(&s.events().ip_arrived, &format!("ip-{tag}"));
        }
    }

    /// The Table 5 two-host rig, wired.
    fn two_hosts(&self) -> TwoHosts {
        let rig = TwoHosts::new();
        let stacks = [rig.a.clone(), rig.b.clone()];
        self.wire_net(&rig.exec, &rig.dispatcher, &stacks, &["a", "b"]);
        self.wire_mailbox(&rig.host_a.mailbox);
        self.wire_mailbox(&rig.host_b.mailbox);
        rig
    }

    /// The Table 6 client/forwarder/server rig, wired.
    fn three_hosts(&self) -> ThreeHosts {
        let rig = ThreeHosts::new();
        self.wire_net(
            &rig.exec,
            &rig.dispatcher,
            &[rig.a.clone(), rig.b.clone(), rig.c.clone()],
            &["fa", "fb", "fc"],
        );
        rig
    }
}

/// Table 2, protected in-kernel call: mean virtual ns of 1000 raises of a
/// null event with one primary handler.
pub fn in_kernel_call(w: &Wiring) -> Nanos {
    let clock = Clock::new();
    let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
    let d = Dispatcher::new(clock.clone(), profile);
    w.wire_dispatcher(&d);
    let (ev, owner) = d.define::<(), ()>("Null", Identity::kernel("bench"));
    owner.set_primary(|_| ()).expect("fresh");
    w.meter(&ev, "null-call");
    let t0 = clock.now();
    const N: u64 = 1000;
    for _ in 0..N {
        ev.raise(()).expect("handler installed");
    }
    (clock.now() - t0) / N
}

/// Table 2, system call: mean virtual ns of 100 null system calls into an
/// extension-registered handler.
pub fn syscall(w: &Wiring) -> Nanos {
    let board = SimBoard::new();
    let kernel = Kernel::boot(board.new_host(64));
    if let Some(f) = &w.kernel {
        f(&kernel);
    }
    kernel
        .register_syscalls(Identity::extension("null"), 0..1, |_| 0)
        .expect("install");
    let clock = kernel.host().clock.clone();
    let t0 = clock.now();
    const N: u64 = 100;
    for _ in 0..N {
        kernel.syscall(0, [0; 6]);
    }
    (clock.now() - t0) / N
}

/// Table 2, cross-address-space call.
pub fn xas_call(w: &Wiring) -> Nanos {
    let board = SimBoard::new();
    let host = board.new_host(64);
    let exec = Executor::for_host(&host);
    w.wire_executor(&exec);
    measure_xas_call(&exec)
}

/// Table 4's SPIN rows in table order: Dirty, Fault, Trap, Prot1,
/// Prot100, Unprot100, Appel1, Appel2 — each on a fresh workbench so no
/// row's handlers interfere with another's.
pub fn vm_rows(w: &Wiring) -> [Nanos; 8] {
    let measure = |f: fn(&VmWorkbench) -> Nanos| {
        let wb = VmWorkbench::new();
        w.wire_translation(&wb.trans);
        f(&wb)
    };
    [
        measure(VmWorkbench::dirty_ns),
        measure(VmWorkbench::fault_ns),
        measure(VmWorkbench::trap_ns),
        measure(VmWorkbench::prot1_ns),
        measure(VmWorkbench::prot100_ns),
        measure(VmWorkbench::unprot100_ns),
        measure(VmWorkbench::appel1_ns),
        measure(VmWorkbench::appel2_ns),
    ]
}

/// Demand-pages a small disk-backed region and reports the elapsed
/// virtual time — the workload whose handler crosses the pager,
/// dispatcher and executor at once.
pub fn demand_paging(w: &Wiring) -> Nanos {
    const PAGES: u64 = 8;
    let board = SimBoard::new();
    let host: Host = board.new_host(128);
    let exec = Executor::for_host(&host);
    let disp = Dispatcher::new(board.clock.clone(), board.profile.clone());
    w.wire_executor(&exec);
    w.wire_dispatcher(&disp);
    let trans = TranslationService::new(
        host.mmu.clone(),
        board.clock.clone(),
        board.profile.clone(),
        &disp,
    );
    w.wire_translation(&trans);
    let phys = PhysAddrService::new(host.mem.clone(), &disp);
    let virt = VirtAddrService::new();
    let ctx = trans.create();
    let region = virt.allocate(PAGES).expect("virtual region");
    trans.reserve(ctx, &region).expect("reserve");
    let pager = DiskPager::install(
        exec.clone(),
        trans.clone(),
        phys,
        host.disk.clone(),
        ctx,
        region.clone(),
        0,
    );
    if let Some(f) = &w.pager {
        f(&pager);
    }
    let clock = exec.clock().clone();
    let mem = host.mem.clone();
    let base = region.base();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    exec.spawn("reader", move |_| {
        let t0 = clock.now();
        let mut buf = [0u8; 1];
        for p in 0..PAGES {
            trans
                .read(ctx, base + (p << PAGE_SHIFT), &mut buf, &mem)
                .expect("page in");
        }
        *o2.lock() = clock.now() - t0;
    });
    exec.run_until_idle();
    let r = *out.lock();
    r
}

/// Table 5 latency: mean UDP round trip of `payload` bytes over
/// `medium`, `rounds` trips.
pub fn udp_rtt(w: &Wiring, medium: Medium, payload: usize, rounds: u32) -> Nanos {
    let rig = w.two_hosts();
    udp_round_trip(&rig.exec, &rig.a, &rig.b, medium, payload, rounds)
}

/// Table 5 bandwidth: reliable receive Mb/s for `packets` packets of
/// `packet_size` bytes under a sliding window of `window`.
pub fn bandwidth(w: &Wiring, medium: Medium, packet_size: usize, packets: u32, window: u32) -> f64 {
    let rig = w.two_hosts();
    reliable_bandwidth(
        &rig.exec,
        &rig.a,
        &rig.b,
        medium,
        packet_size,
        packets,
        window,
    )
}

/// Binds a UDP echo service on `stack`'s echo port through the keyed
/// socket API.
fn bind_echo(stack: &NetStack) {
    let s2 = stack.clone();
    UdpSocket::bind_with(stack, ECHO_PORT, "echo", move |p| {
        let _ = s2.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
    })
    .expect("bind echo");
}

/// Mean round trip of 16-byte requests from `port` on `client` to the
/// echo port at `dst`: one warm-up round, then `between`, then
/// [`FORWARD_ROUNDS`] measured rounds.
fn udp_client_rtt(
    exec: &Arc<Executor>,
    client: &NetStack,
    port: u16,
    dst: IpAddr,
    between: impl FnOnce(),
) -> Nanos {
    let reply = UdpSocket::bind(client, port, "client", 4).expect("bind client");
    {
        let (a, ch) = (client.clone(), reply.clone());
        exec.spawn("warmup", move |ctx| {
            a.udp_send(port, dst, ECHO_PORT, &[0u8; 16]).unwrap();
            ch.recv(ctx);
        });
        exec.run_until_idle();
    }
    between();
    let a = client.clone();
    let clock = exec.clock().clone();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    exec.spawn("driver", move |ctx| {
        let t0 = clock.now();
        for _ in 0..FORWARD_ROUNDS {
            a.udp_send(port, dst, ECHO_PORT, &[0u8; 16]).unwrap();
            reply.recv(ctx);
        }
        *o2.lock() = (clock.now() - t0) / FORWARD_ROUNDS;
    });
    exec.run_until_idle();
    let r = *out.lock();
    r
}

/// Table 6, UDP: client on A sends to the in-stack forwarder on B,
/// spliced to an echo server on C; `between` runs on the rig and the
/// installed forwarder after the warm-up round. Returns the mean round
/// trip and whether the forwarder's keyed guards dispatched compiled.
pub fn udp_forward_rtt(
    w: &Wiring,
    medium: Medium,
    between: impl FnOnce(&ThreeHosts, &Forwarder),
) -> (Nanos, bool) {
    let rig = w.three_hosts();
    let fwd = Forwarder::install_udp(&rig.b, ECHO_PORT, rig.c.ip_on(medium));
    bind_echo(&rig.c);
    let rtt = udp_client_rtt(&rig.exec, &rig.a, 9000, rig.b.ip_on(medium), || {
        between(&rig, &fwd)
    });
    let stats = rig
        .dispatcher
        .stats(&rig.b.events().udp_arrived)
        .expect("event alive");
    (rtt, stats.compiled_raises > 0)
}

/// Table 6, TCP: an established connection through the splice; 16-byte
/// request, 16-byte reply.
pub fn tcp_forward_rtt(w: &Wiring, medium: Medium) -> Nanos {
    let rig = w.three_hosts();
    let _fwd = Forwarder::install_tcp(&rig.b, 80, rig.c.ip_on(medium));
    let tcp_a = TcpStack::install(&rig.a);
    let tcp_c = TcpStack::install(&rig.c);
    let listener = tcp_c.listen(80);
    rig.exec.spawn("server", move |ctx| {
        if let Some(conn) = listener.accept(ctx) {
            while let Some(req) = conn.recv(ctx) {
                if conn.send(ctx, &req).is_err() {
                    break;
                }
            }
        }
    });
    let b_ip = rig.b.ip_on(medium);
    let clock = rig.exec.clock().clone();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = out.clone();
    rig.exec.spawn("client", move |ctx| {
        let conn = tcp_a.connect(ctx, b_ip, 80).expect("splice handshake");
        conn.send(ctx, &[0u8; 16]).unwrap();
        conn.recv(ctx); // warm-up
        let t0 = clock.now();
        for _ in 0..FORWARD_ROUNDS {
            conn.send(ctx, &[0u8; 16]).unwrap();
            conn.recv(ctx);
        }
        *o2.lock() = (clock.now() - t0) / FORWARD_ROUNDS;
        conn.close(ctx);
    });
    rig.exec.run_until_idle();
    let r = *out.lock();
    r
}

/// How the §5.5 watcher guards are installed.
#[derive(Clone, Copy, Debug)]
pub struct Guards {
    /// Keyed on the stack's destination-port key (compiled into an index)
    /// rather than opaque port-comparison closures (evaluated in turn).
    pub keyed: bool,
    /// Every guard matches the echo traffic (true) or none does (false).
    pub pass: bool,
}

/// §5.5: Ethernet round trip with `extra` watcher guards and handlers on
/// the server's UDP-arrival event, `rounds` trips. Returns the RTT and
/// whether that event dispatched compiled.
pub fn watcher_rtt(w: &Wiring, extra: usize, guards: Guards, rounds: u32) -> (Nanos, bool) {
    let rig = w.two_hosts();
    let port = if guards.pass { ECHO_PORT } else { UNUSED_PORT };
    let ev = &rig.b.events().udp_arrived;
    for i in 0..extra {
        let ident = Identity::extension(&format!("watcher-{i}"));
        if guards.keyed {
            ev.install_keyed(
                ident,
                &rig.b.events().udp_port_key,
                u64::from(port),
                |_p: &UdpPacket| {},
            )
            .expect("install keyed watcher");
        } else {
            ev.install_guarded(
                ident,
                move |p: &UdpPacket| p.header.dst_port == port,
                |_p: &UdpPacket| {},
            )
            .expect("install opaque watcher");
        }
    }
    let rtt = udp_round_trip(&rig.exec, &rig.a, &rig.b, Medium::Ethernet, 16, rounds);
    let stats = rig.dispatcher.stats(ev).expect("event alive");
    (rtt, stats.compiled_raises > 0)
}

/// An echo service bound through the keyed socket API (`keyed`) or
/// installed as an opaque port-comparison guard: the Ethernet round trip
/// from port 6000.
pub fn echo_rtt(w: &Wiring, keyed: bool) -> Nanos {
    let rig = w.two_hosts();
    if keyed {
        bind_echo(&rig.b);
    } else {
        let server = rig.b.clone();
        rig.b
            .events()
            .udp_arrived
            .install_guarded(
                Identity::extension("echo"),
                |p: &UdpPacket| p.header.dst_port == ECHO_PORT,
                move |p: &UdpPacket| {
                    let _ = server.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload);
                },
            )
            .expect("install opaque echo");
    }
    udp_client_rtt(
        &rig.exec,
        &rig.a,
        6000,
        rig.b.ip_on(Medium::Ethernet),
        || {},
    )
}
