//! `forward`: the Table 6 client → forwarder → echo UDP chain, one host
//! per shard, pumped by one worker.
//!
//! A single sender strand on the client shard keeps at most `WINDOW`
//! datagrams in flight: it takes a credit before each send, and the
//! client's in-path receive callback returns the credit when the echo
//! comes back through the forwarder. The loop is closed in virtual time,
//! so the forwarder's queue is bounded by the window however fast the
//! sender runs. Packets move in interrupt context through the
//! Ether → IP → UDP raise chain on every hop. One op is one round trip.
//! The seed varies the sender's think gaps and the payload sizes.

use crate::gen::{mix, salt};
use crate::host::timed;
use crate::stats::Latency;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{Books, Counts, Outcome};
use parking_lot::Mutex;
use spin_core::Dispatcher;
use spin_net::{AddressMap, Forwarder, IpAddr, Medium, NetStack, UdpSocket};
use spin_sal::{MulticoreBoard, Nanos};
use spin_sched::{IdleOutcome, KChannel, Multicore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const WORKERS: usize = 1;
const ECHO_PORT: u16 = 7;
const CLIENT_PORT: u16 = 9000;
/// Round trips per run.
const PACKETS: u64 = 16_000;
/// Datagrams in flight at most.
const WINDOW: usize = 4;

/// One generated datagram: what the sender thinks before it and how
/// long its payload is (16 header bytes of sequence number and send
/// time, then padding).
struct Datagram {
    seq: u64,
    gap: Nanos,
    len: usize,
}

fn plan(seed: u64) -> Vec<Datagram> {
    let salt = salt(seed);
    (0..PACKETS)
        .map(|seq| {
            let x = mix(seq ^ salt ^ 0xf0a7_d0c5);
            Datagram {
                seq,
                gap: 20_000 + x % 100_000,
                len: 16 + ((x >> 32) % 49) as usize,
            }
        })
        .collect()
}

fn word(payload: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&payload[at..at + 8]);
    u64::from_le_bytes(b)
}

#[derive(Default)]
struct Tally {
    count: AtomicU64,
    xor: AtomicU64,
}

impl Tally {
    fn note(&self, seq: u64) {
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        self.xor.fetch_xor(mix(seq), Ordering::Relaxed); // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
    }

    fn get(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
            self.xor.load(Ordering::Relaxed), // ordering: Relaxed — read after run_until_idle returns; the barrier join is the sync point.
        )
    }
}

pub fn run(seed: u64, tr: &Tracer, t0: Instant) -> Outcome {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(WORKERS, board.lookahead());
    let addrs = AddressMap::new();
    let mut hosts = Vec::new();
    for n in 1..=3u8 {
        let host = board.new_host(256);
        let exec = mc.add_host(host.clone());
        let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
        mc.wire_dispatcher(&disp, host.id);
        let stack = NetStack::install(
            &host,
            &exec,
            &disp,
            &addrs,
            IpAddr::new(10, 0, 0, n),
            IpAddr::new(10, 1, 0, n),
            IpAddr::new(10, 2, 0, n),
        );
        hosts.push((host, exec, stack, disp));
    }
    let (host_a, exec_a, a, _) = hosts[0].clone();
    let b = hosts[1].2.clone();
    let c = hosts[2].2.clone();

    let medium = Medium::Ethernet;
    let fwd = Forwarder::install_udp(&b, ECHO_PORT, c.ip_on(medium));

    let echoed = Arc::new(Tally::default());
    {
        let (echoed, c2, tr) = (echoed.clone(), c.clone(), tr.clone());
        UdpSocket::bind_with(&c, ECHO_PORT, "echo", move |p| {
            tr.span("net.socket.callback", NO_OP, || {
                echoed.note(word(&p.payload, 0));
                let _ = tr.span("net.udp.send", NO_OP, || {
                    c2.udp_send(ECHO_PORT, p.ip.src, p.header.src_port, &p.payload)
                });
            });
        })
        .expect("bind echo");
    }

    // Credits: the sender takes one per datagram; the reply returns it.
    let credits = KChannel::new(exec_a.clone(), WINDOW);
    for _ in 0..WINDOW {
        assert!(credits.try_push(()), "fresh channel holds the window");
    }
    let replied = Arc::new(Tally::default());
    let rtts: Arc<Mutex<Vec<Nanos>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let (replied, rtts, credits, tr) =
            (replied.clone(), rtts.clone(), credits.clone(), tr.clone());
        let clock = host_a.clock.clone();
        UdpSocket::bind_with(&a, CLIENT_PORT, "client", move |p| {
            tr.span("net.socket.callback", NO_OP, || {
                let seq = word(&p.payload, 0);
                replied.note(seq);
                rtts.lock().push(clock.now() - word(&p.payload, 8));
                tr.span("sched.kchannel.try_push", seq, || credits.try_push(()));
            });
        })
        .expect("bind client");
    }

    let datagrams = plan(seed);
    let expected_xor = datagrams.iter().fold(0, |x, d| x ^ mix(d.seq));
    {
        let (a2, b_ip, credits, tr) = (a.clone(), b.ip_on(medium), credits.clone(), tr.clone());
        let clock = host_a.clock.clone();
        exec_a.spawn("sender", move |ctx| {
            for d in datagrams {
                let op = d.seq;
                tr.parking("sched.kchannel.recv", op, || credits.recv(ctx));
                tr.span("bench.client", op, || {
                    let mut payload = vec![0u8; d.len];
                    payload[0..8].copy_from_slice(&op.to_le_bytes());
                    payload[8..16].copy_from_slice(&clock.now().to_le_bytes());
                    tr.span("net.udp.send", op, || {
                        a2.udp_send(CLIENT_PORT, b_ip, ECHO_PORT, &payload)
                    })
                    .expect("client route to the forwarder");
                });
                tr.span("sched.strand.work", op, || ctx.work(d.gap));
            }
        });
    }

    let (idle, timed) = timed(t0, || mc.run_until_idle());

    let mut books = Books::default();
    books.equal(idle, IdleOutcome::AllComplete, "run_until_idle");
    let mut c = Counts::default();
    c.add("ops", PACKETS);
    let (echo_n, echo_x) = echoed.get();
    let (reply_n, reply_x) = replied.get();
    let fs = fwd.stats();
    books.equal(echo_n, PACKETS, "every datagram echoed");
    books.equal(reply_n, PACKETS, "every echo returned");
    books.equal(echo_x, expected_xor, "echo checksum");
    books.equal(reply_x, expected_xor, "reply checksum");
    books.equal(fs.forwarded, PACKETS, "forwarder forwarded every datagram");
    books.equal(fs.replies, PACKETS, "forwarder relayed every echo");
    books.equal(fs.flows, 1, "one client flow");
    books.equal(credits.len(), WINDOW, "every credit returned");
    c.add("echoed", echo_n);
    c.add("replied", reply_n);
    c.add("forwarded", fs.forwarded);
    c.add("fwd_replies", fs.replies);
    c.add("flows", fs.flows);
    c.fabric(&mc, &board);
    for (_, _, stack, disp) in &hosts {
        c.stack(stack, disp);
    }
    c.strands(&timed);
    books.equal(c.get("wire_dropped"), 0, "zero dropped wire frames");
    books.equal(c.get("mail_dropped"), 0, "zero dropped envelopes");
    books.equal(
        c.get("mail_drained"),
        c.get("mail_posted"),
        "every envelope drained",
    );

    let latency = Latency::of(&rtts.lock());
    books.check(latency.p99_supported(), || {
        format!("p99 over {} samples has under ten beyond it", latency.count)
    });
    Outcome {
        ops: PACKETS,
        failed: PACKETS.saturating_sub(reply_n),
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
    fn plan_is_seeded_and_payloads_hold_the_header() {
        let a = plan(4);
        assert_eq!(a.len() as u64, PACKETS);
        assert!(a.iter().all(|d| (16..=64).contains(&d.len)));
        assert!(a.iter().all(|d| (20_000..120_000).contains(&d.gap)));
        let b = plan(5);
        assert!(a.iter().zip(&b).any(|(x, y)| x.gap != y.gap));
        assert!(a
            .iter()
            .zip(plan(4))
            .all(|(x, y)| x.gap == y.gap && x.len == y.len));
    }
}
