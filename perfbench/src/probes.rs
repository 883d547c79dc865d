//! Host unit-cost probes for the traced run: one strand switch, one
//! barrier epoch at the workload's shard and worker count, and one raise
//! against the forwarder's `UDP.PktArrived` guard set.

use crate::report::Record;
use crate::stats::median;
use crate::Workload;
use spin_core::Dispatcher;
use spin_net::pkt::{proto, Ipv4Header, UdpHeader};
use spin_net::{AddressMap, Bytes, Forwarder, IpAddr, NetStack, UdpPacket, UdpSocket};
use spin_sal::MulticoreBoard;
use spin_sched::{Executor, IdleOutcome, Multicore};
use std::hint::black_box;
use std::time::Instant;

const YIELDS: u64 = 5_000;
const TICKS: u64 = 5_000;
const RAISES: u64 = 50_000;
/// Each probe runs this many times; the record keeps the median.
const REPS: usize = 5;

/// Two strands yielding to each other: wall ns per executor switch.
fn switch_ns() -> f64 {
    let board = MulticoreBoard::new();
    let host = board.new_host(64);
    let exec = Executor::for_host(&host);
    for name in ["ping", "pong"] {
        exec.spawn(name, |ctx| {
            for _ in 0..YIELDS {
                ctx.yield_now();
            }
        });
    }
    let t = Instant::now();
    assert_eq!(exec.run_until_idle(), IdleOutcome::AllComplete);
    t.elapsed().as_nanos() as f64 / exec.switches().max(1) as f64
}

/// One strand ticking by the lookahead on shard 0 of an otherwise idle
/// board: wall ns per barrier epoch, each scanning every shard.
fn epoch_ns(shards: usize, workers: usize) -> f64 {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(workers, board.lookahead());
    let execs: Vec<_> = (0..shards)
        .map(|_| mc.add_host(board.new_host(64)))
        .collect();
    let step = mc.lookahead();
    execs[0].spawn("ticker", move |ctx| {
        for _ in 0..TICKS {
            ctx.sleep(step);
        }
    });
    let t = Instant::now();
    assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
    t.elapsed().as_nanos() as f64 / mc.stats().epochs.max(1) as f64
}

/// Raises of `UDP.PktArrived` on a stack carrying the forwarder's guard
/// set (its keyed port, its reply key range) and a bound port whose
/// in-path handler is empty: wall ns per raise.
fn raise_ns() -> f64 {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(1, board.lookahead());
    let host = board.new_host(256);
    let exec = mc.add_host(host.clone());
    let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
    let stack = NetStack::install(
        &host,
        &exec,
        &disp,
        &AddressMap::new(),
        IpAddr::new(10, 0, 0, 2),
        IpAddr::new(10, 1, 0, 2),
        IpAddr::new(10, 2, 0, 2),
    );
    let _fwd = Forwarder::install_udp(&stack, 7, IpAddr::new(10, 0, 0, 3));
    let _sink = UdpSocket::bind_with(&stack, 9000, "sink", |p| {
        black_box(p.payload.len());
    })
    .expect("bind sink");
    let payload = Bytes::from(vec![0u8; 16]);
    let packet = UdpPacket {
        ip: Ipv4Header {
            src: IpAddr::new(10, 0, 0, 1),
            dst: IpAddr::new(10, 0, 0, 2),
            protocol: proto::UDP,
            ttl: 64,
            total_len: (Ipv4Header::LEN + UdpHeader::LEN + payload.len()) as u16,
        },
        header: UdpHeader {
            src_port: 9000,
            dst_port: 9000,
            len: (UdpHeader::LEN + payload.len()) as u16,
        },
        payload,
    };
    let batch: Vec<UdpPacket> = (0..RAISES).map(|_| packet.clone()).collect();
    let ev = stack.events().udp_arrived.clone();
    let t = Instant::now();
    for p in batch {
        black_box(ev.raise(p)).expect("the sink handles the datagram");
    }
    t.elapsed().as_nanos() as f64 / RAISES as f64
}

pub fn run(w: Workload) -> Record {
    let mut rec = Record::default();
    let probes: [(&str, &dyn Fn() -> f64); 3] = [
        ("switch_ns", &switch_ns),
        ("epoch_ns", &|| epoch_ns(w.shards(), w.workers())),
        ("raise_ns", &raise_ns),
    ];
    for (k, probe) in probes {
        let v: Vec<f64> = (0..REPS).map(|_| probe()).collect();
        rec.nums.insert(k.to_string(), median(&v));
    }
    rec
}
