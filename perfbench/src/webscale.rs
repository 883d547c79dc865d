//! `webscale`: the S10 storm at its 10⁴-connection rung.
//!
//! Shard 0 hosts the HTTP server — one poller-parked strand, the quota
//! cell armed — and eleven client shards each run a 64-strand connection
//! pool. Every connection is a closed loop in virtual time: think, connect,
//! send, read the whole reply, close. Some connections are slowloris
//! clients that send a truncated request and hold the socket until the
//! idle sweep reaps it. One op is one connection. The seed varies the
//! think gaps, the route each request asks for and which connections are
//! slowloris; seed 0 is S10's own draw.

use crate::gen::{mix, salt};
use crate::host::{timed, Timed};
use crate::stats::Latency;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{bump, load, Books, Counts, Outcome};
use parking_lot::Mutex;
use spin_core::{Dispatcher, QuotaLedger, QuotaSpec};
use spin_fs::{BufferCache, FileSystem, HybridBySize, NoCachePolicy, WebCache};
use spin_net::{
    AddressMap, Bytes, HttpConfig, HttpServer, IpAddr, Medium, NetStack, Request, Response,
    TcpStack,
};
use spin_sal::{MulticoreBoard, Nanos};
use spin_sched::{IdleOutcome, Multicore};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

pub const WORKERS: usize = 1;
/// Client shards (1..=CLIENT_SHARDS on the board; shard 0 is the server).
const CLIENT_SHARDS: usize = 11;
/// Connection-pool strands per client shard.
const POOL: usize = 64;
/// Connections per client shard: 11 × 909 = 9,999, S10's 10⁴ rung.
const PER_SHARD: u64 = 909;
const SERVER_PORT: u16 = 80;
/// Dynamic routes `/r0`..`/r5`; `/f6` and `/f7` are files.
const ROUTES: u64 = 6;
/// One connection in this many is a slowloris (on average).
const SLOW_EVERY: u64 = 512;

const BACKLOG: usize = 4096;
const IDLE_TIMEOUT: Nanos = 300_000_000;
const TICK: Nanos = 10_000_000;
const TIME_BOUND: Nanos = 1_000_000;
const WINDOW: Nanos = 10_000_000;
const WINDOW_BUDGET: Nanos = 2_000_000;
const SLOW_HOLD: Nanos = 800_000_000;
const WARM_AT: Nanos = 250_000_000;
const STORM_AT: Nanos = 400_000_000;

/// S10's figures at the 10⁴ rung and seed 0; the run must reproduce them
/// exactly to be that storm and not a look-alike.
const S10_RUNG: [(&str, u64); 7] = [
    ("ops", 9_999),
    ("epochs", 89_333),
    ("shard_runs", 92_836),
    ("mail_posted", 110_997),
    ("ok", 2_136),
    ("shed", 7_846),
    ("slow", 17),
];

/// One generated connection.
struct Conn {
    op: u64,
    think: Nanos,
    slow: bool,
    path: String,
}

/// Heavy-tailed think gap: mostly 40–200 µs, one in sixteen a 2 ms pause.
fn think_gap(key: u64) -> Nanos {
    let x = mix(key ^ 0x5eed_0bad);
    if x.is_multiple_of(16) {
        2_000_000
    } else {
        40_000 + x % 160_000
    }
}

fn is_slow(key: u64) -> bool {
    mix(key ^ 0x1de5_10e5).is_multiple_of(SLOW_EVERY)
}

fn path_of(key: u64) -> String {
    let r = mix(key ^ 0x0bad_cafe) % (ROUTES + 2);
    if r < ROUTES {
        format!("/r{r}")
    } else {
        format!("/f{r}")
    }
}

/// The connections strand `slot` of client shard `shard` makes, in order:
/// indices slot, slot + POOL, slot + 2·POOL, …
fn plan(seed: u64, shard: usize, slot: usize) -> Vec<Conn> {
    let salt = salt(seed);
    (slot as u64..PER_SHARD)
        .step_by(POOL)
        .map(|i| {
            let seq = ((shard as u64) << 32) | i;
            let key = seq ^ salt;
            Conn {
                op: seq,
                think: think_gap(key),
                slow: is_slow(key),
                path: path_of(key),
            }
        })
        .collect()
}

/// Deterministic dynamic-route body: 64–1024 bytes.
fn body_of(r: u64) -> Bytes {
    let len = 64 + (mix(r ^ 0xb0d7) % 961) as usize;
    let fill = (mix(r.wrapping_mul(31) ^ 0x7ea) & 0xff) as u8;
    Bytes::from(vec![fill; len])
}

/// The status code of a response (status line only: bodies are arbitrary
/// bytes).
pub fn parse_status(resp: &[u8]) -> u16 {
    let line = resp.split(|&b| b == b'\r').next().unwrap_or(&[]);
    std::str::from_utf8(line)
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

#[derive(Default)]
struct ShardCounters {
    ok: AtomicU64,
    shed: AtomicU64,
    other: AtomicU64,
    slow: AtomicU64,
    connect_failed: AtomicU64,
}

pub fn run(seed: u64, tr: &Tracer, t0: Instant) -> Outcome {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(WORKERS, board.lookahead());
    let addrs = AddressMap::new();

    let mut stacks = Vec::new();
    let mut execs = Vec::new();
    let mut tcps = Vec::new();
    for n in 0..=(CLIENT_SHARDS as u8) {
        let host = board.new_host(256);
        let exec = mc.add_host(host.clone());
        let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
        mc.wire_dispatcher(&disp, host.id);
        let stack = NetStack::install(
            &host,
            &exec,
            &disp,
            &addrs,
            IpAddr::new(10, 0, 0, n + 1),
            IpAddr::new(10, 1, 0, n + 1),
            IpAddr::new(10, 2, 0, n + 1),
        );
        tcps.push(TcpStack::install(&stack));
        stacks.push((host, stack, disp));
        execs.push(exec);
    }
    let (host0, stack0, _) = stacks[0].clone();
    let exec0 = execs[0].clone();
    let server_ip = stack0.ip_on(Medium::Atm);

    // The server's file system, uncached: the object cache fronts it.
    let bc = BufferCache::new(
        host0.disk.clone(),
        exec0.clone(),
        64,
        Box::new(NoCachePolicy),
    );
    let fs = FileSystem::format(bc, 0, 500);
    {
        let (fs, tr) = (fs.clone(), tr.clone());
        exec0.spawn("content", move |ctx| {
            for (path, fill, len) in [("/f6", b'f', 600), ("/f7", b'g', 4000)] {
                tr.parking("fs.file.write", NO_OP, || {
                    fs.create(path).expect("create content file");
                    fs.write_file(ctx, path, &vec![fill; len])
                        .expect("write content file");
                });
            }
        });
    }
    let cache = Arc::new(WebCache::new(
        1 << 20,
        Box::new(HybridBySize {
            large_threshold: 65_536,
        }),
    ));

    let ledger = QuotaLedger::new();
    let cell = ledger.register(
        "http",
        QuotaSpec {
            window: WINDOW,
            window_vt_budget: WINDOW_BUDGET,
            ..QuotaSpec::default()
        },
    );
    let server = HttpServer::start_with(
        &stack0,
        &tcps[0],
        fs,
        cache,
        SERVER_PORT,
        HttpConfig {
            backlog: BACKLOG,
            idle_timeout: IDLE_TIMEOUT,
            tick: TICK,
            time_bound: Some(TIME_BOUND),
            quota: Some(cell.clone()),
        },
    );
    for r in 0..ROUTES {
        let (body, tr) = (body_of(r), tr.clone());
        server.route(&format!("/r{r}"), move |_req: &Request| {
            tr.span("net.http.route", NO_OP, || Response::ok(body.clone()))
        });
    }

    // Warmup: fault both files through the object cache before the storm.
    let warm_ok = Arc::new(AtomicU64::new(0));
    {
        let (tcp, wk, tr) = (tcps[1].clone(), warm_ok.clone(), tr.clone());
        execs[1].spawn("warmup", move |ctx| {
            tr.parking("sched.strand.sleep", NO_OP, || ctx.sleep(WARM_AT));
            for path in ["/f6", "/f7"] {
                let conn = tr
                    .span("net.tcp.connect", NO_OP, || {
                        tcp.connect(ctx, server_ip, SERVER_PORT)
                    })
                    .expect("warm up");
                let req = format!("GET {path} HTTP/1.0\r\n\r\n");
                let _ = tr.parking("net.tcp.send", NO_OP, || conn.send(ctx, req.as_bytes()));
                let mut resp = Vec::new();
                while let Some(b) = tr.parking("net.tcp.recv", NO_OP, || conn.recv(ctx)) {
                    resp.extend_from_slice(&b);
                }
                tr.parking("net.tcp.close", NO_OP, || conn.close(ctx));
                if parse_status(&resp) == 200 {
                    bump(&wk);
                }
            }
        });
    }

    // The storm: per-shard 64-strand pools running their generated plans.
    let mut latencies = Vec::new();
    let mut counters = Vec::new();
    for shard in 1..=CLIENT_SHARDS {
        let lat: Arc<Mutex<Vec<Nanos>>> = Arc::new(Mutex::new(Vec::new()));
        let ctr = Arc::new(ShardCounters::default());
        for slot in 0..POOL {
            let conns = plan(seed, shard, slot);
            let tcp = tcps[shard].clone();
            let clock = execs[shard].clock().clone();
            let (lat, ctr, tr) = (lat.clone(), ctr.clone(), tr.clone());
            execs[shard].spawn(&format!("client-{shard}-{slot}"), move |ctx| {
                tr.parking("sched.strand.sleep", NO_OP, || ctx.sleep(STORM_AT));
                for c in conns {
                    let op = c.op;
                    tr.parking("sched.strand.sleep", op, || ctx.sleep(c.think));
                    tr.parking("bench.client", op, || {
                        let t0 = clock.now();
                        let conn = match tr.parking("net.tcp.connect", op, || {
                            tcp.connect(ctx, server_ip, SERVER_PORT)
                        }) {
                            Ok(conn) => conn,
                            Err(_) => return bump(&ctr.connect_failed),
                        };
                        if c.slow {
                            let _ =
                                tr.parking("net.tcp.send", op, || conn.send(ctx, b"GET /r0 HTT"));
                            tr.parking("sched.strand.sleep", op, || ctx.sleep(SLOW_HOLD));
                            while tr.parking("net.tcp.recv", op, || conn.recv(ctx)).is_some() {}
                            tr.parking("net.tcp.close", op, || conn.close(ctx));
                            bump(&ctr.slow);
                        } else {
                            let req = format!("GET {} HTTP/1.0\r\n\r\n", c.path);
                            let _ =
                                tr.parking("net.tcp.send", op, || conn.send(ctx, req.as_bytes()));
                            let mut resp = Vec::new();
                            while let Some(b) = tr.parking("net.tcp.recv", op, || conn.recv(ctx)) {
                                resp.extend_from_slice(&b);
                            }
                            tr.parking("net.tcp.close", op, || conn.close(ctx));
                            bump(match parse_status(&resp) {
                                200 => &ctr.ok,
                                503 => &ctr.shed,
                                _ => &ctr.other,
                            });
                            lat.lock().push(clock.now() - t0);
                        }
                    });
                }
            });
        }
        latencies.push(lat);
        counters.push(ctr);
    }

    let (idle, timed): (IdleOutcome, Timed) = timed(t0, || mc.run_until_idle());

    let mut books = Books::default();
    books.equal(idle, IdleOutcome::AllComplete, "run_until_idle");
    let ops = PER_SHARD * CLIENT_SHARDS as u64;
    let mut c = Counts::default();
    c.add("ops", ops);
    let mut pooled = Vec::new();
    let mut worst_p99 = 0;
    for (n, (lat, ctr)) in latencies.iter().zip(&counters).enumerate() {
        let lat = lat.lock();
        let l = Latency::of(&lat);
        worst_p99 = worst_p99.max(l.p99);
        c.add(&format!("lat_sum.{}", n + 1), l.sum);
        c.add(&format!("lat_xor.{}", n + 1), l.xor);
        pooled.extend_from_slice(&lat);
        let (ok, shed, other, slow) = (
            load(&ctr.ok),
            load(&ctr.shed),
            load(&ctr.other),
            load(&ctr.slow),
        );
        books.equal(
            ok + shed + other + slow,
            PER_SHARD,
            &format!("shard {}: connections accounted for", n + 1),
        );
        c.add("ok", ok);
        c.add("shed", shed);
        c.add("other", other);
        c.add("slow", slow);
        c.add("connect_failed", load(&ctr.connect_failed));
    }
    c.add("worst_shard_p99_ns", worst_p99);
    let (ok, shed, slow) = (c.get("ok"), c.get("shed"), c.get("slow"));
    let failed = c.get("connect_failed") + c.get("other");

    // Client vs server vs quota: the books close exactly.
    let http = server.stats();
    let warm = load(&warm_ok);
    books.equal(warm, 2, "warmup faulted both files");
    books.equal(
        http.requests,
        ok + shed + 2,
        "server parsed storm + warmup requests",
    );
    books.equal(http.ok, ok + 2, "client and server agree on 200s");
    books.equal(http.shed, shed, "client and server agree on 503s");
    books.equal(
        (http.not_found, http.bad_requests),
        (0, 0),
        "no 404s or 400s",
    );
    books.equal(
        http.timeouts,
        slow,
        "idle sweep reaps exactly the slowloris",
    );
    let quota = cell.snapshot();
    books.equal(
        quota.attempts,
        http.requests,
        "quota attempts == server requests",
    );
    books.equal(
        quota.attempts,
        quota.admitted + quota.throttled + quota.shed + quota.held,
        "quota ledger identity",
    );
    books.equal(quota.admitted, quota.completed, "every admission completed");
    books.equal(quota.in_flight, 0, "nothing in flight");
    books.equal(
        quota.throttled + quota.shed,
        http.shed,
        "quota refusals are the 503s",
    );
    c.add("warm_ok", warm);
    c.add("http_requests", http.requests);
    c.add("http_ok", http.ok);
    c.add("http_shed", http.shed);
    c.add("http_timeouts", http.timeouts);
    c.quota(&quota);
    let cache = server.cache().stats();
    c.add("cache_hits", cache.hits);
    c.add("cache_misses", cache.misses);
    c.add("cache_bypasses", cache.bypasses);

    c.fabric(&mc, &board);
    for (_, stack, disp) in &stacks {
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

    let latency = Latency::of(&pooled);
    books.check(latency.p99_supported(), || {
        format!("p99 over {} samples has under ten beyond it", latency.count)
    });
    if seed == 0 {
        for (key, want) in S10_RUNG {
            books.equal(c.get(key), want, &format!("S10 10^4 rung {key}"));
        }
    }
    Outcome {
        ops,
        failed,
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
    fn plan_covers_every_connection_once() {
        let mut ops: Vec<u64> = (0..POOL)
            .flat_map(|s| plan(3, 1, s))
            .map(|c| c.op)
            .collect();
        ops.sort_unstable();
        let want: Vec<u64> = (0..PER_SHARD).map(|i| (1 << 32) | i).collect();
        assert_eq!(ops, want);
    }

    #[test]
    fn seed_varies_the_draws() {
        let a = plan(0, 2, 5);
        let b = plan(1, 2, 5);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.think != y.think || x.path != y.path));
        let again = plan(1, 2, 5);
        assert!(b
            .iter()
            .zip(&again)
            .all(|(x, y)| x.think == y.think && x.slow == y.slow));
    }

    #[test]
    fn status_line_parse() {
        assert_eq!(parse_status(b"HTTP/1.0 200 OK\r\n\r\n\xff\xfe"), 200);
        assert_eq!(parse_status(b"HTTP/1.0 503 Busy\r\n"), 503);
        assert_eq!(parse_status(b""), 0);
    }
}
