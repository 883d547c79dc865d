//! Property test for the shard horizon: `Executor::next_event_time` keeps
//! a running count of ready strands instead of scanning them, and must
//! still equal the scan-based definition — *now* if any strand is ready
//! or an interrupt is pending, else the next timer deadline clamped to
//! now — after every mix of spawn, block, unblock, yield, sleep, join and
//! finish, on every shard of a 1–4 shard runtime.

use proptest::prelude::*;
use spin_check::sync::Mutex;
use spin_sal::{IrqController, IrqVector, MulticoreBoard, Nanos};
use spin_sched::{Executor, Multicore, StrandCtx, StrandId};
use std::sync::Arc;

/// One step of a strand's script. Indices pick among the strands
/// registered on the same shard so far.
#[derive(Debug, Clone)]
enum Op {
    Work(u32),
    Yield,
    Block,
    Unblock(usize),
    Sleep(u32),
    Join(usize),
    Spawn,
    Irq,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..20_000).prop_map(Op::Work),
        Just(Op::Yield),
        Just(Op::Block),
        (0usize..8).prop_map(Op::Unblock),
        (1u32..50_000).prop_map(Op::Sleep),
        (0usize..8).prop_map(Op::Join),
        Just(Op::Spawn),
        Just(Op::Irq),
    ]
}

/// What the test can see of one shard, enough to evaluate the scan.
#[derive(Clone)]
struct ShardView {
    shard: usize,
    exec: Arc<Executor>,
    irqs: IrqController,
    strands: Arc<Mutex<Vec<(StrandId, String)>>>,
    mismatches: Arc<Mutex<Vec<String>>>,
}

impl ShardView {
    /// `next_event_time` by its scan-based definition. `me` is the strand
    /// asking, which is running and so not ready.
    fn scanned(&self, me: Option<StrandId>) -> Option<Nanos> {
        let now = self.exec.clock().now();
        let blocked = self.exec.blocked_strands();
        let ready = self.strands.lock().iter().any(|(id, name)| {
            Some(*id) != me && !self.exec.is_done(*id) && !blocked.contains(name)
        });
        if ready || self.irqs.has_pending() {
            return Some(now);
        }
        self.exec.timers().next_deadline().map(|t| t.max(now))
    }

    fn check(&self, me: Option<StrandId>, at: &str) {
        let (got, want) = (self.exec.next_event_time(), self.scanned(me));
        if got != want {
            self.mismatches
                .lock()
                .push(format!("{at}: next_event_time {got:?}, scan {want:?}"));
        }
    }

    fn spawn(&self, script: Vec<Op>) {
        let n = self.strands.lock().len();
        let name = format!("s{}-{n}", self.shard);
        let view = self.clone();
        let id = self.exec.spawn(&name, move |ctx| view.play(ctx, &script));
        self.strands.lock().push((id, name));
    }

    fn play(&self, ctx: &StrandCtx, script: &[Op]) {
        let me = ctx.id();
        let pick = |k: usize| {
            let strands = self.strands.lock();
            strands.get(k % strands.len()).map(|s| s.0)
        };
        for op in script {
            self.check(Some(me), &format!("before {op:?}"));
            match *op {
                Op::Work(ns) => ctx.work(ns as u64),
                Op::Yield => ctx.yield_now(),
                Op::Block => ctx.block(),
                Op::Unblock(k) => {
                    if let Some(id) = pick(k) {
                        self.exec.unblock(id);
                    }
                }
                Op::Sleep(ns) => ctx.sleep(ns as u64),
                Op::Join(k) => match pick(k) {
                    Some(id) if id != me => ctx.join(id),
                    _ => {}
                },
                Op::Spawn => self.spawn(vec![Op::Work(1_000), Op::Yield]),
                Op::Irq => self.irqs.post(IrqVector(1)),
            }
        }
        self.check(Some(me), "before finishing");
    }
}

/// Runs the scripts (one list per shard) in a few deadline-bounded steps,
/// checking every shard between steps and every strand before each op.
fn run(shards: &[Vec<Vec<Op>>]) -> Vec<String> {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(1, board.lookahead());
    let mismatches = Arc::new(Mutex::new(Vec::new()));
    let views: Vec<ShardView> = shards
        .iter()
        .enumerate()
        .map(|(shard, scripts)| {
            let host = board.new_host(16);
            let irqs = host.irqs.clone();
            let exec = mc.add_host(host);
            let wake = exec.clone();
            // An interrupt wakes the shard's first strand, as a device
            // completion would.
            let strands: Arc<Mutex<Vec<(StrandId, String)>>> = Arc::default();
            let first = strands.clone();
            irqs.register(IrqVector(1), move || {
                if let Some(&(id, _)) = first.lock().first() {
                    wake.unblock(id);
                }
            });
            let view = ShardView {
                shard,
                exec,
                irqs,
                strands,
                mismatches: mismatches.clone(),
            };
            for script in scripts {
                view.spawn(script.clone());
            }
            view
        })
        .collect();
    for step in 1..=4u64 {
        for v in &views {
            v.check(None, &format!("before step {step}"));
        }
        mc.run_until(step * 40_000);
    }
    mc.run_until_idle();
    for v in &views {
        v.check(None, "after the run");
        for (id, name) in v.strands.lock().iter() {
            if v.exec.panicked(*id) {
                mismatches.lock().push(format!("{name} panicked"));
            }
        }
    }
    let found = mismatches.lock().clone();
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ready_count_matches_the_scan(
        shards in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(op_strategy(), 1..8), 1..4),
            1..5,
        ),
    ) {
        let mismatches = run(&shards);
        prop_assert!(mismatches.is_empty(), "{:?}", mismatches);
    }
}
