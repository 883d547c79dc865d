//! The deterministic strand executor.
//!
//! Every *strand* (§4.2: "a strand is similar to a thread ... \[but\] has no
//! minimal or requisite kernel state other than a name") is backed by a
//! real OS thread, but **exactly one simulated context of a run holds the
//! processor at a time**: the processor is a baton, and all scheduling
//! decisions are made by a [`SchedulerPolicy`] under the executor lock, so
//! runs are reproducible regardless of OS scheduling.
//!
//! There is no coordinator thread that every slice returns to. A strand
//! that blocks, yields or finishes does the scheduler's work on its own OS
//! thread: it raises the Checkpoint hook for itself, fires due timers,
//! dispatches device interrupts, dequeues the next strand — skipping the
//! virtual clock forward to the next timer deadline while none is
//! runnable — and signals that strand's baton directly. If it picks itself
//! again it signals nothing and keeps running. One slice therefore costs
//! one OS context switch, not a round trip through a coordinator.
//!
//! A run walks a resumable cursor (`Drive`) over `(executor, grant)`
//! items: [`Executor::run_until`] is a single item; [`Multicore`] feeds it
//! the shards of its epoch plans, so the strand that ends one shard's slice
//! also drains the next shard's mailbox and plans the next epoch. The
//! thread that started the run parks until the last item ends. Code pumped
//! on a strand's thread (a timer callback, an interrupt handler) runs
//! outside that strand's containment: if it panics, the cursor carries the
//! panic to the thread that started the run and re-raises it there.
//!
//! Preemption reproduces the paper's "the kernel is preemptive, ensuring
//! that a handler cannot take over the processor": a strand's slice is
//! read off the clock — the virtual time since it was placed on the
//! processor — and the strand is descheduled at its next *safe point*
//! ([`StrandCtx::preempt_point`], and every blocking or yielding
//! operation) once that slice exceeds the quantum. Safe-point preemption
//! keeps the simulation deadlock-free while preserving quantum semantics
//! on the virtual timeline. CPU time is billed per slice, not per charge:
//! while a strand holds the processor only its own charges move the clock
//! (timers, interrupts and the switch run with no strand current), so a
//! charge pays no scheduler bookkeeping.
//!
//! [`Multicore`]: crate::shard::Multicore

use spin_check::sync::{AtomicU64, Ordering};
use spin_check::sync::{Condvar, Mutex};
use spin_core::DeadlineExceeded;
use spin_fault::{FaultHook, Injection};
use spin_obs::{ObsHook, TraceKind};
use spin_sal::{Clock, HostId, IrqController, MachineProfile, Nanos, TimerQueue};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Identifier of a strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrandId(pub u64);

/// Why [`Executor::run_until_idle`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdleOutcome {
    /// Every strand ran to completion.
    AllComplete,
    /// Runnable work remains but the deadline was reached.
    DeadlineReached,
    /// No strand is runnable, no timer is pending, yet strands are blocked.
    Deadlock { blocked: Vec<String> },
}

/// A pluggable scheduling policy: the paper's *global scheduler*.
///
/// "While the global scheduling policy is replaceable, it cannot be
/// replaced by an arbitrary application" (§4.2) — replacing it through
/// [`Executor::set_policy`] is a trusted operation.
pub trait SchedulerPolicy: Send {
    /// Makes a strand runnable.
    fn enqueue(&mut self, strand: StrandId, priority: u8);
    /// Picks the next strand to run.
    fn dequeue(&mut self) -> Option<StrandId>;
    /// Removes a strand wherever it is queued.
    fn remove(&mut self, strand: StrandId);
    /// Policy name for diagnostics.
    fn name(&self) -> &'static str;
}

/// The default global scheduler: "a round-robin, preemptive, priority
/// policy" (§4.2). Higher priority runs first; equal priorities round-robin
/// in FIFO order.
#[derive(Default)]
pub struct RoundRobinPriority {
    queues: std::collections::BTreeMap<u8, std::collections::VecDeque<StrandId>>,
}

impl SchedulerPolicy for RoundRobinPriority {
    fn enqueue(&mut self, strand: StrandId, priority: u8) {
        self.queues.entry(priority).or_default().push_back(strand);
    }
    fn dequeue(&mut self) -> Option<StrandId> {
        // Highest priority band first.
        let (&prio, _) = self.queues.iter().rev().find(|(_, q)| !q.is_empty())?;
        let q = self.queues.get_mut(&prio).expect("found above");
        q.pop_front()
    }
    fn remove(&mut self, strand: StrandId) {
        for q in self.queues.values_mut() {
            q.retain(|&s| s != strand);
        }
    }
    fn name(&self) -> &'static str {
        "round-robin preemptive priority"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Ready,
    Running,
    Blocked,
    Done,
}

struct Baton {
    go: Mutex<bool>,
    cv: Condvar,
}

impl Baton {
    fn new() -> Arc<Self> {
        Arc::new(Baton {
            go: Mutex::new(false),
            cv: Condvar::new(),
        })
    }
    fn wait(&self) {
        let mut go = self.go.lock();
        while !*go {
            self.cv.wait(&mut go);
        }
        *go = false;
    }
    fn signal(&self) {
        *self.go.lock() = true;
        self.cv.notify_one();
    }
}

struct StrandInfo {
    name: String,
    priority: u8,
    host: HostId,
    state: RunState,
    baton: Arc<Baton>,
    cpu_ns: Nanos,
    joiners: Vec<StrandId>,
    panicked: bool,
    /// Daemons (device threads, protocol threads) may stay blocked forever
    /// without counting as deadlock or preventing completion.
    daemon: bool,
    /// Virtual-time deadline enforced at safe points (`u64::MAX` = none).
    /// Shared with the strand's [`StrandCtx`] so each check is one atomic
    /// load; past the deadline the strand unwinds with [`DeadlineExceeded`].
    deadline: Arc<AtomicU64>,
}

struct ExecState {
    strands: BTreeMap<StrandId, StrandInfo>,
    /// How many strands are `Ready`: kept in step by [`set_state`] so the
    /// shard horizon needs no scan of `strands`.
    ready: usize,
    policy: Box<dyn SchedulerPolicy>,
    current: Option<StrandId>,
    host_busy: BTreeMap<HostId, Nanos>,
    switches: u64,
    /// The run that placed the running strand on the processor: the one
    /// that strand continues when it gives the processor up.
    drive: Option<Arc<Drive>>,
}

/// Moves a strand to `to`, keeping [`ExecState::ready`] in step. Every
/// entry to and exit from `Ready` passes through here.
fn set_state(ready: &mut usize, info: &mut StrandInfo, to: RunState) {
    *ready += usize::from(to == RunState::Ready);
    *ready -= usize::from(info.state == RunState::Ready);
    info.state = to;
}

/// Hooks raised around scheduling transitions so stacked schedulers and
/// thread packages can observe them (wired to dispatcher events by
/// [`events::StrandEvents`](crate::events::StrandEvents)).
type TransitionHook = Box<dyn Fn(StrandId) + Send + Sync>;

/// Quota demotion hook, consulted at every ready-queue enqueue: given the
/// strand's name, its base priority, and the current virtual instant, it
/// returns the priority to enqueue at. The quota ledger wires this to
/// demote strands of a domain that exhausted its window virtual-time
/// budget to the spec's deferred lane — the strand still runs (demote,
/// don't starve), just behind well-behaved work. Must be a pure function
/// of virtual-time state so worker count cannot change outcomes.
pub type SchedQuotaHook = Arc<dyn Fn(&str, u8, Nanos) -> u8 + Send + Sync>;

struct Hooks {
    block: TransitionHook,
    unblock: TransitionHook,
    checkpoint: TransitionHook,
    resume: TransitionHook,
}

/// The executor.
pub struct Executor {
    clock: Clock,
    timers: TimerQueue,
    profile: Arc<MachineProfile>,
    state: Mutex<ExecState>,
    irqs: Mutex<Vec<IrqController>>,
    next_id: AtomicU64,
    quantum: AtomicU64,
    /// Virtual time at which the running strand was placed on the
    /// processor. Its slice so far is `clock.now() - slice_start`.
    slice_start: AtomicU64,
    /// Strand transition hooks: absent until wired, and every block,
    /// unblock, checkpoint and resume then pays one atomic load.
    hooks: spin_core::hooks::HookSlot<Hooks>,
    /// Observability hook (scheduler domain): absent until wired, and the
    /// per-switch fast path is then a single atomic load.
    obs: spin_core::hooks::HookSlot<ObsHook>,
    /// Fault-injection hook (`sched.executor` site): absent until wired;
    /// drawn once at each strand body's entry, inside the containment
    /// `catch_unwind`, so an injected panic never kills the process.
    faults: spin_core::hooks::HookSlot<FaultHook>,
    /// Quota demotion hook: absent until wired, and every enqueue then
    /// pays exactly one relaxed load (the unarmed cost-model invariant).
    quota: spin_core::hooks::HookSlot<SchedQuotaHook>,
}

impl Executor {
    /// Creates an executor on the shared timeline.
    pub fn new(clock: Clock, timers: TimerQueue, profile: Arc<MachineProfile>) -> Arc<Executor> {
        Arc::new(Executor {
            clock,
            timers,
            profile,
            state: Mutex::new(ExecState {
                strands: BTreeMap::new(),
                ready: 0,
                policy: Box::new(RoundRobinPriority::default()),
                current: None,
                host_busy: BTreeMap::new(),
                switches: 0,
                drive: None,
            }),
            irqs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            quantum: AtomicU64::new(1_000_000), // 1 ms virtual quantum
            slice_start: AtomicU64::new(0),
            hooks: spin_core::hooks::HookSlot::new(),
            obs: spin_core::hooks::HookSlot::new(),
            faults: spin_core::hooks::HookSlot::new(),
            quota: spin_core::hooks::HookSlot::new(),
        })
    }

    /// Convenience: an executor for a single simulated host.
    pub fn for_host(host: &spin_sal::Host) -> Arc<Executor> {
        let exec = Executor::new(
            host.clock.clone(),
            host.timers.clone(),
            host.profile.clone(),
        );
        exec.add_irq_controller(host.irqs.clone());
        exec
    }

    /// Registers a host's interrupt controller for pumping.
    pub fn add_irq_controller(&self, irqs: IrqController) {
        self.irqs.lock().push(irqs);
    }

    /// Replaces the global scheduling policy (trusted operation).
    pub fn set_policy(&self, policy: Box<dyn SchedulerPolicy>) {
        let mut st = self.state.lock();
        // Re-enqueue currently ready strands into the new policy.
        let ready: Vec<(StrandId, u8)> = {
            let mut v = Vec::new();
            let mut old = std::mem::replace(&mut st.policy, policy);
            while let Some(id) = old.dequeue() {
                if let Some(info) = st.strands.get(&id) {
                    v.push((id, info.priority));
                }
            }
            v
        };
        for (id, prio) in ready {
            st.policy.enqueue(id, prio);
        }
    }

    /// Sets the preemption quantum (virtual nanoseconds).
    pub fn set_quantum(&self, ns: Nanos) {
        self.quantum.store(ns, Ordering::Relaxed); // ordering: Relaxed — configuration, consulted at the running strand's next safe point.
    }

    /// Installs transition hooks (used by `events` to raise dispatcher
    /// events on Block/Unblock/Checkpoint/Resume). One-shot: a second call
    /// is ignored and the first hooks stay.
    pub(crate) fn set_hooks(
        &self,
        block: TransitionHook,
        unblock: TransitionHook,
        checkpoint: TransitionHook,
        resume: TransitionHook,
    ) {
        let _ = self.hooks.set(Hooks {
            block,
            unblock,
            checkpoint,
            resume,
        });
    }

    /// Wires the observability subsystem: virtual CPU charges and context
    /// switches are accounted to the scheduler domain. One-shot; charges
    /// zero virtual time. Only then does the executor subscribe to the
    /// clock ([`Clock::charges_observed`]), with one lock-free counter.
    pub fn set_obs(&self, hook: ObsHook) {
        let counters = hook.counters.clone();
        if self.obs.set(hook) {
            self.clock.add_advance_hook(Box::new(move |ns| {
                counters.cpu_ns.fetch_add(ns, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            }));
        }
    }

    /// Wires the deterministic fault-injection plan's `sched.executor`
    /// site. One-shot; with the plan disabled the per-spawn cost is a
    /// single relaxed atomic load.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        let _ = self.faults.set(hook);
    }

    /// Wires the quota demotion hook (see [`SchedQuotaHook`]). One-shot;
    /// charges zero virtual time — demotion is a pure enqueue-time
    /// priority rewrite, so the virtual timeline is untouched and the
    /// unarmed path stays byte-identical.
    pub fn set_quota_hook(&self, hook: SchedQuotaHook) {
        let _ = self.quota.set(hook);
    }

    /// The priority a strand is enqueued at: its base priority, unless the
    /// quota hook demotes it at the current virtual instant.
    fn effective_priority(&self, name: &str, base: u8) -> u8 {
        match self.quota.get() {
            Some(hook) => hook(name, base, self.clock.now()),
            None => base,
        }
    }

    /// Virtual time the running strand has held the processor so far.
    fn slice(&self) -> Nanos {
        self.clock.now() - self.slice_start.load(Ordering::Relaxed) // ordering: Relaxed — stored under the state lock before the strand's baton passes; that lock orders it for every reader.
    }

    /// Takes the running strand off the processor: bills its slice to the
    /// strand and its host and returns it.
    fn end_slice(&self, st: &mut ExecState) -> StrandId {
        let cur = st.current.take().expect("a strand was current");
        let info = st.strands.get_mut(&cur).expect("current exists");
        let ns = self.slice();
        info.cpu_ns += ns;
        *st.host_busy.entry(info.host).or_insert(0) += ns;
        cur
    }

    /// Spawns a strand on host 0 at priority 8.
    pub fn spawn(
        self: &Arc<Self>,
        name: &str,
        f: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> StrandId {
        self.spawn_on(HostId(0), name, 8, f)
    }

    /// Spawns a strand on a host at a priority.
    pub fn spawn_on(
        self: &Arc<Self>,
        host: HostId,
        name: &str,
        priority: u8,
        f: impl FnOnce(&StrandCtx) + Send + 'static,
    ) -> StrandId {
        self.clock.advance(self.profile.thread_create);
        let id = StrandId(self.next_id.fetch_add(1, Ordering::Relaxed)); // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
        let baton = Baton::new();
        let deadline = Arc::new(AtomicU64::new(u64::MAX));
        {
            let mut st = self.state.lock();
            st.strands.insert(
                id,
                StrandInfo {
                    name: name.to_string(),
                    priority,
                    host,
                    state: RunState::Ready,
                    baton: baton.clone(),
                    cpu_ns: 0,
                    joiners: Vec::new(),
                    panicked: false,
                    daemon: false,
                    deadline: deadline.clone(),
                },
            );
            st.ready += 1; // born Ready
            let prio = self.effective_priority(name, priority);
            st.policy.enqueue(id, prio);
        }
        let exec = self.clone();
        let thread_name = format!("strand-{}", name);
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                baton.wait(); // wait to be scheduled the first time
                let ctx = StrandCtx {
                    exec: exec.clone(),
                    id,
                    deadline,
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // The sched.executor injection site: drawn while the
                    // strand is current, inside containment, so an injected
                    // panic marks this strand panicked without taking down
                    // the simulation.
                    if let Some(h) = exec.faults.get() {
                        match h.draw() {
                            Some(Injection::Panic) => h.fire_panic(),
                            Some(Injection::Delay(ns)) => exec.clock.advance(ns),
                            Some(Injection::Fail) | None => {}
                        }
                    }
                    f(&ctx)
                }));
                exec.finish_current(result.is_err());
            })
            .expect("spawn strand thread");
        id
    }

    /// Strand termination: wake joiners, then hand the processor on.
    fn finish_current(&self, panicked: bool) {
        let (me, drive) = {
            let mut st = self.state.lock();
            let st = &mut *st;
            let cur = self.end_slice(st);
            let joiners = {
                let info = st.strands.get_mut(&cur).expect("current exists");
                set_state(&mut st.ready, info, RunState::Done);
                info.panicked = panicked;
                std::mem::take(&mut info.joiners)
            };
            for j in joiners {
                self.make_ready(st, j);
            }
            (
                cur,
                st.drive.take().expect("a running strand is inside a run"),
            )
        };
        let kept = self.hand_off(me, drive);
        debug_assert!(!kept, "a finished strand is never picked");
        // Thread exits; the OS thread is never reused.
    }

    fn make_ready(&self, st: &mut ExecState, id: StrandId) {
        if let Some(info) = st.strands.get_mut(&id) {
            // Already-Ready strands stay queued; anything else (Running,
            // Finished) is not resurrectable here.
            if info.state == RunState::Blocked {
                set_state(&mut st.ready, info, RunState::Ready);
                let prio = self.effective_priority(&info.name, info.priority);
                st.policy.enqueue(id, prio);
            }
        }
    }

    /// Makes a blocked strand runnable. Safe from any context, including
    /// interrupt handlers and timer callbacks. Raises the Unblock hook.
    pub fn unblock(&self, id: StrandId) {
        if let Some(h) = self.hooks.get() {
            (h.unblock)(id);
        }
        self.clock.advance(self.profile.sync_op);
        let mut st = self.state.lock();
        self.make_ready(&mut st, id);
    }

    /// Gives up the processor: the calling strand takes `new_state` and
    /// runs the scheduler's turn itself, returning once it is picked again.
    fn switch_out(&self, new_state: RunState) {
        let (me, my_baton, drive) = {
            let mut st = self.state.lock();
            let st = &mut *st;
            let cur = self.end_slice(st);
            let info = st.strands.get_mut(&cur).expect("current exists");
            set_state(&mut st.ready, info, new_state);
            let baton = info.baton.clone();
            if new_state == RunState::Ready {
                let prio = self.effective_priority(&info.name, info.priority);
                st.policy.enqueue(cur, prio);
            }
            let drive = st.drive.take().expect("a running strand is inside a run");
            (cur, baton, drive)
        };
        if !self.hand_off(me, drive) {
            my_baton.wait();
        }
    }

    /// Takes the scheduler's turn on the thread of `me`, which has just
    /// left `Running`, and passes the processor straight to the strand the
    /// turn picks. Returns whether that strand is `me` itself — then
    /// nothing is signalled and `me` keeps running.
    fn hand_off(&self, me: StrandId, drive: Arc<Drive>) -> bool {
        match drive.turn_caught(Some((self, me))) {
            Turn::Keep => true,
            Turn::Pass(baton) => {
                baton.signal();
                false
            }
            Turn::Over(result) => {
                drive.finish(result);
                false
            }
        }
    }

    /// Blocks the calling strand until [`Executor::unblock`]. Raises the
    /// Block hook ("a disk driver can direct a scheduler to block the
    /// current strand during an I/O operation").
    fn block_current(&self) {
        if let Some(h) = self.hooks.get() {
            let cur = self.state.lock().current;
            (h.block)(cur.expect("block from a running strand"));
        }
        self.clock.advance(self.profile.sync_op);
        self.switch_out(RunState::Blocked);
    }

    fn yield_current(&self) {
        self.switch_out(RunState::Ready);
    }

    /// Runs the simulation until every strand completes, a deadline is hit,
    /// or the system deadlocks. Must be called from outside any strand.
    pub fn run_until_idle(self: &Arc<Self>) -> IdleOutcome {
        self.run_until(Nanos::MAX)
    }

    /// Like [`Executor::run_until_idle`] with a virtual-time deadline.
    pub fn run_until(self: &Arc<Self>, deadline: Nanos) -> IdleOutcome {
        Drive::new(Box::new(Single(Some((self.clone(), deadline))))).run()
    }

    /// One scheduler turn, up to `deadline`: fire due timers, dispatch
    /// interrupts, and place the next ready strand on the processor —
    /// skipping the clock to the next timer while none is ready. Returns
    /// the placed strand with the baton still to signal, or how the item
    /// ended.
    fn pump(&self, drive: &Arc<Drive>, deadline: Nanos) -> Pumped {
        loop {
            if self.clock.now() >= deadline {
                return Pumped::Ended(IdleOutcome::DeadlineReached);
            }
            // Pump completions and interrupts first: they may unblock work.
            self.timers.fire_due(self.clock.now());
            for irqs in self.irqs.lock().iter() {
                irqs.dispatch_pending();
            }

            let next = {
                let mut st = self.state.lock();
                loop {
                    match st.policy.dequeue() {
                        Some(id)
                            if st.strands.get(&id).map(|i| i.state) == Some(RunState::Ready) =>
                        {
                            break Some(id)
                        }
                        Some(_) => continue, // stale queue entry
                        None => break None,
                    }
                }
            };

            match next {
                Some(id) => {
                    self.clock
                        .advance(self.profile.sched_decision + self.profile.context_switch);
                    if let Some(h) = self.hooks.get() {
                        (h.resume)(id);
                    }
                    if let Some(obs) = self.obs.get() {
                        obs.counters
                            .context_switches
                            .fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                        obs.trace(TraceKind::ContextSwitch, id.0, 0);
                    }
                    let mut st = self.state.lock();
                    let st = &mut *st;
                    st.switches += 1;
                    st.current = Some(id);
                    // The slice starts after the switch charge and the
                    // Resume hook: neither is the strand's CPU time.
                    self.slice_start.store(self.clock.now(), Ordering::Relaxed); // ordering: Relaxed — under the state lock, before the strand's baton passes; see `slice`.
                    st.drive = Some(drive.clone());
                    let info = st.strands.get_mut(&id).expect("dequeued strand exists");
                    set_state(&mut st.ready, info, RunState::Running);
                    return Pumped::Run(id, info.baton.clone());
                }
                None => {
                    // Idle: advance to the next timer, or stop.
                    match self.timers.next_deadline() {
                        Some(t) if t >= deadline => {
                            self.clock.skip_to(deadline);
                            return Pumped::Ended(IdleOutcome::DeadlineReached);
                        }
                        Some(t) => {
                            self.clock.skip_to(t.max(self.clock.now()));
                        }
                        None => {
                            let st = self.state.lock();
                            let blocked: Vec<String> = st
                                .strands
                                .values()
                                .filter(|i| i.state == RunState::Blocked && !i.daemon)
                                .map(|i| i.name.clone())
                                .collect();
                            return Pumped::Ended(if blocked.is_empty() {
                                IdleOutcome::AllComplete
                            } else {
                                IdleOutcome::Deadlock { blocked }
                            });
                        }
                    }
                }
            }
        }
    }

    /// Raises the Checkpoint hook for a strand that left the processor.
    fn checkpoint(&self, id: StrandId) {
        if let Some(h) = self.hooks.get() {
            (h.checkpoint)(id);
        }
    }

    /// The earliest virtual time at which this executor has something to
    /// do: *now* if a strand is runnable or an interrupt is pending,
    /// otherwise the next timer deadline (clamped to now — a stale due
    /// timer is actionable immediately, not in the past). `None` means
    /// fully idle. This is a shard's event horizon in the conservative-PDES
    /// barrier (`Multicore`).
    pub fn next_event_time(&self) -> Option<Nanos> {
        let now = self.clock.now();
        let has_ready = {
            let st = self.state.lock();
            debug_assert_eq!(
                st.ready,
                st.strands
                    .values()
                    .filter(|i| i.state == RunState::Ready)
                    .count(),
                "ready count out of step with the strand states"
            );
            st.ready > 0
        };
        if has_ready || self.irqs.lock().iter().any(|i| i.has_pending()) {
            return Some(now);
        }
        self.timers.next_deadline().map(|t| t.max(now))
    }

    /// Names of blocked non-daemon strands (sorted). A shard that is idle
    /// with a non-empty list is deadlocked *locally*; whether that is a
    /// system deadlock is decided by the multicore barrier, which also sees
    /// in-flight cross-shard mail.
    pub fn blocked_strands(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut v: Vec<String> = st
            .strands
            .values()
            .filter(|i| i.state == RunState::Blocked && !i.daemon)
            .map(|i| i.name.clone())
            .collect();
        v.sort();
        v
    }

    /// Marks a strand as a daemon: it may remain blocked forever without
    /// being reported as deadlocked (device and protocol service threads).
    pub fn set_daemon(&self, id: StrandId) {
        if let Some(info) = self.state.lock().strands.get_mut(&id) {
            info.daemon = true;
        }
    }

    /// Whether a strand has finished.
    pub fn is_done(&self, id: StrandId) -> bool {
        self.state
            .lock()
            .strands
            .get(&id)
            .map(|i| i.state == RunState::Done)
            .unwrap_or(false)
    }

    /// Whether a strand panicked.
    pub fn panicked(&self, id: StrandId) -> bool {
        self.state
            .lock()
            .strands
            .get(&id)
            .map(|i| i.panicked)
            .unwrap_or(false)
    }

    /// Virtual CPU time consumed by a strand, its running slice included.
    pub fn cpu_time(&self, id: StrandId) -> Nanos {
        let st = self.state.lock();
        let live = st.current.filter(|&c| c == id).map_or(0, |_| self.slice());
        st.strands.get(&id).map_or(0, |i| i.cpu_ns + live)
    }

    /// Virtual CPU time consumed on a host (the Figure 6 utilization
    /// numerator), the running slice included.
    pub fn host_busy(&self, host: HostId) -> Nanos {
        let st = self.state.lock();
        let running = st.current.and_then(|c| st.strands.get(&c));
        let live = running
            .filter(|i| i.host == host)
            .map_or(0, |_| self.slice());
        st.host_busy.get(&host).copied().unwrap_or(0) + live
    }

    /// Number of context switches performed.
    pub fn switches(&self) -> u64 {
        self.state.lock().switches
    }

    /// The executor's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The executor's machine profile.
    pub fn profile(&self) -> &Arc<MachineProfile> {
        &self.profile
    }

    /// The executor's timer queue.
    pub fn timers(&self) -> &TimerQueue {
        &self.timers
    }

    /// The currently running strand, if called from strand context.
    pub fn current(&self) -> Option<StrandId> {
        self.state.lock().current
    }

    /// A [`StrandCtx`] for the currently running strand. Used by trusted
    /// code (fault handlers, interrupt bottom halves) that must block the
    /// strand it happens to be running on — e.g. a demand pager waiting
    /// for disk I/O inside a `Translation.PageNotPresent` handler.
    pub fn current_ctx(self: &Arc<Self>) -> Option<StrandCtx> {
        let st = self.state.lock();
        let id = st.current?;
        let deadline = st.strands.get(&id)?.deadline.clone();
        Some(StrandCtx {
            exec: self.clone(),
            id,
            deadline,
        })
    }
}

/// What one scheduler turn of an executor came to.
enum Pumped {
    /// This strand now holds the processor; its baton is still to signal.
    Run(StrandId, Arc<Baton>),
    /// The item is over: nothing is ready before its grant.
    Ended(IdleOutcome),
}

/// The `(executor, grant)` items one run walks, in order.
pub(crate) trait Items: Send {
    /// Moves to the next item, or returns the run's outcome once there is
    /// none. `ended` is how the previous item ended (`None` before the
    /// first). Runs on whichever thread holds the processor.
    fn next(&mut self, ended: Option<IdleOutcome>) -> Result<(Arc<Executor>, Nanos), IdleOutcome>;
}

/// The single item behind [`Executor::run_until`].
struct Single(Option<(Arc<Executor>, Nanos)>);

impl Items for Single {
    fn next(&mut self, ended: Option<IdleOutcome>) -> Result<(Arc<Executor>, Nanos), IdleOutcome> {
        self.0.take().ok_or_else(|| ended.expect("the item ended"))
    }
}

/// What a turn of the cursor leaves the thread that took it to do.
enum Turn {
    /// The strand that gave up the processor was picked again.
    Keep,
    /// Another strand was picked: signal its baton.
    Pass(Arc<Baton>),
    /// No item is left: the run is over, or pumped code panicked.
    Over(std::thread::Result<IdleOutcome>),
}

/// One run: a resumable cursor over [`Items`], advanced by whichever
/// thread holds the processor — the thread that started the run, then each
/// strand as it gives the processor up.
pub(crate) struct Drive {
    cursor: Mutex<Cursor>,
    /// The thread that started the run parks here until it is over.
    parked: Arc<Baton>,
    result: Mutex<Option<std::thread::Result<IdleOutcome>>>,
}

struct Cursor {
    items: Box<dyn Items>,
    /// The current item's grant (`None` outside a run).
    grant: Option<Nanos>,
}

impl Drive {
    pub(crate) fn new(items: Box<dyn Items>) -> Arc<Drive> {
        Arc::new(Drive {
            cursor: Mutex::new(Cursor { items, grant: None }),
            parked: Baton::new(),
            result: Mutex::new(None),
        })
    }

    /// Walks every item, parking the calling thread while strands hold the
    /// processor, and returns how the last item's walk ended. A panic in
    /// pumped code is re-raised here, whichever thread it happened on. A
    /// drive may be run again once a run is over: its items start anew.
    pub(crate) fn run(self: &Arc<Self>) -> IdleOutcome {
        let result = match self.turn_caught(None) {
            Turn::Over(result) => result,
            Turn::Pass(baton) => {
                baton.signal();
                self.parked.wait();
                self.result
                    .lock()
                    .take()
                    .expect("a finished run leaves its result")
            }
            Turn::Keep => unreachable!("only a strand can be picked again"),
        };
        result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Ends the run with `result` and wakes the thread that started it.
    fn finish(&self, result: std::thread::Result<IdleOutcome>) {
        *self.result.lock() = Some(result);
        self.parked.signal();
    }

    /// [`Drive::turn`], except that a panic ends the run instead of
    /// unwinding the thread that took the turn: on a strand, that unwind
    /// would land in the strand's own containment.
    fn turn_caught(self: &Arc<Self>, me: Option<(&Executor, StrandId)>) -> Turn {
        catch_unwind(AssertUnwindSafe(|| self.turn(me))).unwrap_or_else(|payload| {
            self.cursor.lock().grant = None;
            Turn::Over(Err(payload))
        })
    }

    /// The scheduler's turn: `me` (absent on the thread that started the
    /// run) has just given up the processor on its executor, the current
    /// item's. Pumps that item, moving on as each item ends, until a
    /// strand is picked or no item is left.
    fn turn(self: &Arc<Self>, me: Option<(&Executor, StrandId)>) -> Turn {
        let mut owned: Arc<Executor>;
        let (mut exec, mut grant) = match me {
            Some((exec, id)) => {
                exec.checkpoint(id);
                let grant = self.cursor.lock().grant;
                (exec, grant.expect("a strand runs inside an item"))
            }
            None => match self.step(None) {
                Ok((next, grant)) => {
                    owned = next;
                    (&*owned, grant)
                }
                Err(outcome) => return Turn::Over(Ok(outcome)),
            },
        };
        loop {
            match exec.pump(self, grant) {
                Pumped::Run(id, baton) => {
                    return match me {
                        Some((e, s)) if std::ptr::eq(e, exec) && s == id => Turn::Keep,
                        _ => Turn::Pass(baton),
                    }
                }
                Pumped::Ended(outcome) => match self.step(Some(outcome)) {
                    Ok((next, next_grant)) => {
                        owned = next;
                        (exec, grant) = (&*owned, next_grant);
                    }
                    Err(outcome) => return Turn::Over(Ok(outcome)),
                },
            }
        }
    }

    /// Moves the cursor to the next item.
    fn step(&self, ended: Option<IdleOutcome>) -> Result<(Arc<Executor>, Nanos), IdleOutcome> {
        let mut cursor = self.cursor.lock();
        let next = cursor.items.next(ended);
        cursor.grant = next.as_ref().ok().map(|&(_, grant)| grant);
        next
    }
}

/// Capability handed to a strand body.
#[derive(Clone)]
pub struct StrandCtx {
    exec: Arc<Executor>,
    id: StrandId,
    deadline: Arc<AtomicU64>,
}

impl StrandCtx {
    /// This strand's id.
    pub fn id(&self) -> StrandId {
        self.id
    }

    /// The executor.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// Arms a virtual-time deadline: once the clock passes `at`, the next
    /// safe point this strand reaches unwinds with [`DeadlineExceeded`].
    /// This is how the dispatcher's `time_bound` constraint is enforced
    /// *during* an asynchronous handler rather than only after it returns;
    /// the dispatcher's containment wrapper catches the unwind and counts
    /// it as an abort, so the strand itself is not marked panicked.
    pub fn set_deadline(&self, at: Nanos) {
        self.deadline.store(at, Ordering::Relaxed); // ordering: Relaxed — read back on the executor thread at safepoints.
    }

    /// Disarms the deadline.
    pub fn clear_deadline(&self) {
        self.deadline.store(u64::MAX, Ordering::Relaxed); // ordering: Relaxed — read back on the executor thread at safepoints.
    }

    /// Unwinds with [`DeadlineExceeded`] if the armed deadline has passed.
    fn check_deadline(&self) {
        let d = self.deadline.load(Ordering::Relaxed); // ordering: Relaxed — safepoint check on the executor thread.
        if d != u64::MAX && self.exec.clock.now() > d {
            std::panic::panic_any(DeadlineExceeded { deadline: d });
        }
    }

    /// Voluntarily yields the processor (stays runnable).
    pub fn yield_now(&self) {
        self.exec.yield_current();
        self.check_deadline();
    }

    /// Blocks until another context unblocks this strand.
    pub fn block(&self) {
        self.exec.block_current();
        self.check_deadline();
    }

    /// Sleeps for `ns` of virtual time.
    pub fn sleep(&self, ns: Nanos) {
        let exec = self.exec.clone();
        let id = self.id;
        let at = self.exec.clock.now() + ns;
        self.exec.timers.schedule_at(at, move |_| exec.unblock(id));
        self.exec.block_current();
        self.check_deadline();
    }

    /// A preemption safe point: deschedules the strand if its slice has
    /// run past the quantum.
    pub fn preempt_point(&self) {
        // ordering: Relaxed — configuration read; see `set_quantum`.
        if self.exec.slice() > self.exec.quantum.load(Ordering::Relaxed) {
            self.exec.yield_current();
        }
        self.check_deadline();
    }

    /// Blocks until `target` completes.
    pub fn join(&self, target: StrandId) {
        {
            let mut st = self.exec.state.lock();
            match st.strands.get_mut(&target) {
                Some(info) if info.state != RunState::Done => info.joiners.push(self.id),
                _ => return, // already done or never existed
            }
        }
        self.exec.block_current();
        self.check_deadline();
    }

    /// Charges simulated CPU work to this strand.
    pub fn work(&self, ns: Nanos) {
        self.exec.clock.advance(ns);
        self.check_deadline();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::AtomicBool;
    use spin_sal::SimBoard;

    fn exec() -> Arc<Executor> {
        let board = SimBoard::new();
        Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        )
    }

    #[test]
    fn strands_run_to_completion() {
        let e = exec();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        e.spawn("worker", move |_| f2.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(flag.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn yield_interleaves_equal_priority_strands() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            e.spawn(tag, move |ctx| {
                for _ in 0..3 {
                    log.lock().push(tag);
                    ctx.yield_now();
                }
            });
        }
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn priorities_order_execution() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (tag, prio) in [("low", 1u8), ("high", 20u8), ("mid", 10u8)] {
            let log = log.clone();
            e.spawn_on(HostId(0), tag, prio, move |_| log.lock().push(tag));
        }
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["high", "mid", "low"]);
    }

    #[test]
    fn block_and_unblock() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let blocked = e.spawn("blocked", move |ctx| {
            l1.lock().push("before");
            ctx.block();
            l1.lock().push("after");
        });
        let l2 = log.clone();
        let e2 = e.clone();
        e.spawn("waker", move |_| {
            l2.lock().push("waking");
            e2.unblock(blocked);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["before", "waking", "after"]);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let e = exec();
        let clock = e.clock().clone();
        e.spawn("sleeper", move |ctx| ctx.sleep(1_000_000));
        let t0 = clock.now();
        e.run_until_idle();
        assert!(clock.now() >= t0 + 1_000_000);
    }

    #[test]
    fn join_waits_for_target() {
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let child = e.spawn("child", move |ctx| {
            ctx.sleep(1000);
            l1.lock().push("child done");
        });
        let l2 = log.clone();
        e.spawn("parent", move |ctx| {
            ctx.join(child);
            l2.lock().push("parent done");
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*log.lock(), vec!["child done", "parent done"]);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let e = exec();
        e.spawn("stuck", |ctx| ctx.block());
        match e.run_until_idle() {
            IdleOutcome::Deadlock { blocked } => assert_eq!(blocked, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadline_stops_the_run() {
        let e = exec();
        e.spawn("spinner", |ctx| loop {
            ctx.work(1000);
            ctx.preempt_point();
            if ctx.executor().clock().now() > 10_000_000 {
                break;
            }
        });
        assert_eq!(e.run_until(2_000_000), IdleOutcome::DeadlineReached);
    }

    #[test]
    fn quantum_preemption_round_robins_cpu_hogs() {
        let e = exec();
        e.set_quantum(10_000);
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["a", "b"] {
            let log = log.clone();
            e.spawn(tag, move |ctx| {
                for _ in 0..3 {
                    ctx.work(15_000); // exceeds quantum every round
                    log.lock().push(tag);
                    ctx.preempt_point();
                }
            });
        }
        e.run_until_idle();
        let l = log.lock();
        // Strict alternation proves preemption (without it, "a" runs 3x
        // before "b" starts).
        assert_eq!(*l, vec!["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn cpu_time_is_attributed_to_strands_and_hosts() {
        let e = exec();
        let s = e.spawn("worker", |ctx| ctx.work(5_000));
        e.run_until_idle();
        assert_eq!(e.cpu_time(s), 5_000);
        assert!(e.host_busy(HostId(0)) >= 5_000);
    }

    #[test]
    fn panicking_strand_is_reported_not_fatal() {
        let e = exec();
        let s = e.spawn("bad", |_| panic!("extension bug"));
        let ok = e.spawn("good", |_| {});
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.panicked(s));
        assert!(!e.panicked(ok));
    }

    #[test]
    fn spawn_from_within_a_strand() {
        let e = exec();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        e.spawn("parent", move |ctx| {
            let f3 = f2.clone();
            let child = ctx
                .executor()
                .spawn("child", move |_| f3.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            ctx.join(child);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(flag.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn deadline_unwinds_the_strand_at_a_safe_point() {
        let e = exec();
        let reached_end = Arc::new(AtomicBool::new(false));
        let r2 = reached_end.clone();
        let clock = e.clock().clone();
        let s = e.spawn("bounded", move |ctx| {
            ctx.set_deadline(clock.now() + 1_000_000);
            for _ in 0..100 {
                ctx.work(400_000); // the deadline check unwinds on round 3
            }
            r2.store(true, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(!reached_end.load(Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                                                       // The unwind escaped the strand body, so the strand is marked
                                                       // panicked (an async handler's containment wrapper would have
                                                       // caught it first and classified it as an abort).
        assert!(e.panicked(s));
    }

    #[test]
    fn cleared_deadline_never_fires() {
        let e = exec();
        let clock = e.clock().clone();
        let s = e.spawn("unbounded", move |ctx| {
            ctx.set_deadline(clock.now() + 1_000);
            ctx.clear_deadline();
            ctx.work(10_000_000);
        });
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(!e.panicked(s));
    }

    #[test]
    fn injected_panics_at_spawn_are_contained() {
        let e = exec();
        let plan = spin_fault::FaultPlan::new(7);
        let hook = plan.hook(spin_fault::SITE_SCHED);
        plan.configure(
            spin_fault::SITE_SCHED,
            spin_fault::SiteConfig::panic_always(),
        );
        e.set_fault_hook(hook);
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        let s = e.spawn("victim", move |_| r2.store(true, Ordering::Relaxed)); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(e.run_until_idle(), IdleOutcome::AllComplete);
        assert!(e.panicked(s), "the injected panic hit the strand");
        assert!(!ran.load(Ordering::Relaxed), "the body never ran"); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(plan.injected_panics(), 1);
    }

    #[test]
    fn replacing_the_global_policy_takes_effect() {
        // A LIFO policy to prove replacement: later spawns run first.
        struct Lifo(Vec<StrandId>);
        impl SchedulerPolicy for Lifo {
            fn enqueue(&mut self, s: StrandId, _p: u8) {
                self.0.push(s);
            }
            fn dequeue(&mut self) -> Option<StrandId> {
                self.0.pop()
            }
            fn remove(&mut self, s: StrandId) {
                self.0.retain(|&x| x != s);
            }
            fn name(&self) -> &'static str {
                "lifo"
            }
        }
        let e = exec();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["first", "second"] {
            let log = log.clone();
            e.spawn(tag, move |_| log.lock().push(tag));
        }
        e.set_policy(Box::new(Lifo(Vec::new())));
        e.run_until_idle();
        assert_eq!(*log.lock(), vec!["second", "first"]);
    }
}
