//! The wire: a point-to-point/switched medium connecting simulated NICs.
//!
//! Transmission is serialized per sender (a 10 Mb/s Ethernet can only push
//! one frame at a time), so saturating workloads see real queueing delay —
//! that is what bends the OSF/1 curve in the Figure 6 reproduction. Delivery
//! happens through the shared timer queue: at arrival time the frame lands
//! in the receiver's queue and the receiver's interrupt vector is posted.

use crate::clock::{Clock, Nanos, TimerQueue};
use crate::devices::nic::Frame;
use crate::irq::{IrqController, IrqVector};
use crate::mailbox::Mailbox;
use spin_check::sync::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// An address on the wire (one per attached NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireEndpoint(pub u32);

pub(crate) struct Receiver {
    pub rx: Arc<Mutex<VecDeque<Frame>>>,
    pub irqs: IrqController,
    pub vector: IrqVector,
}

/// A shard-attached receiver: frames land in the destination shard's
/// mailbox (multicore mode) instead of the shared timer queue.
struct ShardReceiver {
    rx: Arc<Mutex<VecDeque<Frame>>>,
    irqs: IrqController,
    vector: IrqVector,
    mailbox: Mailbox,
}

struct WireState {
    receivers: HashMap<WireEndpoint, Receiver>,
    shard_receivers: HashMap<WireEndpoint, ShardReceiver>,
    /// Multicore mode: each sender's *own* clock tells wire time (there is
    /// no shared timeline to ask).
    shard_senders: HashMap<WireEndpoint, Clock>,
    busy_until: HashMap<WireEndpoint, Nanos>,
    delivered: u64,
    dropped: u64,
    /// Deterministic fault injection: called with the frame's global
    /// sequence index; `true` drops the frame on the floor.
    drop_filter: Option<Box<dyn Fn(u64) -> bool + Send + Sync>>,
    tx_index: u64,
}

/// The shared medium.
#[derive(Clone)]
pub struct Wire {
    state: Arc<Mutex<WireState>>,
    clock: Clock,
    timers: TimerQueue,
    /// Fixed propagation + switch latency per frame.
    propagation: Nanos,
    /// Mailbox lane namespace for this medium: a frame from endpoint `e`
    /// travels on lane `lane_base + e`, so no two senders (and no two
    /// media) ever share a lane.
    lane_base: u64,
}

impl Wire {
    /// Creates a wire with the given one-way propagation/switch delay.
    pub fn new(clock: Clock, timers: TimerQueue, propagation: Nanos) -> Self {
        Self::with_lane_base(clock, timers, propagation, 0)
    }

    /// [`Wire::new`] with a mailbox lane namespace (multicore boards give
    /// each medium a disjoint base).
    pub fn with_lane_base(
        clock: Clock,
        timers: TimerQueue,
        propagation: Nanos,
        lane_base: u64,
    ) -> Self {
        Wire {
            state: Arc::new(Mutex::new(WireState {
                receivers: HashMap::new(),
                shard_receivers: HashMap::new(),
                shard_senders: HashMap::new(),
                busy_until: HashMap::new(),
                delivered: 0,
                dropped: 0,
                drop_filter: None,
                tx_index: 0,
            })),
            clock,
            timers,
            propagation,
            lane_base,
        }
    }

    pub(crate) fn attach(
        &self,
        endpoint: WireEndpoint,
        rx: Arc<Mutex<VecDeque<Frame>>>,
        irqs: IrqController,
        vector: IrqVector,
    ) {
        self.state
            .lock()
            .receivers
            .insert(endpoint, Receiver { rx, irqs, vector });
    }

    /// Attaches a shard-resident NIC: inbound frames are posted to the
    /// shard's mailbox and outbound transmissions are timed against the
    /// shard's own clock.
    pub(crate) fn attach_shard(
        &self,
        endpoint: WireEndpoint,
        rx: Arc<Mutex<VecDeque<Frame>>>,
        irqs: IrqController,
        vector: IrqVector,
        mailbox: Mailbox,
        clock: Clock,
    ) {
        let mut st = self.state.lock();
        st.shard_receivers.insert(
            endpoint,
            ShardReceiver {
                rx,
                irqs,
                vector,
                mailbox,
            },
        );
        st.shard_senders.insert(endpoint, clock);
    }

    /// The minimum cross-shard delivery delay over this medium (its
    /// propagation): part of the conservative-PDES lookahead bound.
    pub fn propagation(&self) -> Nanos {
        self.propagation
    }

    /// Queues a burst of `(frame, bits_on_wire)` pairs for transmission
    /// at the sender's link rate, under one state-lock acquisition.
    ///
    /// `bits_on_wire` includes framing overhead. Each sender's link is
    /// busy until its frame has left, so frames serialize in slice order;
    /// delivery fires `propagation` plus `staging_ns` (adapter staging,
    /// which occupies neither the link nor the CPU) later. A lone frame
    /// is a burst of one; only the locking and (in multicore mode) the
    /// mailbox posts are amortized across a longer burst.
    pub(crate) fn transmit_burst(
        &self,
        frames: Vec<(Frame, u64)>,
        bandwidth_bps: u64,
        staging_ns: Nanos,
    ) {
        // Phase 1 (one lock): serialize each frame on its sender's link
        // and resolve its destination.
        let mut deliveries: Vec<(Nanos, Frame, bool)> = Vec::with_capacity(frames.len());
        {
            let mut st = self.state.lock();
            for (frame, bits_on_wire) in frames {
                let tx_time = bits_on_wire.saturating_mul(1_000_000_000) / bandwidth_bps.max(1);
                let idx = st.tx_index;
                st.tx_index += 1;
                if let Some(f) = st.drop_filter.as_ref() {
                    if f(idx) {
                        st.dropped += 1;
                        continue;
                    }
                }
                // Multicore mode: wire time is the *sender's* virtual time.
                let now = st
                    .shard_senders
                    .get(&frame.src)
                    .map(|c| c.now())
                    .unwrap_or_else(|| self.clock.now());
                let busy = st.busy_until.get(&frame.src).copied().unwrap_or(0);
                let start = busy.max(now);
                let done = start + tx_time;
                st.busy_until.insert(frame.src, done);
                let arrival = done + self.propagation + staging_ns;
                let sharded = st.shard_receivers.contains_key(&frame.dst);
                deliveries.push((arrival, frame, sharded));
            }
        }
        // Phase 2 (no lock): post deliveries. Shard-resident destinations
        // get their mailbox posts batched per destination, preserving
        // slice order (and so per-lane seq order); shared-timeline frames
        // go straight onto the timer queue.
        let mut batches: BTreeMap<u32, Vec<(Nanos, u64, crate::mailbox::MailAction)>> =
            BTreeMap::new();
        for (arrival, frame, sharded) in deliveries {
            let state = self.state.clone();
            let dst = frame.dst;
            if sharded {
                let lane = self.lane_base + frame.src.0 as u64;
                batches.entry(dst.0).or_default().push((
                    arrival,
                    lane,
                    Box::new(move |_| {
                        let mut st = state.lock();
                        if let Some(r) = st.shard_receivers.get(&dst) {
                            r.rx.lock().push_back(frame);
                            let (irqs, vector) = (r.irqs.clone(), r.vector);
                            st.delivered += 1;
                            drop(st);
                            irqs.post(vector);
                        }
                    }),
                ));
            } else {
                self.timers.schedule_at(arrival, move |_| {
                    let mut st = state.lock();
                    match st.receivers.get(&dst) {
                        Some(r) => {
                            r.rx.lock().push_back(frame);
                            let (irqs, vector) = (r.irqs.clone(), r.vector);
                            st.delivered += 1;
                            drop(st);
                            irqs.post(vector);
                        }
                        None => st.dropped += 1,
                    }
                });
            }
        }
        for (dst, entries) in batches {
            let mbox = self
                .state
                .lock()
                .shard_receivers
                .get(&WireEndpoint(dst))
                .map(|r| r.mailbox.clone());
            if let Some(mbox) = mbox {
                mbox.post_batch(entries);
            }
        }
    }

    /// Installs a deterministic drop filter for fault injection (e.g.
    /// "drop every 7th frame" for TCP retransmission tests).
    pub fn set_drop_filter(&self, f: impl Fn(u64) -> bool + Send + Sync + 'static) {
        self.state.lock().drop_filter = Some(Box::new(f));
    }

    /// (delivered, dropped) frame counters.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.delivered, st.dropped)
    }

    /// Virtual time at which the sender's link becomes free.
    pub fn sender_busy_until(&self, endpoint: WireEndpoint) -> Nanos {
        self.state
            .lock()
            .busy_until
            .get(&endpoint)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineProfile;
    use bytes::Bytes;

    fn rig() -> (
        Wire,
        Clock,
        TimerQueue,
        IrqController,
        Arc<Mutex<VecDeque<Frame>>>,
    ) {
        let clock = Clock::new();
        let timers = TimerQueue::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let wire = Wire::new(clock.clone(), timers.clone(), 1_000);
        let irqs = IrqController::new(clock.clone(), profile);
        let rx = Arc::new(Mutex::new(VecDeque::new()));
        wire.attach(WireEndpoint(2), rx.clone(), irqs.clone(), IrqVector(7));
        (wire, clock, timers, irqs, rx)
    }

    fn frame(payload: &[u8]) -> Frame {
        Frame {
            src: WireEndpoint(1),
            dst: WireEndpoint(2),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn frame_arrives_after_tx_time_plus_propagation() {
        let (wire, clock, timers, irqs, rx) = rig();
        // 1000 bits at 10 Mb/s = 100 µs on the wire.
        wire.transmit_burst(vec![(frame(&[0u8; 125]), 1000)], 10_000_000, 0);
        clock.skip_to(100_999);
        timers.fire_due(clock.now());
        assert!(rx.lock().is_empty(), "too early");
        clock.skip_to(101_000);
        timers.fire_due(clock.now());
        assert_eq!(rx.lock().len(), 1);
        assert!(irqs.has_pending());
    }

    #[test]
    fn sender_link_serializes_back_to_back_frames() {
        let (wire, clock, timers, _irqs, rx) = rig();
        wire.transmit_burst(vec![(frame(b"a"), 1000)], 10_000_000, 0);
        wire.transmit_burst(vec![(frame(b"b"), 1000)], 10_000_000, 0);
        // Second frame cannot start until the first is done: arrival at
        // 200_000 + 1_000 propagation.
        assert_eq!(wire.sender_busy_until(WireEndpoint(1)), 200_000);
        clock.skip_to(201_000);
        timers.fire_due(clock.now());
        assert_eq!(rx.lock().len(), 2);
    }

    #[test]
    fn frames_to_unknown_endpoints_are_dropped() {
        let (wire, clock, timers, _, _) = rig();
        let f = Frame {
            src: WireEndpoint(1),
            dst: WireEndpoint(99),
            payload: Bytes::new(),
        };
        wire.transmit_burst(vec![(f, 8)], 10_000_000, 0);
        clock.skip_to(1_000_000);
        timers.fire_due(clock.now());
        assert_eq!(wire.stats(), (0, 1));
    }
}
