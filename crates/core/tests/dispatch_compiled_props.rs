//! Property tests for the guard-set compiler: for arbitrary mixes of
//! key-matchable and opaque guards, a compiled dispatcher selects exactly
//! the handler set a sequential (all-opaque) dispatcher selects, charges
//! identical virtual time, and accounts identical guard evaluations —
//! including across install/uninstall churn in the middle of a raise
//! stream.

use proptest::prelude::*;
use spin_core::{
    DispatchError, Dispatcher, Event, GuardSpec, Identity, KeyFn, QuotaLedger, QuotaSpec,
};
use std::sync::{Arc, Mutex};

/// One handler's guard in model form; `to_spec` produces the structured
/// (compilable) guard and `matches` is the reference predicate.
#[derive(Debug, Clone)]
enum GuardModel {
    Eq(u64),
    In(Vec<u64>),
    Range(u64, u64),
    /// `value % divisor == 0` — never expressible as a key guard.
    OpaqueMod(u64),
}

impl GuardModel {
    fn matches(&self, value: u64) -> bool {
        match self {
            GuardModel::Eq(v) => value == *v,
            GuardModel::In(vs) => vs.contains(&value),
            GuardModel::Range(lo, hi) => {
                let (lo, hi) = (*lo.min(hi), *lo.max(hi));
                lo <= value && value <= hi
            }
            GuardModel::OpaqueMod(d) => value.is_multiple_of(*d),
        }
    }

    fn to_spec(&self, key: &KeyFn<u64>) -> GuardSpec<u64> {
        match self {
            GuardModel::Eq(v) => GuardSpec::KeyEq(key.clone(), *v),
            GuardModel::In(vs) => GuardSpec::KeyIn(key.clone(), vs.clone()),
            GuardModel::Range(lo, hi) => GuardSpec::KeyRange(key.clone(), *lo.min(hi), *lo.max(hi)),
            GuardModel::OpaqueMod(d) => {
                let d = *d;
                GuardSpec::Opaque(Arc::new(move |x: &u64| x.is_multiple_of(d)))
            }
        }
    }

    /// The same predicate as an opaque closure — the sequential baseline.
    fn to_opaque(&self) -> GuardSpec<u64> {
        let model = self.clone();
        GuardSpec::Opaque(Arc::new(move |x: &u64| model.matches(*x)))
    }
}

fn guard_model() -> impl Strategy<Value = GuardModel> {
    prop_oneof![
        (0u64..32).prop_map(GuardModel::Eq),
        prop::collection::vec(0u64..32, 0..4).prop_map(GuardModel::In),
        (0u64..32, 0u64..32).prop_map(|(a, b)| GuardModel::Range(a, b)),
        (1u64..7).prop_map(GuardModel::OpaqueMod),
    ]
}

/// A dispatcher/event pair whose handlers report their index as a bit, so
/// a sum reducer identifies the exact selected handler set. The primary
/// logs every argument it runs on, in dispatch order.
struct Rig {
    d: Dispatcher,
    ev: Event<u64, u64>,
    log: Arc<Mutex<Vec<u64>>>,
}

fn build_rig(models: &[GuardModel], structured: bool) -> (Rig, Vec<spin_core::HandlerId>) {
    let d = Dispatcher::unmetered();
    let (ev, owner) = d.define::<u64, u64>("E", Identity::kernel("m"));
    let log = Arc::new(Mutex::new(Vec::new()));
    let primary_log = Arc::clone(&log);
    owner
        .set_primary(move |x: &u64| {
            primary_log.lock().expect("log").push(*x);
            0
        })
        .expect("fresh");
    owner.set_reducer(|rs| rs.into_iter().sum()).expect("fresh");
    let key = KeyFn::new(|x: &u64| *x);
    let ids = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let bit = 1u64 << i;
            let spec = if structured {
                m.to_spec(&key)
            } else {
                m.to_opaque()
            };
            ev.install_specs(Identity::extension("h"), vec![spec], move |_: &u64| bit)
                .expect("allowed")
        })
        .collect();
    (Rig { d, ev, log }, ids)
}

/// The reference model's answer: the bit-sum of live matching handlers.
fn model_sum(models: &[GuardModel], live: &[bool], value: u64) -> u64 {
    models
        .iter()
        .enumerate()
        .filter(|(i, m)| live[*i] && m.matches(value))
        .map(|(i, _)| 1u64 << i)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any guard mix and raise stream, compiled and sequential
    /// dispatch agree on the handler set, the virtual clock, and the
    /// guard-evaluation count — before and after mid-stream uninstalls
    /// and a mid-stream install.
    #[test]
    fn compiled_dispatch_equals_sequential_dispatch(
        models in prop::collection::vec(guard_model(), 1..10),
        stream in prop::collection::vec(0u64..40, 1..20),
        churn_at in 0usize..20,
        remove_mask in any::<u16>(),
        late_guard in guard_model(),
    ) {
        let (compiled, compiled_ids) = build_rig(&models, true);
        let (opaque, opaque_ids) = build_rig(&models, false);
        let mut live = vec![true; models.len()];
        let mut models = models;
        let churn_at = churn_at.min(stream.len());

        for (step, &value) in stream.iter().enumerate() {
            if step == churn_at {
                // Mid-stream churn: drop a subset of handlers from both
                // rigs, then add one more (which re-compiles the plan).
                for i in 0..models.len().min(16) {
                    if remove_mask & (1 << i) != 0 && live[i] {
                        live[i] = false;
                        compiled.d
                            .uninstall(&compiled.ev, compiled_ids[i], &Identity::extension("h"))
                            .expect("installer may remove");
                        opaque.d
                            .uninstall(&opaque.ev, opaque_ids[i], &Identity::extension("h"))
                            .expect("installer may remove");
                    }
                }
                let bit = 1u64 << models.len();
                let key = KeyFn::new(|x: &u64| *x);
                compiled.ev
                    .install_specs(
                        Identity::extension("h"),
                        vec![late_guard.to_spec(&key)],
                        move |_: &u64| bit,
                    )
                    .expect("allowed");
                opaque.ev
                    .install_specs(
                        Identity::extension("h"),
                        vec![late_guard.to_opaque()],
                        move |_: &u64| bit,
                    )
                    .expect("allowed");
                models.push(late_guard.clone());
                live.push(true);
            }
            let expected = model_sum(&models, &live, value);
            let t_c = compiled.d.clock().now();
            let t_o = opaque.d.clock().now();
            prop_assert_eq!(compiled.ev.raise(value), Ok(expected));
            prop_assert_eq!(opaque.ev.raise(value), Ok(expected));
            // Identical virtual charge per raise, not just in aggregate.
            prop_assert_eq!(
                compiled.d.clock().now() - t_c,
                opaque.d.clock().now() - t_o
            );
        }

        let cs = compiled.d.stats(&compiled.ev).expect("stats");
        let os = opaque.d.stats(&opaque.ev).expect("stats");
        prop_assert_eq!(cs.guard_evaluations, os.guard_evaluations);
        prop_assert_eq!(cs.handlers_run, os.handlers_run);
        prop_assert_eq!(cs.raises, os.raises);
        // The structured rig actually exercised the compiled path whenever
        // any key-matchable guard was installed.
        let any_indexed = models.iter().any(|m| !matches!(m, GuardModel::OpaqueMod(_)));
        if any_indexed {
            prop_assert!(cs.compiled_raises > 0);
            prop_assert!(cs.guards_elided <= cs.guard_evaluations);
        }
        // The all-opaque rig never compiles.
        prop_assert_eq!(os.compiled_raises, 0);
    }

    /// `raise_batch` returns item-for-item what looped `raise` returns
    /// and charges the same virtual time, for any burst — unmetered or
    /// metered by a finite quota (refusals surface in place and only
    /// admitted items count as raises), and open or quiesced (both park,
    /// and `resume` replays them in the same order).
    #[test]
    fn batched_raises_match_looped_raises(
        models in prop::collection::vec(guard_model(), 1..8),
        burst in prop::collection::vec(0u64..40, 1..16),
        metered in any::<bool>(),
        vt_budget in 1u64..20_000,
        quiesced in any::<bool>(),
    ) {
        let (batched, _) = build_rig(&models, true);
        let (looped, _) = build_rig(&models, true);
        let live = vec![true; models.len()];
        if metered {
            // Small windows roll mid-burst; two trips escalate to shedding.
            let spec = QuotaSpec {
                window: 20_000,
                window_vt_budget: vt_budget,
                shed_after_trips: 2,
                ..QuotaSpec::default()
            };
            for rig in [&batched, &looped] {
                let cell = QuotaLedger::new().register("tenant", spec);
                prop_assert_eq!(rig.ev.bind_quota(cell), Ok(true));
            }
        }
        if quiesced {
            batched.ev.quiesce().expect("alive");
            looped.ev.quiesce().expect("alive");
        }

        let t_b = batched.d.clock().now();
        let got = batched.ev.raise_batch(burst.clone());
        batched.ev.resume().expect("alive");
        let batched_delta = batched.d.clock().now() - t_b;

        let t_l = looped.d.clock().now();
        let want: Vec<_> = burst.iter().map(|&v| looped.ev.raise(v)).collect();
        looped.ev.resume().expect("alive");
        let looped_delta = looped.d.clock().now() - t_l;

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched_delta, looped_delta);
        let log = batched.log.lock().expect("log").clone();
        prop_assert_eq!(&log, &*looped.log.lock().expect("log"));
        let bh = batched.ev.hold_stats().expect("alive");
        prop_assert_eq!(bh, looped.ev.hold_stats().expect("alive"));
        let bs = batched.d.stats(&batched.ev).expect("stats");
        let ls = looped.d.stats(&looped.ev).expect("stats");
        prop_assert_eq!(bs.guard_evaluations, ls.guard_evaluations);
        prop_assert_eq!(bs.raises, ls.raises);
        prop_assert_eq!(ls.batched_raises, 0);
        let n = burst.len() as u64;
        if quiesced {
            // Both park every item; resume replays them as lone raises in
            // burst order (a metered replay may itself be refused).
            let all_held = got.iter().all(|r| matches!(r, Err(DispatchError::Held { .. })));
            prop_assert!(all_held, "a quiesced burst parks every item: {:?}", got);
            prop_assert_eq!((bh.held, bh.replayed, bs.batched_raises), (n, n, 0));
            if !metered {
                prop_assert_eq!(&log, &burst);
            }
        } else {
            // Refusals surface in place and never reach a handler; every
            // admitted item ran once, in burst order, with the model's
            // handler set, and counts as a (batched) raise.
            let mut admitted = Vec::new();
            for (&value, result) in burst.iter().zip(&got) {
                if matches!(result, Err(DispatchError::Throttled { .. } | DispatchError::Shed { .. })) {
                    prop_assert!(metered, "unmetered items are never refused");
                } else {
                    prop_assert_eq!(result, &Ok(model_sum(&models, &live, value)));
                    admitted.push(value);
                }
            }
            prop_assert_eq!(&log, &admitted);
            let k = admitted.len() as u64;
            prop_assert_eq!((bh.held, bs.raises, bs.batched_raises), (0, k, k));
        }
    }
}
