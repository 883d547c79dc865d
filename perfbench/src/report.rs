//! Child records, the run summary and the result line.

use crate::stats::{error_rate, median, per_op};
use crate::trace::{self, Span};
use crate::workload::Outcome;
use crate::{host, Workload};
use std::collections::BTreeMap;

/// What one child run reports to the parent: flat numbers, the virtual
/// output digest and any failed checks. Rendered one `@key value` per
/// line.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Record {
    pub nums: BTreeMap<String, f64>,
    pub digest: String,
    pub problems: Vec<String>,
}

impl Record {
    pub fn of_run(out: &Outcome, spans: &[Span]) -> Record {
        let mut nums = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            nums.insert(k.to_string(), v);
        };
        put("ops", out.ops as f64);
        put("failed", out.failed as f64);
        put("setup_s", out.timed.setup_s);
        put("wall_s", out.timed.wall_s);
        put("cpu_s", out.timed.cpu_s);
        put("rss_kib", host::peak_rss_kib() as f64);
        put("lat.count", out.latency.count as f64);
        put("lat.p50", out.latency.p50 as f64);
        put("lat.p99", out.latency.p99 as f64);
        for (k, v) in &out.counts {
            put(&format!("count.{k}"), *v as f64);
        }
        if !spans.is_empty() {
            for (name, t) in trace::totals(spans) {
                put(&format!("span.{name}.count"), t.count as f64);
                put(&format!("span.{name}.wall_ns"), t.wall_ns as f64);
                put(&format!("span.{name}.busy_ns"), t.busy_ns as f64);
                put(&format!("span.{name}.self_ns"), t.self_ns as f64);
            }
            put("trace.root_busy_ns", trace::root_busy_ns(spans) as f64);
            put("trace.run_ns", out.timed.wall_s * 1e9);
        }
        Record {
            nums,
            digest: format!("{:016x}", out.digest()),
            problems: out.problems.clone(),
        }
    }

    pub fn num(&self, key: &str) -> f64 {
        self.nums.get(key).copied().unwrap_or(0.0)
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.nums {
            s.push_str(&format!("@{k} {v}\n"));
        }
        if !self.digest.is_empty() {
            s.push_str(&format!("@digest {}\n", self.digest));
        }
        for p in &self.problems {
            s.push_str(&format!("@problem {p}\n"));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Record, String> {
        let mut rec = Record::default();
        for line in text.lines().filter_map(|l| l.strip_prefix('@')) {
            let (k, v) = line.split_once(' ').unwrap_or((line, ""));
            match k {
                "digest" => rec.digest = v.to_string(),
                "problem" => rec.problems.push(v.to_string()),
                _ => {
                    let v = v.parse().map_err(|e| format!("record {k}={v}: {e}"))?;
                    rec.nums.insert(k.to_string(), v);
                }
            }
        }
        if rec.nums.is_empty() {
            return Err("child printed no record".to_string());
        }
        Ok(rec)
    }
}

/// `(name, unit)` of every end-to-end metric, in result order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("virt_p99_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in result order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sched.executor.switches_per_op", "count"),
    ("sched.executor.switch_ns", "ns"),
    ("sched.executor.strands", "count"),
    ("sched.shard.epochs_per_op", "count"),
    ("sched.shard.shards_per_epoch", "count"),
    ("sched.shard.epoch_ns", "ns"),
    ("sal.mailbox.envelopes_per_op", "count"),
    ("sal.mailbox.dropped", "count"),
    ("sal.wire.frames_per_op", "count"),
    ("sal.wire.dropped", "count"),
    ("core.dispatch.raises_per_op", "count"),
    ("core.dispatch.fast_path_ratio", "ratio"),
    ("core.dispatch.guard_evals_per_raise", "count"),
    ("core.dispatch.batched_ratio", "ratio"),
    ("core.dispatch.handler_faults", "count"),
    ("core.dispatch.raise_ns", "ns"),
    ("core.quota.attempts_per_op", "count"),
    ("core.quota.admit_ratio", "ratio"),
    ("core.quota.shed_ratio", "ratio"),
    ("net.stack.frames_per_op", "count"),
    ("net.stack.bytes_per_op", "bytes"),
    ("net.stack.retries", "count"),
    ("net.stack.parse_errors", "count"),
    ("net.tcp.call_us_per_op", "us"),
    ("net.tcp.busy_us_per_op", "us"),
    ("net.tcp.parked_us_per_op", "us"),
    ("net.http.route_ns", "ns"),
    ("net.http.shed_ratio", "ratio"),
    ("net.http.timeouts", "count"),
    ("net.forward.forwarded_per_op", "count"),
    ("net.socket.callback_ns", "ns"),
    ("fs.webcache.hit_ratio", "ratio"),
    ("bench.client.self_us_per_op", "us"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.virt_samples", "count"),
];

/// Everything one benchmark invocation gathered from its children.
pub struct Summary {
    workload: Workload,
    seed: u64,
    trace: bool,
    runs: Vec<Record>,
    traced: Vec<Record>,
    probe: Option<Record>,
    problems: Vec<String>,
    /// Ops of children that died before reporting.
    lost_ops: u64,
}

/// Per-op value of a summed span field over the traced runs.
fn span_sum(recs: &[Record], name: &str, field: &str) -> f64 {
    recs.iter()
        .map(|r| r.num(&format!("span.{name}.{field}")))
        .sum()
}

impl Summary {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Summary {
        Summary {
            workload,
            seed,
            trace,
            runs: Vec::new(),
            traced: Vec::new(),
            probe: None,
            problems: Vec::new(),
            lost_ops: 0,
        }
    }

    pub fn add(&mut self, kind: &str, rec: Result<Record, String>) {
        let rec = match rec {
            Ok(rec) => rec,
            Err(e) => {
                self.problems.push(e);
                self.lost_ops += self.runs.first().map_or(1, |r| r.num("ops") as u64);
                return;
            }
        };
        for p in &rec.problems {
            self.problems.push(format!("{kind}: {p}"));
        }
        match kind {
            "probe" => self.probe = Some(rec),
            "traced" => self.traced.push(rec),
            _ => self.runs.push(rec),
        }
    }

    /// (attempted, failed) ops over every workload run; a run whose books
    /// did not close fails all its ops.
    fn op_totals(&self) -> (u64, u64) {
        let (mut attempted, mut failed) = (self.lost_ops, self.lost_ops);
        for r in self.runs.iter().chain(&self.traced) {
            let ops = r.num("ops") as u64;
            attempted += ops;
            failed += if r.problems.is_empty() {
                r.num("failed") as u64
            } else {
                ops
            };
        }
        (attempted.max(1), failed)
    }

    fn ops_per_s(recs: &[Record]) -> f64 {
        let v: Vec<f64> = recs
            .iter()
            .map(|r| per_op(r.num("ops"), r.num("wall_s")))
            .collect();
        median(&v)
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let med = |f: &dyn Fn(&Record) -> f64| median(&self.runs.iter().map(f).collect::<Vec<_>>());
        let mut m = BTreeMap::new();
        m.insert("ops_per_s", Self::ops_per_s(&self.runs));
        m.insert(
            "cpu_us_per_op",
            med(&|r| per_op(r.num("cpu_s") * 1e6, r.num("ops"))),
        );
        m.insert("peak_rss_mb", med(&|r| r.num("rss_kib") / 1024.0));
        m.insert("setup_s", med(&|r| r.num("setup_s")));
        m.insert(
            "virt_p99_ms",
            self.runs.first().map_or(0.0, |r| r.num("lat.p99") / 1e6),
        );
        m
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let base = self.runs.first().cloned().unwrap_or_default();
        let c = |k: &str| base.num(&format!("count.{k}"));
        let ops = base.num("ops");
        let probe = self.probe.clone().unwrap_or_default();
        let traced = &self.traced;
        let traced_ops: f64 = traced.iter().map(|r| r.num("ops")).sum();
        let tcp = [
            "net.tcp.connect",
            "net.tcp.send",
            "net.tcp.recv",
            "net.tcp.close",
        ];
        let tcp_sum = |field: &str| tcp.iter().map(|n| span_sum(traced, n, field)).sum::<f64>();
        let self_ns_each = |name: &str| {
            per_op(
                span_sum(traced, name, "self_ns"),
                span_sum(traced, name, "count"),
            )
        };
        let root_busy: f64 = traced.iter().map(|r| r.num("trace.root_busy_ns")).sum();
        let run_ns: f64 = traced.iter().map(|r| r.num("trace.run_ns")).sum();
        let (attempted, failed) = self.op_totals();
        let untraced = Self::ops_per_s(&self.runs);
        let with_trace = Self::ops_per_s(traced);

        let mut m = BTreeMap::new();
        m.insert("sched.executor.switches_per_op", per_op(c("switches"), ops));
        m.insert("sched.executor.switch_ns", probe.num("switch_ns"));
        m.insert("sched.executor.strands", c("strands"));
        m.insert("sched.shard.epochs_per_op", per_op(c("epochs"), ops));
        m.insert(
            "sched.shard.shards_per_epoch",
            per_op(c("shard_runs"), c("epochs")),
        );
        m.insert("sched.shard.epoch_ns", probe.num("epoch_ns"));
        m.insert(
            "sal.mailbox.envelopes_per_op",
            per_op(c("mail_posted"), ops),
        );
        m.insert("sal.mailbox.dropped", c("mail_dropped"));
        m.insert("sal.wire.frames_per_op", per_op(c("wire_frames"), ops));
        m.insert("sal.wire.dropped", c("wire_dropped"));
        m.insert("core.dispatch.raises_per_op", per_op(c("raises"), ops));
        m.insert(
            "core.dispatch.fast_path_ratio",
            per_op(c("fast_path_raises"), c("raises")),
        );
        m.insert(
            "core.dispatch.guard_evals_per_raise",
            per_op(c("guard_evals"), c("raises")),
        );
        m.insert(
            "core.dispatch.batched_ratio",
            per_op(c("batched_raises"), c("raises")),
        );
        m.insert("core.dispatch.handler_faults", c("handler_faults"));
        m.insert("core.dispatch.raise_ns", probe.num("raise_ns"));
        m.insert(
            "core.quota.attempts_per_op",
            per_op(c("quota_attempts"), ops),
        );
        m.insert(
            "core.quota.admit_ratio",
            per_op(c("quota_admitted"), c("quota_attempts")),
        );
        m.insert(
            "core.quota.shed_ratio",
            per_op(c("quota_throttled") + c("quota_shed"), c("quota_attempts")),
        );
        m.insert("net.stack.frames_per_op", per_op(c("net_frames"), ops));
        m.insert("net.stack.bytes_per_op", per_op(c("net_bytes"), ops));
        m.insert("net.stack.retries", c("net_retries"));
        m.insert("net.stack.parse_errors", c("net_parse_errors"));
        m.insert(
            "net.tcp.call_us_per_op",
            per_op(tcp_sum("wall_ns") / 1e3, traced_ops),
        );
        m.insert(
            "net.tcp.busy_us_per_op",
            per_op(tcp_sum("busy_ns") / 1e3, traced_ops),
        );
        m.insert(
            "net.tcp.parked_us_per_op",
            per_op(
                (tcp_sum("wall_ns") - tcp_sum("busy_ns")).max(0.0) / 1e3,
                traced_ops,
            ),
        );
        m.insert("net.http.route_ns", self_ns_each("net.http.route"));
        m.insert(
            "net.http.shed_ratio",
            per_op(c("http_shed"), c("http_requests")),
        );
        m.insert("net.http.timeouts", c("http_timeouts"));
        m.insert("net.forward.forwarded_per_op", per_op(c("forwarded"), ops));
        m.insert(
            "net.socket.callback_ns",
            self_ns_each("net.socket.callback"),
        );
        m.insert(
            "fs.webcache.hit_ratio",
            per_op(c("cache_hits"), c("cache_hits") + c("cache_misses")),
        );
        m.insert(
            "bench.client.self_us_per_op",
            per_op(
                span_sum(traced, "bench.client", "self_ns") / 1e3,
                traced_ops,
            ),
        );
        m.insert(
            "bench.unattributed_share",
            trace::unattributed_share(root_busy as u64, run_ns as u64),
        );
        m.insert(
            "bench.trace_overhead",
            if with_trace > 0.0 {
                untraced / with_trace - 1.0
            } else {
                0.0
            },
        );
        m.insert("bench.error_rate", error_rate(failed, attempted));
        m.insert("bench.virt_samples", base.num("lat.count"));
        m
    }

    /// Prints the human-readable report and, last, the result line.
    /// Returns whether every check passed.
    pub fn print(mut self) -> bool {
        let w = self.workload;
        println!(
            "perfbench workload={} seed={} trace={} host: {}",
            w.name(),
            self.seed,
            u8::from(self.trace),
            host::describe(
                w.workers(),
                self.runs.first().map_or(0, |r| r.num("cpus") as usize)
            )
        );
        // Every run of one seed — traced or not — must reproduce the same
        // virtual outputs and work counts.
        let digests: Vec<&str> = self
            .runs
            .iter()
            .chain(&self.traced)
            .map(|r| r.digest.as_str())
            .collect();
        if digests.windows(2).any(|p| p[0] != p[1]) {
            self.problems.push(format!(
                "virtual outputs differ between runs of one seed: {digests:?}"
            ));
        }
        if self.runs.is_empty() {
            self.problems.push("no untraced run completed".to_string());
        }
        for (i, r) in self.runs.iter().chain(&self.traced).enumerate() {
            println!(
                "run {i}: ops {} wall {:.4} s cpu {:.4} s setup {:.4} s rss {:.1} MB host steal {:.3}{}",
                r.num("ops"),
                r.num("wall_s"),
                r.num("cpu_s"),
                r.num("setup_s"),
                r.num("rss_kib") / 1024.0,
                r.num("steal_share"),
                if r.nums.contains_key("trace.run_ns") {
                    " (traced)"
                } else {
                    ""
                },
            );
        }
        if let Some(base) = self.runs.first() {
            println!("virtual-output digest: {}", base.digest);
            println!(
                "virtual client latency: p50 {:.3} ms, p99 {:.3} ms over {} samples",
                base.num("lat.p50") / 1e6,
                base.num("lat.p99") / 1e6,
                base.num("lat.count")
            );
            let ops = base.num("ops");
            println!("work counts (total, per op over {ops} ops):");
            for (k, v) in base
                .nums
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("count.")?, v)))
            {
                if !k.starts_with("clock.") && !k.starts_with("lat_") {
                    println!("  {k:<22} {v:>14} {:>14.4}", per_op(*v, ops));
                }
            }
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }

        let (attempted, failed) = self.op_totals();
        let correct = self.problems.is_empty() && failed == 0;
        let (table, values): (&[(&str, &str)], _) = if self.trace {
            (&PER_LAYER, self.per_layer())
        } else {
            (&END_TO_END, self.end_to_end())
        };
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("{name:<38} {v:>16.6} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pairs: &[(&str, f64)], problems: &[&str]) -> Record {
        Record {
            nums: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            digest: "00ff".to_string(),
            problems: problems.iter().map(|p| p.to_string()).collect(),
        }
    }

    #[test]
    fn record_round_trips_through_its_rendering() {
        let r = rec(
            &[("ops", 9999.0), ("wall_s", 4.25), ("count.epochs", 89333.0)],
            &["a b"],
        );
        assert_eq!(Record::parse(&r.render()).expect("parses"), r);
        assert!(Record::parse("no record here\n").is_err());
    }

    #[test]
    fn a_run_whose_books_fail_fails_all_its_ops() {
        let mut s = Summary::new(Workload::Forward, 0, false);
        s.add("run", Ok(rec(&[("ops", 100.0), ("failed", 2.0)], &[])));
        s.add(
            "run",
            Ok(rec(&[("ops", 100.0), ("failed", 0.0)], &["books"])),
        );
        s.add("run", Err("child died".to_string()));
        assert_eq!(s.op_totals(), (300, 2 + 100 + 100));
        assert_eq!(s.problems.len(), 2);
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_runs() {
        let mut s = Summary::new(Workload::Overload, 0, false);
        for wall in [1.0, 2.0, 4.0] {
            s.add(
                "run",
                Ok(rec(
                    &[
                        ("ops", 1000.0),
                        ("wall_s", wall),
                        ("cpu_s", wall),
                        ("lat.p99", 3e6),
                    ],
                    &[],
                )),
            );
        }
        let m = s.end_to_end();
        assert_eq!(m["ops_per_s"], 500.0);
        assert_eq!(m["cpu_us_per_op"], 2000.0);
        assert_eq!(m["virt_p99_ms"], 3.0);
    }

    fn listed_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = text
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present");
        let section = section.split(']').next().expect("section closes");
        section
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed_names("end_to_end"), e2e);
        assert_eq!(listed_names("per_layer"), layer);
    }
}
