//! Two-clock benchmark for the SPIN reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload webscale|forward|overload --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its load in virtual time inside one process
//! (see `webscale.rs`, `forward.rs`, `overload.rs`). The benchmark runs
//! it again and again, each time in a fresh child process — one set-up,
//! one timed `run_until_idle`, then the books — until `--seconds` have
//! passed, and reports medians over those runs. Every run of one seed
//! must produce byte-identical virtual outputs and work counts.
//!
//! With `--trace 0` the last line of output is the end-to-end result;
//! with `--trace 1` untraced and traced runs alternate, and the last line
//! carries the per-layer metrics: work counts per op from the layers'
//! public stats, host time from spans the benchmark opens around each of
//! its calls into a layer, and three probes. Spans are written to
//! `perfbench-out/`. Any failed check makes the result `correct: false`
//! and the exit code 1.

mod forward;
mod gen;
mod host;
mod overload;
mod probes;
mod report;
mod stats;
mod trace;
mod webscale;
mod workload;

use report::{Record, Summary};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::Outcome;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Webscale,
    Forward,
    Overload,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "webscale" => Some(Workload::Webscale),
            "forward" => Some(Workload::Forward),
            "overload" => Some(Workload::Overload),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Webscale => "webscale",
            Workload::Forward => "forward",
            Workload::Overload => "overload",
        }
    }

    /// Shard workers the workload runs at (at most `nproc` on the
    /// two-core reference host).
    pub fn workers(self) -> usize {
        match self {
            Workload::Webscale => webscale::WORKERS,
            Workload::Forward => forward::WORKERS,
            Workload::Overload => overload::WORKERS,
        }
    }

    /// Shards on the workload's board.
    pub fn shards(self) -> usize {
        match self {
            Workload::Webscale | Workload::Overload => 12,
            Workload::Forward => 3,
        }
    }

    fn run(self, seed: u64, tr: &Tracer, t0: Instant) -> Outcome {
        match self {
            Workload::Webscale => webscale::run(seed, tr, t0),
            Workload::Forward => forward::run(seed, tr, t0),
            Workload::Overload => overload::run(seed, tr, t0),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one child of the given kind (`run`, `traced`,
    /// `probe`) and print its record.
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) = (None, 0, 10.0, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--child" => child = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

/// One child run: runs the workload once (or the probes) and prints its
/// record on stdout.
fn child(kind: &str, args: &Args, t0: Instant) -> ExitCode {
    let w = args.workload;
    let cpus = host::pin_cpus(w.workers());
    let mut rec = match kind {
        "probe" => probes::run(w),
        "run" | "traced" => {
            let tr = if kind == "traced" {
                Tracer::on()
            } else {
                Tracer::off()
            };
            let out = w.run(args.seed, &tr, t0);
            let spans = tr.take();
            if tr.is_on() {
                let path = std::path::Path::new("perfbench-out").join(format!(
                    "spans-{}-seed{}.tsv",
                    w.name(),
                    args.seed
                ));
                let header = format!(
                    "workload={} seed={} {}",
                    w.name(),
                    args.seed,
                    host::describe(w.workers(), cpus)
                );
                if let Err(e) = trace::write_tsv(&path, &header, &spans) {
                    eprintln!("writing {}: {e}", path.display());
                }
            }
            Record::of_run(&out, &spans)
        }
        other => {
            eprintln!("unknown child kind {other}");
            return ExitCode::FAILURE;
        }
    };
    rec.nums.insert("cpus".to_string(), cpus as f64);
    print!("{}", rec.render());
    ExitCode::SUCCESS
}

/// Runs one child of `kind` to completion and parses its record.
fn spawn_child(kind: &str, args: &Args) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", kind])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} child exited with {}", out.status));
    }
    Record::parse(&String::from_utf8_lossy(&out.stdout))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &args.child {
        return child(kind, &args, t0);
    }

    // Untraced runs give the end-to-end numbers. With tracing, untraced
    // and traced runs alternate so the overhead compares like with like.
    // Each run is printed with the share of the machine's CPU time the
    // hypervisor stole during it, to explain an outlier.
    let mut summary = Summary::new(args.workload, args.seed, args.trace);
    let mut n = 0usize;
    loop {
        let kind = if args.trace && n % 2 == 1 {
            "traced"
        } else {
            "run"
        };
        let (steal0, w0) = (host::steal_s(), Instant::now());
        let rec = spawn_child(kind, &args).map(|mut r| {
            let share =
                (host::steal_s() - steal0) / (w0.elapsed().as_secs_f64() * host::nproc() as f64);
            r.nums.insert("steal_share".to_string(), share);
            r
        });
        summary.add(kind, rec);
        n += 1;
        let least = if args.trace { 2 } else { 3 };
        if n >= least && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if args.trace {
        summary.add("probe", spawn_child("probe", &args));
    }
    let correct = summary.print();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
