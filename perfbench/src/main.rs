//! End-to-end benchmark of the atspeed workspace.
//!
//! ```text
//! perfbench --workload tables-small|stress-large|serve-mixed
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! One run measures one workload in this process, prints every metric by
//! name with its unit, checks the outputs, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics. `--trace 1` first runs the same workload
//! untraced in a child process (for the tracing overhead), then runs one
//! traced pass and reports the per-layer metrics and the layer table.
//!
//! The program is driven only through the public functions of its crates;
//! every simulation stage runs with the pinned [`common::SIM`] config.

mod common;
mod flow;
mod serve_mixed;
mod stress_large;
mod tables_small;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use common::{median, quantile, ratio, Outcome, Pass, SIM};

/// Workload seed when `--seed` is absent (the `tables` master seed).
const DEFAULT_SEED: u64 = 2001;
/// Phase labels whose `sim::stats` counters become per-layer metrics.
const SIM_PHASES: [&str; 7] = [
    "comb-gen",
    "t0-gen",
    "phase1-2",
    "phase3",
    "phase4",
    "baseline4",
    "baseline-dynamic",
];
/// Directory for the traced run's Chrome trace.
const TRACE_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TablesSmall,
    StressLarge,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "tables-small" => Some(Workload::TablesSmall),
            "stress-large" => Some(Workload::StressLarge),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TablesSmall => "tables-small",
            Workload::StressLarge => "stress-large",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn run(self, seed: u64, seconds: u64, max_passes: usize) -> Result<Outcome, String> {
        match self {
            Workload::TablesSmall => tables_small::run(seed, seconds, max_passes),
            Workload::StressLarge => stress_large::run(seed, seconds, max_passes),
            Workload::ServeMixed => serve_mixed::run(seed),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // JSON has no NaN or infinity.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks outcomes across passes and counts operations.
struct Verdict {
    attempted: u64,
    failures: Vec<String>,
}

fn verdict(outcome: &Outcome) -> Verdict {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let first = &outcome.passes[0];
    for (i, pass) in outcome.passes.iter().enumerate() {
        attempted += pass.attempted;
        failures.extend(pass.failures.iter().cloned());
        if pass.quality != first.quality || pass.digest != first.digest {
            failures.push(format!("pass {} outputs differ from pass 1", i + 1));
        }
    }
    Verdict {
        attempted: attempted.max(1),
        failures,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let passes = &outcome.passes;
    let setup: Vec<f64> = outcome.setup.iter().copied().map(secs).collect();
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    let total_wall: f64 = walls.iter().sum();
    let jobs: Vec<_> = passes.iter().flat_map(|p| &p.jobs).collect();
    let misses: Vec<f64> = jobs
        .iter()
        .filter(|j| !j.hit)
        .map(|j| ms(j.latency))
        .collect();
    let mut hits: Vec<f64> = jobs
        .iter()
        .filter(|j| j.hit)
        .map(|j| ms(j.latency))
        .collect();
    if hits.is_empty() {
        // Batch workloads have no cache: every job computes, and the hit
        // latency reports the same jobs as the miss latency.
        hits = misses.clone();
    }
    let q = passes[0].quality;
    let peak_rss = atspeed_trace::rss::peak_rss_bytes().unwrap_or(0) as f64;
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("jobs_per_s", ratio(jobs.len() as f64, total_wall), "1/s"),
        metric("hit_latency_ms_p50", quantile(&hits, 0.5), "ms"),
        metric("hit_latency_ms_p90", quantile(&hits, 0.9), "ms"),
        metric("miss_latency_ms_p50", quantile(&misses, 0.5), "ms"),
        metric("miss_latency_ms_p90", quantile(&misses, 0.9), "ms"),
        metric("peak_rss_mib", peak_rss / (1u64 << 20) as f64, "MiB"),
        metric("test_cycles", q.test_cycles as f64, "cycles"),
        metric("faults_detected", q.faults_detected as f64, "faults"),
        metric("atspeed_len_avg", q.atspeed_len_avg(), "vectors"),
    ]
}

/// The per-layer metrics of a traced pass. Every workload reports every
/// name; a layer the workload does not reach reads 0.
fn per_layer(outcome: &Outcome, pass: &Pass, untraced_wall: f64) -> Vec<Metric> {
    let setup_total = |call: &str| {
        let v: Vec<f64> = outcome
            .setup_layers
            .iter()
            .map(|l| secs(l.total(call)))
            .collect();
        median(&v)
    };
    let layer = |call: &str| secs(pass.layers.total(call));
    let counter = |name: &str| pass.counters.get(name).copied().unwrap_or(0.0);
    let phase12 = layer("core.phase12");
    let phase2 = counter("core.phase2_s");
    let mut m = vec![
        metric("circuit.build_s", setup_total("circuit.build"), "s"),
        metric("circuit.compile_s", setup_total("circuit.compile"), "s"),
        metric("circuit.parse_s", setup_total("circuit.parse"), "s"),
        metric("atpg.comb_tset_s", layer("atpg.comb_tset"), "s"),
        metric("atpg.podem_tests", counter("atpg.podem_tests"), "count"),
        metric("atpg.podem_aborted", counter("atpg.podem_aborted"), "count"),
        metric("atpg.t0_gen_s", layer("atpg.t0_gen"), "s"),
        metric(
            "atpg.omission_attempts",
            counter("atpg.omission_attempts"),
            "count",
        ),
        metric(
            "atpg.omission_accepted",
            counter("atpg.omission_accepted"),
            "count",
        ),
        metric(
            "atpg.omission_accept_ratio",
            ratio(
                counter("atpg.omission_accepted"),
                counter("atpg.omission_attempts"),
            ),
            "fraction",
        ),
        metric(
            "atpg.omission_wasted",
            counter("atpg.omission_wasted"),
            "count",
        ),
        metric("core.phase12_s", phase12, "s"),
        metric("core.phase2_s", phase2, "s"),
        metric("core.phase1_s", (phase12 - phase2).max(0.0), "s"),
        metric("core.phase3_s", layer("core.phase3"), "s"),
        metric("core.phase4_s", layer("core.phase4"), "s"),
        metric(
            "core.phase4_attempts",
            counter("core.phase4_attempts"),
            "count",
        ),
        metric(
            "core.phase4_combinations",
            counter("core.phase4_combinations"),
            "count",
        ),
        metric(
            "core.phase4_accept_ratio",
            ratio(
                counter("core.phase4_combinations"),
                counter("core.phase4_attempts"),
            ),
            "fraction",
        ),
        metric("core.baseline4_s", layer("core.baseline4"), "s"),
        metric("core.dynamic_s", layer("core.dynamic"), "s"),
    ];
    for phase in SIM_PHASES {
        let stats = pass
            .sim
            .as_ref()
            .and_then(|r| r.phases.iter().find(|(p, _)| p == phase))
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        m.push(metric(
            format!("sim.gate_evals.{phase}"),
            stats.gate_evals as f64,
            "gate-words",
        ));
        m.push(metric(
            format!("sim.events_skipped.{phase}"),
            stats.events_skipped as f64,
            "gate-words",
        ));
        m.push(metric(
            format!("sim.fsim_calls.{phase}"),
            stats.fsim_invocations as f64,
            "count",
        ));
        m.push(metric(
            format!("sim.gate_evals_per_s.{phase}"),
            stats.gate_evals_per_sec(),
            "gate-words/s",
        ));
    }
    for (name, unit) in [
        ("serve.cache_hits", "count"),
        ("serve.cache_misses", "count"),
        ("serve.cache_waits", "count"),
        ("serve.cache_evictions", "count"),
        ("serve.hit_ratio", "fraction"),
        ("serve.server_ms_p50.hit", "ms"),
        ("serve.server_ms_p50.miss", "ms"),
        ("serve.overhead_ms_p50", "ms"),
    ] {
        m.push(metric(name, counter(name), unit));
    }
    m.push(metric(
        "trace.overhead_ratio",
        ratio(secs(pass.wall), untraced_wall) - 1.0,
        "fraction",
    ));
    m.push(metric(
        "trace.unattributed_ratio",
        ratio(secs(pass.unattributed()), secs(pass.lane_time())),
        "fraction",
    ));
    m
}

/// Prints the layer table of a traced pass: phase → layer call, with the
/// phase's simulation counters and an explicit unattributed row.
fn print_layer_table(workload: Workload, pass: &Pass) {
    let base = secs(pass.lane_time());
    println!(
        "layer table: {} (traced pass, wall {:.3} s, {} lane(s))",
        workload.name(),
        secs(pass.wall),
        pass.lanes.max(1)
    );
    println!(
        "{:<18} {:<20} {:>6} {:>10} {:>7} {:>16} {:>10}",
        "phase", "layer call", "calls", "time_s", "share", "gate_evals", "fsim_calls"
    );
    let mut rows: Vec<(&str, &str, usize, Duration)> = Vec::new();
    for c in &pass.layers.calls {
        match rows.iter_mut().find(|r| r.0 == c.phase && r.1 == c.call) {
            Some(row) => {
                row.2 += 1;
                row.3 += c.time;
            }
            None => rows.push((c.phase, c.call, 1, c.time)),
        }
    }
    let mut seen_phase = Vec::new();
    for (phase, call, calls, time) in rows {
        let sim = if seen_phase.contains(&phase) {
            None
        } else {
            seen_phase.push(phase);
            pass.sim
                .as_ref()
                .and_then(|r| r.phases.iter().find(|(p, _)| p == phase))
                .map(|(_, s)| (s.gate_evals, s.fsim_invocations))
        };
        let (evals, fsims) = sim.map_or((String::new(), String::new()), |(e, f)| {
            (e.to_string(), f.to_string())
        });
        println!(
            "{phase:<18} {call:<20} {calls:>6} {:>10.4} {:>6.1}% {evals:>16} {fsims:>10}",
            secs(time),
            100.0 * ratio(secs(time), base)
        );
    }
    println!(
        "{:<18} {:<20} {:>6} {:>10.4} {:>6.1}%",
        "-",
        "unattributed",
        "",
        secs(pass.unattributed()),
        100.0 * ratio(secs(pass.unattributed()), base)
    );
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs this benchmark untraced in a child process and returns its
/// median pass wall time and whether its outputs checked out.
fn untraced_child(args: &Args) -> Result<(f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        eprintln!("untraced | {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let json = atspeed_trace::json::parse(last).map_err(|e| format!("untraced result: {e}"))?;
    let wall = json
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .and_then(|w| w.get("value"))
        .and_then(|v| v.as_f64())
        .ok_or("untraced result lacks wall_s")?;
    let correct = json.get("correct") == Some(&atspeed_trace::json::Value::Bool(true));
    Ok((wall, correct && out.status.success()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload tables-small|stress-large|serve-mixed \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "execution config: threads {} engine {} (pinned; SIM_THREADS and SIM_ENGINE are not read)",
        SIM.threads, SIM.engine
    );

    let untraced = if args.trace {
        match untraced_child(&args) {
            Ok(u) => Some(u),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if args.trace {
        atspeed_trace::set_tracing(true);
    }
    let max_passes = if args.trace { 1 } else { usize::MAX };
    let outcome = match args.workload.run(args.seed, args.seconds, max_passes) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut verdict = verdict(&outcome);
    let pass = &outcome.passes[0];
    println!(
        "passes {}, jobs {}, output digest {} (a changed digest means changed outputs)",
        outcome.passes.len(),
        outcome.passes.iter().map(|p| p.jobs.len()).sum::<usize>(),
        pass.digest
    );

    let metrics = match untraced {
        None => {
            let metrics = end_to_end(&outcome);
            print_metrics("end-to-end metrics:", &metrics);
            metrics
        }
        Some((wall, correct)) => {
            if !correct {
                verdict
                    .failures
                    .push("untraced run failed its output checks".to_owned());
            }
            print_layer_table(args.workload, pass);
            let path = format!("{TRACE_DIR}/{}.trace.json", args.workload.name());
            match std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| atspeed_trace::span::write_chrome_trace(&path))
            {
                Ok(()) => println!(
                    "chrome trace: {path} ({} events)",
                    atspeed_trace::span::global().num_events()
                ),
                Err(e) => eprintln!("perfbench: writing {path}: {e}"),
            }
            let metrics = per_layer(&outcome, pass, wall);
            print_metrics("per-layer metrics:", &metrics);
            metrics
        }
    };
    let failed = verdict.failures.len() as u64;
    println!(
        "  {:<34} {:>18} fraction",
        "failed_ratio",
        failed as f64 / verdict.attempted as f64
    );
    for f in &verdict.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{}",
        json_line(failed == 0, verdict.attempted, failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
