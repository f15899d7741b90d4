//! `stress-large`: the `stress` binary's flow on one layered synthetic
//! circuit whose simulation working set exceeds one core's L2.
//!
//! The circuit is synthesized from a seeded `SynthSpec` (64 layers, 32
//! fanout hubs), written to `.bench` and parsed back (set-up), then driven
//! through Phases 1–4 on a stride-sampled fault list with a random `T_0`
//! and a synthetic combinational set, with the `stress` settings. PODEM is
//! never called.
//!
//! This workload is for paired runs at one seed. It is not listed in
//! `BENCHMARK.json`: its figures swing too far from seed to seed (see the
//! README).

use std::time::Instant;

use atspeed_atpg::compact::OmissionConfig;
use atspeed_atpg::random_t0;
use atspeed_circuit::bench_fmt;
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::Netlist;
use atspeed_core::iterate::IterateConfig;
use atspeed_core::phase1::Phase1Config;
use atspeed_core::{verify_test_set, ClaimedCoverage};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombTest, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{run_passes, with_inputs, Job, Layers, Outcome, Pass, SIM};
use crate::flow::{proposed_flow, read_counters, test_set_digest};

/// Gates of the circuit (the generator may add a few): about 2.4 MB of
/// compiled arrays and net values, above a 2 MiB L2.
const GATES: usize = 32_000;
/// Scan flip-flops.
const FFS: usize = 256;
/// Sampled target faults.
const FAULTS: usize = 600;
/// Random `T_0` length.
const T0_LEN: usize = 96;
/// Synthetic combinational tests (scan-in candidates).
const COMB_TESTS: usize = 12;

pub fn run(seed: u64, seconds: u64, max_passes: usize) -> Result<Outcome, String> {
    with_inputs(
        |layers| setup(seed, layers),
        drop,
        |nl| run_passes(seconds, max_passes, || pass(nl, seed)),
    )
}

fn setup(seed: u64, layers: &mut Layers) -> Result<Netlist, String> {
    let spec = SynthSpec::new("stress", 64, 32, FFS, GATES, seed)
        .with_layers(64)
        .with_fanout_hubs(32);
    let synthesized = layers
        .time("setup", "circuit.build", || generate(&spec))
        .map_err(|e| format!("synthesis failed: {e}"))?;
    let text = layers.time("setup", "circuit.write", || bench_fmt::write(&synthesized));
    let nl = layers
        .time("setup", "circuit.parse", || {
            bench_fmt::parse("stress", &text)
        })
        .map_err(|e| format!("parse failed: {e}"))?;
    layers.time("setup", "circuit.compile", || {
        std::hint::black_box(nl.compiled());
    });
    Ok(nl)
}

/// Random scan-in states and input vectors, as in the `stress` binary.
fn synthetic_comb_tests(nl: &Netlist, seed: u64) -> Vec<CombTest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..COMB_TESTS)
        .map(|_| {
            let state: Vec<V3> = (0..nl.num_ffs())
                .map(|_| V3::from_bool(rng.gen()))
                .collect();
            let inputs: Vec<V3> = (0..nl.num_pis())
                .map(|_| V3::from_bool(rng.gen()))
                .collect();
            CombTest::new(state, inputs)
        })
        .collect()
}

/// Stride-samples the collapsed representatives.
fn sample_faults(universe: &FaultUniverse) -> Vec<FaultId> {
    let reps = universe.representatives();
    let stride = (reps.len() / FAULTS).max(1);
    reps.iter().step_by(stride).take(FAULTS).copied().collect()
}

fn iterate_config() -> IterateConfig {
    IterateConfig {
        phase1: Phase1Config {
            max_candidates: Some(8),
            score_sample: Some(64),
            scan_out_rule: Default::default(),
            sim: SIM,
        },
        omission: OmissionConfig {
            max_passes: 1,
            chunked: true,
            attempt_budget: 24,
            sim: SIM,
            profile_state_words: 4,
        },
        max_iterations: Some(2),
    }
}

fn pass(nl: &Netlist, seed: u64) -> Pass {
    atspeed_sim::stats::reset();
    let mut pass = Pass {
        attempted: 1,
        ..Pass::default()
    };
    let mut layers = Layers::default();

    let started = Instant::now();
    let universe = FaultUniverse::full(nl);
    let targets = sample_faults(&universe);
    let comb = synthetic_comb_tests(nl, seed ^ 0xC0DE);
    let t0 = layers.time("t0-gen", "atpg.t0_gen", || {
        random_t0(nl, T0_LEN, seed.wrapping_add(17))
    });
    let flow = proposed_flow(
        nl,
        &universe,
        &targets,
        &comb,
        &t0,
        iterate_config(),
        &mut layers,
    );
    pass.wall = started.elapsed();
    pass.jobs.push(Job {
        latency: pass.wall,
        hit: false,
    });
    atspeed_sim::stats::set_phase("post-flow");
    pass.sim = Some(atspeed_sim::stats::report());
    let p4 = flow
        .as_ref()
        .map_or((0, 0), |f| (f.p4.attempts, f.p4.combinations));
    read_counters(&mut pass.counters, p4);
    pass.layers = layers;

    // Output check, outside the timed region.
    atspeed_sim::stats::set_phase("verify");
    match flow {
        Ok(flow) => {
            let q = &mut pass.quality;
            q.test_cycles = flow.compacted.clock_cycles(nl.num_ffs()) as u64;
            q.faults_detected = flow.detected.len() as u64;
            q.vectors = flow.compacted.total_vectors() as u64;
            q.tests = flow.compacted.len() as u64;
            pass.digest = test_set_digest(&flow.compacted);
            let claim = ClaimedCoverage::set_only(flow.detected);
            if let Err(e) = verify_test_set(nl, &universe, &flow.compacted, &claim) {
                pass.failures
                    .push(format!("oracle rejected the compacted set: {e}"));
            }
        }
        Err(e) => pass.failures.push(e.to_string()),
    }
    pass
}
