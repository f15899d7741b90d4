//! `tables-small`: the full-effort `tables` flows over the catalog
//! circuits whose run finishes in seconds, one circuit after another.
//!
//! Each circuit runs the four flows of `atspeed_bench::runner`: the
//! proposed procedure with a directed (ISCAS-89) or property (ITC-99)
//! `T_0`, the proposed procedure with a random `T_0` of length 1000 on the
//! same combinational set `C`, the \[4\] baseline and the dynamic baseline.
//! The proposed flows are composed from the public phase functions the way
//! `Pipeline::run` composes them, so each phase is timed from outside.

use std::time::Instant;

use atspeed_atpg::comb_tset::{self, CombTsetConfig};
use atspeed_atpg::{directed_t0, property_t0, random_t0, DirectedConfig, PropertyConfig};
use atspeed_bench::paper::paper_row;
use atspeed_circuit::catalog::{self, BenchmarkInfo, Suite};
use atspeed_circuit::Netlist;
use atspeed_core::dynamic::{dynamic_schedule, DynamicConfig};
use atspeed_core::phase4::baseline4;
use atspeed_core::{verify_test_set, ClaimedCoverage, IterateConfig, MemoryBudget, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::Sequence;

use crate::common::{run_passes, with_inputs, Job, Layers, Outcome, Pass, Quality, SIM};
use crate::flow::{proposed_flow, test_set_digest, FlowResult};

/// The catalog circuits whose four flows finish in under 10 s each.
pub const CIRCUITS: [&str; 13] = [
    "s298", "s344", "s382", "s400", "s526", "s641", "s820", "b01", "b02", "b03", "b06", "b09",
    "b10",
];

/// The random-`T_0` length of the paper's Table 5.
const RANDOM_T0_LEN: usize = 1000;

struct Circuit {
    info: BenchmarkInfo,
    nl: Netlist,
}

/// A compacted set and the coverage its flow claims, checked after the
/// timed region.
struct Claim<'a> {
    nl: &'a Netlist,
    universe: &'a FaultUniverse,
    set: TestSet,
    detected: Vec<FaultId>,
}

pub fn run(seed: u64, seconds: u64, max_passes: usize) -> Result<Outcome, String> {
    with_inputs(setup, drop, |circuits| {
        run_passes(seconds, max_passes, || pass(circuits, seed))
    })
}

fn setup(layers: &mut Layers) -> Result<Vec<Circuit>, String> {
    CIRCUITS
        .iter()
        .map(|name| {
            let info = catalog::by_name(name).map_err(|e| e.to_string())?;
            let nl = layers.time("setup", "circuit.build", || info.instantiate());
            layers.time("setup", "circuit.compile", || {
                std::hint::black_box(nl.compiled());
            });
            Ok(Circuit { info, nl })
        })
        .collect()
}

/// `T_0` length cap of the runner's full effort: the paper's length for
/// the circuit, clamped to 32..=1024.
fn t0_max_len(info: &BenchmarkInfo) -> usize {
    paper_row(info.name)
        .map_or(1024, |r| r.len_t0)
        .clamp(32, 1024)
}

fn atpg_t0(c: &Circuit, universe: &FaultUniverse, targets: &[FaultId], seed: u64) -> Sequence {
    let max_len = t0_max_len(&c.info);
    match c.info.suite {
        Suite::Iscas89 => directed_t0(
            &c.nl,
            universe,
            targets,
            &DirectedConfig {
                max_len,
                seed: seed.wrapping_add(11),
                sim: SIM,
                ..DirectedConfig::default()
            },
        ),
        Suite::Itc99 => property_t0(
            &c.nl,
            universe,
            targets,
            &PropertyConfig {
                max_len,
                seed: seed.wrapping_add(13),
                ..PropertyConfig::default()
            },
        ),
    }
}

fn iterate_config() -> IterateConfig {
    let mut cfg = IterateConfig::default();
    cfg.phase1.sim = SIM;
    cfg.omission.sim = SIM;
    cfg.omission.profile_state_words = MemoryBudget::default().profile_state_words;
    cfg
}

fn pass(circuits: &[Circuit], seed: u64) -> Pass {
    atspeed_sim::stats::reset();
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let mut digest = Vec::new();
    let mut universes = Vec::with_capacity(circuits.len());
    let mut claims: Vec<(usize, TestSet, Vec<FaultId>)> = Vec::new();
    let mut b4_claims: Vec<(usize, TestSet, TestSet)> = Vec::new();
    let mut p4 = (0usize, 0usize);

    let started = Instant::now();
    for (ci, c) in circuits.iter().enumerate() {
        // One job per circuit: its four flows, one row of the tables.
        let job_started = Instant::now();
        let nl = &c.nl;
        let n_sv = nl.num_ffs();
        pass.attempted += 4;
        let universe = FaultUniverse::full(nl);
        let targets: Vec<FaultId> = universe.representatives().to_vec();

        // Flows 1 and 2: the proposed procedure with the ATPG-style T_0,
        // then with a random T_0 on the same combinational set C.
        let comb_cfg = CombTsetConfig {
            seed: CombTsetConfig::default()
                .seed
                .wrapping_add(seed.wrapping_mul(0x9e37_79b9)),
            sim: SIM,
            ..CombTsetConfig::default()
        };
        let comb = match layers.time("comb-gen", "atpg.comb_tset", || {
            comb_tset::generate(nl, &universe, &comb_cfg)
        }) {
            Ok(set) if !set.tests.is_empty() => set.tests,
            Ok(_) => {
                pass.failures
                    .push(format!("{}: empty combinational set", c.info.name));
                universes.push(universe);
                continue;
            }
            Err(e) => {
                pass.failures
                    .push(format!("{}: comb_tset: {e}", c.info.name));
                universes.push(universe);
                continue;
            }
        };
        for label in ["prop", "rand"] {
            let t0 = layers.time("t0-gen", "atpg.t0_gen", || {
                if label == "prop" {
                    atpg_t0(c, &universe, &targets, seed)
                } else {
                    random_t0(nl, RANDOM_T0_LEN, seed.wrapping_add(17))
                }
            });
            match proposed_flow(
                nl,
                &universe,
                &targets,
                &comb,
                &t0,
                iterate_config(),
                &mut layers,
            ) {
                Ok(flow) => {
                    record_flow(&mut pass.quality, &flow, n_sv, label == "prop");
                    p4.0 += flow.p4.attempts;
                    p4.1 += flow.p4.combinations;
                    digest.push(format!("{} {label}", c.info.name));
                    digest.push(test_set_digest(&flow.compacted));
                    claims.push((ci, flow.compacted, flow.detected));
                }
                Err(e) => pass.failures.push(format!("{} {label}: {e}", c.info.name)),
            }
        }

        // Flow 3: the [4] baseline on the same C.
        let b4 = layers.time("baseline4", "core.baseline4", || {
            baseline4(nl, &universe, &comb, &targets)
        });
        digest.push(format!(
            "{} b4 {} {}",
            c.info.name,
            b4.initial.clock_cycles(n_sv),
            b4.compacted.clock_cycles(n_sv)
        ));
        digest.push(test_set_digest(&b4.compacted));
        b4_claims.push((ci, b4.initial, b4.compacted));

        // Flow 4: the dynamic baseline.
        let dy = layers.time("baseline-dynamic", "core.dynamic", || {
            dynamic_schedule(
                nl,
                &universe,
                &comb,
                &targets,
                &DynamicConfig {
                    seed,
                    sim: SIM,
                    ..DynamicConfig::default()
                },
            )
        });
        digest.push(format!("{} dyn {dy:?}", c.info.name));
        universes.push(universe);
        pass.jobs.push(Job {
            latency: job_started.elapsed(),
            hit: false,
        });
    }
    pass.wall = started.elapsed();
    atspeed_sim::stats::set_phase("post-flow");
    pass.sim = Some(atspeed_sim::stats::report());
    crate::flow::read_counters(&mut pass.counters, p4);

    // Output checks, outside the timed region: the serial reference
    // engine re-simulates every compacted set against its flow's claim.
    atspeed_sim::stats::set_phase("verify");
    let mut checks: Vec<Claim> = claims
        .into_iter()
        .map(|(ci, set, detected)| Claim {
            nl: &circuits[ci].nl,
            universe: &universes[ci],
            set,
            detected,
        })
        .collect();
    for (ci, initial, compacted) in b4_claims {
        // [4] compaction must keep every fault its initial set detects.
        let (nl, universe) = (&circuits[ci].nl, &universes[ci]);
        let reps = universe.representatives();
        let flags = initial.detects(nl, universe, reps);
        let detected = reps
            .iter()
            .zip(flags)
            .filter_map(|(f, d)| d.then_some(*f))
            .collect();
        checks.push(Claim {
            nl,
            universe,
            set: compacted,
            detected,
        });
    }
    for claim in checks {
        if let Err(e) = verify_test_set(
            claim.nl,
            claim.universe,
            &claim.set,
            &ClaimedCoverage::set_only(claim.detected),
        ) {
            pass.failures.push(format!(
                "{}: oracle rejected a compacted set: {e}",
                claim.nl.name()
            ));
        }
    }
    pass.layers = layers;
    pass.digest = atspeed_trace::history::fingerprint(&digest);
    pass
}

fn record_flow(q: &mut Quality, flow: &FlowResult, n_sv: usize, table1: bool) {
    q.test_cycles += flow.compacted.clock_cycles(n_sv) as u64;
    q.vectors += flow.compacted.total_vectors() as u64;
    q.tests += flow.compacted.len() as u64;
    if table1 {
        q.faults_detected += flow.detected.len() as u64;
    }
}
