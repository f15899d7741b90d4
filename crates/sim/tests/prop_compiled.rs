//! Differential tests: the compiled CSR kernel against the legacy
//! pointer-walking evaluator, and the serial engines against the parallel
//! front end at `SIM_THREADS` ∈ {1, 4}.
//!
//! The legacy [`CombSim`] walker is the reference implementation: every
//! property here demands *bit-identical* values or detection masks from the
//! compiled full pass with and without overrides, including 3-valued X
//! inputs and fault-injection overrides.

use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{catalog, Netlist};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{
    CombFaultSim, CombSim, CombTest, CompiledSim, Overrides, ParallelFsim, SeqSim, Sequence,
    SimConfig, V3, W3,
};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 1usize..8, 8usize..80, any::<u64>()).prop_map(
        |(pis, pos, ffs, gates, seed)| {
            generate(&SynthSpec::new("prop", pis, pos, ffs, gates, seed)).unwrap()
        },
    )
}

/// Splitmix-style deterministic stream for seeding test values.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A random 3-valued word: every slot independently 0, 1, or X.
fn random_w3(next: &mut impl FnMut() -> u64) -> W3 {
    let a = next();
    let b = next();
    W3 {
        zero: a & !b,
        one: !a & b,
    }
}

/// Seeds both a legacy and a compiled value array with the same random
/// 3-valued sources.
fn seed_both(nl: &Netlist, vals: &mut [W3], fast: &mut [W3], next: &mut impl FnMut() -> u64) {
    for &pi in nl.pis() {
        let w = random_w3(next);
        vals[pi.index()] = w;
        fast[pi.index()] = w;
    }
    for ff in nl.ffs() {
        let w = random_w3(next);
        vals[ff.q().index()] = w;
        fast[ff.q().index()] = w;
    }
}

/// A random override set over up to 63 collapsed faults of `nl`.
fn random_overrides(nl: &Netlist, u: &FaultUniverse, next: &mut impl FnMut() -> u64) -> Overrides {
    let mut ov = Overrides::new(nl);
    let reps = u.representatives();
    for (k, &fid) in reps.iter().take(63).enumerate() {
        if next() & 3 == 0 {
            ov.add(u.fault(fid), 1u64 << (k % 63 + 1));
        }
    }
    ov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled full pass == legacy walker on arbitrary 3-valued inputs.
    #[test]
    fn compiled_full_pass_matches_legacy(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut fast = vec![W3::ALL_X; nl.num_nets()];
        let mut legacy = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for _ in 0..4 {
            seed_both(&nl, &mut vals, &mut fast, &mut next);
            legacy.eval(&mut vals);
            sim.eval_slice(&mut fast);
            prop_assert_eq!(&fast, &vals);
        }
    }

    /// Compiled full pass with fault overrides == legacy walker with the
    /// same overrides (stem, gate-pin, FF-pin, and PO-pin faults).
    #[test]
    fn compiled_override_pass_matches_legacy(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let u = FaultUniverse::full(&nl);
        let ov = random_overrides(&nl, &u, &mut next);
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut fast = vec![W3::ALL_X; nl.num_nets()];
        let mut legacy = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for _ in 0..4 {
            seed_both(&nl, &mut vals, &mut fast, &mut next);
            legacy.eval_with(&mut vals, &ov);
            sim.eval_with_slice(&mut fast, &ov);
            prop_assert_eq!(&fast, &vals);
        }
    }

    /// Parallel fault sharding over the compiled engines returns the same
    /// masks as the legacy brute-force oracle at 1 and 4 threads.
    #[test]
    fn parallel_compiled_matches_bruteforce(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let tests: Vec<CombTest> = (0..16)
            .map(|_| {
                CombTest::new(
                    (0..nl.num_ffs()).map(|_| V3::from_bool(next() & 1 == 1)).collect(),
                    (0..nl.num_pis()).map(|_| V3::from_bool(next() & 1 == 1)).collect(),
                )
            })
            .collect();
        let oracle = CombFaultSim::new(&nl).detect_block_bruteforce(&tests, &faults, &u);
        for threads in [1usize, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            prop_assert_eq!(
                &par.detect_block(&tests, &faults, &u),
                &oracle,
                "threads = {}", threads
            );
        }
    }
}

/// Deterministic test block for a catalog circuit.
fn catalog_tests(nl: &Netlist, n: usize, seed: u64) -> Vec<CombTest> {
    let mut next = rng(seed);
    (0..n)
        .map(|_| {
            CombTest::new(
                (0..nl.num_ffs())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect(),
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect(),
            )
        })
        .collect()
}

/// An evenly spread sample of up to `cap` collapsed faults.
fn sample_faults(u: &FaultUniverse, cap: usize) -> Vec<FaultId> {
    let reps = u.representatives();
    let stride = (reps.len() / cap).max(1);
    reps.iter().copied().step_by(stride).take(cap).collect()
}

/// On every catalog circuit, the compiled event-driven PPSFP engine and the
/// legacy brute-force walker report bit-identical detection masks.
#[test]
fn catalog_detected_sets_match_legacy() {
    for info in catalog::all() {
        let nl = info.instantiate();
        let u = FaultUniverse::full(&nl);
        let faults = sample_faults(&u, 120);
        let tests = catalog_tests(&nl, 16, 0xA5A5 ^ info.num_gates as u64);
        let mut sim = CombFaultSim::new(&nl);
        let fast = sim.detect_block(&tests, &faults, &u);
        let slow = sim.detect_block_bruteforce(&tests, &faults, &u);
        assert_eq!(fast, slow, "detection masks diverge on {}", info.name);
    }
}

/// On every catalog circuit, the compiled sequential simulator reproduces the legacy walker's primary-output
/// values and captured states exactly.
#[test]
fn catalog_good_traces_match_legacy() {
    for info in catalog::all() {
        let nl = info.instantiate();
        let mut next = rng(0x5EED ^ info.num_ffs as u64);
        let seq: Sequence = (0..10)
            .map(|_| {
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect::<Vec<_>>()
            })
            .collect();
        let init: Vec<V3> = (0..nl.num_ffs())
            .map(|_| V3::from_bool(next() & 1 == 1))
            .collect();
        let trace = SeqSim::new(&nl).run(&init, &seq);

        // Legacy reference: per-cycle full walker passes.
        let mut legacy = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        let mut state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
        for t in 0..seq.len() {
            let vec = seq.vector(t);
            for (i, &pi) in nl.pis().iter().enumerate() {
                vals[pi.index()] = W3::broadcast(vec[i]);
            }
            for (f, ff) in nl.ffs().iter().enumerate() {
                vals[ff.q().index()] = state[f];
            }
            legacy.eval(&mut vals);
            let pos: Vec<V3> = nl.pos().iter().map(|&po| vals[po.index()].get(0)).collect();
            assert_eq!(
                trace.po_values[t], pos,
                "PO values diverge on {}",
                info.name
            );
            state = nl.ffs().iter().map(|ff| vals[ff.d().index()]).collect();
            let st: Vec<V3> = state.iter().map(|w| w.get(0)).collect();
            assert_eq!(trace.states[t], st, "states diverge on {}", info.name);
        }
    }
}

/// Sequential fault detection through the parallel front end is identical
/// at 1 and 4 threads on a catalog circuit.
#[test]
fn catalog_seq_detection_thread_invariant() {
    let nl = catalog::by_name("s344").unwrap().instantiate();
    let u = FaultUniverse::full(&nl);
    let faults: Vec<FaultId> = u.representatives().to_vec();
    let mut next = rng(17);
    let seq: Sequence = (0..20)
        .map(|_| {
            (0..nl.num_pis())
                .map(|_| V3::from_bool(next() & 1 == 1))
                .collect::<Vec<_>>()
        })
        .collect();
    let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
    let serial =
        ParallelFsim::new(&nl, SimConfig::with_threads(1)).detect(&init, &seq, &faults, &u, true);
    let threaded =
        ParallelFsim::new(&nl, SimConfig::with_threads(4)).detect(&init, &seq, &faults, &u, true);
    assert_eq!(serial, threaded);
    assert!(serial.iter().any(|&d| d), "some fault should be detected");
}
