//! Differential fuzzing across independent engine implementations.
//!
//! A [`Case`] is a fully deterministic point in generator-parameter space:
//! a [`SynthSpec`] for the circuit, a data seed for the stimuli, a sequence
//! length, and a cap on the fault sample. [`run_case`] regenerates
//! everything from those parameters and runs every differential check the
//! workspace supports:
//!
//! 1. **logic** — the legacy [`CombSim`] walker against the compiled CSR
//!    kernel ([`CompiledSim`]) on the fault-free and fault-override full
//!    passes, over random 3-valued inputs;
//! 2. **comb-detect / matrix** — the serial PPSFP engine against the
//!    test-sharded (fault-dropping) parallel front end, plus the
//!    fault-sharded detection matrix against the detection bitmap
//!    ([`ParallelFsim::check_matrix_consistency`]);
//! 3. **seq-detect** — serial sequential fault simulation against the
//!    fault-sharded parallel front end at each requested thread count;
//!    and **seq-reference** — [`SeqFaultSim::detect`] and
//!    [`SeqFaultSim::profiles`] against [`seq_reference`], which simulates
//!    one fault at a time with the legacy [`CombSim`] walker cycle by
//!    cycle, a good and a faulty machine in separate value arrays;
//! 4. **omission** — the serial Phase-2 vector-omission sweep against the
//!    speculative parallel sweep
//!    ([`check_omission_differential`](atspeed_atpg::compact::check_omission_differential)).
//!
//! Any disagreement surfaces as a [`Divergence`]; [`run_fuzz`] then shrinks
//! the case ([`crate::shrink`]) and dumps a reproduction bundle
//! ([`crate::repro`]).

use std::path::PathBuf;

use atspeed_atpg::compact::{check_omission_differential, OmissionConfig};
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{FfId, Netlist, PoId};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{
    CombFaultSim, CombSim, CombTest, CompiledSim, DetectionProfile, Overrides, ParallelFsim,
    SeqFaultSim, Sequence, SimConfig, State, V3, W3,
};

/// Salt so stimuli derivation is independent of how many random draws the
/// logic checks consumed (the repro dumper regenerates stimuli directly).
const STIMULI_SALT: u64 = 0x5717_0711;

/// One deterministic differential-fuzzing case.
///
/// Everything [`run_case`] simulates is a pure function of these fields:
/// the same case always reproduces the same circuit, stimuli, and verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Generator parameters for the circuit under test.
    pub spec: SynthSpec,
    /// Seed for the stimuli (initial state, input sequence, test block).
    pub data_seed: u64,
    /// Length of the at-speed input sequence.
    pub seq_len: usize,
    /// Upper bound on the collapsed-fault sample size.
    pub fault_cap: usize,
}

impl Case {
    /// Derives case `i` of the fuzzing run with master seed `seed`.
    ///
    /// Every third case uses the layered generator (with occasional fanout
    /// hubs) at a larger gate count, so the structures the 100k-gate
    /// stress path exercises — deep layered logic, skewed fanout — are
    /// also differential-fuzzed, just at a CI-friendly scale.
    pub fn from_iteration(seed: u64, i: usize) -> Case {
        let mut next = rng(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let num_pis = 2 + (next() % 4) as usize; // 2..=5
        let num_pos = 1 + (next() % 3) as usize; // 1..=3
        let num_ffs = 1 + (next() % 7) as usize; // 1..=7
        let floor = num_pos + num_ffs;
        let layered = i % 3 == 2;
        let num_gates = if layered {
            (40 + (next() % 160) as usize).max(floor) // 40..=199
        } else {
            (8 + (next() % 72) as usize).max(floor) // 8..=79
        };
        let mut spec = SynthSpec::new("fuzz", num_pis, num_pos, num_ffs, num_gates, next());
        if layered {
            spec = spec.with_layers(2 + (next() % 8) as usize); // 2..=9
            if next() & 1 == 0 {
                spec = spec.with_fanout_hubs(1 + (next() % 4) as usize); // 1..=4
            }
        }
        Case {
            spec,
            data_seed: next(),
            seq_len: 4 + (next() % 16) as usize,   // 4..=19
            fault_cap: 8 + (next() % 56) as usize, // 8..=63
        }
    }
}

/// A disagreement between two engine implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which differential check failed (`logic`, `comb-detect`, `matrix`,
    /// `seq-detect`, `seq-reference`, `omission`, or `synth` when
    /// generation itself errors). It is written into the repro bundle's
    /// `case.txt`.
    pub check: &'static str,
    /// Human-readable description of the first disagreement found.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence in {}: {}", self.check, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// What a clean [`run_case`] exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseReport {
    /// Differential comparisons performed.
    pub checks: usize,
    /// Collapsed faults in the sample.
    pub faults: usize,
    /// Nets in the generated circuit.
    pub nets: usize,
}

/// Splitmix-style deterministic stream for stimuli.
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

/// A random scalar value: X with probability 1/16, else a fair bit.
fn random_v3(next: &mut impl FnMut() -> u64) -> V3 {
    let r = next();
    if r.is_multiple_of(16) {
        V3::X
    } else if r & 2 != 0 {
        V3::One
    } else {
        V3::Zero
    }
}

/// The deterministic stimuli of a case: initial state and input sequence.
///
/// Derivation depends only on `case.data_seed`, `case.seq_len`, and the
/// circuit interface, so the repro dumper can regenerate byte-identical
/// vector files without re-running any checks.
pub fn case_stimuli(case: &Case, nl: &Netlist) -> (State, Sequence) {
    let mut next = rng(case.data_seed ^ STIMULI_SALT);
    let init: State = (0..nl.num_ffs()).map(|_| random_v3(&mut next)).collect();
    let seq: Sequence = (0..case.seq_len)
        .map(|_| (0..nl.num_pis()).map(|_| random_v3(&mut next)).collect())
        .collect();
    (init, seq)
}

/// An evenly spread sample of up to `cap` collapsed faults.
fn sample_faults(u: &FaultUniverse, cap: usize) -> Vec<FaultId> {
    let reps = u.representatives();
    let stride = (reps.len() / cap.max(1)).max(1);
    reps.iter().copied().step_by(stride).take(cap).collect()
}

/// A random override set over up to 63 collapsed faults.
fn random_overrides(nl: &Netlist, u: &FaultUniverse, next: &mut impl FnMut() -> u64) -> Overrides {
    let mut ov = Overrides::new(nl);
    for (k, &fid) in u.representatives().iter().take(63).enumerate() {
        if next() & 3 == 0 {
            ov.add(u.fault(fid), 1u64 << (k % 63 + 1));
        }
    }
    ov
}

/// Legacy walker vs compiled kernel on the fault-free and override passes.
fn check_logic(
    nl: &Netlist,
    u: &FaultUniverse,
    next: &mut impl FnMut() -> u64,
) -> Result<usize, Divergence> {
    let sim = CompiledSim::new(nl.compiled());
    let mut legacy = CombSim::new(nl);
    let mut slow = vec![W3::ALL_X; nl.num_nets()];
    let mut fast = vec![W3::ALL_X; nl.num_nets()];
    let ov = random_overrides(nl, u, next);

    let mut checks = 0;
    for round in 0..4 {
        for net in nl
            .pis()
            .iter()
            .copied()
            .chain(nl.ffs().iter().map(|ff| ff.q()))
        {
            let w = random_w3(next);
            slow[net.index()] = w;
            fast[net.index()] = w;
        }
        // Three fault-free rounds, then one under the override set.
        let path = if round < 3 {
            legacy.eval(&mut slow);
            sim.eval_slice(&mut fast);
            "full"
        } else {
            legacy.eval_with(&mut slow, &ov);
            sim.eval_with_slice(&mut fast, &ov);
            "override"
        };
        if let Some(net) = nl.net_ids().find(|n| fast[n.index()] != slow[n.index()]) {
            return Err(Divergence {
                check: "logic",
                detail: format!(
                    "{path} pass: net `{}` compiled {:?} vs legacy {:?}",
                    nl.net_name(net),
                    fast[net.index()],
                    slow[net.index()],
                ),
            });
        }
        checks += 1;
    }
    Ok(checks)
}

/// Whether `faulty` differs observably from `good` in slot 0 (both binary
/// and opposite).
fn differs(good: W3, faulty: W3) -> bool {
    matches!(
        (good.get(0), faulty.get(0)),
        (V3::Zero, V3::One) | (V3::One, V3::Zero)
    )
}

/// One-fault-at-a-time sequential reference: for each fault, a good and a
/// faulty machine run cycle by cycle through the legacy [`CombSim`]
/// walker, each in its own value array, and only slot 0 is read.
///
/// Returns, per fault, whether `(init, seq)` with a final full scan-out
/// detects it (the [`SeqFaultSim::detect`] predicate with
/// `observe_final_state`), and its [`DetectionProfile`] as
/// [`SeqFaultSim::profiles`] defines it: the first cycle a primary output
/// detects the fault, and every earlier-or-equal cycle whose captured state
/// differs while no primary output has detected it yet.
pub fn seq_reference(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    faults: &[FaultId],
) -> (Vec<bool>, Vec<DetectionProfile>) {
    let mut sim = CombSim::new(nl);
    let mut ov = Overrides::new(nl);
    let mut good = vec![W3::ALL_X; nl.num_nets()];
    let mut bad = vec![W3::ALL_X; nl.num_nets()];
    let mut detected = Vec::with_capacity(faults.len());
    let mut profiles = Vec::with_capacity(faults.len());
    for &fid in faults {
        ov.clear();
        ov.add(u.fault(fid), u64::MAX);
        let mut good_state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
        let mut bad_state = good_state.clone();
        let mut profile = DetectionProfile::default();
        let mut state_differs = false;
        for t in 0..seq.len() {
            let vector = seq.vector(t);
            for (vals, state) in [(&mut good, &good_state), (&mut bad, &bad_state)] {
                for (&pi, &v) in nl.pis().iter().zip(vector) {
                    vals[pi.index()] = W3::broadcast(v);
                }
                for (ff, &w) in nl.ffs().iter().zip(state) {
                    vals[ff.q().index()] = w;
                }
            }
            sim.eval(&mut good);
            sim.eval_with(&mut bad, &ov);
            let po_hit = nl.pos().iter().enumerate().any(|(k, &po)| {
                differs(
                    good[po.index()],
                    ov.apply_po_pin(PoId::from_index(k), bad[po.index()]),
                )
            });
            if po_hit && profile.po_detect.is_none() {
                profile.po_detect = Some(t as u32);
            }
            for (f, ff) in nl.ffs().iter().enumerate() {
                good_state[f] = good[ff.d().index()];
                bad_state[f] = ov.apply_ff_pin(FfId::from_index(f), bad[ff.d().index()]);
            }
            state_differs = good_state
                .iter()
                .zip(&bad_state)
                .any(|(&g, &b)| differs(g, b));
            if state_differs && profile.po_detect.is_none() {
                if profile.state_diff.len() <= t / 64 {
                    profile.state_diff.resize(t / 64 + 1, 0);
                }
                profile.state_diff[t / 64] |= 1 << (t % 64);
            }
        }
        detected.push(profile.po_detect.is_some() || state_differs);
        profiles.push(profile);
    }
    (detected, profiles)
}

/// [`SeqFaultSim::detect`] (with a final scan-out) and
/// [`SeqFaultSim::profiles`] against [`seq_reference`] on every fault.
///
/// # Errors
///
/// Returns a `seq-reference` [`Divergence`] naming the first fault whose
/// verdict or profile differs.
pub fn check_seq_reference(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    faults: &[FaultId],
) -> Result<usize, Divergence> {
    let (want_det, want_prof) = seq_reference(nl, u, init, seq, faults);
    let mut fsim = SeqFaultSim::new(nl);
    let det = fsim.detect(init, seq, faults, u, true);
    let prof = fsim.profiles(init, seq, faults, u);
    let diverged = |what: &str, i: usize, engine: String, reference: String| Divergence {
        check: "seq-reference",
        detail: format!(
            "{what} of fault {:?} (index {i}): engine {engine} vs reference {reference}",
            faults[i]
        ),
    };
    if let Some(i) = (0..faults.len()).find(|&i| det[i] != want_det[i]) {
        return Err(diverged(
            "detect",
            i,
            det[i].to_string(),
            want_det[i].to_string(),
        ));
    }
    if let Some(i) = (0..faults.len()).find(|&i| prof[i] != want_prof[i]) {
        return Err(diverged(
            "profile",
            i,
            format!("{:?}", prof[i]),
            format!("{:?}", want_prof[i]),
        ));
    }
    Ok(2)
}

fn first_mismatch(a: &[bool], b: &[bool], faults: &[FaultId]) -> String {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!(
            "fault {:?} (index {i}): serial detected={} parallel detected={}",
            faults[i], a[i], b[i]
        ),
        None => format!("lengths differ: {} vs {}", a.len(), b.len()),
    }
}

/// Runs every differential check of one case at the given thread counts.
///
/// # Errors
///
/// Returns the first [`Divergence`] found — any bit of disagreement between
/// two engines that are specified to be equivalent.
pub fn run_case(case: &Case, threads: &[usize]) -> Result<CaseReport, Divergence> {
    let nl = generate(&case.spec).map_err(|e| Divergence {
        check: "synth",
        detail: format!("generator rejected {:?}: {e}", case.spec),
    })?;
    let u = FaultUniverse::full(&nl);
    let mut next = rng(case.data_seed);
    let mut report = CaseReport {
        checks: 0,
        faults: 0,
        nets: nl.num_nets(),
    };

    report.checks += check_logic(&nl, &u, &mut next)?;

    let faults = sample_faults(&u, case.fault_cap);
    report.faults = faults.len();

    // Combinational detection: serial PPSFP vs the test-sharded parallel
    // front end (which drops faults across partitions), plus the
    // matrix-vs-bitmap consistency check on the fault-sharded path.
    let tests: Vec<CombTest> = (0..8 + case.seq_len * 3)
        .map(|_| {
            CombTest::new(
                (0..nl.num_ffs()).map(|_| random_v3(&mut next)).collect(),
                (0..nl.num_pis()).map(|_| random_v3(&mut next)).collect(),
            )
        })
        .collect();
    let comb_serial = CombFaultSim::new(&nl).detect_all(&tests, &faults, &u);
    for &t in threads {
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(t));
        let got = par.detect_all(&tests, &faults, &u);
        if got != comb_serial {
            return Err(Divergence {
                check: "comb-detect",
                detail: format!(
                    "threads {t}: {}",
                    first_mismatch(&comb_serial, &got, &faults)
                ),
            });
        }
        par.check_matrix_consistency(&tests, &faults, &u)
            .map_err(|m| Divergence {
                check: "matrix",
                detail: format!("threads {t}: {m}"),
            })?;
        report.checks += 2;
    }

    // Sequential detection: serial engine vs the fault-sharded parallel
    // front end.
    let (init, seq) = case_stimuli(case, &nl);
    let seq_serial = SeqFaultSim::new(&nl).detect(&init, &seq, &faults, &u, true);
    for &t in threads {
        let got = ParallelFsim::new(&nl, SimConfig::with_threads(t))
            .detect(&init, &seq, &faults, &u, true);
        if got != seq_serial {
            return Err(Divergence {
                check: "seq-detect",
                detail: format!(
                    "threads {t}: {}",
                    first_mismatch(&seq_serial, &got, &faults)
                ),
            });
        }
        report.checks += 1;
    }
    report.checks += check_seq_reference(&nl, &u, &init, &seq, &faults)?;

    // Vector omission: serial sweep vs speculative parallel sweeps, on the
    // faults this sequence actually detects.
    let targets: Vec<FaultId> = faults
        .iter()
        .zip(&seq_serial)
        .filter_map(|(&f, &d)| d.then_some(f))
        .collect();
    if seq.len() > 1 && !targets.is_empty() {
        check_omission_differential(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
            threads,
        )
        .map_err(|d| Divergence {
            check: "omission",
            detail: d.to_string(),
        })?;
        report.checks += 1;
    }

    Ok(report)
}

/// Settings for a fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed; case `i` derives from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to run.
    pub iters: usize,
    /// Thread counts the parallel engines are exercised at.
    pub threads: Vec<usize>,
    /// Where to dump reproduction bundles for failing cases (skipped when
    /// `None`).
    pub out_dir: Option<PathBuf>,
    /// Bound on minimizer re-simulations per failing case.
    pub shrink_steps: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            threads: vec![2, 3],
            out_dir: None,
            shrink_steps: 64,
        }
    }
}

/// One failing case, minimized and (optionally) dumped to disk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case as originally derived.
    pub case: Case,
    /// The smallest case the minimizer found that still diverges.
    pub minimized: Case,
    /// The divergence of the minimized case.
    pub divergence: Divergence,
    /// Where the reproduction bundle was written, if anywhere.
    pub repro_dir: Option<PathBuf>,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Cases derived and executed.
    pub cases_run: usize,
    /// Differential comparisons performed across all clean cases.
    pub checks_run: usize,
    /// Every diverging case (empty on a healthy workspace).
    pub failures: Vec<FuzzFailure>,
}

/// Runs `cfg.iters` deterministic cases, minimizing and dumping every
/// failure. Never panics on a divergence — all failures are collected so a
/// single run reports every engine pair that disagrees.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let _sp = atspeed_trace::span("verify.fuzz");
    let mut out = FuzzOutcome::default();
    for i in 0..cfg.iters {
        let case = Case::from_iteration(cfg.seed, i);
        atspeed_trace::metrics::global()
            .counter("verify/cases")
            .inc();
        match run_case(&case, &cfg.threads) {
            Ok(rep) => {
                out.checks_run += rep.checks;
            }
            Err(div) => {
                atspeed_trace::error!("verify.fuzz", "engines diverged";
                    iteration = i, check = div.check, detail = div.detail);
                atspeed_trace::metrics::global()
                    .counter("verify/divergences")
                    .inc();
                let (minimized, divergence) =
                    crate::shrink::minimize(&case, &cfg.threads, cfg.shrink_steps);
                let repro_dir = cfg.out_dir.as_deref().and_then(|root| {
                    match crate::repro::dump_repro(root, &minimized, &divergence) {
                        Ok(dir) => Some(dir),
                        Err(e) => {
                            atspeed_trace::error!("verify.fuzz", "failed to dump repro";
                                error = e.to_string());
                            None
                        }
                    }
                });
                out.failures.push(FuzzFailure {
                    case,
                    minimized,
                    divergence,
                    repro_dir,
                });
            }
        }
        out.cases_run += 1;
    }
    out
}

/// Aggregate result of [`run_malformed_fuzz`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MalformedOutcome {
    /// Mutated inputs fed to the parsers.
    pub cases_run: usize,
    /// Inputs the parsers rejected with a structured error.
    pub rejected: usize,
    /// Inputs that still parsed (benign mutations happen).
    pub accepted: usize,
}

/// Feeds `iters` deterministically mutated inputs into the two parsing
/// surfaces a served request reaches — `.bench` netlist parsing
/// ([`bench_fmt::parse`]) and the stimuli wire codec
/// ([`crate::repro::decode_stimuli`]) — and asserts, by returning at all,
/// that no mutation panics, aborts, or wedges a parser. Every malformed
/// input must surface as an `Err`; benign mutations that still parse are
/// counted, not failed.
///
/// This is the client-cannot-crash-the-server guarantee at the payload
/// layer; the serve crate's own tests cover the framing layer.
pub fn run_malformed_fuzz(seed: u64, iters: usize) -> MalformedOutcome {
    let _sp = atspeed_trace::span("verify.malformed");
    let mut next = rng(seed ^ 0xBAD_F00D);
    let case = Case::from_iteration(seed, 0);
    let nl = generate(&case.spec).expect("derived specs generate");
    let bench = atspeed_circuit::bench_fmt::write(&nl);
    let (init, seq) = case_stimuli(&case, &nl);
    let vectors = crate::repro::encode_stimuli(&init, &seq);

    let mutate = |text: &str, next: &mut dyn FnMut() -> u64| -> String {
        let mut bytes = text.as_bytes().to_vec();
        match next() % 6 {
            // Truncate mid-declaration.
            0 => bytes.truncate((next() as usize) % (bytes.len() + 1)),
            // Flip one byte to arbitrary ASCII (including NUL and DEL).
            1 if !bytes.is_empty() => {
                let i = (next() as usize) % bytes.len();
                bytes[i] = (next() & 0x7f) as u8;
            }
            // Splice in a garbage line.
            2 => {
                let i = (next() as usize) % (bytes.len() + 1);
                let junk: Vec<u8> = (0..1 + next() % 40)
                    .map(|_| (next() & 0x7f) as u8)
                    .collect();
                bytes.splice(i..i, junk);
            }
            // Duplicate a random chunk (redefinitions, repeated vectors).
            3 if bytes.len() > 1 => {
                let a = (next() as usize) % bytes.len();
                let b = a + (next() as usize) % (bytes.len() - a);
                let chunk = bytes[a..b].to_vec();
                bytes.extend(chunk);
            }
            // Replace wholesale with short binary junk.
            4 => bytes = (0..next() % 64).map(|_| next() as u8).collect(),
            // Blow one line up to a few kilobytes (bounded-read probe).
            _ => {
                let c = [b'0', b'1', b'x', b'('][(next() % 4) as usize];
                bytes.extend(std::iter::repeat_n(c, 4096));
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    };

    let mut out = MalformedOutcome::default();
    for i in 0..iters {
        let (parsed, decoded) = if i % 2 == 0 {
            let text = mutate(&bench, &mut next);
            (
                atspeed_circuit::bench_fmt::parse("malformed", &text).is_ok(),
                crate::repro::decode_stimuli(&vectors, nl.num_ffs(), nl.num_pis()).is_ok(),
            )
        } else {
            let text = mutate(&vectors, &mut next);
            (
                true,
                crate::repro::decode_stimuli(&text, nl.num_ffs(), nl.num_pis()).is_ok(),
            )
        };
        out.cases_run += 1;
        if parsed && decoded {
            out.accepted += 1;
        } else {
            out.rejected += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic_and_varied() {
        let a = Case::from_iteration(7, 3);
        let b = Case::from_iteration(7, 3);
        assert_eq!(a, b);
        assert!(a.spec.is_valid());
        let c = Case::from_iteration(7, 4);
        assert_ne!(a, c, "different iterations give different cases");
    }

    #[test]
    fn stimuli_match_circuit_interface() {
        let case = Case::from_iteration(11, 0);
        let nl = generate(&case.spec).unwrap();
        let (init, seq) = case_stimuli(&case, &nl);
        assert_eq!(init.len(), nl.num_ffs());
        assert_eq!(seq.len(), case.seq_len);
        assert_eq!(seq.vector(0).len(), nl.num_pis());
        // Same case, same stimuli.
        let (init2, seq2) = case_stimuli(&case, &nl);
        assert_eq!(init, init2);
        assert_eq!(seq, seq2);
    }

    #[test]
    fn small_batch_runs_clean() {
        let outcome = run_fuzz(&FuzzConfig {
            seed: 0xF00D,
            iters: 4,
            threads: vec![2],
            ..FuzzConfig::default()
        });
        assert_eq!(outcome.cases_run, 4);
        assert!(outcome.checks_run > 0);
        assert!(
            outcome.failures.is_empty(),
            "engines diverged: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn malformed_inputs_reject_without_panicking() {
        let out = run_malformed_fuzz(0xC0FFEE, 200);
        assert_eq!(out.cases_run, 200);
        assert_eq!(out.rejected + out.accepted, 200);
        assert!(
            out.rejected > 0,
            "mutations this aggressive must produce rejects: {out:?}"
        );
    }

    #[test]
    fn run_case_reports_work() {
        let case = Case::from_iteration(1, 0);
        let rep = run_case(&case, &[2]).expect("engines agree");
        assert!(
            rep.checks >= 9,
            "logic(4) + comb(2) + seq-detect(1) + seq-reference(2) at least: {rep:?}"
        );
        assert!(rep.faults > 0);
        assert!(rep.nets > 0);
    }
}
