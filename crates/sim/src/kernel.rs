//! The compiled simulation kernel: one levelized full pass over
//! [`CompiledCircuit`], fault-free or with fault-injection overrides.
//!
//! [`CompiledSim`] is the hot-path counterpart of the legacy
//! [`CombSim`](crate::comb::CombSim) walker. It indexes the flat CSR arrays
//! of a [`CompiledCircuit`] — no per-gate pointer chase, no per-call input
//! buffer — and folds each gate's function directly over its pin span.
//!
//! The caller owns the net value array (`Vec<W3>`, one 64-slot word per
//! net) and recycles it across calls, so steady-state evaluation performs
//! no allocation at all. Every pass evaluates every gate: on the
//! workloads this workspace runs, a plain full pass beats event-driven
//! re-evaluation of the changed cone end to end (see DESIGN.md), so the
//! full pass is the only traversal.
//!
//! Throughput counters are in gate-evaluation units: one gate advanced by
//! one 64-slot word, so a pass credits `num_gates` to
//! [`stats`](crate::stats).

use atspeed_circuit::{CompiledCircuit, GateId, GateKind};

use crate::comb::Overrides;
use crate::logic::W3;

/// Folds `kind` over two operands (the reduction step of a gate function,
/// inversion excluded).
#[inline]
pub(crate) fn combine(kind: GateKind, a: W3, b: W3) -> W3 {
    match kind {
        GateKind::And | GateKind::Nand => a.and(b),
        GateKind::Or | GateKind::Nor => a.or(b),
        GateKind::Xor | GateKind::Xnor => a.xor(b),
        // Single-input kinds never reach the reduction step.
        GateKind::Not | GateKind::Buf => a,
    }
}

/// Evaluates one gate by folding its function over the pin span — no
/// staging buffer. The per-kind dispatch is hoisted out of the pin loop so
/// each fold body is a straight run of rail ops.
#[inline]
fn eval_gate(cc: &CompiledCircuit, vals: &[W3], gid: GateId) -> W3 {
    let kind = cc.kind(gid);
    let span = cc.inputs(gid);
    let first = vals[span[0].index()];
    let base = match kind {
        GateKind::And | GateKind::Nand => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.and(vals[net.index()])),
        GateKind::Or | GateKind::Nor => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.or(vals[net.index()])),
        GateKind::Xor | GateKind::Xnor => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.xor(vals[net.index()])),
        GateKind::Not | GateKind::Buf => first,
    };
    if kind.inverts() {
        base.not()
    } else {
        base
    }
}

/// Evaluates one gate with input-pin overrides applied (the rare,
/// flagged-gate path).
#[inline]
fn eval_gate_flagged(cc: &CompiledCircuit, vals: &[W3], gid: GateId, ov: &Overrides) -> W3 {
    let kind = cc.kind(gid);
    let span = cc.inputs(gid);
    let mut acc = ov.apply_gate_pin(gid, 0, vals[span[0].index()]);
    for (pin, &net) in span.iter().enumerate().skip(1) {
        let w = ov.apply_gate_pin(gid, pin as u8, vals[net.index()]);
        acc = combine(kind, acc, w);
    }
    if kind.inverts() {
        acc.not()
    } else {
        acc
    }
}

/// Levelized evaluator over a [`CompiledCircuit`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledSim<'a> {
    cc: &'a CompiledCircuit,
}

impl<'a> CompiledSim<'a> {
    /// Creates an evaluator over `cc`.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        CompiledSim { cc }
    }

    /// The compiled circuit being evaluated.
    #[inline]
    pub fn circuit(&self) -> &'a CompiledCircuit {
        self.cc
    }

    /// Full levelized pass, fault-free: fills in every gate output of
    /// `vals` (indexed by net) from the seeded source nets.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count.
    pub fn eval_slice(&self, vals: &mut [W3]) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        for &gid in cc.schedule() {
            let out = eval_gate(cc, vals, gid);
            vals[cc.output(gid).index()] = out;
        }
    }

    /// Full levelized pass with fault injection (same override semantics as
    /// the legacy [`CombSim::eval_with`](crate::comb::CombSim::eval_with)):
    /// stem overrides on source nets are applied to the seeded values
    /// first, then every gate is evaluated with its pin overrides and its
    /// output stem override.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count.
    pub fn eval_with_slice(&self, vals: &mut [W3], ov: &Overrides) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        for &net in ov.stems() {
            if !cc.gate_driven(net) {
                vals[net.index()] = ov.apply_stem(net, vals[net.index()]);
            }
        }
        for &gid in cc.schedule() {
            let out = if ov.is_gate_flagged(gid) {
                eval_gate_flagged(cc, vals, gid, ov)
            } else {
                eval_gate(cc, vals, gid)
            };
            let onet = cc.output(gid);
            vals[onet.index()] = ov.apply_stem(onet, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombSim;
    use crate::fault::FaultUniverse;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate, SynthSpec};
    use atspeed_circuit::Netlist;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn random_w3(r: &mut impl FnMut() -> u64) -> W3 {
        // Random mix of 0/1/X per slot, dual-rail consistent.
        let a = r();
        let b = r();
        W3 {
            zero: a & !b,
            one: !a & b,
        }
    }

    fn seed_sources(nl: &Netlist, vals: &mut [W3], r: &mut impl FnMut() -> u64) {
        for &pi in nl.pis() {
            vals[pi.index()] = random_w3(r);
        }
        for ff in nl.ffs() {
            vals[ff.q().index()] = random_w3(r);
        }
    }

    #[test]
    fn full_pass_matches_legacy_walker() {
        for nl in [
            s27(),
            generate(&SynthSpec::new("k", 6, 4, 9, 200, 7)).unwrap(),
        ] {
            let sim = CompiledSim::new(nl.compiled());
            let mut legacy = CombSim::new(&nl);
            let mut fast = vec![W3::ALL_X; nl.num_nets()];
            let mut r = rng(0xfeed);
            for _ in 0..10 {
                seed_sources(&nl, &mut fast, &mut r);
                let mut slow = fast.clone();
                sim.eval_slice(&mut fast);
                legacy.eval(&mut slow);
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn full_pass_with_overrides_matches_legacy_walker() {
        let nl = generate(&SynthSpec::new("ko", 6, 4, 9, 200, 13)).unwrap();
        let u = FaultUniverse::full(&nl);
        let sim = CompiledSim::new(nl.compiled());
        let mut legacy = CombSim::new(&nl);
        let mut fast = vec![W3::ALL_X; nl.num_nets()];
        let mut ov = Overrides::new(&nl);
        let mut r = rng(0xbeef);
        let faults: Vec<_> = u.all_ids().collect();
        for chunk in faults.chunks(63) {
            ov.clear();
            for (k, &fid) in chunk.iter().enumerate() {
                ov.add(u.fault(fid), 1u64 << (k + 1));
            }
            seed_sources(&nl, &mut fast, &mut r);
            let mut slow = fast.clone();
            sim.eval_with_slice(&mut fast, &ov);
            legacy.eval_with(&mut slow, &ov);
            assert_eq!(fast, slow);
        }
    }

    /// A full pass credits one gate evaluation per gate.
    #[test]
    fn full_pass_credits_one_eval_per_gate() {
        let nl = generate(&SynthSpec::new("kc", 6, 4, 9, 200, 91)).unwrap();
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        seed_sources(&nl, &mut vals, &mut rng(0x5CA1E));

        let scope = crate::stats::scoped();
        crate::stats::set_phase("full");
        sim.eval_slice(&mut vals);
        sim.eval_with_slice(&mut vals, &Overrides::new(&nl));
        crate::stats::flush();
        let t = scope.report().totals();
        assert_eq!(t.gate_evals, 2 * cc.num_gates() as u64);
        assert_eq!(t.events_skipped, 0);
    }
}
