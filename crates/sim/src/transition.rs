//! Transition-delay fault simulation.
//!
//! The paper's motivation for long primary-input sequences is that they are
//! applied **at speed** (with the functional clock) and therefore detect
//! delay defects, which scan-bounded single-vector tests miss. This module
//! makes that claim measurable with the classic *transition fault* model:
//!
//! - a **slow-to-rise** fault on a net is detected by two consecutive
//!   at-speed cycles where the fault-free value transitions 0→1 in the
//!   first cycle pair and the (late) faulty value — modeled as the previous
//!   cycle's value, i.e. stuck-at-0 for that cycle — propagates to an
//!   observation point in the second cycle;
//! - a **slow-to-fall** fault is the 1→0 dual.
//!
//! Following standard practice, a transition fault is simulated as a
//! stuck-at fault that is only *armed* during cycles immediately following
//! a launching transition at the fault site. Launch and capture must occur
//! in back-to-back functional cycles — exactly what a long `T_i` provides
//! and what a scan operation interrupts: within a test `(SI, T)`, cycle
//! pairs `(t, t+1)` for `t < L(T)-1` are at-speed pairs, and the final
//! cycle's capture may also be observed by the scan-out.

use atspeed_circuit::{NetId, Netlist};

use crate::comb::Overrides;
use crate::fault::{Fault, FaultSite};
use crate::fsim_seq::seed_sources;
use crate::kernel::CompiledSim;
use crate::logic::{V3, W3};
use crate::vectors::{Sequence, State};

/// A transition-delay fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// The net whose transition is slow.
    pub net: NetId,
    /// `true` = slow-to-rise (misses 0→1), `false` = slow-to-fall.
    pub rising: bool,
}

impl TransitionFault {
    /// The stuck-at fault whose effect models the late transition during
    /// the capture cycle (slow-to-rise behaves as stuck-at-0).
    pub fn as_stuck_at(&self) -> Fault {
        Fault {
            site: FaultSite::Stem(self.net),
            stuck: !self.rising,
        }
    }

    /// Conventional description.
    pub fn describe(&self, nl: &Netlist) -> String {
        format!(
            "{} {}",
            nl.net_name(self.net),
            if self.rising { "str" } else { "stf" }
        )
    }
}

/// Enumerates both transition faults on every net.
pub fn all_transition_faults(nl: &Netlist) -> Vec<TransitionFault> {
    let mut out = Vec::with_capacity(2 * nl.num_nets());
    for net in nl.net_ids() {
        out.push(TransitionFault { net, rising: true });
        out.push(TransitionFault { net, rising: false });
    }
    out
}

/// Parallel-fault transition-delay fault simulator for scan tests.
///
/// Runs over the compiled kernel: each cycle takes one full pass of the
/// fault-free machine and one of the faulty machine under that cycle's
/// armed-fault overrides.
#[derive(Debug)]
pub struct TransitionFaultSim<'a> {
    nl: &'a Netlist,
    good: Vec<W3>,
    faulty: Vec<W3>,
    ov: Overrides,
}

impl<'a> TransitionFaultSim<'a> {
    /// Creates a simulator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        let cc = nl.compiled();
        TransitionFaultSim {
            nl,
            good: vec![W3::ALL_X; cc.num_nets()],
            faulty: vec![W3::ALL_X; cc.num_nets()],
            ov: Overrides::new(nl),
        }
    }

    /// Simulates the scan test `(si, seq)` under `faults` and returns which
    /// transition faults it detects.
    ///
    /// Detection of fault `f` requires some cycle `t ≥ 1` where the
    /// fault-free value of `f.net` transitions in the fault direction
    /// between `t-1` and `t`, and the corresponding stuck-at effect at `t`
    /// reaches a primary output (any such `t`) or the captured state at the
    /// last cycle (observed by the scan-out). A single-vector test
    /// (`L = 1`) has no at-speed cycle pair, hence detects nothing — the
    /// paper's argument in miniature.
    pub fn detect(&mut self, si: &State, seq: &Sequence, faults: &[TransitionFault]) -> Vec<bool> {
        let mut detected = vec![false; faults.len()];
        if seq.len() < 2 {
            return detected;
        }
        for (chunk_idx, chunk) in faults.chunks(63).enumerate() {
            let base = chunk_idx * 63;
            let caught = self.detect_chunk(si, seq, chunk);
            for (k, _) in chunk.iter().enumerate() {
                if caught & (1u64 << (k + 1)) != 0 {
                    detected[base + k] = true;
                }
            }
        }
        detected
    }

    /// Counts the transition faults of `faults` detected by an entire test
    /// set, with fault dropping across tests.
    pub fn count_detected_by_set(
        &mut self,
        tests: &[(State, Sequence)],
        faults: &[TransitionFault],
    ) -> usize {
        let mut alive: Vec<TransitionFault> = faults.to_vec();
        let mut total = 0usize;
        for (si, seq) in tests {
            if alive.is_empty() {
                break;
            }
            let det = self.detect(si, seq, &alive);
            let survivors: Vec<TransitionFault> = alive
                .iter()
                .zip(det.iter())
                .filter(|(_, &d)| !d)
                .map(|(&f, _)| f)
                .collect();
            total += alive.len() - survivors.len();
            alive = survivors;
        }
        total
    }

    fn detect_chunk(&mut self, si: &State, seq: &Sequence, chunk: &[TransitionFault]) -> u64 {
        let nl = self.nl;
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let active: u64 = if chunk.len() == 63 {
            !1u64
        } else {
            ((1u64 << chunk.len()) - 1) << 1
        };
        let mut caught = 0u64;

        // Good-machine previous-cycle values decide, per fault, in which
        // cycles the stuck-at effect is armed. We simulate cycle by cycle:
        // first fault-free (to learn transitions), then with the armed
        // subset injected.
        let mut good_state: Vec<W3> = si.iter().map(|&v| W3::broadcast(v)).collect();
        let mut faulty_state: Vec<W3> = good_state.clone();
        let mut prev_good: Vec<V3> = vec![V3::X; nl.num_nets()];
        // Machines whose fault has been armed at least once: only their
        // divergence is a real fault effect (un-armed machines track the
        // good machine exactly, since no injection ever touches them).
        let mut infected = 0u64;

        for t in 0..seq.len() {
            let vec = seq.vector(t);
            // Fault-free evaluation of cycle t (slot 0 view).
            seed_sources(cc, &mut self.good, vec, &good_state);
            sim.eval_slice(&mut self.good);

            // Arm faults whose site transitions in the fault direction
            // between t-1 and t (launch at t-1, capture at t).
            self.ov.clear();
            let mut armed = 0u64;
            if t >= 1 {
                for (k, f) in chunk.iter().enumerate() {
                    let before = prev_good[f.net.index()];
                    let now = self.good[f.net.index()].get(0);
                    let launches = match (before, now) {
                        (V3::Zero, V3::One) => f.rising,
                        (V3::One, V3::Zero) => !f.rising,
                        _ => false,
                    };
                    if launches {
                        let mask = 1u64 << (k + 1);
                        armed |= mask;
                        self.ov.add(f.as_stuck_at(), mask);
                    }
                }
            }

            infected |= armed;

            // Faulty evaluation of cycle t with armed faults injected;
            // previously latched corruption keeps propagating through the
            // per-slot flip-flop state.
            seed_sources(cc, &mut self.faulty, vec, &faulty_state);
            sim.eval_with_slice(&mut self.faulty, &self.ov);

            // Observe primary outputs.
            let mut diff = 0u64;
            for &po in cc.pos() {
                let w = self.faulty[po.index()];
                match self.good[po.index()].get(0) {
                    V3::One => diff |= w.zero,
                    V3::Zero => diff |= w.one,
                    V3::X => {}
                }
            }
            caught |= diff & infected & active;

            // Capture both machines; the faulty machine carries latched
            // fault effects forward (a late transition corrupts the
            // captured value permanently).
            for (f, &d) in cc.ff_ds().iter().enumerate() {
                good_state[f] = self.good[d.index()];
                faulty_state[f] = self.faulty[d.index()];
            }

            // Scan-out observation at the last cycle.
            if t + 1 == seq.len() {
                let mut sd = 0u64;
                for (f, w) in faulty_state.iter().enumerate() {
                    let good = good_state[f];
                    match good.get(0) {
                        V3::One => sd |= w.zero,
                        V3::Zero => sd |= w.one,
                        V3::X => {}
                    }
                }
                caught |= sd & infected & active;
            }

            for net in nl.net_ids() {
                prev_good[net.index()] = self.good[net.index()].get(0);
            }
            if caught == active {
                break;
            }
        }
        caught
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::parse_values;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

    fn buf_circuit() -> Netlist {
        // y = BUF(a) through one FF so transitions need two cycles to see.
        let mut b = NetlistBuilder::new("buf");
        b.input("a");
        b.gate(GateKind::Buf, "y", &["a"]);
        b.output("y");
        b.finish().unwrap()
    }

    #[test]
    fn rising_transition_detected_by_zero_one_pair() {
        let nl = buf_circuit();
        let a = nl.find_net("a").unwrap();
        let f = TransitionFault {
            net: a,
            rising: true,
        };
        let mut sim = TransitionFaultSim::new(&nl);
        // 0 then 1: launches a rising transition; slow-to-rise shows 0.
        let seq: Sequence = ["0", "1"].iter().map(|r| parse_values(r)).collect();
        assert_eq!(sim.detect(&vec![], &seq, &[f]), vec![true]);
        // 1 then 0: no rising launch.
        let seq: Sequence = ["1", "0"].iter().map(|r| parse_values(r)).collect();
        assert_eq!(sim.detect(&vec![], &seq, &[f]), vec![false]);
        // Falling fault is the dual.
        let g = TransitionFault {
            net: a,
            rising: false,
        };
        assert_eq!(sim.detect(&vec![], &seq, &[g]), vec![true]);
    }

    #[test]
    fn single_vector_tests_detect_no_transition_faults() {
        // The paper's core claim in miniature: a scan test with L=1 has no
        // at-speed cycle pair.
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let seq: Sequence = std::iter::once(parse_values("1010")).collect();
        let det = sim.detect(&parse_values("010"), &seq, &faults);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn longer_sequences_detect_more() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let rows = [
            "1010", "0101", "0011", "1100", "1111", "0000", "1001", "0110",
        ];
        let long: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        let short: Sequence = rows[..2].iter().map(|r| parse_values(r)).collect();
        let si = parse_values("000");
        let count = |det: Vec<bool>| det.iter().filter(|&&d| d).count();
        let d_long = count(sim.detect(&si, &long, &faults));
        let d_short = count(sim.detect(&si, &short, &faults));
        assert!(d_long >= d_short);
        assert!(d_long > 0, "an 8-cycle at-speed burst detects something");
    }

    #[test]
    fn set_counting_drops_faults() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let t1 = (
            parse_values("000"),
            ["1010", "0101"].iter().map(|r| parse_values(r)).collect(),
        );
        let t2 = (
            parse_values("111"),
            ["0000", "1111", "0000"]
                .iter()
                .map(|r| parse_values(r))
                .collect(),
        );
        let both = sim.count_detected_by_set(&[t1.clone(), t2.clone()], &faults);
        let first = sim.count_detected_by_set(&[t1], &faults);
        assert!(both >= first);
        assert!(both <= faults.len());
    }

    #[test]
    fn fault_count_and_descriptions() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        assert_eq!(faults.len(), 2 * nl.num_nets());
        assert!(faults[0].describe(&nl).ends_with("str"));
        assert!(faults[1].describe(&nl).ends_with("stf"));
    }
}
