//! PODEM combinational test generation over the full-scan view.
//!
//! The full-scan view treats primary inputs and flip-flop outputs
//! (pseudo-primary inputs, set by scan-in) as assignable inputs, and primary
//! outputs plus flip-flop D inputs (pseudo-primary outputs, observed by
//! scan-out) as observation points. PODEM searches over input assignments
//! only, implying all internal values by 3-valued simulation, and is
//! complete: with an unbounded backtrack budget, exhausting the search space
//! proves a fault combinationally untestable.
//!
//! The forward simulation here runs on a single-pattern `V3` evaluator:
//! PODEM implies one candidate assignment at a time, so there is no
//! pattern dimension for the 64-slot word kernel to fill.

use atspeed_circuit::{CompiledCircuit, Driver, NetId, Netlist};
use atspeed_sim::fault::{Fault, FaultSite};
use atspeed_sim::{CombTest, V3};
use atspeed_trace::{Counter, Histogram};

use crate::scoap::Scoap;

/// Configuration for [`Podem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Abort the search for one fault after this many backtracks.
    pub backtrack_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 400,
        }
    }
}

/// Result of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; unassigned inputs are X.
    Test(CombTest),
    /// The search space was exhausted: the fault is combinationally
    /// untestable (redundant) in the full-scan view.
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM test generator with reusable scratch state.
///
/// All value propagation (implication, D-frontier scan, X-path check) runs
/// over the flat [`CompiledCircuit`] schedule and CSR pin spans; the netlist
/// is only consulted for driver lookups during backtrace.
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a Netlist,
    cc: &'a CompiledCircuit,
    cfg: PodemConfig,
    /// Assignable inputs: primary inputs, then flip-flop Q nets.
    cinputs: Vec<NetId>,
    assignment: Vec<V3>,
    good: Vec<V3>,
    faulty: Vec<V3>,
    /// Nets observed for error: primary outputs and flip-flop D nets.
    observables: Vec<NetId>,
    /// SCOAP measures guiding the backtrace input choices.
    scoap: Scoap,
    /// Per-fault search metrics, resolved once from the global registry so
    /// the per-fault hot path never takes the registry lock.
    metrics: PodemMetrics,
}

/// Handles into the global metrics registry for PODEM search telemetry.
#[derive(Debug)]
struct PodemMetrics {
    backtracks: Histogram,
    decision_depth: Histogram,
    tests: Counter,
    untestable: Counter,
    aborted: Counter,
}

impl PodemMetrics {
    fn resolve() -> Self {
        let m = atspeed_trace::metrics::global();
        PodemMetrics {
            backtracks: m.histogram("podem/backtracks"),
            decision_depth: m.histogram("podem/decision_depth"),
            tests: m.counter("podem/tests"),
            untestable: m.counter("podem/untestable"),
            aborted: m.counter("podem/aborted"),
        }
    }
}

impl<'a> Podem<'a> {
    /// Creates a generator for `nl`.
    pub fn new(nl: &'a Netlist, cfg: PodemConfig) -> Self {
        let cc = nl.compiled();
        let mut cinputs: Vec<NetId> = cc.pis().to_vec();
        cinputs.extend(cc.ff_qs().iter().copied());
        let mut observables: Vec<NetId> = cc.pos().to_vec();
        observables.extend(cc.ff_ds().iter().copied());
        Podem {
            nl,
            cc,
            cfg,
            assignment: vec![V3::X; cinputs.len()],
            cinputs,
            good: vec![V3::X; cc.num_nets()],
            faulty: vec![V3::X; cc.num_nets()],
            observables,
            scoap: Scoap::compute_with(cc),
            metrics: PodemMetrics::resolve(),
        }
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// Each call is one span (`"podem"`) when tracing is enabled, and
    /// records the search's backtrack count and maximum decision depth in
    /// the global metric histograms, plus one outcome counter.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        // The fault label costs an allocation, so it is only rendered when
        // a trace is actually being recorded; the report tooling uses it
        // to rank the slowest PODEM searches by fault.
        let _sp = if atspeed_trace::tracing_enabled() {
            let desc = fault.describe(self.nl);
            atspeed_trace::span_args("podem", &[("fault", &desc)])
        } else {
            atspeed_trace::span("podem")
        };
        let mut backtracks = 0usize;
        let mut max_depth = 0usize;
        let outcome = self.search(fault, &mut backtracks, &mut max_depth);
        self.metrics.backtracks.record(backtracks as u64);
        self.metrics.decision_depth.record(max_depth as u64);
        match outcome {
            PodemOutcome::Test(_) => self.metrics.tests.inc(),
            PodemOutcome::Untestable => self.metrics.untestable.inc(),
            PodemOutcome::Aborted => self.metrics.aborted.inc(),
        }
        outcome
    }

    fn search(
        &mut self,
        fault: Fault,
        backtracks_out: &mut usize,
        max_depth_out: &mut usize,
    ) -> PodemOutcome {
        self.assignment.fill(V3::X);
        self.simulate(fault);

        // Decision: (input index, value, flipped-already).
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        let outcome = loop {
            if self.error_observed(fault) {
                break PodemOutcome::Test(self.make_test());
            }
            let step = self
                .objective(fault)
                .and_then(|(net, val)| self.backtrace(net, val));
            match step {
                Some((input, value)) => {
                    decisions.push((input, value, false));
                    *max_depth_out = (*max_depth_out).max(decisions.len());
                    self.assignment[input] = V3::from_bool(value);
                    self.simulate(fault);
                }
                None => {
                    let mut verdict = None;
                    loop {
                        match decisions.pop() {
                            None => {
                                verdict = Some(PodemOutcome::Untestable);
                                break;
                            }
                            Some((input, _, true)) => {
                                self.assignment[input] = V3::X;
                            }
                            Some((input, value, false)) => {
                                backtracks += 1;
                                if backtracks > self.cfg.backtrack_limit {
                                    // Restore a clean assignment before leaving.
                                    self.assignment.fill(V3::X);
                                    verdict = Some(PodemOutcome::Aborted);
                                    break;
                                }
                                decisions.push((input, !value, true));
                                self.assignment[input] = V3::from_bool(!value);
                                self.simulate(fault);
                                break;
                            }
                        }
                    }
                    if let Some(v) = verdict {
                        break v;
                    }
                }
            }
        };
        *backtracks_out = backtracks;
        outcome
    }

    /// The net whose value excites the fault (must be driven to the
    /// complement of the stuck value).
    fn site_net(&self, fault: Fault) -> NetId {
        match fault.site {
            FaultSite::Stem(n) => n,
            FaultSite::GatePin(g, p) => self.cc.inputs(g)[p as usize],
            FaultSite::FfPin(f) => self.cc.ff_d(f),
            FaultSite::PoPin(p) => self.cc.pos()[p.index()],
        }
    }

    fn simulate(&mut self, fault: Fault) {
        let cc = self.cc;
        for (i, &net) in self.cinputs.iter().enumerate() {
            self.good[net.index()] = self.assignment[i];
            self.faulty[net.index()] = self.assignment[i];
        }
        if let FaultSite::Stem(net) = fault.site {
            if !cc.gate_driven(net) {
                self.faulty[net.index()] = V3::from_bool(fault.stuck);
            }
        }
        let mut gins: [V3; 16] = [V3::X; 16];
        let mut fins: [V3; 16] = [V3::X; 16];
        for &gid in cc.schedule() {
            let ins = cc.inputs(gid);
            let n = ins.len();
            debug_assert!(n <= 16, "gate fanin exceeds scratch size");
            for (p, &inet) in ins.iter().enumerate() {
                gins[p] = self.good[inet.index()];
                let mut fv = self.faulty[inet.index()];
                if let FaultSite::GatePin(fg, fp) = fault.site {
                    if fg == gid && fp == p as u8 {
                        fv = V3::from_bool(fault.stuck);
                    }
                }
                fins[p] = fv;
            }
            let out = cc.output(gid);
            self.good[out.index()] = V3::eval_gate(cc.kind(gid), &gins[..n]);
            let mut fout = V3::eval_gate(cc.kind(gid), &fins[..n]);
            if let FaultSite::Stem(net) = fault.site {
                if net == out {
                    fout = V3::from_bool(fault.stuck);
                }
            }
            self.faulty[out.index()] = fout;
        }
    }

    fn error_observed(&self, fault: Fault) -> bool {
        match fault.site {
            // Observation-pin faults are detected as soon as the observed
            // net carries the complement of the stuck value.
            FaultSite::FfPin(_) | FaultSite::PoPin(_) => {
                self.good[self.site_net(fault).index()] == V3::from_bool(!fault.stuck)
            }
            _ => self.observables.iter().any(|&o| {
                let g = self.good[o.index()];
                let f = self.faulty[o.index()];
                g.is_known() && f.is_known() && g != f
            }),
        }
    }

    /// Picks the next objective `(net, value)`, or `None` to backtrack.
    fn objective(&self, fault: Fault) -> Option<(NetId, bool)> {
        let site = self.site_net(fault);
        let want = !fault.stuck;
        match self.good[site.index()] {
            V3::X => return Some((site, want)),
            v if v == V3::from_bool(fault.stuck) => return None,
            _ => {}
        }
        if matches!(fault.site, FaultSite::FfPin(_) | FaultSite::PoPin(_)) {
            // Excited observation-pin fault is already detected; being here
            // means excitation failed, which the arm above handled.
            return None;
        }
        // Fault excited: advance the D-frontier.
        self.d_frontier_objective(fault)
    }

    /// Finds a D-frontier gate with an X input and an X-path to an
    /// observable, and returns the objective that feeds it a
    /// non-controlling value.
    fn d_frontier_objective(&self, fault: Fault) -> Option<(NetId, bool)> {
        let cc = self.cc;
        let xpath = self.xpath_reach();
        for &gid in cc.schedule() {
            let out = cc.output(gid);
            let og = self.good[out.index()];
            let of = self.faulty[out.index()];
            // Output already resolved in both machines: not frontier.
            if og.is_known() && of.is_known() {
                continue;
            }
            if !xpath[out.index()] {
                continue;
            }
            let mut has_error_input = false;
            let mut x_input: Option<NetId> = None;
            for (p, &inet) in cc.inputs(gid).iter().enumerate() {
                let g = self.good[inet.index()];
                let mut f = self.faulty[inet.index()];
                if let FaultSite::GatePin(fg, fp) = fault.site {
                    if fg == gid && fp == p as u8 {
                        f = V3::from_bool(fault.stuck);
                    }
                }
                if g.is_known() && f.is_known() && g != f {
                    has_error_input = true;
                } else if g == V3::X && x_input.is_none() {
                    x_input = Some(inet);
                }
            }
            if has_error_input {
                if let Some(inet) = x_input {
                    let value = match cc.kind(gid).controlling_value() {
                        Some(c) => !c,
                        // XOR-class and buffers propagate for any binary
                        // side value; prefer 0.
                        None => false,
                    };
                    return Some((inet, value));
                }
            }
        }
        None
    }

    /// Nets from which an observable is reachable through composite-X nets.
    fn xpath_reach(&self) -> Vec<bool> {
        let cc = self.cc;
        let mut reach = vec![false; cc.num_nets()];
        let is_x = |net: NetId| {
            !(self.good[net.index()].is_known() && self.faulty[net.index()].is_known())
        };
        for &o in &self.observables {
            if is_x(o) {
                reach[o.index()] = true;
            }
        }
        // Single reverse-topological sweep (gates in reverse level order).
        for &gid in cc.schedule().iter().rev() {
            let out = cc.output(gid);
            if !reach[out.index()] || !is_x(out) {
                continue;
            }
            for &inet in cc.inputs(gid) {
                if is_x(inet) {
                    reach[inet.index()] = true;
                }
            }
        }
        reach
    }

    /// Walks an objective back to an unassigned input; `None` on dead end.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            match self.nl.driver(net) {
                Driver::Pi(i) => {
                    return (self.assignment[i] == V3::X).then_some((i, value));
                }
                Driver::Ff(f) => {
                    let idx = self.cc.pis().len() + f.index();
                    return (self.assignment[idx] == V3::X).then_some((idx, value));
                }
                Driver::Gate(gid) => {
                    let kind = self.cc.kind(gid);
                    let base = if kind.inverts() { !value } else { value };
                    match kind {
                        atspeed_circuit::GateKind::Not | atspeed_circuit::GateKind::Buf => {
                            net = self.cc.inputs(gid)[0];
                            value = base;
                        }
                        atspeed_circuit::GateKind::Xor | atspeed_circuit::GateKind::Xnor => {
                            // Choose the easiest-to-control X input (SCOAP);
                            // aim for the parity implied by the known inputs.
                            let mut chosen: Option<NetId> = None;
                            let mut parity = false;
                            for &inet in self.cc.inputs(gid) {
                                match self.good[inet.index()] {
                                    V3::X => {
                                        let cost =
                                            |n: NetId| self.scoap.cc0(n).min(self.scoap.cc1(n));
                                        if chosen.is_none_or(|c| cost(inet) < cost(c)) {
                                            chosen = Some(inet);
                                        }
                                    }
                                    V3::One => parity = !parity,
                                    _ => {}
                                }
                            }
                            net = chosen?;
                            value = base ^ parity;
                        }
                        _ => {
                            let c = kind
                                .controlling_value()
                                .expect("AND/OR-class gate has a controlling value");
                            // If the base function must output its
                            // controlled value (0 for AND, 1 for OR), one
                            // controlling input suffices; otherwise every
                            // input must be non-controlling. Either way the
                            // next objective sets an X input.
                            let want_controlling = match kind {
                                atspeed_circuit::GateKind::And
                                | atspeed_circuit::GateKind::Nand => !base,
                                atspeed_circuit::GateKind::Or | atspeed_circuit::GateKind::Nor => {
                                    base
                                }
                                _ => unreachable!("XOR/NOT/BUF handled above"),
                            };
                            let target = if want_controlling { c } else { !c };
                            // SCOAP guidance: when one controlling input
                            // suffices, take the cheapest X input; when all
                            // inputs must be non-controlling, take the
                            // hardest first so infeasible goals fail fast.
                            let mut chosen: Option<NetId> = None;
                            for &inet in self.cc.inputs(gid) {
                                if self.good[inet.index()] != V3::X {
                                    continue;
                                }
                                let cost = self.scoap.cc(inet, target);
                                let better = match chosen {
                                    None => true,
                                    Some(cur) => {
                                        let cur_cost = self.scoap.cc(cur, target);
                                        if want_controlling {
                                            cost < cur_cost
                                        } else {
                                            cost > cur_cost
                                        }
                                    }
                                };
                                if better {
                                    chosen = Some(inet);
                                }
                            }
                            net = chosen?;
                            value = target;
                        }
                    }
                }
            }
        }
    }

    fn make_test(&self) -> CombTest {
        let n_pi = self.nl.num_pis();
        CombTest::new(
            self.assignment[n_pi..].to_vec(),
            self.assignment[..n_pi].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};
    use atspeed_sim::fault::FaultUniverse;
    use atspeed_sim::CombFaultSim;

    fn verify_test(nl: &Netlist, fault_id: atspeed_sim::FaultId, test: &CombTest) -> bool {
        let u = FaultUniverse::full(nl);
        let mut sim = CombFaultSim::new(nl);
        sim.detect_block(std::slice::from_ref(test), &[fault_id], &u)[0] & 1 != 0
    }

    #[test]
    fn generates_verified_tests_for_all_s27_faults() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default());
        for &fid in u.representatives() {
            match podem.generate(u.fault(fid)) {
                PodemOutcome::Test(t) => {
                    assert!(
                        verify_test(&nl, fid, &t),
                        "generated test misses {}",
                        u.fault(fid).describe(&nl)
                    );
                }
                other => panic!(
                    "s27 fault {} should be testable, got {other:?}",
                    u.fault(fid).describe(&nl)
                ),
            }
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // y = OR(a, NOT(a)) is constantly 1: y stuck-at-1 is untestable.
        let mut b = NetlistBuilder::new("red");
        b.input("a");
        b.gate(GateKind::Not, "an", &["a"]);
        b.gate(GateKind::Or, "y", &["a", "an"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let y = nl.find_net("y").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(y),
                        stuck: true,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        assert_eq!(podem.generate(u.fault(fid)), PodemOutcome::Untestable);
    }

    #[test]
    fn detects_testable_fault_in_redundant_circuit() {
        let mut b = NetlistBuilder::new("red2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Not, "an", &["a"]);
        b.gate(GateKind::Or, "t", &["a", "an"]);
        b.gate(GateKind::And, "y", &["t", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let bnet = nl.find_net("b").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(bnet),
                        stuck: false,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        match podem.generate(u.fault(fid)) {
            PodemOutcome::Test(t) => assert!(verify_test(&nl, fid, &t)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn pseudo_inputs_are_assignable() {
        // A fault only excitable through the flip-flop state.
        let mut b = NetlistBuilder::new("st");
        b.input("a");
        b.dff("q", "d");
        b.gate(GateKind::And, "d", &["a", "q"]);
        b.gate(GateKind::Buf, "y", &["q"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let q = nl.find_net("q").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(q),
                        stuck: false,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        match podem.generate(u.fault(fid)) {
            PodemOutcome::Test(t) => {
                assert_eq!(t.state[0], V3::One, "must scan in q=1 to excite q/0");
                assert!(verify_test(&nl, fid, &t));
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_circuit_faults_are_mostly_testable() {
        use atspeed_circuit::synth::{generate, SynthSpec};
        let nl = generate(&SynthSpec::new("pt", 4, 2, 5, 80, 11)).unwrap();
        let u = FaultUniverse::full(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default());
        let mut tested = 0usize;
        let mut verified = 0usize;
        for &fid in u.representatives() {
            if let PodemOutcome::Test(t) = podem.generate(u.fault(fid)) {
                tested += 1;
                if verify_test(&nl, fid, &t) {
                    verified += 1;
                }
            }
        }
        assert!(tested > 0);
        assert_eq!(
            tested, verified,
            "every PODEM test must be confirmed by fault simulation"
        );
        // Synthetic circuits are largely irredundant.
        assert!(
            tested * 10 >= u.num_collapsed() * 8,
            "testable {tested}/{}",
            u.num_collapsed()
        );
    }
}
