//! The immutable netlist representation and its builder.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::{CircuitError, CompiledCircuit, FfId, GateId, GateKind, NetId, PoId};

/// The unique driver of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Driver {
    /// Driven externally as the `index`-th primary input.
    Pi(usize),
    /// Driven by the output of a gate.
    Gate(GateId),
    /// Driven by the Q output of a flip-flop.
    Ff(FfId),
}

/// A consumer of a net's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sink {
    /// Input pin `pin` of gate `0`.
    GatePin(GateId, u8),
    /// D input of a flip-flop.
    FfD(FfId),
    /// Primary output position.
    Po(PoId),
}

/// A combinational gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// The gate's logic function.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets in pin order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by this gate.
    #[inline]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A D flip-flop: captures the value on `d` at each clock and presents it
/// on `q` in the next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ff {
    d: NetId,
    q: NetId,
}

impl Ff {
    /// The data-input net.
    #[inline]
    pub fn d(&self) -> NetId {
        self.d
    }

    /// The state-output net.
    #[inline]
    pub fn q(&self) -> NetId {
        self.q
    }
}

/// An immutable, validated synchronous sequential circuit.
///
/// A netlist consists of nets, gates, D flip-flops, primary inputs, and
/// primary outputs. It is constructed through [`NetlistBuilder`], which
/// validates single-driver and acyclicity invariants and precomputes the
/// levelized gate order and per-net fanout tables that the simulation and
/// test-generation crates rely on.
///
/// Net names are interned once (`Arc<str>`) and fanouts live in a flat CSR
/// table (`fanout_offsets`/`fanout_sinks`), so a 100k-gate netlist costs a
/// handful of large allocations rather than one small allocation per net.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    net_names: Vec<Arc<str>>,
    // Net indices sorted by name; `find_net` binary-searches this instead
    // of scanning `net_names` linearly.
    name_index: Vec<u32>,
    drivers: Vec<Driver>,
    gates: Vec<Gate>,
    ffs: Vec<Ff>,
    pis: Vec<NetId>,
    pos: Vec<NetId>,
    // Fanout CSR: sinks of net `n` are
    // `fanout_sinks[fanout_offsets[n]..fanout_offsets[n + 1]]`.
    fanout_offsets: Vec<u32>,
    fanout_sinks: Vec<Sink>,
    topo: Vec<GateId>,
    levels: Vec<u32>,
    max_level: u32,
    // Lazily-built flat view; behind an `Arc` so clones share one build
    // (`OnceLock` itself is not `Clone`). The netlist is immutable after
    // construction, so the cache can never go stale.
    compiled: Arc<OnceLock<CompiledCircuit>>,
}

impl Netlist {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops (scanned state variables, `N_SV` in the paper).
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// The gate with the given id.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All gates, indexable by [`GateId`].
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The flip-flop with the given id.
    #[inline]
    pub fn ff(&self, id: FfId) -> &Ff {
        &self.ffs[id.index()]
    }

    /// All flip-flops, indexable by [`FfId`].
    #[inline]
    pub fn ffs(&self) -> &[Ff] {
        &self.ffs
    }

    /// Primary-input nets in declaration order.
    #[inline]
    pub fn pis(&self) -> &[NetId] {
        &self.pis
    }

    /// Primary-output nets in declaration order.
    #[inline]
    pub fn pos(&self) -> &[NetId] {
        &self.pos
    }

    /// The unique driver of a net.
    #[inline]
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// The consumers of a net (gate pins, FF data inputs, primary outputs).
    #[inline]
    pub fn fanouts(&self, net: NetId) -> &[Sink] {
        let i = net.index();
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout_sinks[lo..hi]
    }

    /// The source name of a net.
    #[inline]
    pub fn net_name(&self, net: NetId) -> &str {
        self.net_names[net.index()].as_ref()
    }

    /// Looks a net up by name in `O(log n)`.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.name_index
            .binary_search_by(|&i| self.net_names[i as usize].as_ref().cmp(name))
            .ok()
            .map(|pos| NetId::from_index(self.name_index[pos] as usize))
    }

    /// Gates in a topological order of the combinational core: every gate
    /// appears after all gates driving its inputs. Flip-flop outputs and
    /// primary inputs are sources.
    #[inline]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// The combinational level of a net: 0 for primary inputs and flip-flop
    /// outputs, otherwise one more than the maximum level of the driving
    /// gate's inputs.
    #[inline]
    pub fn level(&self, net: NetId) -> u32 {
        self.levels[net.index()]
    }

    /// The maximum combinational level in the circuit (0 if gate-free).
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.num_nets()).map(NetId::from_index)
    }

    /// Iterates over all gate ids in declaration order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.num_gates()).map(GateId::from_index)
    }

    /// Iterates over all flip-flop ids.
    pub fn ff_ids(&self) -> impl Iterator<Item = FfId> + '_ {
        (0..self.num_ffs()).map(FfId::from_index)
    }

    /// The flat CSR view of this netlist, compiled on first use and cached
    /// (clones share the cache). Hot simulation loops should index the
    /// compiled arrays instead of walking [`Netlist::gate`] pointers.
    #[inline]
    pub fn compiled(&self) -> &CompiledCircuit {
        self.compiled.get_or_init(|| CompiledCircuit::compile(self))
    }
}

#[derive(Debug, Clone)]
enum PendingDriver {
    None,
    Pi(usize),
    Gate(usize),
    Ff(usize),
}

/// Incremental builder for [`Netlist`].
///
/// Statements may arrive in any order; names are resolved and the circuit is
/// validated by [`NetlistBuilder::finish`].
///
/// Besides the name-based methods, the builder exposes an id-based API
/// ([`NetlistBuilder::net`], [`NetlistBuilder::gate_nets`], ...) so bulk
/// producers — the `.bench` parser, the synthetic generator — can intern
/// each name exactly once and refer to it by index afterwards.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    net_ids: HashMap<Arc<str>, usize>,
    net_names: Vec<Arc<str>>,
    pending: Vec<PendingDriver>,
    gates: Vec<Gate>,
    ffs: Vec<(usize, usize)>,
    pis: Vec<usize>,
    pos: Vec<usize>,
    duplicate: Option<String>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            net_ids: HashMap::new(),
            net_names: Vec::new(),
            pending: Vec::new(),
            gates: Vec::new(),
            ffs: Vec::new(),
            pis: Vec::new(),
            pos: Vec::new(),
            duplicate: None,
        }
    }

    /// Creates a builder with pre-reserved tables, avoiding rehash/regrow
    /// churn when the caller knows the circuit size up front (the parser
    /// counts statements; the generator knows its spec).
    pub fn with_capacity(name: impl Into<String>, nets: usize, gates: usize, ffs: usize) -> Self {
        let mut b = NetlistBuilder::new(name);
        b.net_ids.reserve(nets);
        b.net_names.reserve(nets);
        b.pending.reserve(nets);
        b.gates.reserve(gates);
        b.ffs.reserve(ffs);
        b
    }

    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.net_ids.get(name) {
            return id;
        }
        let id = self.net_names.len();
        let shared: Arc<str> = Arc::from(name);
        self.net_ids.insert(Arc::clone(&shared), id);
        self.net_names.push(shared);
        self.pending.push(PendingDriver::None);
        id
    }

    fn set_driver(&mut self, net: usize, driver: PendingDriver) {
        if matches!(self.pending[net], PendingDriver::None) {
            self.pending[net] = driver;
        } else if self.duplicate.is_none() {
            self.duplicate = Some(self.net_names[net].to_string());
        }
    }

    /// Interns `name` and returns its dense net index for use with the
    /// id-based builder methods. Calling it twice with the same name
    /// returns the same index.
    pub fn net(&mut self, name: &str) -> usize {
        self.intern(name)
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: &str) -> &mut Self {
        let net = self.intern(name);
        self.input_net(net)
    }

    /// Id-based form of [`NetlistBuilder::input`].
    pub fn input_net(&mut self, net: usize) -> &mut Self {
        let idx = self.pis.len();
        self.pis.push(net);
        self.set_driver(net, PendingDriver::Pi(idx));
        self
    }

    /// Declares a primary output net (the net must be driven elsewhere).
    pub fn output(&mut self, name: &str) -> &mut Self {
        let net = self.intern(name);
        self.output_net(net)
    }

    /// Id-based form of [`NetlistBuilder::output`].
    pub fn output_net(&mut self, net: usize) -> &mut Self {
        self.pos.push(net);
        self
    }

    /// Declares a gate driving `output` from `inputs`.
    pub fn gate(&mut self, kind: GateKind, output: &str, inputs: &[&str]) -> &mut Self {
        let out = self.intern(output);
        let ins: Vec<NetId> = inputs
            .iter()
            .map(|n| NetId::from_index(self.intern(n)))
            .collect();
        self.push_gate(kind, out, ins)
    }

    /// Id-based form of [`NetlistBuilder::gate`].
    pub fn gate_nets(&mut self, kind: GateKind, output: usize, inputs: &[usize]) -> &mut Self {
        let ins: Vec<NetId> = inputs.iter().map(|&i| NetId::from_index(i)).collect();
        self.push_gate(kind, output, ins)
    }

    fn push_gate(&mut self, kind: GateKind, out: usize, inputs: Vec<NetId>) -> &mut Self {
        let idx = self.gates.len();
        self.gates.push(Gate {
            kind,
            inputs,
            output: NetId::from_index(out),
        });
        self.set_driver(out, PendingDriver::Gate(idx));
        self
    }

    /// Declares a D flip-flop with state output `q` and data input `d`.
    pub fn dff(&mut self, q: &str, d: &str) -> &mut Self {
        let qn = self.intern(q);
        let dn = self.intern(d);
        self.dff_nets(qn, dn)
    }

    /// Id-based form of [`NetlistBuilder::dff`].
    pub fn dff_nets(&mut self, q: usize, d: usize) -> &mut Self {
        let idx = self.ffs.len();
        self.ffs.push((d, q));
        self.set_driver(q, PendingDriver::Ff(idx));
        self
    }

    /// Resolves names, validates the circuit, and produces the [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns an error if a net has several drivers or none, a gate has an
    /// illegal fanin, the circuit has no primary inputs, or the combinational
    /// core is cyclic.
    pub fn finish(self) -> Result<Netlist, CircuitError> {
        if let Some(net) = self.duplicate {
            return Err(CircuitError::MultipleDrivers { net });
        }
        if self.pis.is_empty() {
            return Err(CircuitError::NoInputs);
        }
        let n = self.net_names.len();
        let mut drivers = Vec::with_capacity(n);
        for (i, pd) in self.pending.iter().enumerate() {
            let d = match pd {
                PendingDriver::None => {
                    return Err(CircuitError::Undriven {
                        net: self.net_names[i].to_string(),
                    })
                }
                PendingDriver::Pi(k) => Driver::Pi(*k),
                PendingDriver::Gate(g) => Driver::Gate(GateId::from_index(*g)),
                PendingDriver::Ff(f) => Driver::Ff(FfId::from_index(*f)),
            };
            drivers.push(d);
        }

        let gates = self.gates;
        for g in &gates {
            if !g.kind.accepts_fanin(g.inputs.len()) {
                return Err(CircuitError::BadFanin {
                    net: self.net_names[g.output.index()].to_string(),
                    got: g.inputs.len(),
                });
            }
        }
        let ffs: Vec<Ff> = self
            .ffs
            .iter()
            .map(|&(d, q)| Ff {
                d: NetId::from_index(d),
                q: NetId::from_index(q),
            })
            .collect();

        // Fanout CSR, filled by counting sort. Emission order matches the
        // historical per-net append order (gates by id in pin order, then
        // flip-flop D pins, then primary outputs), which downstream
        // compilation relies on for adjacent-duplicate elimination.
        let mut fanout_offsets = vec![0u32; n + 1];
        for g in &gates {
            for input in &g.inputs {
                fanout_offsets[input.index() + 1] += 1;
            }
        }
        for ff in &ffs {
            fanout_offsets[ff.d.index() + 1] += 1;
        }
        for &po in &self.pos {
            fanout_offsets[po + 1] += 1;
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let total_sinks = fanout_offsets[n] as usize;
        let mut fanout_sinks = vec![Sink::Po(PoId::from_index(0)); total_sinks];
        let mut cursor = fanout_offsets.clone();
        let mut place = |net: usize, sink: Sink, cursor: &mut [u32]| {
            fanout_sinks[cursor[net] as usize] = sink;
            cursor[net] += 1;
        };
        for (gi, g) in gates.iter().enumerate() {
            for (pin, &input) in g.inputs.iter().enumerate() {
                place(
                    input.index(),
                    Sink::GatePin(
                        GateId::from_index(gi),
                        u8::try_from(pin).expect("gate fanin exceeds 255"),
                    ),
                    &mut cursor,
                );
            }
        }
        for (fi, ff) in ffs.iter().enumerate() {
            place(ff.d.index(), Sink::FfD(FfId::from_index(fi)), &mut cursor);
        }
        for (pi, &po) in self.pos.iter().enumerate() {
            place(po, Sink::Po(PoId::from_index(pi)), &mut cursor);
        }
        let sinks_of = |net: usize| {
            &fanout_sinks[fanout_offsets[net] as usize..fanout_offsets[net + 1] as usize]
        };

        // Kahn's algorithm over gates; PIs and FF outputs are sources.
        let mut indeg: Vec<usize> = gates
            .iter()
            .map(|g| {
                g.inputs
                    .iter()
                    .filter(|i| matches!(drivers[i.index()], Driver::Gate(_)))
                    .count()
            })
            .collect();
        let mut queue: Vec<GateId> = Vec::with_capacity(gates.len());
        queue.extend(
            indeg
                .iter()
                .enumerate()
                .filter(|(_, &d)| d == 0)
                .map(|(i, _)| GateId::from_index(i)),
        );
        let mut topo = Vec::with_capacity(gates.len());
        let mut head = 0;
        while head < queue.len() {
            let gid = queue[head];
            head += 1;
            topo.push(gid);
            for sink in sinks_of(gates[gid.index()].output.index()) {
                if let Sink::GatePin(consumer, _) = sink {
                    let ci = consumer.index();
                    indeg[ci] -= 1;
                    if indeg[ci] == 0 {
                        queue.push(*consumer);
                    }
                }
            }
        }
        if topo.len() != gates.len() {
            let on_cycle = indeg
                .iter()
                .position(|&d| d > 0)
                .expect("cycle implies positive in-degree");
            return Err(CircuitError::CombinationalCycle {
                net: self.net_names[gates[on_cycle].output.index()].to_string(),
            });
        }

        // Net levels: sources at 0, gate outputs at 1 + max input level.
        let mut levels = vec![0u32; n];
        let mut max_level = 0;
        for &gid in &topo {
            let g = &gates[gid.index()];
            let lvl = 1 + g
                .inputs
                .iter()
                .map(|i| levels[i.index()])
                .max()
                .unwrap_or(0);
            levels[g.output.index()] = lvl;
            max_level = max_level.max(lvl);
        }

        let mut name_index: Vec<u32> = (0..u32::try_from(n).expect("net count overflow")).collect();
        let net_names = self.net_names;
        name_index.sort_unstable_by(|&a, &b| net_names[a as usize].cmp(&net_names[b as usize]));

        Ok(Netlist {
            name: self.name,
            net_names,
            name_index,
            drivers,
            gates,
            ffs,
            pis: self.pis.into_iter().map(NetId::from_index).collect(),
            pos: self.pos.into_iter().map(NetId::from_index).collect(),
            fanout_offsets,
            fanout_sinks,
            topo,
            levels,
            max_level,
            compiled: Arc::new(OnceLock::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        b.input("a");
        b.input("b");
        b.dff("q", "d");
        b.gate(GateKind::And, "d", &["a", "q"]);
        b.gate(GateKind::Xor, "y", &["b", "q"]);
        b.output("y");
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let nl = toy();
        assert_eq!(nl.name(), "toy");
        assert_eq!(nl.num_pis(), 2);
        assert_eq!(nl.num_pos(), 1);
        assert_eq!(nl.num_ffs(), 1);
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.num_nets(), 5); // a b q d y
    }

    #[test]
    fn drivers_and_fanouts_are_consistent() {
        let nl = toy();
        let q = nl.find_net("q").unwrap();
        assert!(matches!(nl.driver(q), Driver::Ff(_)));
        // q feeds both gates.
        assert_eq!(nl.fanouts(q).len(), 2);
        let d = nl.find_net("d").unwrap();
        assert!(matches!(nl.driver(d), Driver::Gate(_)));
        assert!(matches!(nl.fanouts(d)[0], Sink::FfD(_)));
        let y = nl.find_net("y").unwrap();
        assert!(matches!(nl.fanouts(y)[0], Sink::Po(_)));
    }

    #[test]
    fn id_based_api_matches_name_based_api() {
        let by_name = toy();
        let mut b = NetlistBuilder::with_capacity("toy", 5, 2, 1);
        let a = b.net("a");
        let bb = b.net("b");
        let q = b.net("q");
        let d = b.net("d");
        let y = b.net("y");
        b.input_net(a);
        b.input_net(bb);
        b.dff_nets(q, d);
        b.gate_nets(GateKind::And, d, &[a, q]);
        b.gate_nets(GateKind::Xor, y, &[bb, q]);
        b.output_net(y);
        let by_id = b.finish().unwrap();
        assert_eq!(by_id.num_nets(), by_name.num_nets());
        assert_eq!(by_id.gates(), by_name.gates());
        assert_eq!(by_id.ffs(), by_name.ffs());
        assert_eq!(by_id.pis(), by_name.pis());
        assert_eq!(by_id.pos(), by_name.pos());
        for net in by_name.net_ids() {
            assert_eq!(by_id.net_name(net), by_name.net_name(net));
            assert_eq!(by_id.fanouts(net), by_name.fanouts(net));
        }
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut b = NetlistBuilder::new("chain");
        b.input("a");
        b.gate(GateKind::Not, "x", &["a"]);
        b.gate(GateKind::Not, "y", &["x"]);
        b.gate(GateKind::Not, "z", &["y"]);
        b.output("z");
        let nl = b.finish().unwrap();
        let order = nl.topo_order();
        let pos_of = |net: &str| {
            let id = nl.find_net(net).unwrap();
            order
                .iter()
                .position(|&g| nl.gate(g).output() == id)
                .unwrap()
        };
        assert!(pos_of("x") < pos_of("y"));
        assert!(pos_of("y") < pos_of("z"));
        assert_eq!(nl.level(nl.find_net("z").unwrap()), 3);
        assert_eq!(nl.max_level(), 3);
    }

    #[test]
    fn ff_breaks_cycles() {
        // d = NOT(q) with q = DFF(d) is fine: the loop crosses a flip-flop.
        let mut b = NetlistBuilder::new("tff");
        b.input("en");
        b.dff("q", "d");
        b.gate(GateKind::Xor, "d", &["q", "en"]);
        b.output("q");
        assert!(b.finish().is_ok());
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut b = NetlistBuilder::new("cyc");
        b.input("a");
        b.gate(GateKind::And, "x", &["a", "y"]);
        b.gate(GateKind::And, "y", &["a", "x"]);
        b.output("y");
        assert!(matches!(
            b.finish(),
            Err(CircuitError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn detects_multiple_drivers() {
        let mut b = NetlistBuilder::new("md");
        b.input("a");
        b.gate(GateKind::Not, "x", &["a"]);
        b.gate(GateKind::Buf, "x", &["a"]);
        b.output("x");
        assert!(matches!(
            b.finish(),
            Err(CircuitError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn detects_undriven_net() {
        let mut b = NetlistBuilder::new("ud");
        b.input("a");
        b.gate(GateKind::And, "x", &["a", "ghost"]);
        b.output("x");
        assert!(matches!(b.finish(), Err(CircuitError::Undriven { .. })));
    }

    #[test]
    fn detects_bad_fanin() {
        let mut b = NetlistBuilder::new("bf");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Not, "x", &["a", "b"]);
        b.output("x");
        assert!(matches!(b.finish(), Err(CircuitError::BadFanin { .. })));
    }

    #[test]
    fn rejects_input_free_circuit() {
        let b = NetlistBuilder::new("empty");
        assert!(matches!(b.finish(), Err(CircuitError::NoInputs)));
    }

    #[test]
    fn find_net_resolves_names() {
        let nl = toy();
        assert!(nl.find_net("a").is_some());
        assert!(nl.find_net("nope").is_none());
        let a = nl.find_net("a").unwrap();
        assert_eq!(nl.net_name(a), "a");
    }

    #[test]
    fn find_net_resolves_every_name_on_a_larger_circuit() {
        let mut b = NetlistBuilder::new("many");
        b.input("a");
        let mut prev = "a".to_owned();
        for i in 0..200 {
            let name = format!("n{i}");
            b.gate(GateKind::Not, &name, &[&prev]);
            prev = name;
        }
        b.output(&prev);
        let nl = b.finish().unwrap();
        for net in nl.net_ids() {
            assert_eq!(nl.find_net(nl.net_name(net)), Some(net));
        }
        assert!(nl.find_net("absent").is_none());
    }
}
