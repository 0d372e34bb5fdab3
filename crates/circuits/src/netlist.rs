//! Parametric R/L/C netlists.
//!
//! A [`Netlist`] holds two-terminal elements whose *stamped* values
//! (conductance for resistors, capacitance for capacitors, inductance for
//! inductors) depend linearly on a set of variational parameters:
//!
//! ```text
//! value(p) = value₀ · (1 + Σᵢ coeffᵢ · pᵢ)
//! ```
//!
//! which is exactly the first-order model of the paper's Eq. (3) — the
//! sensitivity matrices `Gᵢ/Cᵢ` are stamps of `coeffᵢ · value₀`. Parameters
//! are dimensionless relative variations (e.g. `p = 0.3` means a +30 % metal
//! width excursion).

/// A circuit node handle; `None` denotes the ground reference.
pub type Terminal = Option<usize>;

/// Identifies an element inside its [`Netlist`] (for attaching
/// sensitivities after creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// Element kinds supported by the MNA stamper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Resistor — stamped as a conductance into `G`.
    Resistor,
    /// Capacitor — stamped into `C`.
    Capacitor,
    /// Inductor — adds a branch-current unknown; its inductance is stamped
    /// into `C` on the branch row.
    Inductor,
}

/// A two-terminal element with parameter sensitivities on its stamped value.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Element kind.
    pub kind: ElementKind,
    /// First terminal.
    pub a: Terminal,
    /// Second terminal.
    pub b: Terminal,
    /// Nominal stamped value: conductance (S), capacitance (F) or
    /// inductance (H).
    pub value: f64,
    /// `(parameter index, relative sensitivity coefficient)` pairs.
    pub sens: Vec<(usize, f64)>,
}

impl Element {
    /// Stamped value at the parameter point `p` (first-order model).
    pub fn value_at(&self, p: &[f64]) -> f64 {
        let mut scale = 1.0;
        for &(idx, coeff) in &self.sens {
            scale += coeff * p.get(idx).copied().unwrap_or(0.0);
        }
        self.value * scale
    }
}

/// A parametric interconnect netlist.
///
/// Nodes are indexed `0..num_nodes`; ground is implicit (`None` terminal).
/// Inputs are unit current sources injected into nodes; outputs are observed
/// node voltages. When `inputs == outputs` the assembled system is in
/// immittance form (`B = L`) and congruence reduction preserves passivity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    num_nodes: usize,
    elements: Vec<Element>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    vports: Vec<usize>,
    num_params: usize,
}

impl Netlist {
    /// Creates a netlist with `num_nodes` pre-allocated nodes.
    pub fn new(num_nodes: usize) -> Self {
        Netlist {
            num_nodes,
            ..Netlist::default()
        }
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.num_nodes += 1;
        self.num_nodes - 1
    }

    /// Number of (non-ground) nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of variational parameters referenced so far.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Input nodes (unit current sources).
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Output nodes (observed voltages).
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Number of inductors (each adds one MNA unknown).
    pub fn num_inductors(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.kind == ElementKind::Inductor)
            .count()
    }

    /// Voltage-source port nodes.
    pub fn vports(&self) -> &[usize] {
        &self.vports
    }

    /// Total MNA unknowns: node voltages, inductor branch currents and
    /// voltage-source branch currents.
    pub fn mna_dim(&self) -> usize {
        self.num_nodes + self.num_inductors() + self.vports.len()
    }

    fn check_terminal(&self, t: Terminal, what: &str) {
        if let Some(n) = t {
            assert!(n < self.num_nodes, "{what}: node {n} out of range");
        }
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms <= 0`, if both terminals are ground, or if a node
    /// index is out of range.
    pub fn add_resistor(&mut self, a: Terminal, b: Terminal, ohms: f64) -> ElementId {
        assert!(ohms > 0.0, "resistor value must be positive, got {ohms}");
        self.push_element(ElementKind::Resistor, a, b, 1.0 / ohms)
    }

    /// Adds a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads <= 0`, if both terminals are ground, or if a node
    /// index is out of range.
    pub fn add_capacitor(&mut self, a: Terminal, b: Terminal, farads: f64) -> ElementId {
        assert!(
            farads > 0.0,
            "capacitor value must be positive, got {farads}"
        );
        self.push_element(ElementKind::Capacitor, a, b, farads)
    }

    /// Adds an inductor of `henries` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `henries <= 0`, if both terminals are ground, or if a node
    /// index is out of range.
    pub fn add_inductor(&mut self, a: Terminal, b: Terminal, henries: f64) -> ElementId {
        assert!(
            henries > 0.0,
            "inductor value must be positive, got {henries}"
        );
        self.push_element(ElementKind::Inductor, a, b, henries)
    }

    fn push_element(
        &mut self,
        kind: ElementKind,
        a: Terminal,
        b: Terminal,
        value: f64,
    ) -> ElementId {
        assert!(
            a.is_some() || b.is_some(),
            "element must touch at least one non-ground node"
        );
        self.check_terminal(a, "element terminal a");
        self.check_terminal(b, "element terminal b");
        self.elements.push(Element {
            kind,
            a,
            b,
            value,
            sens: Vec::new(),
        });
        ElementId(self.elements.len() - 1)
    }

    /// Declares that the stamped value of `id` varies with parameter
    /// `param` with relative coefficient `coeff` (adds to any existing
    /// coefficient for that parameter).
    pub fn set_sensitivity(&mut self, id: ElementId, param: usize, coeff: f64) {
        self.num_params = self.num_params.max(param + 1);
        let e = &mut self.elements[id.0];
        if let Some(slot) = e.sens.iter_mut().find(|(p, _)| *p == param) {
            slot.1 += coeff;
        } else {
            e.sens.push((param, coeff));
        }
    }

    /// Registers an input: a unit current source into `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_input(&mut self, node: usize) {
        assert!(node < self.num_nodes, "input node {node} out of range");
        self.inputs.push(node);
    }

    /// Registers an output: the voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_output(&mut self, node: usize) {
        assert!(node < self.num_nodes, "output node {node} out of range");
        self.outputs.push(node);
    }

    /// Registers `node` as both input and output — the immittance-port
    /// convention under which PRIMA-style congruence preserves passivity.
    pub fn add_port(&mut self, node: usize) {
        self.add_input(node);
        self.add_output(node);
    }

    /// Registers a voltage-source port at `node`: the input is the port
    /// voltage, the output is the port current, so the assembled transfer
    /// function is the admittance matrix `Y(s)`. Adds one branch-current
    /// unknown. Like [`Netlist::add_port`], this yields `B = L` (when no
    /// other inputs/outputs are mixed in) and preserves passivity under
    /// congruence.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_vport(&mut self, node: usize) {
        assert!(node < self.num_nodes, "vport node {node} out of range");
        self.vports.push(node);
    }

    /// Assembles the parametric MNA system (see [`crate::mna`]).
    pub fn assemble(&self) -> crate::ParametricSystem {
        crate::mna::assemble(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_element_bookkeeping() {
        let mut net = Netlist::new(1);
        let n1 = net.add_node();
        assert_eq!(net.num_nodes(), 2);
        let r = net.add_resistor(Some(0), Some(n1), 10.0);
        net.add_capacitor(Some(n1), None, 1e-15);
        net.add_inductor(Some(0), None, 1e-9);
        assert_eq!(net.elements().len(), 3);
        assert_eq!(net.num_inductors(), 1);
        assert_eq!(net.mna_dim(), 3);
        net.set_sensitivity(r, 2, 0.5);
        assert_eq!(net.num_params(), 3);
    }

    #[test]
    fn value_at_is_first_order() {
        let mut net = Netlist::new(2);
        let r = net.add_resistor(Some(0), Some(1), 2.0); // g = 0.5
        net.set_sensitivity(r, 0, 1.0);
        net.set_sensitivity(r, 1, -0.5);
        let e = &net.elements()[0];
        assert!((e.value_at(&[0.0, 0.0]) - 0.5).abs() < 1e-15);
        assert!((e.value_at(&[0.2, 0.0]) - 0.6).abs() < 1e-15);
        assert!((e.value_at(&[0.0, 0.4]) - 0.4).abs() < 1e-15);
    }

    #[test]
    fn sensitivity_accumulates() {
        let mut net = Netlist::new(1);
        let c = net.add_capacitor(Some(0), None, 1.0);
        net.set_sensitivity(c, 0, 0.3);
        net.set_sensitivity(c, 0, 0.2);
        assert_eq!(net.elements()[0].sens, vec![(0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_resistor_rejected() {
        Netlist::new(1).add_resistor(Some(0), None, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one non-ground node")]
    fn both_terminals_ground_rejected() {
        Netlist::new(1).add_capacitor(None, None, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_rejected() {
        Netlist::new(1).add_resistor(Some(0), Some(5), 1.0);
    }
}
