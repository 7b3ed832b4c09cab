//! Majority rewriting: function-preserving simplification of AQFP netlists.

use std::collections::HashMap;

use aqfp_sc_circuit::{Gate, Netlist, NodeId};

/// Statistics and output of [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The rewritten netlist (may violate fan-out/balance rules; run
    /// legalisation afterwards).
    pub netlist: Netlist,
    /// Gates removed by constant folding and majority identities.
    pub folded: usize,
    /// Gates removed by structural common-subexpression elimination.
    pub cse_hits: usize,
}

/// Structural key for hash-consing. Commutative gates normalise operand
/// order so `and(a, b)` and `and(b, a)` unify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(bool),
    Inverter(NodeId),
    And(NodeId, NodeId),
    Or(NodeId, NodeId),
    Maj(NodeId, NodeId, NodeId),
}

/// What the optimizer knows about a rewritten node.
#[derive(Debug, Clone, Copy)]
struct Fact {
    /// Rewritten id this old node maps to.
    id: NodeId,
    /// Known constant value, if any.
    constant: Option<bool>,
}

/// Shared rewriting state.
struct Rewriter {
    out: Netlist,
    interned: HashMap<Key, NodeId>,
    inverse: HashMap<NodeId, NodeId>,
    folded: usize,
    cse_hits: usize,
}

impl Rewriter {
    fn intern(&mut self, key: Key) -> NodeId {
        if let Some(&id) = self.interned.get(&key) {
            self.cse_hits += 1;
            return id;
        }
        let id = match key {
            Key::Const(v) => self.out.constant(v),
            Key::Inverter(x) => self.out.inv(x),
            Key::And(a, b) => self.out.and2(a, b),
            Key::Or(a, b) => self.out.or2(a, b),
            Key::Maj(a, b, c) => self.out.maj(a, b, c),
        };
        if let Key::Inverter(x) = key {
            self.inverse.insert(id, x);
            self.inverse.insert(x, id);
        }
        self.interned.insert(key, id);
        id
    }

    fn constant(&mut self, v: bool) -> Fact {
        let id = self.intern(Key::Const(v));
        Fact { id, constant: Some(v) }
    }

    fn are_complements(&self, a: NodeId, b: NodeId) -> bool {
        self.inverse.get(&a) == Some(&b)
    }

    fn emit_not(&mut self, a: Fact) -> Fact {
        if let Some(v) = a.constant {
            self.folded += 1;
            return self.constant(!v);
        }
        if let Some(&orig) = self.inverse.get(&a.id) {
            self.folded += 1;
            return Fact { id: orig, constant: None };
        }
        let id = self.intern(Key::Inverter(a.id));
        Fact { id, constant: None }
    }

    fn emit_and(&mut self, a: Fact, b: Fact) -> Fact {
        match (a.constant, b.constant) {
            (Some(false), _) | (_, Some(false)) => {
                self.folded += 1;
                self.constant(false)
            }
            (Some(true), _) => {
                self.folded += 1;
                b
            }
            (_, Some(true)) => {
                self.folded += 1;
                a
            }
            _ if a.id == b.id => {
                self.folded += 1;
                a
            }
            _ if self.are_complements(a.id, b.id) => {
                self.folded += 1;
                self.constant(false)
            }
            _ => {
                let (x, y) = ordered(a.id, b.id);
                let id = self.intern(Key::And(x, y));
                Fact { id, constant: None }
            }
        }
    }

    fn emit_or(&mut self, a: Fact, b: Fact) -> Fact {
        match (a.constant, b.constant) {
            (Some(true), _) | (_, Some(true)) => {
                self.folded += 1;
                self.constant(true)
            }
            (Some(false), _) => {
                self.folded += 1;
                b
            }
            (_, Some(false)) => {
                self.folded += 1;
                a
            }
            _ if a.id == b.id => {
                self.folded += 1;
                a
            }
            _ if self.are_complements(a.id, b.id) => {
                self.folded += 1;
                self.constant(true)
            }
            _ => {
                let (x, y) = ordered(a.id, b.id);
                let id = self.intern(Key::Or(x, y));
                Fact { id, constant: None }
            }
        }
    }

    fn emit_maj(&mut self, fa: Fact, fb: Fact, fc: Fact) -> Fact {
        // Sort constant operands to the front for uniform handling.
        let mut operands = [fa, fb, fc];
        operands.sort_by_key(|f| (f.constant.is_none(), f.id));
        match (operands[0].constant, operands[1].constant) {
            (Some(x), Some(y)) if x == y => {
                self.folded += 1;
                self.constant(x)
            }
            (Some(_), Some(_)) => {
                // One 0 leg and one 1 leg: majority equals the third operand.
                self.folded += 1;
                operands[2]
            }
            (Some(false), None) => {
                self.folded += 1;
                self.emit_and(operands[1], operands[2])
            }
            (Some(true), None) => {
                self.folded += 1;
                self.emit_or(operands[1], operands[2])
            }
            _ => {
                let ids = [operands[0].id, operands[1].id, operands[2].id];
                if ids[0] == ids[1] || ids[0] == ids[2] {
                    self.folded += 1;
                    operands[0]
                } else if ids[1] == ids[2] {
                    self.folded += 1;
                    operands[1]
                } else if self.are_complements(ids[0], ids[1]) {
                    self.folded += 1;
                    operands[2]
                } else if self.are_complements(ids[1], ids[2]) {
                    self.folded += 1;
                    operands[0]
                } else if self.are_complements(ids[0], ids[2]) {
                    self.folded += 1;
                    operands[1]
                } else {
                    let mut sorted = ids;
                    sorted.sort_unstable();
                    let id = self.intern(Key::Maj(sorted[0], sorted[1], sorted[2]));
                    Fact { id, constant: None }
                }
            }
        }
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Rewrites a netlist with majority-logic identities:
///
/// * constant folding: `maj(a, b, 0) → and(a, b)`, `maj(a, b, 1) → or(a, b)`,
///   `and(a, 1) → a`, `or(a, 0) → a`, `and(a, 0) → 0`, `or(a, 1) → 1`, …
/// * majority identities: `maj(x, x, y) → x`, `maj(x, ¬x, y) → y`
/// * inverter/buffer cleanup: `inv(inv(x)) → x`, `buf(x) → x`
/// * structural CSE: identical gates are emitted once
///
/// The rewritten netlist computes the same outputs for every input vector
/// (verified by property tests). Fan-out and phase balance are *not*
/// maintained — run [`crate::legalize()`] afterwards.
pub fn optimize(input: &Netlist) -> OptimizeResult {
    let mut rw = Rewriter {
        out: Netlist::new(),
        interned: HashMap::new(),
        inverse: HashMap::new(),
        folded: 0,
        cse_hits: 0,
    };
    let mut facts: Vec<Option<Fact>> = vec![None; input.node_count()];
    let fact_of = |n: NodeId, facts: &[Option<Fact>]| -> Fact {
        facts[n.index()].expect("nodes are topologically ordered")
    };

    for (i, gate) in input.gates().iter().enumerate() {
        let fact = match gate {
            Gate::Input { name } => {
                let id = rw.out.input(name.clone());
                Fact { id, constant: None }
            }
            Gate::Const { value } => rw.constant(*value),
            Gate::Rng { seed } => {
                // Never folded or deduplicated: every RNG cell is a distinct
                // noise source.
                let id = rw.out.rng(*seed);
                Fact { id, constant: None }
            }
            Gate::Buffer { from } | Gate::Splitter { from, .. } => {
                // Pure wiring at this level; legalisation re-materialises
                // whatever delay/fan-out structure is needed.
                rw.folded += 1;
                fact_of(*from, &facts)
            }
            Gate::Inverter { from } => {
                let f = fact_of(*from, &facts);
                rw.emit_not(f)
            }
            Gate::And { a, b } => {
                let (fa, fb) = (fact_of(*a, &facts), fact_of(*b, &facts));
                rw.emit_and(fa, fb)
            }
            Gate::Or { a, b } => {
                let (fa, fb) = (fact_of(*a, &facts), fact_of(*b, &facts));
                rw.emit_or(fa, fb)
            }
            Gate::Nor { a, b } => {
                let (fa, fb) = (fact_of(*a, &facts), fact_of(*b, &facts));
                let or = rw.emit_or(fa, fb);
                rw.emit_not(or)
            }
            Gate::Maj { a, b, c } => {
                let (fa, fb, fc) =
                    (fact_of(*a, &facts), fact_of(*b, &facts), fact_of(*c, &facts));
                rw.emit_maj(fa, fb, fc)
            }
            _ => unreachable!("unhandled gate variant"),
        };
        facts[i] = Some(fact);
    }

    for (name, node) in input.outputs() {
        let fact = facts[node.index()].expect("outputs reference existing nodes");
        rw.out.output(name.clone(), fact.id);
    }
    let pruned = prune_dead(&rw.out);
    OptimizeResult { netlist: pruned, folded: rw.folded, cse_hits: rw.cse_hits }
}

/// Removes nodes not reachable from any primary output (primary inputs are
/// always kept so the pin interface is stable).
fn prune_dead(input: &Netlist) -> Netlist {
    let mut live = vec![false; input.node_count()];
    let mut stack: Vec<NodeId> = input.outputs().iter().map(|(_, n)| *n).collect();
    while let Some(n) = stack.pop() {
        if live[n.index()] {
            continue;
        }
        live[n.index()] = true;
        stack.extend(input.gate(n).fanin());
    }
    for pin in input.inputs() {
        live[pin.index()] = true;
    }
    let mut out = Netlist::new();
    let mut map: Vec<Option<NodeId>> = vec![None; input.node_count()];
    for (i, gate) in input.gates().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let m = |n: NodeId, map: &[Option<NodeId>]| -> NodeId {
            map[n.index()].expect("live nodes only reference live nodes")
        };
        let id = match gate {
            Gate::Input { name } => out.input(name.clone()),
            Gate::Const { value } => out.constant(*value),
            Gate::Rng { seed } => out.rng(*seed),
            Gate::Buffer { from } => {
                let f = m(*from, &map);
                out.buf(f)
            }
            Gate::Splitter { from, ways } => {
                let f = m(*from, &map);
                out.splitter(f, *ways)
            }
            Gate::Inverter { from } => {
                let f = m(*from, &map);
                out.inv(f)
            }
            Gate::And { a, b } => {
                let (x, y) = (m(*a, &map), m(*b, &map));
                out.and2(x, y)
            }
            Gate::Or { a, b } => {
                let (x, y) = (m(*a, &map), m(*b, &map));
                out.or2(x, y)
            }
            Gate::Nor { a, b } => {
                let (x, y) = (m(*a, &map), m(*b, &map));
                out.nor2(x, y)
            }
            Gate::Maj { a, b, c } => {
                let (x, y, z) = (m(*a, &map), m(*b, &map), m(*c, &map));
                out.maj(x, y, z)
            }
            _ => unreachable!("unhandled gate variant"),
        };
        map[i] = Some(id);
    }
    for (name, node) in input.outputs() {
        out.output(name.clone(), map[node.index()].expect("outputs are live"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(net: &Netlist) -> Vec<Vec<bool>> {
        let n = net.inputs().len();
        (0..(1u32 << n))
            .map(|mask| {
                let bits: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                net.evaluate(&bits, 0)
            })
            .collect()
    }

    #[test]
    fn maj_with_const_zero_becomes_and() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let zero = net.constant(false);
        let m = net.maj(a, zero, b);
        net.output("y", m);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(opt.folded >= 1);
        assert!(opt.netlist.gates().iter().any(|g| matches!(g, Gate::And { .. })));
        assert!(!opt.netlist.gates().iter().any(|g| matches!(g, Gate::Maj { .. })));
    }

    #[test]
    fn maj_with_const_one_becomes_or() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let one = net.constant(true);
        let m = net.maj(a, one, b);
        net.output("y", m);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(opt.netlist.gates().iter().any(|g| matches!(g, Gate::Or { .. })));
    }

    #[test]
    fn double_inverter_cancels() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let i1 = net.inv(a);
        let i2 = net.inv(i1);
        net.output("y", i2);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(opt.netlist.node_count() <= 2);
    }

    #[test]
    fn and_with_complement_is_false() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let na = net.inv(a);
        let y = net.and2(a, na);
        net.output("y", y);
        let opt = optimize(&net);
        for row in truth_table(&opt.netlist) {
            assert_eq!(row, vec![false]);
        }
    }

    #[test]
    fn or_with_complement_is_true() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let na = net.inv(a);
        let y = net.or2(na, a);
        net.output("y", y);
        let opt = optimize(&net);
        for row in truth_table(&opt.netlist) {
            assert_eq!(row, vec![true]);
        }
    }

    #[test]
    fn maj_duplicate_operand_collapses() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let m = net.maj(a, a, b);
        net.output("y", m);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(!opt.netlist.gates().iter().any(|g| matches!(g, Gate::Maj { .. })));
    }

    #[test]
    fn maj_with_complement_pair_is_third_operand() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let na = net.inv(a);
        let m = net.maj(a, na, b);
        net.output("y", m);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(!opt.netlist.gates().iter().any(|g| matches!(g, Gate::Maj { .. })));
    }

    #[test]
    fn cse_unifies_commutative_twins() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b = net.input("b");
        let x = net.and2(a, b);
        let y = net.and2(b, a);
        let z = net.or2(x, y); // = and(a,b)
        net.output("z", z);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert!(opt.cse_hits >= 1);
        let ands = opt
            .netlist
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::And { .. }))
            .count();
        assert_eq!(ands, 1);
    }

    #[test]
    fn buffers_are_bypassed() {
        let mut net = Netlist::new();
        let a = net.input("a");
        let b1 = net.buf(a);
        let b2 = net.buf(b1);
        let b3 = net.buf(b2);
        net.output("y", b3);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        assert_eq!(opt.netlist.node_count(), 1); // just the input
    }

    #[test]
    fn nor_of_constants_folds() {
        let mut net = Netlist::new();
        let zero = net.constant(false);
        let z2 = net.constant(false);
        let y = net.nor2(zero, z2);
        net.output("y", y);
        let opt = optimize(&net);
        assert_eq!(opt.netlist.evaluate(&[], 0), vec![true]);
    }

    #[test]
    fn rng_cells_survive_untouched() {
        let mut net = Netlist::new();
        let r1 = net.rng(1);
        let r2 = net.rng(1); // same seed, still distinct cells
        let y = net.and2(r1, r2);
        net.output("y", y);
        let opt = optimize(&net);
        let rngs = opt
            .netlist
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Rng { .. }))
            .count();
        assert_eq!(rngs, 2);
    }

    #[test]
    fn folding_cascades_through_levels() {
        // ((a AND 1) OR 0) AND (a OR a) == a
        let mut net = Netlist::new();
        let a = net.input("a");
        let one = net.constant(true);
        let zero = net.constant(false);
        let t1 = net.and2(a, one);
        let t2 = net.or2(t1, zero);
        let t3 = net.or2(a, a);
        let y = net.and2(t2, t3);
        net.output("y", y);
        let opt = optimize(&net);
        assert_eq!(truth_table(&net), truth_table(&opt.netlist));
        // Everything folds away to the bare input.
        assert_eq!(opt.netlist.node_count(), 1);
    }
}
