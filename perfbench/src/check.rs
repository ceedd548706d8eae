//! The independent correctness check: canonical BDDs from `step-bdd`,
//! never the SAT path under test.

use step_aig::{Aig, Cone};
use step_bdd::{BddRef, Manager};
use step_core::{DecompTree, Decomposition, GateOp, VarClass};

fn combine(m: &mut Manager, op: GateOp, a: BddRef, b: BddRef) -> BddRef {
    match op {
        GateOp::Or => m.or(a, b),
        GateOp::And => m.and(a, b),
        GateOp::Xor => m.xor(a, b),
    }
}

/// Checks a bi-decomposition of `cone`: `fA <op> fB ≡ f`, `fA` reads
/// only `XA ∪ XC`, `fB` only `XB ∪ XC`, and both blocks are non-empty.
pub fn decomposition(cone: &Cone, d: &Decomposition) -> Result<(), String> {
    let p = &d.partition;
    let n = cone.aig.num_inputs();
    if p.len() != n || d.aig.num_inputs() != n {
        return Err(format!("partition over {} inputs, cone has {n}", p.len()));
    }
    if !p.is_nontrivial() {
        return Err("trivial partition".into());
    }
    let mut m = Manager::new(n);
    let f = m.from_aig(&cone.aig, cone.root);
    let fa = m.from_aig(&d.aig, d.fa);
    let fb = m.from_aig(&d.aig, d.fb);
    let g = combine(&mut m, d.op, fa, fb);
    if g != f {
        return Err(format!("fA {} fB differs from f", d.op));
    }
    for (side, func, own) in [("fA", fa, VarClass::A), ("fB", fb, VarClass::B)] {
        if let Some(v) = m
            .support(func)
            .into_iter()
            .find(|&v| p.class(v) != own && p.class(v) != VarClass::C)
        {
            return Err(format!("{side} reads input {v} outside its block"));
        }
    }
    Ok(())
}

/// Checks that `tree` computes output `out` of `circuit`.
pub fn network(circuit: &Aig, out: usize, tree: &DecompTree) -> Result<(), String> {
    let net = tree.to_aig();
    let mut m = Manager::new(circuit.num_inputs().max(net.num_inputs()));
    let f = m.from_aig(circuit, circuit.outputs()[out].lit());
    let g = m.from_aig(&net, net.outputs()[0].lit());
    if f == g {
        Ok(())
    } else {
        Err(format!("network for output {out} differs from its cone"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_core::{extract, VarPartition};

    #[test]
    fn accepts_a_valid_split_and_rejects_a_wrong_op() {
        // f = (a & b) | (c & d) splits disjointly under OR.
        let mut aig = Aig::new();
        let x: Vec<_> = (0..4).map(|i| aig.add_input(format!("x{i}"))).collect();
        let l = aig.and(x[0], x[1]);
        let r = aig.and(x[2], x[3]);
        let f = aig.or(l, r);
        let cone = aig.cone(f);
        let p = VarPartition::from_sets(4, &[0, 1], &[2, 3]);
        let mut d = extract(&cone.aig, cone.root, GateOp::Or, &p, None).unwrap();
        assert_eq!(decomposition(&cone, &d), Ok(()));
        d.op = GateOp::And;
        assert!(decomposition(&cone, &d).is_err());
    }
}
