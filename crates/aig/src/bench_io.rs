//! Reader/writer for the ISCAS `.bench` netlist format used by the
//! ISCAS'85/'89 and ITC'99 benchmark suites the paper evaluates on.
//!
//! Supported gates: `AND`, `NAND`, `OR`, `NOR`, `XOR`, `XNOR`, `NOT`,
//! `BUF`/`BUFF`, `DFF` (latch), plus `INPUT(..)`/`OUTPUT(..)`
//! declarations and `#` comments.
//!
//! ```
//! let text = "\
//! INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = NAND(a, b)\n";
//! let aig = step_aig::bench_io::parse(text)?;
//! assert_eq!(aig.num_inputs(), 2);
//! assert_eq!(aig.eval(&[true, true]), vec![false]);
//! # Ok::<(), step_aig::ParseError>(())
//! ```

use std::collections::HashMap;

use crate::error::ParseError;
use crate::graph::Aig;
use crate::lit::AigLit;

#[derive(Debug, Clone)]
struct GateDef {
    line: usize,
    kind: String,
    args: Vec<String>,
}

/// Parses `.bench` text into an [`Aig`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, undefined signals,
/// combinational cycles or arity violations.
pub fn parse(text: &str) -> Result<Aig, ParseError> {
    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut gates: HashMap<String, GateDef> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_decl(line, "INPUT") {
            inputs.push((lineno, rest.to_owned()));
        } else if let Some(rest) = strip_decl(line, "OUTPUT") {
            outputs.push((lineno, rest.to_owned()));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim().to_owned();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| ParseError::new(lineno, "expected `gate(args)`"))?;
            if !rhs.ends_with(')') {
                return Err(ParseError::new(lineno, "missing `)`"));
            }
            let kind = rhs[..open].trim().to_ascii_uppercase();
            let args: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|a| a.trim().to_owned())
                .filter(|a| !a.is_empty())
                .collect();
            if args.is_empty() {
                return Err(ParseError::new(lineno, "gate with no operands"));
            }
            if gates
                .insert(
                    name.clone(),
                    GateDef {
                        line: lineno,
                        kind,
                        args,
                    },
                )
                .is_some()
            {
                return Err(ParseError::new(
                    lineno,
                    format!("signal `{name}` redefined"),
                ));
            }
            order.push(name);
        } else {
            return Err(ParseError::new(
                lineno,
                format!("unrecognized line `{line}`"),
            ));
        }
    }

    let mut aig = Aig::new();
    let mut sig: HashMap<String, AigLit> = HashMap::new();
    for (lineno, name) in &inputs {
        if sig.contains_key(name) {
            return Err(ParseError::new(
                *lineno,
                format!("input `{name}` redefined"),
            ));
        }
        let lit = aig.add_input(name.clone());
        sig.insert(name.clone(), lit);
    }
    // DFF outputs are leaves; create them before resolving gates so that
    // definition order does not matter and latch cycles are legal.
    let mut latch_next: Vec<(usize, String)> = Vec::new(); // (latch idx, source)
    for name in &order {
        let def = &gates[name];
        if def.kind == "DFF" {
            if def.args.len() != 1 {
                return Err(ParseError::new(def.line, "DFF takes exactly one operand"));
            }
            let idx = aig.latches().len();
            let lit = aig.add_latch(name.clone(), false);
            sig.insert(name.clone(), lit);
            latch_next.push((idx, def.args[0].clone()));
        }
    }

    // Resolve combinational gates with an explicit work stack.
    for name in &order {
        resolve(name, &gates, &mut sig, &mut aig)?;
    }
    for (idx, src) in latch_next {
        let lit = *sig
            .get(&src)
            .ok_or_else(|| ParseError::new(0, format!("undefined signal `{src}`")))?;
        aig.set_latch_next(idx, lit)
            .map_err(|e| ParseError::new(0, e.to_string()))?;
    }
    for (lineno, name) in &outputs {
        let lit = *sig
            .get(name)
            .ok_or_else(|| ParseError::new(*lineno, format!("undefined output `{name}`")))?;
        aig.add_output(name.clone(), lit);
    }
    Ok(aig)
}

fn strip_decl<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(kw)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

fn resolve(
    target: &str,
    gates: &HashMap<String, GateDef>,
    sig: &mut HashMap<String, AigLit>,
    aig: &mut Aig,
) -> Result<AigLit, ParseError> {
    if let Some(&lit) = sig.get(target) {
        return Ok(lit);
    }
    // Iterative DFS; `visiting` detects combinational cycles.
    let mut stack: Vec<String> = vec![target.to_owned()];
    let mut visiting: HashMap<String, bool> = HashMap::new();
    while let Some(name) = stack.last().cloned() {
        if sig.contains_key(&name) {
            stack.pop();
            continue;
        }
        let def = gates
            .get(&name)
            .ok_or_else(|| ParseError::new(0, format!("undefined signal `{name}`")))?;
        let pending: Vec<&String> = def.args.iter().filter(|a| !sig.contains_key(*a)).collect();
        if pending.is_empty() {
            let args: Vec<AigLit> = def.args.iter().map(|a| sig[a]).collect();
            let lit = build_gate(aig, &def.kind, &args, def.line)?;
            sig.insert(name.clone(), lit);
            visiting.remove(&name);
            stack.pop();
        } else {
            if *visiting.get(&name).unwrap_or(&false) {
                return Err(ParseError::new(
                    def.line,
                    format!("combinational cycle through `{name}`"),
                ));
            }
            visiting.insert(name.clone(), true);
            for p in pending {
                stack.push(p.clone());
            }
        }
    }
    Ok(sig[target])
}

fn build_gate(
    aig: &mut Aig,
    kind: &str,
    args: &[AigLit],
    line: usize,
) -> Result<AigLit, ParseError> {
    let unary = |n: usize| -> Result<(), ParseError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(ParseError::new(
                line,
                format!("{kind} expects {n} operand(s)"),
            ))
        }
    };
    Ok(match kind {
        "AND" => aig.and_many(args),
        "NAND" => !aig.and_many(args),
        "OR" => aig.or_many(args),
        "NOR" => !aig.or_many(args),
        "XOR" => aig.xor_many(args),
        "XNOR" => !aig.xor_many(args),
        "NOT" => {
            unary(1)?;
            !args[0]
        }
        "BUF" | "BUFF" => {
            unary(1)?;
            args[0]
        }
        "DFF" => unreachable!("latches are handled separately"),
        other => return Err(ParseError::new(line, format!("unknown gate `{other}`"))),
    })
}

/// Serializes an [`Aig`] in `.bench` format.
///
/// AND nodes become `AND` gates, complemented edges become `NOT` gates
/// and latches become `DFF`s. Internal node names are `n<id>`. Constant
/// edges are expressed as `XOR(x, x)` over the first available leaf; a
/// tie-off input `__tie0` is added for constant functions of zero inputs.
pub fn write(aig: &Aig) -> String {
    use crate::graph::AigNode;
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut body = String::new();
    let mut need_tie_input = false;

    let base_name = |id: crate::graph::NodeId| -> String {
        match aig.node(id) {
            AigNode::Const => "__gnd".to_owned(),
            AigNode::Input { pi } => aig.input_name(pi as usize).to_owned(),
            AigNode::Latch { idx } => aig.latches()[idx as usize].name().to_owned(),
            AigNode::And { .. } => format!("n{}", id.index()),
        }
    };
    // Ordered, so the `NOT` lines come out in ascending literal order
    // and the text is the same in every process.
    let mut inverters: BTreeSet<u32> = BTreeSet::new();
    let mut used_const = false;
    let ref_name = |lit: AigLit, inverters: &mut BTreeSet<u32>, used_const: &mut bool| {
        if lit.is_const() {
            *used_const = true;
        }
        if lit.is_complement() && lit != AigLit::TRUE {
            inverters.insert(lit.code());
            format!("{}_inv", base_name(lit.node()))
        } else if lit == AigLit::TRUE {
            "__vdd".to_owned()
        } else {
            base_name(lit.node())
        }
    };

    for (id, node) in aig.iter_nodes() {
        if let AigNode::And { f0, f1 } = node {
            let a = ref_name(f0, &mut inverters, &mut used_const);
            let b = ref_name(f1, &mut inverters, &mut used_const);
            let _ = writeln!(body, "n{} = AND({}, {})", id.index(), a, b);
        }
    }
    for l in aig.latches() {
        if let Some(next) = l.next() {
            let src = ref_name(next, &mut inverters, &mut used_const);
            let _ = writeln!(body, "{} = DFF({})", l.name(), src);
        }
    }
    for o in aig.outputs() {
        let src = ref_name(o.lit(), &mut inverters, &mut used_const);
        if src != o.name() {
            let _ = writeln!(body, "{} = BUFF({})", o.name(), src);
        }
    }
    for code in &inverters {
        let lit = AigLit::from_code(*code);
        let _ = writeln!(
            body,
            "{}_inv = NOT({})",
            base_name(lit.node()),
            base_name(lit.node())
        );
    }
    if used_const {
        // `.bench` has no constants: derive 0/1 from any leaf.
        let tie = if aig.num_inputs() > 0 {
            aig.input_name(0).to_owned()
        } else if !aig.latches().is_empty() {
            aig.latches()[0].name().to_owned()
        } else {
            need_tie_input = true;
            "__tie0".to_owned()
        };
        let _ = writeln!(body, "__gnd = XOR({tie}, {tie})");
        let _ = writeln!(body, "__vdd = NOT(__gnd)");
    }

    for pi in 0..aig.num_inputs() {
        let _ = writeln!(out, "INPUT({})", aig.input_name(pi));
    }
    if need_tie_input {
        let _ = writeln!(out, "INPUT(__tie0)");
    }
    for o in aig.outputs() {
        let _ = writeln!(out, "OUTPUT({})", o.name());
    }
    out.push_str(&body);
    out
}
