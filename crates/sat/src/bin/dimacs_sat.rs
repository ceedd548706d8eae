//! Minimal DIMACS front-end for the CDCL solver: reads a CNF file (or
//! stdin with `-`), prints `s SATISFIABLE` + a `v` model line or
//! `s UNSATISFIABLE`, optionally emitting a DRAT proof.
//!
//! Usage: `dimacs_sat <file.cnf|-> [--drat <out.drat>] [--conflicts n]`

use std::io::Read;

use step_cnf::{parse_dimacs, Lit, Var};
use step_sat::{SolveResult, Solver};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut drat_out = None;
    let mut conflicts = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--drat" => {
                i += 1;
                drat_out = args.get(i).cloned();
            }
            "--conflicts" => {
                i += 1;
                match args.get(i).map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) => conflicts = Some(n),
                    _ => {
                        eprintln!(
                            "--conflicts needs a non-negative integer, got {:?}",
                            args.get(i).map(String::as_str).unwrap_or("<missing>")
                        );
                        eprintln!("usage: dimacs_sat <file.cnf|-> [--drat out] [--conflicts n]");
                        std::process::exit(2);
                    }
                }
            }
            p if path.is_none() => path = Some(p.to_owned()),
            _ => {
                eprintln!("usage: dimacs_sat <file.cnf|-> [--drat out] [--conflicts n]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: dimacs_sat <file.cnf|-> [--drat out] [--conflicts n]");
        std::process::exit(2);
    };
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let cnf = parse_dimacs(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mut solver = Solver::new();
    if drat_out.is_some() {
        solver.enable_proof();
    }
    solver.set_effort_budget(conflicts);
    solver.add_cnf(&cnf);
    match solver.solve() {
        SolveResult::Sat => {
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for v in 0..cnf.num_vars() {
                let lit = Lit::pos(Var::new(v));
                let val = solver.model_value(lit).unwrap_or(false);
                line.push_str(&format!(
                    " {}",
                    if val { v as i64 + 1 } else { -(v as i64 + 1) }
                ));
            }
            line.push_str(" 0");
            println!("{line}");
            std::process::exit(10);
        }
        SolveResult::Unsat => {
            println!("s UNSATISFIABLE");
            if let (Some(out), Some(proof)) = (drat_out, solver.proof()) {
                std::fs::write(&out, proof.to_drat()).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    std::process::exit(1);
                });
                eprintln!("c drat proof written to {out}");
            }
            std::process::exit(20);
        }
        SolveResult::Unknown => {
            println!("s UNKNOWN");
            std::process::exit(0);
        }
    }
}
