//! `gen_circuit` — dumps a registry stand-in circuit to stdout so the
//! `step` CLI (and CI) can run on the exact circuits the evaluation
//! harness uses.
//!
//! ```text
//! gen_circuit <name> [--scale smoke|default|full] [--format bench|blif]
//!             [--copies k] [--shared-substructure k] [--list]
//! ```
//!
//! `<name>` is a registry entry (`C7552`, `mm9a`, `small042`, …; see
//! `--list`). The default format is BENCH, which `step` reads back
//! directly. `--copies k` appends `k−1` permuted-input twins of every
//! output cone (see [`step_circuits::with_permuted_copies`]) — the
//! repeated-cone population the engine's result cache exploits, used
//! by the CI cache smoke step. `--shared-substructure k` then appends
//! `k−1` *near-twin* variants of every output (same support, shared
//! subcones, different function — see
//! [`step_circuits::with_shared_substructure`]), the population the
//! clause bank's cluster channel reuses across; combined with
//! `--copies` it stresses both reuse channels at once.

use std::io::Write;

use step_circuits::{registry_all, with_permuted_copies, with_shared_substructure, Scale};

const USAGE: &str = "usage: gen_circuit <name> [--scale smoke|default|full] \
                     [--format bench|blif] [--copies k] [--shared-substructure k] [--list]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut scale = Scale::Default;
    let mut blif = false;
    let mut list = false;
    let mut copies = 1usize;
    let mut shared = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--format" => {
                i += 1;
                blif = match args.get(i).map(String::as_str) {
                    Some("bench") => false,
                    Some("blif") => true,
                    _ => usage(),
                };
            }
            "--copies" => {
                i += 1;
                copies = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(k) if k >= 1 => k,
                    _ => usage(),
                };
            }
            "--shared-substructure" => {
                i += 1;
                shared = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(k) if k >= 1 => k,
                    _ => usage(),
                };
            }
            "--list" => list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_owned()),
            _ => usage(),
        }
        i += 1;
    }

    let entries = registry_all();
    if list {
        // A reader that stops early (`--list | head -1`) closes the
        // pipe; stop quietly at the first failed write.
        let mut out = std::io::stdout().lock();
        for e in &entries {
            let aig = e.build(scale);
            let line = writeln!(
                out,
                "{:<12} {:<10} {:>4} inputs {:>4} outputs {:>6} ANDs",
                e.name,
                e.suite,
                aig.num_inputs(),
                aig.num_outputs(),
                aig.and_count()
            );
            if line.is_err() {
                break;
            }
        }
        return;
    }
    let Some(name) = name else { usage() };
    let Some(entry) = entries.iter().find(|e| e.name == name) else {
        eprintln!("unknown circuit {name:?} (try --list)");
        std::process::exit(1);
    };
    let mut aig = entry.build(scale);
    if copies > 1 {
        aig = with_permuted_copies(&aig, copies);
    }
    if shared > 1 {
        // After --copies, so every permuted twin gets near-twins too:
        // exact-channel and cluster-channel populations in one circuit.
        aig = with_shared_substructure(&aig, shared);
    }
    if blif {
        print!("{}", step_aig::blif::write(&aig, entry.name));
    } else {
        print!("{}", step_aig::bench_io::write(&aig));
    }
}
