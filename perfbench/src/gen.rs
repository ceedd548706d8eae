//! Seeded input generation. The program only ever sees the circuits
//! built here, rendered to the BENCH/BLIF text a user would feed it.
//!
//! Each workload draws from a fixed circuit family, and `--seed`
//! relabels it so that every seed asks the solvers for the same work
//! and runs of different seeds measure the same thing. On the ladder
//! the seed places each cone's inputs on seeded positions of a shared
//! bus, which canonicalization sees through exactly (the same conflicts
//! under every seed). On the registry circuits it only renames the
//! inputs: permuting them moved the served conflicts by up to 18%
//! (canonicalization does not undo every permutation of those cones).
//! The seed changes nothing else: inputs are never complemented
//! (polarity reaches the CNF), and the order of circuits and requests
//! is fixed (it decides where the store hits fall, so which calls are
//! fast).

use std::collections::HashMap;

use step_aig::{Aig, AigLit};
use step_circuits::generators::random_sop;
use step_circuits::{registry_all, with_permuted_copies, with_shared_substructure, Scale};

/// SplitMix64: a tiny seeded generator (the input family must not
/// depend on any other crate's random stream).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Copies the outputs `roots` of `src` into `dst`, reading source input
/// `i` as `inputs[i]`.
fn import_outputs(dst: &mut Aig, src: &Aig, inputs: &[AigLit], names_prefix: &str) {
    let mut map = HashMap::new();
    for (i, &lit) in inputs.iter().enumerate() {
        map.insert(src.input_node(i), lit);
    }
    for o in src.outputs() {
        let lit = dst.import(src, o.lit(), &mut map);
        dst.add_output(format!("{names_prefix}{}", o.name()), lit);
    }
}

/// A random input map onto `n` distinct positions of a bus of `width`
/// inputs.
fn random_map(rng: &mut Rng, dst: &Aig, n: usize, width: usize) -> Vec<AigLit> {
    let mut pos: Vec<usize> = (0..width).collect();
    rng.shuffle(&mut pos);
    pos[..n].iter().map(|&p| dst.input(p)).collect()
}

/// `src` with its inputs renamed `x<tag>_<i>`, for one seeded 8-digit
/// hex `tag` per circuit; their order and the structure are kept.
pub fn rename(src: &Aig, rng: &mut Rng) -> Aig {
    let tag = rng.next() as u32;
    let mut dst = Aig::new();
    let map: Vec<AigLit> = (0..src.num_inputs())
        .map(|i| dst.add_input(format!("x{tag:08x}_{i}")))
        .collect();
    import_outputs(&mut dst, src, &map, "");
    dst
}

/// Support sizes of the `qbf-ladder` rungs, lowest first.
pub const RUNGS: [usize; 5] = [12, 14, 16, 18, 20];
/// Cones per rung.
pub const PER_RUNG: usize = 20;
/// The rung also solved by QDB.
pub const QDB_RUNG: usize = 12;
/// Base seed of the `random_sop` cone family.
const LADDER_FAMILY: u64 = 0x5EED_1ADD;

/// The `qbf-ladder` input: one circuit of every cone (solved by QD) and
/// one of the lowest rung (also solved by QDB), over a shared 20-input
/// bus. Cone `j` of rung `n` is `random_sop(n, 2n/3, 4, ..)` from a
/// fixed family, placed on seeded bus positions.
pub fn ladder(seed: u64) -> (Aig, Aig) {
    let width = *RUNGS.iter().max().expect("rungs");
    let mut rng = Rng::new(seed, 1);
    let mut all = Aig::new();
    let mut low = Aig::new();
    for i in 0..width {
        all.add_input(format!("x{i}"));
        low.add_input(format!("x{i}"));
    }
    for (r, &n) in RUNGS.iter().enumerate() {
        for j in 0..PER_RUNG {
            let cone = random_sop(
                n,
                2 * n / 3,
                4,
                LADDER_FAMILY ^ ((r as u64) << 32) ^ j as u64,
            );
            let map = random_map(&mut rng, &all, n, width);
            let prefix = format!("r{n}_{j}_");
            import_outputs(&mut all, &cone, &map, &prefix);
            if n == QDB_RUNG {
                import_outputs(&mut low, &cone, &map, &prefix);
            }
        }
    }
    (all, low)
}

/// Registry circuits left out of `synth-recursive`: full-scale C7552
/// has a cone that synthesizes for over a minute.
const SYNTH_EXCLUDED: [&str; 1] = ["C7552"];

/// The `synth-recursive` input: every full-scale registry circuit but
/// [`SYNTH_EXCLUDED`], its inputs renamed, in registry order. The
/// order stays fixed because the circuits share cones: which circuit
/// meets a shared cone first decides where the store hits fall, and so
/// which calls are fast.
pub fn synth_circuits(seed: u64) -> Vec<(String, Aig)> {
    let mut rng = Rng::new(seed, 2);
    registry_all()
        .into_iter()
        .filter(|e| !SYNTH_EXCLUDED.contains(&e.name))
        .map(|e| {
            (
                e.name.replace(' ', "_"),
                rename(&e.build(Scale::Full), &mut rng),
            )
        })
        .collect()
}

/// How many times the `served-twins` stream carries each distinct
/// circuit: 3 × 435 = 1305 requests a pass, so p99 keeps ten samples
/// beyond it.
pub const SERVED_REPEATS: usize = 3;
/// Seed of the stream's fixed request order.
const SERVED_ORDER: u64 = 0x0005_E12E;

/// One request of the `served-twins` stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// Index of the distinct circuit this request carries.
    pub circuit: usize,
    /// Wire format: `bench` or `blif`.
    pub format: &'static str,
    /// The circuit text.
    pub text: String,
}

/// The `served-twins` input: the distinct request circuits (every
/// default-scale registry circuit, renamed, plus its permuted-copy
/// twin circuit and its shared-substructure near-twin circuit) and a
/// stream in which each distinct circuit appears [`SERVED_REPEATS`]
/// times, in one fixed shuffled order. Circuits alternate between BENCH
/// and BLIF text.
pub fn served_stream(seed: u64) -> (Vec<Aig>, Vec<Request>) {
    let mut rng = Rng::new(seed, 3);
    let mut circuits = Vec::new();
    for e in registry_all() {
        let base = rename(&e.build(Scale::Default), &mut rng);
        circuits.push(with_permuted_copies(&base, 2));
        circuits.push(with_shared_substructure(&base, 2));
        circuits.push(base);
    }
    let formats: Vec<&'static str> = (0..circuits.len())
        .map(|i| if i % 2 == 0 { "bench" } else { "blif" })
        .collect();
    let texts: Vec<String> = circuits
        .iter()
        .zip(&formats)
        .enumerate()
        .map(|(i, (c, f))| render(c, f, &format!("c{i}")))
        .collect();
    let mut order: Vec<usize> = (0..circuits.len() * SERVED_REPEATS)
        .map(|i| i % circuits.len())
        .collect();
    Rng::new(SERVED_ORDER, 3).shuffle(&mut order);
    let requests = order
        .into_iter()
        .map(|c| Request {
            circuit: c,
            format: formats[c],
            text: texts[c].clone(),
        })
        .collect();
    (circuits, requests)
}

/// Renders `aig` as `format` (`bench` or `blif`) text.
pub fn render(aig: &Aig, format: &str, model: &str) -> String {
    match format {
        "bench" => {
            // The BENCH writer emits its `NOT` lines in hash-set order;
            // sort them so a seed always renders the same text (BENCH
            // lines may come in any order).
            let text = step_aig::bench_io::write(aig);
            let mut lines: Vec<&str> = text.lines().collect();
            let slots: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].contains("_inv = NOT("))
                .collect();
            let mut inverters: Vec<&str> = slots.iter().map(|&i| lines[i]).collect();
            inverters.sort_unstable();
            for (&i, line) in slots.iter().zip(inverters) {
                lines[i] = line;
            }
            lines.join("\n") + "\n"
        }
        _ => step_aig::blif::write(aig, model),
    }
}

/// Parses text written by [`render`].
pub fn parse(text: &str, format: &str) -> Result<Aig, String> {
    match format {
        "bench" => step_aig::bench_io::parse(text),
        _ => step_aig::blif::parse(text),
    }
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let (a, _) = ladder(7);
        let (b, low) = ladder(7);
        let (c, _) = ladder(8);
        let text = |g: &Aig| render(g, "bench", "m");
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_eq!(a.num_outputs(), RUNGS.len() * PER_RUNG);
        assert_eq!(low.num_outputs(), PER_RUNG);
    }

    #[test]
    fn registry_seeds_rename_inputs_and_keep_everything_else() {
        let (a, ra) = served_stream(1);
        let (b, rb) = served_stream(2);
        assert_ne!(ra[0].text, rb[0].text);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.num_inputs(), y.num_inputs());
            assert_eq!(x.and_count(), y.and_count());
            let lits = |g: &Aig| g.outputs().iter().map(|o| o.lit()).collect::<Vec<_>>();
            assert_eq!(lits(x), lits(y));
        }
        let order = |r: &[Request]| r.iter().map(|q| (q.circuit, q.format)).collect::<Vec<_>>();
        assert_eq!(order(&ra), order(&rb));
        assert_eq!(ra.len(), a.len() * SERVED_REPEATS);
    }

    #[test]
    fn rendered_circuits_parse_back_with_their_outputs() {
        let (all, _) = ladder(1);
        for format in ["bench", "blif"] {
            let back = parse(&render(&all, format, "m"), format).unwrap();
            assert_eq!(back.num_outputs(), all.num_outputs());
            assert_eq!(back.outputs()[3].name(), all.outputs()[3].name());
        }
    }
}
