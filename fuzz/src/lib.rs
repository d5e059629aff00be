//! The driver every fuzz target shares.
//!
//! The layout follows the conventional `fuzz/fuzz_targets` shape, but the
//! driver is self-contained instead of linking libFuzzer (not vendored):
//! [`run`] replays a target's checked-in seed corpus, then feeds it a
//! budget of splitmix64-seeded mutations of those seeds, so every run is
//! reproducible from its printed seed. Each target binary takes
//!
//! ```text
//! <target> [iterations] [seed]
//! ```
//!
//! and a panic anywhere aborts the process with a non-zero exit, which is
//! the failure signal CI keys on.

use std::path::PathBuf;

/// One fuzz target's settings.
pub struct Target {
    /// The binary's name, which is also its corpus directory under
    /// `corpus/`.
    pub name: &'static str,
    /// Mutations run when the command line names no count.
    pub iterations: u64,
    /// The mutation seed when the command line names none.
    pub seed: u64,
    /// Mutated inputs are cut to this many bytes, so pathological growth
    /// cannot stall a run.
    pub max_len: usize,
    /// The target's own mutation of an input, beside the generic ones.
    pub mutation: fn(&mut Vec<u8>, &mut u64),
}

/// Deterministic splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `0..n` (`n > 0`).
pub fn below(state: &mut u64, n: usize) -> usize {
    (mix(state) % n as u64) as usize
}

/// The directory holding `name`'s seed corpus.
pub fn corpus_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name)
}

/// Applies 1–4 random mutations to `base`: a bit flip, a byte overwrite, a
/// cut at a random point, a slice duplicated in place, the target's own
/// mutation, or a random tail of another seed spliced onto a random prefix.
fn mutate(base: &[u8], seeds: &[Vec<u8>], target: &Target, state: &mut u64) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..1 + below(state, 4) {
        match below(state, 6) {
            0 if !out.is_empty() => {
                let i = below(state, out.len());
                out[i] ^= 1 << below(state, 8);
            }
            1 if !out.is_empty() => {
                let i = below(state, out.len());
                out[i] = below(state, 256) as u8;
            }
            2 if !out.is_empty() => out.truncate(below(state, out.len())),
            3 if !out.is_empty() => {
                let a = below(state, out.len());
                let b = a + below(state, out.len() - a);
                let dup: Vec<u8> = out[a..b].to_vec();
                let at = below(state, out.len() + 1);
                out.splice(at..at, dup);
            }
            4 => (target.mutation)(&mut out, state),
            _ => {
                let other = &seeds[below(state, seeds.len())];
                let cut = below(state, out.len() + 1);
                let from = below(state, other.len() + 1);
                out.truncate(cut);
                out.extend_from_slice(&other[from..]);
            }
        }
        out.truncate(target.max_len);
    }
    out
}

/// Runs `target`: every corpus seed through `run_one`, then the mutation
/// budget. Reads `[iterations] [seed]` from the command line.
pub fn run(target: &Target, mut run_one: impl FnMut(&[u8])) {
    let mut argv = std::env::args().skip(1);
    let iterations: u64 = argv
        .next()
        .map(|a| a.parse().expect("iterations must be a number"))
        .unwrap_or(target.iterations);
    let mut state: u64 = argv
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(target.seed);
    let name = target.name;
    println!("{name}: {iterations} iterations, seed {state:#x}");

    let corpus = corpus_dir(name);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", corpus.display()))
        .map(|e| e.expect("readable corpus entry").path())
        .collect();
    entries.sort();
    let seeds: Vec<Vec<u8>> = entries
        .iter()
        .map(|p| std::fs::read(p).expect("readable corpus file"))
        .collect();
    assert!(!seeds.is_empty(), "seed corpus is empty");

    for (path, seed) in entries.iter().zip(&seeds) {
        run_one(seed);
        println!("  seed ok: {}", path.file_name().unwrap().to_string_lossy());
    }
    let every = (iterations / 10).max(1);
    for i in 0..iterations {
        let base = &seeds[below(&mut state, seeds.len())];
        let input = mutate(base, &seeds, target, &mut state);
        run_one(&input);
        if (i + 1) % every == 0 {
            println!("  {} iterations...", i + 1);
        }
    }
    println!("{name}: ok ({} seeds, {iterations} mutations)", seeds.len());
}
