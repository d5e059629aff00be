//! Fuzz target: the EPL compiler front-end must never panic.
//!
//! Drives `plasma_epl::compile` — lexing, parsing, name resolution,
//! statistic applicability checks, query-plan lowering, and conflict
//! detection — with every checked-in corpus seed plus a budget of
//! deterministic mutations derived from them (the shared driver in
//! `plasma_fuzz`). Compile *errors* are the expected outcome for most
//! inputs; the property under test is that no input can make the front-end
//! panic, loop, or index out of bounds. Usage:
//!
//! ```text
//! epl_compile [iterations] [seed]
//! ```
//!
//! Defaults: 10_000 iterations, seed 0x45504C (ASCII "EPL").

use plasma_epl::{compile, ActorSchema};
use plasma_fuzz::{below, Target};

const TARGET: Target = Target {
    name: "epl_compile",
    iterations: 10_000,
    seed: 0x0045_504C,
    max_len: 1 << 14,
    // Inserts a dictionary token at a random point.
    mutation: |out, state| {
        let tok = DICT[below(state, DICT.len())];
        let at = below(state, out.len() + 1);
        out.splice(at..at, tok.bytes());
    },
};

/// Mutation dictionary: the language's keywords, operators and the schema
/// names below, so mutated inputs keep hitting deep front-end paths
/// instead of dying in the lexer.
const DICT: &[&str] = &[
    "and",
    "or",
    "in",
    "ref",
    "call",
    "client",
    "server",
    "true",
    "cpu",
    "mem",
    "net",
    "perc",
    "count",
    "size",
    "reserve",
    "colocate",
    "separate",
    "balance",
    "pin",
    "priority",
    "=>",
    ";",
    "(",
    ")",
    "{",
    "}",
    ".",
    ",",
    ">",
    "<",
    ">=",
    "<=",
    "==",
    "80",
    "0.5",
    "#",
    "//",
    "T0",
    "T1",
    "T2",
    "Folder",
    "File",
    "Partition",
    "r0",
    "files",
    "children",
    "f0",
    "f1",
    "open",
    "read",
];

/// A schema rich enough to resolve every name the corpus seeds use: the
/// bench synth types plus the paper's Fig. 3 folder/file example.
fn fuzz_schema() -> ActorSchema {
    let mut s = ActorSchema::new();
    for t in ["T0", "T1", "T2"] {
        s.actor_type(t).prop("r0").func("f0").func("f1");
    }
    s.actor_type("Folder").prop("files").func("open");
    s.actor_type("File").func("read");
    s.actor_type("Partition").prop("children").func("read");
    s
}

/// One fuzz execution: compiling against both a populated and an empty
/// schema (the latter forces the unresolved-name error paths) must return
/// normally — `Ok` and `Err` are both fine, panics are not.
fn run_one(bytes: &[u8], rich: &ActorSchema, empty: &ActorSchema) {
    let src = String::from_utf8_lossy(bytes);
    let _ = compile(&src, rich);
    let _ = compile(&src, empty);
}

fn main() {
    let (rich, empty) = (fuzz_schema(), ActorSchema::new());
    plasma_fuzz::run(&TARGET, |bytes| run_one(bytes, &rich, &empty));
}
