//! `plasma-eval`: CLI over the deterministic paper-evaluation harness.
//!
//! ```text
//! plasma-eval run all|figures|<scenario>... [--scale smoke|full|xl] [--seed N] [--out DIR] [--backend sim|live|net]
//! plasma-eval parity all|<scenario>... [--scale smoke|full|xl] [--seed N] [--backends sim,live,net]
//! plasma-eval compare <baseline-dir-or-file> [current-dir-or-file] [--threshold F]
//! plasma-eval verify <file.epl>... [--schema FILE] [--json] [--allow-uncompilable]
//! plasma-eval list
//! ```
//!
//! Exit codes: 0 success / comparison passed, 1 comparison or parity
//! failed (regression, missing scenario, identity mismatch, backend
//! divergence, or a gating verifier finding), 2 usage or I/O error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use plasma_actor::BackendKind;
use plasma_apps::common::EvalScale;
use plasma_bench::eval::{
    compare, normalize_for_parity, render_summary, run_figure, run_scenario_on, CompareOptions,
    ScenarioResult, FIGURES, SCENARIOS,
};
use plasma_epl::verify::{verify, Verdict, VerifyConfig};
use plasma_trace::json::quote;

const USAGE: &str = "\
plasma-eval: deterministic PLASMA paper-evaluation harness

USAGE:
  plasma-eval run all|figures|<scenario>... [--scale smoke|full|xl] [--seed N] [--out DIR]
                  [--backend sim|live|net]
  plasma-eval parity all|<scenario>... [--scale smoke|full|xl] [--seed N] [--backends sim,live,net]
  plasma-eval compare <baseline> [current] [--threshold F]
  plasma-eval verify <file.epl>... [--schema FILE] [--min-servers N] [--max-servers N]
                    [--quanta N] [--thrash-window K] [--allow-uncompilable] [--json]
  plasma-eval list

`run` writes one BENCH_<scenario>.json per scenario (default: repo root)
and prints a human summary; `--backend live` carries the run on worker
threads and `--backend net` on plasma-server worker processes, both over
localhost TCP, instead of the simulated event loop (results must not
change either way). `all` names the application and chaos scenarios;
`figures` names the paper-figure scenarios (table1, table3, fig5 ... fig11,
ablations), which run only their paper config: sim, fixed seeds, full
scale, so `--seed`, another `--scale` or another `--backend` is an error.
`parity` runs each scenario under every backend listed in `--backends`
(default sim,live,net — the first is the reference) and exits 1 unless the
normalized serialized results are byte-identical (the `eval-engine`
scenario has no runtime and is skipped). `compare` diffs two result sets — each side a directory
holding BENCH_*.json files or a single file — and exits 1 when a gated
metric regresses past the threshold (default 0.10); with `current` omitted
it compares against the repo root. `verify` model-checks each policy
against an abstract cluster (oscillation, migration thrash, same-round
conflicts, vacuous rules) and exits 1 when any gating finding appears,
printing a round-by-round counterexample; without `--schema` the actor
schema is inferred from the policy text, and `--allow-uncompilable` skips
files that do not parse or bind instead of failing. `list` prints the
registry.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("plasma-eval: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The workspace root, used as the default output / current-results dir.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Loads results from a `BENCH_*.json` file or a directory of them.
fn load_results(path: &Path) -> Result<Vec<ScenarioResult>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let entries =
            fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for entry in entries.flatten() {
            let p = entry.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("no BENCH_*.json files in {}", path.display()));
        }
    } else if path.is_file() {
        files.push(path.to_path_buf());
    } else {
        return Err(format!("{} does not exist", path.display()));
    }
    let mut results = Vec::new();
    for f in files {
        let text =
            fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let r = ScenarioResult::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        results.push(r);
    }
    Ok(results)
}

fn is_figure(name: &str) -> bool {
    FIGURES.iter().any(|s| s.name == name)
}

/// Expands `all` and `figures`, validates every name, and returns the
/// vetted list.
fn resolve_names(names: Vec<String>) -> Result<Vec<String>, String> {
    let mut vetted = Vec::new();
    for name in names {
        match name.as_str() {
            "all" => vetted.extend(SCENARIOS.iter().map(|s| s.name.to_string())),
            "figures" => vetted.extend(FIGURES.iter().map(|s| s.name.to_string())),
            n if plasma_bench::eval::spec(n).is_some() || is_figure(n) => vetted.push(name.clone()),
            n => return Err(format!("unknown scenario `{n}` (try `plasma-eval list`)")),
        }
    }
    Ok(vetted)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut scale = EvalScale::Full;
    let mut seed: Option<u64> = None;
    let mut backend = BackendKind::Sim;
    let mut out_dir = repo_root();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(|s| EvalScale::parse(s)) {
                Some(Some(s)) => scale = s,
                _ => return fail("--scale expects `smoke`, `full` or `xl`"),
            },
            "--seed" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => seed = Some(s),
                None => return fail("--seed expects an integer"),
            },
            "--backend" => match it.next().map(|s| BackendKind::parse(s)) {
                Some(Some(b)) => backend = b,
                _ => return fail("--backend expects `sim`, `live`, or `net`"),
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return fail("--out expects a directory"),
            },
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag `{other}`"));
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        return fail("`run` expects `all`, `figures` or one or more scenario names");
    }
    let names = match resolve_names(names) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    if names.iter().any(|n| is_figure(n))
        && (scale != EvalScale::Full || seed.is_some() || backend != BackendKind::Sim)
    {
        return fail(
            "figure scenarios run only their paper config: no --seed, --scale full, --backend sim",
        );
    }
    if let Err(e) = fs::create_dir_all(&out_dir) {
        return fail(&format!("cannot create {}: {e}", out_dir.display()));
    }
    for name in &names {
        eprintln!(
            "[plasma-eval] running {name} (scale={}, backend={})...",
            scale.name(),
            backend.name()
        );
        let result = run_figure(name).unwrap_or_else(|| {
            run_scenario_on(name, scale, seed, backend).expect("scenario name vetted")
        });
        let path = out_dir.join(result.file_name());
        if let Err(e) = fs::write(&path, result.to_pretty_string()) {
            eprintln!("plasma-eval: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        print!("{}", render_summary(&result));
        println!("  -> {}", path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_parity(args: &[String]) -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    let mut scale = EvalScale::Smoke;
    let mut seed: Option<u64> = None;
    let mut backends = vec![BackendKind::Sim, BackendKind::Live, BackendKind::Net];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(|s| EvalScale::parse(s)) {
                Some(Some(s)) => scale = s,
                _ => return fail("--scale expects `smoke`, `full` or `xl`"),
            },
            "--seed" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => seed = Some(s),
                None => return fail("--seed expects an integer"),
            },
            "--backends" => {
                match it.next() {
                    Some(list) => {
                        let parsed: Option<Vec<BackendKind>> =
                            list.split(',').map(BackendKind::parse).collect();
                        match parsed {
                            Some(b) if b.len() >= 2 => backends = b,
                            _ => return fail(
                                "--backends expects two or more of sim,live,net (comma-separated)",
                            ),
                        }
                    }
                    None => return fail("--backends expects a comma-separated list"),
                }
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag `{other}`"));
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        return fail("`parity` expects `all` or one or more scenario names");
    }
    let names = match resolve_names(names) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    if names.iter().any(|n| is_figure(n)) {
        return fail("figure scenarios run on sim only; `parity` compares backends");
    }
    let mut divergences = 0usize;
    // First backend listed is the reference the others are diffed against.
    let reference = backends[0];
    for name in &names {
        if name == "eval-engine" {
            // No runtime, no carrier: nothing to compare.
            println!("  - {name:<16} skipped (no runtime)");
            continue;
        }
        let backend_names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
        eprintln!(
            "[plasma-eval] parity {name} (scale={}, backends={})...",
            scale.name(),
            backend_names.join(",")
        );
        let mut results = Vec::with_capacity(backends.len());
        for &b in &backends {
            let mut r = run_scenario_on(name, scale, seed, b).expect("name vetted");
            normalize_for_parity(&mut r);
            results.push(r);
        }
        let ref_text = results[0].to_pretty_string();
        let digest = results[0]
            .metric("decision_digest")
            .map(|m| m.value as u64)
            .unwrap_or(0);
        let mut diverged = false;
        for (i, r) in results.iter().enumerate().skip(1) {
            if r.to_pretty_string() != ref_text {
                diverged = true;
                println!(
                    "  ! {name:<16} DIVERGED ({} vs {})",
                    reference.name(),
                    backends[i].name()
                );
                for (metric, s) in &results[0].metrics {
                    let other = r.metric(metric).map(|m| m.value);
                    if other != Some(s.value) {
                        println!(
                            "      {metric}: {} {} vs {} {}",
                            reference.name(),
                            s.value,
                            backends[i].name(),
                            other.map(|v| v.to_string()).unwrap_or_else(|| "-".into())
                        );
                    }
                }
            }
        }
        if diverged {
            divergences += 1;
        } else {
            println!(
                "  = {name:<16} parity ok across {} ({} decisions, digest {digest:08x})",
                backend_names.join("/"),
                results[0]
                    .metric("decisions_total")
                    .map(|m| m.value)
                    .unwrap_or(0.0)
            );
        }
    }
    if divergences == 0 {
        println!("parity: all scenarios agree across backends");
        ExitCode::SUCCESS
    } else {
        println!("parity: {divergences} scenario(s) diverged");
        ExitCode::from(1)
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut opts = CompareOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => opts.threshold = t,
                _ => return fail("--threshold expects a non-negative number"),
            },
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag `{other}`"));
            }
            p => paths.push(PathBuf::from(p)),
        }
    }
    let (baseline_path, current_path) = match paths.len() {
        1 => (paths[0].clone(), repo_root()),
        2 => (paths[0].clone(), paths[1].clone()),
        _ => return fail("`compare` expects <baseline> [current]"),
    };
    let baseline = match load_results(&baseline_path) {
        Ok(r) => r,
        Err(e) => return fail(&format!("baseline: {e}")),
    };
    let current = match load_results(&current_path) {
        Ok(r) => r,
        Err(e) => return fail(&format!("current: {e}")),
    };
    let report = compare(&baseline, &current, opts);
    print!("{}", report.render(opts.threshold));
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Infers an actor schema from the policy text itself: every named type
/// the rules mention is declared, `in ref(owner.prop)` declares `prop` on
/// the owner's type, and `caller.call(callee.fname)` declares `fname` on
/// the callee's type. Good enough to compile standalone policies that ship
/// without their application (`--schema` overrides it).
fn infer_schema(policy: &plasma_epl::ast::Policy) -> plasma_epl::ActorSchema {
    use plasma_epl::ast::{AType, ActorRef, Caller, Cond, Feature};

    let mut schema = plasma_epl::ActorSchema::new();
    for rule in &policy.rules {
        // Variable declarations (`Session(s)`) can appear anywhere in the
        // rule; collect them first so `s.players` resolves.
        let mut vars: Vec<(&str, &AType)> = Vec::new();
        let mut refs: Vec<&ActorRef> = Vec::new();
        collect_cond_refs(&rule.cond, &mut refs);
        for b in &rule.behaviors {
            collect_behavior_refs(b, &mut refs);
        }
        for r in &refs {
            if let ActorRef::Decl(t, name) = r {
                vars.push((name.as_str(), t));
            }
        }
        let type_of = |r: &ActorRef| -> Option<AType> {
            match r {
                ActorRef::Decl(t, _) | ActorRef::Type(t) => Some(t.clone()),
                ActorRef::Var(v) => vars
                    .iter()
                    .find(|(name, _)| name == v)
                    .map(|(_, t)| (*t).clone()),
            }
        };
        let mut declare = |t: Option<AType>| {
            if let Some(AType::Named(name)) = t {
                schema.actor_type(&name);
            }
        };
        for r in &refs {
            declare(type_of(r));
        }
        for b in &rule.behaviors {
            if let plasma_epl::ast::Behavior::Balance { types, .. } = b {
                for t in types {
                    declare(Some(t.clone()));
                }
            }
        }
        // Second pass: members (props and funcs) hang off resolved types.
        visit_conds(&rule.cond, &mut |c: &Cond| match c {
            Cond::InRef { owner, prop, .. } => {
                if let Some(AType::Named(name)) = type_of(owner) {
                    schema.actor_type(&name).prop(prop);
                }
            }
            Cond::Compare {
                feat:
                    Feature::Call {
                        caller,
                        callee,
                        fname,
                    },
                ..
            } => {
                if let Some(AType::Named(name)) = type_of(callee) {
                    schema.actor_type(&name).func(fname);
                }
                if let Caller::Actor(a) = caller {
                    if let Some(AType::Named(name)) = type_of(a) {
                        schema.actor_type(&name);
                    }
                }
            }
            _ => {}
        });
    }
    schema
}

fn visit_conds(cond: &plasma_epl::ast::Cond, f: &mut impl FnMut(&plasma_epl::ast::Cond)) {
    use plasma_epl::ast::Cond;
    f(cond);
    if let Cond::And(a, b) | Cond::Or(a, b) = cond {
        visit_conds(a, f);
        visit_conds(b, f);
    }
}

fn collect_cond_refs<'a>(
    cond: &'a plasma_epl::ast::Cond,
    out: &mut Vec<&'a plasma_epl::ast::ActorRef>,
) {
    use plasma_epl::ast::{Caller, Cond, Feature};
    match cond {
        Cond::True => {}
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect_cond_refs(a, out);
            collect_cond_refs(b, out);
        }
        Cond::Compare { feat, .. } => match feat {
            Feature::ServerRes(_) => {}
            Feature::ActorRes(r, _) => out.push(r),
            Feature::Call { caller, callee, .. } => {
                out.push(callee);
                if let Caller::Actor(a) = caller {
                    out.push(a);
                }
            }
        },
        Cond::InRef { member, owner, .. } => {
            out.push(member);
            out.push(owner);
        }
    }
}

fn collect_behavior_refs<'a>(
    b: &'a plasma_epl::ast::Behavior,
    out: &mut Vec<&'a plasma_epl::ast::ActorRef>,
) {
    use plasma_epl::ast::Behavior;
    match b {
        Behavior::Balance { .. } => {}
        Behavior::Reserve { actor, .. } | Behavior::Pin(actor) => out.push(actor),
        Behavior::Colocate(a, b) | Behavior::Separate(a, b) => {
            out.push(a);
            out.push(b);
        }
    }
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut schema_path: Option<PathBuf> = None;
    let mut config = VerifyConfig::default();
    let mut allow_uncompilable = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => match it.next() {
                Some(p) => schema_path = Some(PathBuf::from(p)),
                None => return fail("--schema expects a file"),
            },
            "--min-servers" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.min_servers = n,
                _ => return fail("--min-servers expects a positive integer"),
            },
            "--max-servers" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.max_servers = n,
                _ => return fail("--max-servers expects a positive integer"),
            },
            "--quanta" => match it.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(n) if n >= 2 => config.quanta = n,
                _ => return fail("--quanta expects an integer ≥ 2"),
            },
            "--thrash-window" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.thrash_window = n,
                _ => return fail("--thrash-window expects a positive integer"),
            },
            "--allow-uncompilable" => allow_uncompilable = true,
            "--json" => json = true,
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag `{other}`"));
            }
            p => files.push(PathBuf::from(p)),
        }
    }
    if files.is_empty() {
        return fail("`verify` expects one or more .epl files");
    }
    if config.min_servers > config.max_servers {
        return fail("--min-servers must not exceed --max-servers");
    }
    let schema_override = match &schema_path {
        None => None,
        Some(p) => match fs::read_to_string(p) {
            Err(e) => return fail(&format!("cannot read {}: {e}", p.display())),
            Ok(text) => match plasma_epl::schema_text::parse_schema(&text) {
                Ok(s) => Some(s),
                Err(e) => return fail(&format!("{}: {e}", p.display())),
            },
        },
    };

    let mut gating = 0usize;
    let mut json_entries: Vec<String> = Vec::new();
    for file in &files {
        let display = file.display();
        let src = match fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => return fail(&format!("cannot read {display}: {e}")),
        };
        let parsed = plasma_epl::parser::parse_policy(&src);
        let compiled = parsed
            .map_err(plasma_epl::CompileError::Parse)
            .and_then(|ast| {
                let schema = schema_override
                    .clone()
                    .unwrap_or_else(|| infer_schema(&ast));
                plasma_epl::compile(&src, &schema)
            });
        let policy = match compiled {
            Ok(p) => p,
            Err(e) => {
                if allow_uncompilable {
                    if json {
                        json_entries.push(format!(
                            "  {{\"file\": {}, \"compiles\": false, \"error\": {}}}",
                            quote(&display.to_string()),
                            quote(&e.to_string())
                        ));
                    } else {
                        println!("{display}: skipped (does not compile: {e})");
                    }
                    continue;
                }
                return fail(&format!("{display}: {e}"));
            }
        };
        let verdict = verify(&policy, &config);
        if verdict.gating() {
            gating += 1;
        }
        if json {
            json_entries.push(render_verdict_json(&display.to_string(), &verdict));
        } else {
            if verdict.gating() {
                println!("{display}: FAIL");
            } else if verdict.findings.is_empty() {
                println!("{display}: ok ({} states)", verdict.states_explored);
            } else {
                println!(
                    "{display}: ok with notes ({} states)",
                    verdict.states_explored
                );
            }
            for finding in &verdict.findings {
                for line in finding.to_string().lines() {
                    println!("  {line}");
                }
            }
            for note in &verdict.notes {
                println!("  note: {note}");
            }
        }
    }
    if json {
        println!("[");
        println!("{}", json_entries.join(",\n"));
        println!("]");
    } else if gating > 0 {
        println!(
            "verify: {gating} of {} file(s) have gating findings",
            files.len()
        );
    } else {
        println!("verify: all {} file(s) pass", files.len());
    }
    if gating > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn render_verdict_json(file: &str, verdict: &Verdict) -> String {
    let findings: Vec<String> = verdict
        .findings
        .iter()
        .map(|f| {
            let severity = match f.severity {
                plasma_epl::error::Severity::Warning => "warning",
                plasma_epl::error::Severity::Note => "note",
            };
            let rules: Vec<String> = f.rules.iter().map(|r| r.to_string()).collect();
            let trace: Vec<String> = f
                .trace
                .iter()
                .map(|step| {
                    let (event, detail) = (quote(&step.event), quote(&step.detail));
                    format!(
                        "{{\"round\": {}, \"event\": {event}, \"detail\": {detail}}}",
                        step.round
                    )
                })
                .collect();
            format!(
                "{{\"property\": \"{}\", \"severity\": \"{severity}\", \"gating\": {}, \
                 \"rules\": [{}], \"message\": {}, \"trace\": [{}]}}",
                f.property.name(),
                f.gating(),
                rules.join(", "),
                quote(&f.message),
                trace.join(", ")
            )
        })
        .collect();
    format!(
        "  {{\"file\": {}, \"compiles\": true, \"gating\": {}, \
         \"states_explored\": {}, \"findings\": [{}]}}",
        quote(file),
        verdict.gating(),
        verdict.states_explored,
        findings.join(", ")
    )
}

fn cmd_list() -> ExitCode {
    for (heading, specs) in [
        ("scenarios (`all`, in run order):", SCENARIOS),
        ("paper figures (`figures`, sim only, full scale):", FIGURES),
    ] {
        println!("{heading}");
        for s in specs {
            println!("  {:<16} §{:<4} {}", s.name, s.paper_section, s.summary);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("parity") => cmd_parity(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("list") => cmd_list(),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown subcommand `{other}`")),
        None => fail("missing subcommand"),
    }
}
