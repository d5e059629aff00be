//! `plasma-eval verify --json` emits one parseable object per policy file.

use std::process::Command;

use plasma_trace::json::{self, Value};

#[test]
fn verify_json_reports_gating_findings_and_compile_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_plasma-eval"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args([
            "verify",
            "--json",
            "--allow-uncompilable",
            "suite/policies/oscillating.epl",
            "fuzz/corpus/epl_compile/parse_garbage.epl",
        ])
        .output()
        .expect("plasma-eval runs");
    assert_eq!(out.status.code(), Some(1), "a gating finding exits 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let report = json::parse(&stdout).unwrap_or_else(|e| panic!("{e}:\n{stdout}"));
    let [oscillating, garbage] = report.as_array().expect("one entry per file") else {
        panic!("expected two entries:\n{stdout}");
    };

    assert_eq!(oscillating.get("compiles"), Some(&Value::Bool(true)));
    assert_eq!(oscillating.get("gating"), Some(&Value::Bool(true)));
    let findings = oscillating
        .get("findings")
        .and_then(Value::as_array)
        .unwrap();
    assert!(findings.iter().any(|f| {
        f.get("trace")
            .and_then(Value::as_array)
            .is_some_and(|steps| !steps.is_empty())
    }));

    assert_eq!(garbage.get("compiles"), Some(&Value::Bool(false)));
    let error = garbage.get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("parse error"), "{error}");
}
