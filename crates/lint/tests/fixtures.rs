//! Self-tests over the checked-in fixture workspaces in
//! `tests/fixtures/`: the broken fixture must trip every rule (and make
//! the binary exit nonzero), the clean fixture must pass with its
//! waivers inventoried, and the stale-path fixture's policy, which names a
//! file that does not exist, must be rejected as a config error.

use std::path::PathBuf;
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(name: &str) -> wft_lint::Outcome {
    let root = fixture_root(name);
    let cfg = wft_lint::load_config(&root).expect("fixture lint.toml parses");
    wft_lint::run(&root, &cfg).expect("fixture tree scans")
}

#[test]
fn broken_fixture_trips_every_rule() {
    let outcome = audit("broken");
    assert!(!outcome.clean());
    let rules: Vec<&str> = outcome.violations.iter().map(|v| v.rule).collect();
    for expected in [
        "undocumented-unsafe",
        "undocumented-ordering",
        "seqcst",
        "forbidden-api",
        "metrics-liveness",
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} did not fire on the broken fixture; fired: {rules:?}"
        );
    }
    for v in &outcome.violations {
        assert_eq!(v.path, "crates/bad/src/lib.rs");
    }
}

#[test]
fn broken_fixture_decoys_do_not_add_violations() {
    // One violation per seeded defect and none from the string/comment
    // decoys: unsafe, Acquire, SeqCst, sleep, dead metric.
    let outcome = audit("broken");
    assert_eq!(
        outcome.violations.len(),
        5,
        "unexpected violation set: {:#?}",
        outcome.violations
    );
}

#[test]
fn clean_fixture_passes_with_waivers_inventoried() {
    let outcome = audit("clean");
    assert!(
        outcome.clean(),
        "clean fixture must audit clean: {:#?}",
        outcome.violations
    );
    // Both escape hatches show up in the waiver inventory.
    let rules: Vec<&str> = outcome.waivers.iter().map(|w| w.rule.as_str()).collect();
    assert!(rules.contains(&"seqcst"));
    assert!(rules.contains(&"forbidden-api"));
    // The compliant sites are inventoried (two unsafe derefs, the
    // Acquire/Release/SeqCst lines).
    assert_eq!(outcome.unsafe_sites.len(), 2);
    assert!(outcome.ordering_sites.len() >= 3);
}

#[test]
fn unmatched_rule_path_is_a_config_error() {
    let root = fixture_root("stale-path");
    let err = wft_lint::load_config(&root).expect_err("a path naming no file must be rejected");
    assert!(
        err.contains("crates/gone/src/tree.rs") && err.contains("no-wall-clock"),
        "the error names the rule and the stale path: {err}"
    );
    let bin = env!("CARGO_BIN_EXE_wft-lint");
    let status = Command::new(bin)
        .args(["--check", "--root"])
        .arg(&root)
        .status()
        .expect("wft-lint runs");
    assert_eq!(status.code(), Some(2), "a config error exits with status 2");
}

#[test]
fn binary_exits_nonzero_on_broken_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_wft-lint");
    let broken = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture_root("broken"))
        .output()
        .expect("wft-lint runs");
    assert!(
        !broken.status.success(),
        "wft-lint must exit nonzero on the broken fixture"
    );
    let clean = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture_root("clean"))
        .output()
        .expect("wft-lint runs");
    assert!(
        clean.status.success(),
        "wft-lint must exit zero on the clean fixture: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
}
