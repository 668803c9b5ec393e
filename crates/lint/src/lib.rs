//! `wft-lint` — the workspace concurrency-audit pass.
//!
//! The wait-free helping protocol at the heart of this workspace rests
//! on invariants the compiler cannot check: which thread may retire a
//! state record, why an `Acquire` load pairs with which `Release` store,
//! which crates must never block. This crate makes those arguments
//! machine-enforced:
//!
//! * [`scan`] implements the rules over a hand-rolled lexer ([`lexer`])
//!   — no `syn`, matching the workspace's vendored-shim philosophy;
//! * [`config`] reads the checked-in `lint.toml` forbidden-API policy;
//! * [`report`] renders the generated `ANALYSIS.md` inventory so the
//!   concurrency surface (every unsafe site, every non-Relaxed atomic,
//!   every waiver) is diffable per PR;
//! * [`run`] wires it together over a workspace root; the `wft-lint`
//!   binary exits nonzero on any violation, which is what CI gates on.
//!
//! Every rule has one escape hatch, the waiver comment
//! `// wft-lint: allow(<rule>) -- <reason>`, so every exception is a
//! documented decision that shows up in `ANALYSIS.md`.

pub mod config;
pub mod lexer;
pub mod report;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use scan::{Site, Violation, Waiver};

/// The complete result of auditing a workspace.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every rule violation, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Compliant unsafe sites (the SAFETY inventory).
    pub unsafe_sites: Vec<Site>,
    /// Compliant non-Relaxed ordering sites (the ORDERING inventory).
    pub ordering_sites: Vec<Site>,
    /// Every waiver in force.
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The source files the audit covers: every `crates/*/src/**/*.rs` plus
/// the umbrella crate's `src/`. Vendored shims (`vendor/`), integration
/// tests (`tests/`), benches and examples are out of scope — the rules
/// guard the production concurrency surface.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        collect_rs(&umbrella, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative, `/`-separated form of `path` used in
/// diagnostics and `lint.toml` matching.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate a workspace-relative path belongs to (for the crate-scoped
/// metrics-liveness rule): `crates/store/src/api.rs` → `store`, the
/// umbrella `src/lib.rs` → `.`.
fn crate_of(rel: &str) -> String {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest).to_owned(),
        None => ".".to_owned(),
    }
}

/// Audits the workspace rooted at `root` under the policy in `cfg`.
pub fn run(root: &Path, cfg: &Config) -> std::io::Result<Outcome> {
    let files = workspace_sources(root)?;
    let mut outcome = Outcome {
        files_scanned: files.len(),
        ..Outcome::default()
    };

    // Per-crate state for the metrics-liveness rule: all comment-stripped
    // code lines, and every reported sample.
    let mut crate_code: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut crate_metrics: BTreeMap<String, Vec<scan::ReportedMetric>> = BTreeMap::new();

    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let lexed = lexer::lex(&src);
        let rel = rel_path(root, path);
        let rep = scan::scan_file(&rel, &lexed, cfg);
        outcome.violations.extend(rep.violations);
        outcome.unsafe_sites.extend(rep.unsafe_sites);
        outcome.ordering_sites.extend(rep.ordering_sites);
        outcome.waivers.extend(rep.waivers);

        let krate = crate_of(&rel);
        crate_metrics
            .entry(krate.clone())
            .or_default()
            .extend(scan::reported_metrics(&rel, &lexed));
        crate_code.entry(krate).or_default().extend(lexed.code);
    }

    // Rule 4: every reported sample must be computed live or backed by
    // state the crate mutates somewhere.
    for (krate, metrics) in &crate_metrics {
        let code = &crate_code[krate];
        for m in metrics {
            if m.waived {
                continue;
            }
            let computed = !m.called.is_empty();
            let bumped = m.idents.iter().any(|i| scan::crate_bumps_ident(code, i));
            if !computed && !bumped {
                outcome.violations.push(Violation {
                    path: m.path.clone(),
                    line: m.line,
                    rule: "metrics-liveness",
                    message: format!(
                        "metric `{}` is reported by this MetricsSource but nothing in \
                         crate `{krate}` ever bumps its backing state — dead telemetry",
                        m.name
                    ),
                });
            }
        }
    }

    let sort_key = |p: &str, l: usize| (p.to_owned(), l);
    outcome
        .violations
        .sort_by_key(|v| sort_key(&v.path, v.line));
    outcome
        .unsafe_sites
        .sort_by_key(|s| sort_key(&s.path, s.line));
    outcome
        .ordering_sites
        .sort_by_key(|s| sort_key(&s.path, s.line));
    outcome.waivers.sort_by_key(|w| sort_key(&w.path, w.line));
    Ok(outcome)
}

/// Loads `lint.toml` from the workspace root (an empty policy if the
/// file is absent — rules 1, 2 and 4 still apply).
///
/// A `[[forbidden]]` path that is a prefix of no scanned source file is a
/// config error: the rule would silently cover nothing (say, after the
/// file it names was deleted or its code moved).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let cfg = match std::fs::read_to_string(&path) {
        Ok(src) => config::parse(&src)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Config::default()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let sources: Vec<String> = workspace_sources(root)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?
        .iter()
        .map(|source| rel_path(root, source))
        .collect();
    for rule in &cfg.forbidden {
        for prefix in &rule.paths {
            if !sources.iter().any(|s| s.starts_with(prefix.as_str())) {
                return Err(format!(
                    "{}: rule `{}` names path `{prefix}`, which matches no scanned source file",
                    path.display(),
                    rule.name
                ));
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/store/src/api.rs"), "store");
        assert_eq!(crate_of("src/lib.rs"), ".");
    }
}
