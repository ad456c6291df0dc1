//! `ldp-lint`: the repo's first-party static-analysis pass.
//!
//! Three analyses, all dependency-free text passes, all gating CI:
//!
//! 1. **spec↔code drift** ([`spec`]) — the tag registry, wire version,
//!    and `StreamHeader` layout in `docs/WIRE_FORMAT.md` must agree
//!    with the constants and `put_*`/`get_*` call sequences in
//!    `crates/core/src/wire.rs` and `frame.rs`;
//! 2. **panic paths** ([`panics`]) — non-test source on the collector
//!    hot path (`crates/server`, the wire/frame decoders,
//!    `ldp_oracles::pipeline`, `ldp-cli serve`) must not contain
//!    `unwrap`/`expect`/`panic!`/`unreachable!` or direct slice
//!    indexing, except where the committed allowlist explains why;
//! 3. **lossy casts** ([`casts`]) — `as u16`/`as u32`/`as usize`
//!    narrowing on wire-length/index-flavoured expressions is denied,
//!    the exact bug class a corrupt length prefix exploits.
//!
//! Why text passes and not a compiler plugin: the build environment is
//! offline, so the linter must be dependency-free, and the properties
//! checked are lexical (call names, constant declarations, table rows)
//! — a [`source::mask`] pass that blanks comments, strings, and
//! `#[cfg(test)]` modules makes lexical matching reliable enough to
//! gate CI without false positives. Suppressions live in
//! `crates/xtask/lint_allowlist.txt` ([`allowlist`]); entries match by
//! content, not line number, and a stale entry is itself an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod casts;
pub mod panics;
pub mod source;
pub mod spec;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Which analysis produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `docs/WIRE_FORMAT.md` and the wire/frame code disagree.
    SpecDrift,
    /// A panicking construct (`unwrap`, `expect`, `panic!`,
    /// `unreachable!`) on the hot path.
    Panic,
    /// Direct slice indexing (`x[i]`, `x[a..b]`) on the hot path.
    Index,
    /// A narrowing cast on a length/index-flavoured expression.
    Cast,
    /// An allowlist entry that no longer matches any real site.
    StaleAllow,
    /// A file the lint is contractually required to scan is missing or
    /// unreadable (a rename must update the linter, not evade it).
    Io,
}

impl Kind {
    /// The stable name used in diagnostics and allowlist entries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecDrift => "spec-drift",
            Kind::Panic => "panic",
            Kind::Index => "index",
            Kind::Cast => "cast",
            Kind::StaleAllow => "stale-allowlist",
            Kind::Io => "io",
        }
    }
}

/// One finding, pointable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number (1 when the finding is about a whole file).
    pub line: usize,
    /// The analysis that fired.
    pub kind: Kind,
    /// Human explanation.
    pub message: String,
    /// The trimmed offending source line (empty for file-level
    /// findings); this is what allowlist entries match against.
    pub text: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.kind.name(),
            self.message
        )?;
        if !self.text.is_empty() {
            write!(f, "\n    {}", self.text)?;
        }
        Ok(())
    }
}

/// The files the panic/cast analyses are contractually required to
/// scan, beyond every `.rs` file under `crates/server/src`. Each must
/// exist: a missing entry is an [`Kind::Io`] diagnostic, so renaming a
/// hot-path file forces a linter update instead of silently shrinking
/// coverage.
pub const REQUIRED_FILES: [&str; 7] = [
    "crates/core/src/wire.rs",
    "crates/core/src/frame.rs",
    "crates/core/src/tally.rs",
    "crates/core/src/unary_tally.rs",
    "crates/oracles/src/pipeline.rs",
    "crates/cli/src/serve.rs",
    "crates/cli/src/load.rs",
];

/// Directory trees whose every `.rs` file joins the scan set.
pub const REQUIRED_TREES: [&str; 1] = ["crates/server/src"];

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Resolve the scan set under `root`, reporting missing required
/// files/trees as diagnostics.
fn hot_path_files(root: &Path, diags: &mut Vec<Diagnostic>) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for rel in REQUIRED_FILES {
        let path = root.join(rel);
        if path.is_file() {
            files.push(path);
        } else {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: 1,
                kind: Kind::Io,
                message: format!(
                    "required scan target {rel} is missing; if it moved, update xtask::REQUIRED_FILES"
                ),
                text: String::new(),
            });
        }
    }
    for rel in REQUIRED_TREES {
        let dir = root.join(rel);
        if dir.is_dir() {
            collect_rs(&dir, &mut files);
        } else {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: 1,
                kind: Kind::Io,
                message: format!(
                    "required scan tree {rel} is missing; if it moved, update xtask::REQUIRED_TREES"
                ),
                text: String::new(),
            });
        }
    }
    files.sort();
    files.dedup();
    files
}

/// Run every analysis over the repo at `root` and return the surviving
/// diagnostics (empty means the tree is clean).
#[must_use]
pub fn run_lint(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    spec::check(root, &mut diags);

    let files = hot_path_files(root, &mut diags);
    let mut violations = Vec::new();
    for path in files {
        let rel = rel_of(root, &path);
        match fs::read_to_string(&path) {
            Ok(src) => {
                let masked = source::mask_cfg_test(&source::mask(&src));
                panics::scan(&rel, &src, &masked, &mut violations);
                casts::scan(&rel, &src, &masked, &mut violations);
            }
            Err(e) => diags.push(Diagnostic {
                file: rel,
                line: 1,
                kind: Kind::Io,
                message: format!("unreadable scan target: {e}"),
                text: String::new(),
            }),
        }
    }

    let entries = allowlist::load(root, &mut diags);
    allowlist::apply(&entries, violations, &mut diags);

    diags.sort_by(|a, b| (&a.file, a.line, a.kind).cmp(&(&b.file, b.line, b.kind)));
    diags
}
