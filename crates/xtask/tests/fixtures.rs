//! Fixture-tree tests: prove `ldp-lint` catches each defect class it
//! exists for — spec drift, a hot-path panic, a narrowing cast, a
//! stale allowlist entry — with a pointable file:line diagnostic, and
//! stays green on a clean tree (including the real repository, which
//! makes `cargo test` itself a lint gate).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xtask::{run_lint, Kind};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A throwaway fixture tree, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

impl Fixture {
    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents")).expect("mkdir");
        fs::write(path, content).expect("write fixture file");
    }
}

const DOC: &str = "\
# fixture wire spec

<!-- ldp-lint:wire-version=1 -->

<!-- ldp-lint:tag-registry:begin -->

| Tag | Constant | Meaning |
|---|---|---|
| `0x01` | `INP_RR` | mechanism state |
| `0x40` | `STREAM_HEADER` | stream header |

<!-- ldp-lint:tag-registry:end -->

<!-- ldp-lint:stream-header:begin total=7 -->

```text
offset  size  field
0       1     tag = 0x40
1       1     version = 1
2       1     protocol
3       4     d
```

<!-- ldp-lint:stream-header:end -->
";

const WIRE: &str = "\
//! fixture wire module
pub mod tag {
    pub const INP_RR: u8 = 0x01;
    pub const STREAM_HEADER: u8 = 0x40;
}
pub const VERSION: u8 = 1;

pub fn decode(b: &[u8]) -> Option<u8> {
    b.first().copied()
}
";

const FRAME: &str = "\
//! fixture frame module
impl StreamHeader {
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_tag(tag::STREAM_HEADER);
        w.put_u8(self.protocol);
        w.put_u32(self.d);
        w.into_bytes()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::with_tag(bytes, tag::STREAM_HEADER)?;
        let protocol = r.get_u8()?;
        let d = r.get_u32()?;
        Ok(StreamHeader { protocol, d })
    }
}
";

const CLEAN_RS: &str = "\
//! fixture hot-path module
pub fn absorb(b: &[u8]) -> Option<u8> {
    b.first().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_can_unwrap() {
        super::absorb(&[1]).unwrap();
    }
}
";

/// Build a complete clean tree (every file the linter contractually
/// scans exists), so single-file perturbations isolate one finding.
fn clean_fixture() -> Fixture {
    let root = std::env::temp_dir().join(format!(
        "ldp-lint-fixture-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let fixture = Fixture { root };
    fixture.write("docs/WIRE_FORMAT.md", DOC);
    fixture.write("crates/core/src/wire.rs", WIRE);
    fixture.write("crates/core/src/frame.rs", FRAME);
    fixture.write("crates/core/src/tally.rs", CLEAN_RS);
    fixture.write("crates/core/src/unary_tally.rs", CLEAN_RS);
    fixture.write("crates/oracles/src/pipeline.rs", CLEAN_RS);
    fixture.write("crates/cli/src/serve.rs", CLEAN_RS);
    fixture.write("crates/cli/src/load.rs", CLEAN_RS);
    fixture.write("crates/server/src/lib.rs", CLEAN_RS);
    fixture
}

fn line_of(content: &str, needle: &str) -> usize {
    content
        .lines()
        .position(|l| l.contains(needle))
        .map_or_else(|| panic!("fixture should contain {needle:?}"), |i| i + 1)
}

#[test]
fn clean_fixture_tree_is_green() {
    let f = clean_fixture();
    let diags = run_lint(&f.root);
    assert!(diags.is_empty(), "expected clean, got: {diags:#?}");
}

#[test]
fn drifted_tag_value_fails_at_the_registry_row() {
    let f = clean_fixture();
    // Renumber INP_RR in the code only: the spec now lies.
    f.write(
        "crates/core/src/wire.rs",
        &WIRE.replace("INP_RR: u8 = 0x01", "INP_RR: u8 = 0x09"),
    );
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    let d = &diags[0];
    assert_eq!(d.kind, Kind::SpecDrift);
    assert_eq!(d.file, "docs/WIRE_FORMAT.md");
    assert_eq!(d.line, line_of(DOC, "| `0x01` | `INP_RR` |"));
    assert!(d.message.contains("INP_RR") && d.message.contains("0x09"));
}

#[test]
fn tag_missing_from_the_spec_fails_at_the_const() {
    let f = clean_fixture();
    let wire = WIRE.replace(
        "pub const VERSION",
        "pub mod more {\n    pub const RESP_NEW: u8 = 0x5E;\n}\npub const VERSION",
    );
    f.write("crates/core/src/wire.rs", &wire);
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    let d = &diags[0];
    assert_eq!(d.kind, Kind::SpecDrift);
    assert_eq!(d.file, "crates/core/src/wire.rs");
    assert_eq!(d.line, line_of(&wire, "RESP_NEW"));
    assert!(d.message.contains("RESP_NEW"));
}

#[test]
fn wire_version_bump_without_the_spec_fails() {
    let f = clean_fixture();
    f.write(
        "crates/core/src/wire.rs",
        &WIRE.replace("VERSION: u8 = 1", "VERSION: u8 = 2"),
    );
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    assert_eq!(diags[0].kind, Kind::SpecDrift);
    assert_eq!(diags[0].file, "docs/WIRE_FORMAT.md");
    assert_eq!(diags[0].line, line_of(DOC, "wire-version=1"));
}

#[test]
fn header_field_reorder_fails_spec_and_decoder() {
    let f = clean_fixture();
    // Swap the two payload fields in the encoder only: both the spec
    // rows and the decoder now disagree with to_bytes.
    let frame = FRAME.replace(
        "w.put_u8(self.protocol);\n        w.put_u32(self.d);",
        "w.put_u32(self.d);\n        w.put_u8(self.protocol);",
    );
    f.write("crates/core/src/frame.rs", &frame);
    let diags = run_lint(&f.root);
    assert!(
        diags.iter().any(|d| d.kind == Kind::SpecDrift
            && d.file == "crates/core/src/frame.rs"
            && d.message.contains("decoder reads")),
        "expected an encoder/decoder symmetry finding, got: {diags:#?}"
    );
    assert!(
        diags.iter().any(|d| d.kind == Kind::SpecDrift
            && d.file == "docs/WIRE_FORMAT.md"
            && d.line == line_of(DOC, "2       1     protocol")),
        "expected a spec-row finding at the protocol row, got: {diags:#?}"
    );
}

#[test]
fn injected_hot_path_unwrap_fails_at_file_and_line() {
    let f = clean_fixture();
    let src = CLEAN_RS.replace(
        "b.first().copied()",
        "let v = b.first().copied().unwrap();\n    Some(v)",
    );
    f.write("crates/server/src/lib.rs", &src);
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    let d = &diags[0];
    assert_eq!(d.kind, Kind::Panic);
    assert_eq!(d.file, "crates/server/src/lib.rs");
    assert_eq!(d.line, line_of(&src, ".unwrap()"));
    assert!(d.text.contains(".unwrap()"));
}

#[test]
fn injected_direct_indexing_fails() {
    let f = clean_fixture();
    let src = CLEAN_RS.replace("b.first().copied()", "Some(b[0])");
    f.write("crates/oracles/src/pipeline.rs", &src);
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    assert_eq!(diags[0].kind, Kind::Index);
    assert_eq!(diags[0].file, "crates/oracles/src/pipeline.rs");
    assert_eq!(diags[0].line, line_of(&src, "b[0]"));
}

#[test]
fn injected_narrowing_cast_fails_at_file_and_line() {
    let f = clean_fixture();
    let src = CLEAN_RS.replace(
        "b.first().copied()",
        "let len = b.len() as u32;\n    b.first().copied().map(|v| v.min(len as u8))",
    );
    f.write("crates/cli/src/serve.rs", &src);
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    let d = &diags[0];
    assert_eq!(d.kind, Kind::Cast);
    assert_eq!(d.file, "crates/cli/src/serve.rs");
    assert_eq!(d.line, line_of(&src, "as u32"));
}

#[test]
fn allowlist_suppresses_and_goes_stale() {
    let f = clean_fixture();
    let src = CLEAN_RS.replace("b.first().copied()", "Some(b[0])");
    f.write("crates/server/src/lib.rs", &src);
    f.write(
        "crates/xtask/lint_allowlist.txt",
        "# fixture\ncrates/server/src/lib.rs :: index :: Some(b[0])\n",
    );
    assert!(
        run_lint(&f.root).is_empty(),
        "entry should suppress the finding"
    );

    // Fix the site; the entry must now fail as stale, at its own line.
    f.write("crates/server/src/lib.rs", CLEAN_RS);
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    assert_eq!(diags[0].kind, Kind::StaleAllow);
    assert_eq!(diags[0].file, "crates/xtask/lint_allowlist.txt");
    assert_eq!(diags[0].line, 2);
}

#[test]
fn missing_required_scan_target_fails() {
    let f = clean_fixture();
    fs::remove_file(f.root.join("crates/cli/src/serve.rs")).expect("remove fixture file");
    let diags = run_lint(&f.root);
    assert_eq!(diags.len(), 1, "got: {diags:#?}");
    assert_eq!(diags[0].kind, Kind::Io);
    assert_eq!(diags[0].file, "crates/cli/src/serve.rs");
}

/// The real repository must be lint-clean: this makes plain
/// `cargo test` a lint gate even before CI's dedicated job runs.
#[test]
fn real_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root");
    let diags = run_lint(root);
    assert!(
        diags.is_empty(),
        "the working tree has lint findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
