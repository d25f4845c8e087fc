//! Documentation-drift tests: the docs are part of the contract, so CI
//! fails when they fall out of sync with the code.
//!
//! Three checks, all offline and dependency-free:
//!
//! 1. every flag `dswpc --help` prints is documented in `README.md`;
//! 2. the README exit-code table matches the `RtError` → exit-code
//!    mapping in `src/bin/dswpc.rs` (parsed from the source, so adding a
//!    variant without updating the table — or this test's description
//!    map — fails);
//! 3. every relative markdown link and every `tests/fixtures/*.ir`
//!    reference in the top-level documents resolves to a real file.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root (this integration test belongs to the root crate).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Extracts every `--flag` token (lowercase letters and dashes) from text.
fn extract_flags(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut flags = BTreeSet::new();
    let mut i = 0;
    while i + 2 < bytes.len() {
        if &bytes[i..i + 2] == b"--" && bytes[i + 2].is_ascii_lowercase() {
            let mut j = i + 2;
            while j < bytes.len() && (bytes[j].is_ascii_lowercase() || bytes[j] == b'-') {
                j += 1;
            }
            flags.insert(text[i..j].to_string());
            i = j;
        } else {
            i += 1;
        }
    }
    flags
}

#[test]
fn every_help_flag_is_documented_in_readme() {
    let out = Command::new(env!("CARGO_BIN_EXE_dswpc"))
        .arg("--help")
        .output()
        .expect("run dswpc --help");
    assert!(out.status.success(), "dswpc --help must exit 0");
    let help = String::from_utf8(out.stdout).expect("help output is UTF-8");
    assert!(help.starts_with("usage:"), "help prints the usage synopsis");

    let help_flags = extract_flags(&help);
    assert!(
        help_flags.len() >= 15,
        "flag extraction looks broken: only {help_flags:?}"
    );
    let readme = read("README.md");
    let readme_flags = extract_flags(&readme);
    let missing: Vec<&String> = help_flags.difference(&readme_flags).collect();
    assert!(
        missing.is_empty(),
        "flags in `dswpc --help` but not documented in README.md: {missing:?}"
    );
}

#[test]
fn readme_exit_code_table_matches_driver() {
    // Human-readable meaning of each RtError variant, as the README table
    // words it. Kept here (not derived from the variant name) so wording
    // drift is caught too.
    let meanings = [
        ("Deadlock", "deadlock"),
        ("Watchdog", "watchdog"),
        ("StagePanic", "stage panic"),
        ("QueuePoisoned", "queue poisoned"),
        ("Timeout", "deadline timeout"),
        ("Cancelled", "cancelled"),
        ("QueueShared", "queue shared"),
        ("MemoryOutOfBounds", "memory out of bounds"),
        ("BadIndirectTarget", "bad indirect call target"),
        ("StepLimit", "step limit exceeded"),
        ("ReturnFromEntry", "return from entry function"),
    ];

    // Parse the `RtError::Variant { .. } => code,` arms out of the driver
    // source. Deliberately narrow: only lines inside `fn rt_exit_code`.
    let src = read("src/bin/dswpc.rs");
    let body = src
        .split("fn rt_exit_code")
        .nth(1)
        .expect("src/bin/dswpc.rs defines rt_exit_code");
    let mut mapping: Vec<(&str, u8)> = Vec::new();
    for line in body.lines() {
        // The match patterns themselves contain `{ .. }`, so the body
        // ends at the first line that is nothing but a closing brace.
        if line.trim() == "}" {
            break;
        }
        let Some(rest) = line.trim().strip_prefix("RtError::") else {
            continue;
        };
        let variant = rest
            .split(|c: char| !c.is_ascii_alphanumeric())
            .next()
            .unwrap();
        let code: u8 = rest
            .split("=>")
            .nth(1)
            .unwrap_or_else(|| panic!("malformed arm: {line}"))
            .trim()
            .trim_end_matches(',')
            .parse()
            .unwrap_or_else(|e| panic!("bad exit code in arm `{line}`: {e}"));
        mapping.push((variant, code));
    }
    assert_eq!(
        mapping.len(),
        meanings.len(),
        "rt_exit_code arms {mapping:?} vs known meanings — update both this \
         test and the README table when RtError changes"
    );

    let readme = read("README.md");
    for (variant, code) in mapping {
        let meaning = meanings
            .iter()
            .find(|(v, _)| *v == variant)
            .unwrap_or_else(|| panic!("no README wording registered for RtError::{variant}"))
            .1;
        let cell = format!("| {code} |");
        let row = readme
            .lines()
            .find(|l| l.contains(&cell))
            .unwrap_or_else(|| panic!("README exit-code table has no row for code {code}"));
        assert!(
            row.to_lowercase().contains(meaning),
            "README row for exit code {code} should say \"{meaning}\" \
             (RtError::{variant}); got: {row}"
        );
    }
}

/// Collects `](target)` link targets from markdown text.
fn extract_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("](") {
        rest = &rest[pos + 2..];
        if let Some(end) = rest.find(')') {
            links.push(rest[..end].to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    links
}

/// Collects `tests/fixtures/...` path references from anywhere in the
/// text, including code blocks and shell transcripts.
fn extract_fixture_refs(text: &str) -> BTreeSet<String> {
    let mut refs = BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find("tests/fixtures/") {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || "/._-".contains(c)))
            .unwrap_or(tail.len());
        let path = tail[..end].trim_end_matches('.');
        // Only concrete file references; globs like `*.ir` in prose and
        // the bare directory name are not checkable paths.
        if path.ends_with(".ir") {
            refs.insert(path.to_string());
        }
        rest = &rest[pos + 1..];
    }
    refs
}

#[test]
fn markdown_links_and_fixture_refs_resolve() {
    let docs = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ARCHITECTURE.md",
    ];
    let root = repo_root();
    let mut broken: Vec<String> = Vec::new();
    for doc in docs {
        let text = read(doc);
        for link in extract_links(&text) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
                || link.starts_with('#')
            {
                continue;
            }
            // Relative links are written repo-root-relative (all four
            // documents live at the root); drop any #fragment.
            let target = link.split('#').next().unwrap();
            if target.is_empty() {
                continue;
            }
            if !root.join(target).exists() {
                broken.push(format!("{doc}: broken link `{link}`"));
            }
        }
        for fixture in extract_fixture_refs(&text) {
            if !root.join(&fixture).exists() {
                broken.push(format!("{doc}: missing fixture `{fixture}`"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "dangling references:\n{}",
        broken.join("\n")
    );
    // Guard against the checker silently checking nothing.
    assert!(
        extract_links(&read("ARCHITECTURE.md"))
            .iter()
            .any(|l| Path::new(l).extension().is_some()),
        "ARCHITECTURE.md should contain relative file links"
    );
}
