//! Every `*.md` path that a Rust source under `crates/`, `examples/` or
//! `tests/` cites must exist, relative to the repository root: a comment
//! that sends the reader to a missing document points nowhere.

use std::fs;
use std::path::{Path, PathBuf};

/// Appends the Rust sources under `dir`, recursively, skipping build
/// output.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `*.md` paths cited on `line`: each maximal run of path characters
/// (ASCII alphanumerics and `_ . / -`) that ends in a named `.md` file,
/// once a sentence-ending period is dropped.
fn cited_docs(line: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-');
    let mut docs = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        if is_path(c) {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            let token = line[s..i].trim_end_matches('.');
            if token.len() > ".md".len() && token.ends_with(".md") {
                docs.push(token);
            }
        }
    }
    docs
}

#[test]
fn cited_markdown_files_exist() {
    assert_eq!(
        cited_docs("see DESIGN.md's index, or `crates/bench/README.md`."),
        ["DESIGN.md", "crates/bench/README.md"]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the test crate sits in the repository root");
    let mut sources = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let (mut cited, mut missing) = (0, Vec::new());
    for file in &sources {
        let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for (n, line) in text.lines().enumerate() {
            for doc in cited_docs(line) {
                cited += 1;
                if !root.join(doc).is_file() {
                    let file = file.strip_prefix(root).unwrap_or(file);
                    missing.push(format!("{}:{}: {doc}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        sources.len() > 100 && cited > 10,
        "scan found {} sources citing {cited} documents",
        sources.len()
    );
    assert!(
        missing.is_empty(),
        "cited documents missing from the repository root:\n{}",
        missing.join("\n")
    );
}
