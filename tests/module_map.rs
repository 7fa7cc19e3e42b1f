//! DESIGN.md's crate/module map names every source file, and only files
//! that exist.
//!
//! Each row of the map's code block names a directory, `crates/<name>`
//! (meaning its `src/`), `examples/` or `tests/`, then its `.rs` files
//! relative to it; `dir/{a.rs,b.rs}` groups a subdirectory, a crate's
//! root `lib.rs` is left out, and anything from a `(` on is a note.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The map's rows: each directory with the files it lists.
fn map_rows() -> Vec<(String, BTreeSet<String>)> {
    let design = fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).unwrap();
    let section = design.split("## Crate/module map").nth(1).expect("DESIGN.md has a module map");
    let block = section.split("```").nth(1).expect("the map is a code block");
    block
        .lines()
        .filter_map(|line| {
            let mut words = line.split('(').next().unwrap_or("").split_whitespace();
            let dir = words.next()?.trim_end_matches('/').to_string();
            Some((dir, words.flat_map(expand).collect()))
        })
        .collect()
}

/// `arp/{cache.rs,policy.rs}` → `arp/cache.rs`, `arp/policy.rs`.
fn expand(word: &str) -> Vec<String> {
    match word.split_once('{') {
        Some((dir, names)) => {
            names.trim_end_matches('}').split(',').map(|name| format!("{dir}{name}")).collect()
        }
        None => vec![word.to_string()],
    }
}

/// Every `.rs` file under `dir`, as a path relative to `base`.
fn rust_files(dir: &Path, base: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, base, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.insert(path.strip_prefix(base).unwrap().to_string_lossy().replace('\\', "/"));
        }
    }
}

#[test]
fn design_module_map_lists_every_source_file_and_no_other() {
    let mut problems = Vec::new();
    let mut mapped_crates = BTreeSet::new();
    for (dir, listed) in map_rows() {
        let mut base = Path::new(ROOT).join(&dir);
        let is_crate = dir.starts_with("crates/");
        if is_crate {
            mapped_crates.insert(dir.clone());
            base = base.join("src");
        }
        let mut present = BTreeSet::new();
        if base.is_dir() {
            rust_files(&base, &base, &mut present);
        }
        if is_crate {
            present.remove("lib.rs");
        }
        for missing in listed.difference(&present) {
            problems.push(format!("`{dir}` names {missing}, which does not exist"));
        }
        for omitted in present.difference(&listed) {
            problems.push(format!("`{dir}` omits {omitted}"));
        }
    }
    for entry in fs::read_dir(Path::new(ROOT).join("crates")).unwrap() {
        let dir = format!("crates/{}", entry.unwrap().file_name().to_string_lossy());
        if !mapped_crates.contains(&dir) {
            problems.push(format!("no row for `{dir}`"));
        }
    }
    assert!(problems.is_empty(), "DESIGN.md's crate/module map is stale:\n{}", problems.join("\n"));
}
