//! The benchmark is a package outside the root workspace, so it carries its
//! own copies of the root manifest's `[patch.crates-io]` and
//! `[profile.release]`. If they drift apart, the benchmark silently measures
//! different dependencies or different codegen than the shipped binaries.

use std::collections::BTreeSet;

/// The `key = value` lines of `[section]`, whitespace removed, with a
/// leading `../` in path values dropped (the two manifests sit one
/// directory apart).
fn section(manifest: &str, section: &str) -> BTreeSet<String> {
    let header = format!("[{section}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.chars()
                .filter(|c| !c.is_whitespace())
                .collect::<String>()
                .replace("path=\"../", "path=\"")
        })
        .collect()
}

#[test]
fn patch_and_release_profile_agree_with_the_root_manifest() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let ours = std::fs::read_to_string(format!("{dir}/Cargo.toml")).unwrap();
    let root = std::fs::read_to_string(format!("{dir}/../Cargo.toml")).unwrap();
    for name in ["patch.crates-io", "profile.release"] {
        let (a, b) = (section(&ours, name), section(&root, name));
        assert!(!b.is_empty(), "root manifest has no [{name}]");
        assert_eq!(
            a, b,
            "[{name}] differs between benchmark/Cargo.toml and the root Cargo.toml"
        );
    }
}

#[test]
fn section_reader_normalizes_what_may_differ() {
    let text = "[a]\nx = 1\n\n# note\ny = { path = \"../v/y\" }\n[b]\nz = 2\n";
    let a = section(text, "a");
    assert_eq!(
        a.into_iter().collect::<Vec<_>>(),
        vec!["x=1".to_owned(), "y={path=\"v/y\"}".to_owned()]
    );
    assert!(section(text, "missing").is_empty());
}
