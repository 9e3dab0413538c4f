//! The allowed crate-dependency DAG, checked against every
//! `crates/*/Cargo.toml`.
//!
//! `(crate, deps)` means crates/<crate> may depend on exactly those
//! segugio crates (in `[dependencies]`; dev-dependencies are exempt — tests
//! may reach across layers). Keep the layering intentional:
//!
//! ```text
//!   model                      the shared vocabulary — depends on nothing
//!   pdns / traffic / ingest    data acquisition; must never see the engine
//!   graph                      behavior graph; pure structure over model
//!   ml                         classifier; no knowledge of the domain crates
//!   core                       the detection engine, tying the layers together
//!   baselines / eval / bench   consumers on top; nothing may depend on them
//! ```
//!
//! In particular: ingest/graph/pdns/traffic must not depend on core/eval/ml,
//! and ml must not depend on eval. A crate missing from the table fails, so
//! new crates must be added here explicitly. A source `use` of a crate the
//! manifest does not name does not compile, so checking the manifests
//! checks the sources too.

use std::fs;
use std::path::Path;

/// `(crate, the segugio crates it may depend on)`.
const LAYERS: &[(&str, &str)] = &[
    ("alloc_probe", ""),
    ("baselines", "model pdns graph ml core"),
    (
        "bench",
        "model pdns traffic graph ml core baselines eval ingest alloc_probe",
    ),
    ("core", "model pdns graph ml"),
    ("eval", "model pdns traffic graph ml core baselines ingest"),
    ("graph", "model"),
    ("ingest", "model pdns graph"),
    ("ml", ""),
    ("model", ""),
    ("pdns", "model"),
    ("traffic", "model pdns"),
];

/// Every `segugio-*` crate a manifest's `[dependencies]` names — as a key,
/// a `[dependencies.segugio-*]` table or a renamed `package` — as a
/// directory name under `crates/`.
fn segugio_deps(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line.starts_with("[dependencies.");
        }
        for (at, _) in line.match_indices("segugio-").filter(|_| in_deps) {
            let rest = &line[at + "segugio-".len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
                .unwrap_or(rest.len());
            deps.push(rest[..end].replace('-', "_"));
        }
    }
    deps
}

#[test]
fn crate_dependencies_follow_the_layering() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    for entry in fs::read_dir(&crates).expect("listing crates/") {
        let dir = entry.expect("reading crates/").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir.file_name().expect("a crate dir").to_string_lossy();
        let Some((_, allowed)) = LAYERS.iter().find(|(layer, _)| *layer == name) else {
            panic!("crates/{name} has no row in tests/layering.rs; add it to LAYERS");
        };
        for dep in segugio_deps(&manifest) {
            assert!(
                allowed.split_whitespace().any(|ok| ok == dep),
                "crates/{name} depends on segugio-{dep}, outside its layer \"{allowed}\""
            );
        }
        found.push(name.into_owned());
    }
    for (layer, _) in LAYERS {
        assert!(
            found.iter().any(|name| name == layer),
            "LAYERS names crates/{layer}, which does not exist"
        );
    }
}
