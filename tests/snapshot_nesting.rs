//! The JSON parser refuses documents nested deeper than
//! `lh_harness::json::MAX_DEPTH`, so nothing the workspace writes may
//! come near that bound. Every committed snapshot — envelopes, metrics
//! reports and event logs — must parse and nest well below it.

use std::path::Path;

use lh_harness::json::{parse, Json, MAX_DEPTH};

/// Levels of arrays and objects in `value` (a scalar is depth 0).
fn depth(value: &Json) -> usize {
    match value {
        Json::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Every `.json` (one document) and `.ndjson` (one per line) file under
/// `dir`, recursively, with the deepest nesting found in it.
fn snapshot_depths(dir: &Path, out: &mut Vec<(String, usize)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("snapshot dir readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            snapshot_depths(&path, out);
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("snapshot readable");
        let docs: Vec<&str> = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => vec![text.as_str()],
            Some("ndjson") => text.lines().collect(),
            _ => continue,
        };
        let deepest = docs
            .iter()
            .map(|doc| {
                let value = parse(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                depth(&value)
            })
            .max()
            .unwrap_or(0);
        out.push((path.display().to_string(), deepest));
    }
}

#[test]
fn committed_snapshots_nest_well_below_the_parser_bound() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/snapshots");
    let mut depths = Vec::new();
    snapshot_depths(&dir, &mut depths);
    assert!(
        depths.len() >= 9,
        "expected the envelope, metrics and event snapshots, found {depths:?}"
    );
    for (path, deepest) in depths {
        assert!(
            deepest <= MAX_DEPTH / 8,
            "{path} nests {deepest} levels, too close to the parser bound {MAX_DEPTH}"
        );
    }
}
