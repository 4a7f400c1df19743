//! Every runtime primitive is `std`: the workspace resolves to its own
//! members plus the dev-only `proptest` stand-in, and `vendor/` holds
//! nothing else.

use std::path::Path;

#[test]
fn lock_file_and_vendor_dir_hold_only_proptest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock");
    let foreign: Vec<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .filter(|n| *n != "attain" && !n.starts_with("attain-") && *n != "proptest")
        .collect();
    assert!(
        foreign.is_empty(),
        "third-party packages in Cargo.lock: {foreign:?}"
    );

    let mut vendored: Vec<String> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    vendored.sort();
    assert_eq!(vendored, ["proptest"]);
}
