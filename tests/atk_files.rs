//! The shipped `attacks/*.atk` description files are the bundled
//! in-crate sources and stay compilable — they are the "reusable and
//! shareable attack descriptions" the paper's abstract promises.

use attain::core::{dsl, scenario};

#[test]
fn shipped_atk_files_match_bundled_attacks() {
    let sc = scenario::enterprise_network();
    for (name, source) in scenario::attacks::ALL {
        let path = format!("attacks/{name}.atk");
        let file = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} missing: {e}"));
        assert_eq!(
            file,
            source,
            "scenario::attacks::{} is not {path}",
            name.to_uppercase()
        );
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model);
        assert!(compiled.is_ok(), "{path}: {}", compiled.unwrap_err());
    }
}

#[test]
fn self_contained_demo_compiles_as_a_document() {
    let file =
        std::fs::read_to_string("attacks/self_contained_demo.atk").expect("demo file present");
    let doc = dsl::compile_document(&file).expect("demo compiles");
    assert_eq!(doc.attacks.len(), 1);
    assert_eq!(doc.attacks[0].name(), "tap_and_slow");
    // The demo exercises the TLS/no-TLS split: the tapped channel grants
    // everything, the TLS one does not.
    use attain::core::model::{Capability, ConnectionId};
    assert!(!doc
        .attack_model
        .get(ConnectionId(0))
        .contains(Capability::ReadMessage));
    assert!(doc
        .attack_model
        .get(ConnectionId(1))
        .contains(Capability::ReadMessage));
}
