//! The flow-table classifier's licence, run by the tier-1 command: the
//! netsim crate's property tests — the classifier against a reference
//! linear scan, link timing, match compilation — included as they are,
//! so `cargo test` at the workspace root exercises them without
//! `--workspace`. (Property names seed the case generator, so this copy
//! also draws different cases than the one in the member crate.)

#[path = "../crates/netsim/tests/proptest_netsim.rs"]
mod proptest_netsim;
