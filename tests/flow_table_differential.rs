//! The flow-table classifier's licence, run a second time: the netsim
//! crate's property tests — the classifier against a reference linear
//! scan, link timing, match compilation, eviction — included as they
//! are. The member crate runs the same file under `default-members`;
//! this copy earns its build because property names seed the case
//! generator (`module_path!()` included), so it draws different cases.

#[path = "../crates/netsim/tests/proptest_netsim.rs"]
mod proptest_netsim;
