#!/usr/bin/env bash
# Repo-wide pre-merge checks. Offline-friendly: everything here builds
# against the vendored dependency stubs, no network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings, flag redundant clones)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== environment-fault suite (incl. trace determinism)"
cargo test -q -p attain-netsim --test faults
cargo test -q -p attain-netsim --test faults same_seed_same_trace_different_seed_may_differ

echo "== rule dispatcher differential suite (scan ≡ compiled)"
cargo test -q -p attain-core --test proptest_dispatch

echo "== timing-observable differential suite (scan ≡ compiled, incl. no-sample paths)"
cargo test -q -p attain-core --test proptest_timing

echo "== controller fingerprinting (classification accuracy + confusion matrix)"
cargo test -q -p attain-campaign --test fingerprint

echo "== flow-table capacity inference"
cargo test -q -p attain-netsim --test capacity_inference

echo "== conformance campaign (smoke matrix + golden digests, audited dispatch)"
cargo run --release --bin campaign --features attain-campaign/dispatch_audit \
  -- --smoke --jobs 2 --out target/CAMPAIGN_smoke_report.json
cargo test -q -p attain --test campaign_conformance
cargo test -q -p attain --test dsl_roundtrip

echo "== shard/scheduler invariance suite (heap ≡ wheel, 1 ≡ N shards)"
cargo test -q -p attain-netsim --test scale_determinism

echo "== scalability smoke (fat-tree k=4, capped event budget)"
cargo run --release --bin scalability \
  -- --smoke --max-events 2000000 --json target/BENCH_scalability_smoke.json
grep -q '"halt": "Horizon"' target/BENCH_scalability_smoke.json

echo "== supervised execution (chaos cells contained, degraded-mode report)"
cargo test -q -p attain-campaign --features test_faults
if cargo run --release --bin campaign --features test_faults \
    -- --smoke --jobs 2 --cell-timeout 60 \
    --out target/CAMPAIGN_chaos_report.json 2>/dev/null; then
  echo "chaos smoke campaign unexpectedly exited zero" >&2
  exit 1
fi
grep -q '"status": "panicked"' target/CAMPAIGN_chaos_report.json
grep -q '"status": "budget-exhausted"' target/CAMPAIGN_chaos_report.json
grep -q '"verdict": "unjudged"' target/CAMPAIGN_chaos_report.json

echo "all checks passed"
