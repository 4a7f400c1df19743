#!/usr/bin/env bash
# Repo-wide pre-merge checks. Offline-friendly: the workspace depends on
# `std` and, for tests, the proptest stand-in in vendor/ — no network
# access required.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every benchmark build rewrites attain_bench/Cargo.lock, which is tracked
# and stale: keep a copy and put it back however the script exits, so a
# run leaves the tree as it found it.
bench_lock=$(mktemp)
cp attain_bench/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" attain_bench/Cargo.lock; rm -f "$bench_lock"' EXIT

echo "== cargo fmt --check"
cargo fmt --all --check
# include!d at the controllers crate root, so cargo fmt does not reach it
rustfmt --check --edition 2021 crates/controllers/src/wire_tests.rs

echo "== cargo clippy (deny warnings, flag redundant clones and hash-order walks)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone \
  -D clippy::iter_over_hash_type

echo "== cargo doc (deny warnings: no broken, private or redundant intra-doc links)"
# vendor/proptest is a stand-in with its own ambiguous links; not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude proptest --no-deps

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test --release (encoders inlined: the allocation pins must hold there too)"
cargo test --workspace --release -q

echo "== the proxy's socket tests five more times in release (a timing-sensitive flake shows here)"
for run in 1 2 3 4 5; do
  echo "-- run $run"
  cargo test --release -q -p attain-injector \
    --test transport_differential --test tcp_lifecycle --test tcp_hostile --test tcp_pipelining
done

echo "== every example runs to a zero exit in release (tier-1 only compiles them; ~7 s)"
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "-- $name"
  cargo run --release --quiet --example "$name" >/dev/null
done

echo "== benchmark package builds against the facade, and its own unit tests pass"
cargo build --release --offline --manifest-path attain_bench/Cargo.toml
cargo test --offline -q --manifest-path attain_bench/Cargo.toml

echo "== proxy burst throughput floor (Nagle-stalled sockets read 1,455 msgs/s)"
proxy_tcp=$(cargo run --release --quiet --offline --manifest-path attain_bench/Cargo.toml \
  -- --workload proxy_tcp --seconds 4 --trace 0 | tail -n 1)
echo "$proxy_tcp"
grep -q '"correct": true' <<<"$proxy_tcp"
work_per_s=$(sed -E 's/.*"work_per_s": \{"value": ([0-9]+).*/\1/' <<<"$proxy_tcp")
if ! [ "$work_per_s" -ge 10000 ]; then
  echo "proxy_tcp work_per_s $work_per_s is under the 10,000 msgs/s floor" >&2
  exit 1
fi

echo "== benchmark's pinned counts and digests (330/330 golden cells; Hub, Ryu and fabric runs)"
for workload in campaign_full ctrl_path table_churn fabric_large; do
  result=$(cargo run --release --quiet --offline --manifest-path attain_bench/Cargo.toml \
    -- --workload "$workload" --seconds 2 --trace 0 | tail -n 1)
  echo "$workload $result"
  grep -q '"correct": true' <<<"$result"
done

echo "== the traced ctrl_path run's digest cost (790,105 records; a jump per fixed piece of text)"
# netsim.trace.digest_ms read 33-36 ms with literals hashed in one
# multiply-add each, and 131-173 ms when every byte took an FNV-1a step.
# The ceiling is about 2x the first.
traced=$(cargo run --release --quiet --offline --manifest-path attain_bench/Cargo.toml \
  -- --workload ctrl_path --trace 1 | tail -n 1)
grep -q '"correct": true' <<<"$traced"
digest_ms=$(sed -nE 's/.*"netsim\.trace\.digest_ms": \{"value": ([0-9]+).*/\1/p' <<<"$traced")
echo "ctrl_path netsim.trace.digest_ms: ${digest_ms:-unreported} ms"
if ! [ "${digest_ms:-1000000}" -lt 70 ]; then
  echo "ctrl_path digest_ms ${digest_ms:-unreported} is unreported or not under the 70 ms ceiling" >&2
  exit 1
fi

echo "== §VI-D rule scaling (scan grows with |Φ|, dispatcher stays flat)"
cargo run --release --bin rule_scalability \
  -- --json target/BENCH_rule_eval_check.json

echo "== scalability sweep: every row's deterministic columns against the committed report (~10 s)"
cargo run --release --quiet --bin scalability -- --json target/BENCH_scalability_check.json >/dev/null
deterministic() {
  sed -E -e 's/"wall_ms": [0-9.]+, "events_per_sec": [0-9]+, //' -e '/"wall_clock_commit"/d' "$1"
}
diff <(deterministic BENCH_scalability.json) <(deterministic target/BENCH_scalability_check.json)

echo "== Figure 11 at paper fidelity against its golden (~22 s, exact in virtual time), and its peak RSS"
fig11_err=$(mktemp)
cargo run --release --quiet --bin fig11 2>"$fig11_err" \
  | diff tests/golden/paper/fig11.txt -
# The trace is most of fig11's memory: the largest run's, a varint byte
# stream, holds 19,325 kB (fig11 prints it as `Trace::stored_bytes`).
# The peak read 22.2-22.3 MiB (73.1 MiB with 24-byte records, 166.7 MiB
# with an injection-log record per rule match). The ceiling is ~1.25x that.
fig11_peak_kb=$(sed -nE 's/^peak RSS \(VmHWM\): ([0-9]+) kB$/\1/p' "$fig11_err")
rm -f "$fig11_err"
echo "fig11 peak RSS: ${fig11_peak_kb:-unreported} kB"
if ! [ "${fig11_peak_kb:-0}" -gt 0 ] || [ "$fig11_peak_kb" -gt $((28 * 1024)) ]; then
  echo "fig11 peak RSS ${fig11_peak_kb:-unreported} kB is unreported or above the 28 MiB ceiling" >&2
  exit 1
fi

echo "all checks passed"
