#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, and a smoke run
# of every experiment binary. Run from the repository root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings; covers the bas-analysis mc module) =="
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::redundant_clone -W clippy::needless_collect \
  -W clippy::large_enum_variant

echo "== cargo clippy (bas-analysis + bas-faults + bas-fleet: no unwrap in the analyzers) =="
# The static analyzer is the crate whose own soundness claims the repo
# leans on, bas-faults drives the churn schedules the race detector
# trusts, and bas-fleet is the long-running executor where a stray panic
# takes down a whole worker pool; panicking escape hatches are held to a
# stricter bar in all three.
cargo clippy -p bas-analysis -p bas-faults -p bas-fleet -p bas-traffic --all-targets -- -D warnings \
  -W clippy::unwrap_used

echo "== rustdoc (deny warnings; bas-* crates and the facade) =="
# Keeps intra-doc links honest when types move between modules. The
# `bas*` package glob leaves out the vendored stand-ins, whose docs
# mirror upstream crates that are not present offline.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p 'bas*'

echo "== cargo test =="
cargo test -q --workspace

echo "== benchmark self-tests (perfbench: digests traced vs untraced, 1 vs 2 workers) =="
# perfbench is its own cargo workspace, so the workspace test run above
# does not reach it; its self-tests check that every workload's report
# digest (fleet and traffic JSON renders included) is stable across
# traced/untraced passes and worker counts, and that injected defects
# are caught.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== experiment smoke (every exp_* binary, --quick) =="
cargo build -q --release -p bas-bench
for bin in crates/bench/src/bin/exp_*.rs; do
  name="$(basename "$bin" .rs)"
  echo "-- $name --quick"
  "./target/release/$name" --quick > /dev/null
done

echo "== fault campaign (E16) + multi-platform recovery (A3) =="
# The campaign report must be byte-stable across worker counts; this
# regenerates the committed BENCH_faults.json and checks the determinism
# contract cheaply on top of the smoke run above.
./target/release/exp_fault_campaign --quick --json --workers 1 > /dev/null
mv BENCH_faults.json /tmp/BENCH_faults.w1.json
./target/release/exp_fault_campaign --quick --json --workers 4 > /dev/null
cmp /tmp/BENCH_faults.w1.json BENCH_faults.json \
  || { echo "** BENCH_faults.json differs across worker counts **"; exit 1; }
for platform in linux minix sel4; do
  echo "-- exp_recovery --quick --platform $platform"
  ./target/release/exp_recovery --quick --platform "$platform" > /dev/null
done

echo "== capability-flow differential (E17: static analyzer vs model checker) =="
# Exits nonzero if any of the 54 matrix cells or the seeded derivation
# scenarios disagree between the static witness analysis and the bounded
# checker, in either direction. --json writes BENCH_cap_flow.json.
./target/release/exp_cap_flow --quick --json --state-budget 500000 > /dev/null

echo "== capability-churn races (E19: detector vs model checker vs static leaks) =="
# Exits nonzero on any missed race, false positive in a churn-free trace,
# CAPABILITY_RACE bit in a plain matrix cell, unmapped revocation leak, or
# unconfirmed witness. The report itself carries no wall-clock values, so
# it must be byte-identical across worker counts.
./target/release/exp_cap_races --quick --json --workers 1 > /dev/null
mv BENCH_races.json /tmp/BENCH_races.w1.json
./target/release/exp_cap_races --quick --json --workers 4 > /dev/null
cmp /tmp/BENCH_races.w1.json BENCH_races.json \
  || { echo "** BENCH_races.json differs across worker counts **"; exit 1; }

echo "== race-detector perf gate (trace events/sec vs committed baseline, 30% floor) =="
# Guards the engine-driven churn sweep: replaying the full 21-scenario
# catalog must keep its trace-events/sec within 30% of the committed
# BENCH_races_baseline.json (refresh the baseline deliberately when the
# machine or the engine changes for good reason).
current=$(grep -m1 -o '"events_per_second": *[0-9.eE+-]*' BENCH_races_perf.json | sed 's/.*: *//')
baseline=$(grep -m1 -o '"events_per_second": *[0-9.eE+-]*' BENCH_races_baseline.json | sed 's/.*: *//')
awk -v cur="$current" -v base="$baseline" 'BEGIN {
  floor = base * 0.7;
  printf "events/sec: current %.0f, baseline %.0f, floor %.0f\n", cur, base, floor;
  if (cur < floor) { print "** race-detector throughput regressed >30% **"; exit 1 }
}'

echo "== model check (E14: exhaustive bounded verification, capped state budget) =="
# Exits nonzero on any cell disagreement, truncated exploration, reachable
# internal invariant, POR verdict divergence, parallel/sequential divergence,
# or failed counterexample replay. --json writes BENCH_mc.json.
./target/release/exp_model_check --quick --json --state-budget 500000 > /dev/null

echo "== model-check perf gate (states/sec vs committed baseline, 30% floor) =="
# Guards the explorer's hot path: the --quick sweep's states/sec must stay
# within 30% of the committed BENCH_mc_baseline.json (refresh the baseline
# deliberately when the machine or the explorer changes for good reason).
current=$(grep -m1 -o '"states_per_second": *[0-9.eE+-]*' BENCH_mc.json | sed 's/.*: *//')
baseline=$(grep -m1 -o '"states_per_second": *[0-9.eE+-]*' BENCH_mc_baseline.json | sed 's/.*: *//')
awk -v cur="$current" -v base="$baseline" 'BEGIN {
  floor = base * 0.7;
  printf "states/sec: current %.0f, baseline %.0f, floor %.0f\n", cur, base, floor;
  if (cur < floor) { print "** model-check throughput regressed >30% **"; exit 1 }
}'

echo "== fleet perf gate (IPC hot path + throughput vs committed baseline, 30% floor) =="
# Guards the arena IPC hot path and the persistent-pool fleet executor:
# the --quick sweep's rates must stay within 30% of the committed
# BENCH_fleet_baseline.json (refresh the baseline deliberately when the
# machine or the executor changes for good reason).
./target/release/exp_fleet_scale --quick > /dev/null
for metric in '"messages_per_second"' '"fleet_ipc_messages_per_wall_second"'; do
  current=$(grep -m1 -o "$metric: *[0-9.eE+-]*" BENCH_fleet.json | sed 's/.*: *//')
  baseline=$(grep -m1 -o "$metric: *[0-9.eE+-]*" BENCH_fleet_baseline.json | sed 's/.*: *//')
  awk -v cur="$current" -v base="$baseline" -v name="$metric" 'BEGIN {
    floor = base * 0.7;
    printf "%s: current %.0f, baseline %.0f, floor %.0f\n", name, cur, base, floor;
    if (cur < floor) { print "** fleet throughput regressed >30% **"; exit 1 }
  }'
done
# Snapshot-fork boot gates: instances/sec has a floor like the other
# rates; bytes/instance is a regression in the *upward* direction, so it
# gets a ceiling instead. The leading quote anchors each grep to the
# snapshot-path keys (the cold-path ones are "cold_..."-prefixed).
current=$(grep -m1 -o '"boot_instances_per_sec": *[0-9.eE+-]*' BENCH_fleet.json | sed 's/.*: *//')
baseline=$(grep -m1 -o '"boot_instances_per_sec": *[0-9.eE+-]*' BENCH_fleet_baseline.json | sed 's/.*: *//')
awk -v cur="$current" -v base="$baseline" 'BEGIN {
  floor = base * 0.7;
  printf "boot_instances_per_sec: current %.0f, baseline %.0f, floor %.0f\n", cur, base, floor;
  if (cur < floor) { print "** snapshot boot throughput regressed >30% **"; exit 1 }
}'
current=$(grep -m1 -o '"bytes_per_instance": *[0-9.eE+-]*' BENCH_fleet.json | sed 's/.*: *//')
baseline=$(grep -m1 -o '"bytes_per_instance": *[0-9.eE+-]*' BENCH_fleet_baseline.json | sed 's/.*: *//')
awk -v cur="$current" -v base="$baseline" 'BEGIN {
  ceiling = base * 1.3;
  printf "bytes_per_instance: current %.0f, baseline %.0f, ceiling %.0f\n", cur, base, ceiling;
  if (cur > ceiling) { print "** snapshot boot memory per instance regressed >30% **"; exit 1 }
}'
# The 2-worker speedup floor needs real cores; on a single-CPU host the
# determinism and throughput gates above still ran.
cores=$(grep -m1 -o '"cores": *[0-9]*' BENCH_fleet.json | sed 's/.*: *//')
if [ "$cores" -ge 2 ]; then
  speedup=$(grep -m1 -o '"speedup_2_workers": *[0-9.eE+-]*' BENCH_fleet.json | sed 's/.*: *//')
  awk -v s="$speedup" 'BEGIN {
    printf "2-worker speedup: %.2fx (>1.2x required)\n", s;
    if (s < 1.2) { print "** 2-worker fleet speedup below floor **"; exit 1 }
  }'
else
  echo "2-worker speedup floor skipped ($cores core(s))"
fi
# Leave the committed full-mode BENCH_fleet.json (256-instance sweep) in
# place rather than the quick file the gate just measured.
./target/release/exp_fleet_scale > /dev/null

echo "== traffic perf gate (E18: requests/sec vs committed baseline, 30% floor) =="
# exp_traffic itself asserts the deterministic TrafficReport is
# byte-identical across every worker count it sweeps (a file-level cmp
# would trip on the wall-clock sweep numbers, so the check lives inside
# the binary). The gate here adds the throughput floor: the --quick
# sustained requests/sec must stay within 30% of the committed
# BENCH_traffic_baseline.json (refresh the baseline deliberately when
# the machine or the front-end changes for good reason).
./target/release/exp_traffic --quick > /dev/null
current=$(grep -m1 -o '"requests_per_wall_second": *[0-9.eE+-]*' BENCH_traffic.json | sed 's/.*: *//')
baseline=$(grep -m1 -o '"requests_per_wall_second": *[0-9.eE+-]*' BENCH_traffic_baseline.json | sed 's/.*: *//')
awk -v cur="$current" -v base="$baseline" 'BEGIN {
  floor = base * 0.7;
  printf "requests/sec: current %.0f, baseline %.0f, floor %.0f\n", cur, base, floor;
  if (cur < floor) { print "** traffic throughput regressed >30% **"; exit 1 }
}'
# Leave the committed full-mode BENCH_traffic.json (1 024-instance run,
# which also enforces the 100k requests/sec floor) in place.
./target/release/exp_traffic > /dev/null

echo "CI OK"
