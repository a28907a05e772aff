#!/usr/bin/env bash
# The whole benchmark in one command: build, N untraced runs and one traced run of
# every workload (one process per run), every metric printed by name with its unit
# and sample count, results written to benchmark/results/.
#
#   benchmark/run.sh                      # 5 runs per workload, seeds 1.., run_seconds from BENCHMARK.json
#   benchmark/run.sh --runs 10 --seed 7   # another set
#   benchmark/run.sh --out benchmark/results/before.json
#
# Compare two sets with the bounds of BENCHMARK.json (exits non-zero on a regression):
#
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare a.json b.json
#
# Run from the repository root; extra arguments go to the `suite` subcommand.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- suite "$@"
