#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                  every workload, untraced + traced + layer
#                                     replay, seed 1 -> benchmark/out/latest.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one run; the last line of stdout is one
#                                     JSON object (what BENCHMARK.json's
#                                     `command` is called with)
#   benchmark/run.sh --all --only NAME | --quick | --seed N | --out FILE
#   benchmark/run.sh --compare A.json[,A2.json...] B.json[,B2.json...]
#
# Builds the benchmark package (its own manifest; the library crates are
# path dependencies) and runs it from the repository root, so relative
# paths mean the same wherever the script is called from.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
if [ "$#" -eq 0 ]; then
  set -- --all --seed 1 --out benchmark/out/latest.json
fi
exec "$target/release/amcast_bench" "$@"
