#!/usr/bin/env bash
# Two full untraced passes of the same code, held against the benchmark's
# own bounds: every exact value must be equal, every timed end-to-end
# metric within its bound of its twin. Run from anywhere; extra arguments
# (--seed, --seconds) go to both passes.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

for pass in 1 2; do
    "${run[@]}" "$@"
    cp benchmark/out/result.json "benchmark/out/pass-$pass.json"
done
"${run[@]}" --compare benchmark/out/pass-1.json benchmark/out/pass-2.json
