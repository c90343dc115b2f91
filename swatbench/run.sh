#!/usr/bin/env bash
# Build swatd and the benchmark, then run one benchmark workload:
#
#   bash swatbench/run.sh --workload query-mix --seed 1 --seconds 20 --trace 0
#
# `--workload all` runs the three workloads in turn; `--compare A B`
# compares two saved reports. Build output goes to $CARGO_TARGET_DIR
# (default: target); both builds share it, so the benchmark finds swatd
# beside its own binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/daemon || ! -d crates/cli ]]; then
    echo "swatbench: $root is not a SWAT checkout (no Cargo.toml or crates/); nothing to build" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p swat-cli --bin swatd >&2
cargo build --release --offline --quiet --manifest-path swatbench/Cargo.toml >&2
bench=("$CARGO_TARGET_DIR/release/swatbench" --swatd "$CARGO_TARGET_DIR/release/swatd" --root "$root")
args=("$@")
for i in "${!args[@]}"; do
    if [[ "${args[$i]}" == all && $i -gt 0 && "${args[$((i - 1))]}" == --workload ]]; then
        status=0
        for w in ingest-fanout query-mix durable-ingest; do
            args[$i]=$w
            "${bench[@]}" "${args[@]}" || status=1
        done
        exit $status
    fi
done
exec "${bench[@]}" "$@"
