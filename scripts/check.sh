#!/usr/bin/env bash
# Full local gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== workspace tests (every crate, release binaries for the smokes) =="
cargo test -q --workspace
cargo build --release -p swat-cli # swat + swatd binaries for the daemon smoke

echo "== benchmark build + tests (swatbench must build against the current API) =="
cargo build --release --manifest-path swatbench/Cargo.toml
cargo test --manifest-path swatbench/Cargo.toml

echo "== ingest equivalence (blocked path vs frozen scalar reference) =="
cargo test -q -p swat-tree --test ingest_equivalence
cargo test -q -p swat-tree --test ingest_alloc
echo "ingest equivalence clean (bit-identity + zero-alloc steady state)"

echo "== ingest-bench smoke (blocked batch must beat frozen reference) =="
cargo run --release -q -p swat-cli -- ingest-bench --quick \
    --values 262144 --windows 1024 --coeffs 1,8 \
    --out target/ingest-smoke.json >/dev/null
grep -q '"bench": "ingest"' target/ingest-smoke.json
grep -q '"batch_ge_reference": true' target/ingest-smoke.json
echo "ingest smoke clean (target/ingest-smoke.json)"

echo "== chaos smoke (fault injection, quick grid) =="
cargo run --release -q -p swat-cli -- chaos --quick --out target/chaos-smoke.json >/dev/null
echo "chaos smoke clean (target/chaos-smoke.json)"

echo "== recovery smoke (checkpoint, crash, fault-injected recovery) =="
cargo run --release -q -p swat-cli -- recovery-bench --quick \
    --out target/recovery-smoke.json >/dev/null
grep -q '"bench": "recovery"' target/recovery-smoke.json
grep -q '"digest_match": true' target/recovery-smoke.json
grep -q '"violations": 0' target/recovery-smoke.json
echo "recovery smoke clean (target/recovery-smoke.json)"

echo "== store fuzz smoke (segment/manifest/WAL corruption, typed errors only) =="
cargo test -q -p swat-store --test corruption_fuzz
echo "store fuzz clean (every injected corruption -> typed error or verified prefix)"

echo "== compaction smoke (crash at every flush/compaction step, digests bit-exact) =="
cargo test -q -p swat-store --test crash_points
cargo test -q -p swat-store --lib compaction
echo "compaction smoke clean (crash-mid-compaction leaves inputs and manifest intact)"

echo "== store-bench smoke (non-blocking flush + injected-fault grid) =="
cargo run --release -q -p swat-cli -- store-bench --quick \
    --out target/store-smoke.json >/dev/null
grep -q '"bench": "store"' target/store-smoke.json
grep -q '"flush_nonblocking": true' target/store-smoke.json
grep -q '"acked_rows_lost": 0' target/store-smoke.json
grep -q '"digest_mismatches": 0' target/store-smoke.json
grep -q '"panics": 0' target/store-smoke.json
echo "store-bench smoke clean (target/store-smoke.json)"

echo "== query-bench smoke (tiny grid, fast-vs-slow agreement) =="
cargo run --release -q -p swat-cli -- query-bench --quick \
    --points 500 --inners 20 --ranges 5 \
    --out target/query-smoke.json >/dev/null
grep -q '"bench": "query"' target/query-smoke.json
grep -q '"agreement": true' target/query-smoke.json
echo "query-bench smoke clean (target/query-smoke.json)"

echo "== repair smoke (self-healing vs static, quick grid) =="
cargo run --release -q -p swat-cli -- repair-bench --quick \
    --out target/repair-smoke.json >/dev/null
grep -q '"bench": "repair"' target/repair-smoke.json
grep -q '"all_dominate": true' target/repair-smoke.json
if grep -q '"violations": [^0]' target/repair-smoke.json; then
    echo "repair smoke found correctness violations" >&2
    exit 1
fi
echo "repair smoke clean (target/repair-smoke.json)"

echo "== scale smoke (sharded ingest vs unsharded oracle, quick sweep) =="
cargo run --release -q -p swat-cli -- scale-bench --quick \
    --out target/scale-smoke.json >/dev/null
grep -q '"bench": "scale"' target/scale-smoke.json
grep -q '"all_agree": true' target/scale-smoke.json
if grep -q '"oracle_agrees": false' target/scale-smoke.json; then
    echo "scale smoke found an oracle disagreement" >&2
    exit 1
fi
echo "scale smoke clean (target/scale-smoke.json)"

echo "== daemon smoke (2-node TCP cluster, SIGTERM drain, clean checkpoint) =="
SMOKE_DIR=$(mktemp -d)
cleanup_daemon_smoke() {
    kill "${LEADER_PID:-}" "${REPLICA_PID:-}" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup_daemon_smoke EXIT
./target/release/swatd --role replica --shard 0 --shards 1 --streams 4 \
    --window 16 --dir "$SMOKE_DIR/store" \
    --port-file "$SMOKE_DIR/replica.addr" >"$SMOKE_DIR/replica.log" &
REPLICA_PID=$!
for _ in $(seq 100); do [ -s "$SMOKE_DIR/replica.addr" ] && break; sleep 0.05; done
REPLICA_ADDR=$(head -n1 "$SMOKE_DIR/replica.addr")
./target/release/swatd --role leader --shards 1 --streams 4 \
    --window 16 --replica "$REPLICA_ADDR" \
    --port-file "$SMOKE_DIR/leader.addr" >"$SMOKE_DIR/leader.log" &
LEADER_PID=$!
for _ in $(seq 100); do [ -s "$SMOKE_DIR/leader.addr" ] && break; sleep 0.05; done
LEADER_ADDR=$(head -n1 "$SMOKE_DIR/leader.addr")
./target/release/swat client --addr "$LEADER_ADDR" \
    --ingest 1,2,3,4 --ingest 5,6,7,8 \
    --point 0:0 --top-k 2 --status >"$SMOKE_DIR/client.log"
grep -q 'applied req_id=0 duplicate=false' "$SMOKE_DIR/client.log"
grep -q 'applied req_id=1 duplicate=false' "$SMOKE_DIR/client.log"
grep -q '^point\[0:0\]: value=' "$SMOKE_DIR/client.log"
grep -q '^top-k\[2\]: complete' "$SMOKE_DIR/client.log"
if grep -Eq 'DEGRADED|OVERLOADED|UNAVAILABLE|ERROR' "$SMOKE_DIR/client.log"; then
    echo "daemon smoke: a request degraded on a healthy cluster" >&2
    cat "$SMOKE_DIR/client.log" >&2
    exit 1
fi
kill -TERM "$LEADER_PID" && wait "$LEADER_PID"
kill -TERM "$REPLICA_PID" && wait "$REPLICA_PID"
grep -q 'checkpointed: true' "$SMOKE_DIR/replica.log"
grep -q 'swatd: drained' "$SMOKE_DIR/leader.log"
trap - EXIT
cleanup_daemon_smoke
echo "daemon smoke clean (ingest, point, top-k, drain, checkpoint)"

echo "== daemon bench smoke (real-TCP latency, one replica killed) =="
cargo run --release -q -p swat-cli -- daemon-bench --quick \
    --out target/daemon-smoke.json >/dev/null
grep -q '"bench": "daemon"' target/daemon-smoke.json
grep -q '"zero_wrong_answers": true' target/daemon-smoke.json
echo "daemon bench smoke clean (target/daemon-smoke.json)"

echo "== failover smoke (3-node cluster, LEADER killed, re-election) =="
# Kills the leader of a real-TCP failover cluster mid-run; the command
# itself fails unless a survivor claims a new term, every retried row
# re-acks, and the recovered cluster answers bit-exactly (zero wrong
# answers over the acked prefix).
cargo run --release -q -p swat-cli -- failover-bench --quick \
    --out target/failover-smoke.json >/dev/null
grep -q '"bench": "failover"' target/failover-smoke.json
grep -q '"recovered": true' target/failover-smoke.json
grep -q '"zero_wrong_answers": true' target/failover-smoke.json
echo "failover smoke clean (target/failover-smoke.json)"

echo "OK: fmt, clippy, tier-1, benchmark build, ingest, chaos, recovery, store, query-bench, repair, scale, daemon, and failover smokes all green"
