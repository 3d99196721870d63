#!/bin/sh
# Tier-1 CI gate for the workspace: formatting, release build, full
# test suite, and a warning-free clippy pass over every target
# (benches included).
set -eux

cargo fmt --check
cargo build --release
# The wall-clock benchmark (e2ebench/) is a package of its own built
# against the workspace crates' public API; building it here makes an
# API change that breaks it fail CI rather than the benchmark run.
cargo build --release --offline --locked --manifest-path e2ebench/Cargo.toml
# End-to-end smoke: one short live run of the join workload must
# deliver the exact answer (its last line is the benchmark's verdict).
cargo run --release --quiet --offline --locked --manifest-path e2ebench/Cargo.toml -- \
    --workload join-exact --seconds 10 --trace 0 > /tmp/e2e_smoke.json
tail -n 1 /tmp/e2e_smoke.json | grep -q '"correct":true'
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Docs gate: rustdoc must build warning-free (broken intra-doc links
# fail the build) and every documented example must actually run.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q --workspace --doc

# Chaos smoke: the fault-injection suite — including the 240-client
# connection-churn soak under readiness faults (DESIGN.md §14) —
# warning-free and serial: the soak's stall detection and the
# watchdog's real-time grace want a quiet machine, not test-thread
# contention. The drain suite pins event-loop shutdown latency with
# idle connections held open. The emission suite times how soon after
# its due time each window leaves the merger, on the wall clock.
RUSTFLAGS=-Dwarnings cargo test -q -p dt-server --test chaos -- --test-threads=1
RUSTFLAGS=-Dwarnings cargo test -q -p dt-server --test drain -- --test-threads=1
RUSTFLAGS=-Dwarnings cargo test -q -p dt-server --test emission -- --test-threads=1

# Observability smoke: start a live dt-serve (stdin held open by the
# sleep), scrape GET /metrics through the bundled example, and require
# a known metric family in the Prometheus exposition.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7183 --window 1.0 > /tmp/dt_serve_smoke.json &
SERVE_PID=$!
SCRAPED=0
for _ in $(seq 1 50); do
    if cargo run --release -p dt-server --example scrape -- 127.0.0.1:7183 \
        > /tmp/metrics_smoke.txt 2>/dev/null; then
        SCRAPED=1
        break
    fi
    sleep 0.2
done
test "$SCRAPED" = 1
grep -q '^dt_server_ingest_frames_total' /tmp/metrics_smoke.txt
grep -q '^# TYPE dt_server_queue_depth gauge' /tmp/metrics_smoke.txt
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Registry smoke: a live dt-serve under the chaos disconnect fault.
# Connection ids are assigned in first-line order (readiness poll,
# two registers, tuple sender, final list), so the sender — the only
# connection that ever writes a 6th line — lands somewhere in 2..=5;
# injecting the same line-5 cut on all four ids guarantees it is
# dropped mid-stream and must reconnect-and-resend, whatever the
# exact numbering. Two queries registered over the loopback client
# share stream R's triage; both must emit windows and show up in
# /stats.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7184 --window 1.0 --grace 100 \
    --ingest eventloop --reactors 2 \
    --fault-disconnect 2:5 --fault-disconnect 3:5 \
    --fault-disconnect 4:5 --fault-disconnect 5:5 \
    > /tmp/dt_registry_smoke.json &
REG_PID=$!
REG_UP=0
for _ in $(seq 1 50); do
    if ./target/release/dt-serve list --addr 127.0.0.1:7184 \
        > /dev/null 2>&1; then
        REG_UP=1
        break
    fi
    sleep 0.2
done
test "$REG_UP" = 1
./target/release/dt-serve register --addr 127.0.0.1:7184 \
    --sql 'SELECT a, COUNT(*) FROM R GROUP BY a' | grep -q '^registered 1$'
./target/release/dt-serve register --addr 127.0.0.1:7184 \
    --sql 'SELECT a, SUM(a) FROM R GROUP BY a' --tenant acme --weight 2 \
    | grep -q '^registered 2$'
# The producer is paced (one write per line) so the injected close is
# seen as a write failure rather than vanishing into the TCP buffer —
# the sender must then actually reconnect-and-resend at least once.
i=0; while [ "$i" -lt 40 ]; do
    printf '{"stream":"R","row":[%d],"ts":%d}\n' $((i % 3)) $((1500000 + i * 20000))
    sleep 0.01
    i=$((i + 1))
done | ./target/release/dt-serve send --addr 127.0.0.1:7184 \
    2> /tmp/registry_send.txt
cat /tmp/registry_send.txt
grep -Eq 'forwarded 40 lines \([1-9][0-9]* retries\)' /tmp/registry_send.txt
sleep 3
./target/release/dt-serve list --addr 127.0.0.1:7184 > /tmp/registry_list.txt
cat /tmp/registry_list.txt
test "$(grep -c ' active ' /tmp/registry_list.txt)" = 3
grep -vq 'windows=0' /tmp/registry_list.txt
cargo run --release -p dt-server --example scrape -- 127.0.0.1:7184 --raw \
    > /tmp/registry_stats.json
grep -q '"queries":\[' /tmp/registry_stats.json
grep -q 'SELECT a, SUM(a) FROM R GROUP BY a' /tmp/registry_stats.json
kill "$REG_PID" 2>/dev/null || true
wait "$REG_PID" 2>/dev/null || true

# Shard smoke: the same registry-under-disconnect-fault run, but with
# a 4-wide worker group per stream (DESIGN.md §15). Both registered
# queries share stream R's *sharded* triage; every query must still
# emit windows through the merge_sealed fan-in, and the per-shard
# metric families must be live in the exposition.
sleep 20 | ./target/release/dt-serve \
    --stream R:a --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
    --listen 127.0.0.1:7185 --window 1.0 --grace 100 --shards 4 \
    --ingest eventloop --reactors 2 \
    --fault-disconnect 2:5 --fault-disconnect 3:5 \
    --fault-disconnect 4:5 --fault-disconnect 5:5 \
    > /tmp/dt_shard_smoke.json &
SHARD_PID=$!
SHARD_UP=0
for _ in $(seq 1 50); do
    if ./target/release/dt-serve list --addr 127.0.0.1:7185 \
        > /dev/null 2>&1; then
        SHARD_UP=1
        break
    fi
    sleep 0.2
done
test "$SHARD_UP" = 1
./target/release/dt-serve register --addr 127.0.0.1:7185 \
    --sql 'SELECT a, SUM(a) FROM R GROUP BY a' | grep -q '^registered 1$'
i=0; while [ "$i" -lt 40 ]; do
    printf '{"stream":"R","row":[%d],"ts":%d}\n' $((i % 3)) $((1500000 + i * 20000))
    sleep 0.01
    i=$((i + 1))
done | ./target/release/dt-serve send --addr 127.0.0.1:7185 \
    2> /tmp/shard_send.txt
grep -Eq 'forwarded 40 lines' /tmp/shard_send.txt
sleep 3
./target/release/dt-serve list --addr 127.0.0.1:7185 > /tmp/shard_list.txt
cat /tmp/shard_list.txt
test "$(grep -c ' active ' /tmp/shard_list.txt)" = 2
grep -vq 'windows=0' /tmp/shard_list.txt
cargo run --release -p dt-server --example scrape -- 127.0.0.1:7185 \
    > /tmp/shard_metrics.txt
grep -q 'dt_server_shard_depth{stream="R",shard="3"}' /tmp/shard_metrics.txt
grep -q 'dt_server_steal_batches_total{stream="R",shard="0"}' /tmp/shard_metrics.txt
kill "$SHARD_PID" 2>/dev/null || true
wait "$SHARD_PID" 2>/dev/null || true

# Columnar-equivalence gate: the vectorized executor and the batched
# synopsis inserts must stay bit-identical to the row-at-a-time
# reference across randomized plans and inputs, and so must the
# server's window close (registry fan-out onto the columnar executor).
cargo test -q -p dt-engine --test columnar_equivalence
cargo test -q -p dt-synopsis --test columnar_equivalence
cargo test -q -p dt-registry --test close_equivalence

# Bench smoke: every criterion harness must run end to end on a tiny
# time budget, and the perf-trajectory snapshot must regenerate. The
# numbers themselves are not gated here (CI hardware is too noisy);
# BENCH_baseline.json records the interleaved measurements — see its
# methodology field.
CRITERION_BUDGET_MS=25 cargo bench -p dt-bench
cargo run --release -p dt-bench --bin fig8 -- --quick
cargo run --release -p dt-bench --bin bench_baseline -- --out /tmp/bench_smoke.json

# Perf-regression smoke: re-measure the headline metrics and fail if
# any is >10 % worse than the committed BENCH_baseline.json after
# machine-drift normalization (see bench_baseline's calibration
# kernel). --quick keeps it cheap; suspicious metrics self-escalate.
cargo run --release -p dt-bench --bin bench_baseline -- --compare --quick

# Delay-constraint smoke: the adaptive-controller sweep (DESIGN.md
# §11) must run end to end; its latency/deadline guarantees are gated
# by the dt-triage and dt-metrics test suites, not re-judged here.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin delay_sweep -- --quick)

# Multi-query sharing smoke: the shared-vs-naive sweep (DESIGN.md §12)
# must run end to end; the shared-triage invariant itself is gated by
# dt-server's registry tests.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin multiq_sweep -- --quick)

# Connection-sweep smoke: both ingest planes under real worker
# processes (DESIGN.md §14) must accept, ingest, and drain end to
# end; the full curves live in the committed CONN_sweep.json.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin conn_sweep -- --quick)

# Shard-sweep smoke: the worker-group critical-path model (DESIGN.md
# §15) must run end to end, conserve every tuple through the sharded
# seal/merge path, and hold the >=2x zipfian-at-4-shards headline the
# binary itself asserts; the full curves live in SHARD_sweep.json.
(cd /tmp && cargo run --release --manifest-path "$OLDPWD/Cargo.toml" \
    -p dt-bench --bin shard_sweep -- --quick)
