#!/usr/bin/env bash
# Full offline verification gate: release build, workspace tests, lints.
# The workspace must build with zero registry access (no external deps),
# so everything runs with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> one term lexer (no byte-pushing scanner beside crates/rdf/src/lex.rs)"
if grep -rn "fix_utf8\|struct Scanner" crates/rdf/src; then
    echo "verify: FAIL — a second term scanner is back in wodex-rdf"
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline (workspace)"
cargo test --workspace -q --offline

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> row-cap determinism (4 tests x 50 runs x 2 concurrent copies, WODEX_THREADS=4)"
# A row cap must cut the same prefix on every run. The race this guards
# against (a budget poll racing the workers that charge it) showed up
# only under contention, so a second copy of the loop runs beside the
# first; either copy's first failing run fails the gate.
test_bin() { # cargo-test target selector -> path of its one test executable
    cargo test --offline --no-run "$@" 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p'
}
PLAN_BIN=$(test_bin --test plan_equivalence)
CORE_BIN=$(test_bin -p wodex-core --lib)
EXEC_BIN=$(test_bin -p wodex-exec --lib)
quietly() { # runs a command, printing its output only if it fails
    local out
    out=$("$@" 2>&1) || { echo "$out"; echo "verify: FAIL — $*"; return 1; }
}
row_cap_loop() {
    local i
    for i in $(seq 1 50); do
        # The filter matches the planner's and the multiway join's test.
        quietly "$PLAN_BIN" row_cap_yields_a_sound_subset_under
        quietly "$CORE_BIN" sparql_budgeted_row_cap_degrades
        quietly "$EXEC_BIN" a_row_cap_admits_the_same_chunks_at_every_thread_count
    done
}
export WODEX_THREADS=4
row_cap_loop &
BESIDE=$!
row_cap_loop
wait "$BESIDE"
unset WODEX_THREADS

echo "==> chaos fault sweep (3 seeds x fault rates 0-20%)"
for seed in 1 42 20160315; do
    echo "    WODEX_FAULT_SEED=$seed"
    WODEX_FAULT_SEED=$seed cargo test -q --offline --test chaos
done

echo "==> mvcc differential sweep (3 seeds, serial-replay oracle)"
for seed in 1 42 20160315; do
    echo "    WODEX_FAULT_SEED=$seed"
    WODEX_FAULT_SEED=$seed cargo test -q --offline --test mvcc
done

echo "==> wodex serve smoke test (boot, /healthz, keep-alive, budgeted /sparql, clean stop)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/smoke.ttl" <<'TTL'
@prefix ex: <http://example.org/> .
ex:a ex:population 100 . ex:b ex:population 200 . ex:c ex:population 300 .
<http://example.org/zürich> ex:population 400 .
TTL
# A non-ASCII IRI comes out of the Turtle parser as the code points written.
QUERY_OUT=$(./target/release/wodex query "$SMOKE_DIR/smoke.ttl" \
    'SELECT ?s WHERE { ?s <http://example.org/population> 400 }')
echo "$QUERY_OUT" | grep -q 'http://example.org/zürich' || {
    echo "verify: FAIL — wodex query mangled a non-ASCII IRI (got: $QUERY_OUT)"
    exit 1
}
./target/release/wodex serve "$SMOKE_DIR/smoke.ttl" --workers 2 \
    > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$SMOKE_DIR/serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: FAIL — wodex serve never reported its port"; exit 1; }
curl -sf "http://127.0.0.1:$PORT/healthz" | grep -q '"status":"ok"' || {
    echo "verify: FAIL — /healthz did not answer ok"
    exit 1
}
# Two URLs in one curl: the second must ride the first's connection.
BASE="http://127.0.0.1:$PORT"
curl -sv "$BASE/healthz" "$BASE/healthz" 2>&1 | grep -i 're-us.* connection' > /dev/null || {
    echo "verify: FAIL — a second request did not re-use the connection (keep-alive)"
    exit 1
}
SPARQL_OUT=$(curl -sf -d 'SELECT ?s ?v WHERE { ?s <http://example.org/population> ?v }' \
    "http://127.0.0.1:$PORT/sparql?deadline_ms=2000")
echo "$SPARQL_OUT" | grep -q '"bindings":\[' || {
    echo "verify: FAIL — /sparql did not return SPARQL JSON (got: $SPARQL_OUT)"
    exit 1
}
# A committed non-ASCII triple is found by its literal and by its IRI.
LABEL='http://www.w3.org/2000/01/rdf-schema#label'
curl -sf -d "<http://example.org/café> <$LABEL> \"café\"@fr ." \
    "http://127.0.0.1:$PORT/data" > /dev/null || {
    echo "verify: FAIL — POST /data refused a non-ASCII triple"
    exit 1
}
for QUERY in "SELECT ?s WHERE { ?s <$LABEL> \"café\"@fr }" \
    "SELECT ?o WHERE { <http://example.org/café> <$LABEL> ?o }"; do
    # One projected variable: one typed value per binding.
    ROWS=$(curl -sf -d "$QUERY" "http://127.0.0.1:$PORT/sparql" | grep -o '"type"' | wc -l)
    [ "$ROWS" -eq 1 ] || {
        echo "verify: FAIL — expected one binding, got '${ROWS}' for: $QUERY"
        exit 1
    }
done
# No `grep -q` here: the scrape is large, and -q exiting at the first
# match would SIGPIPE curl and trip pipefail despite the match.
curl -sf "http://127.0.0.1:$PORT/metrics" | grep '^wodex_serve_accepted_total' > /dev/null || {
    echo "verify: FAIL — /metrics did not expose wodex_serve_accepted_total"
    exit 1
}
curl -sf -X POST "http://127.0.0.1:$PORT/admin/shutdown" > /dev/null || {
    echo "verify: FAIL — /admin/shutdown refused"
    exit 1
}
wait "$SERVE_PID" || { echo "verify: FAIL — wodex serve exited non-zero"; exit 1; }
grep -q "shut down cleanly" "$SMOKE_DIR/serve.log" || {
    echo "verify: FAIL — wodex serve did not shut down cleanly"
    exit 1
}

echo "==> explore smoke (200 sessions over one shared index, one click cycle, < 20 MB RSS growth)"
awk 'BEGIN {
    split("red green blue amber ivory olive coral slate", word, " ")
    for (i = 0; i < 5000; i++) {
        s = "<http://ex.org/e" i ">"
        printf "%s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Class%d> .\n", s, i % 5
        printf "%s <http://www.w3.org/2000/01/rdf-schema#label> \"item %d %s\" .\n", s, i, word[i % 8 + 1]
        printf "%s <http://ex.org/category> <http://ex.org/cat%d> .\n", s, i % 20
        printf "%s <http://ex.org/population> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", s, (i * 7919) % 100000
        printf "%s <http://ex.org/cites> <http://ex.org/e%d> .\n", s, (i * 31 + 7) % 5000
    }
}' > "$SMOKE_DIR/explore.nt"
./target/release/wodex serve "$SMOKE_DIR/explore.nt" --workers 2 --sessions 200 \
    > "$SMOKE_DIR/explore.log" 2>&1 &
EXPLORE_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$SMOKE_DIR/explore.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: FAIL — explore smoke server never reported its port"; exit 1; }
BASE="http://127.0.0.1:$PORT"
curl -sf "$BASE/healthz" > /dev/null
rss_kb() { awk '/^VmRSS:/ { print $2 }' "/proc/$EXPLORE_PID/status"; }
RSS_BEFORE=$(rss_kb)
TOKEN=""
for _ in $(seq 1 200); do
    TOKEN=$(curl -sf -X POST "$BASE/explore/open" | sed 's/.*"session":"\([^"]*\)".*/\1/')
done
RSS_GROWTH=$(( $(rss_kb) - RSS_BEFORE ))
[ "$RSS_GROWTH" -lt 20480 ] || {
    echo "verify: FAIL — 200 session opens grew the server by ${RSS_GROWTH} kB (limit 20480)"
    exit 1
}
# One click cycle on the last session; each answer is checked against
# what the generated dataset makes it (1000 per class, 250 per category,
# 625 per colour word).
expect() { # endpoint-and-query, substring the body must contain
    local body
    body=$(curl -sf "$BASE/$1") || { echo "verify: FAIL — GET /$1 failed"; exit 1; }
    case "$body" in
        *"$2"*) ;;
        *) echo "verify: FAIL — /$1 answered without $2 (got: ${body:0:200})"; exit 1 ;;
    esac
}
S="session=$TOKEN"
CATEGORY="predicate=http%3A%2F%2Fex.org%2Fcategory"
POPULATION="predicate=http%3A%2F%2Fex.org%2Fpopulation"
expect "explore/overview?$S" '"count":1000'
expect "explore/facets?$S" '"cardinality":20'
expect "explore/filter?$S&$CATEGORY&value=http%3A%2F%2Fex.org%2Fcat3" '"matching":250,"operations":1'
expect "explore/zoom?$S&$POPULATION&lo=0&hi=1e9" '"matching":250,"operations":2'
expect "explore/search?$S&q=coral" '"operations":3'
expect "explore/hits?$S&q=coral&limit=5" '"subject":"<http://ex.org/e'
expect "explore/details?$S&iri=http%3A%2F%2Fex.org%2Fe7" '"label":"item 7 '
expect "explore/undo?$S" '"undone":"search'
expect "explore/undo?$S" '"matching":250'
expect "explore/undo?$S" '"matching":5000'
expect "viz/hist?$POPULATION&bins=16" '"values":5000'
expect "viz/chart?$POPULATION" '<svg'
expect "viz/recommend?$POPULATION" '"recommendations":[{'
expect "stats" '"active":200,"opened":200'
expect "stats" '"renders":1'
curl -sf -X POST "$BASE/admin/shutdown" > /dev/null
wait "$EXPLORE_PID" || { echo "verify: FAIL — explore smoke server exited non-zero"; exit 1; }

echo "==> segment-boot smoke (one resident store, no second copy across a chart)"
./target/release/wodex load "$SMOKE_DIR/explore.nt" --out "$SMOKE_DIR/explore_seg" > /dev/null
./target/release/wodex serve "seg:$SMOKE_DIR/explore_seg" --workers 2 \
    > "$SMOKE_DIR/segboot.log" 2>&1 &
SEGBOOT_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$SMOKE_DIR/segboot.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: FAIL — segment-boot smoke server never reported its port"; exit 1; }
BASE="http://127.0.0.1:$PORT"
expect "healthz" '"explorer_triples":25000,"live_triples":25000,"revision":0'
curl -sf -d 'SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex.org/population> ?o }' "$BASE/sparql" \
    | grep -q '"5000"' || { echo "verify: FAIL — segment-boot /sparql miscounts"; exit 1; }
TOKEN=$(curl -sf -X POST "$BASE/explore/open" | sed 's/.*"session":"\([^"]*\)".*/\1/')
S="session=$TOKEN"
expect "explore/overview?$S" '"count":1000'
expect "explore/facets?$S" '"cardinality":20'
expect "explore/filter?$S&$CATEGORY&value=http%3A%2F%2Fex.org%2Fcat3" '"matching":250,"operations":1'
expect "explore/details?$S&iri=http%3A%2F%2Fex.org%2Fe7" '"label":"item 7 '
expect "explore/undo?$S" '"matching":5000'
expect "viz/hist?$POPULATION&bins=16" '"values":5000'
# Nothing leaves a block of the boot scan behind, and nothing — a chart
# and a ranking included — makes a second copy of the dataset.
expect "stats" '"evictions":0,"bytes":0}'
expect "viz/chart?$POPULATION" '<svg'
expect "viz/recommend?$POPULATION" '"recommendations":[{'
# Measured 14.8 MB at this point, 12.0 MB before the chart (26 MB when a
# chart decoded a whole-dataset graph and kept it).
HWM_KB=$(awk '/^VmHWM:/ { print $2 }' "/proc/$SEGBOOT_PID/status")
[ "$HWM_KB" -lt 25000 ] || {
    echo "verify: FAIL — segment-booted server peaked at ${HWM_KB} kB across a chart (limit 25000)"
    exit 1
}
if curl -sf "$BASE/metrics" | grep -q 'wodex_explorer_graph_'; then
    echo "verify: FAIL — /metrics still carries a wodex_explorer_graph_ series"
    exit 1
fi
curl -sf -X POST "$BASE/admin/shutdown" > /dev/null
wait "$SEGBOOT_PID" || { echo "verify: FAIL — segment-boot smoke server exited non-zero"; exit 1; }
grep -q "shut down cleanly" "$SMOKE_DIR/segboot.log" || {
    echo "verify: FAIL — segment-boot smoke server did not shut down cleanly"
    exit 1
}

# benchmark/run.sh builds the harness (a package of its own, outside the
# workspace) against the current wodex API before it runs anything.
# explore_session goes through `wodex serve`; seg_query is the in-process
# scan path over `wodex load` segments behind a small block cache.
for workload in explore_session seg_query; do
    echo "==> standing benchmark, quick $workload run (every answer verified, failed == 0)"
    BENCH_LINE=$(bash benchmark/run.sh --quick --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -1)
    echo "$BENCH_LINE" | grep -q '"failed": 0' || {
        echo "verify: FAIL — benchmark $workload had failed operations: $BENCH_LINE"
        exit 1
    }
done

echo "==> shard chaos sweep (kill / stall / flap one of four shards)"
for seed in 7 1337; do
    echo "    WODEX_FAULT_SEED=$seed"
    WODEX_FAULT_SEED=$seed cargo test -q --offline --test shard_chaos
done

echo "==> wodex load: 150k-triple dump under a 1 MiB sort cap (external sort proof)"
SEG_DIR="$SMOKE_DIR/bulk"
awk 'BEGIN {
    for (i = 0; i < 75000; i++) {
        printf "<http://ex.org/e%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Node> .\n", i
        printf "<http://ex.org/e%d> <http://ex.org/rank> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", i, i % 997
    }
}' > "$SMOKE_DIR/dump.nt"
LOAD_OUT=$(./target/release/wodex load "$SMOKE_DIR/dump.nt" --out "$SEG_DIR" --mem-cap-mb 1)
echo "$LOAD_OUT" | grep -q "loaded 150000 unique triples" || {
    echo "verify: FAIL — wodex load lost triples (got: $LOAD_OUT)"
    exit 1
}
SPILLED=$(echo "$LOAD_OUT" | sed -n 's/^external sort: \([0-9]*\) run(s) spilled.*/\1/p')
[ -n "$SPILLED" ] && [ "$SPILLED" -ge 2 ] || {
    echo "verify: FAIL — a 1 MiB cap over 150k triples must spill >= 2 runs (got: ${SPILLED:-none})"
    exit 1
}
# Captured, not piped into `grep -q`: -q exiting at the first match
# would EPIPE the binary mid-print and trip pipefail despite the match.
COUNT_OUT=$(./target/release/wodex query "seg:$SEG_DIR" \
    'SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }')
echo "$COUNT_OUT" | grep -q '150000' || {
    echo "verify: FAIL — the bulk-loaded segment store miscounts its triples"
    exit 1
}

echo "==> wodex serve --store seg: (150k triples off segments, seg metrics, compactor stops cleanly)"
./target/release/wodex serve --store "seg:$SEG_DIR" --workers 2 \
    > "$SMOKE_DIR/seg_serve.log" 2>&1 &
SEG_PID=$!
PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$SMOKE_DIR/seg_serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: FAIL — seg-backed serve never reported its port"; exit 1; }
curl -sf -d 'SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex.org/rank> ?o }' \
    "http://127.0.0.1:$PORT/sparql?deadline_ms=10000" | grep -q '"75000"' || {
    echo "verify: FAIL — seg-backed /sparql returned the wrong count"
    exit 1
}
curl -sf "http://127.0.0.1:$PORT/metrics" | grep '^wodex_seg_blocks_read' > /dev/null || {
    echo "verify: FAIL — /metrics did not expose wodex_seg_blocks_read"
    exit 1
}
# The boot scan bypasses the decoded-block cache and served queries read
# the resident store, so nothing of the segments stays decoded in memory.
curl -sf "http://127.0.0.1:$PORT/stats" | grep '"evictions":0,"bytes":0}' > /dev/null || {
    echo "verify: FAIL — a seg-booted server kept decoded blocks resident"
    exit 1
}
curl -sf -X POST "http://127.0.0.1:$PORT/admin/shutdown" > /dev/null
wait "$SEG_PID" || { echo "verify: FAIL — seg-backed serve exited non-zero"; exit 1; }
grep -q "shut down cleanly" "$SMOKE_DIR/seg_serve.log" || {
    echo "verify: FAIL — seg-backed serve did not shut down cleanly"
    exit 1
}

echo "verify: OK"
