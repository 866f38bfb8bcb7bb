#!/usr/bin/env bash
# Pre-merge check: vet, build, and the full test suite under the race
# detector (the portfolio solver and the experiment harness are heavily
# concurrent; -race is not optional here), then an end-to-end smoke of
# mbaserved: boot the server on an ephemeral port, drive it with the
# client's selfcheck suite, and shut it down cleanly.
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
# Formatting gate: gofmt must have nothing to rewrite anywhere in the
# tree (perfbench included).
test -z "$(gofmt -l .)"
go build ./...
# Project-specific static analysis: budget discipline in the solver
# hot paths, atomic/plain access mixing, lock discipline, expr/bv
# immutability, fmt.Errorf %w wrapping, recover accounting, goroutine
# lifetimes, deadline flow and verdict-reason attachment. Exits
# non-zero on any finding — including stale //lint:ignore or
# //lint:daemon directives that no longer suppress anything; suppress
# only with a reasoned //lint:ignore.
go run ./cmd/mbalint ./...
# Self-check: the analyzer driver and CLI must hold themselves to the
# same contract (the driver spawns its own worker goroutines). A
# finding here means the suite can no longer lint its own machinery.
go run ./cmd/mbalint ./internal/analysis/... ./cmd/mbalint/...
# internal/harness alone runs several corpus experiments and sits near
# the default 10-minute per-package ceiling under the race detector's
# slowdown; give the suite explicit headroom for loaded CI machines.
go test -race -timeout 20m ./...

# Chaos smoke: the known-answer corpus under every injectable fault
# class, across fresh/context/portfolio/service execution, under the
# race detector. Faults may only ever produce extra Unknowns — a wrong
# verdict, a leaked goroutine or a dead worker fails the stage. (The
# full -race ./... run above already includes this package; re-running
# it by name keeps the degradation contract visible as its own stage
# and catches a skipped-package CI edit.)
go test -race -count=1 ./internal/chaos/

# Sharing + cubes smoke: the cooperating portfolio (clause sharing
# between personalities plus the cube-and-conquer fallback) must agree
# with the solo race on every verdict, under the race detector — the
# differential tests cover share on/off x cubes on/off across all
# personalities.
go test -race -count=1 ./internal/portfolio/ -run 'TestParallelMatchesSolo|TestParallelCubeFallback|TestIncrementalSharingAndCubes'

# Bench smoke: the miniature incremental-vs-fresh solver benchmark,
# the solo-vs-share+cubes benchmark, the sharded-cluster benchmark and
# the evaluation-engine benchmark must run end to end with zero
# verdict/evaluation mismatches, the solver benchmark rerun at
# BENCH_solver.json's config must reproduce its committed
# deterministic counters exactly, and the Go benchmarks must still
# execute (full numbers: scripts/bench.sh).
go test ./internal/harness/ -run 'TestSolverBenchSmoke|TestSolverBenchCountersMatchCommitted|TestParallelBenchSmoke|TestClusterBenchSmoke|TestEvalBenchSmoke'
go test ./internal/smt/ -run '^$' -bench CheckTermEquiv -benchtime 1x
go test ./internal/sat/ -run '^$' -bench Solve -benchtime 1x
go test ./internal/expr/ -run '^$' -bench Hash -benchtime 1x
go test ./internal/bv/ -run '^$' -bench Rewrite -benchtime 1x
go test ./internal/core/ -run '^$' -bench Simplify -benchtime 1x
go test ./internal/poly/ -run '^$' -bench FromExpr -benchtime 1x
go test ./internal/parser/ -run '^$' -bench Parse -benchtime 1x

# Canonical-key fuzz: the single-pass expr.Canon/Key/Hash must agree
# with the test-only quadratic reference (trees, key bytes, digests) on
# every expression the parser accepts.
go test ./internal/expr/ -run '^$' -fuzz '^FuzzCanon$' -fuzztime 10s

# Parser fuzz: the precedence-climbing, slab-allocating Parse must
# agree with the test-only recursive-descent reference (trees and error
# strings) on every ASCII input, and print/reparse must be a fixpoint.
go test ./internal/parser/ -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s

# Router splice fuzz: no node reply may panic the router, and every
# reply it accepts must splice into a valid JSON response.
go test ./internal/cluster/ -run '^$' -fuzz '^FuzzNodeReply$' -fuzztime 10s

# Simplifier fuzz: Simplify's output must equal its input exhaustively
# at width 4 (inputs of at most 3 variables) and on random bitsliced
# blocks at width 64, for every expression the parser accepts.
go test ./internal/core/ -run '^$' -fuzz '^FuzzSimplify$' -fuzztime 10s

# Benchmark gate: the end-to-end benchmark's known-answer and
# determinism tests (raw, simplified, and the service path client →
# router → node → store) at smoke size on the default and held-out
# seeds. perfbench is a separate module, so the root go test above
# never sees it.
(cd perfbench && go test ./...)

# --- mbaserved boot + selfcheck smoke ---------------------------------
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/mbaserved" ./cmd/mbaserved

logf="$bin/mbaserved.log"
: >"$logf" # the poll below reads it before the server may have opened it
"$bin/mbaserved" -addr 127.0.0.1:0 >"$logf" 2>&1 &
srv=$!
trap 'kill "$srv" 2>/dev/null || true; rm -rf "$bin"' EXIT

# The server prints "mbaserved: listening on http://HOST:PORT" once the
# listener is bound; poll for it rather than guessing a startup delay.
target=""
for _ in $(seq 1 100); do
    target=$(sed -n 's/^mbaserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "$logf")
    [ -n "$target" ] && break
    if ! kill -0 "$srv" 2>/dev/null; then
        echo "ci: mbaserved died during startup" >&2
        cat "$logf" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$target" ]; then
    echo "ci: mbaserved never announced its listen address" >&2
    cat "$logf" >&2
    exit 1
fi

# The selfcheck exercises every endpoint, asserts cache hits, replays
# an overload burst, and fails on any non-2xx answer (other than the
# admission 429s it retries) or on leaked goroutines.
go run ./cmd/mbaserved -selfcheck -target "$target"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$srv"
if ! wait "$srv"; then
    echo "ci: mbaserved did not exit cleanly on SIGTERM" >&2
    cat "$logf" >&2
    exit 1
fi
trap 'rm -rf "$bin"' EXIT
echo "ci: mbaserved smoke ok"

# --- cluster boot + selfcheck smoke -----------------------------------
# Three mbaserved nodes behind an mbarouter: the router's selfcheck
# drives a routed solve and a deduplicating batch through the ring,
# again after one node is killed, then every surviving process must
# drain cleanly on SIGTERM.
go build -o "$bin/mbarouter" ./cmd/mbarouter

nodes=""
node_pids=()
for i in 1 2 3; do
    nlog="$bin/node$i.log"
    : >"$nlog"
    "$bin/mbaserved" -addr 127.0.0.1:0 >"$nlog" 2>&1 &
    node_pids+=($!)
done
trap 'kill "${node_pids[@]}" 2>/dev/null || true; rm -rf "$bin"' EXIT
for i in 1 2 3; do
    nlog="$bin/node$i.log"
    url=""
    for _ in $(seq 1 100); do
        url=$(sed -n 's/^mbaserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "$nlog")
        [ -n "$url" ] && break
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "ci: cluster node $i never announced its listen address" >&2
        cat "$nlog" >&2
        exit 1
    fi
    nodes="${nodes:+$nodes,}$url"
done

rlog="$bin/mbarouter.log"
: >"$rlog"
"$bin/mbarouter" -addr 127.0.0.1:0 -nodes "$nodes" >"$rlog" 2>&1 &
router=$!
trap 'kill "$router" "${node_pids[@]}" 2>/dev/null || true; rm -rf "$bin"' EXIT

router_url=""
for _ in $(seq 1 100); do
    router_url=$(sed -n 's/^mbarouter: routing [0-9]* nodes on \(http:\/\/[^ ]*\)$/\1/p' "$rlog")
    [ -n "$router_url" ] && break
    if ! kill -0 "$router" 2>/dev/null; then
        echo "ci: mbarouter died during startup" >&2
        cat "$rlog" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$router_url" ]; then
    echo "ci: mbarouter never announced its listen address" >&2
    cat "$rlog" >&2
    exit 1
fi

# The router selfcheck asserts readiness, a routed single solve, and a
# batch with a duplicate pair (Deduped >= 1), order-preserving verdicts
# and a request ID on the response.
go run ./cmd/mbarouter -selfcheck -target "$router_url"

# Failover on real connection errors: SIGKILL node 1 and rerun the
# selfcheck. Its routed single solve and deduplicating batch must walk
# past the dead replica to a live one.
kill -KILL "${node_pids[0]}"
wait "${node_pids[0]}" 2>/dev/null || true
go run ./cmd/mbarouter -selfcheck -target "$router_url"

# Node 1's circuit breaker must have tripped on real processes: within
# 5 s the router's /debug/metrics reports ejects >= 1 and node 1 in a
# state other than healthy (ejected, or probing for readmission).
node1_url=${nodes%%,*}
deadline=$((SECONDS + 5))
tripped=""
metrics=""
while [ "$SECONDS" -lt "$deadline" ]; do
    metrics=$(curl -fsS --max-time 1 "$router_url/debug/metrics" || true)
    ejects=$(printf '%s' "$metrics" | sed -n 's/.*"ejects":\([0-9]*\).*/\1/p')
    state=$(printf '%s' "$metrics" | sed -n "s|.*\"$node1_url\":\"\([a-z]*\)\".*|\1|p")
    if [ "${ejects:-0}" -ge 1 ] && [ -n "$state" ] && [ "$state" != healthy ]; then
        tripped=1
        break
    fi
    sleep 0.1
done
if [ -z "$tripped" ]; then
    echo "ci: router never ejected the killed node 1 ($node1_url)" >&2
    echo "$metrics" >&2
    exit 1
fi

# Graceful shutdown: router first, then the surviving nodes; every
# SIGTERM must drain and exit 0.
kill -TERM "$router"
if ! wait "$router"; then
    echo "ci: mbarouter did not exit cleanly on SIGTERM" >&2
    cat "$rlog" >&2
    exit 1
fi
for i in 2 3; do
    pid="${node_pids[$((i - 1))]}"
    kill -TERM "$pid"
    if ! wait "$pid"; then
        echo "ci: cluster node $i did not exit cleanly on SIGTERM" >&2
        cat "$bin/node$i.log" >&2
        exit 1
    fi
done
trap 'rm -rf "$bin"' EXIT
echo "ci: cluster smoke ok"

# --- store crash-restart smoke ----------------------------------------
# The crash-safety contract, end to end on a live process: boot with a
# persistent store, fill it via the selfcheck, SIGKILL the server (no
# drain, no store Close — whatever the group-commit ticker had flushed
# is all the disk gets), then reboot from the same directory. The
# second boot must log a recovery line, and the second selfcheck —
# running with -expect-store-recovered — must see its deterministic
# queries answered from disk (store hits > 0) without pool admissions.
storedir="$bin/store"
mkdir -p "$storedir"

slog="$bin/store-boot1.log"
: >"$slog"
"$bin/mbaserved" -addr 127.0.0.1:0 -store "$storedir" >"$slog" 2>&1 &
srv=$!
trap 'kill -9 "$srv" 2>/dev/null || true; rm -rf "$bin"' EXIT
target=""
for _ in $(seq 1 100); do
    target=$(sed -n 's/^mbaserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "$slog")
    [ -n "$target" ] && break
    if ! kill -0 "$srv" 2>/dev/null; then
        echo "ci: mbaserved (-store, boot 1) died during startup" >&2
        cat "$slog" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$target" ]; then
    echo "ci: mbaserved (-store, boot 1) never announced its listen address" >&2
    cat "$slog" >&2
    exit 1
fi

"$bin/mbaserved" -selfcheck -target "$target"

# Give the group-commit ticker a beat to fsync the selfcheck's verdicts,
# then kill without ceremony: SIGKILL is the crash the store exists for.
sleep 0.5
kill -9 "$srv"
wait "$srv" 2>/dev/null || true

slog2="$bin/store-boot2.log"
: >"$slog2"
"$bin/mbaserved" -addr 127.0.0.1:0 -store "$storedir" >"$slog2" 2>&1 &
srv=$!
trap 'kill -9 "$srv" 2>/dev/null || true; rm -rf "$bin"' EXIT
target=""
for _ in $(seq 1 100); do
    target=$(sed -n 's/^mbaserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "$slog2")
    [ -n "$target" ] && break
    if ! kill -0 "$srv" 2>/dev/null; then
        echo "ci: mbaserved (-store, boot 2) died during startup after SIGKILL" >&2
        cat "$slog2" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$target" ]; then
    echo "ci: mbaserved (-store, boot 2) never announced its listen address" >&2
    cat "$slog2" >&2
    exit 1
fi

# The second boot must have replayed a non-empty log: the recovery line
# precedes the listening line and reports a non-zero record count.
if ! grep -Eq '^mbaserved: store .*: recovered [1-9][0-9]* record\(s\)' "$slog2"; then
    echo "ci: second boot did not recover any records from $storedir" >&2
    cat "$slog2" >&2
    exit 1
fi

"$bin/mbaserved" -selfcheck -target "$target" -expect-store-recovered

# This boot was warm: graceful shutdown must still drain and exit 0.
kill -TERM "$srv"
if ! wait "$srv"; then
    echo "ci: mbaserved (-store, boot 2) did not exit cleanly on SIGTERM" >&2
    cat "$slog2" >&2
    exit 1
fi
trap 'rm -rf "$bin"' EXIT
echo "ci: store crash-restart smoke ok"
