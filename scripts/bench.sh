#!/usr/bin/env bash
# Solver benchmark: measures incremental contexts (hash-consed terms +
# one warm SAT solver per personality, queries checked under activation
# literals) against the fresh-solver-per-query baseline on a repeated
# corpus, and writes the JSON report to BENCH_solver.json at the repo
# root. The report also cross-checks verdicts between the two modes;
# "mismatches" must be 0.
#
# The cluster stage boots in-process mbaserved nodes behind an
# mbarouter ring at 1/2/3 nodes, drives one known-answer batch through
# each cluster cold and warm, checks every definitive verdict against
# ground truth (mismatches must be 0) and writes BENCH_cluster.json.
# Cold scaling is capped by min(nodes, cores) when all nodes share one
# machine — the report records the core count; the warm rows carry the
# shard-locality story regardless.
#
# The eval stage benchmarks the evaluation engines — the tree-walking
# interpreter against the flat bytecode program (scalar, bitsliced and
# cost-model auto) — on a generated width-64 MBA corpus, and writes
# BENCH_eval.json. Every bytecode output is differentially checked
# against the interpreter; "mismatches" must be 0, and the auto engine
# is expected to clear 20x the interpreter's throughput.
#
# Tunables (env):
#   BENCH_N          corpus equations            (default 6)
#   BENCH_REPEATS    round-robin passes          (default 4)
#   BENCH_SEED       corpus generator seed       (default 11)
#   BENCH_WIDTH      bitvector width             (default 8)
#   BENCH_OUT        solver report file          (default BENCH_solver.json)
#   CLUSTER_BENCH_N  cluster corpus equations    (default 12)
#   CLUSTER_BENCH_SEED     cluster corpus seed   (default 1)
#   CLUSTER_BENCH_REPEATS  warm batches per size (default 4)
#   CLUSTER_BENCH_OUT      cluster report file   (default BENCH_cluster.json)
#   EVAL_BENCH_OUT   eval report file            (default BENCH_eval.json)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-BENCH_solver.json}"
go run ./cmd/mbabench \
    -bench "$out" \
    -bench-samples "${BENCH_N:-6}" \
    -repeats "${BENCH_REPEATS:-4}" \
    -seed "${BENCH_SEED:-11}" \
    -width "${BENCH_WIDTH:-8}"
echo "bench: wrote $out"

cluster_out="${CLUSTER_BENCH_OUT:-BENCH_cluster.json}"
go run ./cmd/mbabench \
    -cluster-bench "$cluster_out" \
    -bench-samples "${CLUSTER_BENCH_N:-12}" \
    -repeats "${CLUSTER_BENCH_REPEATS:-4}" \
    -seed "${CLUSTER_BENCH_SEED:-1}" \
    -width "${BENCH_WIDTH:-8}"
echo "bench: wrote $cluster_out"

# The eval bench sizes and widths itself (width-64 corpus, its own
# sample count) — BENCH_WIDTH deliberately does not apply here.
eval_out="${EVAL_BENCH_OUT:-BENCH_eval.json}"
go run ./cmd/mbabench -eval-bench "$eval_out"
echo "bench: wrote $eval_out"
