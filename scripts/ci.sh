#!/usr/bin/env bash
# CI entry point: build and test under the default preset (warnings
# as errors) and the ASan+UBSan preset (the latter pinned to the
# portable ttable crypto so sanitizers cover the word-oriented hot
# path), smoke-run the crypto microbenchmarks from a Release build,
# then exercise the stats-diff regression gate end to end (a
# same-seed rerun must be drift-free, a perturbed run must be
# flagged with a non-zero exit).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake --preset default -DHCC_WERROR=ON
cmake --build --preset default -j"$jobs"
ctest --preset default -j"$jobs"

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$jobs"
ctest --preset asan-ubsan -j"$jobs"

# ThreadSanitizer over the parallel engines: the sweep, fault
# campaign and serve determinism tests race real workers over shared
# queues (grid_test pins the shared writers' bytes), so
# TSan gates the pool's synchronization and the per-cell isolation
# claim (each campaign cell owns its Context/Registry/Injector).
# obs_test and snap_test cover the one state registries share across
# threads: the process-wide stat-name pool.
cmake --preset tsan
cmake --build --preset tsan -j"$jobs" \
    --target sweep_test fault_test critpath_test overlap_test \
        serve_test grid_test obs_test snap_test
build-tsan/tests/sweep_test
build-tsan/tests/fault_test
build-tsan/tests/critpath_test
build-tsan/tests/overlap_test
build-tsan/tests/serve_test
build-tsan/tests/grid_test
build-tsan/tests/obs_test
build-tsan/tests/snap_test

hccsim=build/tools/hccsim
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Crypto bench smoke: a short Release-build run proves the benchmark
# harness and its JSON export stay alive (full numbers are recorded
# manually in BENCH_crypto.json, not gated here).  The Release build
# is warning-free too: -O3 inlines deeper and warns where the default
# preset does not.
cmake --preset release -DHCC_WERROR=ON
cmake --build --preset release -j"$jobs" --target microbench_crypto
build-release/bench/microbench_crypto \
    --benchmark_filter='BM_GcmSeal' --benchmark_min_time=0.05 \
    --json "$tmp/bench.json" >/dev/null
test -s "$tmp/bench.json"

# Sim-throughput smoke: a short Release run of the large LLM figure
# cell proves the end-to-end simulation hot path and its JSON export
# stay alive (tracked numbers live in BENCH_sim.json, measured with
# interleaved A/B medians — shared CI hosts are too noisy to gate on
# absolute wall-clock, see docs/PERF.md).
cmake --build --preset release -j"$jobs" --target microbench_sim
build-release/bench/microbench_sim \
    --benchmark_filter='BM_LlmDecodeCell' --benchmark_min_time=0.05 \
    --benchmark_out="$tmp/bench_sim.json" \
    --benchmark_out_format=json >/dev/null
test -s "$tmp/bench_sim.json"

# Byte-identity gate for the hot-path optimizations: a fig13 cell
# (cnn --cc) must reproduce the committed baseline stats exactly —
# arena/interning/range-batching/downsampling must not shift a
# single counter or RNG draw.
"$hccsim" run --app cnn --cc --stats-out "$tmp/cnn_cc.json" >/dev/null
"$hccsim" stats-diff bench/baselines/cnn_cc_stats.json \
    "$tmp/cnn_cc.json"
cmp bench/baselines/cnn_cc_stats.json "$tmp/cnn_cc.json"

# Fig. 3 gate: the performance-model report (alpha, beta, T_other,
# the predicted P) of three CC cells must reproduce the committed
# stdout exactly.  llm pins beta, cnntrain alpha and beta, kmeans
# alpha; no stats dump carries these numbers.
for app in llm cnntrain kmeans; do
    "$hccsim" run --app "$app" --cc
done > "$tmp/fig03_run_cc.txt"
cmp bench/baselines/fig03_run_cc.txt "$tmp/fig03_run_cc.txt"

# Critical-path gate: the Fig. 14 LLM cell's stats (which embed the
# critical_path block, the critpath.* counters and so the bottleneck
# label) must reproduce the committed baseline exactly, and the
# human report must be byte-identical across repeated runs.
"$hccsim" critical --app llm --cc \
    --stats-out "$tmp/fig14.json" > "$tmp/crit1.txt"
"$hccsim" stats-diff bench/baselines/critpath_fig14.json \
    "$tmp/fig14.json"
cmp bench/baselines/critpath_fig14.json "$tmp/fig14.json"
"$hccsim" critical --app llm --cc > "$tmp/crit2.txt"
cmp "$tmp/crit1.txt" "$tmp/crit2.txt"

# The calibration subcommand must run end to end.
"$hccsim" crypto-calibrate --ms 1 >/dev/null

# Sweep smoke + the tentpole guarantee: the merged stats of the same
# grid must be byte-identical whether one worker or four ran it.
"$hccsim" sweep --apps gaussian,atax --jobs 1 \
    --out "$tmp/cells1.csv" --format csv \
    --stats-out "$tmp/sweep1.json" >/dev/null
"$hccsim" sweep --apps gaussian,atax --jobs 4 \
    --out "$tmp/cells4.csv" --format csv \
    --stats-out "$tmp/sweep4.json" >/dev/null
cmp "$tmp/cells1.csv" "$tmp/cells4.csv"
cmp "$tmp/sweep1.json" "$tmp/sweep4.json"
# The same identity for the per-cell JSON writer.
for j in 1 4; do
    "$hccsim" sweep --apps gaussian,atax --jobs "$j" \
        --out "$tmp/cells$j.json" --format json >/dev/null
done
cmp "$tmp/cells1.json" "$tmp/cells4.json"
"$hccsim" stats-diff "$tmp/sweep1.json" "$tmp/sweep4.json" >/dev/null

"$hccsim" run --app gaussian --cc --stats-out "$tmp/a.json" >/dev/null
"$hccsim" run --app gaussian --cc --stats-out "$tmp/b.json" >/dev/null
"$hccsim" stats-diff "$tmp/a.json" "$tmp/b.json"

"$hccsim" run --app gaussian --cc --scale 2 \
    --stats-out "$tmp/c.json" >/dev/null
if "$hccsim" stats-diff "$tmp/a.json" "$tmp/c.json" >/dev/null; then
    echo "ERROR: stats-diff did not flag a perturbed run" >&2
    exit 1
fi

# Overlap ablation gate: the bigxfer grid across all three copy-
# pipeline tiers must merge byte-identically for any --jobs and
# reproduce the committed baseline exactly — the staged pipeline,
# the speculative IV engine and the per-stage counters may not shift
# a single draw (docs/OVERLAP.md).
"$hccsim" sweep --apps bigxfer --cc-modes both --overlap all \
    --jobs 1 --out "$tmp/overlap1.csv" --format csv \
    --stats-out "$tmp/overlap1.json" >/dev/null
"$hccsim" sweep --apps bigxfer --cc-modes both --overlap all \
    --jobs 4 --out "$tmp/overlap4.csv" --format csv \
    --stats-out "$tmp/overlap4.json" >/dev/null
cmp "$tmp/overlap1.csv" "$tmp/overlap4.csv"
cmp "$tmp/overlap1.json" "$tmp/overlap4.json"
"$hccsim" stats-diff bench/baselines/overlap_ablation_stats.json \
    "$tmp/overlap1.json"
cmp bench/baselines/overlap_ablation_stats.json "$tmp/overlap1.json"

# Fault-campaign smoke + determinism: the sites x rates x seeds grid
# must merge byte-identically for any --jobs, and an armed fault site
# must actually perturb the run (stats-diff flags it vs unfaulted).
"$hccsim" faults --app gaussian --rates 0.5 --seeds 42 --jobs 1 \
    --out "$tmp/faults1.csv" --format csv \
    --stats-out "$tmp/faults1.json" >/dev/null
"$hccsim" faults --app gaussian --rates 0.5 --seeds 42 --jobs 4 \
    --out "$tmp/faults4.csv" --format csv \
    --stats-out "$tmp/faults4.json" >/dev/null
cmp "$tmp/faults1.csv" "$tmp/faults4.csv"
cmp "$tmp/faults1.json" "$tmp/faults4.json"
for j in 1 4; do
    "$hccsim" faults --app gaussian --rates 0.5 --seeds 42 --jobs "$j" \
        --out "$tmp/fault_cells$j.json" --format json >/dev/null
done
cmp "$tmp/fault_cells1.json" "$tmp/fault_cells4.json"
"$hccsim" stats-diff bench/baselines/faults_gaussian_stats.json \
    "$tmp/faults1.json"
cmp bench/baselines/faults_gaussian_stats.json "$tmp/faults1.json"
"$hccsim" run --app gaussian --cc --faults channel.tag_mismatch=1 \
    --stats-out "$tmp/faulted.json" >/dev/null
if "$hccsim" stats-diff "$tmp/a.json" "$tmp/faulted.json" \
    >/dev/null; then
    echo "ERROR: injected faults did not change the run" >&2
    exit 1
fi

# Channel fault paths in every overlap tier: tag-mismatch retries and
# re-attestation, bounce stalls and speculation misses on bigxfer must
# reproduce the committed per-cell CSV exactly, for any --jobs.  The
# other baselines pin faults under `none` only, or no faults at all.
for j in 1 4; do
    "$hccsim" faults --app bigxfer --overlap all \
        --sites channel.tag_mismatch,bounce.exhausted,spec.miss \
        --rates 0.05,0.5 --seeds 1 --jobs "$j" \
        --out "$tmp/channel_tiers$j.csv" --format csv >/dev/null
    cmp bench/baselines/faults_channel_tiers.csv \
        "$tmp/channel_tiers$j.csv"
done

# Reuse check for a fork-mode campaign's summary ($1) and CSV ($2):
# each faulted cell whose faults cannot fire takes its seed's
# unfaulted result instead of replaying, so the summary's reused count
# must equal the faulted rows that injected nothing, and be non-zero
# so the gate keeps exercising reuse.
check_reused() {
    local want got
    want="$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
        $col["status"] == "ok" && $col["site"] != "baseline" \
            && $col["injected"] == 0 { n++ }
        END { print n + 0 }' "$2")"
    got="$(sed -n 's/.*, \([0-9]*\) reused an unfaulted sibling.*/\1/p' \
        "$1")"
    if [ "$got" != "$want" ] || [ "$want" -eq 0 ]; then
        echo "ERROR: $1 reports '$got' reused cells; $2 has $want" \
            "faulted rows that injected nothing" >&2
        exit 1
    fi
}

# Chained-fork gate: a three-cut path with several seeds and faults in
# every overlap tier.  Each seed runs its segments from the first cut
# to the last once and its cells replay from that one capture; the
# per-cell CSV must reproduce the committed baseline at any --jobs and
# under the cold-split control, and the merged stats ($1 names the
# arm's file) must agree across the three arms: reused cells share
# their seed's registry, which the stats writer renders once.
chain_tree() {
    local arm="$1"
    shift
    "$hccsim" faults --app gaussian --overlap all \
        --fork-point 0.5/0.8/0.9 \
        --sites pcie.replay,channel.tag_mismatch,spec.miss \
        --rates 0.25,0.5 --seeds 1,2,3 "$@" \
        --out "$tmp/chain_tree.csv" --format csv \
        --stats-out "$tmp/chain_tree_$arm.json" >"$tmp/chain_tree.txt"
    cmp bench/baselines/faults_chain_tree.csv "$tmp/chain_tree.csv"
}
chain_tree jobs1 --jobs 1
check_reused "$tmp/chain_tree.txt" "$tmp/chain_tree.csv"
chain_tree jobs4 --jobs 4
chain_tree cold --no-snapshot
cmp "$tmp/chain_tree_jobs1.json" "$tmp/chain_tree_jobs4.json"
cmp "$tmp/chain_tree_jobs1.json" "$tmp/chain_tree_cold.json"

# Serving smoke + determinism + the saturation gate: the open-loop
# goodput curve must merge byte-identically for any --jobs and
# reproduce the committed baseline exactly — the committed stats
# embed the serve_curve, whose CC-vs-native goodput gap widens as
# offered load approaches saturation (the paper-shaped result this
# subcommand exists to produce).
"$hccsim" serve --requests 40 --loads 2,8 --prompt-len 128 \
    --gen-len 16 --max-batch 8 --kv-budget 64 --seed 42 --jobs 1 \
    --out "$tmp/serve1.csv" --format csv \
    --stats-out "$tmp/serve1.json" >/dev/null
"$hccsim" serve --requests 40 --loads 2,8 --prompt-len 128 \
    --gen-len 16 --max-batch 8 --kv-budget 64 --seed 42 --jobs 4 \
    --out "$tmp/serve4.csv" --format csv \
    --stats-out "$tmp/serve4.json" >/dev/null
cmp "$tmp/serve1.csv" "$tmp/serve4.csv"
cmp "$tmp/serve1.json" "$tmp/serve4.json"
for j in 1 4; do
    "$hccsim" serve --requests 40 --loads 2,8 --prompt-len 128 \
        --gen-len 16 --max-batch 8 --kv-budget 64 --seed 42 \
        --jobs "$j" --out "$tmp/serve_cells$j.json" --format json \
        >/dev/null
done
cmp "$tmp/serve_cells1.json" "$tmp/serve_cells4.json"
"$hccsim" stats-diff bench/baselines/serve_llm_stats.json \
    "$tmp/serve1.json"
cmp bench/baselines/serve_llm_stats.json "$tmp/serve1.json"

# Fork-vs-cold gate: a snapshot-forked campaign must be byte-identical
# to the cold-split control (same late arming point, no shared state)
# for every output — per-cell CSV and merged stats — and across
# worker counts.  This is the hard bar of the snapshot engine: replay
# from a restored snapshot may not shift a single counter or draw.
"$hccsim" faults --app gaussian --rates 0.25,0.5 --seeds 41,42 \
    --fork-point auto --jobs 1 \
    --out "$tmp/fork.csv" --format csv \
    --stats-out "$tmp/fork.json" >"$tmp/fork.txt"
check_reused "$tmp/fork.txt" "$tmp/fork.csv"
"$hccsim" faults --app gaussian --rates 0.25,0.5 --seeds 41,42 \
    --fork-point auto --jobs 4 \
    --out "$tmp/fork4.csv" --format csv \
    --stats-out "$tmp/fork4.json" >/dev/null
"$hccsim" faults --app gaussian --rates 0.25,0.5 --seeds 41,42 \
    --fork-point auto --no-snapshot --jobs 4 \
    --out "$tmp/cold.csv" --format csv \
    --stats-out "$tmp/cold.json" >/dev/null
cmp "$tmp/fork.csv" "$tmp/fork4.csv"
cmp "$tmp/fork.json" "$tmp/fork4.json"
cmp "$tmp/fork.csv" "$tmp/cold.csv"
cmp "$tmp/fork.json" "$tmp/cold.json"
"$hccsim" stats-diff "$tmp/cold.json" "$tmp/fork.json"

# Snapshot subcommand smoke: capture a prefix snapshot to disk and
# inspect it back (the file must carry the app and section table).
# Archived types carry no padding bytes, so a second capture of the
# same run must write the same file, digests included.
"$hccsim" snapshot --app llm --cc --out "$tmp/llm.snap" >/dev/null
"$hccsim" snapshot --app llm --cc --out "$tmp/llm2.snap" >/dev/null
cmp "$tmp/llm.snap" "$tmp/llm2.snap"
"$hccsim" snapshot --inspect "$tmp/llm.snap" | grep -q "app: *llm"
"$hccsim" snapshot --inspect "$tmp/llm.snap" | grep -q "trace"

# Error-path smoke: a bad flag or input file exits 2 and misuse found
# at run time exits 1, each with exactly one `error:` line on stderr,
# within 10 s.  fatal() logs nothing, so no `[error]` log line may
# appear.
expect_error() {
    local want="$1" rc=0
    shift
    timeout 10 "$hccsim" "$@" >/dev/null 2>"$tmp/err.txt" || rc=$?
    if [ "$rc" != "$want" ] \
        || [ "$(grep -c '^error: ' "$tmp/err.txt")" != 1 ] \
        || grep -q '^\[error\]' "$tmp/err.txt"; then
        echo "ERROR: hccsim $* exited $rc, not $want; stderr:" >&2
        cat "$tmp/err.txt" >&2
        exit 1
    fi
}
printf 'apps = atax\nseeds = 1,-2\n' > "$tmp/bad.grid"
printf 'name x\ninput abc\nphase k 1 1us\n' > "$tmp/bad.spec"
# A device buffer past the HBM: copied in 4 MiB chunks, it would run
# for hours instead of failing.
printf 'name x\ninput 16000000000GiB\nphase k 1 1us\n' > "$tmp/huge.spec"
# Launch counts whose total would overflow an int (the first phase
# alone already passes the spec launch budget).
printf 'name x\nphase a 2000000000 1us\nphase b 2000000000 1us\n' \
    > "$tmp/launches.spec"
# One phase past the spec launch budget: legal as an int, it would
# run for half an hour instead of failing.
printf 'name x\nphase k 2000000000 1us\n' > "$tmp/long.spec"
head -c 100 "$tmp/llm.snap" > "$tmp/short.snap"
expect_error 2 run --app atax --scale zero
expect_error 2 sweep --spec "$tmp/bad.grid"
expect_error 2 run --spec "$tmp/bad.spec"
expect_error 2 run --spec "$tmp/huge.spec"
expect_error 2 run --spec "$tmp/launches.spec"
expect_error 2 run --spec "$tmp/long.spec"
expect_error 2 stats-diff "$tmp/missing.json" "$tmp/a.json"
expect_error 2 snapshot --inspect "$tmp/short.snap"
expect_error 1 run --app atax --stats-out "$tmp/missing-dir/s.json"
# A device allocation past the HBM fails like cudaMalloc.
expect_error 1 run --app atax --scale 1e9

# Campaign-throughput smoke: a short fork-point campaign must finish
# and its bench JSON must materialize (the tracked ≥15x fork-vs-cold
# numbers live in BENCH_campaign.json, measured on a quiet host with
# the Release binary — same policy as BENCH_sim.json).
release_hccsim=build-release/tools/hccsim
cmake --build --preset release -j"$jobs" --target hccsim
t_fork_us="$("$release_hccsim" faults --app llm --seeds 1,2,3 \
    --rates 0.1,0.5 --fork-point auto --jobs 1 \
    --out "$tmp/camp_fork.csv" --format csv \
    | sed -n 's/.*wall \([0-9.]*\) \(m\?s\)$/\1 \2/p')"
t_cold_us="$("$release_hccsim" faults --app llm --seeds 1,2,3 \
    --rates 0.1,0.5 --fork-point auto --no-snapshot --jobs 1 \
    --out "$tmp/camp_cold.csv" --format csv \
    | sed -n 's/.*wall \([0-9.]*\) \(m\?s\)$/\1 \2/p')"
cmp "$tmp/camp_fork.csv" "$tmp/camp_cold.csv"
printf '{\n  "fork_wall": "%s",\n  "cold_wall": "%s"\n}\n' \
    "$t_fork_us" "$t_cold_us" > "$tmp/bench_campaign.json"
test -s "$tmp/bench_campaign.json"

# Snapshot-tree gate: the nested 12168-cell overlap x site x rate x
# seed llm grid (the BENCH_campaign.json grid) must be byte-identical
# between fork mode and the cold-split control, stable across --jobs,
# and >= 15x faster.  Fork mode builds one cross-seed snapshot tree
# per overlap tier; cold re-simulates the full chain per cell, so
# this is the one long step of the script (~1 min of cold cells).
tree_rates="$(seq -s, 0.01 0.01 0.24)"
tree_seeds="$(seq -s, 1 24)"
# Best-of-2 for the fork arm: its ~3 s wall is where scheduler noise
# shows up; the ~55 s cold arm is long enough to be stable.
tree_fork_ms=""
for _ in 1 2; do
    ms="$("$release_hccsim" faults --app llm \
        --seeds "$tree_seeds" --rates "$tree_rates" --overlap all \
        --fork-point auto/0.99 --jobs 1 \
        --out "$tmp/tree_fork.csv" --format csv \
        --stats-out "$tmp/tree_fork.json" \
        | sed -n 's/.*wall \([0-9.]*\) ms$/\1/p')"
    tree_fork_ms="$(awk -v a="$tree_fork_ms" -v b="$ms" \
        'BEGIN { print (a == "" || b + 0 < a + 0) ? b : a }')"
done
"$release_hccsim" faults --app llm \
    --seeds "$tree_seeds" --rates "$tree_rates" --overlap all \
    --fork-point auto/0.99 --jobs 4 \
    --out "$tmp/tree_fork4.csv" --format csv \
    --stats-out "$tmp/tree_fork4.json" >/dev/null
tree_cold_ms="$("$release_hccsim" faults --app llm \
    --seeds "$tree_seeds" --rates "$tree_rates" --overlap all \
    --fork-point auto/0.99 --no-snapshot --jobs 1 \
    --out "$tmp/tree_cold.csv" --format csv \
    --stats-out "$tmp/tree_cold.json" \
    | sed -n 's/.*wall \([0-9.]*\) ms$/\1/p')"
cmp "$tmp/tree_fork.csv" "$tmp/tree_fork4.csv"
cmp "$tmp/tree_fork.json" "$tmp/tree_fork4.json"
cmp "$tmp/tree_fork.csv" "$tmp/tree_cold.csv"
cmp "$tmp/tree_fork.json" "$tmp/tree_cold.json"
"$release_hccsim" stats-diff "$tmp/tree_cold.json" \
    "$tmp/tree_fork.json"
awk -v c="$tree_cold_ms" -v f="$tree_fork_ms" 'BEGIN {
    if (!(c > 0) || !(f > 0)) {
        print "ci: could not parse tree campaign wall times";
        exit 1;
    }
    s = c / f;
    printf "ci: snapshot-tree speedup %.2fx (cold %.1f ms / fork %.1f ms)\n", s, c, f;
    exit (s >= 15.0 ? 0 : 1);
}'

echo "ci: all checks passed"
