#!/usr/bin/env bash
# Runs the Criterion benches (identify, remedy, pipeline, serve, persist) and
# records the median time of every benchmark into BENCH_core.json, tagged with
# the git revision and UTC date. The persist bench contributes the
# dataset_cold_load_ms comparison (text parse vs binary columnar decode of a
# 1M-row synthetic). Extra arguments are forwarded to `cargo bench`
# (e.g. `scripts/bench.sh remedy_large` to filter).
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_core.json
log=$(mktemp)
trap 'rm -f "$log"' EXIT

for bench in identify remedy pipeline serve persist; do
    cargo bench -p remedy-bench --bench "$bench" -- "$@" | tee -a "$log"
done

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# The vendored criterion shim prints one line per benchmark:
#   <id>  time: [<min> <u> <median> <u> <max> <u>]
awk -v rev="$rev" -v date="$date" '
    /time: \[/ {
        id = $1
        match($0, /\[[^]]*\]/)
        split(substr($0, RSTART + 1, RLENGTH - 2), t, /[[:space:]]+/)
        ns = t[3] + 0
        unit = t[4]
        if (unit == "µs") ns *= 1e3
        else if (unit == "ms") ns *= 1e6
        else if (unit == "s") ns *= 1e9
        ids[n++] = id
        medians[id] = ns
    }
    END {
        if (n == 0) {
            print "no benchmark output parsed" > "/dev/stderr"
            exit 1
        }
        printf "{\n  \"git_rev\": \"%s\",\n  \"date\": \"%s\",\n  \"median_ns\": {\n", rev, date
        for (i = 0; i < n; i++) {
            id = ids[i]
            printf "    \"%s\": %.0f%s\n", id, medians[id], (i < n - 1 ? "," : "")
        }
        printf "  }"
        text = medians["persist/cold_load_text_1m"]
        binary = medians["persist/cold_load_binary_1m"]
        if (text > 0 && binary > 0) {
            printf ",\n  \"dataset_cold_load_ms\": {\n"
            printf "    \"rows\": 1000000,\n"
            printf "    \"text\": %.3f,\n", text / 1e6
            printf "    \"binary\": %.3f,\n", binary / 1e6
            printf "    \"speedup\": %.1f\n", text / binary
            printf "  }"
        }
        recover = medians["serve/serve_recover_1m"]
        if (recover > 0) {
            printf ",\n  \"serve_recover_ms\": {\n"
            printf "    \"rows\": 1000000,\n"
            printf "    \"wal_batches\": 64,\n"
            printf "    \"median\": %.3f\n", recover / 1e6
            printf "  }"
        }
        printf "\n}\n"
    }
' "$log" > "$out"

echo "wrote $out ($(grep -c '":' "$out") lines)"
