#!/usr/bin/env bash
# Append one row to BENCH_perf.json, the host-throughput trajectory.
#
#   ckd-perf > perf.out            # all four workloads, no --trace
#   scripts/perf_row.sh perf.out [COMMIT]
#
# The row holds COMMIT (default: `git describe --always --dirty=+`, so a
# trailing "+" marks uncommitted changes on top of that commit), the
# host's core count and calibration time, and each workload's
# end-to-end medians with q1-q3 where ckd-perf prints them. Without
# --trace, ckd-perf prints both the end-to-end lines and the host ledger
# lines this reads. A run with failures is refused.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)

out=${1:?usage: scripts/perf_row.sh CKD_PERF_STDOUT [COMMIT]}
commit=${2:-$(git -C "$root" describe --always --dirty=+)}
file=$root/BENCH_perf.json

case "$(tail -n 1 "$out")" in
    *'"failed": 0,'*) ;;
    *) echo "perf_row: $out does not end in a ckd-perf line with \"failed\": 0" >&2; exit 1 ;;
esac

row=$(awk -v commit="$commit" '
    $1 == "#" && $2 == "ckd-perf" {
        for (i = 3; i <= NF; i++) if ($i ~ /^seconds=/) seconds = substr($i, 9)
    }
    $1 == "layer" && $2 == "-" && $3 == "host.cores" { cores = $4 }
    $1 == "layer" && $2 == "-" && $3 == "host.calib_ms" { calib = $4 }
    $1 == "e2e" && $3 != "error_rate" {
        if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 }
        m = "\"" $3 "\": {\"median\": " $4
        if ($6 ~ /^q1=/ && $7 ~ /^q3=/) m = m ", \"q1\": " substr($6, 4) ", \"q3\": " substr($7, 4)
        body[$2] = body[$2] (body[$2] == "" ? "" : ", ") m "}"
    }
    END {
        if (cores == "" || calib == "" || seconds == "") exit 1
        split("sweep64 jacobi4k chanstorm backends", want, " ")
        for (i = 1; i <= 4; i++) if (!(want[i] in seen)) exit 1
        printf "    {\"commit\": \"%s\", \"seconds\": %s, \"host\": {\"cores\": %s, \"calib_ms\": %s}", \
            commit, seconds, cores, calib
        for (i = 1; i <= n; i++) printf ", \"%s\": {%s}", order[i], body[order[i]]
        printf "}\n"
    }' "$out") || {
    echo "perf_row: $out lacks the host ledger or a workload (run ckd-perf without --trace or --workload)" >&2
    exit 1
}

if [ ! -f "$file" ]; then
    printf '{\n  "schema": "ckd-perf-trajectory/v1",\n  "rows": [\n  ]\n}\n' > "$file"
fi
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
# Drop the closing "  ]" and "}", put a comma after the last row if there
# is one, then append the new row and close again.
head -n -2 "$file" | sed '$ s/}$/},/' > "$tmp"
printf '%s\n  ]\n}\n' "$row" >> "$tmp"
cat "$tmp" > "$file"
echo "perf_row: appended $commit to BENCH_perf.json"
