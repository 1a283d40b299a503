#!/usr/bin/env bash
# Compares this checkout ("change") against another checkout ("parent")
# on one perfbench workload, in alternating pairs of runs:
#
#   bash scripts/perfpairs.sh PARENT_DIR WORKLOAD [PAIRS] [SECONDS]
#
# PARENT_DIR is a full checkout of the parent commit (git clone or git
# archive, not a worktree of this one). PAIRS defaults to 10 and SECONDS,
# the length of each run, to 10. Pair i runs both trees with seed i, the
# parent first in odd pairs and the change first in even ones, so a drift
# in machine load does not favour one side. Each tree's perfbench/run.sh
# builds perfbench from that tree's source. For every end-to-end metric
# in BENCHMARK.json the script prints each side's median, quartiles and
# min-max range, the ratio of the medians (change / parent) and in how
# many pairs the change was better. A run that fails or reports a failed query stops
# the script.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 PARENT_DIR WORKLOAD [PAIRS] [SECONDS]" >&2
	exit 2
fi
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
workload=$2
pairs=${3:-10}
seconds=${4:-10}
case "$pairs$seconds" in
*[!0-9]*) echo "perfpairs: PAIRS and SECONDS must be positive integers" >&2; exit 2 ;;
esac
if [ "$pairs" -lt 1 ] || [ "$seconds" -lt 1 ]; then
	echo "perfpairs: PAIRS and SECONDS must be positive integers" >&2
	exit 2
fi
for tree in "$parent" "$change"; do
	if [ ! -f "$tree/perfbench/run.sh" ]; then
		echo "perfpairs: $tree has no perfbench/run.sh" >&2
		exit 2
	fi
done

out=$(mktemp -d "${TMPDIR:-/tmp}/perfpairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

# run SIDE TREE SEED: one perfbench run; its "# name = value unit" lines
# go to $out/SIDE.SEED.
run() {
	local log="$out/$1.$3.log"
	if ! bash "$2/perfbench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 >"$log" 2>&1; then
		echo "perfpairs: $1 run with seed $3 failed:" >&2
		tail -n 5 "$log" >&2
		exit 1
	fi
	if ! grep -q '^# failed_share=0 ' "$log"; then
		echo "perfpairs: $1 run with seed $3 reported failed queries:" >&2
		grep '^# failed_share' "$log" >&2 || true
		exit 1
	fi
	awk '$1 == "#" && $3 == "=" { print $2, $4 }' "$log" >"$out/$1.$3"
}

echo "# perfpairs: workload $workload, $pairs pairs, ${seconds} s per run"
echo "# parent: $parent"
echo "# change: $change"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
	echo "# pair $i of $pairs done" >&2
done
grep -m 1 '^# env' "$out/change.1.log" || true

# The end-to-end metrics and their directions, from BENCHMARK.json (one
# key per line, as the file is written).
awk '
	/"end_to_end"/ { inside = 1; next }
	inside && /^  \]/ { inside = 0 }
	inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$change/BENCHMARK.json" >"$out/metrics"

for i in $(seq 1 "$pairs"); do
	for side in parent change; do
		awk -v pair="$i" -v side="$side" '{ print pair, side, $1, $2 }' "$out/$side.$i"
	done
done >"$out/all"

awk -v pairs="$pairs" '
	# quantile returns the p-quantile of the sorted a[1..n], interpolating
	# linearly between order statistics.
	function quantile(a, n, p,    h, i) {
		h = 1 + (n - 1) * p
		i = int(h)
		return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
	}
	function sort(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	NR == FNR { order[++nm] = $1; better[$1] = $2; next }
	{ v[$3, $2, $1] = $4 }
	END {
		printf "%-20s %-6s  %-54s %-54s %7s %6s\n", "metric", "better", "parent median [q1, q3] (min-max)", "change median [q1, q3] (min-max)", "ratio", "wins"
		for (m = 1; m <= nm; m++) {
			name = order[m]
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "parent" : "change"
				n = 0
				for (i = 1; i <= pairs; i++)
					if ((name, side, i) in v) x[++n] = v[name, side, i] + 0
				if (n == 0) { cell[side] = "-"; med[side] = ""; continue }
				sort(x, n)
				med[side] = quantile(x, n, 0.5)
				cell[side] = sprintf("%.4g [%.4g, %.4g] (%.4g-%.4g)", med[side], quantile(x, n, 0.25), quantile(x, n, 0.75), x[1], x[n])
			}
			wins = 0
			for (i = 1; i <= pairs; i++) {
				if (!((name, "parent", i) in v) || !((name, "change", i) in v)) continue
				p = v[name, "parent", i] + 0; c = v[name, "change", i] + 0
				if (better[name] == "higher" ? c > p : c < p) wins++
			}
			ratio = med["parent"] != "" && med["parent"] != 0 && med["change"] != "" ? sprintf("%.3f", med["change"] / med["parent"]) : "-"
			printf "%-20s %-6s  %-54s %-54s %7s %3d/%d\n", name, better[name], cell["parent"], cell["change"], ratio, wins, pairs
		}
	}
' "$out/metrics" "$out/all"
