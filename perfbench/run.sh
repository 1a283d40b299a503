#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload live-lowcard --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the span files of traced runs stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD)
	if [ -n "$(GIT_OPTIONAL_LOCKS=0 git -C "$root" status --porcelain --untracked-files=no)" ]; then
		commit="$commit-dirty"
	fi
fi

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -commit "$commit" -spans-dir "$out/spans" "$@"
