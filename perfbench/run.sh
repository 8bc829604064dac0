#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it runs
# in and executes it with the given arguments. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload solve-open --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays
# under .bench_build/ in the checkout; results and spans go to
# .bench_out/. Build output goes to standard error, so the last line of
# standard output is always the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -trimpath -ldflags "-X main.gitCommit=$commit" -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
