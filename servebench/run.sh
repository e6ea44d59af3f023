#!/usr/bin/env bash
# Builds csgen, csserve and the servebench program from this checkout, then
# runs the program with the given arguments, e.g.
#
#   bash servebench/run.sh --workload analytic --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, datasets, server logs, results) stays under
# .bench_build/servebench in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work="$root/.bench_build/servebench"
mkdir -p "$work/home" "$work/tmp" "$work/bin"

export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home/.config"
export XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

# With telemetry on (its default is "local") the go command forks a detached
# sidecar process that outlives the build; turning it off keeps every process
# this script starts under its control.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/csserve" ] || [ ! -d "$root/cmd/csgen" ]; then
	echo "servebench: $root holds no matstore checkout (go.mod, cmd/csgen, cmd/csserve)" >&2
	exit 1
fi

(cd "$root" && go build -o "$work/bin/" ./cmd/csgen ./cmd/csserve)
(cd "$here" && go build -o "$work/bin/servebench" .)
exec "$work/bin/servebench" -root "$root" "$@"
