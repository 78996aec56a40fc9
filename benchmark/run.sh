#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source into
# benchmark/out/ and runs it from the root of the checkout with the arguments
# given. The Go build cache, scratch directory and per-user configuration
# directory are pointed inside benchmark/out/ too, so that nothing is written
# outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/gridse-bench" .)
cd "$here/.."
exec "$build/gridse-bench" "$@"
