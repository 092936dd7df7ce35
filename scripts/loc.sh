#!/usr/bin/env bash
# loc.sh — print the Go line counts of the root module: non-test and test
# files, with the separate perfbench/ module excluded. Counts tracked and
# untracked files but not ignored ones (such as the benchmark's build
# cache). Informational only; no gate reads it.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files() { git ls-files -co --exclude-standard -- '*.go' ':!perfbench/**'; }

echo "non-test $(files | grep -v '_test\.go$' | xargs -r cat | wc -l)"
echo "test     $(files | grep '_test\.go$' | xargs -r cat | wc -l)"
