#!/usr/bin/env bash
# race-gate.sh '<Name|Name|...>' <package>
#
# Runs the named tests of one package uncached under the race detector.
# `go test -run` exits 0 with "no tests to run" when a test has been renamed
# or has moved to another package, and a gate that matches nothing is a gate
# that is switched off — so every alternative of the pattern must match at
# least one test in the package, or the step fails before anything runs.
set -euo pipefail
pattern=$1 pkg=$2
listed=$(go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz)' || true)
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
  if ! grep -Eq "$name" <<<"$listed"; then
    echo "::error::race gate: '$name' matches no test in $pkg (moved or renamed?)" >&2
    exit 1
  fi
done
exec go test -race -count=1 -run "$pattern" "$pkg"
