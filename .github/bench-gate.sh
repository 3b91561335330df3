#!/usr/bin/env bash
# bench-gate.sh <committed.json> <new.json> <jq-path> <percent-band>
#
# Fails when the value at <jq-path> in <new.json> exceeds the committed one
# by more than <percent-band> percent (0 for deterministic counts such as
# wire bytes). A value that is missing or not a non-negative integer on
# either side also fails: `[ null -gt 3 ]` is an error that reads as false,
# and a gate that compares against a renamed field is a gate that is
# switched off.
set -euo pipefail
committed=$1 fresh=$2 path=$3 band=$4

value() {
  local v
  v=$(jq -r "$path" "$1")
  if ! [[ $v =~ ^[0-9]+$ ]]; then
    echo "::error::bench gate: $path in $1 is '$v', not a non-negative integer" >&2
    exit 1
  fi
  echo "$v"
}

old=$(value "$committed")
new=$(value "$fresh")
limit=$((old * (100 + band) / 100))
if ((new > limit)); then
  echo "::error::$path regressed more than ${band}%: $old -> $new"
  exit 1
fi
echo "$path: $old -> $new (ok, ${band}% band)"
