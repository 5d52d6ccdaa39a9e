#!/bin/sh
# Checks that the CLI analyses print the same bytes at any --jobs.
#
# Usage: check_jobs_invariant.sh <mbias> <jobs>
#
# `bias`, `variance` and `causal --explain` measure through the
# campaign engine; their stdout at --jobs 1 and at --jobs <jobs> must
# be byte-identical.
set -e

mbias="$1"
jobs="$2"

one="$(mktemp)"
many="$(mktemp)"
trap 'rm -f "$one" "$many"' EXIT

check() {
    "$mbias" "$@" --jobs 1 > "$one"
    "$mbias" "$@" --jobs "$jobs" > "$many"
    if ! cmp -s "$one" "$many"; then
        echo "FAIL: mbias $* differs between --jobs 1 and --jobs $jobs" >&2
        diff "$one" "$many" >&2 || true
        exit 1
    fi
    echo "OK: mbias $*"
}

check bias --workload milc --factor env --setups 6
check variance --workload perl --reps 4 --setups 4
check causal --workload perl --factor env --setups 6 --explain
