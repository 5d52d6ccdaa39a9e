#!/bin/sh
# Smoke-checks the global --trace flag for one subcommand.
#
# Usage: check_trace.sh <mbias> <trace-out> <expected-span> [args...]
#
# Runs `mbias [args...] --trace <trace-out>` and asserts the session
# file was written, holds valid (untorn) Chrome-trace JSON, and
# contains the expected span name — proving the subcommand runs inside
# the process-wide trace session rather than silently ignoring the
# flag.
set -e

bin="$1"
out="$2"
span="$3"
shift 3

rm -f "$out"
"$bin" "$@" --trace "$out" > /dev/null
if [ ! -s "$out" ]; then
    echo "FAIL: --trace did not write $out" >&2
    exit 1
fi
# The writer finished, so the document must end with the closing "]}".
if ! tail -c 8 "$out" | grep -q ']}'; then
    echo "FAIL: $out is torn (no closing brackets)" >&2
    exit 1
fi
if ! grep -q "\"name\":\"$span\"" "$out"; then
    echo "FAIL: $out lacks span '$span'" >&2
    exit 1
fi
echo "OK: $out contains span '$span'"
