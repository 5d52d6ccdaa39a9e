#!/bin/sh
# Checks that a hostile command line is refused cleanly.
#
# Usage: check_fails.sh <diagnostic> <cmd...>
#
# Runs the command and asserts it exits with status 1 (mbias_fatal),
# not an abort (134) or success, and that stderr carries the
# diagnostic substring naming the bad flag.
errfile="$(mktemp)"
trap 'rm -f "$errfile"' EXIT

want="$1"
shift

"$@" > /dev/null 2> "$errfile"
rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: exit status $rc, want 1" >&2
    cat "$errfile" >&2
    exit 1
fi
if ! grep -qF -- "$want" "$errfile"; then
    echo "FAIL: stderr lacks '$want':" >&2
    cat "$errfile" >&2
    exit 1
fi
echo "OK: refused with '$want'"
