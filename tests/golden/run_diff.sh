#!/bin/sh
# Golden-output differential check for one `mbias` command line.
#
# Usage: run_diff.sh <mbias> <golden-dir> <golden-id> [args...]
#
# Runs `mbias [args...]` (e.g. `fig fig2 --jobs 8`), strips the
# volatile accounting lines ([campaign: ...] wall-clock and [metrics]
# latency histograms — everything else is deterministic), and
# byte-compares against the pinned transcript <golden-dir>/<golden-id>.txt.
set -e

bin="$1"
id="$3"
golden="$2/$id.txt"
shift 3
if [ ! -f "$golden" ]; then
    echo "missing golden transcript: $golden" >&2
    exit 1
fi

tmp_out="$(mktemp)"
tmp_ref="$(mktemp)"
trap 'rm -f "$tmp_out" "$tmp_ref"' EXIT

"$bin" "$@" | sed -e '/^\[campaign:/d' -e '/^\[metrics\]/d' > "$tmp_out"
sed -e '/^\[campaign:/d' -e '/^\[metrics\]/d' "$golden" > "$tmp_ref"

if ! diff -u "$tmp_ref" "$tmp_out"; then
    echo "FAIL: mbias $* diverges from $golden" >&2
    exit 1
fi
echo "OK: mbias $* matches $golden"
