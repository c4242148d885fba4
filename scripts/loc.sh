#!/bin/sh
# Size of the code a simplicity PR is judged on: lines (wc -l, comments and
# blanks included) of non-test Go files outside benchmark/, per package and
# in total, then each command's flag count (the flags its -h lists), their
# total, the exported fields of the library's config structs (what
# TestOptionSurface counts), and the bytes of DESIGN, EXPERIMENTS, TESTING
# and README together (what TestDocsDoNotGrow caps). Compare the totals with
# the previous PR's entry in CHANGES.md.
set -eu

cd "$(dirname "$0")/.."

git ls-files -co --exclude-standard '*.go' |
    grep -v -e '_test\.go$' -e '^benchmark/' |
    while read -r f; do
        [ -f "$f" ] && printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
    done |
    awk '{ n[$1] += $2; total += $2 }
         END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"
               close("sort -k2")
               printf "%7d  total\n", total }'

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/" ./cmd/...
for c in "$BIN"/*; do
    printf '%7d  flags %s\n' "$({ "$c" -h 2>&1 || true; } | grep -c '^  -')" "$(basename "$c")"
done | awk '{ print; total += $1 } END { printf "%7d  flags total\n", total }'
go test -count=1 -run '^(TestOptionSurface|TestDocsDoNotGrow)$' -v . |
    sed -n 's/.*: \([a-z]*\) \([0-9]*\)$/\2 \1/p' |
    awk '{ printf "%7d  %s\n", $1, $2 }'
