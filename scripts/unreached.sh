#!/bin/sh
# unreached.sh — lists the functions and methods no program links, and
# holds that list to scripts/unreached.allow. Run by CI and locally as
# scripts/unreached.sh.
#
# Every main package under cmd/ and examples/, and the end-to-end
# benchmark in bench/, is built with inlining off (-gcflags=all=-l), so
# each function a program can call keeps its own text symbol. A
# function or method declared in a non-test file outside cmd/, examples/
# and bench/ whose symbol no binary carries is unreached: only tests
# call it, or nothing does. Names print as the linker spells them, with
# generic brackets stripped: repro/internal/pkg.F, pkg.T.M for a value
# receiver, pkg.(*T).M for a pointer receiver (repro.F for the root
# package).
#
# scripts/unreached.allow lists the names allowed to stay unreached, one
# per line followed by the reason it stays; '#' lines are comments. The
# script fails on an unreached name missing from the file, and on an
# entry that is now linked or no longer declared, so the file stays an
# exact list.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

# Innermost brackets first, so go.shape.[]uint8 inside F[...] goes too.
strip_generics() {
    sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta'
}

for bin in "$tmp"/bin/*; do
    go tool nm "$bin"
done | sed -n 's/^ *[0-9a-f]* [Tt] \(repro[./].*\)$/\1/p' | strip_generics | sort -u >"$tmp/linked"

# Top-level declarations of gofmt'd files start at column 0.
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
    grep -Ev '^repro/(cmd|examples)/' |
    while read -r pkg file; do
        grep '^func ' "$file" | strip_generics | awk -v pkg="$pkg" '{
            sub(/^func /, "")
            recv = ""
            if (substr($0, 1, 1) == "(") {
                recv = substr($0, 2, index($0, ")") - 2)
                sub(/^[^)]*\) */, "")
                n = split(recv, f, " ")
                recv = f[n]
                if (substr(recv, 1, 1) == "*") recv = "(" recv ")"
                recv = recv "."
            }
            name = substr($0, 1, index($0, "(") - 1)
            if (name != "init" && name != "_") print pkg "." recv name
        }'
    done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unreached"
cat "$tmp/unreached"

allow=scripts/unreached.allow
fail=0
if awk '!/^#/ && NF == 1 { print FILENAME ":" NR ": no reason given for " $1; bad = 1 } END { exit !bad }' "$allow" >&2; then
    fail=1
fi
awk '!/^#/ && NF > 0 { print $1 }' "$allow" | sort >"$tmp/allowed"
if [ -n "$(uniq -d "$tmp/allowed")" ]; then
    echo "unreached: $allow lists a name twice:" >&2
    uniq -d "$tmp/allowed" >&2
    fail=1
fi
sort -u -o "$tmp/allowed" "$tmp/allowed"
if [ -n "$(comm -23 "$tmp/unreached" "$tmp/allowed")" ]; then
    echo "unreached: no program links these, and $allow does not list them (delete them, or list them with a reason):" >&2
    comm -23 "$tmp/unreached" "$tmp/allowed" >&2
    fail=1
fi
if [ -n "$(comm -13 "$tmp/unreached" "$tmp/allowed")" ]; then
    echo "unreached: $allow lists these, but a program links them or they are gone (drop the entries):" >&2
    comm -13 "$tmp/unreached" "$tmp/allowed" >&2
    fail=1
fi
if [ "$fail" -eq 0 ]; then
    echo "unreached: $(wc -l <"$tmp/unreached") name(s), each listed in $allow" >&2
fi
exit "$fail"
