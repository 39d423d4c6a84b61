#!/bin/sh
# check-docs.sh — documentation gates, run by CI and locally as
# scripts/check-docs.sh. Three checks:
#
#   1. Every internal/ package (and the root package) has a package
#      comment. `go doc <pkg>` prints the package clause, a blank line,
#      then the package comment (which gofmt guarantees starts with
#      "Package <name>"); if the third line is missing or does not start
#      with "Package ", there is no package comment.
#   2. Every internal/ package's doc comment carries a paper-section
#      anchor (§N, Figure N, Theorem N, Equation N, Lemma N, or
#      Corollary N) tying the code back to Xiao–Wang–Gehrke — the
#      repository's documentation convention since the PR 2 godoc audit.
#   3. Every docs/*.md file referenced from README.md or doc.go exists,
#      and every file in docs/ is actually referenced from one of them
#      (no orphaned documents). Beyond docs/, every *.md path cited in a
#      tracked .go, .md, .sh or .yml file names a tracked file: a path
#      with a '/' must resolve from the repository root or from the
#      citing file's directory, and a bare file name must match some
#      tracked file's name. The Markdown notes at the repository root
#      other than README.md are exempt: they record plans and history
#      and quote past names, including removed ones.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- 1 + 2: package comments and paper anchors -------------------------
for dir in . internal/*/; do
    pkg="repro/${dir#./}"
    pkg="${pkg%/}"
    pkg="${pkg%/.}"
    docout=$(go doc "$pkg" 2>/dev/null) || docout=""
    third=$(printf '%s\n' "$docout" | sed -n '3p')
    case "$third" in
        "Package "*) ;;
        *)
            echo "missing package comment: $pkg" >&2
            fail=1
            continue
            ;;
    esac
    case "$dir" in
        internal/*)
            if ! printf '%s\n' "$docout" | grep -Eq '§|Figure [0-9]|Theorem [0-9]|Equation [0-9]|Lemma [0-9]|Corollary [0-9]'; then
                echo "package comment lacks a paper-section anchor (§N / Figure N / Theorem N / ...): $pkg" >&2
                fail=1
            fi
            ;;
    esac
done

# --- 3: docs/*.md cross-references -------------------------------------
refs=$(grep -ohE 'docs/[A-Za-z0-9_.-]+\.md' README.md doc.go 2>/dev/null | sort -u)
for ref in $refs; do
    if [ ! -f "$ref" ]; then
        echo "broken docs reference (in README.md/doc.go): $ref" >&2
        fail=1
    fi
done
if [ -d docs ]; then
    for f in docs/*.md; do
        [ -e "$f" ] || continue
        if ! printf '%s\n' "$refs" | grep -qx "$f"; then
            echo "orphaned document (not referenced from README.md or doc.go): $f" >&2
            fail=1
        fi
    done
fi

tracked=$(git ls-files)
for src in $(git ls-files '*.go' '*.md' '*.sh' '*.yml'); do
    case "$src" in README.md | */*) ;; *.md) continue ;; esac
    dir=$(dirname "$src")
    for ref in $(grep -ohE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' "$src" | sort -u); do
        ref=${ref#./}
        case "$ref" in
            */*)
                if [ -f "$ref" ] || [ -f "$dir/$ref" ]; then continue; fi
                ;;
            *)
                if printf '%s\n' "$tracked" | awk -F/ -v r="$ref" '$NF == r { found = 1 } END { exit !found }'; then
                    continue
                fi
                ;;
        esac
        echo "dangling document reference in $src: $ref (no such file in the repository)" >&2
        fail=1
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs check failed: see messages above (package-comment and anchor conventions: ISSUE 2 godoc audit, ISSUE 4 docs pass)" >&2
    exit 1
fi
echo "docs check: package comments, paper anchors, docs/ and *.md references all OK"
