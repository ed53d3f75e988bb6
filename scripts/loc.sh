#!/usr/bin/env bash
# Prints the size of the program, the four counts simplifying changes
# report:
#
#   non-test lines   every line of the git-tracked *.rs files under
#                    crates/*/src, src and vendor/*/src, each file counted
#                    up to its first #[cfg(test)] line
#   pub items        lines of crates/*/src, before that point, that start
#                    a pub fn, struct, enum, const, trait, type, mod or
#                    static
#   unsafe lines     lines before that point, other than // comments, that
#                    hold the word unsafe
#   caller-less fns  pub fns of crates/*/src, before that point, whose
#                    name is a whole word on no other line before that
#                    point, other than // comments, of crates/*/src, src,
#                    examples, crates/bench/examples or benchmark/src:
#                    functions only tests call
#
# It only prints; nothing is gated on the counts. The patterns spell
# whitespace as [ \t] because mawk reads \s as a literal s.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -d '' files < <(git ls-files -z -- \
    ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' ':(glob)vendor/*/src/**/*.rs')
awk '
    FNR == 1 { in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    { lines++ }
    FILENAME ~ /^crates\/[^\/]+\/src\// && /^[ \t]*pub (fn|struct|enum|const|trait|type|mod|static) / { pubs++ }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ && !/^[ \t]*\/\// { unsafes++ }
    END {
        printf "non-test lines   %d\n", lines
        printf "pub items        %d\n", pubs
        printf "unsafe lines     %d\n", unsafes
    }' "${files[@]}"

# uses[w] counts the scanned lines holding the word w, so a pub fn whose
# name has uses 1 appears on its own definition line only.
mapfile -d '' scanned < <(git ls-files -z -- \
    ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' ':(glob)examples/**/*.rs' \
    ':(glob)crates/bench/examples/**/*.rs' ':(glob)benchmark/src/**/*.rs')
awk '
    FNR == 1 { in_test = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    in_test || /^[ \t]*\/\// { next }
    {
        n = split($0, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w != "" && seen[w] != FILENAME ":" FNR) {
                seen[w] = FILENAME ":" FNR
                uses[w]++
            }
        }
    }
    FILENAME ~ /^crates\/[^\/]+\/src\// && /^[ \t]*pub fn / {
        name = $0
        sub(/^[ \t]*pub fn /, "", name)
        sub(/[^A-Za-z0-9_].*$/, "", name)
        defs[++ndefs] = name
    }
    END {
        for (i = 1; i <= ndefs; i++) if (uses[defs[i]] == 1) callerless++
        printf "caller-less fns  %d\n", callerless
    }' "${scanned[@]}"
