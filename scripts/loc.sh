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
#                    name is a whole word on no line before that point,
#                    other than // comments and pub use re-exports, of
#                    crates/*/src, src, examples, crates/bench/examples
#                    or benchmark/src: functions only tests call. String
#                    literals are blanked out first; a line that defines
#                    a fn does not count as a use of that fn's name, and
#                    a re-export (every line from pub use through the ;
#                    that ends it, so a braced list over several lines
#                    too) names a fn without calling it. So a name said
#                    only in a message, defined twice, or re-exported is
#                    no use.
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

# uses[w] counts the scanned lines holding the word w outside string
# literals, other than lines that define a fn named w and the lines of
# pub use re-exports.
mapfile -d '' scanned < <(git ls-files -z -- \
    ':(glob)crates/*/src/**/*.rs' ':(glob)src/**/*.rs' ':(glob)examples/**/*.rs' \
    ':(glob)crates/bench/examples/**/*.rs' ':(glob)benchmark/src/**/*.rs')
awk '
    # blank(s): s with the contents of its string literals removed. A
    # literal may run over lines, so its closing delimiter stays in quote.
    function blank(s,    out, i, c) {
        out = ""
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (quote != "") {
                if (c == "\\" && quote == "\"") {
                    i++
                } else if (substr(s, i, length(quote)) == quote) {
                    i += length(quote) - 1
                    quote = ""
                    out = out " "
                }
            } else if (substr(s, i, 3) == "r#\"") {
                quote = "\"#"
                i += 2
            } else if (c == "\"") {
                quote = "\""
            } else if (substr(s, i, 3) == "\047\"\047") {
                i += 2
                out = out " "
            } else {
                out = out c
            }
        }
        return out
    }
    FNR == 1 { in_test = 0; quote = ""; reexport = 0 }
    /#\[cfg\(test\)\]/ { in_test = 1 }
    in_test || /^[ \t]*\/\// { next }
    /^[ \t]*pub use / { reexport = 1 }
    reexport {
        if (index($0, ";")) reexport = 0
        next
    }
    {
        line = blank($0)
        defined = ""
        if (match(line, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z0-9_]+/)) {
            defined = substr(line, RSTART, RLENGTH)
            sub(/^.*fn[ \t]+/, "", defined)
        }
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w != "" && w != defined && seen[w] != FILENAME ":" FNR) {
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
        for (i = 1; i <= ndefs; i++) if (uses[defs[i]] == 0) callerless++
        printf "caller-less fns  %d\n", callerless
    }' "${scanned[@]}"
