#!/usr/bin/env bash
# Dead-code guard: every `pub fn` under crates/*/src is named somewhere.
#
# A word-boundary count over every Rust file of the repository (the
# vendored crates excluded, tests, examples and the benchmark included):
# a function whose name is defined by exactly one `fn` in the repository,
# as a `pub fn` under crates/*/src, and that no other word in any file
# names, is dead. Names defined more than once (trait methods, `new`,
# `encode`, ...) cannot be told apart by a grep and are not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files --cached --others --exclude-standard -- '*.rs' | grep -v '^vendor/' | sort -u)

# Every identifier-like word in the repository, with its count.
counts=$(grep -ohw '[A-Za-z_][A-Za-z0-9_]*' $files | sort | uniq -c)

# Names defined by exactly one `fn` anywhere.
unique=$(grep -ohE '\bfn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*' $files |
    awk '{print $2}' | sort | uniq -u)

fail=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    file=${hit%%:*}
    rest=${hit#*:}
    line=${rest%%:*}
    name=$(sed -nE "${line}s/.*pub fn[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/\1/p" "$file")
    [ -n "$name" ] || continue
    grep -qx "$name" <<<"$unique" || continue
    n=$(awk -v name="$name" '$2 == name { print $1 }' <<<"$counts")
    if [ "${n:-0}" -le 1 ]; then
        echo "$file:$line: pub fn $name is named nowhere else"
        fail=1
    fi
done < <(grep -nE '\bpub fn[[:space:]]+[A-Za-z_]' $(grep '^crates/[^/]*/src/' <<<"$files") /dev/null)

if [ "$fail" -ne 0 ]; then
    echo "dead pub fn guard: FAILED — delete the functions above, or name them where they are used" >&2
    exit 1
fi
echo "dead pub fn guard: ok (every uniquely-named pub fn under crates/*/src is named elsewhere)"
