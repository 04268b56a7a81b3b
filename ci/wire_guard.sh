#!/usr/bin/env bash
# Wire guard: a decoded integer is never narrowed by truncation.
#
# A varint decodes to a `u64`. Casting that to a narrower integer
# (`get_varint(buf)? as u16`) silently wraps: a ring id of 65 536 would
# arrive as ring 0. Every narrowing goes through `wire::get_varint_as`
# (or a type's own `Wire` impl, which uses it) and fails with
# `WireError::VarintOverflow` instead. This script fails if non-test code
# under crates/*/src casts the result of `get_varint` to anything but
# `u64`.
#
# "Non-test" is everything above a file's top-level `#[cfg(test)]`
# module; comment lines do not count.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r file; do
    awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /get_varint\([^)]*\)(\?|\.ok\(\)\?)?[[:space:]]+as[[:space:]]/ &&
        !/get_varint\([^)]*\)(\?|\.ok\(\)\?)?[[:space:]]+as[[:space:]]+u64([^[:alnum:]_]|$)/ {
            print file ":" FNR ": " $0; found = 1
        }
        END { exit found }
    ' "$file" || fail=1
done < <(find crates -path 'crates/*/src/*' -name '*.rs' | sort)

if [ "$fail" -ne 0 ]; then
    echo "wire guard: FAILED — decode narrow integers with wire::get_varint_as (or the type's Wire impl), never with an \`as\` cast" >&2
    exit 1
fi
echo "wire guard: ok (no decoded varint is narrowed by a cast)"
