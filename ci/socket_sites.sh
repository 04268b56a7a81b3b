#!/usr/bin/env bash
# Socket-site guard: "one place a socket is opened", enforced — and "one
# thread per loop", enforced.
#
# The protocol state machines are sans-IO and nothing may sit on a socket
# in a thread of its own, so every bind/accept/connect lives in liverun's
# `net` module (`Net::listen` and its non-blocking accepts, `Net::connect`,
# the link dial helper, `call`). This script fails if
# `TcpListener::bind`, `TcpStream::connect*` or `.incoming()` shows up in
# non-test code under crates/*/src anywhere else, except:
#
#   crates/liverun/src/net.rs      the one place
#   crates/coord/src/client.rs     the coordination client's dialer
#                                  (`coord` cannot depend on `liverun`)
#
# Every live loop waits on its sockets itself (`Net::wait`), and so does
# the network client, on its caller's thread. It also fails if any file
# under crates/liverun/src except net.rs starts a thread at all: the node
# loop (which amcoordd runs too) and netem's shaping loop are started by
# `net::spawn_loop`, and delivered commands execute on the node loop.
#
# "Non-test" is everything above a file's top-level `#[cfg(test)]`
# module; comment lines do not count.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r file; do
    case "$file" in
        crates/liverun/src/net.rs | crates/coord/src/client.rs) continue ;;
    esac
    if awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /TcpListener::bind|TcpStream::connect|\.incoming\(\)/ {
            print file ":" FNR ": " $0
            found = 1
        }
        END { exit found }
    ' "$file"; then :; else
        fail=1
    fi
done < <(find crates -path 'crates/*/src/*' -name '*.rs' | sort)

while IFS= read -r file; do
    if awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        builder {
            builder = 0
            print file ":" FNR - 1 ": thread not allowed here"
            found = 1
        }
        /thread::spawn/ { print file ":" FNR ": " $0; found = 1 }
        /thread::Builder/ { builder = 1 }
        END { exit found }
    ' "$file"; then :; else
        fail=1
    fi
done < <(find crates/liverun/src -name '*.rs' ! -path crates/liverun/src/net.rs | sort)

if [ "$fail" -ne 0 ]; then
    echo "socket sites: FAILED — open sockets through liverun::net (crates/liverun/src/net.rs) and let the loop thread own them" >&2
    exit 1
fi
echo "socket sites: ok (every socket is opened in liverun::net; no thread sits on one)"
