#!/usr/bin/env bash
# Socket-site guard: "one place a socket is opened", enforced — and "one
# thread per loop", enforced.
#
# The protocol state machines are sans-IO and the live event loops must
# never block on a socket, so every server-side bind/accept/connect lives
# in liverun's `net` module (`Net::listen` and its non-blocking accepts,
# the dial helper, `call`, and the `Listener` netem relays accept on).
# This script fails if `TcpListener::bind`, `TcpStream::connect*` or
# `.incoming()` shows up in non-test code under crates/*/src anywhere
# else, except:
#
#   crates/liverun/src/net.rs      the one place
#   crates/liverun/src/netem.rs    the WAN-shaping relays (they dial the
#                                  real target behind every shaped link)
#   crates/liverun/src/client.rs   only inside `fn open_conn` (the network
#                                  client's dialer; its write path is the
#                                  benchmark's hot path)
#   crates/coord/src/client.rs     the coordination client's dialer
#
# Both live loops wait on their sockets themselves (`Net::wait`), so no
# thread may sit between the wire and a state machine. It also fails if
#
#   crates/liverun/src/node.rs     starts any thread at all (the node
#                                  loop is started by `net::spawn_loop`)
#   crates/liverun/src/coordsvc.rs starts any thread but its two named
#                                  helpers, `amcoord-catchup-N` and
#                                  `amcoord-gossip-feed-N`
#
# "Non-test" is everything above a file's top-level `#[cfg(test)]`
# module; comment lines do not count.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r file; do
    only_fn=""
    case "$file" in
        crates/liverun/src/net.rs | crates/liverun/src/netem.rs | crates/coord/src/client.rs) continue ;;
        crates/liverun/src/client.rs) only_fn="open_conn" ;;
    esac
    if awk -v file="$file" -v only_fn="$only_fn" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        only_fn != "" && /^(    )?(pub(\([a-z]+\))? )?fn / { inside = ($0 ~ "fn " only_fn "\\(") }
        /TcpListener::bind|TcpStream::connect|\.incoming\(\)/ {
            if (inside) next
            print file ":" FNR ": " $0
            found = 1
        }
        END { exit found }
    ' "$file"; then :; else
        fail=1
    fi
done < <(find crates -path 'crates/*/src/*' -name '*.rs' | sort)

for file in crates/liverun/src/node.rs crates/liverun/src/coordsvc.rs; do
    if awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        builder {
            builder = 0
            if (file ~ /coordsvc/ && $0 ~ /\.name\(format!\("amcoord-(catchup|gossip-feed)-/) next
            print file ":" FNR - 1 ": thread not allowed here"
            found = 1
        }
        /thread::spawn/ { print file ":" FNR ": " $0; found = 1 }
        /thread::Builder/ { builder = 1 }
        END { exit found }
    ' "$file"; then :; else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "socket sites: FAILED — open sockets through liverun::net (crates/liverun/src/net.rs) and let the loop thread own them" >&2
    exit 1
fi
echo "socket sites: ok (every server-side socket is opened in liverun::net; node and amcoordd loops own theirs)"
