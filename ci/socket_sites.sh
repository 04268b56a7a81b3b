#!/usr/bin/env bash
# Socket-site and layering guard: "one place a socket is opened",
# enforced — and "one thread per loop", and the layering rules below.
#
# The protocol state machines are sans-IO and nothing may sit on a socket
# in a thread of its own, so every bind/accept/connect lives in liverun's
# `net` module (`Net::listen` and its non-blocking accepts, `Net::connect`,
# the link dial helper, `call`). This script fails if
# `TcpListener::bind`, `TcpStream::connect*` or `.incoming()` shows up in
# non-test code under crates/*/src anywhere but crates/liverun/src/net.rs.
#
# Every live loop waits on its sockets itself (`Net::wait`), and so do the
# network client and the coordination client, on their caller's thread.
# It also fails if any file under crates/liverun/src except net.rs starts
# a thread at all: the node loop (which amcoordd runs too) is started by
# `net::spawn_loop`, and delivered commands execute on the node loop. And
# it fails if non-test code anywhere but crates/liverun/src/node.rs calls
# `spawn_loop`: the node loop is the only loop, so a geo deployment shapes
# its links on the node loops that send over them, and no relay or
# shaping loop of its own can come back. The coordination client
# (crates/coord/src) is a sans-IO link: it names no socket type and no
# `thread::` at all.
#
# FFI stays in net.rs too: the readiness wait (epoll) is the one foreign
# call, so `extern "C"` or `unsafe` anywhere else under crates/*/src fails.
#
# One client session machine: the v2 client's `SessionCore`
# (crates/multiring/src/client.rs) opens and keeps alive every client
# session — live data, coordination and simulated alike. So
# `SessionCtl::Open` / `SessionCtl::KeepAlive` appear nowhere else under
# crates/*/src, except in their codec (crates/common/src/wire.rs) and the
# server's session table (crates/multiring/src/session.rs); and
# crates/coord/src, which holds no client at all, names no `wire::client`
# item.
#
# One client protocol: simulated and live clients both speak protocol v2
# (`wire::client`), so the peer message module (crates/common/src/msg.rs)
# declares no client request or response type of its own, and non-test
# code under crates/multiring/src and crates/liverun/src builds no
# session-less `Envelope::v1`: every envelope comes out of the host's v2
# admission (or is a session-control command).
#
# Coordination is a message: the sans-IO core reads the registry only
# while it is built, and asks coordination by message afterwards. So
# non-test code in crates/ringpaxos/src/node.rs and
# crates/multiring/src/host.rs calls no registry method outside a
# `fn new`; and a coordination backend (`impl Coord for`) exists only in
# crates/coord/src and the coordination link (crates/liverun/src/link.rs)
# — no driver fakes coordination behind a registry.
#
# One sans-IO contract, two drivers: `Process`/`Ctx`/`Timer` and the
# coordination ask live in `common` (`common::process`,
# `common::wire::coord`), and the simulator is one driver of them, the
# live node loop the other. So non-test code under the src of common,
# coord, storage, ringpaxos, multiring, liverun, mrpstore and dlog names
# no `simnet`; crates/liverun/Cargo.toml does not list it at all, and
# crates/multiring/Cargo.toml lists it only under `[dev-dependencies]`
# (its simulation tests).
#
# "Non-test" is everything above a file's top-level `#[cfg(test)]`
# module; comment lines do not count.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the non-test, non-comment lines of each file that match $1.
scan() {
    local pattern=$1
    shift
    local found=0
    for file in "$@"; do
        awk -v file="$file" -v pattern="$pattern" '
            /^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            $0 ~ pattern { print file ":" FNR ": " $0; found = 1 }
            END { exit found }
        ' "$file" || found=1
    done
    return "$found"
}

fail=0
mapfile -t all < <(find crates -path 'crates/*/src/*' -name '*.rs' ! -path crates/liverun/src/net.rs | sort)
scan 'TcpListener::bind|TcpStream::connect|\.incoming\(\)' "${all[@]}" || fail=1
scan 'extern "C"|(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)' "${all[@]}" || fail=1
mapfile -t liverun < <(find crates/liverun/src -name '*.rs' ! -path crates/liverun/src/net.rs | sort)
scan 'thread::(spawn|Builder)' "${liverun[@]}" || fail=1
mapfile -t loops < <(find crates -path 'crates/*/src/*' -name '*.rs' \
    ! -path crates/liverun/src/node.rs | sort)
for file in "${loops[@]}"; do
    awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(^|[^[:alnum:]_])spawn_loop[[:space:]]*\(/ && !/fn[[:space:]]+spawn_loop/ {
            print file ":" FNR ": " $0; found = 1
        }
        END { exit found }
    ' "$file" || fail=1
done
mapfile -t coord < <(find crates/coord/src -name '*.rs' | sort)
scan 'TcpStream|TcpListener|thread::' "${coord[@]}" || fail=1
scan 'wire::client' "${coord[@]}" || fail=1
mapfile -t sessions < <(find crates -path 'crates/*/src/*' -name '*.rs' \
    ! -path crates/multiring/src/client.rs ! -path crates/common/src/wire.rs \
    ! -path crates/multiring/src/session.rs | sort)
scan 'SessionCtl::(Open|KeepAlive)' "${sessions[@]}" || fail=1
scan '(enum|struct)[[:space:]]+(Client[[:alnum:]_]*|[[:alnum:]_]*(Request|Response|Reply))([^[:alnum:]_]|$)' \
    crates/common/src/msg.rs || fail=1
mapfile -t v2_only < <(find crates/multiring/src crates/liverun/src -name '*.rs' | sort)
scan 'Envelope::v1' "${v2_only[@]}" || fail=1
for file in crates/ringpaxos/src/node.rs crates/multiring/src/host.rs; do
    awk -v file="$file" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?fn / { in_new = ($0 ~ /fn new[(<]/) }
        !in_new && /(^|[^[:alnum:]_])registry([[:space:]]*$|\.[[:alnum:]_]+\()/ {
            print file ":" FNR ": " $0; found = 1
        }
        END { exit found }
    ' "$file" || fail=1
done
mapfile -t backends < <(find crates -path 'crates/*/src/*' -name '*.rs' \
    ! -path 'crates/coord/src/*' ! -path crates/liverun/src/link.rs | sort)
scan 'impl[[:space:]]+Coord[[:space:]]+for' "${backends[@]}" || fail=1
mapfile -t drivers_of < <(find crates/{common,coord,storage,ringpaxos,multiring,liverun,mrpstore,dlog}/src \
    -name '*.rs' | sort)
scan '(^|[^[:alnum:]_])simnet([^[:alnum:]_]|$)' "${drivers_of[@]}" || fail=1
grep -Hn 'simnet' crates/liverun/Cargo.toml && fail=1
awk '
    /^\[/ { dev = ($0 == "[dev-dependencies]") }
    /simnet/ && !dev { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit found }
' crates/multiring/Cargo.toml || fail=1

if [ "$fail" -ne 0 ]; then
    echo "socket sites: FAILED — open sockets and call foreign code through liverun::net (crates/liverun/src/net.rs), let the loop thread own them, start no loop but the node loop, open client sessions only through multiring's SessionCore, speak only client protocol v2, ask coordination by message, and drive protocol code through common::process, not simnet" >&2
    exit 1
fi
echo "socket sites: ok (every socket is opened and every foreign call made in liverun::net; no thread sits on one; one client session machine; one client protocol; coordination is a message; the sans-IO contract is not the simulator's)"
