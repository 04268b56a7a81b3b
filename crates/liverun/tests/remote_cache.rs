//! Regression test: the coordination link's watch-pushed config cache
//! must not go stale *with the connection feeding it*. A client once kept
//! serving `ring()` from the cache after a replica failover until some
//! cache-missing call happened to reconnect — a silent staleness window in
//! exactly the moment (failover) when configuration is changing. The link
//! now keeps the cache across a disconnect and refreshes it at once from
//! the next connection.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{BufMut, BytesMut};
use common::ids::{Epoch, NodeId, RingId};
use common::transport::{encode_frame, FrameBuf};
use common::value::SESSION_CTL;
use common::wire::client::{ClientMsg, ClientReply, SessionCtl, ST_OK};
use common::wire::coord::{encode_reply, CoordOk, CoordOp, RingConfigWire};
use common::wire::{put_varint, Wire};
use liverun::connect_coord;

fn cfg(epoch: u64, coordinator: u32) -> RingConfigWire {
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    RingConfigWire {
        ring: RingId::new(7),
        members: members.clone(),
        acceptors: members,
        coordinator: NodeId::new(coordinator),
        epoch: Epoch::new(epoch),
    }
}

/// A scripted amcoordd stand-in speaking protocol v2: answers the handful
/// of requests the client sends (a watch is acknowledged, and nothing is
/// ever pushed), and can kill its accepted connections to simulate a
/// replica crash/failover.
struct FakeReplica {
    current: Arc<Mutex<RingConfigWire>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl FakeReplica {
    fn serve(listener: TcpListener, initial: RingConfigWire) -> Self {
        let current = Arc::new(Mutex::new(initial));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let cur = Arc::clone(&current);
        let held = Arc::clone(&conns);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                held.lock().unwrap().push(stream);
                let cur = Arc::clone(&cur);
                std::thread::spawn(move || serve_conn(reader, &cur));
            }
        });
        FakeReplica { current, conns }
    }

    fn set_config(&self, cfg: RingConfigWire) {
        *self.current.lock().unwrap() = cfg;
    }

    /// Simulates the replica dying under the client: every accepted
    /// connection is torn down (the client reads EOF).
    fn kill_conns(&self) {
        for s in self.conns.lock().unwrap().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn serve_conn(mut stream: TcpStream, current: &Mutex<RingConfigWire>) {
    use std::io::{Read, Write};
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                buf.extend(&chunk[..n]);
                while let Ok(Some(msg)) = buf.try_next::<ClientMsg>() {
                    let ClientMsg::RequestV2 {
                        session, seq, cmd, ..
                    } = msg
                    else {
                        continue; // the hello
                    };
                    let mut payload = BytesMut::new();
                    payload.put_u8(ST_OK);
                    match SessionCtl::decode(&mut cmd.clone()) {
                        Ok(SessionCtl::Open { .. }) if session == SESSION_CTL => {
                            put_varint(&mut payload, 1)
                        }
                        _ if session == SESSION_CTL => {}
                        _ => {
                            let body = match CoordOp::decode(&mut cmd.clone()) {
                                Ok(CoordOp::GetRing { .. }) => {
                                    CoordOk::Ring(Some(current.lock().unwrap().clone()))
                                }
                                _ => CoordOk::Unit,
                            };
                            payload.extend_from_slice(&encode_reply(&Ok(body), &[]));
                        }
                    }
                    let reply = ClientReply::ResponseV2 {
                        session,
                        seq,
                        from_replica: NodeId::new(0),
                        payload: payload.freeze(),
                    };
                    if stream.write_all(&encode_frame(&reply)).is_err() {
                        return;
                    }
                }
            }
        }
    }
}

fn wait_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn a_disconnect_keeps_the_cache_and_refreshes_it() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let addr: SocketAddr = listener.local_addr().unwrap();
    let replica = FakeReplica::serve(listener, cfg(5, 0));

    // A long session TTL keeps keep-alives quiet for the whole test:
    // nothing else goes to the replica, so a fresh read below can only
    // come from the refresh that follows the disconnect.
    let registry = connect_coord(&[addr], Duration::from_secs(120)).expect("connect");
    // A first read, on the caller's thread, fills the cache.
    let ring = RingId::new(7);
    assert_eq!(registry.ring(ring).expect("read").epoch(), Epoch::new(5));
    // From here on every read is a cache hit: each call turns the link's
    // connection once and answers at once.
    assert_eq!(registry.ring(ring).expect("cached").epoch(), Epoch::new(5));

    // Failover: the configuration moves on *while the client's replica
    // connection dies* — the event announcing epoch 7 is exactly what
    // the dead watch can no longer deliver, and this replica never
    // pushes one.
    replica.set_config(cfg(7, 1));
    replica.kill_conns();

    // The link must notice the dead watch, keep answering from the cache
    // meanwhile, and re-fetch what it caches over a fresh connection,
    // reaching epoch 7 with no read that missed the cache. (With a cache
    // refreshed only by misses, reads stayed stale indefinitely and this
    // wait timed out.)
    assert!(
        wait_until(Duration::from_secs(5), || {
            let cfg = registry.ring(ring);
            assert!(cfg.is_ok(), "a disconnect emptied the cache: {cfg:?}");
            cfg.is_ok_and(|c| c.epoch() == Epoch::new(7))
        }),
        "ring() served the dead watch's cached config after failover"
    );
}
