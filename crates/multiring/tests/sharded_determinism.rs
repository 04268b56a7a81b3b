//! Property test for the sharded executor's determinism contract: for
//! arbitrary command streams — sessioned traffic with retries and stale
//! seqs, v1 pass-through, mid-stream session opens, and cross-shard
//! barrier commands — a [`multiring::ShardedExec`] over `N` sub-shards
//! must leave **byte-identical** state behind compared to the inline
//! [`multiring::SessionApp`] stack (what a live node executes).
//! Snapshot bytes embed the full session table, so reply-cache contents
//! are compared bit-for-bit, not just counted.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::{BufMut, Bytes, BytesMut};
use common::ids::{ClientId, NodeId, RequestId, RingId};
use common::obs::Obs;
use common::value::{Envelope, SESSION_CTL};
use common::wire::{get_bytes, get_varint, put_bytes, put_varint, Wire};
use multiring::exec::{ReplySink, Route, ShardPlan};
use multiring::session::{parse_open_reply, SessionCtl, SessionLimits};
use multiring::{ServiceApp, SessionApp, ShardedExec};
use proptest::prelude::*;

/// A keyed toy service: command `[key, val]` appends `val` under `key`
/// and replies `[key, new_len]`; command `[0xFF]` is a "scan" replying
/// the total number of stored values as LE u64 — the cross-shard
/// barrier case.
#[derive(Default)]
struct MapApp {
    entries: BTreeMap<u8, Vec<u8>>,
}

const SCAN: u8 = 0xFF;

impl ServiceApp for MapApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        match env.cmd.first().copied() {
            Some(SCAN) => {
                let total: u64 = self.entries.values().map(|v| v.len() as u64).sum();
                Bytes::copy_from_slice(&total.to_le_bytes())
            }
            Some(key) => {
                let val = env.cmd.get(1).copied().unwrap_or(0);
                let slot = self.entries.entry(key).or_default();
                slot.push(val);
                Bytes::from(vec![key, slot.len() as u8])
            }
            None => Bytes::new(),
        }
    }

    fn snapshot(&self) -> Bytes {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, self.entries.len() as u64);
        for (k, vs) in &self.entries {
            buf.put_u8(*k);
            put_bytes(&mut buf, &Bytes::copy_from_slice(vs));
        }
        buf.freeze()
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        let Ok(n) = get_varint(&mut raw) else { return };
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            if raw.is_empty() {
                return;
            }
            let k = raw[0];
            bytes::Buf::advance(&mut raw, 1);
            let Ok(vs) = get_bytes(&mut raw) else { return };
            entries.insert(k, vs.to_vec());
        }
        self.entries = entries;
    }

    fn reset(&mut self) {
        self.entries.clear();
    }
}

/// Routes `[key, ..]` to `key % shards`; `[SCAN]` to every shard.
struct MapPlan {
    shards: usize,
}

impl ShardPlan for MapPlan {
    fn shards(&self) -> usize {
        self.shards
    }

    fn route(&self, _group: RingId, env: &Envelope) -> Route {
        match env.cmd.first().copied() {
            Some(SCAN) | None => Route::All,
            Some(key) => Route::One(usize::from(key) % self.shards),
        }
    }

    fn combine(&self, _group: RingId, _env: &Envelope, partials: Vec<Bytes>) -> Bytes {
        let total: u64 = partials
            .iter()
            .map(|p| {
                let mut raw = [0u8; 8];
                let n = p.len().min(8);
                raw[..n].copy_from_slice(&p[..n]);
                u64::from_le_bytes(raw)
            })
            .sum();
        Bytes::copy_from_slice(&total.to_le_bytes())
    }

    fn merge_snapshots(&self, parts: Vec<Bytes>) -> Bytes {
        let mut merged = MapApp::default();
        for part in &parts {
            let mut shard = MapApp::default();
            shard.restore(part);
            merged.entries.extend(shard.entries);
        }
        merged.snapshot()
    }

    fn split_snapshot(&self, state: &Bytes) -> Vec<Bytes> {
        let mut whole = MapApp::default();
        whole.restore(state);
        let mut shards: Vec<MapApp> = (0..self.shards).map(|_| MapApp::default()).collect();
        for (k, vs) in whole.entries {
            shards[usize::from(k) % self.shards].entries.insert(k, vs);
        }
        shards.iter().map(|s| s.snapshot()).collect()
    }
}

/// Collects shard-side replies keyed by (client, seq) for multiset
/// comparison with the inline engine.
#[derive(Default)]
struct CollectSink {
    replies: Mutex<Vec<(u32, u64, Bytes)>>,
}

impl ReplySink for CollectSink {
    fn reply(&self, _ring: RingId, env: &Envelope, payload: Bytes) {
        self.replies
            .lock()
            .unwrap()
            .push((env.client.raw(), env.req.raw(), payload));
    }
}

/// One step of the arbitrary command stream.
#[derive(Clone, Debug)]
enum Op {
    /// Sessioned command on pre-opened session `c`: append or scan.
    Sessioned {
        c: usize,
        seq: u64,
        ack: u64,
        key: u8,
        val: u8,
        scan: bool,
    },
    /// Sessionless v1 command.
    V1 {
        client: u32,
        seq: u64,
        key: u8,
        val: u8,
    },
    /// Mid-stream session open (allocates the same id on both engines).
    Open { client: u32, token: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0usize..2, 1u64..8, 0u64..4, any::<u8>(), any::<u8>(), any::<bool>()).prop_map(
                |(c, seq, ack, key, val, scan)| Op::Sessioned { c, seq, ack, key: key.min(0xFE), val, scan }
            ),
            2 => (3u32..6, 1u64..20, any::<u8>(), any::<u8>())
                .prop_map(|(client, seq, key, val)| Op::V1 { client, seq, key: key.min(0xFE), val }),
            1 => (6u32..9, 1u64..1000).prop_map(|(client, token)| Op::Open { client, token }),
        ],
        0..80,
    )
}

fn sessioned_env(client: u32, session: u64, seq: u64, ack: u64, cmd: Bytes) -> Envelope {
    Envelope {
        client: ClientId::new(client),
        req: RequestId::new(seq),
        reply_to: NodeId::new(0),
        session,
        ack,
        trace: 0,
        cmd,
    }
}

fn open_env(client: u32, token: u64) -> Envelope {
    sessioned_env(
        client,
        SESSION_CTL,
        token,
        0,
        SessionCtl::Open {
            token,
            ttl_ms: 60_000,
        }
        .to_bytes(),
    )
}

proptest! {
    /// The tentpole determinism property: sharded execution over 2–4
    /// shards leaves byte-identical snapshots (state + full session
    /// table, cached replies included) and the same reply multiset as
    /// the inline single-threaded stack.
    #[test]
    fn sharded_runtime_matches_inline_baseline(
        shards in 2usize..=4,
        ops in arb_ops(),
    ) {
        let ring = RingId::new(0);
        let limits = SessionLimits::default();
        let mut inline = SessionApp::with_limits(Box::new(MapApp::default()), limits);
        let sink = Arc::new(CollectSink::default());
        let states: Vec<Box<dyn ServiceApp>> = (0..shards)
            .map(|_| Box::new(MapApp::default()) as Box<dyn ServiceApp>)
            .collect();
        let mut exec = ShardedExec::new(
            states,
            Arc::new(MapPlan { shards }),
            limits,
            Arc::clone(&sink) as Arc<dyn ReplySink>,
            &Obs::for_node(0),
            64,
        );

        let mut inline_replies: Vec<(u32, u64, Bytes)> = Vec::new();
        let deliver = |env: &Envelope,
                           inline: &mut SessionApp,
                           exec: &mut ShardedExec,
                           inline_replies: &mut Vec<(u32, u64, Bytes)>| {
            inline_replies.push((env.client.raw(), env.req.raw(), inline.execute(ring, env)));
            if let Some(payload) = exec.deliver(ring, env) {
                sink.reply(ring, env, payload);
            }
        };

        // Two pre-opened sessions; both engines must allocate the same ids.
        let mut sessions = Vec::new();
        for (client, token) in [(1u32, 11u64), (2, 22)] {
            let env = open_env(client, token);
            deliver(&env, &mut inline, &mut exec, &mut inline_replies);
            let reply = &inline_replies.last().unwrap().2;
            sessions.push(parse_open_reply(reply).expect("open accepted"));
        }

        for op in &ops {
            let env = match op {
                Op::Sessioned { c, seq, ack, key, val, scan } => {
                    let cmd = if *scan {
                        Bytes::from(vec![SCAN])
                    } else {
                        Bytes::from(vec![*key, *val])
                    };
                    sessioned_env(*c as u32 + 1, sessions[*c], *seq, *ack, cmd)
                }
                Op::V1 { client, seq, key, val } => Envelope::v1(
                    ClientId::new(*client),
                    RequestId::new(*seq),
                    NodeId::new(0),
                    Bytes::from(vec![*key, *val]),
                ),
                Op::Open { client, token } => open_env(*client, *token),
            };
            deliver(&env, &mut inline, &mut exec, &mut inline_replies);
        }
        exec.flush_batch();

        // Snapshot is a rendezvous: all dispatched ops (and their reply
        // fills) complete before it returns. Byte-identity here covers
        // the service state, the session table and every cached reply.
        let sharded_snap = exec.snapshot();
        prop_assert_eq!(inline.snapshot(), sharded_snap);
        prop_assert_eq!(exec.session_count(), inline.session_count());
        prop_assert_eq!(exec.cached_reply_count(), inline.cached_reply_count());

        // Reply multisets agree (retries produce identical payloads, so
        // sorting gives a canonical form).
        let mut got = sink.replies.lock().unwrap().clone();
        let mut want = inline_replies;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }
}
