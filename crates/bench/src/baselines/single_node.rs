//! A MySQL-like single-server store.
//!
//! One process owns the whole database: no replication, no ordering
//! protocol, a write-ahead log on local disk. Figure 4's MySQL column —
//! the paper notes MRP-Store "compares similarly to MySQL" while only
//! MRP-Store can scale out.

use std::collections::BTreeMap;

use bytes::Bytes;
use common::ids::NodeId;
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::wire::Wire;
use common::wire_frame;
use storage::{DiskTimeline, StorageMode};

/// `Msg::Custom` tag for the single-node protocol.
pub const TAG_SINGLE: u16 = 101;

wire_frame! {
    "single-node msg";
    /// Client/server messages of the single-node store.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum SnMsg {
        /// Write `key`.
        0 => Put {
            /// Request id.
            req: u64,
            /// Key.
            key: String,
            /// Value.
            value: Bytes,
        },
        /// Read `key`.
        1 => Get {
            /// Request id.
            req: u64,
            /// Key.
            key: String,
        },
        /// Scan `n` entries from `key`.
        2 => Scan {
            /// Request id.
            req: u64,
            /// Start key.
            key: String,
            /// Max entries.
            n: u64,
        },
        /// Server response.
        3 => Reply {
            /// Echoed request id.
            req: u64,
            /// Payload (value or entry count marker).
            value: Option<Bytes>,
        },
    }
}

/// Wraps into the simulator envelope.
pub fn wrap(m: &SnMsg) -> Msg {
    Msg::Custom(TAG_SINGLE, m.to_bytes())
}

/// Unwraps from the simulator envelope.
pub fn unwrap(msg: &Msg) -> Option<SnMsg> {
    match msg {
        Msg::Custom(TAG_SINGLE, raw) => SnMsg::decode(&mut raw.clone()).ok(),
        _ => None,
    }
}

/// The single server.
pub struct SingleNodeStore {
    data: BTreeMap<String, Bytes>,
    wal: DiskTimeline,
}

impl SingleNodeStore {
    /// A server persisting through `storage`.
    pub fn new(storage: StorageMode) -> Self {
        SingleNodeStore {
            data: BTreeMap::new(),
            wal: DiskTimeline::new(storage),
        }
    }

    /// Pre-loads an entry (database initialization before the run).
    pub fn preload(&mut self, key: String, value: Bytes) {
        self.data.insert(key, value);
    }

    /// Entries stored (diagnostics).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Process for SingleNodeStore {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Some(m) = unwrap(&msg) else { return };
        match m {
            SnMsg::Put { req, key, value } => {
                let now = ctx.now();
                let receipt = self.wal.write(value.len() + key.len() + 16, now);
                self.data.insert(key, value);
                // Reply once the WAL write is acknowledged; for async
                // storage that is immediate, for sync it waits the flush.
                // Timer indirection is unnecessary here because the reply
                // latency is what we model: send at ack via scheduled self
                // delivery would complicate things; instead we rely on the
                // disk timeline already serializing writes, and delay the
                // reply by scheduling when needed.
                if receipt.ack_at <= now {
                    ctx.send(from, wrap(&SnMsg::Reply { req, value: None }));
                } else {
                    // Encode the reply target in the timer payload.
                    ctx.schedule_at(
                        receipt.ack_at,
                        Timer::with2(TIMER_REPLY, u64::from(from.raw()), req),
                    );
                }
            }
            SnMsg::Get { req, key } => {
                let value = self.data.get(&key).cloned();
                ctx.send(from, wrap(&SnMsg::Reply { req, value }));
            }
            SnMsg::Scan { req, key, n } => {
                // Serve the scan; the reply size models the data volume.
                let total: usize = self
                    .data
                    .range(key..)
                    .take(n as usize)
                    .map(|(_, v)| v.len())
                    .sum();
                let blob = Bytes::from(vec![0u8; total.min(1 << 20)]);
                ctx.send(
                    from,
                    wrap(&SnMsg::Reply {
                        req,
                        value: Some(blob),
                    }),
                );
            }
            SnMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.kind == TIMER_REPLY {
            let to = NodeId::new(timer.a as u32);
            ctx.send(
                to,
                wrap(&SnMsg::Reply {
                    req: timer.b,
                    value: None,
                }),
            );
        }
    }
}

const TIMER_REPLY: u32 = 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgs_round_trip() {
        for m in [
            SnMsg::Put {
                req: 1,
                key: "k".into(),
                value: Bytes::from_static(b"v"),
            },
            SnMsg::Get {
                req: 2,
                key: "k".into(),
            },
            SnMsg::Scan {
                req: 3,
                key: "a".into(),
                n: 10,
            },
            SnMsg::Reply {
                req: 1,
                value: None,
            },
        ] {
            assert_eq!(unwrap(&wrap(&m)).unwrap(), m);
        }
    }
}
