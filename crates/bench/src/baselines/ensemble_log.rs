//! A Bookkeeper-like replicated log with aggressive write batching.
//!
//! The paper's Figure 5 compares dLog against Apache Bookkeeper and
//! attributes Bookkeeper's high latency to "its aggressive batching
//! mechanism, which attempts to maximize disk use by writing in large
//! chunks". This stand-in reproduces that architecture: a client writes
//! each entry to an ensemble of storage nodes ("bookies") and waits for
//! an acknowledgement quorum; each bookie accumulates entries and flushes
//! them to a sync disk either when the batch is large or on a periodic
//! timer, acknowledging only after the flush.

use bytes::Bytes;
use common::ids::NodeId;
use common::msg::Msg;
use common::process::{Ctx, Process, Timer};
use common::wire::Wire;
use common::wire_frame;
use std::time::Duration;
use storage::{DiskProfile, DiskTimeline, StorageMode};

/// `Msg::Custom` tag for the ensemble-log protocol.
pub const TAG_ENSEMBLE: u16 = 102;

wire_frame! {
    "ensemble msg";
    /// Ensemble-log messages.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum BkMsg {
        /// Client append to a bookie.
        0 => Append {
            /// Entry id (client-scoped).
            entry: u64,
            /// Payload.
            value: Bytes,
        },
        /// Bookie acknowledgement after its batch flushed.
        1 => Acked {
            /// The entry id.
            entry: u64,
        },
    }
}

/// Wraps into the simulator envelope.
pub fn wrap(m: &BkMsg) -> Msg {
    Msg::Custom(TAG_ENSEMBLE, m.to_bytes())
}

/// Unwraps from the simulator envelope.
pub fn unwrap(msg: &Msg) -> Option<BkMsg> {
    match msg {
        Msg::Custom(TAG_ENSEMBLE, raw) => BkMsg::decode(&mut raw.clone()).ok(),
        _ => None,
    }
}

/// Batching policy of a bookie.
#[derive(Clone, Copy, Debug)]
pub struct BookieConfig {
    /// Flush when this many bytes are pending (Bookkeeper's journal
    /// writes in large pre-allocated chunks).
    pub flush_bytes: usize,
    /// Flush a non-empty batch after this long regardless.
    pub flush_interval: Duration,
    /// The journal disk.
    pub disk: DiskProfile,
}

impl Default for BookieConfig {
    fn default() -> Self {
        // Calibrated to the paper's observation: Bookkeeper's journal
        // "attempts to maximize disk use by writing in large chunks",
        // producing 150-250 ms append latencies (Figure 5 bottom).
        BookieConfig {
            flush_bytes: 4 * 1024 * 1024,
            flush_interval: Duration::from_millis(100),
            disk: DiskProfile::hdd(),
        }
    }
}

const TIMER_FLUSH: u32 = 40;
const TIMER_ACK: u32 = 41;

/// One storage node.
pub struct Bookie {
    cfg: BookieConfig,
    disk: DiskTimeline,
    /// Entries awaiting the next flush: `(client, entry id, bytes)`.
    pending: Vec<(NodeId, u64, usize)>,
    pending_bytes: usize,
    timer_armed: bool,
    flushed_entries: u64,
}

impl Bookie {
    /// A bookie with `cfg`.
    pub fn new(cfg: BookieConfig) -> Self {
        Bookie {
            disk: DiskTimeline::new(StorageMode::Sync(cfg.disk)),
            cfg,
            pending: Vec::new(),
            pending_bytes: 0,
            timer_armed: false,
            flushed_entries: 0,
        }
    }

    /// Entries flushed so far (diagnostics).
    pub fn flushed_entries(&self) -> u64 {
        self.flushed_entries
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_empty() {
            return;
        }
        let now = ctx.now();
        let receipt = self.disk.write(self.pending_bytes, now);
        let batch = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        self.flushed_entries += batch.len() as u64;
        // Acks go out when the (single, large) sync write completes.
        for (client, entry, _) in batch {
            ctx.schedule_at(
                receipt.ack_at,
                Timer::with2(TIMER_ACK, u64::from(client.raw()), entry),
            );
        }
    }
}

impl Process for Bookie {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        let Some(BkMsg::Append { entry, value }) = unwrap(&msg) else {
            return;
        };
        self.pending_bytes += value.len() + 16;
        self.pending.push((from, entry, value.len()));
        if self.pending_bytes >= self.cfg.flush_bytes {
            self.flush(ctx);
        } else if !self.timer_armed {
            self.timer_armed = true;
            ctx.schedule(self.cfg.flush_interval, Timer::of_kind(TIMER_FLUSH));
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match timer.kind {
            TIMER_FLUSH => {
                self.timer_armed = false;
                self.flush(ctx);
            }
            TIMER_ACK => {
                let to = NodeId::new(timer.a as u32);
                ctx.send(to, wrap(&BkMsg::Acked { entry: timer.b }));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgs_round_trip() {
        for m in [
            BkMsg::Append {
                entry: 7,
                value: Bytes::from_static(b"entry"),
            },
            BkMsg::Acked { entry: 7 },
        ] {
            assert_eq!(unwrap(&wrap(&m)).unwrap(), m);
        }
    }

    #[test]
    fn default_config_batches_large() {
        let cfg = BookieConfig::default();
        assert!(cfg.flush_bytes >= 1024 * 1024);
        assert!(cfg.flush_interval >= Duration::from_millis(50));
    }
}
