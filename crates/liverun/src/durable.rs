//! Durability for delivered commands: a [`ServiceApp`] decorator that
//! appends every executed envelope to a real write-ahead log.
//!
//! The WAL records the replica's *delivered sequence* — the deterministic
//! merge of its subscribed rings — which is exactly what must agree
//! across the replicas of a partition. Tests replay the files to check
//! agreement, and operators can audit a node's history offline.
//!
//! ## Group commit
//!
//! Envelopes are staged in memory as they execute and hit the file in one
//! buffered write plus a single `fdatasync` when the host signals the end
//! of a delivered batch ([`ServiceApp::flush`]). Durability semantics: a
//! node killed mid-batch may lose the *tail since the last batch
//! boundary* from its own WAL — never a prefix, never reordered. That is
//! safe because the WAL is an audit/restart accelerator, not the source
//! of truth: the service state is recovered from partition-peer
//! checkpoints plus acceptor retransmission (paper §5.2), which
//! re-derives exactly the lost suffix.
//!
//! ## Rotation and pruning
//!
//! The decorator writes through the [`DecidedLog`] trait, which
//! [`storage::wal::SegmentedWal`] implements: records carry a monotone delivery
//! position, segments roll at a configured cadence, and each time the
//! host reports a checkpoint durable ([`ServiceApp::checkpoint_durable`])
//! the log prunes every segment wholly below the position it marked at
//! the *previous* report, then marks the current one. The host takes a
//! checkpoint only after the previous one was reported, so the one just
//! reported covers every record below the mark — closing the "single
//! ever-growing file" caveat without ever touching a segment a restart
//! might still replay.
//!
//! A live node wraps its whole service stack in one `DurableApp` over
//! one segment directory (`node-<id>/shard-0/`), so its log is the full
//! delivered stream of the node.

use bytes::Bytes;
use common::ids::RingId;
use common::value::Envelope;
use common::wire::Wire;
use common::wire_frame;
use multiring::{ServiceApp, SnapshotCut};
use storage::wal::DecidedLog;

wire_frame! {
    /// One delivered command: the ring it arrived on plus the envelope.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WalRecord {
        /// The multicast group the command was delivered from.
        pub ring: RingId,
        /// The client command envelope.
        pub env: Envelope,
    }
}

/// Wraps a service so every delivered envelope hits the WAL first.
pub struct DurableApp {
    inner: Box<dyn ServiceApp>,
    log: Box<dyn DecidedLog>,
    /// Position of the next staged record (counts this decorator's own
    /// delivered stream).
    pos: u64,
    /// The position when the last checkpoint was reported durable; the
    /// next report's checkpoint covers every record below it.
    ckpt_mark: u64,
}

impl DurableApp {
    /// Decorates `inner` with any [`DecidedLog`], resuming the position
    /// counter at `start_pos` (use [`storage::wal::SegmentedWal::end_pos`]
    /// when reopening a rotated directory).
    pub fn with_log(inner: Box<dyn ServiceApp>, log: Box<dyn DecidedLog>, start_pos: u64) -> Self {
        DurableApp {
            inner,
            log,
            pos: start_pos,
            ckpt_mark: start_pos,
        }
    }
}

impl ServiceApp for DurableApp {
    fn execute(&mut self, group: RingId, env: &Envelope) -> Bytes {
        // Stage through WalRecord's own encoder (the clone is refcounted,
        // not a payload copy) so the staged bytes can never drift from
        // what replay expects.
        let pos = self.pos;
        self.pos += 1;
        self.log.stage(pos, &mut |buf| {
            WalRecord {
                ring: group,
                env: env.clone(),
            }
            .encode(buf)
        });
        self.inner.execute(group, env)
    }

    fn flush(&mut self) {
        // One write + one fdatasync for the whole delivered batch. A
        // write failure must not diverge this replica from its peers:
        // execution continues, only durability (and the audit trail) is
        // degraded.
        let _ = self.log.commit();
        self.inner.flush();
    }

    fn snapshot_cut(&self) -> Box<dyn SnapshotCut> {
        self.inner.snapshot_cut()
    }

    fn restore(&mut self, state: &Bytes) {
        self.inner.restore(state);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn checkpoint_durable(&mut self) {
        // Best effort, like commit: pruning is an optimization.
        let _ = self.log.prune_below(self.ckpt_mark);
        self.ckpt_mark = self.pos;
        self.inner.checkpoint_durable();
    }

    fn session_probe(&self, session: u64) -> Option<(u64, u64)> {
        self.inner.session_probe(session)
    }

    fn session_ids(&self) -> Vec<u64> {
        self.inner.session_ids()
    }

    fn cached_reply_count(&self) -> usize {
        self.inner.cached_reply_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::{ClientId, NodeId, RequestId};
    use multiring::EchoApp;
    use storage::wal::{SegmentedWal, SyncPolicy};

    fn env(seq: u64) -> Envelope {
        Envelope::v1(
            ClientId::new(1),
            RequestId::new(seq),
            NodeId::new(2),
            Bytes::from_static(b"cmd"),
        )
    }

    #[test]
    fn executed_envelopes_land_in_the_wal() {
        let dir = std::env::temp_dir().join(format!("durable-app-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 1024).unwrap();
        let mut app = DurableApp::with_log(Box::new(EchoApp::new()), Box::new(wal), 0);
        let env = env(7);
        app.execute(RingId::new(3), &env);
        app.execute(RingId::new(4), &env);
        // Group commit: nothing on disk until the batch boundary.
        assert_eq!(
            SegmentedWal::replay::<WalRecord>(&dir).unwrap().len(),
            0,
            "records staged, not written, before flush"
        );
        app.flush();
        let records: Vec<WalRecord> = (SegmentedWal::replay(&dir).unwrap().into_iter())
            .map(|(_, record)| record)
            .collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ring, RingId::new(3));
        assert_eq!(records[1].env, env);
        drop(app);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmented_log_rotates_prunes_and_resumes_position() {
        let dir = std::env::temp_dir().join(format!(
            "durable-seg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let wal = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 2).unwrap();
            let mut app = DurableApp::with_log(Box::new(EchoApp::new()), Box::new(wal), 0);
            for seq in 0..5 {
                app.execute(RingId::new(0), &env(seq));
            }
            app.flush();
            // The first durable checkpoint marks pos 5; the next prunes
            // the segments wholly below it (the active segment survives).
            app.checkpoint_durable();
            app.checkpoint_durable();
            let remaining = SegmentedWal::replay::<WalRecord>(&dir).unwrap();
            assert!(
                remaining.iter().all(|(pos, _)| *pos >= 4),
                "pruned records below the checkpoint mark: {:?}",
                remaining.iter().map(|(p, _)| *p).collect::<Vec<_>>()
            );
        }
        // Reopen: positions resume past everything ever written.
        let resume = SegmentedWal::end_pos(&dir).unwrap();
        assert_eq!(resume, 5);
        let wal = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 2).unwrap();
        let mut app = DurableApp::with_log(Box::new(EchoApp::new()), Box::new(wal), resume);
        app.execute(RingId::new(0), &env(99));
        app.flush();
        let records = SegmentedWal::replay::<WalRecord>(&dir).unwrap();
        assert_eq!(records.last().map(|(p, _)| *p), Some(5));
        drop(app);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cut of the whole live stack, `DurableApp(SessionApp(KvApp))`,
    /// keeps the store as it was: inserts, overwrites and deletes after
    /// the cut leave its bytes (and their length) those `snapshot()`
    /// returned at the cut.
    #[test]
    fn a_cut_keeps_the_state_as_it_was_at_the_cut() {
        use common::ids::PartitionId;
        use mrpstore::{KvApp, KvCommand, Partitioning};
        use multiring::SessionApp;

        fn run(app: &mut DurableApp, seq: u64, cmd: KvCommand) {
            let (client, node) = (ClientId::new(1), NodeId::new(2));
            let env = Envelope::v1(client, RequestId::new(seq), node, cmd.to_bytes());
            app.execute(RingId::new(0), &env);
        }
        let dir = std::env::temp_dir().join(format!("durable-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = SegmentedWal::open(&dir, SyncPolicy::OsDecides, 1024).unwrap();
        let kv = KvApp::new(PartitionId::new(0), Partitioning::Hash { partitions: 1 });
        let stack = SessionApp::new(Box::new(kv));
        let mut app = DurableApp::with_log(Box::new(stack), Box::new(wal), 0);
        for (seq, key) in ["a", "b", "c"].into_iter().enumerate() {
            let value = Bytes::from(key.repeat(seq + 1));
            run(
                &mut app,
                seq as u64,
                KvCommand::Insert {
                    key: key.into(),
                    value,
                },
            );
        }
        let at_cut = app.snapshot();
        let cut = app.snapshot_cut();
        let value = Bytes::from_static(b"dddd");
        run(
            &mut app,
            3,
            KvCommand::Insert {
                key: "d".into(),
                value,
            },
        );
        let value = Bytes::from(vec![9; 300]);
        run(
            &mut app,
            4,
            KvCommand::Update {
                key: "a".into(),
                value,
            },
        );
        run(&mut app, 5, KvCommand::Delete { key: "b".into() });
        assert_ne!(app.snapshot(), at_cut, "the store moved on");
        let mut buf = bytes::BytesMut::new();
        cut.encode(&mut buf);
        assert_eq!(buf.freeze(), at_cut);
        assert_eq!(cut.encoded_len(), at_cut.len());
        drop(app);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
