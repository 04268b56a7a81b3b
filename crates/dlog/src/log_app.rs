//! The replicated shared-log state machine.
//!
//! A [`DlogApp`] replica hosts one or more logs. Appends for log `l`
//! arrive via `l`'s own multicast group; `multi-append`s arrive via the
//! shared group all log replicas subscribe to, so every replica assigns
//! the same positions (determinstic merge ⇒ deterministic positions).
//! Replicas keep "the most recent appends in-memory" (paper §6.2) with a
//! bounded cache; a trim flushes the cache up to the trim position.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};
use common::ids::RingId;
use common::value::Envelope;
use common::wire::{get_bytes, get_varint, put_bytes, put_varint, Wire};
use multiring::ServiceApp;

use crate::command::{LogCommand, LogId, LogResponse};

/// One hosted log: entries from `base` upward (below `base` was trimmed).
#[derive(Debug, Default)]
struct LogState {
    base: u64,
    entries: Vec<Bytes>,
}

impl LogState {
    fn append(&mut self, value: Bytes) -> u64 {
        let pos = self.base + self.entries.len() as u64;
        self.entries.push(value);
        pos
    }

    fn read(&self, pos: u64) -> Option<&Bytes> {
        pos.checked_sub(self.base)
            .and_then(|i| self.entries.get(i as usize))
    }

    fn trim(&mut self, pos: u64) {
        if pos <= self.base {
            return;
        }
        let drop = ((pos - self.base) as usize).min(self.entries.len());
        self.entries.drain(..drop);
        self.base += drop as u64;
    }

    fn next_pos(&self) -> u64 {
        self.base + self.entries.len() as u64
    }
}

/// The dLog replica state machine.
#[derive(Debug)]
pub struct DlogApp {
    logs: BTreeMap<LogId, LogState>,
}

impl DlogApp {
    /// A replica hosting `logs`.
    pub fn new(logs: &[LogId]) -> Self {
        DlogApp {
            logs: logs.iter().map(|l| (*l, LogState::default())).collect(),
        }
    }

    /// Next position of `log` (diagnostics).
    pub fn next_pos(&self, log: LogId) -> Option<u64> {
        self.logs.get(&log).map(LogState::next_pos)
    }

    /// Reads position `pos` of `log` directly (tests).
    pub fn read(&self, log: LogId, pos: u64) -> Option<&Bytes> {
        self.logs.get(&log).and_then(|l| l.read(pos))
    }

    fn apply(&mut self, cmd: &LogCommand) -> LogResponse {
        match cmd {
            LogCommand::Append { log, value } => {
                let mut out = Vec::new();
                if let Some(state) = self.logs.get_mut(log) {
                    // Copy out of the decoded command: a zero-copy `value`
                    // is a view of a whole socket-read segment, and the
                    // log retains entries until trimmed.
                    out.push((*log, state.append(Bytes::copy_from_slice(value))));
                }
                LogResponse::Appended(out)
            }
            LogCommand::MultiAppend { logs, value } => {
                // Append to every addressed log hosted here; replicas of
                // other logs handle their own shares of the same
                // atomically-multicast command.
                let mut out = Vec::new();
                for log in logs {
                    if let Some(state) = self.logs.get_mut(log) {
                        out.push((*log, state.append(Bytes::copy_from_slice(value))));
                    }
                }
                LogResponse::Appended(out)
            }
            LogCommand::Read { log, pos } => {
                LogResponse::Value(self.logs.get(log).and_then(|l| l.read(*pos)).cloned())
            }
            LogCommand::Trim { log, pos } => {
                if let Some(state) = self.logs.get_mut(log) {
                    state.trim(*pos);
                }
                LogResponse::Ok
            }
        }
    }
}

impl ServiceApp for DlogApp {
    fn execute(&mut self, _group: RingId, env: &Envelope) -> Bytes {
        let mut raw = env.cmd.clone();
        match LogCommand::decode(&mut raw) {
            Ok(cmd) => self.apply(&cmd).to_bytes(),
            Err(_) => LogResponse::Appended(Vec::new()).to_bytes(),
        }
    }

    fn snapshot(&self) -> Bytes {
        // One-pass serialization: reserve the encoded size (10 bytes
        // covers any varint) before writing, so large logs do not churn
        // through doubling reallocations on the delivery thread.
        let mut size = 10;
        for state in self.logs.values() {
            size += 30;
            for e in &state.entries {
                size += e.len() + 10;
            }
        }
        let mut buf = BytesMut::with_capacity(size);
        put_varint(&mut buf, self.logs.len() as u64);
        for (id, state) in &self.logs {
            put_varint(&mut buf, u64::from(*id));
            put_varint(&mut buf, state.base);
            put_varint(&mut buf, state.entries.len() as u64);
            for e in &state.entries {
                put_bytes(&mut buf, e);
            }
        }
        buf.freeze()
    }

    fn restore(&mut self, state: &Bytes) {
        let mut raw = state.clone();
        let Ok(n) = get_varint(&mut raw) else { return };
        let mut logs = BTreeMap::new();
        for _ in 0..n {
            let Ok(id) = get_varint(&mut raw) else { return };
            let Ok(base) = get_varint(&mut raw) else {
                return;
            };
            let Ok(count) = get_varint(&mut raw) else {
                return;
            };
            let mut entries = Vec::new();
            for _ in 0..count {
                let Ok(e) = get_bytes(&mut raw) else { return };
                entries.push(e);
            }
            logs.insert(id as LogId, LogState { base, entries });
        }
        self.logs = logs;
    }

    fn reset(&mut self) {
        for state in self.logs.values_mut() {
            *state = LogState::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::ids::{ClientId, NodeId, RequestId};

    fn env(cmd: &LogCommand) -> Envelope {
        Envelope::v1(
            ClientId::new(1),
            RequestId::new(1),
            NodeId::new(0),
            cmd.to_bytes(),
        )
    }

    fn exec(app: &mut DlogApp, cmd: LogCommand) -> LogResponse {
        let mut raw = app.execute(RingId::new(0), &env(&cmd));
        LogResponse::decode(&mut raw).unwrap()
    }

    #[test]
    fn appends_assign_sequential_positions() {
        let mut app = DlogApp::new(&[0]);
        for i in 0..5u64 {
            let r = exec(
                &mut app,
                LogCommand::Append {
                    log: 0,
                    value: Bytes::from(format!("e{i}")),
                },
            );
            assert_eq!(r, LogResponse::Appended(vec![(0, i)]));
        }
        assert_eq!(app.next_pos(0), Some(5));
    }

    #[test]
    fn multi_append_hits_all_hosted_logs() {
        let mut app = DlogApp::new(&[0, 1, 3]);
        let r = exec(
            &mut app,
            LogCommand::MultiAppend {
                logs: vec![0, 1, 2],
                value: Bytes::from_static(b"x"),
            },
        );
        // Log 2 is not hosted here; logs 0 and 1 get position 0.
        assert_eq!(r, LogResponse::Appended(vec![(0, 0), (1, 0)]));
        assert_eq!(app.next_pos(3), Some(0));
    }

    #[test]
    fn read_and_trim() {
        let mut app = DlogApp::new(&[0]);
        for i in 0..10u64 {
            exec(
                &mut app,
                LogCommand::Append {
                    log: 0,
                    value: Bytes::from(format!("e{i}")),
                },
            );
        }
        assert_eq!(
            exec(&mut app, LogCommand::Read { log: 0, pos: 3 }),
            LogResponse::Value(Some(Bytes::from_static(b"e3")))
        );
        assert_eq!(
            exec(&mut app, LogCommand::Trim { log: 0, pos: 5 }),
            LogResponse::Ok
        );
        assert_eq!(
            exec(&mut app, LogCommand::Read { log: 0, pos: 3 }),
            LogResponse::Value(None),
            "trimmed positions read as absent"
        );
        assert_eq!(
            exec(&mut app, LogCommand::Read { log: 0, pos: 7 }),
            LogResponse::Value(Some(Bytes::from_static(b"e7")))
        );
        // Appends continue at the same counter after a trim.
        let r = exec(
            &mut app,
            LogCommand::Append {
                log: 0,
                value: Bytes::from_static(b"new"),
            },
        );
        assert_eq!(r, LogResponse::Appended(vec![(0, 10)]));
    }

    #[test]
    fn snapshot_restore_preserves_positions() {
        let mut app = DlogApp::new(&[0, 1]);
        for _ in 0..6 {
            exec(
                &mut app,
                LogCommand::Append {
                    log: 0,
                    value: Bytes::from_static(b"a"),
                },
            );
        }
        exec(&mut app, LogCommand::Trim { log: 0, pos: 4 });
        let snap = app.snapshot();
        let mut other = DlogApp::new(&[0, 1]);
        other.restore(&snap);
        assert_eq!(other.next_pos(0), Some(6));
        assert_eq!(other.read(0, 5), app.read(0, 5));
        assert_eq!(other.read(0, 3), None);
    }
}
