//! The dLog command set (paper Table 2) and its wire encoding.
//!
//! Logs are identified by small integers; each log maps to one multicast
//! group (ring), and `multi-append` commands go to the shared group every
//! log's replicas subscribe to.

use bytes::Bytes;
use common::wire_frame;

/// A log identifier (one log per multicast group).
pub type LogId = u16;

wire_frame! {
    "log command";
    /// A distributed-log operation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum LogCommand {
        /// `append(l, v)`: append `v` to log `l`; returns the position.
        0 => Append {
            /// Target log.
            log: LogId,
            /// The payload.
            value: Bytes,
        },
        /// `multi-append(L, v)`: atomically append `v` to every log in `L`.
        1 => MultiAppend {
            /// Target logs.
            logs: Vec<LogId>,
            /// The payload.
            value: Bytes,
        },
        /// `read(l, p)`: the value at position `p` of log `l`.
        2 => Read {
            /// Target log.
            log: LogId,
            /// Position to read.
            pos: u64,
        },
        /// `trim(l, p)`: drop log `l` up to position `p`.
        3 => Trim {
            /// Target log.
            log: LogId,
            /// Trim point (exclusive).
            pos: u64,
        },
    }
}

wire_frame! {
    "log response";
    /// A replica's answer to a [`LogCommand`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum LogResponse {
        /// Positions assigned by an append/multi-append: `(log, position)` for
        /// each log this replica hosts.
        0 => Appended(Vec<(LogId, u64)>),
        /// The value read (`None` if trimmed or out of range).
        1 => Value(Option<Bytes>),
        /// Trim applied.
        2 => Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::wire::Wire;

    #[test]
    fn commands_round_trip() {
        for cmd in [
            LogCommand::Append {
                log: 1,
                value: Bytes::from_static(b"entry"),
            },
            LogCommand::MultiAppend {
                logs: vec![0, 2, 5],
                value: Bytes::from_static(b"atomic"),
            },
            LogCommand::Read { log: 3, pos: 42 },
            LogCommand::Trim { log: 0, pos: 100 },
        ] {
            let mut b = cmd.to_bytes();
            assert_eq!(LogCommand::decode(&mut b).unwrap(), cmd);
        }
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            LogResponse::Appended(vec![(0, 7), (1, 9)]),
            LogResponse::Value(Some(Bytes::from_static(b"x"))),
            LogResponse::Value(None),
            LogResponse::Ok,
        ] {
            let mut b = r.to_bytes();
            assert_eq!(LogResponse::decode(&mut b).unwrap(), r);
        }
    }
}
