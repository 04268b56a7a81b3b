//! What the simulator's event queue holds: one [`TimerHeap`] over virtual
//! time, whose insertion-order tie-break makes the event order, and with
//! it a whole run, replay under one seed.
//!
//! [`TimerHeap`]: common::process::TimerHeap

use common::ids::NodeId;
use common::msg::Msg;
use common::process::Timer;
use common::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A message arrives at `to`.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// The message.
        msg: Msg,
        /// Virtual time the message was sent (for queueing-delay metrics).
        sent_at: SimTime,
    },
    /// A process timer fires.
    Timer {
        /// The process that scheduled the timer.
        node: NodeId,
        /// The token it scheduled.
        timer: Timer,
        /// Crash generation at scheduling time; stale timers are dropped.
        generation: u32,
    },
    /// Harness-scheduled control action.
    Crash(NodeId),
    /// Harness-scheduled restart.
    Restart(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = common::process::TimerHeap::new();
        q.push_at(SimTime::from_millis(5), EventKind::Crash(NodeId::new(1)));
        q.push_at(SimTime::from_millis(1), EventKind::Crash(NodeId::new(2)));
        q.push_at(SimTime::from_millis(5), EventKind::Crash(NodeId::new(3)));

        let crashed = |(at, kind)| match kind {
            EventKind::Crash(node) => (at, node),
            _ => panic!("unexpected kind"),
        };
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(crashed).collect();
        assert_eq!(
            order,
            [
                (SimTime::from_millis(1), NodeId::new(2)),
                (SimTime::from_millis(5), NodeId::new(1)),
                (SimTime::from_millis(5), NodeId::new(3)),
            ],
            "same-time events pop in insertion order"
        );
    }
}
