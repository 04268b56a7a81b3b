//! The in-process coordination backend.
//!
//! [`LocalCoord`] drives the shared [`CoordState`] under a lock — the
//! original "every process shares one address space" registry, still used
//! by the simulator, unit tests and single-process deployments where a
//! replicated service would only add latency. Watch events are queued
//! synchronously by the call that caused them, giving the exact same
//! observable semantics as the remote backend minus the network.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

use common::error::{Error, Result};
use common::ids::SessionId;
use common::wire::coord::{CoordEvent, CoordOk, CoordOp};
use parking_lot::Mutex;

use crate::registry::{Coord, EVENT_BACKLOG};
use crate::state::CoordState;

/// The in-process backend: one [`CoordState`] behind a lock.
#[derive(Debug, Default)]
pub struct LocalCoord {
    state: Mutex<CoordState>,
    events: StdMutex<VecDeque<CoordEvent>>,
    arrived: Condvar,
}

impl LocalCoord {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Coord for LocalCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        let (result, events) = self.state.lock().apply(&op);
        if !events.is_empty() {
            let mut queue = self.events.lock().unwrap_or_else(PoisonError::into_inner);
            for event in events {
                if queue.len() == EVENT_BACKLOG {
                    queue.pop_front();
                }
                queue.push_back(event);
            }
            self.arrived.notify_all();
        }
        result.map_err(Error::Config)
    }

    fn next_event(&self, timeout: Duration) -> Option<CoordEvent> {
        let queue = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut queue, _) = self
            .arrived
            .wait_timeout_while(queue, timeout, |q| q.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        queue.pop_front()
    }

    fn session(&self) -> Option<SessionId> {
        None
    }
}
