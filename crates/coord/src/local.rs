//! The in-process coordination backend.
//!
//! [`LocalCoord`] drives the shared [`CoordState`] under a lock — the
//! original "every process shares one address space" registry, still used
//! by the simulator, unit tests and single-process deployments where a
//! replicated service would only add latency. Watch events fire
//! synchronously into subscriber channels, giving the exact same
//! observable semantics as the remote backend minus the network.

use common::error::{Error, Result};
use common::ids::SessionId;
use common::wire::coord::{CoordEvent, CoordOk, CoordOp};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::registry::Coord;
use crate::state::CoordState;

/// The in-process backend: one [`CoordState`] behind a lock.
#[derive(Debug, Default)]
pub struct LocalCoord {
    state: Mutex<CoordState>,
    watchers: Mutex<Vec<Sender<CoordEvent>>>,
}

impl LocalCoord {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn fire(&self, events: Vec<CoordEvent>) {
        if events.is_empty() {
            return;
        }
        let mut watchers = self.watchers.lock();
        watchers.retain(|tx| events.iter().all(|e| tx.send(e.clone()).is_ok()));
    }
}

impl Coord for LocalCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        let (result, events) = self.state.lock().apply(&op);
        self.fire(events);
        result.map_err(Error::Config)
    }

    fn watch(&self) -> Receiver<CoordEvent> {
        let (tx, rx) = unbounded();
        self.watchers.lock().push(tx);
        rx
    }

    fn session(&self) -> Option<SessionId> {
        None
    }
}
