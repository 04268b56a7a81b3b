//! The in-process coordination backend.
//!
//! [`LocalCoord`] drives the shared [`CoordState`] under a lock — the
//! original "every process shares one address space" registry, still used
//! by the simulator, unit tests and single-process deployments where a
//! replicated service would only add latency. It keeps no sessions: an
//! ephemeral registered through it is owned by session 0, which never
//! expires.

use common::error::{Error, Result};
use common::ids::SessionId;
use common::wire::coord::{CoordOk, CoordOp};
use parking_lot::Mutex;

use crate::registry::Coord;
use crate::state::CoordState;

/// The in-process backend: one [`CoordState`] behind a lock.
#[derive(Debug, Default)]
pub struct LocalCoord {
    state: Mutex<CoordState>,
}

impl LocalCoord {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Coord for LocalCoord {
    fn call(&self, op: CoordOp) -> Result<CoordOk> {
        self.state.lock().apply(&op).0.map_err(Error::Config)
    }

    fn session(&self) -> Option<SessionId> {
        None
    }
}
