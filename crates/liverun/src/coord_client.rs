//! The coordination client's drivers.
//!
//! A [`CoordLink`] owns no socket and no thread; this module moves its
//! protocol-v2 frames over `Net`, two ways:
//!
//! * **On the caller's thread** — tools, tests and a node's boot path.
//!   [`connect_coord`] gives the link a private `Net` that every registry
//!   call turns until its reply arrives. Between calls nothing turns it:
//!   an idle client's session lapses after its TTL, and its next call
//!   reopens one.
//! * **On a node loop**, which takes the link over
//!   ([`coord::LinkCoord::hand_over`]) before its first turn. The loop
//!   dials the link's replica through its own `Net`, feeds the link what
//!   arrived and its turn clock, and queues what the link sends with
//!   `flush`. A registry call made on the loop never waits: it polls.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::error::{Error, Result};
use common::obs::Counter;
use common::wire::client::ClientReply;
use coord::{CoordClientOptions, CoordLink, Driver, LinkCoord, Registry};

use crate::net::{Event, Net, Reader};

/// Connects a registry to the `amcoordd` ensemble at `addrs`, driven on
/// its callers' threads, and waits for its session to open.
///
/// # Errors
///
/// Fails when `addrs` is empty or no replica opens a session within
/// `opts.connect_deadline`.
pub fn connect_coord(addrs: &[SocketAddr], opts: CoordClientOptions) -> Result<Registry> {
    if addrs.is_empty() {
        return Err(Error::Config("no amcoordd addresses".into()));
    }
    let deadline = opts.connect_deadline;
    let link = CoordLink::new(addrs.to_vec(), opts, Instant::now());
    let driver = CallerNet {
        net: Net::new("amcoord-dial".into(), Counter::default())?,
        events: Vec::new(),
    };
    let link = Arc::new(LinkCoord::new(link, Box::new(driver)));
    if !link.drive_until(deadline, |link| link.session().is_some()) {
        return Err(Error::Timeout("no amcoordd replica opened a session"));
    }
    Ok(Registry::from_link(link))
}

/// A link's sockets on its caller's thread.
struct CallerNet {
    net: Net<ClientReply, ()>,
    events: Vec<Event<ClientReply, ()>>,
}

impl Driver for CallerNet {
    fn turn(&mut self, link: &mut CoordLink, wait: Duration) {
        flush(link, &mut self.net, Reader::Frames(|buf| buf.try_next()));
        self.net.wait(wait, &mut self.events);
        let now = Instant::now();
        for event in self.events.drain(..) {
            match event {
                Event::Frame(_, reply) => link.on_reply(reply, now),
                Event::LinkDown(replica) => link.on_closed(replica, now),
                Event::Accepted(..) | Event::Closed(_) | Event::Mail(()) => {}
            }
        }
        link.tick(now);
    }
}

/// Queues what `link` has to send on `net`, whose link to the replica is
/// read with `reader`, and hangs up on a replica the link abandoned.
pub(crate) fn flush<In, M: Send + 'static>(
    link: &mut CoordLink,
    net: &mut Net<In, M>,
    reader: Reader<In>,
) {
    if let Some(abandoned) = link.take_hangup() {
        net.hang_up(abandoned);
    }
    let replica = link.replica();
    for frame in link.take_outbox() {
        net.read_link(replica, reader);
        net.send_to(replica, &frame);
    }
}
