//! Hand-rolled binary wire codec.
//!
//! Messages are persisted in acceptor logs and shipped over TCP in live
//! deployments, so the encoding must be compact, stable and allocation-light.
//!
//! ## Wire layout conventions
//!
//! Every frame in this workspace is built from four primitives:
//!
//! * **varint** — LEB128, 7 data bits per byte, low bits first
//!   ([`put_varint`]/[`get_varint`]); used for all integers (instances,
//!   lengths, counts, tokens). At most 10 bytes; overlong encodings are
//!   rejected.
//! * **tag** — a single leading byte selecting an enum variant. Each
//!   variant's tag is written on the variant where the frame is declared,
//!   and tags are **append-only**: a new variant takes a free tag,
//!   existing tags never renumber, and a retired tag is never reused.
//! * **bytes** — `varint(len) ++ payload` ([`put_bytes`]/[`get_bytes`]),
//!   zero-copy on decode (the payload is a refcounted view into the
//!   receive buffer via [`Bytes::split_to`]). Lengths above [`MAX_LEN`]
//!   are rejected before allocating.
//! * **vec** — `varint(count) ++ element*` ([`put_vec`]/[`get_vec`]).
//!
//! Derived from those: ids (`NodeId`, `RingId`, `SessionId`, ...) are
//! varints of their raw value; `String` is **bytes** holding UTF-8;
//! `bool` is one byte `0`/`1`; `Option<T>` is a presence byte `0`/`1`
//! followed by `T` when present; `Result<T, E>` is a byte `0` followed
//! by `T` or `1` followed by `E`; tuples are the elements in order. An
//! integer narrower than `u64` (`u16`, `u32`, the ids over them) decodes
//! only if the varint fits it; a wider one is
//! [`WireError::VarintOverflow`], never truncated ([`get_varint_as`]).
//!
//! Streams and on-disk logs frame messages as `varint(len) ++ body`
//! ([`frame`]).
//!
//! ## Declaring a frame
//!
//! A frame whose layout is a tag and then fields is declared once,
//! through [`wire_frame!`](crate::wire_frame). The macro emits the type
//! exactly as written — docs, derives, visibility — and derives its
//! [`Wire`] impl from the declaration:
//!
//! ```
//! common::wire_frame! {
//!     "example";
//!     /// Docs and derives as on any enum. Tag 1 is retired.
//!     #[derive(Clone, Debug, PartialEq, Eq)]
//!     pub enum Example {
//!         /// The tag is written on its variant.
//!         0 => Ping { token: u64 },
//!         2 => Pair(u16, bytes::Bytes),
//!         3 => Empty,
//!     }
//! }
//! ```
//!
//! `encode` writes the tag byte, then each field's own encoding in
//! declaration order; `decode` reads them back in the same order, and a
//! tag with no variant (unknown or retired) decodes to
//! [`WireError::BadTag`] carrying the context string (`"example"`);
//! `encoded_len` is the sum of the fields' lengths plus one, exact by
//! construction. A struct is declared the same way without the context
//! string and has no tag: its fields follow one another. Retired tags
//! are noted on the type that retired them; a tag written on two
//! variants makes the second decode arm unreachable, which the compiler
//! reports.
//!
//! Hand-written impls remain only where the layout is not tag-then-fields:
//! the primitives and containers in this module; the ids and [`Ballot`],
//! whose round 0 decodes to [`Ballot::ZERO`]; `CheckpointTuple`, which
//! sorts its entries on decode; `ObsSnapshot`, whose gauges are zigzag
//! varints; and frames whose body trails unprefixed to the end of the
//! buffer (the storage crate's segment records and the host's checkpoint
//! snapshot).
//!
//! ## Byte-stability contract
//!
//! `decode(encode(x)) == x` holds for every value (round-trip property
//! tests in every crate that defines messages), and — stronger — the
//! *encoded bytes themselves* are stable across releases: frames are
//! persisted in acceptor logs and WALs and exchanged between nodes of
//! different builds, so an encoding change is a compatibility break.
//! Golden-vector corpora under `ci/` pin the exact bytes of every public
//! frame shape: `ci/wire_vectors_client.txt` for the [`client`] protocol
//! (checked by `crates/common/tests/wire_vectors.rs`),
//! `ci/wire_vectors_coord.txt` for the [`coord`] protocol
//! (`crates/common/tests/wire_vectors_coord.rs`),
//! `ci/wire_vectors_peer.txt` for peer frames and logged values
//! (`crates/common/tests/wire_vectors_peer.rs`) and
//! `ci/wire_vectors_service.txt` for WAL records and service commands
//! (`crates/liverun/tests/wire_vectors_service.rs`). Intentional changes
//! must regenerate the corpus (`REGEN_WIRE_VECTORS=1`) and review the
//! diff as an interface change; frames an already-released client or
//! replica can emit must never change bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::WireError;
use crate::ids::{Ballot, ClientId, Epoch, InstanceId, NodeId, PartitionId, RequestId, RingId};
use crate::time::SimTime;

#[doc(hidden)]
pub use bytes as __bytes;

/// Upper bound accepted for any length prefix (64 MiB). Protects log replay
/// and socket readers from corrupt frames.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Types with a binary wire representation.
///
/// Implementations must guarantee `decode(encode(x)) == x` for every value;
/// this invariant is enforced by property tests.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value from the front of `buf`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or contains an
    /// invalid tag or length.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Serializes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// The exact number of bytes [`Wire::encode`] would append.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }
}

/// Writes a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// Fails on truncated input or a varint longer than 10 bytes.
#[inline]
pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(WireError::Truncated { context: "varint" });
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
}

/// Reads a varint into an integer type that may be narrower than `u64`:
/// the one checked narrowing of the codec.
///
/// # Errors
///
/// Fails like [`get_varint`], and with [`WireError::VarintOverflow`]
/// when the value does not fit `T`.
pub fn get_varint_as<T: TryFrom<u64>>(buf: &mut Bytes) -> Result<T, WireError> {
    T::try_from(get_varint(buf)?).map_err(|_| WireError::VarintOverflow)
}

/// Parses a LEB128 varint from the front of a plain slice without
/// consuming anything. Returns `Ok(None)` when the slice ends mid-varint
/// (more input needed), `Ok(Some((value, encoded_len)))` otherwise.
///
/// # Errors
///
/// Fails on a varint longer than 10 bytes.
pub fn peek_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift == 63 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
    Ok(None)
}

/// The number of bytes [`put_varint`] uses for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Writes a length-prefixed byte slice.
pub fn put_bytes(buf: &mut BytesMut, b: &Bytes) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Reads a length-prefixed byte slice, zero-copy.
///
/// # Errors
///
/// Fails on truncated input or a length above [`MAX_LEN`].
pub fn get_bytes(buf: &mut Bytes) -> Result<Bytes, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_LEN {
        return Err(WireError::LengthTooLarge { len });
    }
    let len = len as usize;
    if buf.remaining() < len {
        return Err(WireError::Truncated { context: "bytes" });
    }
    Ok(buf.split_to(len))
}

/// Reads exactly one tag byte.
///
/// # Errors
///
/// Fails on empty input.
pub fn get_tag(buf: &mut Bytes, context: &'static str) -> Result<u8, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated { context });
    }
    Ok(buf.get_u8())
}

/// Encodes a vector as a count followed by each element.
pub fn put_vec<T: Wire>(buf: &mut BytesMut, items: &[T]) {
    put_varint(buf, items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

/// Decodes a vector written by [`put_vec`].
///
/// # Errors
///
/// Propagates element decode errors; rejects counts above [`MAX_LEN`].
pub fn get_vec<T: Wire>(buf: &mut Bytes) -> Result<Vec<T>, WireError> {
    let n = get_varint(buf)?;
    if n > MAX_LEN {
        return Err(WireError::LengthTooLarge { len: n });
    }
    let mut out = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

/// Declares a frame once and derives its [`Wire`] impl from the
/// declaration (see the [module docs](crate::wire#declaring-a-frame)).
///
/// An enum is preceded by its decode-context string and writes each
/// variant's tag on the variant (`4 => Batch(Vec<RingMsg>)`); variants
/// may be unit, struct-like, or tuples of one or two fields. A struct is
/// written as usual, with named fields.
#[macro_export]
macro_rules! wire_frame {
    // Each variant, normalised to `(tag Variant { member : binding : Type, .. })`.
    (@variants $name:ident $ctx:literal $buf:ident [$($done:tt)*]
        $tag:literal $variant:ident ; $($rest:tt)*) => {
        $crate::wire_frame!(@variants $name $ctx $buf [$($done)* ($tag $variant {})] $($rest)*);
    };
    (@variants $name:ident $ctx:literal $buf:ident [$($done:tt)*]
        $tag:literal $variant:ident { $($(#[$fmeta:meta])* $field:ident : $ty:ty),* $(,)? } ;
        $($rest:tt)*) => {
        $crate::wire_frame!(@variants $name $ctx $buf
            [$($done)* ($tag $variant { $($field : $field : $ty),* })] $($rest)*);
    };
    (@variants $name:ident $ctx:literal $buf:ident [$($done:tt)*]
        $tag:literal $variant:ident ($a:ty $(,)?) ; $($rest:tt)*) => {
        $crate::wire_frame!(@variants $name $ctx $buf
            [$($done)* ($tag $variant { 0 : f0 : $a })] $($rest)*);
    };
    (@variants $name:ident $ctx:literal $buf:ident [$($done:tt)*]
        $tag:literal $variant:ident ($a:ty, $b:ty $(,)?) ; $($rest:tt)*) => {
        $crate::wire_frame!(@variants $name $ctx $buf
            [$($done)* ($tag $variant { 0 : f0 : $a, 1 : f1 : $b })] $($rest)*);
    };
    (@variants $name:ident $ctx:literal $buf:ident
        [$(($tag:literal $variant:ident { $($member:tt : $bind:ident : $ty:ty),* }))*]) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, $buf: &mut $crate::wire::__bytes::BytesMut) {
                match self {
                    $(Self::$variant { $($member: $bind),* } => {
                        $crate::wire::__bytes::BufMut::put_u8($buf, $tag);
                        $($crate::wire::Wire::encode($bind, $buf);)*
                    })*
                }
            }

            fn decode(
                $buf: &mut $crate::wire::__bytes::Bytes,
            ) -> ::core::result::Result<Self, $crate::error::WireError> {
                ::core::result::Result::Ok(match $crate::wire::get_tag($buf, $ctx)? {
                    $($tag => Self::$variant {
                        $($member: <$ty as $crate::wire::Wire>::decode($buf)?),*
                    },)*
                    tag => {
                        return ::core::result::Result::Err(
                            $crate::error::WireError::BadTag { context: $ctx, tag },
                        )
                    }
                })
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $(Self::$variant { $($member: $bind),* } => {
                        1 $(+ $crate::wire::Wire::encoded_len($bind))*
                    })*
                }
            }
        }
    };
    (
        $ctx:literal;
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({ $($sfield:tt)* })? $(( $($tfield:tt)* ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($sfield)* })? $(( $($tfield)* ))?,
            )*
        }

        $crate::wire_frame!(@variants $name $ctx buf []
            $($tag $variant $({ $($sfield)* })? $(( $($tfield)* ))? ;)*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut $crate::wire::__bytes::BytesMut) {
                $($crate::wire::Wire::encode(&self.$field, buf);)*
            }

            fn decode(
                buf: &mut $crate::wire::__bytes::Bytes,
            ) -> ::core::result::Result<Self, $crate::error::WireError> {
                ::core::result::Result::Ok($name {
                    $($field: <$ty as $crate::wire::Wire>::decode(buf)?,)*
                })
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::Wire::encoded_len(&self.$field))*
            }
        }
    };
}

macro_rules! wire_varint_id {
    ($ty:ty) => {
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, u64::from(self.raw()));
            }

            #[inline]
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                Ok(Self::new(get_varint_as(buf)?))
            }

            fn encoded_len(&self) -> usize {
                varint_len(u64::from(self.raw()))
            }
        }
    };
}

wire_varint_id!(NodeId);
wire_varint_id!(RingId);
wire_varint_id!(InstanceId);
wire_varint_id!(ClientId);
wire_varint_id!(RequestId);
wire_varint_id!(PartitionId);
wire_varint_id!(Epoch);
wire_varint_id!(crate::ids::SessionId);

impl Wire for SimTime {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.as_nanos());
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(SimTime::from_nanos(get_varint(buf)?))
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.as_nanos())
    }
}

impl Wire for Ballot {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(self.round()));
        self.node().encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let round = get_varint_as(buf)?;
        let node = NodeId::decode(buf)?;
        if round == 0 {
            Ok(Ballot::ZERO)
        } else {
            Ok(Ballot::new(round, node))
        }
    }

    fn encoded_len(&self) -> usize {
        varint_len(u64::from(self.round())) + self.node().encoded_len()
    }
}

macro_rules! wire_varint_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_varint(buf, u64::from(*self));
            }

            #[inline]
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                get_varint_as(buf)
            }

            fn encoded_len(&self) -> usize {
                varint_len(u64::from(*self))
            }
        }
    )*};
}

wire_varint_int!(u64, u32, u16);

impl Wire for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_bytes(buf, self);
    }

    #[inline]
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_bytes(buf)
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        // Validate in place, copy only the (valid) payload once; the old
        // `String::from_utf8(raw.to_vec())` paid the copy even when
        // validation failed.
        let raw = get_bytes(buf)?;
        std::str::from_utf8(&raw)
            .map(str::to_owned)
            .map_err(|_| WireError::Truncated { context: "utf-8" })
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match get_tag(buf, "bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_vec(buf, self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_vec(buf)
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match get_tag(buf, "option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "option",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Ok(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            Err(e) => {
                buf.put_u8(1);
                e.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match get_tag(buf, "result")? {
            0 => Ok(Ok(T::decode(buf)?)),
            1 => Ok(Err(E::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "result",
                tag,
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Ok(v) => v.encoded_len(),
            Err(e) => e.encoded_len(),
        }
    }
}

/// Length-delimited framing for streams: `varint(len) ++ payload`.
///
/// Used by the live TCP transport and the on-disk log format.
pub mod frame {
    use super::*;

    /// Appends a framed message to `buf`.
    pub fn write<T: Wire>(buf: &mut BytesMut, msg: &T) {
        let body = msg.to_bytes();
        put_varint(buf, body.len() as u64);
        buf.extend_from_slice(&body);
    }

    /// Validates a frame header given the buffer's first bytes and total
    /// buffered length — the single home of the framing invariants
    /// (length limit, torn-tail handling) shared by every frame reader.
    ///
    /// Returns `Ok(None)` until a complete header *and* body are
    /// buffered, `Ok(Some((header_len, body_len)))` otherwise.
    ///
    /// # Errors
    ///
    /// Fails on a length above [`MAX_LEN`] or a malformed varint.
    pub fn header(prefix: &[u8], buffered: usize) -> Result<Option<(usize, usize)>, WireError> {
        let Some((len, header)) = peek_varint(&prefix[..prefix.len().min(10)])? else {
            return Ok(None);
        };
        if len > MAX_LEN {
            return Err(WireError::LengthTooLarge { len });
        }
        if buffered - header < len as usize {
            return Ok(None);
        }
        Ok(Some((header, len as usize)))
    }

    /// Attempts to split one complete frame off the front of `buf`.
    ///
    /// Returns `Ok(None)` if the frame is not complete yet.
    ///
    /// # Errors
    ///
    /// Fails if the frame declares an excessive length or the payload does
    /// not decode.
    pub fn try_read<T: Wire>(buf: &mut BytesMut) -> Result<Option<T>, WireError> {
        let Some((header, len)) = self::header(&buf[..], buf.len())? else {
            return Ok(None);
        };
        buf.advance(header);
        let mut body = buf.split_to(len).freeze();
        let msg = T::decode(&mut body)?;
        Ok(Some(msg))
    }

    /// Splits one complete frame off the front of an immutable `Bytes`
    /// buffer, zero-copy: the frame body is a view into `buf`'s backing
    /// allocation. Used for replaying on-disk logs read into memory.
    ///
    /// Returns `Ok(None)` on a clean end or a torn (incomplete) tail.
    ///
    /// # Errors
    ///
    /// Fails if a complete frame declares an excessive length or does not
    /// decode.
    pub fn read_from<T: Wire>(buf: &mut Bytes) -> Result<Option<T>, WireError> {
        let Some((header, len)) = self::header(&buf[..], buf.len())? else {
            return Ok(None);
        };
        buf.advance(header);
        let mut body = buf.split_to(len);
        let msg = T::decode(&mut body)?;
        Ok(Some(msg))
    }
}

pub mod coord {
    //! The coordination-service payloads (`amcoord`).
    //!
    //! The paper keeps configuration in Zookeeper (§7.1); `amcoord` is this
    //! workspace's replicated equivalent. A coordination client is an
    //! ordinary protocol-v2 session ([`super::client`]) on the ensemble's
    //! ring: each [`CoordOp`] is the `cmd` of a `RequestV2`, and the
    //! session-framed reply payload is the operation's [`CoordResult`]
    //! followed by the [`CoordEvent`]s it produced ([`encode_reply`]).
    //! Every operation but `WatchAll` and `InstallConfig` — reads
    //! included — is ordered through the ensemble's own Ring Paxos log
    //! before it is applied and answered, so reads are linearizable. The
    //! serving replica answers a `WatchAll` itself, then sends the events
    //! of every command it applies as further replies to that request.
    //!
    //! A protocol state machine asks coordination the same way, by
    //! message: [`ask`] is a session-less request addressed to
    //! [`COORD_NODE`], its driver routes it like any other send, and
    //! [`answered`] reads the [`answer`] that comes back.
    //!
    //! Configuration objects cross the wire in flattened form
    //! ([`RingConfigWire`], [`PartitionWire`]) so this protocol can live in
    //! `common` below the `coord` crate that owns the rich types.
    //!
    //! ## Wire layout & stability
    //!
    //! Every payload follows the crate-wide conventions (see [`super`]):
    //! a single tag byte per enum, varint integers, length-prefixed
    //! bytes/strings. [`CoordOp`]s are additionally **persisted** in the
    //! amcoord replicas' WALs, so the encoding is part of the on-disk
    //! format, not just the RPC format: tags are append-only, retired
    //! tags decode as errors and are never reused, and existing layouts
    //! never change.
    //! The exact bytes of every payload shape are pinned by the golden
    //! corpus `ci/wire_vectors_coord.txt`
    //! (`crates/common/tests/wire_vectors_coord.rs`); regenerate with
    //! `REGEN_WIRE_VECTORS=1 cargo test -p common --test
    //! wire_vectors_coord` and review the diff as an interface change.

    use super::client::{frame_ok, parse_reply, ClientMsg, ClientReply, ST_OK};
    use super::{get_vec, put_vec, Wire};
    use crate::error::WireError;
    use crate::ids::{Epoch, NodeId, PartitionId, RequestId, RingId, SessionId};
    use crate::msg::Msg;
    use crate::value::NO_SESSION;
    use bytes::{Bytes, BytesMut};

    wire_frame! {
        /// Flattened [`coord::RingConfig`](../../../coord) — membership, roles
        /// and epoch of one ring.
        ///
        /// Wire layout: `ring ++ members(vec) ++ acceptors(vec) ++
        /// coordinator ++ epoch`, all varint-based (no tag byte — this is a
        /// struct, embedded in the frames that carry it).
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct RingConfigWire {
            /// The ring id.
            pub ring: RingId,
            /// Members in ring order.
            pub members: Vec<NodeId>,
            /// The voting acceptors.
            pub acceptors: Vec<NodeId>,
            /// The elected coordinator.
            pub coordinator: NodeId,
            /// The configuration epoch.
            pub epoch: Epoch,
        }
    }

    wire_frame! {
        /// Flattened partition description: the rings its replicas subscribe
        /// to and the replica set.
        ///
        /// Wire layout: `partition ++ rings(vec) ++ replicas(vec)` (no tag
        /// byte).
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct PartitionWire {
            /// The partition id.
            pub partition: PartitionId,
            /// Rings every replica subscribes to.
            pub rings: Vec<RingId>,
            /// The replicas.
            pub replicas: Vec<NodeId>,
        }
    }

    wire_frame! {
        /// One ephemeral registry entry (alive only while its session is).
        ///
        /// Wire layout: `key(string) ++ session ++ value(bytes)` (no tag
        /// byte).
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct EphemeralEntry {
            /// The entry's key (e.g. `nodes/3`).
            pub key: String,
            /// The owning session.
            pub session: SessionId,
            /// The entry's value (e.g. the node's advertised addresses).
            pub value: Bytes,
        }
    }

    wire_frame! {
        "coord op";
        /// One coordination operation.
        ///
        /// ## Wire layout
        ///
        /// One tag byte (append-only), then the variant's fields encoded in
        /// declaration order:
        ///
        /// | tag | variant | body |
        /// |----:|---------|------|
        /// | 4 | `RegisterRing` | `cfg` ([`RingConfigWire`]) |
        /// | 5 | `EnsureRing` | `cfg` |
        /// | 6 | `GetRing` | `ring` |
        /// | 7 | `RingIds` | — |
        /// | 8 | `ElectCoordinator` | `ring ++ candidate ++ seen_epoch` |
        /// | 9 | `ReportFailure` | `ring ++ failed ++ seen_epoch` |
        /// | 10 | `Rejoin` | `ring ++ node ++ as_acceptor(bool)` |
        /// | 11 | `InstallConfig` | `cfg` |
        /// | 12 | `Subscribe` | `ring ++ node` |
        /// | 13 | `Subscribers` | `ring` |
        /// | 14 | `RegisterPartition` | `part` ([`PartitionWire`]) |
        /// | 15 | `EnsurePartition` | `part` |
        /// | 16 | `PartitionOf` | `replica` |
        /// | 17 | `GetPartition` | `partition` |
        /// | 18 | `Partitions` | — |
        /// | 19 | `SetMeta` | `key(string) ++ value(bytes) ++ expected_version(option varint)` |
        /// | 20 | `GetMeta` | `key(string)` |
        /// | 21 | `RegisterEphemeral` | `session ++ key(string) ++ value(bytes)` |
        /// | 22 | `Ephemerals` | `prefix(string)` |
        /// | 23 | `WatchAll` | — |
        ///
        /// Retired tags decode as errors and are never reused: 0–3 (the
        /// service's own sessions, now protocol-v2 sessions), 24 (a snapshot
        /// catch-up request) and 25 (a stats request, now the v2
        /// `StatsRequest`).
        ///
        /// Ordered variants are written to the amcoord replicas' WALs, so
        /// this layout is also an on-disk format; bytes are pinned by
        /// `ci/wire_vectors_coord.txt`.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum CoordOp {
            /// Registers a new ring configuration (fails if the id is taken).
            4 => RegisterRing {
                /// The configuration (epoch/coordinator fields are advisory;
                /// registration always starts at epoch 1, first acceptor).
                cfg: RingConfigWire,
            },
            /// Idempotent ring bootstrap: registers the ring, or — when the
            /// id is already registered (concurrent seeding by every node of
            /// a deployment, possibly reconfigured since) — returns whatever
            /// configuration the service holds, which the caller adopts. No
            /// compatibility check is made; the service is the authority.
            5 => EnsureRing {
                /// The configuration to register if absent.
                cfg: RingConfigWire,
            },
            /// Reads one ring's current configuration.
            6 => GetRing {
                /// The ring.
                ring: RingId,
            },
            /// Lists all registered ring ids.
            7 => RingIds,
            /// Compare-and-swap coordinator election.
            8 => ElectCoordinator {
                /// The ring.
                ring: RingId,
                /// The proposed coordinator.
                candidate: NodeId,
                /// The epoch the caller's view is based on.
                seen_epoch: Epoch,
            },
            /// Reports a member failed, removing it if the caller's view is
            /// current.
            9 => ReportFailure {
                /// The ring.
                ring: RingId,
                /// The failed member.
                failed: NodeId,
                /// The epoch the caller's view is based on.
                seen_epoch: Epoch,
            },
            /// Re-admits a recovered member (idempotent).
            10 => Rejoin {
                /// The ring.
                ring: RingId,
                /// The recovering node.
                node: NodeId,
                /// Whether the node returns as an acceptor.
                as_acceptor: bool,
            },
            /// Installs a configuration if it is newer than the stored one —
            /// the amcoordd ensemble gossips its *own* ring's reconfigurations
            /// this way (the one ring that cannot be coordinated through
            /// itself).
            11 => InstallConfig {
                /// The candidate configuration.
                cfg: RingConfigWire,
            },
            /// Records that `node` delivers from `ring`.
            12 => Subscribe {
                /// The ring.
                ring: RingId,
                /// The subscribing learner.
                node: NodeId,
            },
            /// Lists the learners subscribed to `ring`.
            13 => Subscribers {
                /// The ring.
                ring: RingId,
            },
            /// Registers a service partition (fails if taken).
            14 => RegisterPartition {
                /// The partition description.
                part: PartitionWire,
            },
            /// Idempotent partition bootstrap (see [`CoordOp::EnsureRing`]).
            15 => EnsurePartition {
                /// The partition description.
                part: PartitionWire,
            },
            /// The partition a replica belongs to.
            16 => PartitionOf {
                /// The replica.
                replica: NodeId,
            },
            /// Reads one partition's description.
            17 => GetPartition {
                /// The partition.
                partition: PartitionId,
            },
            /// Lists all partitions.
            18 => Partitions,
            /// Writes a versioned metadata blob (a znode). With
            /// `expected_version` the write is a compare-and-swap on the key's
            /// version; stale writers are rejected.
            19 => SetMeta {
                /// The key.
                key: String,
                /// The value.
                value: Bytes,
                /// CAS guard: the version the writer read, or `None` for an
                /// unconditional write.
                expected_version: Option<u64>,
            },
            /// Reads a metadata blob and its version.
            20 => GetMeta {
                /// The key.
                key: String,
            },
            /// Registers an ephemeral entry owned by `session`, which must be
            /// the session the request is sent under.
            21 => RegisterEphemeral {
                /// The owning session.
                session: SessionId,
                /// The entry key.
                key: String,
                /// The entry value.
                value: Bytes,
            },
            /// Lists ephemeral entries whose key starts with `prefix`.
            22 => Ephemerals {
                /// The key prefix (empty for all).
                prefix: String,
            },
            /// Subscribes this connection to every [`CoordEvent`]: answered
            /// by the serving replica, then answered again with the events of
            /// each command it applies.
            23 => WatchAll,
        }
    }

    wire_frame! {
        "elect outcome";
        /// Outcome of a compare-and-swap election.
        ///
        /// Wire layout: tag `0` = `Won ++ epoch`, tag `1` = `Lost ++ cfg`.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum ElectOutcome {
            /// The candidate won; the ring is now at this epoch.
            0 => Won(Epoch),
            /// The caller's view was stale; here is the current configuration.
            1 => Lost(RingConfigWire),
        }
    }

    wire_frame! {
        "coord ok";
        /// Successful reply bodies, one variant per result shape.
        ///
        /// ## Wire layout
        ///
        /// One tag byte, then the payload:
        ///
        /// | tag | variant | body |
        /// |----:|---------|------|
        /// | 0 | `Unit` | — |
        /// | 2 | `Ring` | `option(cfg)` |
        /// | 3 | `RingIds` | `vec(ring)` |
        /// | 4 | `Election` | [`ElectOutcome`] |
        /// | 5 | `Config` | `cfg` |
        /// | 6 | `Nodes` | `vec(node)` |
        /// | 7 | `PartitionOf` | `option(partition)` |
        /// | 8 | `Partition` | `option(part)` |
        /// | 9 | `Partitions` | `vec(part)` |
        /// | 10 | `Meta` | `option(version(varint) ++ value(bytes))` |
        /// | 11 | `Version` | `version(varint)` |
        /// | 12 | `Ephemerals` | `vec(entry)` |
        ///
        /// Tags 1 (a session id), 13 (a snapshot answer) and 14 (a stats
        /// answer) are retired and decode as errors.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum CoordOk {
            /// Nothing to return.
            0 => Unit,
            /// A ring's configuration, or `None` if never registered.
            2 => Ring(Option<RingConfigWire>),
            /// All ring ids, ascending.
            3 => RingIds(Vec<RingId>),
            /// Election outcome.
            4 => Election(ElectOutcome),
            /// The resulting configuration (failure report / rejoin).
            5 => Config(RingConfigWire),
            /// A list of nodes (subscribers).
            6 => Nodes(Vec<NodeId>),
            /// The partition a replica belongs to, if any.
            7 => PartitionOf(Option<PartitionId>),
            /// One partition, if registered.
            8 => Partition(Option<PartitionWire>),
            /// All partitions, ascending by id.
            9 => Partitions(Vec<PartitionWire>),
            /// A metadata blob `(version, value)`, or `None` if absent.
            10 => Meta(Option<(u64, Bytes)>),
            /// The version a metadata write produced.
            11 => Version(u64),
            /// Matching ephemeral entries, ascending by key.
            12 => Ephemerals(Vec<EphemeralEntry>),
        }
    }

    /// What an operation answers: its result, or why it was refused.
    /// Wire layout: `0 ++ ok` ([`CoordOk`]) or `1 ++ reason(string)`.
    pub type CoordResult = Result<CoordOk, String>;

    wire_frame! {
        "coord event";
        /// A state-change notification sent to watchers.
        ///
        /// ## Wire layout
        ///
        /// One tag byte, then the fields in declaration order:
        ///
        /// | tag | variant | body |
        /// |----:|---------|------|
        /// | 0 | `RingChanged` | `cfg` |
        /// | 1 | `SubscribersChanged` | `ring ++ vec(node)` |
        /// | 2 | `PartitionsChanged` | — |
        /// | 3 | `MetaChanged` | `key(string) ++ version(varint)` |
        ///
        /// Tags 4 (an ephemeral's liveness) and 5 (a session's expiry) are
        /// retired and decode as errors.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum CoordEvent {
            /// A ring's configuration changed (new epoch).
            0 => RingChanged {
                /// The new configuration.
                cfg: RingConfigWire,
            },
            /// A ring's subscriber set changed.
            1 => SubscribersChanged {
                /// The ring.
                ring: RingId,
                /// The new subscriber list.
                subscribers: Vec<NodeId>,
            },
            /// The partition table changed.
            2 => PartitionsChanged,
            /// A metadata key changed.
            3 => MetaChanged {
                /// The key.
                key: String,
                /// Its new version.
                version: u64,
            },
        }
    }

    /// Encodes a reply payload: the operation's result, then its events.
    pub fn encode_reply(result: &CoordResult, events: &[CoordEvent]) -> Bytes {
        let mut buf = BytesMut::new();
        result.encode(&mut buf);
        put_vec(&mut buf, events);
        buf.freeze()
    }

    /// Decodes a reply payload written by [`encode_reply`].
    ///
    /// # Errors
    ///
    /// Fails on a truncated or corrupt payload.
    pub fn decode_reply(payload: &Bytes) -> Result<(CoordResult, Vec<CoordEvent>), WireError> {
        let mut raw = payload.clone();
        Ok((CoordResult::decode(&mut raw)?, get_vec(&mut raw)?))
    }

    /// The ring an `amcoordd` ensemble orders its own log on, and the
    /// group every coordination request names.
    pub const COORD_RING: RingId = RingId::new(0);

    /// The node id every coordination ask is addressed to. Drivers map it
    /// onto wherever coordination lives: the simulator to a simulated
    /// coordination process, the live node loop to its registry or its
    /// link to an `amcoordd` ensemble.
    pub const COORD_NODE: NodeId = NodeId::new(u32::MAX);

    /// Coordination as a message: the session-less protocol-v2 request on
    /// [`COORD_RING`] asking for `op`, correlated by `seq` — the frame an
    /// `amcoordd` replica reads.
    pub fn ask(seq: u64, op: &CoordOp) -> Msg {
        Msg::Client(ClientMsg::RequestV2 {
            session: NO_SESSION,
            seq: RequestId::new(seq),
            ack: 0,
            group: COORD_RING,
            cmd: op.to_bytes(),
        })
    }

    /// The sequence number and operation of an [`ask`]; `None` for any
    /// other message.
    pub fn asked(msg: &Msg) -> Option<(u64, CoordOp)> {
        match msg {
            Msg::Client(ClientMsg::RequestV2 {
                session: NO_SESSION,
                seq,
                group: COORD_RING,
                cmd,
                ..
            }) => Some((seq.raw(), CoordOp::decode(&mut cmd.clone()).ok()?)),
            _ => None,
        }
    }

    /// The response answering ask `seq` with `result`, framed as an
    /// `amcoordd` replica frames its session-less replies.
    pub fn answer(seq: u64, from: NodeId, result: crate::Result<CoordOk>) -> Msg {
        let result: CoordResult = result.map_err(|e| e.to_string());
        Msg::Reply(ClientReply::ResponseV2 {
            session: NO_SESSION,
            seq: RequestId::new(seq),
            from_replica: from,
            payload: frame_ok(&encode_reply(&result, &[])),
        })
    }

    /// The sequence number and result of an [`answer`]; `None` for any
    /// other reply.
    pub fn answered(reply: &ClientReply) -> Option<(u64, CoordResult)> {
        match reply {
            ClientReply::ResponseV2 {
                session: NO_SESSION,
                seq,
                payload,
                ..
            } => match parse_reply(payload)? {
                (ST_OK, body) => Some((seq.raw(), decode_reply(&body).ok()?.0)),
                _ => None,
            },
            _ => None,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use bytes::Buf;

        fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut b = v.to_bytes();
            assert_eq!(T::decode(&mut b).unwrap(), v);
            assert_eq!(b.remaining(), 0);
        }

        fn cfg() -> RingConfigWire {
            RingConfigWire {
                ring: RingId::new(2),
                members: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                acceptors: vec![NodeId::new(0), NodeId::new(1)],
                coordinator: NodeId::new(1),
                epoch: Epoch::new(4),
            }
        }

        #[test]
        fn coord_protocol_round_trips() {
            for op in [
                CoordOp::RegisterRing { cfg: cfg() },
                CoordOp::EnsureRing { cfg: cfg() },
                CoordOp::GetRing {
                    ring: RingId::new(2),
                },
                CoordOp::RingIds,
                CoordOp::ElectCoordinator {
                    ring: RingId::new(2),
                    candidate: NodeId::new(1),
                    seen_epoch: Epoch::new(3),
                },
                CoordOp::ReportFailure {
                    ring: RingId::new(2),
                    failed: NodeId::new(0),
                    seen_epoch: Epoch::new(3),
                },
                CoordOp::Rejoin {
                    ring: RingId::new(2),
                    node: NodeId::new(0),
                    as_acceptor: true,
                },
                CoordOp::InstallConfig { cfg: cfg() },
                CoordOp::Subscribe {
                    ring: RingId::new(2),
                    node: NodeId::new(5),
                },
                CoordOp::Subscribers {
                    ring: RingId::new(2),
                },
                CoordOp::RegisterPartition {
                    part: PartitionWire {
                        partition: PartitionId::new(1),
                        rings: vec![RingId::new(1), RingId::new(2)],
                        replicas: vec![NodeId::new(3)],
                    },
                },
                CoordOp::PartitionOf {
                    replica: NodeId::new(3),
                },
                CoordOp::Partitions,
                CoordOp::SetMeta {
                    key: "partitioning".into(),
                    value: Bytes::from_static(b"hash:3"),
                    expected_version: Some(2),
                },
                CoordOp::GetMeta {
                    key: "partitioning".into(),
                },
                CoordOp::RegisterEphemeral {
                    session: SessionId::new(4),
                    key: "nodes/3".into(),
                    value: Bytes::from_static(b"127.0.0.1:7400"),
                },
                CoordOp::Ephemerals {
                    prefix: "nodes/".into(),
                },
                CoordOp::WatchAll,
            ] {
                rt(op);
            }
            for ok in [
                CoordOk::Election(ElectOutcome::Won(Epoch::new(5))),
                CoordOk::Election(ElectOutcome::Lost(cfg())),
                CoordOk::Meta(Some((4, Bytes::from_static(b"x")))),
                CoordOk::Meta(None),
                CoordOk::Ephemerals(vec![EphemeralEntry {
                    key: "nodes/0".into(),
                    session: SessionId::new(1),
                    value: Bytes::from_static(b"addr"),
                }]),
            ] {
                rt(Ok::<_, String>(ok));
            }
            rt(Err::<CoordOk, _>("unknown ring".to_string()));
            rt(CoordEvent::RingChanged { cfg: cfg() });
            let events = vec![
                CoordEvent::MetaChanged {
                    key: "k".into(),
                    version: 2,
                },
                CoordEvent::PartitionsChanged,
            ];
            let payload = encode_reply(&Ok(CoordOk::Version(2)), &events);
            assert_eq!(
                decode_reply(&payload).unwrap(),
                (Ok(CoordOk::Version(2)), events)
            );
        }

        #[test]
        fn retired_tags_decode_as_bad_tags() {
            for tag in [0, 1, 2, 3, 24, 25] {
                let op = CoordOp::decode(&mut Bytes::copy_from_slice(&[tag, 1, 1]));
                assert!(matches!(op, Err(WireError::BadTag { tag: t, .. }) if t == tag));
            }
            for tag in [1, 13, 14] {
                let ok = CoordOk::decode(&mut Bytes::copy_from_slice(&[tag, 1]));
                assert!(matches!(ok, Err(WireError::BadTag { tag: t, .. }) if t == tag));
            }
            for tag in [4, 5] {
                let event = CoordEvent::decode(&mut Bytes::copy_from_slice(&[tag, 1, 1]));
                assert!(matches!(event, Err(WireError::BadTag { tag: t, .. }) if t == tag));
            }
        }
    }
}

pub mod client {
    //! The live client protocol.
    //!
    //! Clients of a live deployment speak length-framed TCP to any node
    //! (paper §7: clients submit to proposers and receive replica replies
    //! over the network). Requests and replies flow asynchronously —
    //! replies may arrive out of request order (commands execute when the
    //! deterministic merge delivers them) and are correlated by sequence
    //! number.
    //!
    //! ## Protocol v1, retired
    //!
    //! The first generation opened a connection with a bare hello and sent
    //! at-least-once requests: a retry could execute twice. Its frames are
    //! gone. Their tags — 0 and 1 of [`ClientMsg`], 0 to 2 of
    //! [`ClientReply`] — decode as errors, so a server closes a connection
    //! that sends one, and they are never reused. [`ClientMsg::Ping`] and
    //! [`ClientReply::Pong`] date from v1 and keep their bytes.
    //!
    //! ## Protocol v2 (tags 3+ / 4+)
    //!
    //! v2 is built on **sessions**:
    //!
    //! * [`ClientMsg::HelloV2`] is a versioned handshake with feature
    //!   negotiation; the server answers [`ClientReply::WelcomeV2`]
    //!   carrying the granted feature set and a credit **window** — the
    //!   number of requests the client may keep in flight. Further
    //!   [`ClientReply::CreditGrant`] frames may resize the window at any
    //!   time.
    //! * [`ClientMsg::RequestV2`] tags every command with a replicated
    //!   **session id** and a per-session sequence number. Sessions are
    //!   opened through the ordered command stream itself (a control
    //!   command with `session == SESSION_CTL`), so every replica agrees
    //!   on session ids and on which `(session, seq)` pairs already
    //!   executed: a retried request is answered from the replica's reply
    //!   cache, never executed twice. The `ack` field (highest seq whose
    //!   reply the client received, contiguously) lets replicas prune
    //!   their caches deterministically.
    //! * [`ClientReply::ResponseV2`] echoes the session id, so a
    //!   straggler reply from a previous client incarnation can never be
    //!   mis-matched to a new request (v1 needed a wall-clock sequence
    //!   base for this).
    //! * [`ClientReply::Redirect`] lets a node that does not serve a
    //!   group point the client at one that does, instead of failing or
    //!   silently proxying.
    //! * Errors carry typed [`ErrorCode`]s ([`ClientReply::ErrorV2`])
    //!   instead of free-form strings.
    //!
    //! ## Version gating
    //!
    //! v2 frames are usable only after feature negotiation: the client
    //! requests a [`FEAT_PIPELINE`]`|`[`FEAT_EXACTLY_ONCE`]`|`... bitset
    //! in [`ClientMsg::HelloV2`] and the server grants the intersection
    //! with its own support in [`ClientReply::WelcomeV2`]. A server never
    //! sends a frame whose feature bit it
    //! did not grant ([`ClientReply::Redirect`] needs [`FEAT_REDIRECT`],
    //! [`ClientReply::Stats`] needs [`FEAT_STATS`] — except for the
    //! hello-less [`ClientMsg::StatsRequest`] probe, which is answered
    //! unconditionally). Unknown tags are a decode error, never skipped.
    //!
    //! ## Byte stability
    //!
    //! The exact bytes of every frame shape below are pinned by the
    //! golden corpus `ci/wire_vectors_client.txt`, checked by
    //! `crates/common/tests/wire_vectors.rs`. A frame's bytes never
    //! change; new frames may only append tags. Intentional changes
    //! regenerate the corpus (`REGEN_WIRE_VECTORS=1 cargo test -p common
    //! --test wire_vectors`) and the diff is reviewed as an interface
    //! change — a changed line is a bug, not a refresh.

    use super::get_varint;
    use crate::ids::{ClientId, NodeId, RequestId, RingId};
    use bytes::{BufMut, Bytes, BytesMut};

    /// First byte of every sessioned reply payload: the request executed and
    /// the rest of the payload is the service's response.
    pub const ST_OK: u8 = 0;
    /// The session is unknown (expired, evicted, or never opened). The
    /// command was **not** executed; the client must re-open.
    pub const ST_UNKNOWN_SESSION: u8 = 1;
    /// The seq is beyond `ack + window cap`; not executed. The client must
    /// drain completions (advancing its ack) before retrying.
    pub const ST_WINDOW_EXCEEDED: u8 = 2;
    /// The seq is at or below the client's own ack — a duplicate of a
    /// command whose reply the client already confirmed. Not executed.
    pub const ST_STALE: u8 = 3;

    wire_frame! {
        "session ctl";
        /// Session-control commands, the `cmd` of a [`ClientMsg::RequestV2`]
        /// whose `session` is `SESSION_CTL` (see `multiring::session`).
        ///
        /// Wire layout: tag `0` = `Open ++ token ++ ttl_ms`, `1` =
        /// `KeepAlive ++ session`, `2` = `Expire ++ session ++ seen_refresh`,
        /// all varints.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum SessionCtl {
            /// Allocates a new session. Every delivered open allocates a *fresh*
            /// id — deliberately not deduplicated by any client-chosen token,
            /// because a token reused by a later client incarnation would alias
            /// it to the dead incarnation's session (exactly the cross-invocation
            /// confusion sessions exist to kill). A retried open whose original
            /// got delivered leaks one idle session; TTL expiry collects it.
            0 => Open {
                /// Client-chosen correlation token echoed as the reply's seq.
                token: u64,
                /// Session TTL in milliseconds: how long the refresh counter may
                /// sit still before servers propose expiry.
                ttl_ms: u64,
            },
            /// Bumps the session's replicated liveness counter.
            1 => KeepAlive {
                /// The session.
                session: u64,
            },
            /// Removes the session iff its refresh counter still reads
            /// `seen_refresh` — proposed by serving nodes, raced (and beaten) by
            /// in-flight keep-alives.
            2 => Expire {
                /// The session.
                session: u64,
                /// The refresh count the proposing node observed.
                seen_refresh: u64,
            },
        }
    }

    /// Frames a service reply as a successful sessioned payload (the
    /// inverse of [`parse_reply`] for [`ST_OK`]).
    pub fn frame_ok(inner: &Bytes) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + inner.len());
        buf.put_u8(ST_OK);
        buf.extend_from_slice(inner);
        buf.freeze()
    }

    /// Splits a sessioned reply payload into its status byte and the service
    /// payload. Returns `None` on an empty payload (malformed).
    pub fn parse_reply(payload: &Bytes) -> Option<(u8, Bytes)> {
        if payload.is_empty() {
            return None;
        }
        Some((payload[0], payload.slice(1..)))
    }

    /// Parses the payload of a successful [`SessionCtl::Open`] reply.
    pub fn parse_open_reply(payload: &Bytes) -> Option<u64> {
        let (st, mut rest) = parse_reply(payload)?;
        if st != ST_OK {
            return None;
        }
        get_varint(&mut rest).ok()
    }

    /// Feature bit: client pipelines many requests per connection.
    pub const FEAT_PIPELINE: u64 = 1;
    /// Feature bit: exactly-once sessions (replicated dedup).
    pub const FEAT_EXACTLY_ONCE: u64 = 2;
    /// Feature bit: the server may answer [`ClientReply::Redirect`].
    pub const FEAT_REDIRECT: u64 = 4;
    /// Feature bit: the server answers [`ClientMsg::StatsRequest`] with
    /// its node's metrics snapshot ([`ClientReply::Stats`]).
    pub const FEAT_STATS: u64 = 8;
    /// Every feature this build knows about.
    pub const FEAT_ALL: u64 = FEAT_PIPELINE | FEAT_EXACTLY_ONCE | FEAT_REDIRECT | FEAT_STATS;

    wire_frame! {
        "error code";
        /// Typed reasons a server rejects a request (v2).
        ///
        /// Wire layout: one byte — `HelloRequired` = 0, `UnknownGroup` = 1,
        /// `NotServing` = 2, `Shedding` = 3, `Internal` = 4. Append-only.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum ErrorCode {
            /// A request arrived before any hello on the connection.
            0 => HelloRequired,
            /// The named multicast group exists nowhere in the deployment.
            1 => UnknownGroup,
            /// This node does not serve the group (and no redirect target is
            /// known).
            2 => NotServing,
            /// The server shed the request under load; retry later.
            3 => Shedding,
            /// Anything else; see the detail string.
            4 => Internal,
        }
    }

    wire_frame! {
        "client wire msg";
        /// A frame sent by a client to a serving node.
        ///
        /// ## Wire layout
        ///
        /// One tag byte, then the fields in declaration order (ids and
        /// integers are varints, `cmd` is length-prefixed bytes):
        ///
        /// | tag | variant | body | since |
        /// |----:|---------|------|-------|
        /// | 2 | `Ping` | `token(varint)` | v1 |
        /// | 3 | `HelloV2` | `client ++ features(varint)` | v2 |
        /// | 4 | `RequestV2` | `session(varint) ++ seq ++ ack(varint) ++ group ++ cmd(bytes)` | v2, [`FEAT_EXACTLY_ONCE`] |
        /// | 5 | `StatsRequest` | `token(varint)` | v2, [`FEAT_STATS`] |
        /// | 6 | `RequestHere` | as `RequestV2` | v2, [`FEAT_EXACTLY_ONCE`] |
        ///
        /// Tags 0–1 are retired v1 frames. The corpus
        /// `ci/wire_vectors_client.txt` pins every row.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum ClientMsg {
            /// Connection-liveness probe; the server answers with
            /// [`ClientReply::Pong`].
            2 => Ping {
                /// Echoed token.
                token: u64,
            },
            /// The handshake: names the client and negotiates features; all
            /// replies for `client` flow back over the connection that sent
            /// it. Answered with [`ClientReply::WelcomeV2`].
            3 => HelloV2 {
                /// The connecting client's id (unique per deployment).
                client: ClientId,
                /// Features the client wants ([`FEAT_PIPELINE`], ...).
                features: u64,
            },
            /// Submit `cmd` under an exactly-once session. With
            /// `session == SESSION_CTL` the command is a [`SessionCtl`]
            /// (open / keep-alive / expire) rather than a service command.
            4 => RequestV2 {
                /// The replicated session the command executes under.
                session: u64,
                /// Per-session sequence number (1, 2, ... within the session).
                seq: RequestId,
                /// Highest seq whose replies the client has received without
                /// gaps — replicas prune their reply caches up to here.
                ack: u64,
                /// The multicast group (ring) to order the command on.
                group: RingId,
                /// Service-specific command bytes.
                cmd: Bytes,
            },
            /// Asks the serving node for its metrics snapshot (the stats
            /// plane). Answered immediately with [`ClientReply::Stats`]; no
            /// hello is required, so monitoring can probe any node with a
            /// bare connection ([`FEAT_STATS`]).
            5 => StatsRequest {
                /// Echoed token correlating the snapshot (watch loops).
                token: u64,
            },
            /// A [`ClientMsg::RequestV2`] whose first execution the node
            /// that takes it answers too. A command's first execution is
            /// answered by one replica per partition; a client that needs
            /// one named replica's answer sends the request to that
            /// replica in this frame.
            6 => RequestHere {
                /// As [`ClientMsg::RequestV2`].
                session: u64,
                /// As [`ClientMsg::RequestV2`].
                seq: RequestId,
                /// As [`ClientMsg::RequestV2`].
                ack: u64,
                /// As [`ClientMsg::RequestV2`].
                group: RingId,
                /// As [`ClientMsg::RequestV2`].
                cmd: Bytes,
            },
        }
    }

    wire_frame! {
        "client wire reply";
        /// A frame sent by a serving node to a client.
        ///
        /// ## Wire layout
        ///
        /// One tag byte, then the fields in declaration order:
        ///
        /// | tag | variant | body | since |
        /// |----:|---------|------|-------|
        /// | 3 | `Pong` | `token(varint)` | v1 |
        /// | 4 | `WelcomeV2` | `node ++ features(varint) ++ window(varint)` | v2 |
        /// | 5 | `ResponseV2` | `session(varint) ++ seq ++ from_replica ++ payload(bytes)` | v2, [`FEAT_EXACTLY_ONCE`] |
        /// | 6 | `ErrorV2` | `seq ++ code` ([`ErrorCode`]) ` ++ detail(string)` | v2 |
        /// | 7 | `Redirect` | `seq ++ group ++ to` | v2, [`FEAT_REDIRECT`] |
        /// | 8 | `CreditGrant` | `window(varint)` | v2, [`FEAT_PIPELINE`] |
        /// | 9 | `Stats` | `token(varint) ++ snapshot` | v2, [`FEAT_STATS`] |
        ///
        /// Tags 0–2 are retired v1 frames. The corpus
        /// `ci/wire_vectors_client.txt` pins every row.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum ClientReply {
            /// Answer to [`ClientMsg::Ping`].
            3 => Pong {
                /// Echoed token.
                token: u64,
            },
            /// Handshake accepted.
            4 => WelcomeV2 {
                /// The serving node.
                node: NodeId,
                /// Features granted (requested ∩ supported).
                features: u64,
                /// Initial credit window: requests the client may keep in
                /// flight on this connection.
                window: u32,
            },
            /// A replica executed a v2 request. The session echo is what
            /// makes reply matching safe across client incarnations.
            5 => ResponseV2 {
                /// The session the command executed under (as replicated).
                session: u64,
                /// The request's per-session sequence number.
                seq: RequestId,
                /// The replica that executed the command.
                from_replica: NodeId,
                /// Session-framed response bytes (status byte + service
                /// payload; see `multiring::session`).
                payload: Bytes,
            },
            /// The serving node rejected a v2 request.
            6 => ErrorV2 {
                /// The request's sequence number.
                seq: RequestId,
                /// Machine-readable reason.
                code: ErrorCode,
                /// Human-readable detail.
                detail: String,
            },
            /// This node does not serve `group`; retry the request at `to`.
            7 => Redirect {
                /// The rejected request's sequence number.
                seq: RequestId,
                /// The group the request named.
                group: RingId,
                /// A node that serves the group.
                to: NodeId,
            },
            /// Resizes the client's credit window mid-session.
            8 => CreditGrant {
                /// The new window (requests in flight allowed).
                window: u32,
            },
            /// The serving node's metrics snapshot — the `StatsResponse`
            /// answering [`ClientMsg::StatsRequest`].
            9 => Stats {
                /// The request's token, echoed.
                token: u64,
                /// The node's metrics at the moment of the request.
                snapshot: crate::obs::ObsSnapshot,
            },
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::wire::Wire;
        use bytes::Buf;

        fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut b = v.to_bytes();
            assert_eq!(T::decode(&mut b).unwrap(), v);
            assert_eq!(b.remaining(), 0);
        }

        #[test]
        fn client_protocol_round_trips() {
            rt(ClientMsg::Ping { token: u64::MAX });
            rt(ClientReply::Pong { token: 0 });
        }

        #[test]
        fn client_protocol_v2_round_trips() {
            rt(ClientMsg::HelloV2 {
                client: ClientId::new(77),
                features: FEAT_ALL,
            });
            rt(ClientMsg::RequestV2 {
                session: 5,
                seq: RequestId::new(9),
                ack: 7,
                group: RingId::new(1),
                cmd: Bytes::from_static(b"put k v"),
            });
            rt(ClientMsg::RequestV2 {
                session: u64::MAX,
                seq: RequestId::new(1),
                ack: 0,
                group: RingId::new(2),
                cmd: Bytes::new(),
            });
            rt(ClientReply::WelcomeV2 {
                node: NodeId::new(3),
                features: FEAT_PIPELINE | FEAT_EXACTLY_ONCE,
                window: 64,
            });
            rt(ClientReply::ResponseV2 {
                session: 5,
                seq: RequestId::new(9),
                from_replica: NodeId::new(2),
                payload: Bytes::from_static(b"\x00=v"),
            });
            for code in [
                ErrorCode::HelloRequired,
                ErrorCode::UnknownGroup,
                ErrorCode::NotServing,
                ErrorCode::Shedding,
                ErrorCode::Internal,
            ] {
                rt(ClientReply::ErrorV2 {
                    seq: RequestId::new(10),
                    code,
                    detail: "nope".to_string(),
                });
            }
            rt(ClientReply::Redirect {
                seq: RequestId::new(11),
                group: RingId::new(2),
                to: NodeId::new(1),
            });
            rt(ClientReply::CreditGrant { window: 128 });
            rt(ClientMsg::StatsRequest { token: 42 });
            rt(ClientMsg::RequestHere {
                session: 5,
                seq: RequestId::new(9),
                ack: 7,
                group: RingId::new(1),
                cmd: Bytes::from_static(b"scan a z"),
            });
            rt(ClientReply::Stats {
                token: 42,
                snapshot: crate::obs::ObsSnapshot {
                    node: 2,
                    counters: vec![
                        ("proposed_cmds".into(), 1000),
                        ("executed_cmds".into(), 998),
                    ],
                    gauges: vec![("batcher_depth".into(), 4), ("merge_lag".into(), -1)],
                    hists: vec![(
                        "stage_decide_nanos".into(),
                        crate::obs::HistSummary {
                            count: 998,
                            sum: 1_000_000,
                            min: 120,
                            max: 9_000,
                            p50: 900,
                            p95: 4_000,
                            p99: 8_000,
                        },
                    )],
                },
            });
        }

        #[test]
        fn bad_tags_are_rejected() {
            // 99 was never used; the others are retired v1 frames.
            for tag in [0, 1, 99] {
                let mut raw = Bytes::copy_from_slice(&[tag]);
                assert!(ClientMsg::decode(&mut raw).is_err());
            }
            for tag in [0, 1, 2, 99] {
                let mut raw = Bytes::copy_from_slice(&[tag]);
                assert!(ClientReply::decode(&mut raw).is_err());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut bytes = v.to_bytes();
        let back = T::decode(&mut bytes).expect("decode");
        assert_eq!(v, back);
        assert_eq!(bytes.remaining(), 0, "decode must consume everything");
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length mismatch for {v}");
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        let mut bytes = Bytes::from_static(&[
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ]);
        assert!(matches!(
            get_varint(&mut bytes),
            Err(WireError::VarintOverflow)
        ));
    }

    #[test]
    fn varint_rejects_truncated() {
        let mut bytes = Bytes::from_static(&[0x80]);
        assert!(matches!(
            get_varint(&mut bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn narrow_integers_reject_wide_varints() {
        let varint = |v: u64| {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            buf.freeze()
        };
        let overflow = Some(WireError::VarintOverflow);
        assert_eq!(RingId::decode(&mut varint(1 << 16)).err(), overflow);
        assert_eq!(PartitionId::decode(&mut varint(1 << 16)).err(), overflow);
        assert_eq!(u16::decode(&mut varint(1 << 16)).err(), overflow);
        assert_eq!(NodeId::decode(&mut varint(1 << 32)).err(), overflow);
        assert_eq!(ClientId::decode(&mut varint(1 << 32)).err(), overflow);
        assert_eq!(u32::decode(&mut varint(1 << 32)).err(), overflow);
        let mut ballot = BytesMut::new();
        put_varint(&mut ballot, 1 << 32);
        put_varint(&mut ballot, 1);
        assert_eq!(Ballot::decode(&mut ballot.freeze()).err(), overflow);
        // The widest values that fit still decode.
        assert_eq!(
            RingId::decode(&mut varint(65_535)),
            Ok(RingId::new(u16::MAX))
        );
        assert_eq!(u32::decode(&mut varint(u64::from(u32::MAX))), Ok(u32::MAX));
    }

    #[test]
    fn ids_round_trip() {
        round_trip(NodeId::new(u32::MAX));
        round_trip(RingId::new(9));
        round_trip(InstanceId::new(1 << 40));
        round_trip(Ballot::new(77, NodeId::new(3)));
        round_trip(Ballot::ZERO);
        round_trip(SimTime::from_millis(123));
        round_trip(Epoch::new(u64::MAX));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Bytes::from_static(b"payload"));
        round_trip(Bytes::new());
        round_trip(vec![InstanceId::new(1), InstanceId::new(2)]);
        round_trip(Option::<NodeId>::None);
        round_trip(Some(NodeId::new(4)));
        round_trip((RingId::new(1), InstanceId::new(2)));
        round_trip("hello".to_string());
        round_trip(String::new());
    }

    #[test]
    fn bytes_rejects_huge_length() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, MAX_LEN + 1);
        let mut bytes = buf.freeze();
        assert!(matches!(
            get_bytes(&mut bytes),
            Err(WireError::LengthTooLarge { .. })
        ));
    }

    #[test]
    fn frames_reassemble_from_partial_input() {
        let msg = Bytes::from(vec![42u8; 1000]);
        let mut wire = BytesMut::new();
        frame::write(&mut wire, &msg);
        frame::write(&mut wire, &msg);

        // Feed the stream byte by byte; we must get exactly two frames out.
        let mut rx = BytesMut::new();
        let mut got = Vec::new();
        for b in wire.freeze() {
            rx.put_u8(b);
            while let Some(m) = frame::try_read::<Bytes>(&mut rx).unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], msg);
        assert_eq!(got[1], msg);
        assert!(rx.is_empty());
    }

    #[test]
    fn frame_rejects_oversized_declared_length() {
        let mut rx = BytesMut::new();
        put_varint(&mut rx, MAX_LEN + 7);
        assert!(frame::try_read::<Bytes>(&mut rx).is_err());
    }
}
