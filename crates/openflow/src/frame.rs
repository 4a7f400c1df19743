//! A shared, immutable, encoded control-plane message.
//!
//! [`Frame`] is the unit the whole injector pipeline passes around: the
//! encoded bytes of one OpenFlow message behind an `Arc`, plus a
//! lazily populated, memoized decode. Cloning a frame is a refcount
//! bump; duplicating, replaying, delaying, or storing a message shares
//! the same allocation; and any component that needs the decoded view
//! pays the parse cost at most once per frame, no matter how many hops
//! inspect it (the *single-decode invariant* — see DESIGN.md "Frame
//! ownership & the message path").
//!
//! Frames are immutable. Mutation (the executor's `MODIFYMESSAGE` /
//! `FUZZMESSAGE` actions) is copy-on-write: take [`Frame::bytes`], build
//! the altered byte vector, and wrap it in a fresh `Frame`.

use crate::error::CodecError;
use crate::header::OFP_HEADER_LEN;
use crate::message::OfMessage;
use crate::types::Xid;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of real (non-memoized) `OfMessage::decode` calls performed on
/// behalf of frames, process-wide. Test instrumentation for the
/// single-decode invariant: read it before and after a scenario and the
/// delta bounds the parse work the message path did — in a process where
/// nothing else decodes meanwhile (the unit tests below ask the frame's
/// own memo instead).
static DECODE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide count of real frame decodes performed so
/// far. Only ever increases; tests compare deltas.
pub fn frame_decode_count() -> u64 {
    DECODE_COUNT.load(Ordering::Relaxed)
}

#[derive(Debug)]
struct FrameInner {
    bytes: Box<[u8]>,
    decoded: OnceLock<Result<(OfMessage, Xid), CodecError>>,
}

/// One encoded OpenFlow message, shared by reference count.
///
/// Equality, ordering, and hashing are over the encoded bytes — two
/// frames with identical bytes are the same message regardless of how
/// they were constructed or whether either has been decoded yet.
#[derive(Clone)]
pub struct Frame {
    inner: Arc<FrameInner>,
}

impl Frame {
    /// Wraps raw wire bytes (one complete message: header + body). The
    /// decoded view is populated lazily on first [`Frame::decoded`].
    pub fn new(bytes: Vec<u8>) -> Frame {
        Frame {
            inner: Arc::new(FrameInner {
                bytes: bytes.into_boxed_slice(),
                decoded: OnceLock::new(),
            }),
        }
    }

    /// Encodes `msg` with `xid` and pre-seeds the decode memo with the
    /// message itself — a frame built this way is *never* parsed, on any
    /// path, because the structured view travels with the bytes.
    pub fn from_message(msg: OfMessage, xid: Xid) -> Frame {
        let bytes = msg.encode(xid);
        let decoded = OnceLock::new();
        let _ = decoded.set(Ok((msg, xid)));
        Frame {
            inner: Arc::new(FrameInner {
                bytes: bytes.into_boxed_slice(),
                decoded,
            }),
        }
    }

    /// The encoded message (header + body).
    pub fn bytes(&self) -> &[u8] {
        &self.inner.bytes
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.inner.bytes.len()
    }

    /// Whether the frame is empty (never true for a valid message, which
    /// has at least a header).
    pub fn is_empty(&self) -> bool {
        self.inner.bytes.is_empty()
    }

    /// Copies the encoded bytes out — the copy-on-write entry point for
    /// mutation paths.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.bytes.to_vec()
    }

    /// The decoded message and xid, parsing on first call and memoizing
    /// the result (including failures). Returns `None` if the bytes do
    /// not decode as OpenFlow.
    pub fn decoded(&self) -> Option<&(OfMessage, Xid)> {
        self.inner
            .decoded
            .get_or_init(|| {
                DECODE_COUNT.fetch_add(1, Ordering::Relaxed);
                OfMessage::decode(&self.inner.bytes)
            })
            .as_ref()
            .ok()
    }

    /// The decoded message, if the bytes parse.
    pub fn message(&self) -> Option<&OfMessage> {
        self.decoded().map(|(m, _)| m)
    }

    /// The decode failure, if the bytes do not parse.
    pub fn decode_error(&self) -> Option<&CodecError> {
        self.inner
            .decoded
            .get_or_init(|| {
                DECODE_COUNT.fetch_add(1, Ordering::Relaxed);
                OfMessage::decode(&self.inner.bytes)
            })
            .as_ref()
            .err()
    }

    /// The message type, via the (memoized) full decode — `None` for
    /// bytes that do not parse, matching what a fresh
    /// `OfMessage::decode` would conclude.
    pub fn of_type(&self) -> Option<crate::header::OfType> {
        self.message().map(OfMessage::of_type)
    }

    /// Builds a reply frame by copying these bytes and patching the
    /// header's type and xid fields in place — the echo-reply fast
    /// path. For any frame that decodes successfully, the result is
    /// byte-identical to re-encoding a same-body message of `of_type`
    /// with `xid` (the codec pins `version` and requires the length
    /// field to equal the buffer length), but skips the decode and the
    /// body re-serialization.
    ///
    /// Returns `None` if the frame is shorter than a header.
    pub fn patched_reply(&self, of_type: crate::header::OfType, xid: Xid) -> Option<Frame> {
        if self.len() < OFP_HEADER_LEN {
            return None;
        }
        let mut bytes = self.to_vec();
        bytes[1] = of_type as u8;
        bytes[4..8].copy_from_slice(&xid.to_be_bytes());
        Some(Frame::new(bytes))
    }

    /// How many `Frame` handles currently share this allocation (the
    /// unit tests' proof of the refcount-bump claims).
    #[cfg(test)]
    fn ref_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("len", &self.len())
            .field(
                "of_type",
                &self
                    .inner
                    .decoded
                    .get()
                    .map(|d| d.as_ref().ok().map(|(m, _)| m.of_type())),
            )
            .finish()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.bytes() == other.bytes()
    }
}

impl Eq for Frame {}

impl Hash for Frame {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes().hash(state);
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        Frame::new(bytes)
    }
}

impl From<&[u8]> for Frame {
    fn from(bytes: &[u8]) -> Frame {
        Frame::new(bytes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_frame() -> Frame {
        Frame::new(OfMessage::EchoRequest(vec![1, 2, 3]).encode(7))
    }

    #[test]
    fn raw_frame_decodes_exactly_once() {
        let f = echo_frame();
        assert!(
            f.inner.decoded.get().is_none(),
            "nothing parses before a read"
        );
        let first = f.decoded().expect("echo decodes");
        assert_eq!(first.1, 7);
        assert_eq!(first.0, OfMessage::EchoRequest(vec![1, 2, 3]));
        // Further reads — including through clones — are memo hits: they
        // hand out the one value the first read stored.
        let g = f.clone();
        assert!(std::ptr::eq(g.decoded().expect("memoized"), first));
        assert!(std::ptr::eq(f.decoded().expect("memoized"), first));
        assert_eq!(g.of_type(), Some(crate::header::OfType::EchoRequest));
    }

    #[test]
    fn from_message_never_decodes() {
        let f = Frame::from_message(OfMessage::Hello, 42);
        // Seeded at construction: no read can find anything left to parse.
        assert!(f.inner.decoded.get().is_some());
        let (m, xid) = f.decoded().expect("pre-seeded");
        assert_eq!(m, &OfMessage::Hello);
        assert_eq!(*xid, 42);
        // Bytes are exactly what encode would produce.
        assert_eq!(f.bytes(), OfMessage::Hello.encode(42).as_slice());
    }

    #[test]
    fn clone_is_shared_not_copied() {
        let f = echo_frame();
        assert_eq!(f.ref_count(), 1);
        let g = f.clone();
        assert_eq!(f.ref_count(), 2);
        assert_eq!(f.bytes().as_ptr(), g.bytes().as_ptr());
        drop(g);
        assert_eq!(f.ref_count(), 1);
    }

    #[test]
    fn undecodable_bytes_memoize_the_failure() {
        let f = Frame::new(vec![0xff; 3]);
        assert!(f.inner.decoded.get().is_none());
        assert!(f.decoded().is_none());
        // The failure itself is what the memo holds; later reads return it.
        let failure = f.inner.decoded.get().and_then(|memo| memo.as_ref().err());
        assert!(failure.is_some());
        assert!(f.decoded().is_none());
        assert!(std::ptr::eq(
            f.decode_error().expect("memoized"),
            failure.unwrap()
        ));
        assert_eq!(f.of_type(), None);
    }

    #[test]
    fn patched_reply_matches_reencoding() {
        let req = Frame::new(OfMessage::EchoRequest(vec![9, 8, 7]).encode(0x11223344));
        let reply = req
            .patched_reply(crate::header::OfType::EchoReply, 0x55667788)
            .expect("long enough");
        assert_eq!(
            reply.bytes(),
            OfMessage::EchoReply(vec![9, 8, 7])
                .encode(0x55667788)
                .as_slice()
        );
        assert!(Frame::new(vec![1, 2])
            .patched_reply(crate::header::OfType::EchoReply, 1)
            .is_none());
    }

    #[test]
    // The decode memo is interior mutability, but Hash/Eq read only the
    // immutable bytes, so frames are sound map keys.
    #[allow(clippy::mutable_key_type)]
    fn equality_and_hash_are_by_bytes() {
        use std::collections::HashSet;
        let a = echo_frame();
        let b = echo_frame();
        assert_eq!(a, b);
        let c = Frame::new(OfMessage::EchoRequest(vec![9]).encode(7));
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
