//! Messages and entry-method identifiers.

use std::any::Any;
use std::rc::Rc;

use bytes::Bytes;

/// Identifies an entry method of a chare. Applications define their own
/// constants (`const EP_GHOST: EntryId = EntryId(2);`) and dispatch on them
/// in [`crate::Chare::entry`] — the moral equivalent of the generated
/// dispatch tables of Charm++'s translator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u32);

impl std::fmt::Debug for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Message contents. The runtime charges wire time for the *declared* size
/// of the message, so control payloads can ride as cheap shared values
/// without serialization while bulk data uses real byte buffers.
#[derive(Clone)]
pub enum Payload {
    /// No payload (signals, barriers).
    Empty,
    /// Bulk bytes — really transferred, really received.
    Bytes(Bytes),
    /// A typed control value (broadcast-cloneable, zero serialization).
    /// Shared through an `Rc`: a machine and its messages live on one
    /// thread.
    Value(Rc<dyn Any>),
}

impl Payload {
    /// Wrap a typed value.
    pub fn value<T: Any>(v: T) -> Payload {
        Payload::Value(Rc::new(v))
    }

    /// Borrow a typed value back out; `None` on kind or type mismatch.
    pub fn downcast<T: Any>(&self) -> Option<&T> {
        match self {
            Payload::Value(rc) => rc.downcast_ref::<T>(),
            _ => None,
        }
    }

    /// The bulk bytes, if this is a bytes payload.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Empty => write!(f, "Empty"),
            Payload::Bytes(b) => write!(f, "Bytes({})", b.len()),
            Payload::Value(_) => write!(f, "Value(..)"),
        }
    }
}

/// A message: entry point, payload, and the payload size the wire model
/// charges for (the envelope is added by the runtime).
#[derive(Clone, Debug)]
pub struct Msg {
    /// Which entry method handles this message.
    pub ep: EntryId,
    /// The contents.
    pub payload: Payload,
    /// Modeled payload bytes. For [`Payload::Bytes`] this should equal the
    /// buffer length; for values it is the size the data *would* serialize
    /// to.
    pub size: usize,
}

impl Msg {
    /// An empty signal message.
    pub fn signal(ep: EntryId) -> Msg {
        Msg {
            ep,
            payload: Payload::Empty,
            size: 0,
        }
    }

    /// A bulk-bytes message (size taken from the buffer).
    pub fn bytes(ep: EntryId, b: Bytes) -> Msg {
        let size = b.len();
        Msg {
            ep,
            payload: Payload::Bytes(b),
            size,
        }
    }

    /// A typed control message with an explicitly modeled size.
    pub fn value<T: Any>(ep: EntryId, v: T, modeled_size: usize) -> Msg {
        Msg {
            ep,
            payload: Payload::value(v),
            size: modeled_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_is_empty() {
        let m = Msg::signal(EntryId(3));
        assert_eq!(m.ep, EntryId(3));
        assert_eq!(m.size, 0);
        assert!(matches!(m.payload, Payload::Empty));
    }

    #[test]
    fn bytes_size_tracks_buffer() {
        let m = Msg::bytes(EntryId(0), Bytes::from(vec![0u8; 123]));
        assert_eq!(m.size, 123);
        assert_eq!(m.payload.bytes().unwrap().len(), 123);
    }

    #[test]
    fn value_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Setup {
            handle: u32,
        }
        let m = Msg::value(EntryId(1), Setup { handle: 9 }, 16);
        assert_eq!(m.size, 16);
        assert_eq!(m.payload.downcast::<Setup>().unwrap().handle, 9);
        assert!(m.payload.downcast::<u64>().is_none());
        assert!(m.payload.bytes().is_none());
    }

    #[test]
    fn payload_clone_shares_value() {
        let p = Payload::value(41u32);
        let q = p.clone();
        assert_eq!(q.downcast::<u32>(), Some(&41));
    }
}
