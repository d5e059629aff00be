//! Messages, caller classification, and client correlation.

use std::any::Any;
use std::fmt;

use plasma_cluster::ServerId;

use crate::ids::{ActorId, ActorTypeId, ClientId, FnId};

/// Who sent a message: an external client or an actor of some type.
///
/// This is the `cllr` production in the paper's grammar; interaction
/// features are keyed by `(CallerKind, FnId)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CallerKind {
    /// An external client.
    Client,
    /// An actor of the given type.
    Actor(ActorTypeId),
}

/// Links a message chain back to the client request that started it, so the
/// runtime can measure end-to-end latency no matter how many actors the
/// request traverses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Correlation {
    /// The client that issued the original request.
    pub client: ClientId,
    /// The client's request sequence number.
    pub request: u64,
    /// When the client sent the request.
    pub sent_at: plasma_sim::SimTime,
}

/// An application payload: any sendable value, downcast by the receiver.
pub type Payload = Box<dyn Any + Send>;

/// A message in flight or queued in a mailbox.
pub struct Message {
    /// Destination actor.
    pub to: ActorId,
    /// The invoked function.
    pub fname: FnId,
    /// Sender classification for profiling.
    pub from: CallerKind,
    /// Sending actor instance, when the sender is an actor.
    pub from_actor: Option<ActorId>,
    /// Payload size in bytes (drives network cost and `size` statistics).
    pub bytes: u64,
    /// Client correlation, carried along forwarded chains.
    pub corr: Option<Correlation>,
    /// Application data.
    pub payload: Option<Payload>,
    /// Destination server observed at send time; a mismatch at delivery
    /// means the actor migrated mid-flight and the message pays one
    /// forwarding hop.
    pub(crate) dest_server_at_send: ServerId,
    /// Whether this message already paid its forwarding hop.
    pub(crate) forwarded: bool,
    /// Whether the message crossed servers (for NIC accounting on delivery).
    pub(crate) was_remote: bool,
    /// Trace id of the `MessageSend` event, linked to by the delivery event.
    pub(crate) trace: Option<plasma_trace::EventId>,
}

impl Message {
    /// Downcasts the payload to a concrete type.
    ///
    /// Returns `None` if there is no payload or the type does not match.
    pub fn payload_ref<T: 'static>(&self) -> Option<&T> {
        self.payload.as_ref()?.downcast_ref::<T>()
    }

    /// Takes the payload out, downcast to a concrete type.
    ///
    /// Returns `None` (leaving the payload in place) on type mismatch.
    pub fn take_payload<T: 'static>(&mut self) -> Option<Box<T>> {
        if self.payload.as_ref()?.is::<T>() {
            self.payload.take()?.downcast::<T>().ok()
        } else {
            None
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("to", &self.to)
            .field("fname", &self.fname)
            .field("from", &self.from)
            .field("bytes", &self.bytes)
            .field("corr", &self.corr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: Option<Payload>) -> Message {
        Message {
            to: ActorId(1),
            fname: FnId(0),
            from: CallerKind::Client,
            from_actor: None,
            bytes: 128,
            corr: None,
            payload,
            dest_server_at_send: ServerId(0),
            forwarded: false,
            was_remote: false,
            trace: None,
        }
    }

    #[test]
    fn payload_downcast() {
        let m = msg(Some(Box::new(42u32)));
        assert_eq!(m.payload_ref::<u32>(), Some(&42));
        assert_eq!(m.payload_ref::<String>(), None);
    }

    #[test]
    fn take_payload_moves_on_match_only() {
        let mut m = msg(Some(Box::new("hello".to_string())));
        assert!(m.take_payload::<u32>().is_none());
        assert!(m.payload.is_some(), "mismatch must not consume");
        let s = m.take_payload::<String>().unwrap();
        assert_eq!(*s, "hello");
        assert!(m.payload.is_none());
    }

    #[test]
    fn caller_kind_ordering_is_stable() {
        let mut kinds = vec![
            CallerKind::Actor(ActorTypeId(1)),
            CallerKind::Client,
            CallerKind::Actor(ActorTypeId(0)),
        ];
        kinds.sort();
        assert_eq!(
            kinds,
            vec![
                CallerKind::Client,
                CallerKind::Actor(ActorTypeId(0)),
                CallerKind::Actor(ActorTypeId(1)),
            ]
        );
    }
}
