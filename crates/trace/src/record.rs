//! Bounded-memory recording: the [`Recorder`] ring buffer and the cheap
//! cloneable [`Tracer`] handle the instrumented crates hold.
//!
//! The design goal is *zero cost when disabled*: a disabled [`Tracer`] is a
//! `None`, so `emit` is a single branch and the event-construction closure
//! is never evaluated. When enabled, events pass a per-category filter, get
//! a sequential id, and land in a fixed-capacity ring buffer (oldest events
//! are evicted first and counted).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use plasma_sim::SimTime;

use crate::event::{Category, CategorySet, Component, EventId, TraceEvent, TraceEventKind};

/// Recording parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum number of events retained (ring buffer size).
    pub capacity: usize,
    /// Which event families are recorded.
    pub filter: CategorySet,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            filter: CategorySet::all(),
        }
    }
}

impl TraceConfig {
    /// Returns the config with a different ring-buffer capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Returns the config recording only the given categories.
    pub fn only(mut self, cats: &[Category]) -> Self {
        let mut set = CategorySet::none();
        for &c in cats {
            set = set.with(c);
        }
        self.filter = set;
        self
    }

    /// Returns the config with one category excluded (e.g. drop the
    /// high-volume [`Category::Message`] family).
    pub fn without(mut self, cat: Category) -> Self {
        self.filter = self.filter.without(cat);
        self
    }
}

/// The bounded event store behind an enabled [`Tracer`].
pub struct Recorder {
    filter: CategorySet,
    capacity: usize,
    next_id: u64,
    dropped: u64,
    buf: VecDeque<TraceEvent>,
}

impl Recorder {
    fn new(cfg: TraceConfig) -> Self {
        Recorder {
            filter: cfg.filter,
            capacity: cfg.capacity.max(1),
            next_id: 1,
            dropped: 0,
            buf: VecDeque::new(),
        }
    }

    fn record(
        &mut self,
        event_at: SimTime,
        component: Component,
        parent: Option<EventId>,
        kind: TraceEventKind,
    ) -> Option<EventId> {
        if !self.filter.contains(kind.category()) {
            return None;
        }
        let id = EventId(self.next_id);
        self.next_id += 1;
        let event = TraceEvent {
            id,
            at: event_at,
            component,
            parent,
            kind,
        };
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
        Some(id)
    }
}

/// A cheap cloneable handle to a shared [`Recorder`], or a no-op when
/// disabled.
///
/// Every instrumented component (runtime, cluster, EMR) holds a clone; they
/// all feed the same buffer, so ids are globally sequential and the exported
/// trace interleaves all components in causal order.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// Creates an enabled tracer recording per `cfg`.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Recorder::new(cfg)))),
        }
    }

    /// Creates the no-op tracer (the default state of every runtime).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Returns whether events are being recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event.
    ///
    /// `kind` is a closure so the (potentially allocating) event payload is
    /// only built when the tracer is enabled; when disabled this is a single
    /// branch. Returns the assigned id, or `None` when disabled or filtered.
    #[inline]
    pub fn emit(
        &self,
        at: SimTime,
        component: Component,
        parent: Option<EventId>,
        kind: impl FnOnce() -> TraceEventKind,
    ) -> Option<EventId> {
        let inner = self.inner.as_ref()?;
        let mut rec = inner.lock().unwrap_or_else(|e| e.into_inner());
        rec.record(at, component, parent, kind())
    }

    /// Returns a snapshot of the retained events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .buf
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Returns the number of retained events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(|e| e.into_inner()).buf.len(),
            None => 0,
        }
    }

    /// Returns whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns how many events were evicted from the ring buffer.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(|e| e.into_inner()).dropped,
            None => 0,
        }
    }

    /// Clears the retained events (ids keep counting up).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap_or_else(|e| e.into_inner()).buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(actor: u64) -> TraceEventKind {
        TraceEventKind::ActorCreated {
            actor,
            actor_type: "T".into(),
            server: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let mut built = false;
        let id = t.emit(SimTime::ZERO, Component::Runtime, None, || {
            built = true;
            ev(0)
        });
        assert_eq!(id, None);
        assert!(!built, "closure must not run when disabled");
        assert!(t.events().is_empty());
    }

    #[test]
    fn ids_are_sequential_from_one() {
        let t = Tracer::new(TraceConfig::default());
        let a = t.emit(SimTime::ZERO, Component::Runtime, None, || ev(0));
        let b = t.emit(SimTime::from_secs(1), Component::Gem, a, || ev(1));
        assert_eq!(a, Some(EventId(1)));
        assert_eq!(b, Some(EventId(2)));
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].parent, Some(EventId(1)));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let t = Tracer::new(TraceConfig::default().capacity(2));
        for i in 0..5 {
            t.emit(SimTime::from_micros(i), Component::Runtime, None, || ev(i));
        }
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(events[0].id, EventId(4));
        assert_eq!(events[1].id, EventId(5));
    }

    #[test]
    fn category_filter_drops_without_consuming_ids() {
        let t = Tracer::new(TraceConfig::default().without(Category::Actor));
        let a = t.emit(SimTime::ZERO, Component::Runtime, None, || ev(0));
        assert_eq!(a, None, "filtered category");
        let b = t.emit(SimTime::ZERO, Component::Provisioner, None, || {
            TraceEventKind::ServerDrain { server: 0 }
        });
        assert_eq!(b, Some(EventId(1)), "filtered events consume no ids");
    }
}
