//! A bounded per-key trace store: the serve crate keeps each compile
//! request's span breakdown here, keyed by problem fingerprint, for
//! `GET /v1/trace/<fingerprint>` retrieval.

use crate::Event;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Events retained per key. A hot key (a fingerprint served from cache
/// hundreds of thousands of times) appends a few events per request
/// forever; beyond this many the oldest are dropped, so the newest
/// requests' spans are always the ones retained.
const MAX_EVENTS_PER_KEY: usize = 2048;

/// Bounded map from key (fingerprint) to recorded events. Insertion
/// beyond the capacity evicts the oldest-inserted key. Appends to an
/// existing key never evict another key, but drop that key's own oldest
/// events beyond [`MAX_EVENTS_PER_KEY`].
#[derive(Debug)]
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct StoreInner {
    traces: BTreeMap<String, VecDeque<Event>>,
    order: VecDeque<String>,
}

impl TraceStore {
    /// A store retaining at most `capacity` keys (min 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Appends events under `key`, creating (and possibly evicting) as
    /// needed.
    pub fn append(&self, key: &str, events: impl IntoIterator<Item = Event>) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.traces.contains_key(key) {
            while inner.order.len() >= self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.traces.remove(&evicted);
                }
            }
            inner.order.push_back(key.to_string());
            inner.traces.insert(key.to_string(), VecDeque::new());
        }
        if let Some(trace) = inner.traces.get_mut(key) {
            trace.extend(events);
            let excess = trace.len().saturating_sub(MAX_EVENTS_PER_KEY);
            trace.drain(..excess);
        }
    }

    /// The events stored under `key`, sorted by timestamp.
    pub fn get(&self, key: &str) -> Option<Vec<Event>> {
        let inner = self.inner.lock().unwrap();
        inner.traces.get(key).map(|events| {
            let mut events: Vec<Event> = events.iter().cloned().collect();
            events.sort_by_key(|e| e.ts_us);
            events
        })
    }

    /// Number of retained keys.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().traces.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(name: &str, ts: u64) -> Event {
        Event {
            name: name.into(),
            kind: EventKind::Instant,
            ts_us: ts,
            pid: 0,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn append_get_and_sorting() {
        let store = TraceStore::new(4);
        store.append("fp1", [ev("b", 20)]);
        store.append("fp1", [ev("a", 10)]);
        let got = store.get("fp1").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "a");
        assert!(store.get("fp2").is_none());
    }

    #[test]
    fn hot_key_retains_only_its_newest_events() {
        let store = TraceStore::new(4);
        store.append("cold", [ev("kept", 0)]);
        for request in 0..10_000u64 {
            store.append(
                "hot",
                [ev("serve.request", 2 * request), ev("hit", 2 * request + 1)],
            );
        }
        let got = store.get("hot").unwrap();
        assert_eq!(got.len(), MAX_EVENTS_PER_KEY);
        // The newest request's events survive, the oldest are gone.
        assert_eq!(got.last().unwrap().ts_us, 19_999);
        assert_eq!(got[0].ts_us, 20_000 - MAX_EVENTS_PER_KEY as u64);
        assert_eq!(store.get("cold").unwrap().len(), 1, "other keys untouched");

        // One request larger than the cap keeps its newest events.
        store.append(
            "big",
            (0..3 * MAX_EVENTS_PER_KEY as u64).map(|t| ev("span", t)),
        );
        let big = store.get("big").unwrap();
        assert_eq!(big.len(), MAX_EVENTS_PER_KEY);
        assert_eq!(big.last().unwrap().ts_us, 3 * MAX_EVENTS_PER_KEY as u64 - 1);
    }

    #[test]
    fn capacity_evicts_oldest_key_only_on_new_keys() {
        let store = TraceStore::new(2);
        store.append("a", [ev("x", 1)]);
        store.append("b", [ev("x", 1)]);
        // Appending to an existing key does not evict.
        store.append("a", [ev("y", 2)]);
        assert_eq!(store.len(), 2);
        // A third key evicts the oldest-inserted ("a").
        store.append("c", [ev("x", 1)]);
        assert_eq!(store.len(), 2);
        assert!(store.get("a").is_none());
        assert!(store.get("b").is_some());
        assert!(store.get("c").is_some());
    }
}
