//! Request coalescing: concurrent identical compile requests share one
//! engine solve.
//!
//! Hamiltonian-specific encodings make every distinct problem a distinct
//! fingerprint, but popular problems (benchmark models, default examples)
//! arrive many times concurrently. The first request for a fingerprint
//! becomes the *leader* and enqueues the solve; followers attach to the
//! leader's [`InFlight`] cell and block until it completes. One SAT race
//! serves them all — and each cell carries the [`CancelToken`] the engine
//! run is bound to, so shutdown can cancel every in-flight solve at once.

use crate::api::Settled;
use sat::CancelToken;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One in-flight coalesced solve.
#[derive(Debug)]
pub struct InFlight {
    /// Cancellation token the engine run is bound to.
    pub cancel: CancelToken,
    /// Latest deadline among the attached requests. A follower with a
    /// longer deadline than the leader extends the solve budget (as long
    /// as it attaches before a worker starts the engine run).
    deadline: Mutex<Instant>,
    state: Mutex<Option<Settled>>,
    done: Condvar,
}

impl InFlight {
    fn new(deadline_at: Instant) -> InFlight {
        InFlight {
            cancel: CancelToken::new(),
            deadline: Mutex::new(deadline_at),
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Pushes the solve deadline out (never pulls it in).
    pub fn extend_deadline(&self, deadline_at: Instant) {
        let mut deadline = self.deadline.lock().unwrap();
        if deadline_at > *deadline {
            *deadline = deadline_at;
        }
    }

    /// The latest deadline any attached request asked for.
    pub fn deadline_at(&self) -> Instant {
        *self.deadline.lock().unwrap()
    }

    /// Publishes the terminal state and wakes every waiter. First write
    /// wins; later writes are ignored (a shed racing a completion).
    pub fn complete(&self, result: Settled) {
        let mut state = self.state.lock().unwrap();
        if state.is_none() {
            *state = Some(result);
            self.done.notify_all();
        }
    }

    /// Blocks until completion or `deadline`, whichever first.
    pub fn wait_until(&self, deadline: Instant) -> Option<Settled> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(result) = state.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.done.wait_timeout(state, deadline - now).unwrap();
            state = guard;
        }
    }
}

/// The fingerprint → in-flight solve map.
#[derive(Debug, Default)]
pub struct Coalescer {
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
}

impl Coalescer {
    /// Joins the in-flight solve for `key`, creating it if absent.
    /// Returns the cell and whether this caller is the leader (and must
    /// enqueue the job). Followers extend the solve's deadline to cover
    /// their own.
    pub fn join(&self, key: &str, deadline_at: Instant) -> (Arc<InFlight>, bool) {
        let mut map = self.inflight.lock().unwrap();
        match map.get(key) {
            Some(cell) => {
                cell.extend_deadline(deadline_at);
                (cell.clone(), false)
            }
            None => {
                let cell = Arc::new(InFlight::new(deadline_at));
                map.insert(key.to_string(), cell.clone());
                (cell, true)
            }
        }
    }

    /// Completes `key`'s solve: unregisters the cell (new arrivals start a
    /// fresh solve — by then the cache answers instantly) and publishes the
    /// result to every attached waiter.
    pub fn finish(&self, key: &str, result: Settled) {
        let cell = self.inflight.lock().unwrap().remove(key);
        if let Some(cell) = cell {
            cell.complete(result);
        }
    }

    /// Number of distinct solves currently registered (queued or running).
    pub fn len(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raises every in-flight solve's cancellation token (shutdown).
    pub fn cancel_all(&self) {
        for cell in self.inflight.lock().unwrap().values() {
            cell.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Answer;
    use std::time::Duration;

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(1)
    }

    fn is_shed(got: &Option<Settled>, status: u16) -> bool {
        matches!(got, Some(Settled { answer: Answer::Refused(s, _), .. }) if *s == status)
    }

    #[test]
    fn leader_then_followers_then_finish() {
        let c = Coalescer::default();
        let (cell_a, leader_a) = c.join("fp", soon());
        let (cell_b, leader_b) = c.join("fp", soon());
        assert!(leader_a);
        assert!(!leader_b);
        assert!(Arc::ptr_eq(&cell_a, &cell_b));
        assert_eq!(c.len(), 1);

        // A waiter with an expired deadline gets None without blocking.
        assert!(cell_b.wait_until(Instant::now()).is_none());

        c.finish("fp", Settled::shed(429, "test"));
        assert!(c.is_empty());
        // Post-completion waits resolve immediately.
        let got = cell_a.wait_until(Instant::now() + Duration::from_secs(5));
        assert!(is_shed(&got, 429), "unexpected {got:?}");
        // A later join starts a fresh solve.
        let (_, leader_again) = c.join("fp", soon());
        assert!(leader_again);
    }

    #[test]
    fn followers_extend_but_never_shrink_the_deadline() {
        let c = Coalescer::default();
        let t0 = Instant::now();
        let (cell, _) = c.join("fp", t0 + Duration::from_millis(100));
        // A longer follower extends…
        let (_, leader) = c.join("fp", t0 + Duration::from_secs(60));
        assert!(!leader);
        assert_eq!(cell.deadline_at(), t0 + Duration::from_secs(60));
        // …a shorter one does not pull it back in.
        let _ = c.join("fp", t0 + Duration::from_millis(10));
        assert_eq!(cell.deadline_at(), t0 + Duration::from_secs(60));
    }

    #[test]
    fn first_completion_wins() {
        let cell = InFlight::new(soon());
        cell.complete(Settled::shed(503, "test"));
        cell.complete(Settled::shed(429, "test"));
        let got = cell.wait_until(Instant::now() + Duration::from_millis(10));
        assert!(is_shed(&got, 503), "unexpected {got:?}");
    }

    #[test]
    fn cancel_all_raises_every_token() {
        let c = Coalescer::default();
        let (a, _) = c.join("x", soon());
        let (b, _) = c.join("y", soon());
        c.cancel_all();
        assert!(a.cancel.is_cancelled());
        assert!(b.cancel.is_cancelled());
    }

    #[test]
    fn waiters_wake_from_other_threads() {
        let c = Arc::new(Coalescer::default());
        let (cell, _) = c.join("fp", soon());
        let waker = c.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.finish("fp", Settled::shed(503, "test"));
        });
        let got = cell.wait_until(Instant::now() + Duration::from_secs(10));
        t.join().unwrap();
        assert!(is_shed(&got, 503), "unexpected {got:?}");
    }
}
