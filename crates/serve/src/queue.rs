//! Fair-share admission queue between connection threads and solve
//! workers.
//!
//! The original server ran one global FIFO: admission control existed
//! (bounded capacity, 429 on overflow), but a single greedy client could
//! legally fill the whole queue and starve everyone behind it. This
//! module replaces the FIFO with a **deficit-round-robin scheduler over
//! per-tenant queues**:
//!
//! * Admission checks the *tenant's* queue quota first — a tenant at its
//!   `max_queued` bounces with a per-tenant `429` and the global queue is
//!   untouched. The global capacity remains as a memory backstop.
//! * Dispatch walks the tenants round-robin, skipping any tenant already
//!   at its `max_in_flight` concurrency quota. Each eligible visit earns
//!   the tenant a quantum of deficit; a job is released when its tenant's
//!   deficit covers its cost (cost scales with mode count, since solve
//!   work does). A light tenant's small job therefore never waits behind
//!   more than ~one quantum of a heavy tenant's backlog.
//! * Completion accounting ([`FairQueue::job_finished`]) releases the
//!   tenant's in-flight slot and wakes blocked workers — an in-flight cap
//!   is only meaningful if hitting *release* re-arms dispatch.
//!
//! Closing the queue (shutdown) wakes blocked workers; jobs still queued
//! at close time are drained by the workers and shed with 503.

use crate::coalesce::InFlight;
use crate::tenant::Tenant;
use fermihedral::EncodingProblem;
use pauli::PauliString;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Deficit granted per eligible round-robin visit. Covers the cost of
/// any admissible job in at most a few visits (cost = modes, and servers
/// cap modes at ~8), so no job starves behind its own tenant's deficit.
const QUANTUM: u64 = 4;

/// One admitted compile job.
#[derive(Debug)]
pub struct Job {
    /// The problem fingerprint (hex) — the coalescing key.
    pub key: String,
    /// The parsed problem.
    pub problem: EncodingProblem,
    /// Absolute deadline of the admitting request.
    pub deadline_at: Instant,
    /// When the job entered the queue (feeds the queue-wait histogram
    /// and the `serve.queue_wait` trace span).
    pub enqueued_at: Instant,
    /// The coalescing cell to complete.
    pub cell: Arc<InFlight>,
    /// The tenant the job is accounted to.
    pub tenant: Arc<Tenant>,
    /// Chained warm-start hint (batch scheduling on a cache-less engine:
    /// the previous, smaller entry's best encoding). `None` lets the
    /// engine find its warm start in the cache — the same-size entry, or
    /// a smaller family member's entry file by its computed fingerprint
    /// (`engine::SizeIndex`) — which is preferred when a cache exists,
    /// because it carries provenance.
    pub warm_hint: Option<Vec<PauliString>>,
}

impl Job {
    /// Scheduling cost in deficit units. Solve work grows super-
    /// exponentially in modes; a linear proxy is enough to make one
    /// 8-mode job "cost" more turns than four 2-mode jobs without
    /// starving big jobs outright.
    fn cost(&self) -> u64 {
        self.problem.num_modes().max(1) as u64
    }
}

/// Why a push was refused. The job is handed back so the caller can
/// complete its cell with the matching error.
#[derive(Debug)]
pub enum PushError {
    /// Global queue at capacity: load-shed with 429.
    Full(Job),
    /// The job's *tenant* is at its `max_queued` quota: per-tenant 429.
    /// Other tenants are unaffected.
    TenantFull(Job),
    /// Queue closed (shutdown): 503.
    Closed(Job),
}

/// One tenant's scheduling lane.
#[derive(Debug)]
struct Lane {
    tenant: Arc<Tenant>,
    jobs: VecDeque<Job>,
    deficit: u64,
    in_flight: usize,
}

#[derive(Debug)]
struct Inner {
    lanes: Vec<Lane>,
    /// Round-robin cursor into `lanes`.
    cursor: usize,
    total_queued: usize,
    closed: bool,
}

impl Inner {
    fn lane_of(&mut self, tenant: &Arc<Tenant>) -> &mut Lane {
        let at = self
            .lanes
            .iter()
            .position(|l| Arc::ptr_eq(&l.tenant, tenant));
        match at {
            Some(i) => &mut self.lanes[i],
            None => {
                // Unknown tenants get a lane on first contact; the set is
                // fixed at startup so this only ever runs a handful of
                // times, but it keeps the queue decoupled from registry
                // construction order.
                self.lanes.push(Lane {
                    tenant: tenant.clone(),
                    jobs: VecDeque::new(),
                    deficit: 0,
                    in_flight: 0,
                });
                self.lanes.last_mut().unwrap()
            }
        }
    }

    /// Deficit-round-robin dispatch starting at the cursor. Returns a
    /// dispatchable job, or `None` when no lane is eligible (all empty
    /// or at their in-flight caps) — the only condition a waiting worker
    /// can't resolve by sweeping again, because it takes a push or a
    /// completion to change it.
    fn sweep(&mut self) -> Option<Job> {
        let n = self.lanes.len();
        if n == 0 {
            return None;
        }
        // Keep sweeping while at least one lane is eligible: every pass
        // adds QUANTUM to each eligible lane, so some lane's front cost
        // (finite, = modes) is covered within a bounded number of passes.
        // Returning `None` as soon as a single pass finds no *eligible*
        // lane — rather than no *dispatchable* job — is what lets pop()
        // block on the condvar without deadlocking: an under-deficit lane
        // must never be left to wait for a notification that isn't coming.
        loop {
            let mut any_eligible = false;
            for step in 0..n {
                let i = (self.cursor + step) % n;
                let lane = &mut self.lanes[i];
                if lane.jobs.is_empty() {
                    lane.deficit = 0; // classic DRR: idle lanes bank nothing
                    continue;
                }
                if lane.in_flight >= lane.tenant.max_in_flight {
                    continue; // at concurrency quota: earns no deficit either
                }
                any_eligible = true;
                lane.deficit = lane.deficit.saturating_add(QUANTUM);
                let cost = lane.jobs.front().map(Job::cost).unwrap_or(1);
                if lane.deficit >= cost {
                    lane.deficit -= cost;
                    let job = lane.jobs.pop_front().unwrap();
                    lane.in_flight += 1;
                    if lane.jobs.is_empty() {
                        lane.deficit = 0;
                    }
                    lane.tenant.queued.add(-1);
                    lane.tenant.in_flight.add(1);
                    self.total_queued -= 1;
                    // Resume *after* the lane we just served.
                    self.cursor = (i + 1) % n;
                    return Some(job);
                }
            }
            if !any_eligible {
                return None;
            }
        }
    }
}

/// The bounded fair-share queue.
#[derive(Debug)]
pub struct FairQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl FairQueue {
    /// A queue admitting at most `capacity` pending jobs across all
    /// tenants (the global backstop; per-tenant quotas live on the
    /// [`Tenant`]s themselves).
    pub fn new(capacity: usize) -> FairQueue {
        FairQueue {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                cursor: 0,
                total_queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Global admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (pending jobs not yet claimed by a worker, summed
    /// over all tenants).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().total_queued
    }

    /// True when no jobs are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission.
    ///
    /// # Errors
    ///
    /// [`PushError::TenantFull`] when the job's tenant is at its
    /// `max_queued` quota, [`PushError::Full`] at global capacity,
    /// [`PushError::Closed`] after [`close`](FairQueue::close); all
    /// return the job.
    // The Err variants deliberately carry the whole rejected Job back to
    // the caller, which still owns the response path for it.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed(job));
        }
        if inner.total_queued >= self.capacity {
            return Err(PushError::Full(job));
        }
        let tenant = job.tenant.clone();
        let lane = inner.lane_of(&tenant);
        if lane.jobs.len() >= lane.tenant.max_queued {
            return Err(PushError::TenantFull(job));
        }
        lane.tenant.queued.add(1);
        lane.tenant.admitted.inc();
        lane.jobs.push_back(job);
        inner.total_queued += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next dispatchable job under the fair-share policy.
    /// Returns `None` only once the queue is closed *and* drained —
    /// pending jobs are still handed out after close so shutdown can
    /// shed them deliberately (in-flight caps are ignored during that
    /// drain; the workers are shedding, not solving).
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                // Drain order does not matter during shutdown.
                if let Some(i) = inner.lanes.iter().position(|l| !l.jobs.is_empty()) {
                    let lane = &mut inner.lanes[i];
                    let job = lane.jobs.pop_front().unwrap();
                    lane.in_flight += 1;
                    lane.tenant.queued.add(-1);
                    lane.tenant.in_flight.add(1);
                    inner.total_queued -= 1;
                    return Some(job);
                }
                return None;
            }
            if let Some(job) = inner.sweep() {
                return Some(job);
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Releases `tenant`'s in-flight slot after its solve finished (or
    /// was shed) and re-arms dispatch — a tenant blocked on its
    /// concurrency quota becomes eligible exactly here.
    pub fn job_finished(&self, tenant: &Arc<Tenant>) {
        let mut inner = self.inner.lock().unwrap();
        let lane = inner.lane_of(tenant);
        lane.in_flight = lane.in_flight.saturating_sub(1);
        lane.tenant.in_flight.add(-1);
        lane.tenant.completed.inc();
        drop(inner);
        self.ready.notify_all();
    }

    /// Closes the queue: new pushes fail, blocked `pop`s drain and return.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantConfig, TenantRegistry};
    use fermihedral::Objective;
    use std::time::Duration;

    fn registry(specs: &[&str]) -> TenantRegistry {
        let configs: Vec<TenantConfig> = specs
            .iter()
            .map(|s| TenantConfig::parse(s).unwrap())
            .collect();
        TenantRegistry::new(&configs).unwrap()
    }

    fn job(key: &str, modes: usize, tenant: &Arc<Tenant>) -> Job {
        Job {
            key: key.into(),
            problem: EncodingProblem::new(modes, Objective::MajoranaWeight),
            deadline_at: Instant::now() + Duration::from_secs(1),
            enqueued_at: Instant::now(),
            cell: crate::coalesce::Coalescer::default()
                .join(key, Instant::now() + Duration::from_secs(1))
                .0,
            tenant: tenant.clone(),
            warm_hint: None,
        }
    }

    #[test]
    fn global_capacity_is_enforced() {
        let reg = registry(&[]);
        let anon = reg.anonymous();
        let q = FairQueue::new(2);
        q.try_push(job("a", 2, anon)).unwrap();
        q.try_push(job("b", 2, anon)).unwrap();
        match q.try_push(job("c", 2, anon)) {
            Err(PushError::Full(j)) => assert_eq!(j.key, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().key, "a");
        q.try_push(job("c", 2, anon)).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn tenant_queue_quota_rejects_without_touching_the_global_queue() {
        let reg = registry(&["greedy:gk:1:2", "light:lk:1:4"]);
        let greedy = reg.authenticate(Some("gk")).unwrap().clone();
        let light = reg.authenticate(Some("lk")).unwrap().clone();
        let q = FairQueue::new(64);
        q.try_push(job("g1", 2, &greedy)).unwrap();
        q.try_push(job("g2", 2, &greedy)).unwrap();
        // Third greedy job bounces off the *tenant* quota…
        assert!(matches!(
            q.try_push(job("g3", 2, &greedy)),
            Err(PushError::TenantFull(_))
        ));
        // …while the light tenant still gets in.
        q.try_push(job("l1", 2, &light)).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(greedy.queued.get(), 2);
        assert_eq!(light.queued.get(), 1);
    }

    #[test]
    fn in_flight_cap_gates_dispatch_until_release() {
        let reg = registry(&["solo:sk:1:8"]);
        let solo = reg.authenticate(Some("sk")).unwrap().clone();
        let q = Arc::new(FairQueue::new(64));
        q.try_push(job("j1", 2, &solo)).unwrap();
        q.try_push(job("j2", 2, &solo)).unwrap();
        let first = q.pop().unwrap();
        assert_eq!(first.key, "j1");
        assert_eq!(solo.in_flight.get(), 1);

        // j2 is ineligible while j1 holds the only in-flight slot: a
        // blocked pop() must not return until job_finished releases it.
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop().map(|j| j.key));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.len(), 1, "j2 must still be queued");
        q.job_finished(&solo);
        assert_eq!(popper.join().unwrap().as_deref(), Some("j2"));
    }

    #[test]
    fn round_robin_interleaves_tenants_fairly() {
        let reg = registry(&["a:ka:8:64", "b:kb:8:64"]);
        let a = reg.authenticate(Some("ka")).unwrap().clone();
        let b = reg.authenticate(Some("kb")).unwrap().clone();
        let q = FairQueue::new(64);
        // Tenant a floods first; b adds one job behind the flood.
        for i in 0..6 {
            q.try_push(job(&format!("a{i}"), 2, &a)).unwrap();
        }
        q.try_push(job("b0", 2, &b)).unwrap();
        // b's job must surface within the first two dispatches, not after
        // a's entire backlog (the FIFO failure mode).
        let first = q.pop().unwrap().key;
        let second = q.pop().unwrap().key;
        assert!(
            first == "b0" || second == "b0",
            "light tenant starved: got {first}, {second}"
        );
    }

    #[test]
    fn expensive_jobs_cost_more_turns() {
        let reg = registry(&["big:kb:8:64", "small:ks:8:64"]);
        let big = reg.authenticate(Some("kb")).unwrap().clone();
        let small = reg.authenticate(Some("ks")).unwrap().clone();
        let q = FairQueue::new(64);
        for i in 0..4 {
            q.try_push(job(&format!("B{i}"), 8, &big)).unwrap(); // cost 8
            q.try_push(job(&format!("S{i}"), 2, &small)).unwrap(); // cost 2
        }
        // Pop everything; the small tenant's jobs must not all trail the
        // big tenant's (deficit lets cheap jobs through more often).
        let order: Vec<String> = (0..8).map(|_| q.pop().unwrap().key).collect();
        let first_small = order.iter().position(|k| k.starts_with('S')).unwrap();
        assert!(
            first_small <= 2,
            "small tenant waited out the big backlog: {order:?}"
        );
    }

    #[test]
    fn close_drains_then_releases_workers() {
        let reg = registry(&[]);
        let anon = reg.anonymous();
        let q = Arc::new(FairQueue::new(4));
        q.try_push(job("pending", 2, anon)).unwrap();
        q.close();
        // Pushes now fail…
        assert!(matches!(
            q.try_push(job("late", 2, anon)),
            Err(PushError::Closed(_))
        ));
        // …but the pending job still drains before workers see None.
        assert_eq!(q.pop().unwrap().key, "pending");
        assert!(q.pop().is_none());

        // A worker blocked on an empty queue is woken by close.
        let q2 = Arc::new(FairQueue::new(4));
        let popper = q2.clone();
        let t = std::thread::spawn(move || popper.pop().is_none());
        std::thread::sleep(Duration::from_millis(30));
        q2.close();
        assert!(t.join().unwrap(), "blocked pop must return None on close");
    }
}
