//! A re-entrant engine handle for long-running services.
//!
//! [`compile`](crate::compile) is a one-shot: it opens the solution cache,
//! races the portfolio, and throws the handle away. A server calling it per
//! request would re-open the cache directory on every request and would
//! have no way to abort a run whose client disconnected. [`Engine`] is the
//! service form:
//!
//! * one [`SolutionCache`] handle held open for the `Engine`'s lifetime —
//!   its hit/miss/store counters accumulate across requests, which is what
//!   a `/metrics` endpoint wants to export;
//! * [`Engine::request_config`] maps a per-request deadline onto
//!   [`EngineConfig::total_timeout`], and [`Engine::compile_with_deadline`]
//!   threads an external [`CancelToken`] into the race it configures, so a
//!   shutdown (or an abandoned request) cancels in-flight solver lanes
//!   promptly and still gets the best-so-far encoding back;
//! * [`Engine::lookup`] exposes the cache read path directly (the server's
//!   `GET /v1/solution/<fingerprint>`).
//!
//! `Engine` is `Sync`: one instance is shared by every worker thread of the
//! compilation server.

use crate::cache::{CacheCounters, CacheEntry, SolutionCache};
use crate::fingerprint::Fingerprint;
use crate::portfolio::{compile_with, EngineConfig, EngineOutcome};
use fermihedral::EncodingProblem;
use sat::CancelToken;
use std::io;
use std::time::Duration;

/// A long-lived compilation engine: an [`EngineConfig`] template plus a
/// shared, pre-opened [`SolutionCache`].
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: Option<SolutionCache>,
}

impl Engine {
    /// Builds an engine from a config, opening `config.cache_dir` once.
    ///
    /// Unlike the one-shot [`compile`](crate::compile) — which silently
    /// degrades to cache-less operation — a *service* wants to know at
    /// startup when its cache directory is unusable.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory creation failures.
    pub fn new(config: EngineConfig) -> io::Result<Engine> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(SolutionCache::open(dir)?.with_byte_cap(config.cache_byte_cap)),
            None => None,
        };
        Ok(Engine { config, cache })
    }

    /// The configuration template every request starts from.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared cache handle, when caching is configured.
    pub fn cache(&self) -> Option<&SolutionCache> {
        self.cache.as_ref()
    }

    /// Cumulative cache traffic counters (zeros when caching is disabled).
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache
            .as_ref()
            .map(SolutionCache::counters)
            .unwrap_or_default()
    }

    /// Direct cache read, without running any solver. Counts as a cache
    /// lookup in the traffic counters.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        self.cache.as_ref().and_then(|c| c.lookup(fp))
    }

    /// [`lookup`](Self::lookup) that bypasses the traffic counters — for
    /// fast-path probes made *in addition to* a counted lookup or solve,
    /// which would otherwise double-count one request.
    pub fn peek(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        self.cache.as_ref().and_then(|c| c.peek(fp))
    }

    /// The configuration one request races under: the template with
    /// `deadline` tightening (never loosening) its `total_timeout`, and
    /// `warm_hint` — a validated encoding for this problem's size, e.g.
    /// the lifted optimum of the previous entry in a batch — set when
    /// present. Every race takes the result: the in-process one below, and
    /// the sharded and fleet ones the compilation server dispatches to.
    ///
    /// Note the engine's warm-start precedence: a same-size cache entry
    /// wins over the hint, and the hint wins over the cache's own
    /// cross-size probe — so on a cache-backed engine callers chasing
    /// `HitCrossSize` provenance should pass `None` and let the
    /// [`SizeIndex`](crate::cache::SizeIndex) path run.
    pub fn request_config(
        &self,
        deadline: Option<Duration>,
        warm_hint: Option<Vec<pauli::PauliString>>,
    ) -> EngineConfig {
        let mut config = self.config.clone();
        config.total_timeout = match (config.total_timeout, deadline) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        };
        if warm_hint.is_some() {
            config.warm_hint = warm_hint;
        }
        config
    }

    /// Compiles under a per-request deadline and cancellation token.
    ///
    /// The run returns its best-so-far encoding when the deadline fires.
    /// `cancel` aborts the run from outside — e.g. server shutdown — with
    /// the same best-so-far semantics. Pass a token dedicated to this call:
    /// the engine raises it itself once the race is decided.
    pub fn compile_with_deadline(
        &self,
        problem: &EncodingProblem,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> EngineOutcome {
        let config = self.request_config(deadline, None);
        compile_with(problem, &config, self.cache.as_ref(), cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::Strategy;
    use crate::{fingerprint, BaselineKind, CacheStatus};
    use fermihedral::Objective;
    use std::path::PathBuf;
    use std::time::Instant;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fermihedral-service-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn engine_reuses_one_cache_across_requests() {
        let dir = tmp_dir("reuse");
        let engine = Engine::new(EngineConfig {
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
        .unwrap();
        let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);

        let first = engine.compile_with_deadline(&problem, None, None);
        assert_eq!(first.weight(), Some(6));
        assert!(first.optimal_proved);
        assert!(!first.from_cache);

        let second = engine.compile_with_deadline(&problem, None, None);
        assert!(second.from_cache, "second request must hit the cache");
        assert_eq!(second.weight(), Some(6));

        // Counters accumulate across requests on the shared handle.
        let counters = engine.cache_counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hit_optimal, 1);
        assert_eq!(counters.stores, 1);

        // The direct read path sees the stored entry.
        let entry = engine.lookup(&fingerprint(&problem)).expect("cached");
        assert_eq!(entry.weight, 6);
        assert!(entry.optimal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn external_cancel_returns_best_so_far_promptly() {
        // 7 modes cannot be certified in 150 ms; a pre-raised token must
        // abort the run almost immediately and still return the baseline.
        let engine = Engine::new(EngineConfig {
            strategies: vec![
                Strategy::SatDescent {
                    seed: 1,
                    random_branch: 0.0,
                    bk_phase_hint: true,
                    restart: sat::RestartPolicyKind::default(),
                    export_lbd: sat::ExportLbd::default(),
                },
                Strategy::Baseline(BaselineKind::BravyiKitaev),
            ],
            persist_on_budget: true,
            ..EngineConfig::default()
        })
        .unwrap();
        let problem = EncodingProblem::new(7, Objective::MajoranaWeight);
        let cancel = CancelToken::new();
        let waiter = cancel.clone();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            waiter.cancel();
        });
        let outcome = engine.compile_with_deadline(&problem, None, Some(&cancel));
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "cancel ignored: {:?}",
            started.elapsed()
        );
        assert!(outcome.best.is_some(), "baseline incumbent must survive");
        assert!(!outcome.optimal_proved);
    }

    #[test]
    fn deadline_tightens_but_never_loosens_the_config() {
        let engine = Engine::new(EngineConfig {
            total_timeout: Some(Duration::from_millis(250)),
            ..EngineConfig::default()
        })
        .unwrap();
        // Request deadline longer than the config cap: the cap wins.
        let problem = EncodingProblem::new(7, Objective::MajoranaWeight);
        let started = Instant::now();
        let outcome = engine.compile_with_deadline(&problem, Some(Duration::from_secs(600)), None);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "config total_timeout ignored"
        );
        assert!(outcome.best.is_some());
        assert_eq!(outcome.report.cache, CacheStatus::Disabled);
    }
}
