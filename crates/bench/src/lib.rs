//! # redsoc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! `fig*`/`tab*`/`abl*`/`exp*` binary prints one figure's data as
//! machine-readable rows; `reproduce` runs them all (see `EXPERIMENTS.md`
//! for the paper-vs-measured record).
//!
//! This library holds the shared experiment engine:
//!
//! - [`TraceCache`] — a concurrent, shareable trace store: each workload's
//!   trace is generated exactly once per process and handed out as
//!   `Arc<[DynOp]>` to any number of simulation threads;
//! - [`runner`] — the fault-tolerant parallel job runner: fans
//!   (benchmark × core × scheduler mode) simulations across a thread
//!   pool under per-job supervision and collects a [`runner::Grid`] of
//!   cells, honouring `REDSOC_THREADS`;
//! - [`supervisor`] — the job supervisor: `catch_unwind` isolation, the
//!   structured `JobError` taxonomy, bounded immediate retries,
//!   quarantine, and the fault-injection plan used by the crash tests;
//! - [`journal`] — the append-only JSONL checkpoint behind
//!   `redsoc bench --resume`: completed cells survive a mid-sweep crash
//!   and are not re-run;
//! - [`json`] — a dependency-free JSON value/emitter/parser for the
//!   machine-readable `BENCH_sweep.json` output;
//! - [`worker`] / [`pool`] — the process-isolation tier behind
//!   `redsoc bench --isolation process`: a length-prefixed frame
//!   protocol spoken by disposable `redsoc worker` children, and the
//!   parent-side pool that bounds every attempt with one wall-clock
//!   deadline on its reply and every worker with a hard memory budget.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod grid;
pub mod journal;
pub mod json;
pub mod pool;
pub mod runner;
pub mod supervisor;
pub mod worker;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::pipeline::simulate;
use redsoc_core::stats::SimReport;
use redsoc_isa::trace::DynOp;
use redsoc_workloads::{BenchClass, Benchmark};

/// Default dynamic-instruction budget per simulation. Chosen so every
/// workload reaches steady state while the full figure sweep stays fast;
/// raise via `REDSOC_TRACE_LEN` for higher-fidelity runs.
pub const DEFAULT_TRACE_LEN: u64 = 300_000;

/// Trace length, honouring the `REDSOC_TRACE_LEN` environment variable.
#[must_use]
pub fn trace_len() -> u64 {
    std::env::var("REDSOC_TRACE_LEN")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TRACE_LEN)
}

/// Worker-thread count for the parallel runner: `REDSOC_THREADS` when set
/// (clamped to at least 1), otherwise the machine's available parallelism.
#[must_use]
pub fn threads() -> usize {
    std::env::var("REDSOC_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// The three Table I cores with their display names.
#[must_use]
pub fn cores() -> [(&'static str, CoreConfig); 3] {
    [
        ("BIG", CoreConfig::big()),
        ("MEDIUM", CoreConfig::medium()),
        ("SMALL", CoreConfig::small()),
    ]
}

/// Per-application-class recycle threshold, tuned by the `abl_threshold`
/// sweep exactly as the paper tunes per benchmark set (§IV-C, §VI-C).
#[must_use]
pub fn tuned_threshold(class: BenchClass) -> u64 {
    match class {
        // Compute-rich classes recycle aggressively.
        BenchClass::MiBench | BenchClass::Ml => 7,
        // SPEC has more FU pressure from memory-adjacent work.
        BenchClass::Spec => 7,
    }
}

/// A ReDSOC scheduler configuration tuned for `class`.
#[must_use]
pub fn redsoc_for(class: BenchClass) -> SchedulerConfig {
    let mut s = SchedulerConfig::redsoc();
    s.threshold_ticks = tuned_threshold(class);
    s
}

/// Concurrent, shareable trace store.
///
/// Traces are expensive to generate, and a full sweep needs each one on
/// every core under every scheduler mode. The cache generates each
/// benchmark's trace **exactly once per process** — concurrent requests
/// for the same benchmark block on a per-entry [`OnceLock`] while the
/// first requester generates, and every caller receives a cheap
/// `Arc<[DynOp]>` handle to the same immutable trace. Distinct benchmarks
/// generate fully in parallel.
pub struct TraceCache {
    entries: RwLock<HashMap<Benchmark, TraceSlot>>,
    len: u64,
}

/// A per-benchmark cache entry: generated at most once, shared by `Arc`.
type TraceSlot = Arc<OnceLock<Arc<[DynOp]>>>;

impl TraceCache {
    /// Create a cache generating traces of `len` dynamic instructions.
    #[must_use]
    pub fn new(len: u64) -> Self {
        TraceCache {
            entries: RwLock::new(HashMap::new()),
            len,
        }
    }

    /// The dynamic-instruction budget traces are generated with.
    #[must_use]
    pub fn target_len(&self) -> u64 {
        self.len
    }

    /// The trace for `bench`, generated on first use and shared thereafter.
    ///
    /// Lock poisoning is recovered from rather than propagated: the map
    /// only ever gains fully-initialised `Arc` slots, so a panic on
    /// another thread (e.g. an injected fault in a supervised sweep)
    /// cannot leave it in a torn state.
    #[must_use]
    pub fn get(&self, bench: Benchmark) -> Arc<[DynOp]> {
        use std::sync::PoisonError;
        // Fast path: the entry slot already exists.
        let slot = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&bench)
            .cloned();
        let slot = match slot {
            Some(slot) => slot,
            None => self
                .entries
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(bench)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone(),
        };
        // Generation happens outside both locks: only same-benchmark
        // requesters block on the OnceLock; other benchmarks proceed.
        slot.get_or_init(|| bench.trace(self.len).into()).clone()
    }

    /// Number of traces generated so far (for tests and progress display).
    #[must_use]
    pub fn generated(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .filter(|s| s.get().is_some())
            .count()
    }
}

/// Run `bench` on `core` with scheduler `sched`.
///
/// # Panics
///
/// Panics on simulator errors (experiments are deterministic; an error is
/// a bug, not an expected outcome).
pub fn run_on(
    cache: &TraceCache,
    bench: Benchmark,
    core: &CoreConfig,
    sched: SchedulerConfig,
) -> SimReport {
    let trace = cache.get(bench);
    let config = core.clone().with_sched(sched);
    simulate(trace.iter().copied(), config)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), core.name))
}

/// Baseline and ReDSOC reports plus the derived speedup for one
/// benchmark × core pair.
pub struct Comparison {
    /// Baseline run.
    pub base: SimReport,
    /// ReDSOC run (class-tuned threshold).
    pub redsoc: SimReport,
}

impl Comparison {
    /// Speedup of ReDSOC over baseline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.redsoc.speedup_over(&self.base)
    }
}

/// Run the baseline/ReDSOC pair for one benchmark × core.
pub fn compare(cache: &TraceCache, bench: Benchmark, core: &CoreConfig) -> Comparison {
    let base = run_on(cache, bench, core, SchedulerConfig::baseline());
    let redsoc = run_on(cache, bench, core, redsoc_for(bench.class()));
    Comparison { base, redsoc }
}

/// Geometric-mean helper for class averages (the paper reports means per
/// benchmark class).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn trace_cache_reuses_traces() {
        let c = TraceCache::new(2_000);
        let a = c.get(Benchmark::Bitcnt);
        let b = c.get(Benchmark::Bitcnt);
        assert!(Arc::ptr_eq(&a, &b), "second get must share the same trace");
        assert_eq!(c.generated(), 1);
    }

    #[test]
    fn trace_cache_is_shareable_across_threads() {
        let c = TraceCache::new(2_000);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| c.get(Benchmark::Crc).len()))
                .collect();
            let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(lens.windows(2).all(|w| w[0] == w[1]));
        });
        assert_eq!(c.generated(), 1, "concurrent gets must generate once");
    }

    #[test]
    fn smoke_comparison_on_small_trace() {
        let c = TraceCache::new(5_000);
        let cmp = compare(&c, Benchmark::Bitcnt, &CoreConfig::big());
        assert!(
            cmp.speedup() > 1.0,
            "bitcnt must speed up: {}",
            cmp.speedup()
        );
    }
}
