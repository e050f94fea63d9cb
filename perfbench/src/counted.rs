//! A delegating [`Scheduler`] decorator for the traced run: it counts
//! every hook call and samples hook self time, and forwards every trait
//! method, provided ones included, so the wrapped policy decides exactly
//! what it decides undecorated. A method left to its trait default would
//! silently turn ReDSOC into baseline; the benchmark's traced-equals-
//! untraced check catches that.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use redsoc_core::pipeline::state::{Ifo, PipelineState};
use redsoc_core::sched::{ExecTiming, FusedIssue, IssueArgs, Scheduler, SelectRequest};

/// Hook names in counter order.
pub const HOOKS: [&str; 9] = [
    "wakeup",
    "select",
    "skewed_select",
    "transparent_pair",
    "spec_grant_usable",
    "on_issue",
    "post_issue",
    "on_writeback",
    "uses_tag_prediction",
];

const WAKEUP: usize = 0;
const SELECT: usize = 1;
const SKEWED: usize = 2;
const TRANSPARENT: usize = 3;
const SPEC_GRANT: usize = 4;
const ON_ISSUE: usize = 5;
const POST_ISSUE: usize = 6;
const ON_WRITEBACK: usize = 7;
const TAG_PRED: usize = 8;

/// One call in this many is timed. Timing every call with
/// `Instant::now` makes a CONV cell two to four times slower, while the
/// counts alone cost nothing visible.
const SAMPLE_EVERY: u64 = 64;

/// Hook counters shared between a decorator and the benchmark.
///
/// One simulator thread drives each decorator, so a relaxed load/store
/// pair is a correct increment and avoids a locked read-modify-write on
/// the hot path; the counters publish no other data.
#[derive(Debug, Default)]
pub struct HookCounters {
    calls: [AtomicU64; 9],
    sampled_calls: [AtomicU64; 9],
    sampled_ns: [AtomicU64; 9],
    select_requests: AtomicU64,
}

fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Relaxed) + by, Relaxed);
}

impl HookCounters {
    #[inline]
    fn hook<R>(&self, h: usize, f: impl FnOnce() -> R) -> R {
        let n = self.calls[h].load(Relaxed);
        self.calls[h].store(n + 1, Relaxed);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        bump(&self.sampled_ns[h], t0.elapsed().as_nanos() as u64);
        bump(&self.sampled_calls[h], 1);
        r
    }

    /// Totals so far, with self time scaled up from the sampled calls.
    pub fn totals(&self) -> HookTotals {
        let mut t = HookTotals {
            select_requests: self.select_requests.load(Relaxed),
            ..HookTotals::default()
        };
        for h in 0..HOOKS.len() {
            let calls = self.calls[h].load(Relaxed);
            let sampled = self.sampled_calls[h].load(Relaxed);
            t.calls[h] = calls;
            if sampled > 0 {
                t.self_ns[h] =
                    self.sampled_ns[h].load(Relaxed) as f64 / sampled as f64 * calls as f64;
            }
        }
        t
    }
}

/// Hook call counts and estimated self time, summable across cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    /// Calls per hook, indexed like [`HOOKS`].
    pub calls: [u64; 9],
    /// Estimated nanoseconds spent inside each hook.
    pub self_ns: [f64; 9],
    /// Requests handed to `select`, summed over calls.
    pub select_requests: u64,
}

impl std::ops::AddAssign for HookTotals {
    fn add_assign(&mut self, o: HookTotals) {
        for h in 0..HOOKS.len() {
            self.calls[h] += o.calls[h];
            self.self_ns[h] += o.self_ns[h];
        }
        self.select_requests += o.select_requests;
    }
}

/// The decorator: forwards to `inner`, counting on the way.
#[derive(Debug)]
pub struct Counted {
    inner: Box<dyn Scheduler>,
    counters: Arc<HookCounters>,
}

impl Counted {
    /// Wrap `inner`; read the counts back through `counters`.
    pub fn new(inner: Box<dyn Scheduler>, counters: Arc<HookCounters>) -> Self {
        Counted { inner, counters }
    }
}

impl Scheduler for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn uses_tag_prediction(&self, recyclable: bool) -> bool {
        self.counters
            .hook(TAG_PRED, || self.inner.uses_tag_prediction(recyclable))
    }

    fn wakeup(&self, state: &PipelineState, x: &Ifo) -> Option<SelectRequest> {
        self.counters.hook(WAKEUP, || self.inner.wakeup(state, x))
    }

    fn select(&self, requests: &mut [SelectRequest]) {
        bump(&self.counters.select_requests, requests.len() as u64);
        self.counters.hook(SELECT, || self.inner.select(requests));
    }

    fn skewed_select(&self) -> bool {
        self.counters.hook(SKEWED, || self.inner.skewed_select())
    }

    fn transparent_pair(&self, producer: &Ifo, consumer: &Ifo) -> bool {
        self.counters.hook(TRANSPARENT, || {
            self.inner.transparent_pair(producer, consumer)
        })
    }

    fn spec_grant_usable(&self, state: &PipelineState, x: &Ifo, parent: &Ifo, t: u64) -> bool {
        self.counters.hook(SPEC_GRANT, || {
            self.inner.spec_grant_usable(state, x, parent, t)
        })
    }

    fn on_issue(&self, state: &mut PipelineState, issue: &IssueArgs) -> ExecTiming {
        self.counters
            .hook(ON_ISSUE, || self.inner.on_issue(state, issue))
    }

    fn post_issue(&self, state: &mut PipelineState, producer: u64, t: u64) -> Vec<FusedIssue> {
        self.counters
            .hook(POST_ISSUE, || self.inner.post_issue(state, producer, t))
    }

    fn on_writeback(&self, x: &Ifo, cycle: u64) {
        self.counters
            .hook(ON_WRITEBACK, || self.inner.on_writeback(x, cycle));
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        self.inner.restore(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsoc_core::config::{CoreConfig, SchedulerConfig};
    use redsoc_core::pipeline::Simulator;
    use redsoc_core::sched::build_scheduler;
    use redsoc_workloads::Benchmark;

    #[test]
    fn decorated_runs_match_plain_runs() {
        let trace = Benchmark::Crc.trace(3_000);
        for sched in [
            SchedulerConfig::baseline(),
            SchedulerConfig::redsoc(),
            SchedulerConfig::mos(),
        ] {
            let config = CoreConfig::big().with_sched(sched.clone());
            let plain = Simulator::new(config.clone())
                .and_then(|s| s.run(trace.iter().copied()))
                .expect("plain run");
            let counters = Arc::new(HookCounters::default());
            let counted = Counted::new(build_scheduler(&sched), Arc::clone(&counters));
            assert_eq!(
                counted.skewed_select(),
                build_scheduler(&sched).skewed_select()
            );
            let traced = Simulator::with_scheduler(config, Box::new(counted))
                .and_then(|s| s.run(trace.iter().copied()))
                .expect("decorated run");
            assert_eq!(plain.cycles, traced.cycles);
            assert_eq!(plain.stalls, traced.stalls);
            let totals = counters.totals();
            assert!(totals.calls[WAKEUP] > 0 && totals.select_requests > 0);
        }
    }
}
