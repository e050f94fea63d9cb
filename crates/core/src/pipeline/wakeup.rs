//! Event-driven wakeup bookkeeping: per-pool ready sets and an
//! `earliest_req` timer wheel.
//!
//! The issue stage used to re-scan every reservation-station entry every
//! cycle to rebuild the select requests — O(window) work per cycle even
//! when nothing changed. This module replaces the scan with explicit
//! readiness tracking so `select_and_issue` touches only entries that
//! can actually bid: **O(ready + broadcasts)** per cycle.
//!
//! Three structures, all owned by [`PipelineState`]:
//!
//! - **Ready sets** (`ready`, one `Vec<u64>` per [`PoolKind`]): the
//!   candidate entries whose `earliest_req` has passed and whose
//!   [`Scheduler::wakeup`] hook answered `Some` when last examined.
//!   Membership is mirrored by [`Ifo::in_ready`] so an entry is never
//!   inserted twice. Members are re-evaluated each cycle (a speculative
//!   EGPW request upgrades to non-speculative when the parent issues), and
//!   removed only when they issue or defer — at which point the wheel is
//!   armed, so **no entry is ever silently dropped from wakeup**.
//! - **Timer wheel** (`wheel` + `far`): "re-examine entry `s` at cycle
//!   `t`" alarms. Arms within `WHEEL_SLOTS` cycles go to a ring slot;
//!   farther arms (DRAM-class waits on exotic configs, or the
//!   `earliest_req = u64::MAX` used by tests to park an entry forever)
//!   overflow into a `BTreeMap` drained by due date.
//! - **Broadcast subscriptions** ([`Ifo::waiters`]): at dispatch a
//!   consumer subscribes to each still-unissued producer among
//!   `srcs ∪ {gp_tag}`. When the producer issues (the CI-bus broadcast)
//!   its waiter list is drained exactly once, arming each waiter at that
//!   operand's select-ready threshold — which bakes in per-consumer lead
//!   times such as the VMLA multiply-operand offset. A waiter list is a
//!   FIFO threaded through one node slab (`nodes`, with a free list):
//!   dispatch appends at the tail, the broadcast frees each node as it
//!   drains it, so the slab stops growing at the window's peak
//!   subscription count. [`PipelineState::waiters_of`] walks a list.
//!
//! Alarms fire for *candidates*, not certainties: a due entry whose
//! wakeup hook still answers `None` is re-armed at the earliest future
//! select-ready threshold among its issued operands
//! (`PipelineState::wakeup_sleep_plan`); if no such threshold exists and
//! no operand subscription is pending either — possible only for a wakeup
//! hook that violates the purity contract documented on
//! [`Scheduler::wakeup`] — the entry degrades to per-cycle polling rather
//! than being dropped.
//!
//! All scratch buffers (`requests`, `granted`, wheel slots, the waiter
//! slab) persist across cycles, and the rest of the cycle loop keeps
//! per-op state inline (`SrcTags`) or in iterators (the prefetcher's
//! targets), so the **whole steady-state cycle loop** — commit, issue,
//! dispatch, fetch — performs **zero heap allocations** under the
//! built-in non-fusing schedulers. A counting allocator in this module's
//! tests asserts it; MOS allocates only for the `Vec` its `post_issue`
//! returns in cycles that fused something.
//!
//! The stage methods are generic over the scheduler type: the built-in
//! schedulers run through a pipeline monomorphised for each, policies
//! given to [`Simulator::with_scheduler`] through `dyn Scheduler`.
//!
//! The legacy full-window scan is kept behind the `scan-wakeup` feature
//! (see [`Simulator::with_scan_wakeup`]) for differential testing; the
//! golden-fixture suite proves the two paths emit byte-identical event
//! streams.
//!
//! [`Scheduler::wakeup`]: crate::sched::Scheduler::wakeup
//! [`Ifo::in_ready`]: super::state::Ifo
//! [`Ifo::waiters`]: super::state::Ifo
//! [`Simulator::with_scan_wakeup`]: super::Simulator
//! [`Simulator::with_scheduler`]: super::Simulator::with_scheduler
//! [`PoolKind`]: crate::fu::PoolKind

// Invariant `expect`s in this module are deliberate: each one guards a
// structural pipeline invariant that only a simulator bug can violate
// (never operator input), and a loud abort — isolated and quarantined
// per job by the bench supervisor — beats silently corrupting a
// result. The per-cycle hot path stays `Result`-free.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::mem;

use crate::fu::PoolKind;
use crate::sched::{Scheduler, SelectRequest};

use super::state::PipelineState;

/// Pool iteration order of the issue stage — fixed, as the select
/// arbiters are physically separate; also the index space of the per-pool
/// arrays below.
pub(crate) const POOLS: [PoolKind; 4] =
    [PoolKind::Alu, PoolKind::Simd, PoolKind::Fp, PoolKind::Mem];

/// Direct index of a pool in the per-pool arrays (the old linear
/// `requests.iter_mut().find(|(k, _)| *k == pool)` lookup, retired).
pub(crate) fn pool_index(kind: PoolKind) -> usize {
    match kind {
        PoolKind::Alu => 0,
        PoolKind::Simd => 1,
        PoolKind::Fp => 2,
        PoolKind::Mem => 3,
    }
}

/// Near-horizon size of the timer wheel. One slot per future cycle;
/// covers every latency the default memory hierarchy can produce (DRAM is
/// 120 cycles). Anything farther lands in the `far` overflow map.
const WHEEL_SLOTS: u64 = 512;

/// End of a waiter list / the free list.
const NIL: u32 = u32::MAX;

/// One subscription in the waiter slab: consumer `seq`, then the next
/// node of the same list (or of the free list).
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    seq: u64,
    next: u32,
}

/// A producer's broadcast subscribers: a FIFO list threaded through the
/// [`WakeupState`] node slab. Empty by default; emptied again (its nodes
/// returned to the free list) by the producer's issue broadcast.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaiterList {
    head: u32,
    tail: u32,
}

impl Default for WaiterList {
    fn default() -> Self {
        WaiterList {
            head: NIL,
            tail: NIL,
        }
    }
}

/// The subscribers of one producer, oldest subscription first — see
/// [`PipelineState::waiters_of`].
#[derive(Debug, Clone)]
pub struct Waiters<'a> {
    nodes: &'a [WaiterNode],
    cur: u32,
}

impl Iterator for Waiters<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let node = self.nodes.get(self.cur as usize)?;
        self.cur = node.next;
        Some(node.seq)
    }
}

/// The event-driven wakeup state and the issue stage's persistent scratch
/// buffers. See the [module docs](self) for the design.
#[derive(Debug)]
pub(crate) struct WakeupState {
    /// Per-pool candidate sets (unordered; requests are sorted by seq
    /// before select). Mirrored by `Ifo::in_ready`.
    pub(crate) ready: [Vec<u64>; 4],
    /// Near timer wheel: slot `t % WHEEL_SLOTS` holds entries to
    /// re-examine at cycle `t`.
    wheel: Vec<Vec<u64>>,
    /// Far arms, keyed by due cycle.
    far: BTreeMap<u64, Vec<u64>>,
    /// Per-pool select-request scratch, reused every cycle.
    pub(crate) requests: [Vec<SelectRequest>; 4],
    /// Seqs granted so far this cycle (the EGPW parent-issued check),
    /// reused every cycle.
    pub(crate) granted: Vec<u64>,
    /// Node slab behind every [`WaiterList`]; freed nodes are chained
    /// from `free` and reused, so the slab stops growing once it holds
    /// the window's peak subscription count.
    nodes: Vec<WaiterNode>,
    /// Head of the free-node list.
    free: u32,
}

impl WakeupState {
    pub(crate) fn new() -> Self {
        WakeupState {
            ready: Default::default(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            far: BTreeMap::new(),
            requests: Default::default(),
            granted: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Append `seq` to `list`, reusing a free node when there is one.
    fn subscribe(&mut self, list: &mut WaiterList, seq: u64) {
        let node = WaiterNode { seq, next: NIL };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("waiter slab fits u32 indices")
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Unlink the head of `list`, free its node and return its consumer.
    fn pop_front(&mut self, list: &mut WaiterList) -> Option<u64> {
        if list.head == NIL {
            return None;
        }
        let idx = list.head;
        let WaiterNode { seq, next } = self.nodes[idx as usize];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        Some(seq)
    }
}

impl PipelineState {
    /// Whether the legacy full-window scan drives the issue stage (the
    /// `scan-wakeup` differential-testing path). The event bookkeeping
    /// below no-ops in that mode so the two paths stay independent.
    #[inline]
    pub(crate) fn scan_mode(&self) -> bool {
        #[cfg(feature = "scan-wakeup")]
        {
            self.scan_wakeup
        }
        #[cfg(not(feature = "scan-wakeup"))]
        {
            false
        }
    }

    /// Arm the timer wheel: re-examine `seq` at cycle `at` (strictly in
    /// the future). Duplicate arms are fine — firing is idempotent.
    pub(crate) fn wakeup_arm(&mut self, seq: u64, at: u64) {
        if self.scan_mode() {
            return;
        }
        debug_assert!(at > self.cycle, "arm must target a future cycle");
        if at - self.cycle < WHEEL_SLOTS {
            self.wakeup.wheel[(at % WHEEL_SLOTS) as usize].push(seq);
        } else {
            self.wakeup.far.entry(at).or_default().push(seq);
        }
    }

    /// Dispatch-time hook: arm the initial `earliest_req` alarm and
    /// subscribe `consumer` to every still-unissued producer among its
    /// sources and grandparent tag.
    pub(crate) fn wakeup_on_dispatch(&mut self, consumer: u64) {
        if self.scan_mode() {
            return;
        }
        let (at, srcs, gp_tag) = {
            let x = self.ifo(consumer).expect("just dispatched");
            (x.earliest_req, x.srcs, x.gp_tag)
        };
        self.wakeup_arm(consumer, at);
        let gp = gp_tag.filter(|gp| !srcs.contains(gp));
        for tag in srcs.iter().copied().chain(gp) {
            // Field-level borrows: the producer's entry and the slab.
            let Some(idx) = tag.checked_sub(self.base_seq) else {
                continue; // retired: nothing to wait for
            };
            if let Some(p) = self.ifos.get_mut(idx as usize) {
                if !p.issued {
                    self.wakeup.subscribe(&mut p.waiters, consumer);
                }
            }
        }
    }

    /// The consumers subscribed to `producer`'s issue broadcast, in
    /// subscription (dispatch) order; empty once it has broadcast or left
    /// the window. A fusing scheduler walks this instead of the window.
    #[must_use]
    pub fn waiters_of(&self, producer: u64) -> Waiters<'_> {
        Waiters {
            nodes: &self.wakeup.nodes,
            cur: self.ifo(producer).map_or(NIL, |p| p.waiters.head),
        }
    }

    /// Deferral hook: `try_issue` pushed `seq`'s `earliest_req` into the
    /// future (tag mispredict, GP mispeculation, or the defensive
    /// late-start hold). Re-arm so the entry re-enters the ready set at
    /// exactly that cycle; the end-of-cycle compaction removes it from the
    /// current set. A zero penalty leaves `earliest_req <= cycle`, in
    /// which case the entry simply stays ready.
    pub(crate) fn wakeup_defer(&mut self, seq: u64) {
        if self.scan_mode() {
            return;
        }
        let at = self
            .ifo(seq)
            .expect("deferred entry in flight")
            .earliest_req;
        if at > self.cycle {
            self.wakeup_arm(seq, at);
        }
    }

    /// CI-bus broadcast: `producer` has just issued. Drain its waiter
    /// list (exactly once — issue is permanent) and arm each waiter at
    /// the cycle this operand crosses its select-ready threshold for that
    /// specific consumer, never before the next cycle.
    pub(crate) fn wakeup_broadcast(&mut self, producer: u64) {
        if self.scan_mode() {
            return;
        }
        let Some(p) = self.ifo_mut(producer) else {
            return;
        };
        let mut waiters = mem::take(&mut p.waiters);
        while let Some(cseq) = self.wakeup.pop_front(&mut waiters) {
            let r = {
                let Some(x) = self.ifo(cseq) else { continue };
                if x.issued || x.in_ready {
                    // Already bidding (or gone): the per-cycle ready-set
                    // re-evaluation sees the new broadcast by itself.
                    continue;
                }
                self.src_sel_ready(producer, x)
                    .unwrap_or(self.cycle + 1)
                    .max(self.cycle + 1)
            };
            self.wakeup_arm(cseq, r);
        }
    }

    /// Fire all alarms due at the current cycle, re-examining each
    /// candidate. Called at the top of the issue pass, before requests
    /// are gathered.
    pub(crate) fn wakeup_drain<Sch: Scheduler + ?Sized>(&mut self, sched: &Sch) {
        let t = self.cycle;
        // Far arms that have come due (rare: beyond-the-wheel waits).
        loop {
            let due = match self.wakeup.far.first_key_value() {
                Some((&k, _)) if k <= t => self.wakeup.far.pop_first().map(|(_, v)| v),
                _ => None,
            };
            let Some(seqs) = due else { break };
            for seq in seqs {
                self.wakeup_candidate(sched, seq);
            }
        }
        // The near slot for this cycle.
        let slot = (t % WHEEL_SLOTS) as usize;
        let mut due = mem::take(&mut self.wakeup.wheel[slot]);
        for &seq in due.iter() {
            self.wakeup_candidate(sched, seq);
        }
        due.clear();
        let cur = &mut self.wakeup.wheel[slot];
        if cur.is_empty() {
            *cur = due; // restore the warmed capacity
        } else {
            // Defensive: a re-arm landed exactly WHEEL_SLOTS ahead while
            // the slot was detached (unreachable for near arms, which
            // target strictly less than WHEEL_SLOTS cycles out).
            due.append(cur);
            *cur = due;
        }
    }

    /// Re-examine one candidate whose alarm fired: enter the ready set if
    /// its wakeup hook bids, otherwise plan the next look.
    fn wakeup_candidate<Sch: Scheduler + ?Sized>(&mut self, sched: &Sch, seq: u64) {
        let t = self.cycle;
        enum Action {
            Ready(usize),
            Rearm(u64),
            Sleep,
        }
        let action = {
            let Some(x) = self.ifo(seq) else { return };
            if x.issued || x.committed || x.in_ready {
                return; // stale alarm: already bidding, issued or retired
            }
            if x.earliest_req > t {
                Action::Rearm(x.earliest_req)
            } else if sched.wakeup(self, x).is_some() {
                Action::Ready(pool_index(x.pool))
            } else {
                Action::Sleep
            }
        };
        match action {
            Action::Ready(p) => {
                self.ifo_mut(seq).expect("entry in flight").in_ready = true;
                self.wakeup.ready[p].push(seq);
            }
            Action::Rearm(at) => self.wakeup_arm(seq, at),
            Action::Sleep => self.wakeup_sleep_plan(seq),
        }
    }

    /// `seq` cannot bid right now: arm at the earliest future cycle an
    /// already-issued operand crosses its select-ready threshold.
    /// Unissued operands re-arm us through their broadcast subscription.
    /// If neither exists — possible only for a wakeup hook outside the
    /// documented purity contract — degrade to per-cycle polling so the
    /// entry is never dropped.
    fn wakeup_sleep_plan(&mut self, seq: u64) {
        let t = self.cycle;
        let (next, has_unissued) = {
            let x = self.ifo(seq).expect("sleeping entry in flight");
            let mut next: Option<u64> = None;
            let mut has_unissued = false;
            let mut consider = |r: Option<u64>| match r {
                None => has_unissued = true,
                Some(r) if r > t => next = Some(next.map_or(r, |n| n.min(r))),
                Some(_) => {}
            };
            for &s in &x.srcs {
                consider(self.src_sel_ready(s, x));
            }
            if let Some(gp) = x.gp_tag {
                if !x.srcs.contains(&gp) {
                    consider(self.src_sel_ready(gp, x));
                }
            }
            (next, has_unissued)
        };
        match next {
            Some(at) => self.wakeup_arm(seq, at),
            None if has_unissued => {} // a broadcast will re-arm us
            None => self.wakeup_arm(seq, t + 1), // contract fallback: poll
        }
    }

    /// End-of-cycle compaction: drop entries that issued, retired or were
    /// deferred (`earliest_req` now in the future — their alarm is
    /// armed), clearing their `in_ready` mirror. In-place, no allocation.
    pub(crate) fn wakeup_compact(&mut self) {
        let t = self.cycle;
        for p in 0..POOLS.len() {
            let mut set = mem::take(&mut self.wakeup.ready[p]);
            let mut keep = 0;
            for i in 0..set.len() {
                let seq = set[i];
                let stays = self
                    .ifo(seq)
                    .is_some_and(|x| !x.issued && !x.committed && x.earliest_req <= t);
                if stays {
                    set[keep] = seq;
                    keep += 1;
                } else if let Some(x) = self.ifo_mut(seq) {
                    x.in_ready = false;
                }
            }
            set.truncate(keep);
            self.wakeup.ready[p] = set;
        }
    }

    /// Number of entries currently in pool `p`'s ready set (index per
    /// [`POOLS`]). Test-only visibility.
    #[cfg(test)]
    pub(crate) fn ready_len(&self, p: usize) -> usize {
        self.wakeup.ready[p].len()
    }
}

/// Thread-local allocation probe. The companion counting
/// `#[global_allocator]` is installed only in this crate's unit-test
/// binary (see `alloc_counter` below), where the zero-steady-state-alloc
/// assertion runs in debug mode; release builds carry no probe at all.
#[cfg(test)]
pub(crate) mod alloc_probe {
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one heap allocation on this thread.
    pub(crate) fn bump() {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }

    /// Allocations recorded on this thread so far.
    pub(crate) fn count() -> u64 {
        ALLOCS.with(Cell::get)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod alloc_counter {
    //! A counting allocator for the whole unit-test binary: delegates to
    //! the system allocator and bumps the thread-local probe on every
    //! allocation, so tests can assert a code region allocates nothing.
    use std::alloc::{GlobalAlloc, Layout, System};

    struct Counting;

    // SAFETY: pure delegation to `System`; the probe is a thread-local
    // `Cell<u64>` with no destructor, so no re-entrancy or TLS-teardown
    // hazards.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            super::alloc_probe::bump();
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            super::alloc_probe::bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use redsoc_isa::opcode::MemWidth;
    use redsoc_isa::prelude::*;

    use crate::config::{CoreConfig, SchedulerConfig};
    use crate::events::NullSink;
    use crate::pipeline::state::PipelineState;
    use crate::sched::baseline::BaselineScheduler;
    use crate::sched::mos::MosScheduler;
    use crate::sched::redsoc::RedsocScheduler;
    use crate::sched::Scheduler;

    use super::WHEEL_SLOTS;

    /// Two interleaved single-cycle ALU dependence chains — enough
    /// parallelism to keep the issue stage busy and (under redsoc) raise
    /// EGPW speculative requests.
    fn alu_chain_trace(n: u64) -> Vec<DynOp> {
        chain_trace(n, AluOp::Add)
    }

    /// Two interleaved chains, the even one `Eor`, the odd one `odd`.
    /// With `odd = Eor` two chain links fit one clock period, so MOS can
    /// fuse in steady state.
    fn chain_trace(n: u64, odd: AluOp) -> Vec<DynOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            let reg = r((i % 2) as u8 + 1);
            let instr = Instr::Alu {
                op: if i % 2 == 0 { AluOp::Eor } else { odd },
                dst: Some(reg),
                src1: Some(reg),
                op2: Operand2::Imm(0x5A),
                set_flags: false,
            };
            let mut d = DynOp::simple(i, (i % 64) as u32 * 4, instr);
            d.eff_bits = 8;
            ops.push(d);
        }
        ops.push(DynOp::simple(n, (n % 64) as u32 * 4, Instr::Halt));
        ops
    }

    /// An eight-op loop body over the memory port: a strided load (one
    /// PC, 64-byte stride, so the stride prefetcher reaches its steady
    /// state), an ALU op on its result, a store of that result, a load of
    /// the just-stored word (store-to-load forwarding) and a four-op ALU
    /// chain.
    fn strided_mem_trace(n: u64) -> Vec<DynOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            let k = i / 8;
            let slot = i % 8;
            let pc = slot as u32 * 4;
            let alu = |dst: u8, src: u8| Instr::Alu {
                op: AluOp::Add,
                dst: Some(r(dst)),
                src1: Some(r(src)),
                op2: Operand2::Imm(1),
                set_flags: false,
            };
            let (instr, addr) = match slot {
                0 => (
                    Instr::Load {
                        dst: r(2),
                        base: r(1),
                        offset: 0,
                        width: MemWidth::B4,
                    },
                    Some(0x10_0000 + 64 * k),
                ),
                1 => (alu(3, 2), None),
                2 | 3 => {
                    let addr = Some(0x80_0000 + 8 * (k % 4096));
                    let instr = if slot == 2 {
                        Instr::Store {
                            src: r(3),
                            base: r(1),
                            offset: 0,
                            width: MemWidth::B4,
                        }
                    } else {
                        Instr::Load {
                            dst: r(4),
                            base: r(1),
                            offset: 0,
                            width: MemWidth::B4,
                        }
                    };
                    (instr, addr)
                }
                _ => (alu(5, 5), None),
            };
            let mut d = DynOp::simple(i, pc, instr);
            d.eff_addr = addr.map(|a| u32::try_from(a).expect("fits"));
            d.eff_bits = 8;
            ops.push(d);
        }
        ops.push(DynOp::simple(n, 0x100, Instr::Halt));
        ops
    }

    #[test]
    fn strided_mem_trace_forwards_and_prefetches() {
        let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
        let rep = crate::pipeline::Simulator::new(config)
            .expect("valid config")
            .run(strided_mem_trace(40_000).into_iter())
            .expect("run");
        // One forwarding load and one 64-byte-strided load per body.
        assert_eq!(rep.stl_forwards, 5_000, "every reload forwards");
        // 5 000 strided loads touch a new line each; without the
        // prefetcher every one of them would go to DRAM.
        assert!(
            rep.memory.mem_accesses < 1_000,
            "the stride prefetcher must cover the strided loads: {:?}",
            rep.memory
        );
    }

    fn drained(state: &PipelineState) -> bool {
        state.fetch_stopped
            && state.fetchq.is_empty()
            && state.committed_total == state.dispatched_total
    }

    /// Drive the whole cycle loop by hand — commit, issue, dispatch,
    /// fetch, stall attribution — counting heap allocations per cycle.
    /// Returns the number of steady-state cycles checked, the number of
    /// those that bumped `recycled_ops`, and the steady-state cycles that
    /// allocated, each with whether it bumped `recycled_ops`.
    fn steady_state_allocs<Sch: Scheduler>(
        sched_cfg: SchedulerConfig,
        sched: &Sch,
        trace: Vec<DynOp>,
    ) -> (u64, u64, Vec<(u64, bool)>) {
        let config = CoreConfig::big().with_sched(sched_cfg);
        let mut state = PipelineState::new(config).expect("valid config");
        let mut it = trace.into_iter();
        let mut sink = NullSink;
        // Warm past four wheel circumferences so every slot and scratch
        // buffer has reached its steady-state capacity.
        let warmup = 4 * WHEEL_SLOTS;
        let (mut checked, mut recycling) = (0u64, 0u64);
        let mut allocating = Vec::new();
        while !drained(&state) {
            let before = super::alloc_probe::count();
            let (committed, recycled) = (state.committed_total, state.report.recycled_ops);
            state.commit(sched, &mut sink);
            let fu_denied = state.select_and_issue(sched, &mut sink);
            let block = state.dispatch(sched, &mut sink);
            state.fetch(&mut it, &mut sink);
            let cause = state.attribute_stall(state.committed_total - committed, fu_denied, block);
            state.report.stalls.bump(cause);
            let allocs = super::alloc_probe::count() - before;
            if state.cycle > warmup {
                checked += 1;
                let recycled_now = state.report.recycled_ops != recycled;
                recycling += u64::from(recycled_now);
                if allocs > 0 {
                    allocating.push((state.cycle, recycled_now));
                }
            }
            state.cycle += 1;
            assert!(state.cycle < 400_000, "trace did not drain");
        }
        (checked, recycling, allocating)
    }

    fn assert_zero_steady_state_allocs<Sch: Scheduler>(sched_cfg: SchedulerConfig, sched: &Sch) {
        for (name, trace) in [
            ("alu-chain", alu_chain_trace(40_000)),
            ("strided-mem", strided_mem_trace(40_000)),
        ] {
            let (checked, _, allocating) = steady_state_allocs(sched_cfg.clone(), sched, trace);
            assert!(
                checked > 1000,
                "{name}: too few steady-state cycles: {checked}"
            );
            assert!(
                allocating.is_empty(),
                "{name}/{}: the cycle loop allocated in {} steady-state cycles, first {:?}",
                sched.name(),
                allocating.len(),
                allocating.first()
            );
        }
    }

    #[test]
    fn steady_state_cycle_loop_is_allocation_free_baseline() {
        assert_zero_steady_state_allocs(SchedulerConfig::baseline(), &BaselineScheduler);
    }

    #[test]
    fn steady_state_cycle_loop_is_allocation_free_redsoc() {
        let cfg = SchedulerConfig::redsoc();
        let sched = RedsocScheduler::from_config(&cfg);
        assert_zero_steady_state_allocs(cfg, &sched);
    }

    /// MOS allocates only for its fusion list: `post_issue` returns a
    /// `Vec<FusedIssue>`, kept because decorators of the `Scheduler` trait
    /// outside this crate implement that signature. An empty `Vec` does
    /// not allocate, so only cycles that fused something may allocate.
    /// Under MOS `recycled_ops` counts fused ops only (its boundary timing
    /// never issues an op transparently), so it marks the fusing cycles.
    #[test]
    fn steady_state_cycle_loop_allocates_only_to_fuse_mos() {
        let mut fused_cycles = 0;
        for (name, trace) in [
            ("logic-chain", chain_trace(40_000, AluOp::Eor)),
            ("strided-mem", strided_mem_trace(40_000)),
        ] {
            let (checked, fusing, allocating) =
                steady_state_allocs(SchedulerConfig::mos(), &MosScheduler, trace);
            assert!(
                checked > 1000,
                "{name}: too few steady-state cycles: {checked}"
            );
            fused_cycles += fusing;
            let unfused: Vec<u64> = allocating
                .iter()
                .filter(|&&(_, fused)| !fused)
                .map(|&(cycle, _)| cycle)
                .collect();
            assert!(
                unfused.is_empty(),
                "{name}: MOS allocated in {} cycles that fused nothing, first {:?}",
                unfused.len(),
                unfused.first()
            );
        }
        assert!(
            fused_cycles > 1000,
            "MOS must fuse in steady state: {fused_cycles}"
        );
    }

    #[test]
    fn waiters_of_is_fifo_and_broadcast_recycles_nodes() {
        let config = CoreConfig::big().with_sched(SchedulerConfig::baseline());
        let mut state = PipelineState::new(config).expect("valid config");
        let add = |seq: u64, dst: u8, src: u8| {
            DynOp::simple(
                seq,
                seq as u32 * 4,
                Instr::Alu {
                    op: AluOp::Add,
                    dst: Some(r(dst)),
                    src1: Some(r(src)),
                    op2: Operand2::Imm(1),
                    set_flags: false,
                },
            )
        };
        // Producer 0 writes r1; consumers 1..=3 read it.
        for (seq, dst) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            let src = if seq == 0 { 0 } else { 1 };
            state.allocate(&BaselineScheduler, add(seq, dst, src), &mut NullSink);
        }
        assert_eq!(state.waiters_of(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(state.waiters_of(1).count(), 0);
        let slab = state.wakeup.nodes.len();
        assert_eq!(slab, 3);
        // Issue broadcast: the list drains and its nodes are freed...
        state.ifo_mut(0).expect("in flight").issued = true;
        state.wakeup_broadcast(0);
        assert_eq!(state.waiters_of(0).count(), 0);
        // ...and reused by the next subscriptions (consumers of 3's r4).
        for seq in 4..7 {
            state.allocate(
                &BaselineScheduler,
                add(seq, 5 + seq as u8, 4),
                &mut NullSink,
            );
        }
        assert_eq!(state.waiters_of(3).collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(state.wakeup.nodes.len(), slab, "freed nodes are reused");
    }

    #[test]
    fn waiter_slab_stays_bounded_over_a_long_run() {
        for sched_cfg in [SchedulerConfig::baseline(), SchedulerConfig::redsoc()] {
            let config = CoreConfig::big().with_sched(sched_cfg);
            let rse = config.rse_entries as usize;
            let sched = crate::sched::build_scheduler(&config.sched);
            let mut state = PipelineState::new(config).expect("valid config");
            let mut it = strided_mem_trace(40_000).into_iter();
            let mut sink = NullSink;
            while !drained(&state) {
                state.commit(&*sched, &mut sink);
                state.select_and_issue(&*sched, &mut sink);
                state.dispatch(&*sched, &mut sink);
                state.fetch(&mut it, &mut sink);
                state.cycle += 1;
            }
            assert_eq!(state.committed_total, 40_001);
            let nodes = state.wakeup.nodes.len();
            assert!(
                (1..=5 * rse).contains(&nodes),
                "{}: waiter slab grew to {nodes} nodes (rse {rse})",
                sched.name()
            );
        }
    }

    #[test]
    fn ready_sets_empty_after_drain() {
        let config = CoreConfig::big().with_sched(SchedulerConfig::redsoc());
        let sched = RedsocScheduler::from_config(&config.sched);
        let mut state = PipelineState::new(config).expect("valid config");
        let trace = alu_chain_trace(500);
        let mut it = trace.into_iter();
        let mut sink = NullSink;
        while !drained(&state) {
            state.commit(&sched, &mut sink);
            state.select_and_issue(&sched, &mut sink);
            state.dispatch(&sched, &mut sink);
            state.fetch(&mut it, &mut sink);
            state.cycle += 1;
            assert!(state.cycle < 10_000, "trace did not drain");
        }
        for p in 0..4 {
            assert_eq!(state.ready_len(p), 0, "pool {p} ready set not drained");
        }
    }
}
