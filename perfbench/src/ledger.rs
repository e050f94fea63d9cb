//! The per-layer ledger of the traced run, named by the repository's
//! modules. Each layer is measured from outside: the counting scheduler
//! decorator, timings around `Simulator::with_scheduler` and `run`, the
//! statistics `SimReport` already carries, and replays of a trace's
//! memory and ALU streams through the `mem` and `timing` public APIs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use redsoc_bench::grid::Mode;
use redsoc_core::config::CoreConfig;
use redsoc_core::stats::{SimReport, StallCause};
use redsoc_isa::instruction::Instr;
use redsoc_isa::opcode::ExecClass;
use redsoc_isa::trace::DynOp;
use redsoc_mem::build_memory_model;
use redsoc_timing::{SlackBucket, SlackLut, WidthClass, WidthPredictor};

use crate::counted::{HookTotals, HOOKS};

/// The scheduler modes the decorator wraps (TS builds its own pipeline
/// inside `run_ts`, so it is timed only as a whole cell).
pub const SCHED_MODES: [Mode; 3] = [Mode::Baseline, Mode::Redsoc, Mode::Mos];

/// Per-layer accumulators over every decorated cell of the traced passes.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Traced passes recorded; counts are reported per pass.
    pub passes: usize,
    hooks: [HookTotals; 3],
    ops_by_mode: [u64; 3],
    build: Vec<Duration>,
    run: Duration,
    run_ops: u64,
    run_cycles: u64,
    stalls: [u64; 10],
    branch: (u64, u64),
    width_pred: (u64, u64),
    tag_pred: (u64, u64),
    chain: (f64, u64),
    hits: [u64; 3],
    contention: [u64; 4],
    stl_forwards: u64,
}

fn mode_index(mode: Mode) -> usize {
    SCHED_MODES
        .iter()
        .position(|m| *m == mode)
        .expect("only scheduler modes are decorated")
}

impl Ledger {
    /// Record one decorated simulator cell.
    pub fn record_sim(
        &mut self,
        mode: Mode,
        build: Duration,
        run: Duration,
        r: &SimReport,
        hooks: &HookTotals,
    ) {
        let m = mode_index(mode);
        self.hooks[m] += *hooks;
        self.ops_by_mode[m] += r.committed;
        self.build.push(build);
        self.run += run;
        self.run_ops += r.committed;
        self.run_cycles += r.cycles;
        for (acc, cause) in self.stalls.iter_mut().zip(StallCause::all()) {
            *acc += r.stalls.count(cause);
        }
        self.branch.0 += r.branch.mispredictions;
        self.width_pred.0 += r.width_pred.aggressive + r.width_pred.conservative;
        self.width_pred.1 += r.width_pred.predictions;
        self.tag_pred.0 += r.tag_pred.mispredictions;
        self.tag_pred.1 += r.tag_pred.predictions;
        self.chain.0 += r.chains.mean() * r.chains.sequences() as f64;
        self.chain.1 += r.chains.sequences();
        self.hits[0] += r.memory.l1_hits;
        self.hits[1] += r.memory.l2_hits;
        self.hits[2] += r.memory.mem_accesses;
        self.contention[0] += r.mem_contention.mshr_rejects;
        self.contention[1] += r.mem_contention.mshr_merges;
        self.contention[2] += r.mem_contention.port_wait_cycles;
        self.contention[3] += r.mem_contention.dram_wait_cycles;
        self.stl_forwards += r.stl_forwards;
    }

    /// The ledger's metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let per_pass = |x: u64| x as f64 / self.passes.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        let build_us = self.build.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6;
        out.push((
            "pipeline.build_us".into(),
            ratio(build_us, self.build.len() as f64),
            "us",
        ));
        let run_s = self.run.as_secs_f64();
        out.push((
            "pipeline.run_s".into(),
            run_s / self.passes.max(1) as f64,
            "s",
        ));
        out.push((
            "pipeline.ns_per_op".into(),
            ratio(run_s * 1e9, self.run_ops as f64),
            "ns",
        ));
        out.push((
            "pipeline.ns_per_cycle".into(),
            ratio(run_s * 1e9, self.run_cycles as f64),
            "ns",
        ));
        for (m, mode) in SCHED_MODES.iter().enumerate() {
            let ops = self.ops_by_mode[m] as f64;
            let h = &self.hooks[m];
            for (i, hook) in HOOKS.iter().enumerate() {
                out.push((
                    format!("sched.{}.{hook}.calls_per_op", mode.label()),
                    ratio(h.calls[i] as f64, ops),
                    "calls/op",
                ));
            }
            out.push((
                format!("sched.{}.select.requests_per_op", mode.label()),
                ratio(h.select_requests as f64, ops),
                "req/op",
            ));
            for (i, hook) in HOOKS.iter().enumerate() {
                out.push((
                    format!("sched.{}.{hook}.self_ms", mode.label()),
                    h.self_ns[i] / 1e6 / self.passes.max(1) as f64,
                    "ms",
                ));
            }
        }
        for (cause, stalled) in StallCause::all().iter().zip(self.stalls) {
            out.push((
                format!("stall.{}", cause.label()),
                ratio(stalled as f64, self.run_cycles as f64),
                "fraction",
            ));
        }
        out.push((
            "branch.mpki".into(),
            ratio(self.branch.0 as f64 * 1000.0, self.run_ops as f64),
            "1/kop",
        ));
        out.push((
            "width_pred.mispredict_rate".into(),
            ratio(self.width_pred.0 as f64, self.width_pred.1 as f64),
            "fraction",
        ));
        out.push((
            "tag_pred.mispredict_rate".into(),
            ratio(self.tag_pred.0 as f64, self.tag_pred.1 as f64),
            "fraction",
        ));
        out.push((
            "chain.mean_len".into(),
            ratio(self.chain.0, self.chain.1 as f64),
            "ops",
        ));
        let [l1, l2, dram] = self.hits.map(|x| x as f64);
        out.push((
            "mem.l1_hit_rate".into(),
            ratio(l1, l1 + l2 + dram),
            "fraction",
        ));
        out.push(("mem.l2_hit_rate".into(), ratio(l2, l2 + dram), "fraction"));
        let names = [
            ("mem.mshr_rejects", "count"),
            ("mem.mshr_merges", "count"),
            ("mem.port_wait_cycles", "cycles"),
            ("mem.dram_wait_cycles", "cycles"),
        ];
        for ((name, unit), v) in names.iter().zip(self.contention) {
            out.push(((*name).into(), per_pass(v), unit));
        }
        out.push((
            "mem.stl_forwards".into(),
            per_pass(self.stl_forwards),
            "count",
        ));
        out
    }
}

/// Replay each trace's load/store stream through a fresh memory model
/// of each core, repeating until `budget` has passed; host nanoseconds
/// per accepted request.
pub fn mem_request_ns(traces: &[Arc<[DynOp]>], cores: &[CoreConfig], budget: Duration) -> f64 {
    let start = Instant::now();
    let (mut requests, mut spent) = (0u64, Duration::ZERO);
    loop {
        for trace in traces {
            for core in cores {
                let mut model = build_memory_model(
                    core.mem_model,
                    core.l1,
                    core.l2,
                    core.mem_latencies,
                    core.prefetch,
                );
                let t0 = Instant::now();
                let mut t = 0u64;
                for op in trace.iter() {
                    t += 1;
                    let Some(addr) = op.eff_addr.filter(|_| op.instr.is_mem()) else {
                        continue;
                    };
                    let is_store = matches!(op.instr, Instr::Store { .. });
                    // A rejected load retries when the model says a slot
                    // frees, as the pipeline's load queue does.
                    while let Err(reject) =
                        model.request(op.seq, op.pc, u64::from(addr), is_store, t)
                    {
                        t = reject.retry_at.max(t + 1);
                    }
                    requests += 1;
                }
                spent += t0.elapsed();
                std::hint::black_box(model.stats());
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    spent.as_secs_f64() * 1e9 / requests.max(1) as f64
}

/// Replay each trace's scalar ALU ops through the width predictor and
/// the slack LUT, as decode does, repeating until `budget` has passed;
/// host nanoseconds per ALU op.
pub fn classify_ns_per_op(traces: &[Arc<[DynOp]>], budget: Duration) -> f64 {
    let lut = SlackLut::new();
    let start = Instant::now();
    let (mut ops, mut spent) = (0u64, Duration::ZERO);
    loop {
        for trace in traces {
            let mut wp = WidthPredictor::paper_default();
            let mut ps = 0u64;
            let t0 = Instant::now();
            for op in trace.iter() {
                if op.instr.exec_class() != ExecClass::IntAlu {
                    continue;
                }
                let pred = wp.predict(op.pc);
                wp.update(op.pc, pred, WidthClass::from_bits(op.eff_bits));
                if let Some(bucket) = SlackBucket::classify(&op.instr, pred) {
                    ps += u64::from(lut.compute_ps(bucket));
                }
                ops += 1;
            }
            spent += t0.elapsed();
            std::hint::black_box(ps);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    spent.as_secs_f64() * 1e9 / ops.max(1) as f64
}
