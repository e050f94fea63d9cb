//! The three workloads: their cells, their set-up, and one pass over
//! their cells, each timed from outside the simulator's public API.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use redsoc_bench::grid::{sweep_json, Grid, Mode};
use redsoc_bench::journal::{Journal, JournalRecord};
use redsoc_bench::pool::WorkerPoolConfig;
use redsoc_bench::runner::{run_grid_isolated, Isolation};
use redsoc_bench::supervisor::{CellSummary, SupervisorConfig};
use redsoc_bench::{cores, redsoc_for, TraceCache};
use redsoc_core::config::{CoreConfig, SchedulerConfig};
use redsoc_core::pipeline::Simulator;
use redsoc_core::sched::build_scheduler;
use redsoc_core::sched::ts::run_ts;
use redsoc_core::stats::{SimReport, StallCause};
use redsoc_isa::trace::DynOp;
use redsoc_mem::MemModelConfig;
use redsoc_workloads::spec::{spec_trace, SpecProfile};
use redsoc_workloads::Benchmark;

use crate::counted::{Counted, HookCounters};
use crate::ledger::Ledger;

/// Trace length of the `ml-window` and `sweep-isolated` cells: the
/// length of the committed `BENCH_sweep.json`, whose rows are their
/// reference. The ML kernels ignore it and run to completion.
pub const GRID_LEN: u64 = 2_000;
/// Length of each `spec-memory` trace (each runs 10 to 20 thousand
/// cycles, long enough for the caches and MSHRs to reach steady state).
pub const SPEC_LEN: u64 = 15_000;
/// Traces per SPEC-like profile. One trace's cycle count moves by about
/// 6% (quartile spread) from seed to seed, because the seed draws the
/// synthetic loop body; summing eight independent bodies per profile
/// brings that to about 2%, below the benchmark's bounds.
pub const SPEC_TRACES: u64 = 8;
/// The default `--seed`. Trace `k` of `spec-memory` profile `i` uses seed
/// `seed + i + k * 1_000_003`, so 11 reproduces for `k = 0` the seeds
/// `Benchmark::trace` uses (11 to 15).
pub const DEFAULT_SEED: u64 = 11;

/// TS picks the shortest clock whose timing-error rate stays below this
/// (the value every sweep uses).
const TS_MAX_ERROR: f64 = 0.01;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CONV, POOL0, POOL1 on classic memory, in-process.
    MlWindow,
    /// Five synthetic SPEC-like traces on contended memory, in-process.
    SpecMemory,
    /// Nine short-cell benchmarks through process isolation and a journal.
    SweepIsolated,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MlWindow,
        Workload::SpecMemory,
        Workload::SweepIsolated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlWindow => "ml-window",
            Workload::SpecMemory => "spec-memory",
            Workload::SweepIsolated => "sweep-isolated",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-ups timed per run; `setup_s` is their median. A sweep sets
    /// up its journal and worker pool afresh in every pass, so its
    /// set-up is timed per pass instead.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::MlWindow => 5,
            Workload::SpecMemory => 5,
            Workload::SweepIsolated => 1,
        }
    }

    fn benches(self) -> Vec<Benchmark> {
        use Benchmark::*;
        match self {
            Workload::MlWindow => vec![Conv, Pool0, Pool1],
            Workload::SpecMemory => vec![Xalanc, Bzip2, Omnetpp, Gromacs, Soplex],
            Workload::SweepIsolated => vec![
                Xalanc, Bzip2, Omnetpp, Gromacs, Soplex, Gsm, Crc, Softmax, MlMac,
            ],
        }
    }

    /// The workload's traces as (benchmark, trace name), in trace order.
    fn inputs(self) -> Vec<(Benchmark, String)> {
        let benches = self.benches();
        match self {
            Workload::SpecMemory => benches
                .iter()
                .flat_map(|b| (0..SPEC_TRACES).map(move |k| (*b, format!("{}.{k}", b.name()))))
                .collect(),
            _ => benches.iter().map(|b| (*b, b.name().to_string())).collect(),
        }
    }

    fn cores(self) -> Vec<(&'static str, CoreConfig)> {
        let contended = MemModelConfig::parse("contended").expect("contended is a model label");
        cores()
            .into_iter()
            .map(|(name, core)| match self {
                Workload::SpecMemory => (name, core.with_mem_model(contended)),
                _ => (name, core),
            })
            .collect()
    }
}

/// The simulated outcome of one cell: what the reference pins down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub cycles: u64,
    pub committed: u64,
    /// Per-cause stall cycles, indexed like `StallCause::all`; `None`
    /// for TS cells, which report no partition.
    pub stalls: Option<[u64; 10]>,
}

impl Outcome {
    fn of_report(r: &SimReport) -> Outcome {
        Outcome {
            cycles: r.cycles,
            committed: r.committed,
            stalls: Some(StallCause::all().map(|c| r.stalls.count(c))),
        }
    }

    fn of_summary(s: &CellSummary) -> Outcome {
        Outcome {
            cycles: s.cycles(),
            committed: s.committed(),
            stalls: s.stalls().copied(),
        }
    }
}

/// One cell of a workload's grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub bench: Benchmark,
    /// Trace name: the benchmark's, plus `.k` for `spec-memory` trace `k`.
    pub name: String,
    pub core_name: &'static str,
    pub core: CoreConfig,
    pub mode: Mode,
    /// Index of the cell's trace in [`Setup::traces`].
    pub trace: usize,
}

impl CellSpec {
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.name, self.core_name, self.mode.label())
    }

    fn sched(&self) -> SchedulerConfig {
        match self.mode {
            Mode::Redsoc => redsoc_for(self.bench.class()),
            Mode::Mos => SchedulerConfig::mos(),
            Mode::Baseline | Mode::Ts => SchedulerConfig::baseline(),
        }
    }
}

/// A workload's cells in canonical order: trace, core, then mode with
/// baseline first (TS derives from it).
pub fn cells(w: Workload) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for (trace, (bench, name)) in w.inputs().into_iter().enumerate() {
        for (core_name, core) in w.cores() {
            for mode in Mode::all() {
                out.push(CellSpec {
                    bench,
                    name: name.clone(),
                    core_name,
                    core: core.clone(),
                    mode,
                    trace,
                });
            }
        }
    }
    out
}

/// A Fisher-Yates permutation of `0..n` from `seed` (splitmix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    p
}

/// What a workload holds once set up.
pub struct Setup {
    /// In-process traces, in the workload's trace order. A sweep's
    /// workers generate their own; its copies are made after set-up.
    pub traces: Vec<Arc<[DynOp]>>,
    /// Host time to generate each trace.
    pub trace_times: Vec<Duration>,
    /// Process-isolation context (`sweep-isolated` only).
    pub sweep: Option<SweepCtx>,
}

/// Everything a `sweep-isolated` pass needs.
pub struct SweepCtx {
    cache: TraceCache,
    /// Benchmarks in seed-permuted grid order.
    benches: Vec<Benchmark>,
    /// The executable worker processes are spawned from.
    exe: PathBuf,
    sup: SupervisorConfig,
    dir: PathBuf,
}

impl Setup {
    /// Generate `w`'s inputs: the traces of an in-process workload, or the
    /// sweep's working directory and benchmark order.
    pub fn build(w: Workload, seed: u64, tmp: &std::path::Path) -> Result<Setup, String> {
        let mut traces = Vec::new();
        let mut trace_times = Vec::new();
        let mut sweep = None;
        match w {
            Workload::MlWindow => {
                let cache = TraceCache::new(GRID_LEN);
                for bench in w.benches() {
                    let t0 = Instant::now();
                    traces.push(cache.get(bench));
                    trace_times.push(t0.elapsed());
                }
            }
            Workload::SpecMemory => {
                for (i, profile) in SpecProfile::all().iter().enumerate() {
                    for k in 0..SPEC_TRACES {
                        let t0 = Instant::now();
                        let trace_seed = seed + i as u64 + k * 1_000_003;
                        let ops: Vec<DynOp> = spec_trace(profile, SPEC_LEN, trace_seed).collect();
                        traces.push(ops.into());
                        trace_times.push(t0.elapsed());
                    }
                }
            }
            Workload::SweepIsolated => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the worker executable: {e}"))?;
                std::fs::create_dir_all(tmp)
                    .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
                let benches = w.benches();
                let order = permutation(benches.len(), seed);
                sweep = Some(SweepCtx {
                    cache: TraceCache::new(GRID_LEN),
                    benches: order.iter().map(|&i| benches[i]).collect(),
                    exe,
                    sup: SupervisorConfig::default(),
                    dir: tmp.to_path_buf(),
                });
            }
        }
        Ok(Setup {
            traces,
            trace_times,
            sweep,
        })
    }
}

/// One measured execution of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Index into the workload's [`cells`].
    pub cell: usize,
    /// `None` when the cell did not complete `ok`.
    pub outcome: Option<Outcome>,
    /// Host time of the cell.
    pub host: Duration,
    pub attempts: u32,
    /// Requests the scheduler's `select` saw (decorated runs only).
    pub select_requests: Option<u64>,
}

/// One pass over every cell of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Set-up inside the pass: the sweep's fresh journal and worker-pool
    /// configuration (`None` for in-process workloads).
    pub setup: Option<Duration>,
    /// Wall time of the pass after its set-up.
    pub wall: Duration,
    /// CPU seconds of this process and its reaped children during the
    /// pass.
    pub cpu: f64,
    pub runs: Vec<CellRun>,
    /// Cells whose journal round trip failed (`sweep-isolated` only).
    pub resume_mismatch: Vec<usize>,
}

/// Burn `d` of CPU on this thread: the planted slowdown.
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Run every cell of an in-process workload once, in seed-permuted
/// (trace, core) `groups` of four so each TS cell follows its baseline.
/// With a `ledger`, every scheduler cell runs a second time right after,
/// under the counting decorator, and the layers' numbers are recorded;
/// the decorated runs come back as a second pass. Interleaving the two
/// per cell keeps host drift out of their ratio. `slow` plants a 1.3x
/// slowdown.
pub fn direct_pass(
    cells: &[CellSpec],
    groups: &[usize],
    setup: &Setup,
    mut ledger: Option<&mut Ledger>,
    slow: bool,
) -> Result<(Pass, Option<Pass>), String> {
    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(cells.len());
    let mut traced = Vec::new();
    let mut traced_time = Duration::ZERO;
    let err = |cell: &CellSpec, e: redsoc_core::pipeline::SimError| format!("{}: {e}", cell.key());
    for &g in groups {
        let mut base: Option<Outcome> = None;
        let group = cells.iter().enumerate().skip(g * 4).take(4);
        for (i, cell) in group {
            let trace = &setup.traces[cell.trace];
            let config = cell.core.clone().with_sched(cell.sched());
            let start = Instant::now();
            let outcome = if cell.mode == Mode::Ts {
                let b = base.ok_or("TS cell ran before its baseline")?;
                let ts =
                    run_ts(trace, &cell.core, b.cycles, TS_MAX_ERROR).map_err(|e| err(cell, e))?;
                Outcome {
                    cycles: ts.cycles,
                    committed: b.committed,
                    stalls: None,
                }
            } else {
                let report = Simulator::new(config.clone())
                    .and_then(|sim| sim.run(trace.iter().copied()))
                    .map_err(|e| err(cell, e))?;
                Outcome::of_report(&report)
            };
            let mut host = start.elapsed();
            if slow {
                spin(host.mul_f64(0.3));
                host = start.elapsed();
            }
            if cell.mode == Mode::Baseline {
                base = Some(outcome);
            }
            let run = CellRun {
                cell: i,
                outcome: Some(outcome),
                host,
                attempts: 1,
                select_requests: None,
            };
            if let Some(ledger) = ledger.as_deref_mut() {
                if cell.mode != Mode::Ts {
                    let t = Instant::now();
                    traced.push(traced_cell(i, cell, config, trace, ledger)?);
                    traced_time += t.elapsed();
                }
            }
            runs.push(run);
        }
    }
    let plain = Pass {
        setup: None,
        wall: t0.elapsed() - traced_time,
        cpu: crate::host::cpu_seconds() - cpu0,
        runs,
        resume_mismatch: Vec::new(),
    };
    let traced = ledger.is_some().then(|| Pass {
        setup: None,
        wall: traced.iter().map(|r| r.host).sum(),
        cpu: 0.0,
        runs: traced,
        resume_mismatch: Vec::new(),
    });
    Ok((plain, traced))
}

/// One decorated run of a scheduler cell: `Simulator::with_scheduler`
/// and `run` timed apart, hook counts and the report into the ledger.
fn traced_cell(
    i: usize,
    cell: &CellSpec,
    config: CoreConfig,
    trace: &[DynOp],
    ledger: &mut Ledger,
) -> Result<CellRun, String> {
    let counters = Arc::new(HookCounters::default());
    let sched = Box::new(Counted::new(
        build_scheduler(&config.sched),
        Arc::clone(&counters),
    ));
    let start = Instant::now();
    let sim =
        Simulator::with_scheduler(config, sched).map_err(|e| format!("{}: {e}", cell.key()))?;
    let built = start.elapsed();
    let report = sim
        .run(trace.iter().copied())
        .map_err(|e| format!("{}: {e}", cell.key()))?;
    let host = start.elapsed();
    let hooks = counters.totals();
    ledger.record_sim(cell.mode, built, host - built, &report, &hooks);
    Ok(CellRun {
        cell: i,
        outcome: Some(Outcome::of_report(&report)),
        host,
        attempts: 1,
        select_requests: Some(hooks.select_requests),
    })
}

/// Host-side timings of one traced sweep pass, taken after the pass so
/// they do not perturb it.
#[derive(Debug, Clone, Default)]
pub struct SweepTimings {
    pub worker_spawns: u64,
    pub journal_append: Vec<Duration>,
    pub journal_resume: Duration,
    pub json_encode: Duration,
}

/// Environment variable naming a directory in which each worker leaves
/// one file, so the traced run can count spawns from outside the pool.
pub const SPAWN_DIR_ENV: &str = "PERFBENCH_SPAWN_DIR";

/// One `sweep-isolated` pass: a fresh journal, the process-isolated
/// grid, the journal's `fsync`, the sweep document, and a resume pass
/// that must restore every cell from the journal.
pub fn sweep_pass(
    ctx: &SweepCtx,
    cells: &[CellSpec],
    pass_no: usize,
    timings: Option<&mut SweepTimings>,
) -> Result<Pass, String> {
    let io = |e: std::io::Error| format!("journal I/O: {e}");
    let path = ctx.dir.join(format!("pass{pass_no}.jnl"));
    let spawn_dir = ctx.dir.join(format!("spawns{pass_no}"));
    if timings.is_some() {
        std::fs::create_dir_all(&spawn_dir).map_err(io)?;
        std::env::set_var(SPAWN_DIR_ENV, &spawn_dir);
    }
    let s0 = Instant::now();
    let journal = Journal::create(&path).map_err(io)?;
    let isolation = Isolation::Process(WorkerPoolConfig::new(ctx.exe.clone()));
    let setup = s0.elapsed();

    let all_cores = Workload::SweepIsolated.cores();
    let grid_of = |journal: &Journal| {
        run_grid_isolated(
            &ctx.cache,
            &ctx.benches,
            &all_cores,
            &Mode::all(),
            1,
            &ctx.sup,
            Some(journal),
            &isolation,
        )
    };

    let cpu0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let grid = grid_of(&journal);
    journal.sync_to_disk().map_err(io)?;
    let doc = sweep_json(&grid, GRID_LEN).pretty();
    std::hint::black_box(&doc);
    drop(journal);
    let resumed = Journal::resume(&path).map_err(io)?;
    let regrid = grid_of(&resumed);
    let wall = t0.elapsed();
    let cpu = crate::host::cpu_seconds() - cpu0;

    let mut runs = Vec::with_capacity(cells.len());
    let mut resume_mismatch = Vec::new();
    for (i, spec) in cells.iter().enumerate() {
        let cell = grid.cell(spec.bench, spec.core_name, spec.mode);
        let summary = cell.and_then(|c| c.is_ok().then_some(c.summary.as_ref()).flatten());
        let restored = regrid
            .cell(spec.bench, spec.core_name, spec.mode)
            .filter(|c| c.restored)
            .and_then(|c| c.summary.as_ref());
        if summary.is_none() || restored != summary {
            resume_mismatch.push(i);
        }
        runs.push(CellRun {
            cell: i,
            outcome: summary.map(Outcome::of_summary),
            host: cell.map_or(Duration::ZERO, |c| c.wall),
            attempts: cell.map_or(0, |c| c.attempts),
            select_requests: None,
        });
    }

    if let Some(t) = timings {
        std::env::remove_var(SPAWN_DIR_ENV);
        t.worker_spawns = std::fs::read_dir(&spawn_dir).map_err(io)?.count() as u64;
        std::fs::remove_dir_all(&spawn_dir).map_err(io)?;
        time_sweep_layers(&grid, &path, &ctx.dir, t)?;
    }
    std::fs::remove_file(&path).map_err(io)?;
    Ok(Pass {
        setup: Some(setup),
        wall,
        cpu,
        runs,
        resume_mismatch,
    })
}

/// Time the journal and JSON layers on one finished sweep: append its
/// records to a fresh journal one at a time, resume the sweep's own
/// journal, and encode the sweep document.
fn time_sweep_layers(
    grid: &Grid,
    journal_path: &std::path::Path,
    dir: &std::path::Path,
    t: &mut SweepTimings,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("journal I/O: {e}");
    let replay_path = dir.join("replay.jnl");
    let replay = Journal::create(&replay_path).map_err(io)?;
    t.journal_append.clear();
    for cell in grid.cells() {
        let Some(summary) = cell.summary.clone() else {
            continue;
        };
        let rec = JournalRecord {
            key: cell.job.key(),
            digest: cell.job.digest(GRID_LEN),
            attempts: cell.attempts,
            backoff_ms: 0,
            wall_seconds: cell.wall.as_secs_f64(),
            summary,
        };
        let t0 = Instant::now();
        replay.append(&rec).map_err(io)?;
        t.journal_append.push(t0.elapsed());
    }
    drop(replay);
    std::fs::remove_file(&replay_path).map_err(io)?;

    let t0 = Instant::now();
    let resumed = Journal::resume(journal_path).map_err(io)?;
    t.journal_resume = t0.elapsed();
    std::hint::black_box(resumed.restored().len());

    let t0 = Instant::now();
    let doc = sweep_json(grid, GRID_LEN).pretty();
    t.json_encode = t0.elapsed();
    std::hint::black_box(doc.len());
    Ok(())
}

/// Traces of the `sweep-isolated` benchmarks generated in-process, in
/// canonical benchmark order: for the invariant check (committed equals
/// trace length) and the traced run's in-process layer pass.
pub fn sweep_traces() -> (Vec<Arc<[DynOp]>>, Vec<Duration>) {
    let cache = TraceCache::new(GRID_LEN);
    Workload::SweepIsolated
        .benches()
        .into_iter()
        .map(|b| {
            let t0 = Instant::now();
            let trace = cache.get(b);
            (trace, t0.elapsed())
        })
        .unzip()
}

/// Number of (benchmark, core) groups of four cells.
pub fn group_count(cells: &[CellSpec]) -> usize {
    cells.len() / Mode::all().len()
}
