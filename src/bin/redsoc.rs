//! `redsoc` — command-line driver for the simulator.
//!
//! ```sh
//! redsoc list
//! redsoc run bitcnt --core big --sched redsoc --len 200000
//! redsoc run bitcnt --events bitcnt.jsonl
//! redsoc trace conv --format chrome --out conv_trace.json
//! redsoc compare crc --core medium
//! redsoc sweep bzip2 --knob threshold
//! redsoc bench --threads 8 --len 300000 --out BENCH_sweep.json
//! redsoc bench --journal sweep.jnl --job-timeout 50000000
//! redsoc bench --resume sweep.jnl --out BENCH_sweep.json
//! redsoc chaos --kills 5 --seed 1 --len 20000
//! redsoc sweepcmp a_sweep.json b_sweep.json
//! ```
//!
//! Exit codes are structured so scripts can tell failure modes apart:
//! `0` success, `1` I/O or comparison mismatch, `2` usage error, `3`
//! simulator error, `4` sweep completed but with failed cells.

// A crash in the driver loses an operator's sweep; every fallible path
// must flow into the structured `CliError` exit codes instead.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use redsoc::bench::journal::Journal;
use redsoc::bench::pool::WorkerPoolConfig;
use redsoc::bench::runner::{canonicalize_sweep, run_grid_isolated, sweep_json, Isolation, Mode};
use redsoc::bench::supervisor::{FaultPlan, SupervisorConfig};
use redsoc::core::sched::ts::run_ts;
use redsoc::prelude::*;

/// A classified CLI failure: the message goes to stderr, the kind picks
/// the process exit code.
enum CliError {
    /// Bad invocation: unknown command, flag, or flag value (exit 2).
    Usage(String),
    /// Filesystem / serialisation trouble, or a `sweepcmp` mismatch
    /// (exit 1).
    Io(String),
    /// The simulator itself reported an error (exit 3).
    Sim(String),
    /// The sweep ran to completion but some cells failed (exit 4).
    Partial(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Sim(m) | CliError::Partial(m) => m,
        }
    }

    fn code(&self) -> ExitCode {
        match self {
            CliError::Io(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Sim(_) => ExitCode::from(3),
            CliError::Partial(_) => ExitCode::from(4),
        }
    }
}

type CliResult = Result<(), CliError>;

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn parse_core(s: &str) -> Result<CoreConfig, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(CoreConfig::small()),
        "medium" => Ok(CoreConfig::medium()),
        "big" => Ok(CoreConfig::big()),
        other => Err(usage_err(format!(
            "unknown core {other:?} (small|medium|big)"
        ))),
    }
}

fn parse_sched(s: &str) -> Result<SchedulerConfig, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(SchedulerConfig::baseline()),
        "redsoc" => Ok(SchedulerConfig::redsoc()),
        "mos" => Ok(SchedulerConfig::mos()),
        other => Err(usage_err(format!(
            "unknown scheduler {other:?} (baseline|redsoc|mos)"
        ))),
    }
}

fn parse_mem_model(s: &str) -> Result<redsoc::mem::MemModelConfig, CliError> {
    redsoc::mem::MemModelConfig::parse(&s.to_ascii_lowercase())
        .ok_or_else(|| usage_err(format!("unknown memory model {s:?} (classic|contended)")))
}

/// Apply an optional `--mem-model` flag to a core config.
fn with_mem_flag(core: CoreConfig, flags: &Flags) -> Result<CoreConfig, CliError> {
    match flags.get("mem-model") {
        Some(s) => Ok(core.with_mem_model(parse_mem_model(s)?)),
        None => Ok(core),
    }
}

fn parse_bench(s: &str) -> Result<Benchmark, CliError> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
            usage_err(format!("unknown benchmark {s:?}; available: {names:?}"))
        })
}

/// Minimal flag parser: `--key value` pairs after the positional args.
/// Each command declares its accepted keys, so a typo fails with a usage
/// hint instead of being silently ignored.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(usage_err(format!("unexpected argument {a:?}")));
            };
            if !allowed.contains(&key) {
                return Err(usage_err(format!(
                    "unknown flag --{key}; accepted flags here: {}",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
            let Some(v) = it.next() else {
                return Err(usage_err(format!("flag --{key} needs a value")));
            };
            pairs.push((key.to_string(), v.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a numeric flag, defaulting when absent.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|e| usage_err(format!("bad --{key}: {e}"))),
            None => Ok(default),
        }
    }
}

fn print_stalls(rep: &SimReport) {
    println!("stall attribution ({} cycles):", rep.cycles);
    for cause in StallCause::all() {
        let n = rep.stalls.count(cause);
        if n > 0 {
            println!(
                "  {:<14} {:>12}  ({:>5.1}%)",
                cause.label(),
                n,
                n as f64 / rep.cycles as f64 * 100.0
            );
        }
    }
}

fn print_report(label: &str, rep: &SimReport) {
    println!("--- {label} ---");
    println!("cycles        {:>12}", rep.cycles);
    println!("committed     {:>12}", rep.committed);
    println!("IPC           {:>12.3}", rep.ipc());
    println!("recycled ops  {:>12}", rep.recycled_ops);
    println!("STL forwards  {:>12}", rep.stl_forwards);
    let mc = &rep.mem_contention;
    if mc.mshr_rejects + mc.mshr_merges + mc.port_wait_cycles + mc.dram_wait_cycles > 0 {
        println!(
            "mem contention{:>12} MSHR rejects, {} merges, {} port-wait, {} DRAM-wait cycles",
            mc.mshr_rejects, mc.mshr_merges, mc.port_wait_cycles, mc.dram_wait_cycles
        );
    }
    println!(
        "EGPW issues   {:>12}  (wasted {}, GP mispeculations {})",
        rep.egpw_issues, rep.egpw_wasted, rep.gp_mispeculations
    );
    println!("2-cycle holds {:>12}", rep.two_cycle_holds);
    println!(
        "E[chain len]  {:>12.2}  ({} sequences)",
        rep.chains.weighted_mean(),
        rep.chains.sequences()
    );
    println!("FU stalls     {:>11.1}%", rep.fu_stall_rate() * 100.0);
    println!(
        "br mispredict {:>11.2}%",
        rep.branch.mispredict_rate() * 100.0
    );
    println!(
        "tag mispredict{:>11.2}%  ({} predictions)",
        rep.tag_pred.mispredict_rate() * 100.0,
        rep.tag_pred.predictions
    );
    println!(
        "width mispred {:>11.2}% aggressive / {:.2}% conservative",
        rep.width_pred.aggressive_rate() * 100.0,
        rep.width_pred.conservative_rate() * 100.0
    );
}

fn cmd_list() -> CliResult {
    println!("{:<12} {:<8}", "benchmark", "class");
    for b in Benchmark::all() {
        println!("{:<12} {:<8}", b.name(), b.class().label());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc run <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(&args[1..], &["core", "sched", "len", "events", "mem-model"])?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let sched = parse_sched(flags.get("sched").unwrap_or("redsoc"))?;
    let len: u64 = flags.num("len", 100_000)?;
    let trace = bench.trace(len);
    let cfg = core.clone().with_sched(sched.clone());
    let rep = match flags.get("events") {
        Some(path) => {
            // Stream the full event log as JSONL while simulating.
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Io(format!("cannot create {path}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            let lines = sink.lines();
            sink.finish();
            println!("wrote {lines} events to {path}");
            rep
        }
        None => {
            // A bounded ring costs almost nothing and gives the deadlock
            // watchdog a pipeline dump to attach to its error.
            let mut ring = RingSink::new(RingSink::DEFAULT_CAP);
            simulate_events(trace.into_iter(), cfg, &mut ring)
                .map_err(|e| CliError::Sim(e.to_string()))?
        }
    };
    print_report(
        &format!("{} on {} ({:?})", bench.name(), core.name, sched.mode),
        &rep,
    );
    print_stalls(&rep);
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc trace <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(
        &args[1..],
        &["core", "sched", "len", "format", "out", "mem-model"],
    )?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let sched = parse_sched(flags.get("sched").unwrap_or("redsoc"))?;
    let len: u64 = flags.num("len", 20_000)?;
    let format = flags.get("format").unwrap_or("chrome");
    let trace = bench.trace(len);
    let cfg = core.clone().with_sched(sched.clone());
    match format {
        "chrome" => {
            let out = flags.get("out").unwrap_or("trace.json");
            let mut sink = ChromeTraceSink::new(sched.quant().ticks_per_cycle());
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            std::fs::write(out, sink.finish())
                .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
            println!(
                "{} on {} ({:?}): {} cycles, {} committed",
                bench.name(),
                core.name,
                sched.mode,
                rep.cycles,
                rep.committed
            );
            println!(
                "wrote {} trace rows to {out} (load in chrome://tracing or ui.perfetto.dev)",
                sink.rows()
            );
        }
        "jsonl" => {
            let out = flags.get("out").unwrap_or("trace.jsonl");
            let file = std::fs::File::create(out)
                .map_err(|e| CliError::Io(format!("cannot create {out}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let rep = simulate_events(trace.into_iter(), cfg, &mut sink)
                .map_err(|e| CliError::Sim(e.to_string()))?;
            let lines = sink.lines();
            sink.finish();
            println!(
                "{} on {} ({:?}): {} cycles, {} committed",
                bench.name(),
                core.name,
                sched.mode,
                rep.cycles,
                rep.committed
            );
            println!("wrote {lines} events to {out}");
        }
        other => {
            return Err(usage_err(format!(
                "unknown format {other:?} (accepted: --format chrome|jsonl)"
            )))
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let bench = parse_bench(
        args.first()
            .ok_or_else(|| usage_err("usage: redsoc compare <bench> [flags]"))?,
    )?;
    let flags = Flags::parse(&args[1..], &["core", "len", "mem-model"])?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let len: u64 = flags.num("len", 100_000)?;
    let trace = bench.trace(len);
    let sim_err = |e: SimError| CliError::Sim(e.to_string());
    let base = simulate(trace.iter().copied(), core.clone()).map_err(sim_err)?;
    let red = simulate(
        trace.iter().copied(),
        core.clone().with_sched(SchedulerConfig::redsoc()),
    )
    .map_err(sim_err)?;
    let mos = simulate(
        trace.iter().copied(),
        core.clone().with_sched(SchedulerConfig::mos()),
    )
    .map_err(sim_err)?;
    let ts = run_ts(&trace, &core, base.cycles, 0.01).map_err(sim_err)?;
    println!(
        "{} on {} ({} instructions)",
        bench.name(),
        core.name,
        trace.len()
    );
    println!("{:<10} {:>12} {:>9}", "scheduler", "cycles", "speedup");
    println!("{:<10} {:>12} {:>8.1}%", "baseline", base.cycles, 0.0);
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "redsoc",
        red.cycles,
        (red.speedup_over(&base) - 1.0) * 100.0
    );
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "ts",
        ts.cycles,
        (ts.speedup - 1.0) * 100.0
    );
    println!(
        "{:<10} {:>12} {:>8.1}%",
        "mos",
        mos.cycles,
        (mos.speedup_over(&base) - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CliResult {
    let bench =
        parse_bench(args.first().ok_or_else(|| {
            usage_err("usage: redsoc sweep <bench> --knob <threshold|precision>")
        })?)?;
    let flags = Flags::parse(&args[1..], &["core", "knob", "len", "mem-model"])?;
    let core = with_mem_flag(parse_core(flags.get("core").unwrap_or("big"))?, &flags)?;
    let knob = flags.get("knob").unwrap_or("threshold");
    let len: u64 = flags.num("len", 60_000)?;
    let trace = bench.trace(len);
    let sim_err = |e: SimError| CliError::Sim(e.to_string());
    let base = simulate(trace.iter().copied(), core.clone()).map_err(sim_err)?;
    match knob {
        "threshold" => {
            println!("{:<10} {:>9}", "threshold", "speedup");
            for t in 0..=7u64 {
                let mut s = SchedulerConfig::redsoc();
                s.threshold_ticks = t;
                let rep =
                    simulate(trace.iter().copied(), core.clone().with_sched(s)).map_err(sim_err)?;
                println!("{t:<10} {:>8.1}%", (rep.speedup_over(&base) - 1.0) * 100.0);
            }
        }
        "precision" => {
            println!("{:<10} {:>9}", "ci_bits", "speedup");
            for bits in 1..=8u8 {
                let mut s = SchedulerConfig::redsoc();
                s.ci_bits = bits;
                s.threshold_ticks = (1 << bits) - 1;
                let rep =
                    simulate(trace.iter().copied(), core.clone().with_sched(s)).map_err(sim_err)?;
                println!(
                    "{bits:<10} {:>8.1}%",
                    (rep.speedup_over(&base) - 1.0) * 100.0
                );
            }
        }
        other => {
            return Err(usage_err(format!(
                "unknown knob {other:?} (accepted: --knob threshold|precision)"
            )))
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> CliResult {
    let flags = Flags::parse(
        args,
        &[
            "threads",
            "len",
            "out",
            "journal",
            "resume",
            "job-timeout",
            "max-retries",
            "mem-model",
            "isolation",
            "mem-limit-mb",
            "wall-timeout-ms",
        ],
    )?;
    let threads = flags.num("threads", redsoc::bench::threads())?.max(1);
    let len: u64 = flags.num("len", redsoc::bench::trace_len())?;
    let out = flags.get("out").unwrap_or("BENCH_sweep.json");

    let mut sup = SupervisorConfig {
        faults: FaultPlan::from_env().map_err(|e| usage_err(format!("bad REDSOC_FAULT: {e}")))?,
        ..SupervisorConfig::default()
    };
    if let Some(t) = flags.get("job-timeout") {
        let cycles: u64 = t
            .parse()
            .map_err(|e| usage_err(format!("bad --job-timeout: {e}")))?;
        if cycles == 0 {
            return Err(usage_err("--job-timeout must be a positive cycle count"));
        }
        sup.job_timeout_cycles = Some(cycles);
    }
    sup.max_retries = flags.num("max-retries", sup.max_retries)?;

    let isolation = match flags.get("isolation").unwrap_or("thread") {
        "thread" => {
            for f in ["mem-limit-mb", "wall-timeout-ms"] {
                if flags.get(f).is_some() {
                    return Err(usage_err(format!("--{f} requires --isolation process")));
                }
            }
            Isolation::Thread
        }
        "process" => {
            let exe = std::env::current_exe()
                .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;
            let mut cfg = WorkerPoolConfig::new(exe);
            if flags.get("mem-limit-mb").is_some() {
                let mb: u64 = flags.num("mem-limit-mb", 0u64)?;
                if mb == 0 {
                    return Err(usage_err("--mem-limit-mb must be a positive MiB count"));
                }
                cfg.mem_limit_mb = Some(mb);
            }
            let ms: u64 = flags.num("wall-timeout-ms", cfg.wall_timeout.as_millis() as u64)?;
            if ms == 0 {
                return Err(usage_err("--wall-timeout-ms must be a positive duration"));
            }
            cfg.wall_timeout = std::time::Duration::from_millis(ms);
            Isolation::Process(cfg)
        }
        other => {
            return Err(usage_err(format!(
                "unknown isolation {other:?} (accepted: --isolation thread|process)"
            )))
        }
    };

    let mut journal = match (flags.get("resume"), flags.get("journal")) {
        (Some(_), Some(_)) => {
            return Err(usage_err(
                "--resume and --journal are exclusive: --resume reopens an \
                 existing journal, --journal starts a fresh one",
            ))
        }
        (Some(path), None) => Some(
            Journal::resume(path)
                .map_err(|e| CliError::Io(format!("cannot resume {path}: {e}")))?,
        ),
        (None, Some(path)) => Some(Journal::create(path).map_err(|e| {
            // A journal that cannot even be created is an invocation
            // problem, not a mid-sweep I/O failure: fail fast (exit 2)
            // with the likely fix, before any simulation time is spent.
            usage_err(format!(
                "cannot create journal {path}: {e}\n\
                 hint: the journal's parent directory must already exist and be \
                 writable (mkdir -p it first, or point --journal at a writable path)"
            ))
        })?),
        (None, None) => None,
    };
    // Crash-injection hook for the resume tests: die (exit 86) after the
    // nth checkpoint lands, as an uncontrolled kill would.
    if let Some(j) = journal.as_mut() {
        if let Some(n) = std::env::var("REDSOC_DIE_AFTER_JOBS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            j.set_die_after(Some(n));
        }
        let restored = j.restored().len();
        if restored > 0 {
            println!(
                "resuming from {}: {restored} cell(s) checkpointed",
                j.path().display()
            );
        }
    }

    // The grid's memory-model axis: one flag retargets every core in the
    // sweep, so `--mem-model contended` produces a sweep document directly
    // comparable (via sweepcmp) against the classic default.
    let mut cores = redsoc::bench::cores();
    if let Some(s) = flags.get("mem-model") {
        let model = parse_mem_model(s)?;
        for (_, core) in &mut cores {
            *core = core.clone().with_mem_model(model);
        }
    }

    let cache = redsoc::bench::TraceCache::new(len);
    let grid = run_grid_isolated(
        &cache,
        &Benchmark::all(),
        &cores,
        &Mode::all(),
        threads,
        &sup,
        journal.as_ref(),
        &isolation,
    );
    // Tail-window safety: fsync the journal before the sweep document is
    // written, so a kill between "last job done" and "sweep JSON on disk"
    // can never lose checkpoints that the (now missing) document would
    // have superseded — resume re-reads them and re-runs nothing.
    if let Some(j) = journal.as_ref() {
        j.sync_to_disk()
            .map_err(|e| CliError::Io(format!("cannot sync journal: {e}")))?;
    }
    let doc = sweep_json(&grid, len);
    std::fs::write(out, doc.pretty())
        .map_err(|e| CliError::Io(format!("cannot write {out}: {e}")))?;
    println!(
        "{} jobs ({} benchmarks x 3 cores x {} modes) on {threads} thread(s)",
        grid.cells().len(),
        Benchmark::all().len(),
        Mode::all().len(),
    );
    println!(
        "wall {:.2}s, cpu {:.2}s ({:.2}x parallel efficiency)",
        grid.wall.as_secs_f64(),
        grid.cpu_time().as_secs_f64(),
        grid.cpu_time().as_secs_f64() / grid.wall.as_secs_f64().max(1e-9)
    );
    let counts = grid.status_counts();
    println!(
        "status: {}",
        counts
            .iter()
            .map(|(s, n)| format!("{} {n}", s.label()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("wrote {out}");
    if grid.fully_ok() {
        Ok(())
    } else {
        let failed: Vec<String> = grid
            .cells()
            .iter()
            .filter(|c| !c.is_ok())
            .map(|c| format!("{} ({})", c.job.key(), c.status.label()))
            .collect();
        Err(CliError::Partial(format!(
            "sweep completed with {} failed cell(s): {}",
            failed.len(),
            failed.join(", ")
        )))
    }
}

/// Seeded xorshift64: the chaos harness's only randomness source, so a
/// given `--seed` replays the same kill schedule.
fn xorshift64(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// Chaos kill-loop: prove the journal/resume path end to end by
/// repeatedly SIGKILLing a real child sweep and resuming it, then
/// comparing the final sweep document against an uninterrupted in-process
/// reference. Kill points are driven by `--seed` through the journal's
/// observable growth: a new line means a cell completed, and the kill
/// lands while the jobs after it are still running, so their torn work is
/// discarded and re-run from cycle 0 on resume.
fn cmd_chaos(args: &[String]) -> CliResult {
    use redsoc::bench::json::Json;
    let flags = Flags::parse(
        args,
        &["threads", "len", "kills", "seed", "dir", "worker-kills"],
    )?;
    let threads: usize = flags.num("threads", redsoc::bench::threads())?.max(1);
    let len: u64 = flags.num("len", 20_000)?;
    let kills: u64 = flags.num("kills", 5u64)?;
    if kills == 0 {
        return Err(usage_err("--kills must be a positive kill count"));
    }
    let seed: u64 = flags.num("seed", 0u64)?;
    let keep_dir = flags.get("dir").is_some();
    let dir = match flags.get("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("redsoc-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;

    // The uninterrupted reference, in-process: what the chaotic run must
    // reproduce byte-identically after canonicalisation.
    println!("chaos: reference sweep (len {len}, {threads} thread(s), no interruptions)");
    let cache = redsoc::bench::TraceCache::new(len);
    let grid = run_grid_isolated(
        &cache,
        &Benchmark::all(),
        &redsoc::bench::cores(),
        &Mode::all(),
        threads,
        &SupervisorConfig::default(),
        None,
        &Isolation::Thread,
    );
    if !grid.fully_ok() {
        return Err(CliError::Sim(
            "reference sweep has failed cells; a chaos comparison would be meaningless".into(),
        ));
    }
    let reference = canonicalize_sweep(&sweep_json(&grid, len));
    let reference_path = dir.join("reference.json");
    std::fs::write(&reference_path, sweep_json(&grid, len).pretty())
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", reference_path.display())))?;

    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cannot locate own binary: {e}")))?;

    // Worker-kill storm: instead of killing the whole child sweep, run it
    // under process isolation and SIGKILL/SIGABRT its *workers* while it
    // runs. The sweep itself must survive every storm hit (exit 0) —
    // killed attempts retry onto fresh workers — and still reproduce the
    // thread-isolation reference exactly. This proves both containment
    // and thread/process result equivalence in one check.
    let worker_kills: u64 = flags.num("worker-kills", 0u64)?;
    if worker_kills > 0 {
        let journal = dir.join("chaos-workers.jnl");
        let out = dir.join("chaos-workers.json");
        std::fs::remove_file(&journal).ok();
        let mut child = {
            let mut c = std::process::Command::new(&exe);
            c.arg("bench")
                .args(["--threads", &threads.to_string()])
                .args(["--len", &len.to_string()])
                .args(["--isolation", "process"])
                // Deep retry budget: every storm hit must be absorbable.
                .args(["--max-retries", "8"])
                .arg("--journal")
                .arg(&journal)
                .arg("--out")
                .arg(&out)
                .env_remove("REDSOC_FAULT")
                .env_remove("REDSOC_DIE_AFTER_JOBS")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null());
            c.spawn()
                .map_err(|e| CliError::Io(format!("cannot spawn child sweep: {e}")))?
        };
        let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
        if rng == 0 {
            rng = 0x2545_F491_4F6C_DD1D;
        }
        let mut performed = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        while performed < worker_kills {
            if let Some(status) = child
                .try_wait()
                .map_err(|e| CliError::Io(format!("cannot poll child sweep: {e}")))?
            {
                return Err(CliError::Io(format!(
                    "child sweep completed ({status}) after only {performed} of \
                     {worker_kills} worker kill(s); use a longer --len or fewer kills"
                )));
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(CliError::Io(
                    "could not land the requested worker kills within 300s".into(),
                ));
            }
            let workers = redsoc::bench::pool::worker_children_of(child.id());
            if workers.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(5));
                continue;
            }
            let victim = workers[(xorshift64(&mut rng) as usize) % workers.len()];
            // Alternate SIGKILL (no cleanup at all) and SIGABRT (the
            // failure path a real crash takes) by seeded coin flip.
            let signal = if xorshift64(&mut rng) & 1 == 0 { 9 } else { 6 };
            if redsoc::bench::pool::kill_pid(victim, signal) {
                performed += 1;
                println!(
                    "chaos: worker kill {performed}/{worker_kills} \
                     (pid {victim}, signal {signal})"
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(
                10 + (xorshift64(&mut rng) % 40),
            ));
        }
        let status = child
            .wait()
            .map_err(|e| CliError::Io(format!("cannot wait for child sweep: {e}")))?;
        if !status.success() {
            return Err(CliError::Io(format!(
                "process-isolated sweep did not absorb the worker kills ({status}); \
                 artifacts kept in {}",
                dir.display()
            )));
        }
        let text = std::fs::read_to_string(&out)
            .map_err(|e| CliError::Io(format!("cannot read {}: {e}", out.display())))?;
        let doc = Json::parse(&text)
            .map_err(|e| CliError::Io(format!("storm sweep output is not valid JSON: {e}")))?;
        if canonicalize_sweep(&doc) == reference {
            println!(
                "chaos: survived {worker_kills} worker kill(s); process-isolated sweep is \
                 identical to the uninterrupted thread-isolation reference after \
                 canonicalisation"
            );
            if !keep_dir {
                std::fs::remove_dir_all(&dir).ok();
            }
            return Ok(());
        }
        return Err(CliError::Io(format!(
            "storm sweep differs from the uninterrupted reference; artifacts kept in {} \
             (compare with: redsoc sweepcmp {} {})",
            dir.display(),
            reference_path.display(),
            out.display()
        )));
    }

    let journal = dir.join("chaos.jnl");
    let out = dir.join("chaos.json");
    std::fs::remove_file(&journal).ok();
    let spawn = |resume: bool| -> Result<std::process::Child, CliError> {
        let mut c = std::process::Command::new(&exe);
        c.arg("bench")
            .args(["--threads", &threads.to_string()])
            .args(["--len", &len.to_string()])
            .arg("--out")
            .arg(&out)
            .arg(if resume { "--resume" } else { "--journal" })
            .arg(&journal)
            // The children must run clean: the chaos harness *is* the
            // fault injector here.
            .env_remove("REDSOC_FAULT")
            .env_remove("REDSOC_DIE_AFTER_JOBS")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        c.spawn()
            .map_err(|e| CliError::Io(format!("cannot spawn child sweep: {e}")))
    };
    let journal_lines = || std::fs::read_to_string(&journal).map_or(0, |t| t.lines().count());

    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    if rng == 0 {
        rng = 0x2545_F491_4F6C_DD1D;
    }
    let mut performed = 0u64;
    while performed < kills {
        let mut child = spawn(performed > 0)?;
        // Kill after the journal gains 1–2 more records: right on the
        // heels of a cell completing, i.e. mid-sweep with the following
        // jobs in flight.
        let target = journal_lines() + 1 + (xorshift64(&mut rng) as usize & 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        loop {
            if let Some(status) = child
                .try_wait()
                .map_err(|e| CliError::Io(format!("cannot poll child sweep: {e}")))?
            {
                return Err(CliError::Io(format!(
                    "child sweep completed ({status}) after only {performed} of {kills} \
                     kill(s); use a longer --len or fewer --kills"
                )));
            }
            if journal_lines() >= target {
                child.kill().ok();
                child.wait().ok();
                performed += 1;
                println!(
                    "chaos: kill {performed}/{kills} at {} journal line(s)",
                    journal_lines()
                );
                break;
            }
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(CliError::Io(
                    "child sweep made no journal progress within 120s".into(),
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    // Final, uninterrupted resume: must finish everything that survived
    // the kills.
    println!("chaos: final resume to completion");
    let status = spawn(true)?
        .wait()
        .map_err(|e| CliError::Io(format!("cannot wait for final resume: {e}")))?;
    if !status.success() {
        return Err(CliError::Io(format!(
            "final resume run failed ({status}); artifacts kept in {}",
            dir.display()
        )));
    }

    let text = std::fs::read_to_string(&out)
        .map_err(|e| CliError::Io(format!("cannot read {}: {e}", out.display())))?;
    let doc = Json::parse(&text)
        .map_err(|e| CliError::Io(format!("chaotic sweep output is not valid JSON: {e}")))?;
    if canonicalize_sweep(&doc) == reference {
        println!(
            "chaos: survived {kills} mid-sweep kill(s); resumed sweep is identical to the \
             uninterrupted reference after canonicalisation"
        );
        if !keep_dir {
            std::fs::remove_dir_all(&dir).ok();
        }
        Ok(())
    } else {
        Err(CliError::Io(format!(
            "resumed sweep differs from the uninterrupted reference; \
             artifacts kept in {} (compare with: redsoc sweepcmp {} {})",
            dir.display(),
            reference_path.display(),
            out.display()
        )))
    }
}

/// The child half of `bench --isolation process`: speak the frame
/// protocol on stdin/stdout until the parent shuts us down. Spawned by
/// the worker pool, not by operators — but runnable by hand for
/// debugging (feed it frames, watch replies).
fn cmd_worker(args: &[String]) -> CliResult {
    use redsoc::bench::worker::{run_worker, WorkerOptions};
    let flags = Flags::parse(args, &["mem-limit-mb"])?;
    let mem_limit_mb = match flags.get("mem-limit-mb") {
        Some(_) => {
            let mb: u64 = flags.num("mem-limit-mb", 0u64)?;
            if mb == 0 {
                return Err(usage_err("--mem-limit-mb must be a positive MiB count"));
            }
            Some(mb)
        }
        None => None,
    };
    run_worker(&WorkerOptions {
        mem_limit_mb,
        heartbeat_ms: 0,
    })
    .map_err(CliError::Io)
}

fn cmd_sweepcmp(args: &[String]) -> CliResult {
    use redsoc::bench::json::Json;
    let [a, b] = args else {
        return Err(usage_err("usage: redsoc sweepcmp <a.json> <b.json>"));
    };
    let load = |path: &String| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        // A non-JSON argument is the caller handing us the wrong file —
        // a usage error (exit 2), not an I/O failure.
        let doc = Json::parse(&text)
            .map_err(|e| usage_err(format!("{path}: not valid sweep JSON: {e}")))?;
        Ok(canonicalize_sweep(&doc))
    };
    let (da, db) = (load(a)?, load(b)?);
    if da == db {
        println!(
            "sweeps match after canonicalisation (wall-clock, thread-count, and \
             retry-provenance fields ignored)"
        );
        Ok(())
    } else {
        // Point at the first differing job row to make mismatches
        // debuggable without external tooling.
        let ja = da.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let jb = db.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let mut detail = format!("{} has {} jobs, {} has {}", a, ja.len(), b, jb.len());
        for (i, (ra, rb)) in ja.iter().zip(jb.iter()).enumerate() {
            if ra != rb {
                detail = format!("first differing job row is #{i}:\n  {a}: {ra:?}\n  {b}: {rb:?}");
                break;
            }
        }
        Err(CliError::Io(format!("sweeps differ: {detail}")))
    }
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    use redsoc::verify::oracle::SchedKind;
    use redsoc::verify::{run_fuzz, FuzzConfig};
    let flags = Flags::parse(
        args,
        &[
            "seed",
            "cases",
            "max-instrs",
            "schedulers",
            "repro-dir",
            "sabotage",
            "mem-model",
        ],
    )?;
    let mut cfg = FuzzConfig::new(flags.num("seed", 0u64)?, flags.num("cases", 500u64)?);
    if cfg.cases == 0 {
        return Err(usage_err("--cases must be positive"));
    }
    cfg.max_instrs = flags.num("max-instrs", 48usize)?;
    if cfg.max_instrs == 0 {
        return Err(usage_err("--max-instrs must be positive"));
    }
    if let Some(list) = flags.get("schedulers") {
        let mut scheds = Vec::new();
        for item in list.split(',') {
            let kind = SchedKind::parse(item.trim()).ok_or_else(|| {
                usage_err(format!(
                    "unknown scheduler {item:?} (accepted: baseline,redsoc,mos,ts)"
                ))
            })?;
            if !scheds.contains(&kind) {
                scheds.push(kind);
            }
        }
        if scheds.is_empty() {
            return Err(usage_err("--schedulers needs at least one policy"));
        }
        cfg.scheds = scheds;
    }
    if let Some(s) = flags.get("mem-model") {
        cfg.mem_models =
            redsoc::verify::MemModelAxis::parse(&s.to_ascii_lowercase()).ok_or_else(|| {
                usage_err(format!(
                    "unknown memory model {s:?} (classic|contended|both)"
                ))
            })?;
    }
    cfg.repro_dir = flags.get("repro-dir").map(std::path::PathBuf::from);
    // Undocumented self-test knob: plant the inverted-skew fault so the
    // harness's own detection path can be demonstrated end to end.
    match flags.get("sabotage") {
        None | Some("none") => {}
        Some("invert-skew") => cfg.sabotage_redsoc = true,
        Some(other) => {
            return Err(usage_err(format!(
                "unknown sabotage {other:?} (accepted: none|invert-skew)"
            )))
        }
    }
    let sched_names: Vec<&str> = cfg.scheds.iter().map(|k| k.label()).collect();
    println!(
        "fuzz: seed {} cases {} max-instrs {} schedulers {} mem-model {}",
        cfg.seed,
        cfg.cases,
        cfg.max_instrs,
        sched_names.join(","),
        cfg.mem_models.label()
    );
    let summary = run_fuzz(&cfg, |line| {
        // One line per diverging case only: a 500-case clean run stays
        // readable and byte-stable.
        if line.contains("DIVERGED") || line.contains("shrunk") {
            println!("{line}");
        }
    })
    .map_err(|e| CliError::Io(format!("repro emission failed: {e}")))?;
    println!(
        "checked {} case(s), {} dynamic instructions: {} divergence(s)",
        summary.cases_run,
        summary.dyn_ops,
        summary.failures.len()
    );
    for f in &summary.failures {
        println!(
            "  case {} (core {}, mem {}, {} instrs shrunk): {}",
            f.case,
            f.core,
            f.mem_model,
            f.shrunk.op_count(),
            f.divergence
        );
        if let Some(p) = &f.repro_path {
            println!("    repro: {}", p.display());
        }
    }
    if summary.failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Sim(format!(
            "{} of {} case(s) diverged",
            summary.failures.len(),
            summary.cases_run
        )))
    }
}

fn usage() -> String {
    "usage: redsoc <command>\n\
     \n\
     commands:\n\
     \x20 list                     list available benchmarks\n\
     \x20 run <bench> [flags]      simulate one benchmark\n\
     \x20                          (--events FILE streams the pipeline event log as JSONL)\n\
     \x20 trace <bench> [flags]    dump the pipeline event log\n\
     \x20                          (--format chrome|jsonl  --out FILE;\n\
     \x20                          chrome output loads in chrome://tracing)\n\
     \x20 compare <bench> [flags]  baseline vs ReDSOC vs TS vs MOS\n\
     \x20 sweep <bench> [flags]    design-knob sweep (--knob threshold|precision)\n\
     \x20 bench [flags]            full parallel sweep -> machine-readable JSON\n\
     \x20                          (--threads N  --len N  --out FILE\n\
     \x20                          --journal FILE   checkpoint cells as they finish\n\
     \x20                          --resume FILE    reopen a journal, skip done cells\n\
     \x20                          --job-timeout N  per-job cycle budget\n\
     \x20                          --max-retries N  retries for transient failures\n\
     \x20                          --isolation thread|process  run each cell in-thread\n\
     \x20                          (default) or in supervised worker child processes;\n\
     \x20                          with process: --mem-limit-mb N  per-worker RLIMIT_AS,\n\
     \x20                          --wall-timeout-ms N  kill a worker whose reply\n\
     \x20                          takes longer (default 30000))\n\
     \x20 worker [flags]           internal: one pool worker child (spawned by\n\
     \x20                          bench --isolation process; speaks frames on stdio)\n\
     \x20 chaos [flags]            crash-safety proof: SIGKILL a child sweep mid-sweep\n\
     \x20                          --kills times (default 5), resume each time, and\n\
     \x20                          require the final sweep to match an uninterrupted\n\
     \x20                          reference (--seed N  --len N  --threads N\n\
     \x20                          --dir DIR keeps artifacts;\n\
     \x20                          --worker-kills N  storm mode: SIGKILL/SIGABRT the\n\
     \x20                          workers of a process-isolated sweep instead — the\n\
     \x20                          sweep must absorb every kill and still match)\n\
     \x20 sweepcmp <a> <b>         compare two sweep JSONs, ignoring wall-clock and thread count\n\
     \x20 fuzz [flags]             differential fuzzing: random programs through the\n\
     \x20                          interpreter and every scheduler in lockstep\n\
     \x20                          (--seed N  --cases N  --max-instrs N\n\
     \x20                          --schedulers baseline,redsoc,mos,ts\n\
     \x20                          --mem-model classic|contended|both (default both)\n\
     \x20                          --repro-dir DIR   write shrunk .asm repros)\n\
     \n\
     flags: --core small|medium|big  --sched baseline|redsoc|mos  --len N\n\
     \x20      --mem-model classic|contended  (memory hierarchy: fixed-latency\n\
     \x20      vs MSHR/port/DRAM-bandwidth-limited; run, trace, compare, sweep, bench)\n\
     exit codes: 0 ok, 1 io/mismatch, 2 usage, 3 simulator error, 4 partial sweep"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("sweepcmp") => cmd_sweepcmp(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        _ => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message());
            e.code()
        }
    }
}
