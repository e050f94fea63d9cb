//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <ml-window|spec-memory|sweep-isolated> --seed <n>
//!           --seconds <s> --trace <0|1> [--plant slow=<workload>|ref]
//!           [--write-ref <path>]
//! ```
//!
//! A run sets the workload up several times (`setup_s` is the median),
//! then repeats passes over the workload's cells for `--seconds`, at
//! least two, checking every cell against the committed reference, the
//! model's invariants and every other pass. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it alternates plain and
//! traced passes and reports the per-layer ledger. The last line of
//! standard output is the result as one JSON object.
//!
//! `--plant` injects a fault on purpose to show the gate can fail:
//! `slow=<workload>` spins 30% extra after every cell of that workload
//! (a 1.3x slowdown there and nowhere else); `ref` perturbs one reference
//! cell, so its runs count as failures.
//!
//! The binary doubles as the process-isolation worker: the sweep's pool
//! spawns `perfbench worker --heartbeat-ms <n>`.

mod check;
mod counted;
mod host;
mod ledger;
mod report;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use redsoc_bench::grid::Mode;
use redsoc_bench::worker::{run_worker, WorkerOptions};

use check::{Checker, Reference};
use ledger::Ledger;
use redsoc_bench::geomean;
use report::{median, tail};
use workload::{
    cells, direct_pass, group_count, permutation, sweep_pass, sweep_traces, CellSpec, Outcome,
    Pass, Setup, SweepTimings, Workload, DEFAULT_SEED, SPAWN_DIR_ENV,
};

/// Every run measures at least this many plain passes, so each cell is
/// checked against a second run of itself.
const MIN_PASSES: usize = 2;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Plant {
    Slow(String),
    Reference,
}

#[derive(Debug)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: Option<Plant>,
    write_ref: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::MlWindow,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        plant: None,
        write_ref: None,
    };
    let mut have_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?;
                have_workload = true;
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--plant" => {
                let v = value()?;
                o.plant = Some(match v.split_once('=') {
                    Some(("slow", w)) if Workload::parse(w).is_some() => Plant::Slow(w.into()),
                    None if v == "ref" => Plant::Reference,
                    _ => return Err(format!("--plant takes slow=<workload> or ref, not {v}")),
                });
            }
            "--write-ref" => o.write_ref = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !have_workload {
        return Err("--workload is required".into());
    }
    Ok(o)
}

fn worker_main(args: &[String]) -> ExitCode {
    let mut opts = WorkerOptions {
        mem_limit_mb: None,
        heartbeat_ms: 250,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().and_then(|v| v.parse().ok());
        match (flag.as_str(), value) {
            ("--heartbeat-ms", Some(v)) => opts.heartbeat_ms = v,
            ("--mem-limit-mb", Some(v)) => opts.mem_limit_mb = Some(v),
            _ => {
                eprintln!("perfbench worker: bad argument {flag}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(dir) = std::env::var_os(SPAWN_DIR_ENV) {
        let mark = PathBuf::from(dir).join(std::process::id().to_string());
        if let Err(e) = std::fs::write(&mark, b"") {
            eprintln!(
                "perfbench worker: cannot mark spawn in {}: {e}",
                mark.display()
            );
        }
    }
    match run_worker(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::from(1)
        }
    }
}

/// Everything a run measured.
struct Run {
    cells: Vec<CellSpec>,
    checker: Checker,
    /// Set-up times in seconds.
    setup_s: Vec<f64>,
    plain: Vec<Pass>,
    traced: Vec<Pass>,
    /// The sweep's cells once more in-process, decorated (traced
    /// `sweep-isolated` runs only).
    inproc: Option<Pass>,
    ledger: Ledger,
    sweep_timings: Vec<SweepTimings>,
    trace_s: f64,
    trace_ops: u64,
    mem_request_ns: f64,
    classify_ns: f64,
}

type Metrics = Vec<(String, f64, &'static str)>;

fn run(o: &Opts) -> Result<Run, String> {
    let w = o.workload;
    let cells = cells(w);
    let scratch = PathBuf::from(".perfbench_tmp");
    let tmp = scratch.join(std::process::id().to_string());
    let slow = o.plant == Some(Plant::Slow(w.name().into()));

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..w.setup_reps() {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(Setup::build(w, o.seed, &tmp)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut setup = setup.ok_or("no set-up ran")?;

    // The sweep's workers generate their own traces; the same traces are
    // made here, untimed, for the invariant check and the traced
    // in-process pass.
    if w == Workload::SweepIsolated {
        (setup.traces, setup.trace_times) = sweep_traces();
    }
    let trace_lens = cells
        .iter()
        .map(|c| setup.traces[c.trace].len() as u64)
        .collect();
    let reference = Reference::load(w)?;
    let reference = reference
        .seed
        .is_none_or(|s| s == o.seed)
        .then_some(reference);
    let mut checker = Checker::new(&cells, reference.as_ref(), trace_lens);
    if o.plant == Some(Plant::Reference) {
        checker.perturb();
    }
    eprintln!(
        "perfbench: {} seed {}: {} cells, {} with a reference outcome",
        w.name(),
        o.seed,
        cells.len(),
        checker.referenced()
    );

    let groups = permutation(group_count(&cells), o.seed);
    let mut ledger = Ledger::default();
    let mut sweep_timings = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    let mut pass_no = 0;
    let mut check = |p: &Pass| {
        for r in &p.runs {
            checker.check(r, p.resume_mismatch.contains(&r.cell));
        }
    };
    for round in 1u32.. {
        match &setup.sweep {
            Some(ctx) => {
                for traced_pass in [false, true].into_iter().take(1 + usize::from(o.trace)) {
                    pass_no += 1;
                    let mut t = SweepTimings::default();
                    let p = sweep_pass(ctx, &cells, pass_no, traced_pass.then_some(&mut t))?;
                    check(&p);
                    if traced_pass {
                        sweep_timings.push(t);
                        traced.push(p);
                    } else {
                        plain.push(p);
                    }
                }
            }
            None => {
                let (p, t) = direct_pass(
                    &cells,
                    &groups,
                    &setup,
                    o.trace.then_some(&mut ledger),
                    slow,
                )?;
                check(&p);
                plain.push(p);
                if let Some(t) = t {
                    check(&t);
                    traced.push(t);
                }
            }
        }
        eprintln!(
            "perfbench: round {round} {:.3} s",
            start.elapsed().as_secs_f64()
        );
        // A traced run checks each cell's traced run against its plain
        // one; an untraced run repeats every cell at least once.
        let enough = o.trace || plain.len() >= MIN_PASSES;
        if enough && Instant::now() + start.elapsed() / round / 2 >= deadline {
            break;
        }
    }

    let (mut trace_s, mut trace_ops, mut mem_request_ns, mut classify_ns) = (0.0, 0, 0.0, 0.0);
    let mut inproc = None;
    if o.trace {
        ledger.passes = traced.len();
        if w == Workload::SweepIsolated {
            // The sweep's cells run in workers, out of the decorator's
            // reach: run them once more in-process, decorated, for the
            // core layers.
            let (p, t) = direct_pass(&cells, &groups, &setup, Some(&mut ledger), false)?;
            for r in p.runs.iter().chain(t.iter().flat_map(|t| &t.runs)) {
                checker.check(r, false);
            }
            ledger.passes = 1;
            inproc = t;
        }
        trace_s = setup.trace_times.iter().map(Duration::as_secs_f64).sum();
        trace_ops = setup.traces.iter().map(|t| t.len() as u64).sum();
        let cores: Vec<_> = cells
            .iter()
            .filter(|c| c.trace == 0 && c.mode == Mode::Baseline)
            .map(|c| c.core.clone())
            .collect();
        mem_request_ns = ledger::mem_request_ns(&setup.traces, &cores, Duration::from_millis(300));
        classify_ns = ledger::classify_ns_per_op(&setup.traces, Duration::from_millis(200));
    }
    if let Some(s) = plain.iter().map(|p| p.setup).collect::<Option<Vec<_>>>() {
        setup_s = s.iter().map(Duration::as_secs_f64).collect();
    }
    std::fs::remove_dir_all(&tmp).ok();
    // Left in place while another run uses it.
    std::fs::remove_dir(&scratch).ok();
    Ok(Run {
        cells,
        checker,
        setup_s,
        plain,
        traced,
        inproc,
        ledger,
        sweep_timings,
        trace_s,
        trace_ops,
        mem_request_ns,
        classify_ns,
    })
}

fn first_outcomes(cells: &[CellSpec], passes: &[Pass]) -> Vec<Option<Outcome>> {
    let mut out = vec![None; cells.len()];
    for r in passes.iter().flat_map(|p| &p.runs) {
        out[r.cell] = out[r.cell].or(r.outcome);
    }
    out
}

/// Each cell's host latency in ms, averaged over its runs in `passes`.
/// The host switches between two speeds about 1.5x apart every few
/// seconds; a short cell's single run sees one of them, while its mean
/// over the run's passes sees the mix, which holds steady from run to
/// run.
fn cell_ms(passes: &[Pass]) -> Vec<f64> {
    let mut sum: HashMap<usize, (f64, u32)> = HashMap::new();
    for r in passes.iter().flat_map(|p| &p.runs) {
        let e = sum.entry(r.cell).or_default();
        e.0 += r.host.as_secs_f64() * 1e3;
        e.1 += 1;
    }
    sum.values().map(|(ms, n)| ms / f64::from(*n)).collect()
}

fn end_to_end(r: &Run) -> Metrics {
    // Pass times are averaged, not medians: with two or three passes a
    // median picks one host speed, an average weighs both as the run saw
    // them (see `cell_ms`).
    let passes = r.plain.len() as f64;
    let wall: f64 = r.plain.iter().map(|p| p.wall.as_secs_f64()).sum();
    let ops: u64 = r
        .plain
        .iter()
        .flat_map(|p| p.runs.iter().filter_map(|c| c.outcome))
        .map(|o| o.committed)
        .sum();
    let cell_ms = cell_ms(&r.plain);
    let outcomes = first_outcomes(&r.cells, &r.plain);
    let sim_cycles: u64 = outcomes.iter().flatten().map(|o| o.cycles).sum();
    // Cells run baseline, redsoc, mos, ts within each (trace, core).
    let speedups: Vec<f64> = outcomes
        .chunks(Mode::all().len())
        .filter_map(|g| Some(g[0]?.cycles as f64 / g[1]?.cycles as f64))
        .collect();
    let cpu = r.plain.iter().map(|p| p.cpu).sum::<f64>() / passes;
    let ok = 1.0 - r.checker.failed as f64 / r.checker.attempted.max(1) as f64;
    vec![
        ("setup_s".into(), median(&r.setup_s), "s"),
        ("wall_s".into(), wall / passes, "s"),
        ("cpu_s".into(), cpu, "s"),
        ("sim_mips".into(), ops as f64 / wall / 1e6, "MIPS"),
        ("cell_ms.p50".into(), median(&cell_ms), "ms"),
        ("cell_ms.tail".into(), tail(&cell_ms).0, "ms"),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MiB"),
        ("ok_frac".into(), ok, "fraction"),
        ("sim_cycles".into(), sim_cycles as f64, "cycles"),
        ("redsoc_speedup".into(), geomean(&speedups), "x"),
    ]
}

/// Traced over plain host time. In-process workloads run each cell's
/// traced copy right after its plain one, so the ratio is taken over
/// those pairs; the sweep alternates whole passes, so it is the ratio
/// of their median walls.
fn trace_overhead(r: &Run) -> f64 {
    let secs = |d: &Duration| d.as_secs_f64();
    if !r.sweep_timings.is_empty() {
        let wall = |ps: &[Pass]| median(&ps.iter().map(|p| secs(&p.wall)).collect::<Vec<_>>());
        return wall(&r.traced) / wall(&r.plain);
    }
    let (mut plain, mut traced) = (0.0, 0.0);
    for (p, t) in r.plain.iter().zip(&r.traced) {
        for tr in &t.runs {
            traced += secs(&tr.host);
            plain += p
                .runs
                .iter()
                .find(|pr| pr.cell == tr.cell)
                .map_or(0.0, |pr| secs(&pr.host));
        }
    }
    traced / plain
}

fn per_layer(r: &Run) -> Metrics {
    let secs = |d: &Duration| d.as_secs_f64();
    let mut m: Metrics = vec![
        ("workloads.trace_s".into(), r.trace_s, "s"),
        (
            "workloads.trace_ns_per_op".into(),
            r.trace_s * 1e9 / r.trace_ops.max(1) as f64,
            "ns",
        ),
    ];
    m.extend(r.ledger.metrics());
    m.push(("mem.request_ns".into(), r.mem_request_ns, "ns"));
    m.push(("timing.classify_ns_per_op".into(), r.classify_ns, "ns"));
    let plumbing: Vec<f64> = r
        .plain
        .iter()
        .map(|p| secs(&p.wall) - p.runs.iter().map(|c| secs(&c.host)).sum::<f64>())
        .collect();
    let runs: Vec<_> = r.plain.iter().flat_map(|p| &p.runs).collect();
    let attempts =
        runs.iter().map(|c| f64::from(c.attempts)).sum::<f64>() / runs.len().max(1) as f64;
    let t = &r.sweep_timings;
    let med = |f: &dyn Fn(&SweepTimings) -> f64| median(&t.iter().map(f).collect::<Vec<_>>());
    let appends: Vec<f64> = t
        .iter()
        .flat_map(|x| x.journal_append.iter().map(|d| secs(d) * 1e6))
        .collect();
    m.push(("bench.plumbing_s".into(), median(&plumbing), "s"));
    m.push((
        "bench.worker_spawns".into(),
        med(&|x| x.worker_spawns as f64),
        "count",
    ));
    m.push(("bench.attempts_per_cell".into(), attempts, "attempts"));
    m.push(("bench.journal_append_us".into(), median(&appends), "us"));
    m.push((
        "bench.journal_resume_ms".into(),
        med(&|x| secs(&x.journal_resume) * 1e3),
        "ms",
    ));
    m.push((
        "bench.json_encode_ms".into(),
        med(&|x| secs(&x.json_encode) * 1e3),
        "ms",
    ));
    m.push(("trace_overhead".into(), trace_overhead(r), "x"));
    m.push((
        "cell_ms.samples".into(),
        cell_ms(&r.plain).len() as f64,
        "count",
    ));
    m
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker_main(&args[1..]);
    }
    let o = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match run(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for msg in &r.checker.messages {
        eprintln!("perfbench: FAILED {msg}");
    }
    let w = o.workload;
    let outcomes = first_outcomes(&r.cells, &r.plain);
    if let Some(path) = &o.write_ref {
        let Some(all) = outcomes.iter().copied().collect::<Option<Vec<_>>>() else {
            eprintln!("perfbench: not every cell completed; no reference written");
            return ExitCode::from(1);
        };
        let seed = (w == Workload::SpecMemory).then_some(o.seed);
        if let Err(e) = std::fs::write(path, check::reference_json(w, seed, &r.cells, &all)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }

    let metrics = if o.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    let traced = if o.trace {
        format!(", {} traced", r.traced.len())
    } else {
        String::new()
    };
    println!(
        "## {} (seed {}, {} plain passes{traced})\n",
        w.name(),
        o.seed,
        r.plain.len()
    );
    let decorated = r
        .inproc
        .as_ref()
        .map_or(&r.traced[..], std::slice::from_ref);
    println!(
        "{}",
        report::grid_table(&r.cells, &outcomes, &r.plain, decorated)
    );
    let cell_ms = cell_ms(&r.plain);
    println!(
        "cell latency (each cell's mean over {} passes): p50 and p{:.1} over {} cells; \
         {} of {} cell runs failed\n",
        r.plain.len(),
        tail(&cell_ms).1,
        cell_ms.len(),
        r.checker.failed,
        r.checker.attempted
    );
    println!("| metric | value | unit |\n|---|---:|---|");
    for (name, value, unit) in &metrics {
        println!("| {name} | {value:.6} | {unit} |");
    }
    println!();
    println!(
        "{}",
        report::result_line(
            r.checker.failed == 0,
            r.checker.attempted,
            r.checker.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
