//! Cross-scheduler golden-sweep equivalence.
//!
//! The committed fixture `fixtures/golden_sweep_len2000.json` is the full
//! (benchmark × core × mode) sweep at trace length 2000, captured from the
//! pre-refactor monolithic simulator. Re-running the sweep through the
//! staged pipeline + `Scheduler`-trait decomposition must reproduce it
//! **byte-identically** after canonicalisation (wall-clock, thread count
//! and resume provenance neutralised) — for every scheduler mode
//! (baseline, ReDSOC, MOS, TS) on every Table I core preset. Any
//! cycle-count, IPC, stall-attribution, speedup or status drift in any of
//! the 192 cells fails this test.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//!
//! ```text
//! cargo build --release
//! ./target/release/redsoc bench --threads 4 --len 2000 \
//!     --out crates/bench/tests/fixtures/golden_sweep_len2000.json
//! ```

use redsoc_bench::grid::{canonicalize_sweep, sweep_json, Mode};
use redsoc_bench::json::Json;
use redsoc_bench::runner::run_full_sweep;
use redsoc_bench::TraceCache;

/// Must match the `--len` the fixture was captured with.
const GOLDEN_LEN: u64 = 2000;

const GOLDEN: &str = include_str!("fixtures/golden_sweep_len2000.json");

#[test]
fn sweep_matches_pre_refactor_golden_fixture() {
    let golden = canonicalize_sweep(&Json::parse(GOLDEN).expect("fixture parses"));

    let cache = TraceCache::new(GOLDEN_LEN);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    let grid = run_full_sweep(&cache, &Mode::all(), threads);
    assert!(grid.fully_ok(), "golden sweep must complete every cell");
    let fresh = canonicalize_sweep(&sweep_json(&grid, GOLDEN_LEN));

    if golden != fresh {
        // Point at the first differing row so a regression is debuggable
        // straight from the test log.
        let ga = golden.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        let fa = fresh.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
        assert_eq!(ga.len(), fa.len(), "job count drifted");
        for (i, (g, f)) in ga.iter().zip(fa.iter()).enumerate() {
            assert_eq!(g, f, "job row #{i} diverged from the golden fixture");
        }
        panic!("sweep-level fields diverged from the golden fixture");
    }
}

/// Scan-equivalence property: the event-driven wakeup must produce the
/// *same event stream* as the legacy O(window) full scan it replaced —
/// not just the same end-of-run report. Every fuzz-generated program is
/// run through both paths (`Simulator::with_scan_wakeup`, compiled in via
/// the dev-only `scan-wakeup` feature) under every scheduler flavour,
/// including *unskewed* ReDSOC so the GP-mispeculation deferral path is
/// exercised, and the `(cycle, event)` sequences are compared entry by
/// entry. This is the strongest cycle-identicality oracle in the suite:
/// a ready-set entry waking one cycle late would shift a `SelectGrant`
/// even if the final cycle count happened to coincide.
#[test]
fn event_driven_wakeup_matches_full_scan_event_stream() {
    use redsoc_core::config::{CoreConfig, SchedulerConfig};
    use redsoc_core::events::VecSink;
    use redsoc_core::pipeline::Simulator;
    use redsoc_isa::interp::Interpreter;
    use redsoc_prng::SmallRng;
    use redsoc_verify::gen::{gen_case, GenKnobs};

    let scheds: Vec<(&str, SchedulerConfig)> = vec![
        ("baseline", SchedulerConfig::baseline()),
        ("redsoc", SchedulerConfig::redsoc()),
        ("redsoc-unskewed", {
            let mut s = SchedulerConfig::redsoc();
            s.skewed_select = false; // reaches GP-mispeculation recovery
            s
        }),
        ("mos", SchedulerConfig::mos()),
    ];
    let cores = CoreConfig::table1();

    let mut rng = SmallRng::seed_from_u64(0xC0DE_5EED);
    for case in 0..48u64 {
        let knobs = GenKnobs::sampled(&mut rng, 48);
        let program = gen_case(&mut rng, &knobs)
            .build()
            .unwrap_or_else(|e| panic!("case {case} builds: {e}"));
        let trace = Interpreter::new(&program)
            .run(4096)
            .unwrap_or_else(|e| panic!("case {case} must not fault: {e:?}"));
        let core = cores[(case % 3) as usize].clone();
        for (name, sched) in &scheds {
            let config = core.clone().with_sched(sched.clone());
            let mut scan = VecSink::default();
            let mut event_driven = VecSink::default();
            Simulator::new(config.clone())
                .expect("config valid")
                .with_scan_wakeup()
                .run_events(trace.iter().copied(), &mut scan)
                .unwrap_or_else(|e| panic!("case {case}/{name}: scan run failed: {e}"));
            Simulator::new(config)
                .expect("config valid")
                .run_events(trace.iter().copied(), &mut event_driven)
                .unwrap_or_else(|e| panic!("case {case}/{name}: event run failed: {e}"));
            if scan.events != event_driven.events {
                let i = scan
                    .events
                    .iter()
                    .zip(&event_driven.events)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| scan.events.len().min(event_driven.events.len()));
                panic!(
                    "case {case} ({}/{name}): event streams diverge at index {i}:\n\
                     scan:         {:?}\n\
                     event-driven: {:?}\n\
                     ({} vs {} events total)",
                    core.name,
                    scan.events.get(i),
                    event_driven.events.get(i),
                    scan.events.len(),
                    event_driven.events.len(),
                );
            }
        }
    }
}

/// Static-vs-boxed dispatch equivalence. `Simulator::new` runs a built-in
/// scheduler through a cycle loop monomorphised for it, while
/// `Simulator::with_scheduler` calls the same policy through
/// `dyn Scheduler`; `run_ts` likewise runs `TsScheduler` by value. On the
/// golden sweep's traces — every benchmark at length 2000, with the ML
/// kernels (which ignore the length) cut to their first 2000 ops — on
/// every core, both paths must give reports equal under `Debug`, and
/// `run_ts` must match the boxed run of its rescaled core.
#[test]
fn static_dispatch_matches_boxed_schedulers() {
    use redsoc_bench::redsoc_for;
    use redsoc_core::config::{CoreConfig, SchedulerConfig};
    use redsoc_core::pipeline::Simulator;
    use redsoc_core::sched::build_scheduler;
    use redsoc_core::sched::ts::{run_ts, ts_core_config, TsScheduler};
    use redsoc_workloads::Benchmark;

    let cache = TraceCache::new(GOLDEN_LEN);
    for bench in Benchmark::all() {
        let full = cache.get(bench);
        let trace = &full[..full.len().min(GOLDEN_LEN as usize)];
        for core in CoreConfig::table1() {
            let cell = |mode: &str| format!("{}/{}/{mode}", bench.name(), core.name);
            let mut baseline_cycles = 0;
            for sched in [
                SchedulerConfig::baseline(),
                redsoc_for(bench.class()),
                SchedulerConfig::mos(),
            ] {
                let config = core.clone().with_sched(sched);
                let mode = build_scheduler(&config.sched).name();
                let fixed = Simulator::new(config.clone())
                    .and_then(|s| s.run(trace.iter().copied()))
                    .unwrap_or_else(|e| panic!("{}: {e}", cell(mode)));
                let boxed =
                    Simulator::with_scheduler(config.clone(), build_scheduler(&config.sched))
                        .and_then(|s| s.run(trace.iter().copied()))
                        .unwrap_or_else(|e| panic!("{}: {e}", cell(mode)));
                assert_eq!(
                    format!("{fixed:?}"),
                    format!("{boxed:?}"),
                    "{}: static and boxed dispatch diverge",
                    cell(mode)
                );
                if mode == "baseline" {
                    baseline_cycles = fixed.cycles;
                }
            }
            let ts = run_ts(trace, &core, baseline_cycles, 0.01)
                .unwrap_or_else(|e| panic!("{}: {e}", cell("ts")));
            let boxed = Simulator::with_scheduler(
                ts_core_config(&core, ts.clock_ps),
                Box::new(TsScheduler),
            )
            .and_then(|s| s.run(trace.iter().copied()))
            .unwrap_or_else(|e| panic!("{}: {e}", cell("ts")));
            assert_eq!(ts.cycles, boxed.cycles, "{}: run_ts diverges", cell("ts"));
        }
    }
}
