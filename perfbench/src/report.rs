//! Order statistics and the human-readable tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use redsoc_bench::grid::Mode;
use redsoc_bench::json::Json;

use crate::workload::{CellSpec, Outcome, Pass};

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; the maximum when there are ten or fewer.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// One markdown row per core x scheduler, summed over the workload's
/// benchmarks: committed ops, simulated cycles, IPC, and host throughput
/// from each cell's median host time. Select requests per op come from
/// the `traced` passes' decorated runs, when there are any.
pub fn grid_table(
    cells: &[CellSpec],
    outcomes: &[Option<Outcome>],
    passes: &[Pass],
    traced: &[Pass],
) -> String {
    let mut host: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    for p in passes {
        for r in &p.runs {
            host[r.cell].push(r.host.as_secs_f64());
        }
    }
    // (core, mode) -> (committed, cycles, host seconds)
    let mut rows: BTreeMap<(usize, usize), (u64, u64, f64)> = BTreeMap::new();
    // (core, mode) -> (select requests, committed ops) of decorated runs
    let mut selects: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    let core_names: Vec<&str> = {
        let mut v: Vec<&str> = Vec::new();
        for c in cells {
            if !v.contains(&c.core_name) {
                v.push(c.core_name);
            }
        }
        v
    };
    for (i, c) in cells.iter().enumerate() {
        let Some(o) = outcomes[i] else { continue };
        let core = core_names
            .iter()
            .position(|n| *n == c.core_name)
            .unwrap_or(0);
        let mode = Mode::all().iter().position(|m| *m == c.mode).unwrap_or(0);
        let row = rows.entry((core, mode)).or_default();
        row.0 += o.committed;
        row.1 += o.cycles;
        row.2 += median(&host[i]);
        let decorated = traced.iter().flat_map(|p| &p.runs).filter(|r| r.cell == i);
        for req in decorated.filter_map(|r| r.select_requests) {
            let s = selects.entry((core, mode)).or_default();
            s.0 += req;
            s.1 += o.committed;
        }
    }
    let mut out = String::from(
        "| core | scheduler | committed ops | cycles | IPC | Mcycles/s | MIPS | select req/op |\n\
         |---|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for ((core, mode), (committed, cycles, secs)) in rows {
        let rpo = selects
            .get(&(core, mode))
            .map_or("n/a".to_string(), |(req, ops)| {
                format!("{:.3}", *req as f64 / *ops as f64)
            });
        let mode = Mode::all()[mode];
        let _ = writeln!(
            out,
            "| {} | {} | {committed} | {cycles} | {:.3} | {:.3} | {:.3} | {rpo} |",
            core_names[core],
            mode.label(),
            committed as f64 / cycles.max(1) as f64,
            cycles as f64 / secs / 1e6,
            committed as f64 / secs / 1e6,
        );
    }
    out
}

/// The result line: one JSON object on one line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ]);
    doc.pretty()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}
